"""Tiny-size self-test of the benchmark command (``run.py``).

Usage, from the root of a checkout::

    python3 omqbench/selftest.py

Runs ``run.py`` at the ``tiny`` scale (a few seconds per run) untraced and
traced, and fails unless:

* both runs exit 0 and report ``correct: true`` with no failed operation;
* the untraced run emits exactly the ``end_to_end`` metrics of
  ``BENCHMARK.json`` and the traced run exactly its ``per_layer`` metrics,
  each with the declared unit and a finite value;
* every span file of the traced run nests (known parent, same operation,
  inside the parent's interval) and every self time is >= 0;
* a copy holding only ``BENCHMARK.json`` and ``omqbench/`` exits non-zero
  without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from common import HERE, OUT, ROOT
from tracing import check_nesting, self_times


def _run(*args: str, cwd=ROOT) -> tuple[int, str]:
    completed = subprocess.run(
        [sys.executable, str(cwd / "omqbench" / "run.py"), *args],
        cwd=str(cwd),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    return completed.returncode, completed.stdout


def _check_result(stdout: str, expected: dict, label: str) -> list[str]:
    result = json.loads(stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(
            f"{label}: missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}"
        )
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
        if name in expected and entry.get("unit") != expected[name]:
            problems.append(f"{label}: {name} unit {entry.get('unit')!r} != {expected[name]!r}")
    return problems


def _check_spans() -> list[str]:
    problems = []
    files = sorted(OUT.glob("*/spans-*.jsonl"))
    if not files:
        return ["traced run wrote no span files"]
    for path in files:
        with open(path, encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle]
        spans = [
            (r["id"], r["parent"], r["op"], r["name"], r["start"], r["end"], r["attrs"]) for r in rows
        ]
        if not spans:
            problems.append(f"{path.name}: no spans")
        problems += [f"{path.name}: {problem}" for problem in check_nesting(spans)]
        negative = [value for value in self_times(spans).values() if value < -1e-6]
        if negative:
            problems.append(f"{path.name}: {len(negative)} negative self times")
    return problems


def _check_bare_copy() -> list[str]:
    bare = OUT.parent / ".selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "omqbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
        code, stdout = _run("--workload", "tiny", "--seed", "1", "--seconds", "3", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or stdout.strip():
        return [f"bare copy: exit {code}, stdout {stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for trace, expected in (("0", end_to_end), ("1", per_layer)):
        code, stdout = _run("--workload", "tiny", "--seed", "7", "--seconds", "3", "--trace", trace)
        if code != 0:
            problems.append(f"trace {trace}: exit code {code}")
        problems += _check_result(stdout, expected, f"trace {trace}")
    problems += _check_spans()
    problems += _check_bare_copy()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
