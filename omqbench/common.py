"""Shared helpers of the OMQ benchmark: scales, statistics, child processes."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Gitignored scratch space inside the checkout: span files, naive-answer cache.
OUT = HERE / ".out"
CACHE = HERE / ".cache"

#: Input sizes per benchmark workload.  ``large`` is half the reference
#: sizes of the design (LUBM 5000, graph 20000, 2 tenants x university 2000,
#: university 5000) and ``small`` an eighth, so ``large`` is 4x ``small``.
#: ``tenant`` is the size of each of the two university tenants the server
#: holds; ``check_univ`` the size at which partial answers are compared with
#: the naive baselines.
SCALES = {
    "large": {"lubm": 2500, "graph": 10000, "tenant": 1000, "univ": 2500, "check_univ": 400},
    "small": {"lubm": 625, "graph": 2500, "tenant": 250, "univ": 625, "check_univ": 200},
}

PAGE = 1000

#: What :func:`probe` takes on the reference host (2 vCPUs, Python 3.11),
#: in seconds.  Timings are reported at that host speed; see README.md.
PROBE_REF_S = 0.015


def probe() -> float:
    """Seconds of a fixed interpreter-bound task: the host-speed probe.

    Tuple-keyed dict and set work, as in the program's inner loops, with the
    garbage collector paused, so the heap the program leaves behind does not
    change the probe's cost.  The host's speed drifts by up to 1.7x over
    minutes; a probe run in the same process right next to a sample moves
    with it (correlation 0.97-0.99 over 5-30 s windows), so
    ``seconds * PROBE_REF_S / probe()`` is the sample's time at the reference
    speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        for index in range(40000):
            table[(index % 997, index)] = index
        seen = {key[0] for key in table if key[1] % 3}
        total = sum(table.get((index % 997, index), 0) for index in range(0, 40000, 2))
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if not (total and seen):
        raise AssertionError("probe computed nothing")
    return elapsed


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured next to a probe of ``probe_s``, at the reference speed."""
    return seconds * PROBE_REF_S / probe_s


def quantile(values, fraction: float) -> float:
    """The nearest-rank quantile (the value at rank ceil(fraction * n))."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(rows) -> str:
    """Order-independent digest of a multiset of answer tuples.

    The sum, modulo 2**64, of Python's hash of every row's terms as strings:
    equal multisets give equal digests whatever order they were produced in.
    String hashes depend on ``PYTHONHASHSEED``, which :func:`child_env` fixes
    for every process that computes or compares a digest.
    """
    total = 0
    for row in rows:
        total += hash(tuple(map(str, row)))
    return f"{total % (1 << 64):016x}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The program's own tracing stays off in every run; spans come from
    # the benchmark's wrappers only.
    env.pop("REPRO_TRACE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A phase worker process (see phases.py).

    ``result`` is its set-up report; :meth:`call` runs one task and returns
    the reply; :meth:`close` ends the process and returns its final report.
    """

    def __init__(self, script: str, payload: dict, timeout: float = 170.0) -> None:
        self.timeout = timeout
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / script), json.dumps(dict(payload, worker=True))],
            env=child_env(),
            cwd=str(ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.result = self._read()

    def _read(self) -> dict:
        ready, _, _ = select.select([self.process.stdout], [], [], self.timeout)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise RuntimeError(f"worker {self.process.args[1]} failed: {self.process.stderr.read()[-2000:]}")
        return json.loads(line)

    def call(self, command: dict) -> dict:
        """Send one command (``{"do": task, "seconds": s}``); returns the reply."""
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> dict:
        final = self.call({"exit": True})
        self.process.wait(timeout=self.timeout)
        self.process.stdin.close()
        self.process.stdout.close()
        self.process.stderr.close()
        return final

    def kill(self) -> None:
        """End the process (and its children) if it still runs."""
        if self.process.poll() is None:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait()


def run_child(script: str, payload: dict, timeout: float = 170.0) -> dict:
    """Run ``omqbench/<script>`` with a JSON payload; its last stdout line is JSON."""
    # A session of its own, so a timeout also ends the child's children
    # (the serve-mixed phase starts the server process).
    process = subprocess.Popen(
        [sys.executable, str(HERE / script), json.dumps(payload)],
        env=child_env(),
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(
            f"{script} {payload.get('phase', '')} exited {process.returncode}: "
            f"{stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])
