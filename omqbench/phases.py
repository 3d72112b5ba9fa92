"""The benchmark's phase workers, one process each.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 omqbench/phases.py '{"phase": "lubm-cold", "size": 5000, "seed": 1}'

A worker sets up its phase's data (generate + load, ``setups`` times; each
is one set-up sample), prints one JSON line, then answers one JSON command
per stdin line with one JSON line: ``{"do": <task>, "seconds": s}`` runs
one task of the phase, ``{"exit": true}`` ends the worker with its final
report (peak RSS, and the span summary of its own set-up when traced).

Cold samples run in a *forked child* of the worker: the child starts from
the worker's state right after set-up, builds everything the sample needs
afresh and exits.  So every cold sample is isolated from the growth of the
program's process-wide interned term dictionary and caches, without paying
for a new interpreter and a new data set; the growth itself is reported as
``terms_added``.  Warm work (graph drains, all-tests) runs in the worker.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from contextlib import nullcontext
from itertools import islice
from typing import Callable

from common import PAGE, at_reference, digest, peak_rss_mb, probe, quantile
from tracing import Tracer, check_nesting, install, self_times

perf = time.perf_counter


class Context:
    """What a phase needs besides its payload: the optional tracer."""

    def __init__(self, tracer: Tracer | None, spans_out: str | None) -> None:
        self.tracer = tracer
        self.spans_out = spans_out

    def op(self, name: str):
        return self.tracer.op(name) if self.tracer is not None else nullcontext({})

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext({})

    def delay_label(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.delay_label(label)

    def forked(self, work: Callable[[], dict]) -> dict:
        """Run ``work`` in a forked child of this process; returns its result.

        The child's result carries its own peak RSS, the mean of a host-speed
        probe right before and right after ``work`` (``probe_s``) and, when
        traced, the summary of its own spans (the worker's are not inherited).
        """
        reader, writer = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(reader)
                try:
                    if self.tracer is not None:
                        self.tracer.reset()
                    before = probe()
                    result = work()
                    result["probe_s"] = (before + probe()) / 2
                    result["rss_mb"] = peak_rss_mb()
                    if self.tracer is not None:
                        result["trace"] = summarize_spans(self.tracer)
                        if self.spans_out:
                            self.tracer.dump(f"{self.spans_out}-{os.getpid()}.jsonl")
                    data, code = json.dumps(result), 0
                except BaseException as error:  # reported by the parent
                    data = json.dumps({"error": f"{type(error).__name__}: {error}"})
                with os.fdopen(writer, "w", encoding="utf-8") as handle:
                    handle.write(data)
            finally:
                os._exit(code)
        os.close(writer)
        with os.fdopen(reader, encoding="utf-8") as handle:
            data = handle.read()
        os.waitpid(pid, 0)
        result = json.loads(data) if data else {"error": "the forked sample died"}
        if "error" in result:
            raise RuntimeError(result["error"])
        return result


    def repeated(self, seconds: float, work: Callable[[], dict]) -> dict:
        """Forked samples of ``work`` until ``seconds`` have passed (at least one)."""
        deadline = perf() + seconds
        samples = [self.forked(work)]
        while perf() < deadline:
            samples.append(self.forked(work))
        return {"samples": samples}


def _drain(cursor) -> list[tuple]:
    rows: list[tuple] = []
    while True:
        page = cursor.fetchmany(PAGE)
        rows.extend(page)
        if len(page) < PAGE:
            return rows


def _stats(engine) -> dict:
    stats = engine.stats
    return {
        key: getattr(stats, key)
        for key in ("plan_hits", "plan_misses", "state_builds", "chase_builds", "cursors_opened")
    }


def _setup(payload: dict, workload: str) -> tuple[object, dict]:
    """Generate + load the phase's data ``setups`` times; keep the last."""
    from repro.workloads import get_workload

    samples, probes = [], [probe()]
    for _ in range(payload.get("setups", 1)):
        started = perf()
        scenario = get_workload(workload).scenario(size=payload["size"], seed=payload["seed"])
        samples.append(perf() - started)
        probes.append(probe())
    return scenario, {
        "setup_samples": samples,
        "setup_probe_s": [(a + b) / 2 for a, b in zip(probes, probes[1:])],
        "db_facts": len(scenario.database),
    }


Tasks = dict[str, Callable[[float], dict]]

#: All-tests are timed in chunks of at least this many seconds, each
#: followed by a host-speed probe.
CHUNK_S = 0.1


def lubm_cold(payload: dict, ctx: Context) -> tuple[dict, Tasks]:
    """Task ``cold``: a fresh engine drains the three LUBM queries."""
    from repro.data.interning import TERMS
    from repro.engine import QueryEngine

    scenario, report = _setup(payload, "lubm")

    def cold() -> dict:
        terms_before = len(TERMS)
        answers = {}
        with ctx.op("lubm.cold"):
            started = perf()
            engine = QueryEngine(scenario.ontology, scenario.database)
            for query in scenario.queries:
                cursor = engine.open(query)
                answers[query.name] = _drain(cursor)
                cursor.close()
            cold_s = perf() - started
        return {
            "cold_query_s": cold_s,
            "work_s": cold_s,
            "db_facts": len(scenario.database),
            "terms_added": len(TERMS) - terms_before,
            "engine": _stats(engine),
            "answers": {name: [len(rows), digest(rows)] for name, rows in answers.items()},
        }

    return report, {"cold": lambda seconds: ctx.repeated(seconds, cold)}


def graph_cold(payload: dict, ctx: Context) -> tuple[dict, Tasks]:
    """Task ``cold``: a fresh engine to the first answer of ``path``.

    The first sample then drains the rest (untimed) for the answer check;
    every later sample must return the same first answer.
    """
    from repro.data.interning import TERMS
    from repro.engine import QueryEngine

    scenario, report = _setup(payload, "graph")
    query = scenario.queries[0]
    digested = []

    def cold() -> dict:
        terms_before = len(TERMS)
        ctx.delay_label("cold")
        with ctx.op("graph.cold"):
            started = perf()
            engine = QueryEngine(scenario.ontology, scenario.database)
            cursor = engine.open(query)
            first = cursor.fetchmany(1)
            first_s = perf() - started
        result = {
            "cold_first_answer_s": first_s,
            "work_s": first_s,
            "first": [str(term) for term in first[0]],
            "terms_added": len(TERMS) - terms_before,
            "engine": _stats(engine),
        }
        if not digested:
            rows = first + _drain(cursor)
            result["answers"] = {query.name: [len(rows), digest(rows)]}
        cursor.close()
        return result

    def task(seconds: float) -> dict:
        result = ctx.repeated(seconds, cold)
        digested.append(True)
        return result

    return report, {"cold": task}


def graph_warm(payload: dict, ctx: Context) -> tuple[dict, Tasks]:
    """One cold build of ``path`` (drained and digested), then task ``warm``:
    warm drains of the same engine in pages of 1000."""
    from repro.engine import QueryEngine

    scenario, report = _setup(payload, "graph")
    query = scenario.queries[0]
    engine = QueryEngine(scenario.ontology, scenario.database)
    cursor = engine.open(query)
    rows = _drain(cursor)
    cursor.close()
    expected = len(rows)
    report["answers"] = {query.name: [expected, digest(rows)]}
    del rows

    def warm(seconds: float) -> dict:
        """Warm drains for ``seconds`` (at least one drain), each followed by
        a host-speed probe; ``probe_s[i]`` and ``probe_s[i + 1]`` surround
        drain ``i``."""
        ctx.delay_label(payload.get("delay_label", "warm"))
        pages: list[float] = []
        drain_s: list[float] = []
        probes = [probe()]
        drains = answers = wrong = 0
        busy = 0.0
        deadline = perf() + seconds
        while drains < 1 or perf() < deadline:
            count = 0
            with ctx.op("graph.warm"):
                drain_started = perf()
                cursor = engine.open(query)
                while True:
                    page_started = perf()
                    page = cursor.fetchmany(PAGE)
                    elapsed = perf() - page_started
                    count += len(page)
                    if len(page) < PAGE:
                        break
                    pages.append(elapsed)
                cursor.close()
                drain_s.append(perf() - drain_started)
                busy += drain_s[-1]
            probes.append(probe())
            drains += 1
            answers += count
            wrong += count != expected
        return {
            "drains": drains,
            "wrong_drains": wrong,
            "warm_answers": answers,
            "warm_s": busy,
            "drain_answers": expected,
            "drain_s": drain_s,
            "probe_s": probes,
            "page_s": pages,
            "work_s": busy,
            "engine": _stats(engine),
        }

    return report, {"warm": warm}


def alltest_candidates(database, seed: int) -> list[tuple]:
    """A fixed candidate batch: every true answer shape plus perturbed ones."""
    rng = random.Random(seed)
    works_for: dict[str, list[str]] = {}
    departments = set()
    for fact in database.relation("WorksFor"):
        works_for.setdefault(fact.args[0], []).append(fact.args[1])
        departments.add(fact.args[1])
    departments = sorted(departments)
    professors = sorted(works_for)
    candidates = []
    for fact in sorted(database.relation("HasAdvisor"), key=lambda f: f.args):
        student, advisor = fact.args
        for department in works_for.get(advisor, ()):
            candidates.append((student, advisor, department))
        candidates.append((student, advisor, rng.choice(departments)))
        candidates.append((student, rng.choice(professors), rng.choice(departments)))
    return candidates


def _probed_drain(answers, chunk: int = 250) -> tuple[list, float, float]:
    """Drain ``answers`` ``chunk`` at a time with a host-speed probe between
    chunks; returns (rows, seconds, seconds at the reference speed), the
    probes' own time left out of both.  For a long enumeration, whose
    surrounding probes are too far apart to follow the host."""
    rows: list = []
    seconds = reference_s = 0.0
    answers = iter(answers)
    before = probe()
    while True:
        started = perf()
        piece = list(islice(answers, chunk))
        elapsed = perf() - started
        after = probe()
        seconds += elapsed
        reference_s += at_reference(elapsed, (before + after) / 2)
        rows.extend(piece)
        if len(piece) < chunk:
            return rows, seconds, reference_s
        before = after


def _univ_omq(scenario):
    from repro.core import OMQ

    return OMQ.from_parts(scenario.ontology, scenario.queries[0], name="Q_univ")


def partial_univ(payload: dict, ctx: Context) -> tuple[dict, Tasks]:
    """Theorems 5.2 and 6.1 through the ``core`` API.  Task ``partial``: a
    fresh minimal-partial-answer enumerator is built and drained; task
    ``multi``: the same with the multi-wildcard enumerator."""
    from repro.core import MinimalPartialAnswerEnumerator, MultiWildcardEnumerator
    from repro.data.interning import TERMS

    scenario, report = _setup(payload, "university")
    database = scenario.database
    omq = _univ_omq(scenario)

    def partial() -> dict:
        terms_before = len(TERMS)
        with ctx.op("core.partial"):
            started = perf()
            with ctx.span("core.partial_prep"):
                enumerator = MinimalPartialAnswerEnumerator(omq, database)
            prepared = perf()
            with ctx.span("core.partial_enum"):
                answers = enumerator.enumerate()
                rows = [next(answers)]
                first = perf() - started
                rows.extend(answers)
            done = perf()
        return {
            "partial_first_answer_s": first,
            "partial_prep_s": prepared - started,
            "partial_enum_s": done - prepared,
            "partial_answers": len(rows),
            "work_s": done - started,
            "terms_added": len(TERMS) - terms_before,
            "answers": [len(rows), digest(rows)],
        }

    def multi() -> dict:
        with ctx.op("core.multi"):
            started = perf()
            with ctx.span("core.multi_prep"):
                enumerator = MultiWildcardEnumerator(omq, database)
            prepared = perf()
            with ctx.span("core.multi_enum"):
                if ctx.tracer is None:
                    rows, enum_s, enum_ref_s = _probed_drain(enumerator.enumerate())
                else:
                    rows = list(enumerator.enumerate())
                    enum_s = enum_ref_s = perf() - prepared
            done = perf()
        return {
            "multi_prep_s": prepared - started,
            "multi_enum_s": enum_s,
            "multi_enum_ref_s": enum_ref_s,
            "multi_answers": len(rows),
            "work_s": prepared - started + enum_s,
            "answers": [len(rows), digest(rows)],
        }

    return report, {
        "partial": lambda seconds: ctx.repeated(seconds, partial),
        "multi": lambda seconds: ctx.repeated(seconds, multi),
    }


def alltest(payload: dict, ctx: Context) -> tuple[dict, Tasks]:
    """Theorem 4.1(2): the all-tester is built once; task ``tests`` checks
    the fixed candidate batch over and over."""
    from repro.core import OMQAllTester

    scenario, report = _setup(payload, "university")
    omq = _univ_omq(scenario)
    with ctx.op("core.alltest_prep"):
        started = perf()
        tester = OMQAllTester(omq, scenario.database)
        report["alltest_prep_s"] = perf() - started
    candidates = alltest_candidates(scenario.database, payload["seed"])
    report["candidates"] = len(candidates)
    first: list = []

    def tests(seconds: float) -> dict:
        """Whole batches for ``seconds`` (at least one), in chunks of at
        least ``CHUNK_S`` each followed by a host-speed probe;
        ``probe_s[i]`` and ``probe_s[i + 1]`` surround chunk ``i``."""
        count = wrong = 0
        busy = 0.0
        chunk_tests: list[int] = []
        chunk_s: list[float] = []
        probes = [probe()]
        deadline = perf() + seconds
        while count == 0 or perf() < deadline:
            chunk_tests.append(0)
            chunk_s.append(0.0)
            while chunk_s[-1] < CHUNK_S:
                with ctx.op("core.alltest"):
                    started = perf()
                    batch = [tester.test(candidate) for candidate in candidates]
                    chunk_s[-1] += perf() - started
                chunk_tests[-1] += len(batch)
                if not first:
                    first.append(batch)
                wrong += batch != first[0]
            probes.append(probe())
            count += chunk_tests[-1]
            busy += chunk_s[-1]
        return {
            "tests": count,
            "test_s": busy,
            "chunk_tests": chunk_tests,
            "chunk_s": chunk_s,
            "probe_s": probes,
            "wrong_batches": wrong,
            "outcomes": digest([(int(flag),) for flag in first[0]]),
            "work_s": busy,
        }

    return report, {"tests": tests}


def serve_expect(payload: dict, ctx: Context) -> tuple[dict, Tasks]:
    """Expected answers of the serve-mixed tenants (see loadgen.expected_answers)."""
    from loadgen import expected_answers

    return {
        name: expected_answers(size, seed, payload["facts"])
        for name, size, seed in payload["tenants"]
    }, {}


PHASES = {
    "lubm-cold": lubm_cold,
    "graph-cold": graph_cold,
    "graph-warm": graph_warm,
    "partial-univ": partial_univ,
    "alltest": alltest,
    "serve-expect": serve_expect,
}


def summarize_spans(tracer: Tracer) -> dict:
    """Per span name: count, total and self seconds, and summed attributes."""
    spans = tracer.spans
    selfs = self_times(spans)
    summary: dict[str, dict] = {}
    for span in spans:
        span_id, _parent, _op, name, start, end, attrs = span
        entry = summary.setdefault(
            name, {"n": 0, "total_s": 0.0, "self_s": 0.0, "self": [], "durations": []}
        )
        entry["n"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += selfs[span_id]
        entry["self"].append(selfs[span_id])
        entry["durations"].append(end - start)
        for key, value in attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[key] = entry.get(key, 0) + value
    for entry in summary.values():
        values = entry.pop("self")
        durations = entry.pop("durations")
        entry["self_p50_s"] = quantile(values, 0.50)
        entry["self_min_s"] = min(values)
        entry["dur_p50_s"] = quantile(durations, 0.50)
        entry["dur_p99_s"] = quantile(durations, 0.99)
    delays = {}
    for label, sink in tracer.delays.items():
        if len(sink):
            delays[label] = {
                "n": len(sink),
                "p50_us": quantile(sink, 0.50) / 1000,
                "p99_us": quantile(sink, 0.99) / 1000,
                "max_us": max(sink) / 1000,
            }
    return {
        "spans": summary,
        "delays": delays,
        "span_count": len(spans),
        "nesting_problems": check_nesting(spans)[:20],
    }


def _emit(message: dict) -> None:
    print(json.dumps(message), flush=True)


def main() -> int:
    payload = json.loads(sys.argv[1])
    tracer = None
    if payload.get("trace"):
        tracer = Tracer()
        install(tracer)
    ctx = Context(tracer, payload.get("spans_out"))
    result, tasks = PHASES[payload["phase"]](payload, ctx)
    if payload.get("worker"):
        _emit(result)
        for line in sys.stdin:
            command = json.loads(line)
            if "do" not in command:
                break
            _emit(tasks[command["do"]](command.get("seconds", 0.0)))
        result = {}
    if payload["phase"] != "serve-expect":
        result["rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["trace"] = summarize_spans(tracer)
        if ctx.spans_out:
            tracer.dump(f"{ctx.spans_out}-{os.getpid()}.jsonl")
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
