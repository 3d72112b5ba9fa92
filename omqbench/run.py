"""One outside-in benchmark of the OMQ system: cold chase, warm enumeration,
mixed HTTP serving and partial answers.

Usage, from the root of a checkout::

    python3 omqbench/run.py --workload large --seed 1 --seconds 40 --trace 0

Every run executes four phases on inputs made from ``--seed`` at the
workload's scale (``large`` or ``small``, see ``omqbench/README.md``):

* ``lubm-cold``    — fresh engines drain three LUBM queries (chase-bound);
* ``graph-enum``   — fresh engines to the first ``path`` answer, and warm
  drains in pages of 1000;
* ``serve-mixed``  — ``repro.server`` in its own process, 90/10 read/write
  open-loop traffic at 100 rps and closed-loop saturation bursts;
* ``partial-univ`` — minimal partial answers, multi-wildcard answers and
  all-testing through ``repro.core``.

The phases run interleaved, round after round, for ``--seconds``.  Every
answer is checked (naive baselines, an in-process engine for HTTP).  The
last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass (plus ``obs.trace_overhead`` against an untraced pass in the same run).
The exit code is 1 when any answer is wrong and 2 when the program is not
there to run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from statistics import median

from common import OUT, ROOT, SCALES, Worker, at_reference, quantile, run_child
from loadgen import ServeSession

#: Scale of the self-test only (see selftest.py); not a benchmark workload.
SCALES = dict(
    SCALES, tiny={"lubm": 150, "graph": 400, "tenant": 60, "univ": 150, "check_univ": 60}
)

END_TO_END = {
    "setup_s": "s",
    "cold_query_s": "s",
    "cold_first_answer_s": "s",
    "answers_per_s": "1/s",
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "max_rps": "1/s",
    "partial_first_answer_s": "s",
    "partial_answers_per_s": "1/s",
    "multi_answers_per_s": "1/s",
    "tests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Seconds of each task in one round (see TASKS).  A cold task takes forked
#: samples until its time has passed (at least one); warm drains and
#: all-tests run for their time; the serve tasks are an open-loop window at
#: 100 rps (120 requests) and a closed-loop burst.
ROUND = {
    "lubm": 0.8,
    "graph": 0.4,
    "warm": 0.8,
    "partial": 0.5,
    "multi": 0.6,
    "tests": 0.6,
    "window": 1.2,
    "saturate": 0.5,
}
#: Every run takes at least this many rounds, however short ``--seconds``.
MIN_ROUNDS = 3
#: Set-up samples per phase (generate + load; server start).
SETUPS = 3

#: Fractions of the workload's LUBM size at which the traced run measures
#: chase time per database fact (1.0 comes from the cold samples).
CHASE_SWEEP = {"x025": 0.25, "x050": 0.5}


#: The round's tasks: (phases key, worker, worker task); the serve tasks
#: run from this process.
TASKS = (
    ("lubm", "lubm", "cold"),
    ("graph", "graph", "cold"),
    ("warm", "warm", "warm"),
    ("partial", "partial", "partial"),
    ("multi", "partial", "multi"),
    ("tests", "tests", "tests"),
    ("window", None, None),
    ("saturate", None, None),
)


def run_pass(scale: dict, seed: int, seconds: float, *, trace: bool, out_dir: Path) -> dict:
    """Start every phase's worker and the server, then run rounds until
    ``seconds`` have passed (at least ``MIN_ROUNDS``); returns the raw results.

    One round runs every task of ``ROUND`` once: cold LUBM samples, cold
    graph samples, warm graph drains, minimal-partial and multi-wildcard
    enumerations, all-tests, an open-loop window and a closed-loop burst.
    So the samples of every metric are spread over the whole run.
    """
    spans = (lambda name: str(out_dir / f"spans-{name}")) if trace else (lambda name: None)
    phases: dict = {key: [] for key in ("lubm", "graph", "warm", "partial", "multi", "tests")}
    workers: dict = {}
    session = None
    try:
        started = time.perf_counter()
        session = ServeSession(scale["tenant"], seed, out_dir, starts=SETUPS, trace=trace,
                               load_seconds=seconds * ROUND["window"] / 6)
        for key, phase, size, setups in (
            ("lubm", "lubm-cold", scale["lubm"], SETUPS),
            ("graph", "graph-cold", scale["graph"], SETUPS),
            ("warm", "graph-warm", scale["graph"], 1),
            ("partial", "partial-univ", scale["univ"], SETUPS),
            ("tests", "alltest", scale["univ"], 1),
        ):
            workers[key] = Worker("phases.py", dict(
                phase=phase, size=size, seed=seed, trace=trace, setups=setups,
                delay_label="x100", spans_out=spans(key),
            ))
        setup_wall = time.perf_counter() - started
        started = time.perf_counter()
        deadline = started + seconds
        walls: dict = {}
        rounds = 0
        # A round starts only if it is expected to end by the deadline
        # (rounds so far give its length), so runs do not overrun.
        while rounds < MIN_ROUNDS or (
            time.perf_counter() + (time.perf_counter() - started) / rounds < deadline
        ):
            for key, worker, task in TASKS:
                task_started = time.perf_counter()
                if worker is None:
                    getattr(session, key)(ROUND[key])
                else:
                    reply = workers[worker].call({"do": task, "seconds": ROUND[key]})
                    phases[key].extend(reply["samples"] if "samples" in reply else [reply])
                walls[key] = walls.get(key, 0.0) + time.perf_counter() - task_started
            rounds += 1
        phases["rounds"] = rounds
        phases["wall_s"] = dict(walls, setup=setup_wall, rounds=time.perf_counter() - started)
        phases["setup"] = {key: worker.result for key, worker in workers.items()}
        phases["final"] = {key: worker.close() for key, worker in workers.items()}
        phases["serve"] = session.finish()
    finally:
        for worker in workers.values():
            worker.kill()
        if session is not None:
            session.close()
    return phases


def check_answers(scale: dict, seed: int, phases: dict) -> tuple[int, int, list[str]]:
    """Compare every phase's answers with the baselines: (attempted, failed, problems)."""
    lubm, graph, serve = phases["lubm"], phases["graph"], phases["serve"]
    partial, multi, warm, tests = phases["partial"], phases["multi"], phases["warm"], phases["tests"]
    items = [
        {"kind": "complete", "workload": "lubm", "size": scale["lubm"], "seed": seed,
         "samples": [sample["answers"] for sample in lubm]},
        {"kind": "complete", "workload": "graph", "size": scale["graph"], "seed": seed,
         "samples": [graph[0]["answers"], phases["setup"]["warm"]["answers"]]},
        {"kind": "alltest", "size": scale["univ"], "seed": seed,
         "samples": [piece["outcomes"] for piece in tests]},
        {"kind": "partial", "size": scale["check_univ"], "seed": seed},
    ]
    started = time.perf_counter()
    problems = run_child("check.py", {"items": items})["problems"]
    print(f"# answer checks: {time.perf_counter() - started:.1f} s")
    attempted = 3 * len(lubm) + len(graph) + len(partial) + len(multi) + 1  # + the warm build
    attempted += sum(piece["drains"] for piece in warm) + sum(piece["tests"] for piece in tests)
    attempted += serve["attempted"] + 2  # + the two partial-answer checks at check size
    failed = len(problems) + serve["failed"]
    # No naive baseline runs at the timed partial size: every sample must
    # agree with the first, and every cold graph sample's first answer with
    # that of the first (digested) sample.
    for label, rows, key in (("partial-univ", partial, "answers"), ("multi-wildcard", multi, "answers"),
                             ("cold graph", graph, "first")):
        wrong = sum(row[key] != rows[0][key] for row in rows)
        if wrong:
            failed += wrong
            problems.append(f"{wrong} {label} samples disagree with the first")
    for label, pieces, key in (("warm graph drains", warm, "wrong_drains"),
                               ("all-test batches", tests, "wrong_batches")):
        wrong = sum(piece[key] for piece in pieces)
        if wrong:
            failed += wrong
            problems.append(f"{wrong} {label} disagree with the first")
    if serve["failed"]:
        problems.append(f"{serve['failed']} serve-mixed operations failed: {serve['failures']}")
    return attempted, failed, problems


def _values(phases: dict, timed) -> dict:
    """The end-to-end metric values, each a median over the run's samples.

    ``timed(seconds, probe_s)`` turns a measured duration into the reported
    one: :func:`common.at_reference` for the reported metrics, or the raw
    duration for the detail.
    """
    serve, setup = phases["serve"], phases["setup"]

    def cold(key, name):
        return median([timed(row[name], row["probe_s"]) for row in phases[key]])

    def rate(key, count, seconds):
        return median([row[count] / timed(row[seconds], row["probe_s"]) for row in phases[key]])

    def probed(pieces, counts, durations):
        """Per piece of a slice: count / duration, with the probes around it."""
        return median([
            (piece[counts][index] if isinstance(piece[counts], list) else piece[counts])
            / timed(seconds, (piece["probe_s"][index] + piece["probe_s"][index + 1]) / 2)
            for piece in pieces
            for index, seconds in enumerate(piece[durations])
        ])

    def setup_s(report):
        return median([timed(seconds, probe_s) for seconds, probe_s
                       in zip(report["setup_samples"], report["setup_probe_s"])])

    reference = timed is at_reference
    return {
        "setup_s": sum(setup_s(setup[key]) for key in ("lubm", "graph", "partial"))
        + serve["setup_ref_s" if reference else "setup_s"],
        "cold_query_s": cold("lubm", "cold_query_s"),
        "cold_first_answer_s": cold("graph", "cold_first_answer_s"),
        "answers_per_s": probed(phases["warm"], "drain_answers", "drain_s"),
        # Open-loop latencies are as measured (see README.md).
        "read_p50_ms": serve["read_p50_ms"],
        "write_p50_ms": serve["write_p50_ms"],
        "max_rps": serve["max_rps_ref"] if reference else median(serve["saturation_rps"]),
        "partial_first_answer_s": cold("partial", "partial_first_answer_s"),
        "partial_answers_per_s": rate("partial", "partial_answers", "partial_enum_s"),
        # Scaled chunk by chunk while enumerating (see phases._probed_drain).
        "multi_answers_per_s": median([
            row["multi_answers"] / row["multi_enum_ref_s" if reference else "multi_enum_s"]
            for row in phases["multi"]
        ]),
        "tests_per_s": probed(phases["tests"], "chunk_tests", "chunk_s"),
        "peak_rss_mb": max(
            [row["rss_mb"] for key in ("lubm", "graph", "partial", "multi") for row in phases[key]]
            + [final["rss_mb"] for final in phases["final"].values()] + [serve["rss_mb"]]
        ),
    }


def end_to_end(phases: dict) -> dict:
    """The end-to-end metrics, timings at the reference host speed."""
    values = _values(phases, at_reference)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _span(summary: dict, name: str, key: str = "self_s") -> float:
    return summary["spans"].get(name, {}).get(key, 0.0)


def per_layer(traced: dict, untraced: dict, extra: dict) -> dict:
    """Per-layer metrics from the traced pass (name -> (value, unit))."""
    lubm = [sample["trace"] for sample in traced["lubm"]]
    graph = [sample["trace"] for sample in traced["graph"]]
    partials = [sample["trace"] for sample in traced["partial"]]
    multis = [sample["trace"] for sample in traced["multi"]]
    final = {key: report["trace"] for key, report in traced["final"].items()}
    setup = traced["setup"]
    server = traced["serve"]["server_trace"]
    engine_counts = traced["lubm"][0]["engine"]
    served = traced["serve"]["engine"]
    attempts = served.get("chase_increments", 0) + served.get("incremental_fallbacks", 0)
    warm_drains = sum(piece["drains"] for piece in traced["warm"])

    def med(traces, name, key="self_s"):
        return median([_span(t, name, key) for t in traces])

    chase_s = med(lubm, "chase.chase")
    chase_facts = med(lubm, "chase.chase", "chase_facts")
    db_facts = med(lubm, "chase.chase", "db_facts")
    rows_in = med(graph, "enumeration.reduce", "rows_in")
    rows_out = med(graph, "enumeration.reduce", "rows_out")
    metrics = {
        # The queries are parsed at set-up (by the generator) and again by
        # the engine in each cold sample.
        "cq.parse_s": (med(lubm, "cq.parse")
                       + _span(final["lubm"], "cq.parse") / len(setup["lubm"]["setup_samples"]), "s"),
        "engine.plan_s": (med(lubm, "engine.plan") + med(lubm, "engine.prepare_query"), "s"),
        "engine.open_s": (med(lubm, "engine.open"), "s"),
        "engine.page_s": (_span(final["warm"], "engine.page", "self_p50_s"), "s"),
        "engine.plan_hits": (engine_counts["plan_hits"], "count"),
        "engine.plan_misses": (engine_counts["plan_misses"], "count"),
        "engine.state_builds": (engine_counts["state_builds"], "count"),
        "engine.chase_builds": (engine_counts["chase_builds"], "count"),
        "chase.chase_s": (chase_s, "s"),
        "chase.chase_facts": (chase_facts, "count"),
        "chase.db_facts": (db_facts, "count"),
        "chase.facts_per_s": (chase_facts / chase_s, "1/s"),
        "chase.ns_per_db_fact.x100": (1e9 * chase_s / db_facts, "ns"),
        "chase.graph_chase_s": (med(graph, "chase.chase"), "s"),
        "chase.partial_chase_s": (med(partials, "chase.chase"), "s"),
        "planner.plan_choice_s": (med(lubm, "planner.plan_choice"), "s"),
        "planner.candidates": (med(lubm, "planner.plan_choice", "candidates"), "count"),
        "planner.graph_plan_choice_s": (med(graph, "planner.plan_choice"), "s"),
        "enumeration.reduce_s": (med(graph, "enumeration.reduce"), "s"),
        "enumeration.reduce_rows_in": (rows_in, "count"),
        "enumeration.reduce_rows_out": (rows_out, "count"),
        "enumeration.reduce_keep_ratio": (rows_out / rows_in, "ratio"),
        "enumeration.lubm_reduce_s": (med(lubm, "enumeration.reduce"), "s"),
        # Walk busy time per warm drain (the warm worker's set-up drain included).
        "enumeration.enumerate_s": (
            _span(final["warm"], "enumeration.enumerate") / (warm_drains + 1), "s"
        ),
        "incremental.refresh_s": (_span(server, "incremental.refresh", "dur_p50_s"), "s"),
        "incremental.apply_delta_s": (_span(server, "incremental.apply_delta", "dur_p50_s"), "s"),
        "incremental.maintain_s": (_span(server, "incremental.maintain", "dur_p50_s"), "s"),
        "incremental.chase_increments": (served.get("chase_increments", 0), "count"),
        "incremental.fallbacks": (served.get("incremental_fallbacks", 0), "count"),
        "incremental.fallback_ratio": (
            served.get("incremental_fallbacks", 0) / max(1, attempts),
            "ratio",
        ),
        "data.load_s": (
            sum(_span(final[key], "data.load", "dur_p50_s") for key in ("lubm", "graph", "partial")),
            "s",
        ),
        "data.db_facts": (
            sum(setup[key]["db_facts"] for key in ("lubm", "graph", "partial")), "count"
        ),
        "data.interned_terms_added.lubm_cold": (traced["lubm"][0]["terms_added"], "count"),
        "data.interned_terms_added.graph_cold": (traced["graph"][0]["terms_added"], "count"),
        "data.interned_terms_added.partial_prep": (traced["partial"][0]["terms_added"], "count"),
        "core.partial_prep_s": (med(partials, "core.partial_prep", "total_s"), "s"),
        "core.partial_enum_s": (med(partials, "core.partial_enum", "total_s"), "s"),
        "core.multi_prep_s": (med(multis, "core.multi_prep", "total_s"), "s"),
        "core.multi_enum_s": (med(multis, "core.multi_enum", "total_s"), "s"),
        "core.alltest_prep_s": (_span(final["tests"], "core.alltest_prep", "total_s"), "s"),
        "core.test_us": (
            1e6 * sum(p["test_s"] for p in traced["tests"]) / sum(p["tests"] for p in traced["tests"]),
            "us",
        ),
        "server.handle_ms.query": (1000 * _span(server, "server.handle.query", "dur_p50_s"), "ms"),
        "server.handle_ms.query_p99": (1000 * _span(server, "server.handle.query", "dur_p99_s"), "ms"),
        "server.handle_ms.facts": (1000 * _span(server, "server.handle.facts", "dur_p50_s"), "ms"),
        "server.generator_late_ms": (traced["serve"]["late_p99_ms"], "ms"),
        "server.rejects": (
            sum(t.get("rejected", 0) for t in traced["serve"]["tenants"].values()),
            "count",
        ),
        "server.plan_hits": (served.get("plan_hits", 0), "count"),
        "server.plan_misses": (served.get("plan_misses", 0), "count"),
        "server.state_builds": (served.get("state_builds", 0), "count"),
        "server.chase_builds": (served.get("chase_builds", 0), "count"),
    }
    for label, result in extra["chase"].items():
        trace = result["trace"]
        metrics[f"chase.ns_per_db_fact.{label}"] = (
            1e9 * _span(trace, "chase.chase") / _span(trace, "chase.chase", "db_facts"),
            "ns",
        )
    delays = {"x100": final["warm"]["delays"]["x100"], "x025": extra["delay"]["delays"]["x025"]}
    for label, stats in sorted(delays.items()):
        metrics[f"enumeration.delay_p50_us.{label}"] = (stats["p50_us"], "us")
        metrics[f"enumeration.delay_p99_us.{label}"] = (stats["p99_us"], "us")
        metrics[f"enumeration.delay_max_us.{label}"] = (stats["max_us"], "us")
    traced_work, untraced_work = _work(traced), _work(untraced)
    for name in traced_work:
        metrics[f"obs.trace_overhead.{name}"] = (traced_work[name] / untraced_work[name], "ratio")
    metrics["obs.trace_overhead"] = (
        sum(traced_work.values()) / sum(untraced_work.values()),
        "ratio",
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


def _work(phases: dict) -> dict:
    """Median work time per phase, comparable between passes of different
    length: per cold sample, per warm drain, per partial enumeration, and
    for serve-mixed the mean read latency."""

    def per(rows, count=None):
        return median([row["work_s"] / (row[count] if count else 1) for row in rows])

    return {
        "lubm_cold": per(phases["lubm"]),
        "graph_enum": per(phases["graph"]) + per(phases["warm"], "drains"),
        "partial_univ": per(phases["partial"]) + per(phases["multi"]),
        "serve_mixed": phases["serve"]["work_s"],
    }


def trace_problems(traced: dict, extra: dict) -> list[str]:
    """Spans must nest and self times must be >= 0 in every traced process."""
    traces = [s["trace"] for key in ("lubm", "graph", "partial", "multi") for s in traced[key]]
    traces += [report["trace"] for report in traced["final"].values()]
    traces.append(traced["serve"]["server_trace"])
    traces += [r["trace"] for r in extra["chase"].values()] + [extra["delay"]]
    problems = []
    for trace in traces:
        if trace is None:
            problems.append("a traced process returned no spans")
            continue
        problems.extend(trace["nesting_problems"])
        for name, entry in trace["spans"].items():
            if entry["self_min_s"] < -1e-6:
                problems.append(f"span {name} has negative self time {entry['self_min_s']}")
    return problems


def report(title: str, phases: dict) -> None:
    """Human-readable detail (sample counts, counters, tails) before the result line."""
    serve = phases["serve"]
    warm, tests = phases["warm"], phases["tests"]
    pages = [page for piece in warm for page in piece["page_s"]]

    def samples(key, *names):
        return {name: [round(row[name], 4) for row in phases[key]] for name in names}

    probes = [row["probe_s"] for key in ("lubm", "graph", "partial", "multi") for row in phases[key]]
    probes += [value for key in ("warm", "tests") for piece in phases[key] for value in piece["probe_s"]]
    detail = {
        "rounds": phases["rounds"],
        "raw_metrics": _values(phases, lambda seconds, _probe_s: seconds),
        "probe_ms": {
            "n": len(probes),
            "p50": 1000 * quantile(probes, 0.50),
            "min": 1000 * min(probes),
            "max": 1000 * max(probes),
            "serve (server, generator)": serve["probe_ms"],
        },
        "wall_s": {key: round(value, 2) for key, value in phases["wall_s"].items()},
        "setup_samples_s": {
            key: [round(value, 4) for value in report["setup_samples"]]
            for key, report in phases["setup"].items()
        },
        "lubm-cold": dict(samples("lubm", "cold_query_s"), engine=phases["lubm"][0]["engine"],
                          terms_added=phases["lubm"][0]["terms_added"]),
        "graph-enum cold": dict(samples("graph", "cold_first_answer_s"),
                                engine=phases["graph"][0]["engine"],
                                terms_added=phases["graph"][0]["terms_added"]),
        "graph-enum warm": {
            "drains": sum(piece["drains"] for piece in warm),
            "pages": len(pages),
            "page_p50_ms": 1000 * quantile(pages, 0.50),
            "page_p99_ms": 1000 * quantile(pages, 0.99),
            "engine": warm[-1]["engine"],
        },
        "serve-mixed": {
            k: v for k, v in serve.items() if k not in ("server_trace", "failures")
        },
        "partial-univ": dict(
            samples("partial", "partial_first_answer_s", "partial_enum_s"),
            answers=phases["partial"][0]["partial_answers"],
            terms_added=phases["partial"][0]["terms_added"],
            multi=samples("multi", "multi_prep_s", "multi_enum_s"),
            multi_answers=phases["multi"][0]["multi_answers"],
        ),
        "partial-univ tests": {
            "tests": sum(piece["tests"] for piece in tests),
            "candidates": phases["setup"]["tests"]["candidates"],
            "alltest_prep_s": phases["setup"]["tests"]["alltest_prep_s"],
        },
    }
    print(f"# {title}")
    print(json.dumps(detail, indent=1, sort_keys=True))


def _delay_sample(scale: dict, seed: int, out_dir: Path) -> dict:
    """Traced warm drains of a graph at a quarter of the size (one slice)."""
    worker = Worker("phases.py", dict(
        phase="graph-warm", size=scale["graph"] // 4, seed=seed, trace=True, delay_label="x025",
        spans_out=str(out_dir / "spans-delay"),
    ))
    try:
        worker.call({"do": "warm", "seconds": 2 * ROUND["warm"]})
        return worker.close()["trace"]
    finally:
        worker.kill()


def _chase_sample(scale: dict, seed: int, fraction: float, out_dir: Path) -> dict:
    """One traced cold LUBM sample at ``fraction`` of the workload's size."""
    size = int(scale["lubm"] * fraction)
    worker = Worker("phases.py", dict(
        phase="lubm-cold", size=size, seed=seed, trace=True, spans_out=str(out_dir / "spans-sweep"),
    ))
    try:
        sample = worker.call({"do": "cold"})["samples"][0]
        worker.close()
        return sample
    finally:
        worker.kill()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # Spans and server reports of the latest run only, under .out/<run>/.
    shutil.rmtree(OUT, ignore_errors=True)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True)
    scale = SCALES[args.workload]
    started = time.perf_counter()
    if args.trace:
        # A short untraced pass as the reference for the tracing overhead,
        # then a traced pass of half the run's length.
        untraced = run_pass(scale, args.seed, 0.0, trace=False, out_dir=out_dir)
        phases = run_pass(scale, args.seed, args.seconds / 2, trace=True, out_dir=out_dir)
        extra = {
            "chase": {
                label: _chase_sample(scale, args.seed, fraction, out_dir)
                for label, fraction in CHASE_SWEEP.items()
            },
            "delay": _delay_sample(scale, args.seed, out_dir),
        }
        metrics = per_layer(phases, untraced, extra)
        problems = trace_problems(phases, extra)
    else:
        phases = run_pass(scale, args.seed, args.seconds, trace=False, out_dir=out_dir)
        metrics = end_to_end(phases)
        problems = []
    attempted, failed, answer_problems = check_answers(scale, args.seed, phases)
    problems = answer_problems + problems
    failed += len(problems) - len(answer_problems)
    report(f"{args.workload} seed {args.seed}: {time.perf_counter() - started:.1f} s", phases)
    for problem in problems:
        print(f"FAILED: {problem}")
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
