"""Answer checks against the naive baselines, run after the timed phases.

Usage::

    python3 omqbench/check.py '{"items": [...]}'

Each item names a workload, size and seed plus what the timed phase
returned (answer counts and digests).  The naive baselines of
``repro.baselines.naive`` (materialise every homomorphism over the chase)
recompute the expected answers; their digests are cached under
``omqbench/.cache`` per (item, size, seed), because the naive evaluation
costs seconds at full size.  Partial and multi-wildcard answers are
compared at a smaller size of the same generator, where the naive partial
baselines stay cheap.
"""

from __future__ import annotations

import json
import sys

from common import CACHE, digest


def _cached(key: str, compute) -> dict:
    path = CACHE / f"{key}.json"
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        pass
    value = compute()
    CACHE.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(value, handle)
    return value


def _scenario(workload: str, size: int, seed: int):
    from repro.workloads import get_workload

    return get_workload(workload).scenario(size=size, seed=seed)


def _complete(item: dict) -> list[str]:
    from repro.baselines.naive import naive_certain_answers
    from repro.core import OMQ

    workload, size, seed = item["workload"], item["size"], item["seed"]

    def compute() -> dict:
        scenario = _scenario(workload, size, seed)
        expected = {}
        for query in scenario.queries:
            rows = naive_certain_answers(OMQ.from_parts(scenario.ontology, query), scenario.database)
            expected[query.name] = [len(rows), digest(rows)]
        return expected

    expected = _cached(f"complete-{workload}-{size}-{seed}", compute)
    problems = []
    for sample in item["samples"]:
        for name, observed in sample.items():
            if expected.get(name) != observed:
                problems.append(
                    f"{workload}-{size} seed {seed} query {name}: {observed[0]} answers, "
                    f"naive baseline has {expected.get(name, ['?'])[0]}"
                )
    return problems


def _alltest(item: dict) -> list[str]:
    from repro.baselines.naive import naive_certain_answers
    from repro.core import OMQ

    from phases import alltest_candidates

    size, seed = item["size"], item["seed"]

    def compute() -> dict:
        scenario = _scenario("university", size, seed)
        omq = OMQ.from_parts(scenario.ontology, scenario.queries[0])
        answers = naive_certain_answers(omq, scenario.database)
        candidates = alltest_candidates(scenario.database, seed)
        return {"outcomes": digest([(int(candidate in answers),) for candidate in candidates])}

    expected = _cached(f"alltest-university-{size}-{seed}", compute)
    return [
        f"all-testing university-{size} seed {seed}: outcomes differ from the naive baseline"
        for outcomes in item["samples"]
        if outcomes != expected["outcomes"]
    ]


def _partial(item: dict) -> list[str]:
    """Theorem 5.2 and 6.1 enumerators against the naive partial baselines."""
    from repro.baselines.naive import (
        naive_minimal_partial_answers,
        naive_minimal_partial_answers_multi,
    )
    from repro.core import OMQ, MinimalPartialAnswerEnumerator, MultiWildcardEnumerator

    size, seed = item["size"], item["seed"]
    scenario = _scenario("university", size, seed)
    omq = OMQ.from_parts(scenario.ontology, scenario.queries[0])
    database = scenario.database
    problems = []
    single = list(MinimalPartialAnswerEnumerator(omq, database))
    if len(single) != len(set(single)) or set(single) != naive_minimal_partial_answers(omq, database):
        problems.append(f"minimal partial answers university-{size} seed {seed} differ from naive")
    multi = list(MultiWildcardEnumerator(omq, database))
    if len(multi) != len(set(multi)) or set(multi) != naive_minimal_partial_answers_multi(
        omq, database
    ):
        problems.append(f"multi-wildcard answers university-{size} seed {seed} differ from naive")
    return problems


KINDS = {"complete": _complete, "alltest": _alltest, "partial": _partial}


def main() -> int:
    payload = json.loads(sys.argv[1])
    problems = []
    for item in payload["items"]:
        problems.extend(KINDS[item["kind"]](item))
    print(json.dumps({"checked": len(payload["items"]), "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
