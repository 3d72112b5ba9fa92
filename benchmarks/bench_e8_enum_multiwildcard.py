"""E8 — Theorem 6.1 / Algorithm 2: multi-wildcard minimal partial answers.

The library substitutes the paper's appendix all-tester A2 by a memoised
homomorphism oracle (see docs/architecture.md#partial-answers), so the
delay of this enumerator is not guaranteed constant; the sweep makes the
deviation visible by reporting the same delay statistics as E7 alongside
the answer counts.  Correctness is
still exact: counts must match the naive materialise-and-minimise baseline.
"""

from repro.baselines import naive_minimal_partial_answers_multi
from repro.bench import measure_enumeration, print_table, scaling_exponent, time_call
from repro.core import MultiWildcardEnumerator
from repro.workloads import generate_office_database, office_omq

SIZES = (200, 400, 800, 1600)


def test_e8_multiwildcard_enumeration(benchmark):
    omq = office_omq()
    rows = []
    sizes, preprocessing_times = [], []
    for size in SIZES:
        database = generate_office_database(size, seed=size)
        profile = measure_enumeration(
            lambda db=database: MultiWildcardEnumerator(omq, db)
        )
        naive_time, naive_answers = time_call(
            naive_minimal_partial_answers_multi, omq, database
        )
        assert profile.answer_count == len(naive_answers)
        rows.append(
            (
                size,
                len(database),
                profile.preprocessing_seconds * 1000,
                profile.answer_count,
                profile.mean_delay * 1e6,
                profile.percentile_delay(0.95) * 1e6,
                naive_time * 1000,
            )
        )
        sizes.append(len(database))
        preprocessing_times.append(profile.preprocessing_seconds)
    preprocessing_exponent = scaling_exponent(sizes, preprocessing_times)
    print_table(
        [
            "researchers",
            "db facts",
            "preprocess (ms)",
            "answers",
            "mean delay (µs)",
            "p95 delay (µs)",
            "naive total (ms)",
        ],
        rows,
        title=(
            "E8  Multi-wildcard enumeration (Thm 6.1 / Algorithm 2); "
            f"preprocessing exponent = {preprocessing_exponent:.2f}; delay is "
            "O(||D||) worst case due to the substituted A2 oracle "
            "(docs/architecture.md#partial-answers)"
        ),
    )
    assert preprocessing_exponent < 1.7

    database = generate_office_database(400, seed=400)
    benchmark(lambda: list(MultiWildcardEnumerator(omq, database)))


def smoke() -> dict:
    """Tiny-input smoke run: multi-wildcard answers against the baseline."""
    omq = office_omq()
    database = generate_office_database(40, seed=40)
    answers = list(MultiWildcardEnumerator(omq, database))
    naive = naive_minimal_partial_answers_multi(omq, database)
    assert len(answers) == len(naive)
    return {"db_facts": len(database), "answers": len(answers)}


if __name__ == "__main__":
    import sys

    from _smoke import bench_main

    sys.exit(bench_main("e8_enum_multiwildcard", smoke))
