"""Tests for wildcard tuples, multi-wildcard tuples, orders, balls and cones."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wildcards import (
    WILDCARD,
    Wildcard,
    ball,
    collapse_nulls,
    collapse_nulls_multi,
    cone,
    cone_template,
    is_normalized_multi,
    is_wildcard,
    leq_multi,
    leq_partial,
    lt_multi,
    lt_partial,
    minimal_multi_tuples,
    minimal_partial_tuples,
    multi_to_single,
    normalize_multi,
    reference_ball,
    reference_cone,
    reference_strictly_less_informative_multi,
    set_partitions,
    shape,
    strictly_less_informative_multi,
    wildcard_positions,
)
from repro.data.terms import Null


class TestSingleWildcard:
    def test_wildcard_is_singleton(self):
        assert WILDCARD is type(WILDCARD)()
        assert is_wildcard(WILDCARD)
        assert not is_wildcard("a")

    def test_collapse_nulls(self):
        assert collapse_nulls(("a", Null(1), "b")) == ("a", WILDCARD, "b")

    def test_leq_examples_from_paper(self):
        # (a, b) ≺ (a, *) and (a, *) ≺ (*, *)
        assert lt_partial(("a", "b"), ("a", WILDCARD))
        assert lt_partial(("a", WILDCARD), (WILDCARD, WILDCARD))
        assert not leq_partial(("a", WILDCARD), ("a", "b"))
        assert leq_partial(("a", "b"), ("a", "b"))

    def test_leq_requires_same_length(self):
        assert not leq_partial(("a",), ("a", WILDCARD))

    def test_minimal_partial_tuples(self):
        tuples = {("a", "b"), ("a", WILDCARD), (WILDCARD, WILDCARD), ("c", WILDCARD)}
        assert minimal_partial_tuples(tuples) == {("a", "b"), ("c", WILDCARD)}

    def test_wildcard_positions(self):
        assert wildcard_positions(("a", WILDCARD, Wildcard(1))) == (1, 2)


class TestMultiWildcard:
    def test_collapse_nulls_multi_numbering(self):
        n1, n2 = Null(11), Null(12)
        assert collapse_nulls_multi(("a", n1, "b", "a", n2, n1, n2)) == (
            "a",
            Wildcard(1),
            "b",
            "a",
            Wildcard(2),
            Wildcard(1),
            Wildcard(2),
        )

    def test_normalization(self):
        assert is_normalized_multi((Wildcard(1), "a", Wildcard(2)))
        assert not is_normalized_multi((Wildcard(2), Wildcard(1)))
        assert normalize_multi((Wildcard(5), "a", Wildcard(5), Wildcard(2))) == (
            Wildcard(1),
            "a",
            Wildcard(1),
            Wildcard(2),
        )

    def test_leq_examples_from_paper(self):
        # (*1, a) ≺ (*1, *2)  and  (a, *1, *2, *1) ≺ (a, *1, *2, *3)
        assert lt_multi((Wildcard(1), "a"), (Wildcard(1), Wildcard(2)))
        assert lt_multi(
            ("a", Wildcard(1), Wildcard(2), Wildcard(1)),
            ("a", Wildcard(1), Wildcard(2), Wildcard(3)),
        )
        assert not leq_multi((Wildcard(1), Wildcard(2)), (Wildcard(1), "a"))

    def test_merging_loses_information(self):
        # (a, a) ≺ (*1, *1) ≺ (*1, *2)
        assert lt_multi(("a", "a"), (Wildcard(1), Wildcard(1)))
        assert lt_multi((Wildcard(1), Wildcard(1)), (Wildcard(1), Wildcard(2)))
        # but (a, b) with a != b is NOT ⪯ (*1, *1)
        assert not leq_multi(("a", "b"), (Wildcard(1), Wildcard(1)))

    def test_minimal_multi_tuples(self):
        tuples = {
            ("a", Wildcard(1)),
            (Wildcard(1), Wildcard(2)),
            (Wildcard(1), Wildcard(1)),
        }
        assert minimal_multi_tuples(tuples) == {
            ("a", Wildcard(1)),
            (Wildcard(1), Wildcard(1)),
        }

    def test_multi_to_single(self):
        assert multi_to_single(("a", Wildcard(2), Wildcard(1))) == (
            "a",
            WILDCARD,
            WILDCARD,
        )


class TestBallsAndCones:
    def test_set_partitions_count(self):
        # Bell numbers: 1, 1, 2, 5, 15
        assert len(list(set_partitions([]))) == 1
        assert len(list(set_partitions([1]))) == 1
        assert len(list(set_partitions([1, 2]))) == 2
        assert len(list(set_partitions([1, 2, 3]))) == 5
        assert len(list(set_partitions([1, 2, 3, 4]))) == 15

    def test_ball_of_two_wildcards(self):
        candidates = ball(("a", WILDCARD, WILDCARD))
        assert candidates == {
            ("a", Wildcard(1), Wildcard(2)),
            ("a", Wildcard(1), Wildcard(1)),
        }

    def test_ball_without_wildcards(self):
        assert ball(("a", "b")) == {("a", "b")}

    def test_cone_contains_ball(self):
        candidate = ("a", WILDCARD)
        assert ball(candidate) <= cone(candidate)

    def test_cone_example_from_paper(self):
        # Example 6.2: (c, *1, *2, *1) is in the cone of (c, c', *, *) but
        # not in its ball.
        single = ("c", "cprime", WILDCARD, WILDCARD)
        target = ("c", Wildcard(1), Wildcard(2), Wildcard(1))
        assert target not in ball(single)
        assert target in cone(single)

    def test_cone_members_are_normalized(self):
        for member in cone(("a", WILDCARD, "b")):
            assert is_normalized_multi(member)

    def test_strictly_less_informative(self):
        weaker = strictly_less_informative_multi(("a", Wildcard(1)))
        assert (Wildcard(1), Wildcard(2)) in weaker
        # (*1, *1) asserts an equality that ("a", *1) does not imply.
        assert (Wildcard(1), Wildcard(1)) not in weaker
        assert ("a", Wildcard(1)) not in weaker
        for candidate in weaker:
            assert lt_multi(("a", Wildcard(1)), candidate)


# -- order-theoretic properties ----------------------------------------------

_values = st.sampled_from(["a", "b", WILDCARD])
_single_tuples = st.tuples(_values, _values, _values)


@settings(max_examples=60, deadline=None)
@given(_single_tuples, _single_tuples, _single_tuples)
def test_single_order_is_a_partial_order(t1, t2, t3):
    """Property: ⪯ on wildcard tuples is reflexive, antisymmetric, transitive."""
    assert leq_partial(t1, t1)
    if leq_partial(t1, t2) and leq_partial(t2, t1):
        assert t1 == t2
    if leq_partial(t1, t2) and leq_partial(t2, t3):
        assert leq_partial(t1, t3)


_multi_values = st.sampled_from(["a", "b", Wildcard(1), Wildcard(2)])
_multi_tuples = st.tuples(_multi_values, _multi_values, _multi_values).map(normalize_multi)


@settings(max_examples=60, deadline=None)
@given(_multi_tuples, _multi_tuples, _multi_tuples)
def test_multi_order_is_a_partial_order(t1, t2, t3):
    """Property: ⪯ on multi-wildcard tuples is a partial order."""
    assert leq_multi(t1, t1)
    if leq_multi(t1, t2) and leq_multi(t2, t1):
        assert t1 == t2
    if leq_multi(t1, t2) and leq_multi(t2, t3):
        assert leq_multi(t1, t3)


@settings(max_examples=40, deadline=None)
@given(_multi_tuples)
def test_multi_collapse_is_monotone(candidate):
    """Property: collapsing multi-wildcards to '*' respects the orders."""
    single = multi_to_single(candidate)
    assert leq_partial(single, single)
    for weaker in strictly_less_informative_multi(candidate):
        assert leq_partial(single, multi_to_single(weaker))


@settings(max_examples=40, deadline=None)
@given(st.lists(_single_tuples, min_size=1, max_size=8))
def test_minimal_partial_tuples_are_minimal_and_cover(tuples):
    """Property: minimisation returns exactly the non-dominated tuples, and
    every tuple is dominated by some minimal one."""
    pool = set(tuples)
    minimal = minimal_partial_tuples(pool)
    for candidate in minimal:
        assert not any(lt_partial(other, candidate) for other in pool)
    for candidate in pool:
        assert any(leq_partial(m, candidate) for m in minimal)


# -- shape templates ------------------------------------------------------------

_shape_values = st.sampled_from(
    ["a", "b", "c", 1, WILDCARD, Wildcard(1), Wildcard(2), Wildcard(3)]
)
_shape_tuples = st.lists(_shape_values, max_size=4).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_shape_tuples)
def test_compiled_balls_and_cones_equal_the_reference(candidate):
    """Property: the per-shape templates reproduce the recursive definitions
    on tuples mixing repeated constants, ``*`` and numbered wildcards."""
    assert ball(candidate) == reference_ball(candidate)
    assert cone(candidate) == reference_cone(candidate)
    assert strictly_less_informative_multi(
        candidate
    ) == reference_strictly_less_informative_multi(candidate)


@settings(max_examples=100, deadline=None)
@given(_shape_tuples.map(multi_to_single))
def test_cone_template_orders_and_dominance(candidate):
    """Property: a template lists every cone member once, more informative
    members first, with the dominated indexes and ball of the reference."""
    template = cone_template(candidate)
    members = template.members(candidate)
    assert set(members) == reference_cone(candidate)
    assert len(members) == len(set(members))
    for i, member in enumerate(members):
        weaker = {members[j] for j in template.dominated[i]}
        assert weaker == reference_strictly_less_informative_multi(member)
        assert all(i < j for j in template.dominated[i])
    assert {members[i] for i in template.ball} == reference_ball(candidate)


def test_repeated_constant_shares_a_slot():
    assert shape(("a", "a", WILDCARD)) == (0, 0, WILDCARD)
    assert shape(("b", "a", "b")) == (0, 1, 0)
    assert shape(("a", Wildcard(1), "a")) == (0, Wildcard(1), 0)


def test_repeated_constant_dominance():
    """``(a, a, *)``: the repeated constant makes ``(*1, *1, *2)`` dominate
    ``(a, a, *1)``, which a template that forgot the equality would miss."""
    candidate = ("a", "a", Wildcard(1))
    target = (Wildcard(1), Wildcard(1), Wildcard(2))
    assert target in strictly_less_informative_multi(candidate)
    assert target not in strictly_less_informative_multi(("a", "b", Wildcard(1)))
    template = cone_template(("a", "a", WILDCARD))
    members = template.members(("a", "a", WILDCARD))
    index = members.index(candidate)
    assert target in {members[j] for j in template.dominated[index]}
    # Same shape, other constants: the template instantiates, not copies.
    assert cone(("b", "b", WILDCARD)) == reference_cone(("b", "b", WILDCARD))
