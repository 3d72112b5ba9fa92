"""Wildcard tuples, multi-wildcard tuples and their information orders.

Partial answers (Section 2) use the single wildcard ``*`` for "a value that
must exist but whose identity is unknown"; partial answers with
multi-wildcards use ``*1, *2, ...`` where equal wildcards denote the same
null and distinct wildcards may or may not.  This module provides

* the wildcard value types,
* the preference orders ``⪯`` / ``≺`` on wildcard and multi-wildcard tuples,
* conversion of answer tuples over the chase (which contain labelled nulls)
  into (multi-)wildcard tuples, and
* the *balls* and *cones* of Section 6 used by the multi-wildcard
  enumeration algorithm: the ``reference_*`` recursive definitions, and
  :func:`ball`, :func:`cone`, :func:`strictly_less_informative_multi` and
  :func:`cone_template`, which compute them once per tuple *shape*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from repro.data.terms import is_null


class _SingleWildcard:
    """The single wildcard symbol ``*`` (a process-wide singleton)."""

    _instance: "_SingleWildcard | None" = None

    def __new__(cls) -> "_SingleWildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "*"

    def __reduce__(self):  # keep the singleton under pickling
        return (_SingleWildcard, ())


WILDCARD = _SingleWildcard()


@dataclass(frozen=True, slots=True, order=True)
class Wildcard:
    """A numbered wildcard ``*k`` for multi-wildcard tuples (k >= 1)."""

    index: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"*{self.index}"


def is_single_wildcard(value: object) -> bool:
    return value is WILDCARD


def is_multi_wildcard(value: object) -> bool:
    return isinstance(value, Wildcard)


def is_wildcard(value: object) -> bool:
    return value is WILDCARD or isinstance(value, Wildcard)


# ---------------------------------------------------------------------------
# Single-wildcard tuples
# ---------------------------------------------------------------------------


def collapse_nulls(answer: Sequence) -> tuple:
    """``ā*_N``: replace every labelled null of an answer tuple by ``*``."""
    return tuple(WILDCARD if is_null(value) else value for value in answer)


def leq_partial(left: Sequence, right: Sequence) -> bool:
    """``left ⪯ right``: ``right`` is obtained by replacing values with ``*``."""
    if len(left) != len(right):
        return False
    return all(r == l or r is WILDCARD for l, r in zip(left, right))


def lt_partial(left: Sequence, right: Sequence) -> bool:
    """``left ≺ right`` (strictly more informative)."""
    return tuple(left) != tuple(right) and leq_partial(left, right)


def minimal_partial_tuples(tuples: Iterable[Sequence]) -> set[tuple]:
    """The ``≺``-minimal elements of a set of wildcard tuples."""
    pool = {tuple(t) for t in tuples}
    return {
        candidate
        for candidate in pool
        if not any(lt_partial(other, candidate) for other in pool if other != candidate)
    }


def wildcard_positions(candidate: Sequence) -> tuple[int, ...]:
    return tuple(i for i, value in enumerate(candidate) if is_wildcard(value))


# ---------------------------------------------------------------------------
# Multi-wildcard tuples
# ---------------------------------------------------------------------------


def collapse_nulls_multi(answer: Sequence) -> tuple:
    """``ā^W_N``: consistently replace nulls by ``*1, *2, ...``.

    Equal nulls receive the same wildcard; wildcards are numbered in order of
    first occurrence, which is the normal form required of multi-wildcard
    tuples.
    """
    mapping: dict[object, Wildcard] = {}
    result = []
    for value in answer:
        if is_null(value):
            if value not in mapping:
                mapping[value] = Wildcard(len(mapping) + 1)
            result.append(mapping[value])
        else:
            result.append(value)
    return tuple(result)


def is_normalized_multi(candidate: Sequence) -> bool:
    """True if wildcard indices appear in first-occurrence order 1, 2, ..."""
    next_expected = 1
    seen: set[int] = set()
    for value in candidate:
        if isinstance(value, Wildcard):
            if value.index in seen:
                continue
            if value.index != next_expected:
                return False
            seen.add(value.index)
            next_expected += 1
    return True


def normalize_multi(candidate: Sequence) -> tuple:
    """Renumber wildcards into first-occurrence order."""
    mapping: dict[int, Wildcard] = {}
    result = []
    for value in candidate:
        if isinstance(value, Wildcard):
            if value.index not in mapping:
                mapping[value.index] = Wildcard(len(mapping) + 1)
            result.append(mapping[value.index])
        else:
            result.append(value)
    return tuple(result)


def leq_multi(left: Sequence, right: Sequence) -> bool:
    """``left ⪯ right`` for multi-wildcard tuples.

    Position-wise, ``right`` either equals ``left`` or carries a wildcard;
    moreover equal wildcards in ``right`` must correspond to equal values in
    ``left`` (wildcard merging only loses information).
    """
    if len(left) != len(right):
        return False
    for l, r in zip(left, right):
        if r == l:
            continue
        if not isinstance(r, Wildcard):
            return False
    groups: dict[Wildcard, object] = {}
    for l, r in zip(left, right):
        if isinstance(r, Wildcard):
            if r in groups and groups[r] != l:
                return False
            groups[r] = l
    return True


def lt_multi(left: Sequence, right: Sequence) -> bool:
    return tuple(left) != tuple(right) and leq_multi(left, right)


def minimal_multi_tuples(tuples: Iterable[Sequence]) -> set[tuple]:
    """The ``≺``-minimal elements of a set of multi-wildcard tuples."""
    pool = {tuple(t) for t in tuples}
    return {
        candidate
        for candidate in pool
        if not any(lt_multi(other, candidate) for other in pool if other != candidate)
    }


def multi_to_single(candidate: Sequence) -> tuple:
    """Collapse every numbered wildcard to the single wildcard ``*``."""
    return tuple(
        WILDCARD if isinstance(value, Wildcard) else value for value in candidate
    )


# ---------------------------------------------------------------------------
# Balls and cones (Section 6)
# ---------------------------------------------------------------------------


def set_partitions(items: Sequence) -> Iterator[list[list]]:
    """All set partitions of ``items`` (the restricted-growth enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for index in range(len(partition)):
            yield partition[:index] + [[first] + partition[index]] + partition[index + 1 :]
        yield [[first]] + partition


def reference_ball(candidate: Sequence) -> set[tuple]:
    """``B^W(ā*)``: multi-wildcard tuples that collapse to the given
    single-wildcard tuple.

    Each element keeps the constants of ``candidate`` and distributes its
    ``*`` positions over numbered wildcards according to some set partition.
    """
    candidate = tuple(candidate)
    positions = [i for i, value in enumerate(candidate) if value is WILDCARD]
    result: set[tuple] = set()
    for partition in set_partitions(positions):
        draft = list(candidate)
        for group_number, group in enumerate(partition, start=1):
            for position in group:
                draft[position] = Wildcard(group_number)
        result.add(normalize_multi(draft))
    return result


def reference_cone(candidate: Sequence) -> set[tuple]:
    """``cone^W(ā*)``: the union of the balls of all ``b̄* ⪰ ā*``."""
    candidate = tuple(candidate)
    constant_positions = [
        i for i, value in enumerate(candidate) if value is not WILDCARD
    ]
    result: set[tuple] = set()
    for promote_count in range(len(constant_positions) + 1):
        for promoted in combinations(constant_positions, promote_count):
            weakened = list(candidate)
            for position in promoted:
                weakened[position] = WILDCARD
            result |= reference_ball(weakened)
    return result


def reference_strictly_less_informative_multi(candidate: Sequence) -> set[tuple]:
    """All normalized multi-wildcard tuples ``b̄`` with ``candidate ≺ b̄``.

    Used by the pruning step of Algorithm 2; the count depends only on the
    tuple length, not on the data.
    """
    candidate = tuple(candidate)
    result: set[tuple] = set()
    single = multi_to_single(candidate)
    for weaker in reference_cone(single):
        if lt_multi(candidate, weaker):
            result.add(weaker)
    return result


# ---------------------------------------------------------------------------
# Shape templates: balls and cones computed once per shape
# ---------------------------------------------------------------------------
#
# The reference definitions above compare values only by equality and by
# wildcard identity, so their result for a tuple is determined by its
# *shape*: each constant replaced by the slot of its value (numbered by first
# occurrence, equal constants share a slot), wildcards kept.  They are run
# once per shape, and each result member is stored as a *mask* that keeps the
# tuple's own constant (``None``) or places a wildcard at every position.
# Instantiating a mask is one pass over the tuple; the caches are keyed by
# shape, so their size is bounded by the arity, never by the data.


def shape(candidate: Sequence) -> tuple:
    """The data-independent shape of a (multi-)wildcard tuple.

    Constants become integer slots numbered by the first occurrence of their
    value; ``*`` and ``*k`` stay as they are.
    """
    slots: dict = {}
    return tuple(
        value
        if value is WILDCARD or isinstance(value, Wildcard)
        else slots.setdefault(value, len(slots))
        for value in candidate
    )


def _instantiate(candidate: tuple, mask: tuple) -> tuple:
    return tuple(
        value if wildcard is None else wildcard
        for value, wildcard in zip(candidate, mask)
    )


def _informativeness(mask: tuple) -> tuple:
    """A sort key that is a linear extension of ``≺`` on one shape's members:
    fewer wildcard positions first, then fewer distinct wildcards (splitting
    a wildcard group forgets an equality)."""
    wildcards = [value for value in mask if value is not None]
    return (
        len(wildcards),
        len(set(wildcards)),
        tuple(0 if value is None else value.index for value in mask),
    )


def _masks(key: tuple, members: Iterable[tuple]) -> tuple[tuple, ...]:
    masks = []
    for member in members:
        mask = tuple(value if is_wildcard(value) else None for value in member)
        assert all(
            value == slot for value, slot, wild in zip(member, key, mask) if wild is None
        ), "a shape member moved a constant"
        masks.append(mask)
    return tuple(sorted(masks, key=_informativeness))


@cache
def _ball_masks(key: tuple) -> tuple[tuple, ...]:
    return _masks(key, reference_ball(key))


@cache
def _cone_masks(key: tuple) -> tuple[tuple, ...]:
    return _masks(key, reference_cone(key))


@cache
def _weaker_masks(key: tuple) -> tuple[tuple, ...]:
    return _masks(key, reference_strictly_less_informative_multi(key))


class ConeTemplate:
    """``cone^W`` of one single-wildcard shape, compiled for Algorithm 2.

    * ``masks`` — the cone members, ordered by a linear extension of ``≺``:
      a member comes before every member it is more informative than;
    * ``dominated[i]`` — the indices of the members strictly less informative
      than member ``i`` (all of them lie in the same cone);
    * ``ball`` — the indices of the ball members, in the same order.
    """

    __slots__ = ("masks", "dominated", "ball")

    def __init__(self, key: tuple) -> None:
        self.masks = _cone_masks(key)
        index = {mask: position for position, mask in enumerate(self.masks)}
        self.dominated = tuple(
            tuple(
                index[weaker]
                for weaker in _weaker_masks(shape(_instantiate(key, mask)))
            )
            for mask in self.masks
        )
        self.ball = tuple(index[mask] for mask in _ball_masks(key))

    def members(self, candidate: tuple) -> list[tuple]:
        """The cone members of ``candidate``, which must have this shape."""
        return [_instantiate(candidate, mask) for mask in self.masks]


@cache
def _cone_template(key: tuple) -> ConeTemplate:
    return ConeTemplate(key)


def cone_template(candidate: Sequence) -> ConeTemplate:
    """The compiled cone of ``candidate``'s shape (built on first use)."""
    return _cone_template(shape(candidate))


def ball(candidate: Sequence) -> set[tuple]:
    """:func:`reference_ball`, computed once per shape."""
    candidate = tuple(candidate)
    return {_instantiate(candidate, mask) for mask in _ball_masks(shape(candidate))}


def cone(candidate: Sequence) -> set[tuple]:
    """:func:`reference_cone`, computed once per shape."""
    candidate = tuple(candidate)
    return {_instantiate(candidate, mask) for mask in _cone_masks(shape(candidate))}


def strictly_less_informative_multi(candidate: Sequence) -> set[tuple]:
    """:func:`reference_strictly_less_informative_multi`, computed once per
    shape."""
    candidate = tuple(candidate)
    return {_instantiate(candidate, mask) for mask in _weaker_masks(shape(candidate))}
