"""Algorithm 2: enumeration of minimal partial answers with multi-wildcards.

Theorem 6.1 lifts the single-wildcard enumeration of Section 5 to
multi-wildcards by combining

* the single-wildcard enumerator ``A1`` (:class:`PartialAnswerEnumerator`),
* an all-tester ``A2`` for (not necessarily minimal) partial answers with
  multi-wildcards, and
* the ball / cone machinery of Section 6 with a pruning table that makes
  sure dominated tuples are never emitted.

Our ``A2`` substitute (:class:`MultiWildcardOracle`) answers each distinct
test by a homomorphism search over the chase with the wildcard pattern's
equality constraints and memoises the result; the paper's appendix algorithm
achieves O(1) per test after linear preprocessing, so the delay guarantee of
our implementation is O(||D||) per answer in the worst case (see
docs/architecture.md#partial-answers), while the produced answer set is
exactly ``Q(D)^W``.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from repro.data.instance import Database, Instance
from repro.data.terms import is_null
from repro.cq.atoms import Variable
from repro.cq.homomorphism import all_homomorphisms
from repro.cq.query import ConjunctiveQuery, QueryError
from repro.core.omq import OMQ
from repro.core.progress import PartialAnswerEnumerator
from repro.core.wildcards import Wildcard, cone_template


class _Pattern(NamedTuple):
    """The identified query of one equality pattern of candidates: the
    answer variables of each wildcard group, and of each class of equal
    constants, are replaced by one representative variable."""

    query: ConjunctiveQuery
    slot_variables: tuple[Variable, ...]
    group_variables: tuple[Variable, ...]


class MultiWildcardOracle:
    """Membership tests for (not necessarily minimal) multi-wildcard answers.

    A tuple ``āW`` belongs to ``q(I)^{W,⪯}_N`` iff some homomorphism of the
    query into the chase maps the constant positions to the given constants
    and the wildcard positions to labelled nulls whose equality pattern is
    exactly the wildcard pattern.

    The equality pattern of a candidate (which positions carry equal
    constants, which carry the same wildcard) is compiled once into an
    identified query (:class:`_Pattern`), so the search itself enforces the
    equalities inside a wildcard group; a candidate is then one search with
    its constants bound that stops at the first homomorphism mapping the
    group variables to pairwise distinct nulls.  A pattern that gives one
    answer variable two labels (a constant and a wildcard, two different
    constants or two different wildcards), or whose length is not the
    query's arity, has no such homomorphism.  Results
    are memoised per candidate, so repeated tests of the same tuple are O(1).
    """

    def __init__(self, query: ConjunctiveQuery, instance: Instance) -> None:
        self.query = query
        self.instance = instance
        self._cache: dict[tuple, bool] = {}
        self._patterns: dict[tuple, _Pattern | None] = {}

    def _compile(self, labels: tuple) -> _Pattern | None:
        """The identified query of a pattern; a label is a constant slot
        (``>= 0``) or a wildcard (``-k`` for ``*k``)."""
        if len(labels) != self.query.arity:
            return None
        label_of: dict[Variable, int] = {}
        for variable, label in zip(self.query.answer_variables, labels):
            if label_of.setdefault(variable, label) != label:
                return None
        representative: dict[int, Variable] = {}
        renaming = {
            variable: representative.setdefault(label, variable)
            for variable, label in label_of.items()
        }
        identified = ConjunctiveQuery(
            list(representative.values()),
            [atom.substitute(renaming) for atom in self.query.atoms],
            name=self.query.name,
        )
        return _Pattern(
            identified,
            tuple(representative[label] for label in sorted(representative) if label >= 0),
            tuple(variable for label, variable in representative.items() if label < 0),
        )

    def _check(self, candidate: tuple) -> bool:
        slots: dict[object, int] = {}
        labels = tuple(
            -value.index
            if isinstance(value, Wildcard)
            else slots.setdefault(value, len(slots))
            for value in candidate
        )
        if labels in self._patterns:
            pattern = self._patterns[labels]
        else:
            pattern = self._patterns[labels] = self._compile(labels)
        if pattern is None:
            return False
        partial = dict(zip(pattern.slot_variables, slots))
        group_variables = pattern.group_variables
        for homomorphism in all_homomorphisms(pattern.query, self.instance, partial):
            values = {homomorphism[variable] for variable in group_variables}
            if len(values) == len(group_variables) and all(map(is_null, values)):
                return True
        return False

    def test(self, candidate: Sequence) -> bool:
        candidate = tuple(candidate)
        if candidate not in self._cache:
            self._cache[candidate] = self._check(candidate)
        return self._cache[candidate]


class MultiWildcardEnumerator:
    """Enumerate ``Q(D)^W`` for an acyclic, free-connex acyclic OMQ."""

    def __init__(self, omq: OMQ, database: Database, strict: bool = True) -> None:
        if strict and not (omq.is_acyclic() and omq.is_free_connex_acyclic()):
            raise QueryError(
                f"{omq.name} is not acyclic and free-connex acyclic: DelayClin "
                "enumeration of multi-wildcard answers is not guaranteed"
            )
        self.omq = omq
        self.database = database
        self.chase = omq.chase(database)
        self._single = PartialAnswerEnumerator(omq.query, self.chase.instance)
        self._oracle = MultiWildcardOracle(omq.query, self.chase.instance)

    def is_empty(self) -> bool:
        return self._single.is_empty()

    def enumerate(self) -> Iterator[tuple]:
        """Yield exactly the minimal partial answers with multi-wildcards.

        The cone of each single-wildcard answer comes from its shape's
        :class:`~repro.core.wildcards.ConeTemplate`; its members are visited
        more informative first, so a member dominated by an admitted one is
        marked before it would be tested, and the first ball member that
        passes the oracle is ``≺``-minimal among those that do.
        """
        marked: set[tuple] = set()
        pending: dict[tuple, None] = {}
        test = self._oracle.test

        for single_answer in self._single.enumerate():
            template = cone_template(single_answer)
            members = template.members(single_answer)
            for candidate, dominated in zip(members, template.dominated):
                if candidate in marked:
                    continue
                marked.add(candidate)
                if not test(candidate):
                    continue
                pending[candidate] = None
                for index in dominated:
                    weaker = members[index]
                    marked.add(weaker)
                    pending.pop(weaker, None)

            for index in template.ball:
                chosen = members[index]
                if test(chosen):
                    yield chosen
                    pending.pop(chosen, None)
                    break

        yield from pending

    def __iter__(self) -> Iterator[tuple]:
        return self.enumerate()


def enumerate_multiwildcard_answers(
    omq: OMQ, database: Database, strict: bool = True
) -> Iterator[tuple]:
    """One-shot helper for ``Q(D)^W``."""
    yield from MultiWildcardEnumerator(omq, database, strict=strict)
