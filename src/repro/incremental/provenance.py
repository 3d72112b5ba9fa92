"""The provenance-tracking delta chase: maintain ``ch^q_O(D)`` under updates.

A :class:`ChaseMaintainer` owns the provenance of one chase run and is the
mutation engine that keeps the chased instance valid afterwards.  The run
itself only appends to the maintainer's log: the key of each suppressed
trigger (body matched but head already satisfied), and the key, body match
and head assignment of each fired one.  The DRed indexes are built from
that log on the first delta that removes facts: per fired trigger, the
supporting body facts and the created facts/nulls (a *firing*), and, per
suppressed trigger, one satisfaction witness found again in the current
instance.  A database that never deletes never pays for them.  The
records support both update directions:

* **Insertions** seed the existing semi-naive delta loop with only the new
  facts — cost proportional to the consequences of the delta.
* **Deletions** run DRed-style over-delete + re-derive: the full support
  cone of every deleted fact is removed (retracting its firings), facts
  justified by a *surviving* firing — or by database membership — are put
  back, and the retracted triggers plus every suppressed trigger whose
  witness was destroyed are re-checked against the surviving instance,
  re-firing exactly the affected cone before the delta loop closes it.

Over-deleting the whole cone (instead of stopping at facts with a
surviving alternative justification) is what makes deletion sound: a
firing that survives the cascade, by construction, never lost a body fact,
so every re-derivation is well-founded and no circularly-justified facts
can keep each other alive.

At quiescence the instance is again a fixpoint of the depth-truncated
restricted chase of the *mutated* database: every trigger with a body match
is either fired (its products are present) or suppressed by a live witness,
so complete-answer evaluation agrees with a from-scratch run (the instance
may contain extra, homomorphically redundant null trees — firings whose
heads a later insertion happened to satisfy — which cannot change null-free
answers because homomorphisms fix constants).

Paper anchors: the maintained object is the query-directed chase
``ch^q_O(D)`` of Section 3, whose null-free answers are the certain answers
(Lemma 3.2); the suppressed-trigger bookkeeping mirrors the *restricted*
chase the paper fixes in Section 2 (fire only triggers whose head is not
yet satisfied).  The deletion strategy itself is the classic DRed
over-delete/re-derive scheme from incremental Datalog view maintenance
(Gupta, Mumick & Subrahmanian, SIGMOD 1993), adapted to existential heads
via the recorded satisfaction witnesses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.data.facts import Fact
from repro.data.instance import Database
from repro.data.terms import Null, NullFactory, shared_null_factory
from repro.chase.standard import (
    ChaseNotTerminating,
    ChaseResult,
    CompiledOntology,
    _delta_body_maps,
    _head_witness,
    _trigger_key,
    compile_ontology,
)
from repro.cq.atoms import Variable
from repro.cq.homomorphism import find_homomorphism
from repro.incremental.delta import Delta
from repro.tgds.ontology import Ontology


@dataclass(eq=False)
class Firing:
    """One fired trigger: its inputs (support) and outputs (products)."""

    tgd_index: int
    frontier: dict[Variable, object]
    body_facts: tuple[Fact, ...]
    created_facts: tuple[Fact, ...]
    created_nulls: tuple[Null, ...]


@dataclass(eq=False)
class Suppressed:
    """One suppressed trigger and the witness that satisfied its head."""

    tgd_index: int
    frontier: dict[Variable, object]
    witness_facts: tuple[Fact, ...]


class ChaseMaintainer:
    """Provenance store plus delta-application engine for one chase.

    Create it *before* the chase, pass its :attr:`log` as the run's
    ``provenance``, then :meth:`attach` the :class:`ChaseResult`;
    afterwards :meth:`apply` keeps the chased instance in sync with
    database mutations.  The DRed indexes (:attr:`firings`,
    :attr:`suppressed` and the fact-to-trigger inverted indexes) stay
    empty until the first delta that removes facts builds them from the
    log (:meth:`build_indexes`); insert-only deltas before that point
    append to the log like the chase did.
    """

    def __init__(
        self,
        database: Database,
        ontology: Ontology,
        max_null_depth: int | None = None,
        max_facts: int = 5_000_000,
        max_rounds: int = 10_000,
    ) -> None:
        self.database = database
        self.ontology = ontology
        self.max_null_depth = max_null_depth
        self.max_facts = max_facts
        self.max_rounds = max_rounds
        self.compiled: CompiledOntology = compile_ontology(ontology)
        self.result: ChaseResult | None = None
        #: The append-only trigger log (see :func:`repro.chase.standard.
        #: chase`), emptied once :meth:`build_indexes` has consumed it.
        self.log: list = []
        self.indexed = False
        self.firings: dict[tuple, Firing] = {}
        self.suppressed: dict[tuple, Suppressed] = {}
        # Inverted indexes: fact -> trigger keys that depend on it.
        self._by_support: dict[Fact, set[tuple]] = {}
        self._by_witness: dict[Fact, set[tuple]] = {}
        self._by_creation: dict[Fact, set[tuple]] = {}
        self._fired: set[tuple] = set()
        # Placeholder until attach() hands over the chase run's own factory;
        # drawing from the shared counter keeps labels process-unique even
        # if a delta is applied before any chase ran.
        self._fresh: NullFactory = shared_null_factory()

    def attach(self, result: ChaseResult) -> None:
        """Adopt the finished chase run that appended to :attr:`log`."""
        if result.provenance is not self.log:
            raise ValueError("maintainer's log was not the provenance of this chase run")
        self.result = result
        self._fired = result.fired
        self._fresh = result.instance.null_factory

    # -- bookkeeping helpers ----------------------------------------------

    def build_indexes(self) -> None:
        """Turn the trigger log into the DRed indexes (idempotent).

        A firing's support comes from its logged chase-time body match: a
        match found now could rest on the firing's own products, which
        would be circular.  A suppressed trigger's frontier is its key, and
        its witness is found again in the current instance — sound because
        that instance is a fixpoint that only grew since the trigger was
        logged (it still holds the logged witness), and because nothing
        depends on a suppressed trigger.
        """
        if self.indexed:
            return
        if self.result is None:
            raise RuntimeError("maintainer has no attached chase result")
        instance = self.result.instance
        compiled = self.compiled
        suppressed = self.suppressed
        log = self.log
        # Consumed from the end so each entry's maps are freed while the
        # indexes grow.  Order does not matter: before the first deletion a
        # key is logged as fired at most once, and never both fired and
        # suppressed, because the instance only grows.
        while log:
            entry = log.pop()
            if len(entry) == 3:
                self._record_firing(*entry)
                continue
            if entry in suppressed:
                continue  # re-examined in a later round: same witness
            tgd_index, values = entry
            frontier = dict(zip(compiled.frontier_orders[tgd_index], values))
            witness = _head_witness(
                compiled.head_queries[tgd_index], frontier, instance
            )
            assert witness is not None, "suppressed trigger lost its witness"
            self._record_suppressed(entry, frontier, witness)
        self.indexed = True

    def _record_firing(
        self,
        key: tuple,
        body_map: dict[Variable, object],
        head_map: dict[Variable, object],
    ) -> None:
        self._drop_suppressed(key)
        tgd_index = key[0]
        compiled = self.compiled
        tgd = compiled.tgds[tgd_index]
        firing = Firing(
            tgd_index,
            {v: head_map[v] for v in compiled.frontiers[tgd_index]},
            tuple(atom.to_fact(body_map) for atom in tgd.body),
            tuple(atom.to_fact(head_map) for atom in tgd.head),
            tuple(head_map[v] for v in compiled.existentials[tgd_index]),
        )
        self.firings[key] = firing
        for fact in set(firing.body_facts):
            self._by_support.setdefault(fact, set()).add(key)
        for fact in set(firing.created_facts):
            self._by_creation.setdefault(fact, set()).add(key)

    def _record_suppressed(
        self,
        key: tuple,
        frontier: dict[Variable, object],
        witness: dict[Variable, object],
    ) -> None:
        self._drop_suppressed(key)
        tgd_index = key[0]
        witness_facts = tuple(
            atom.to_fact(witness) for atom in self.compiled.tgds[tgd_index].head
        )
        self.suppressed[key] = Suppressed(tgd_index, frontier, witness_facts)
        for fact in set(witness_facts):
            self._by_witness.setdefault(fact, set()).add(key)

    def _drop_suppressed(self, key: tuple) -> None:
        entry = self.suppressed.pop(key, None)
        if entry is None:
            return
        for fact in set(entry.witness_facts):
            bucket = self._by_witness.get(fact)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_witness[fact]

    def _retract_firing(self, key: tuple) -> Firing | None:
        firing = self.firings.pop(key, None)
        if firing is None:
            return None
        self._fired.discard(key)
        for index, facts in (
            (self._by_support, firing.body_facts),
            (self._by_creation, firing.created_facts),
        ):
            for fact in set(facts):
                bucket = index.get(fact)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del index[fact]
        assert self.result is not None
        for null in firing.created_nulls:
            self.result.null_depth.pop(null, None)
        return firing

    def _depth_of(self, element: object) -> int:
        assert self.result is not None
        depth = self.result.null_depth.get(element)
        return depth if depth is not None else 0

    # -- delta application -------------------------------------------------

    def apply(self, added: Iterable[Fact], removed: Iterable[Fact]) -> Delta:
        """Apply a database delta to the chased instance, in place.

        ``added``/``removed`` are the *net* base-fact mutations (the caller
        has already applied them to the database itself).  Returns the net
        chase-level delta, which downstream reduction maintenance consumes.
        Raises :class:`ChaseNotTerminating` when the insertion phase blows
        the fact/round budget — the caller must then rebuild from scratch.
        The first call that removes facts builds the DRed indexes first
        (:meth:`build_indexes`).
        """
        if self.result is None:
            raise RuntimeError("maintainer has no attached chase result")
        removed = tuple(removed)
        if removed:
            self.build_indexes()
        instance = self.result.instance
        chase_added: set[Fact] = set()

        # Phase 1a — over-delete: remove the full support cone of every
        # deleted fact, retracting the firings along the way and collecting
        # every trigger that may need re-checking afterwards (retracted
        # firings, and suppressed triggers whose witness lost a fact).
        recheck: dict[tuple, tuple[int, dict[Variable, object]]] = {}
        overdeleted: list[Fact] = []
        queue: deque[Fact] = deque()
        for fact in removed:
            if fact in self.database:
                continue  # also re-added; a net delta never nets to this
            if instance.discard(fact):
                overdeleted.append(fact)
                queue.append(fact)
        while queue:
            fact = queue.popleft()
            for key in tuple(self._by_support.get(fact, ())):
                firing = self._retract_firing(key)
                if firing is None:
                    continue
                recheck[key] = (firing.tgd_index, firing.frontier)
                for product in firing.created_facts:
                    if product in self.database:
                        continue
                    if instance.discard(product):
                        overdeleted.append(product)
                        queue.append(product)
            for key in tuple(self._by_witness.get(fact, ())):
                entry = self.suppressed.get(key)
                if entry is not None:
                    recheck[key] = (entry.tgd_index, entry.frontier)

        # Phase 1b — re-derive: a firing that survived the cascade never
        # lost a body fact, so its products are still justified; restore
        # them.  (Everything a restored fact used to imply is re-checked in
        # phase 3 / re-closed in phase 4.)
        for fact in overdeleted:
            if self._by_creation.get(fact):
                instance.add(fact)
        chase_removed = {fact for fact in overdeleted if fact not in instance}

        # Phase 2 — insert the new base facts (they seed the delta loop).
        seeds: list[Fact] = []
        for fact in added:
            if instance.add(fact):
                chase_added.add(fact)
                seeds.append(fact)

        # Phase 3 — re-check the affected cone: a retracted trigger that
        # still has a body match, or a suppressed trigger whose witness
        # died, either re-fires or records a fresh witness.
        for key, (tgd_index, frontier) in recheck.items():
            if key in self._fired:
                continue
            self._drop_suppressed(key)
            body_query = self.compiled.body_queries[tgd_index]
            if body_query is None:
                body_map: dict[Variable, object] | None = dict(frontier)
            else:
                body_map = find_homomorphism(body_query, instance, partial=frontier)
            if body_map is None:
                continue  # the trigger itself vanished with the deletions
            self._examine(tgd_index, key, body_map, seeds, chase_added)

        # Phase 4 — close under the semi-naive delta loop, exactly as the
        # later rounds of the from-scratch chase would.
        self._saturate(seeds, chase_added)

        # A fact removed and re-created in the same delta nets to nothing
        # for downstream consumers.
        overlap = chase_added & chase_removed
        chase_added -= overlap
        chase_removed -= overlap
        if chase_added or chase_removed:
            self.result.base_constants = frozenset(self.database.constants())
        return Delta(frozenset(chase_added), frozenset(chase_removed))

    def apply_delta(self, delta: Delta) -> Delta:
        """Convenience wrapper over :meth:`apply` for a :class:`Delta`."""
        return self.apply(delta.added, delta.removed)

    # -- the delta chase loop ----------------------------------------------

    def _examine(
        self,
        tgd_index: int,
        key: tuple,
        body_map: dict[Variable, object],
        new_facts: list[Fact],
        chase_added: set[Fact],
    ) -> None:
        """Suppress or fire one trigger against the current instance."""
        assert self.result is not None
        instance = self.result.instance
        compiled = self.compiled
        frontier_map = {v: body_map[v] for v in compiled.frontiers[tgd_index]}
        witness = _head_witness(compiled.head_queries[tgd_index], frontier_map, instance)
        if witness is not None:
            if self.indexed:
                self._record_suppressed(key, frontier_map, witness)
            else:
                self.log.append(key)
            return
        trigger_depth = max(
            (self._depth_of(v) for v in frontier_map.values()), default=0
        )
        existentials = compiled.existentials[tgd_index]
        if self.max_null_depth is not None and existentials:
            if trigger_depth + 1 > self.max_null_depth:
                self.result.truncated = True
                return
        self._fired.add(key)
        head_map: dict[Variable, object] = dict(frontier_map)
        for variable in existentials:
            null = self._fresh()
            self.result.null_depth[null] = trigger_depth + 1
            head_map[variable] = null
        for atom in compiled.tgds[tgd_index].head:
            product = atom.to_fact(head_map)
            if instance.add(product):
                new_facts.append(product)
                chase_added.add(product)
        self.result.fired_triggers += 1
        if self.indexed:
            self._record_firing(key, body_map, head_map)
        else:
            self.log.append((key, body_map, head_map))
        if len(instance) > self.max_facts:
            raise ChaseNotTerminating(f"chase exceeded {self.max_facts} facts")

    def _saturate(self, seeds: list[Fact], chase_added: set[Fact]) -> None:
        """Semi-naive rounds seeded with ``seeds``, mirroring the chase."""
        assert self.result is not None
        instance = self.result.instance
        compiled = self.compiled
        delta = list(seeds)
        rounds = 0
        while delta:
            rounds += 1
            if rounds > self.max_rounds:
                raise ChaseNotTerminating(
                    f"delta chase exceeded {self.max_rounds} rounds"
                )
            self.result.rounds += 1
            new_facts: list[Fact] = []
            for tgd_index, tgd in enumerate(compiled.tgds):
                body_query = compiled.body_queries[tgd_index]
                if body_query is None:
                    continue  # empty bodies fired in the initial run
                for body_map in _delta_body_maps(tgd, body_query, instance, delta):
                    frontier_map = {
                        v: body_map[v] for v in compiled.frontiers[tgd_index]
                    }
                    # Key-compatible with the original run: same precompiled
                    # variable order, same plain terms as the logged keys.
                    key = _trigger_key(
                        tgd_index, frontier_map, compiled.frontier_orders[tgd_index]
                    )
                    if key in self._fired:
                        continue
                    self._examine(tgd_index, key, body_map, new_facts, chase_added)
            delta = new_facts
