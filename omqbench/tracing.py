"""Benchmark-side span tracing around the program's layer boundaries.

Nothing under ``src/`` is changed and the program's own tracing
(``REPRO_TRACE``) stays off.  :func:`install` replaces, inside the current
process only, the public functions and methods the program calls at each
layer boundary with wrappers that record a span around the original call.

A span is ``(id, parent, op, name, start, end, attrs)``: the parent is the
span that was open in the same context when this one started (tracked in a
:class:`contextvars.ContextVar`, so spans opened in the server's worker
threads still find the request span that caused them), and ``op`` is the
identifier of the benchmark operation (one cold build, one page, one HTTP
request) the span belongs to.  Spans are kept in memory and written out
once, when the process ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from array import array
from contextlib import contextmanager

#: Per-answer delays kept per label (the rest are timed but not stored).
DELAY_SAMPLES = 2_000_000

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("omqbench_span", default=(None, 0))


class Tracer:
    """An in-memory span recorder plus per-answer delay samples."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._lock = threading.Lock()
        #: Per-answer delays (ns) of the CD∘Lin walk, keyed by a label the
        #: phase chooses with :meth:`delay_label`.
        self.delays: dict[str, array] = {}
        self.label = "default"

    def delay_label(self, label: str) -> None:
        self.label = label

    def reset(self) -> None:
        """Forget every span and delay (a forked sample starts its own record)."""
        self.spans = []
        self.delays = {}

    def delay_sink(self) -> array:
        sink = self.delays.get(self.label)
        if sink is None:
            sink = self.delays[self.label] = array("q")
        return sink

    @contextmanager
    def op(self, name: str, **attrs):
        """A root span that starts a new operation id."""
        with self._lock:
            op_id = next(self._ops)
        token = _CURRENT.set((None, op_id))
        try:
            with self.span(name, **attrs) as attributes:
                yield attributes
        finally:
            _CURRENT.reset(token)

    @contextmanager
    def span(self, name: str, **attrs):
        parent, op_id = _CURRENT.get()
        with self._lock:
            span_id = next(self._ids)
        token = _CURRENT.set((span_id, op_id))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((span_id, parent, op_id, name, start, end, attrs))

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """A finished child span of the current span (measured by the caller)."""
        parent, op_id = _CURRENT.get()
        with self._lock:
            span_id = next(self._ids)
        self.spans.append((span_id, parent, op_id, name, start, end, attrs))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op_id, name, start, end, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "attrs": attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span: duration minus the union of child intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _op, _name, start, end, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _parent, _op, _name, start, end, _attrs in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def check_nesting(spans: list[tuple]) -> list[str]:
    """Problems with the span tree: unknown parents, children outside parents."""
    by_id = {span[0]: span for span in spans}
    problems = []
    for span_id, parent, op_id, name, start, end, _attrs in spans:
        if end < start:
            problems.append(f"span {name}#{span_id} ends before it starts")
        if parent is None:
            continue
        owner = by_id.get(parent)
        if owner is None:
            problems.append(f"span {name}#{span_id} has unknown parent {parent}")
            continue
        if owner[2] != op_id:
            problems.append(f"span {name}#{span_id} crosses operations")
        if start < owner[4] - 1e-6 or end > owner[5] + 1e-6:
            problems.append(f"span {name}#{span_id} lies outside parent {owner[3]}")
    return problems


def _wrap_function(module, attribute: str, tracer: Tracer, name: str, annotate=None):
    original = getattr(module, attribute)

    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = original(*args, **kwargs)
            if annotate is not None:
                annotate(attrs, args, kwargs, result)
            return result

    wrapper.__wrapped__ = original
    setattr(module, attribute, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reaches (this process only)."""
    from repro.core import omq as core_omq
    from repro.cq import parser as cq_parser
    from repro.data import instance as data_instance
    from repro.data.interning import TERMS
    from repro.engine import engine as engine_module
    from repro.engine import materialization
    from repro.enumeration.cdlin import CDLinEnumerator
    from repro.incremental.provenance import ChaseMaintainer
    from repro.workloads import graphs, lubm, university
    import repro.planner as planner

    # data: Database load, with the interned-term growth it causes.
    database_init = data_instance.Database.__init__

    def traced_database_init(self, facts=()):
        before = len(TERMS)
        with tracer.span("data.load") as attrs:
            database_init(self, facts)
            attrs["db_facts"] = len(self)
            attrs["terms_added"] = len(TERMS) - before

    data_instance.Database.__init__ = traced_database_init

    # cq: parsing (acyclicity verdicts run inside prepare_query).
    for module in (cq_parser, engine_module, graphs, lubm, university):
        _wrap_function(module, "parse_query", tracer, "cq.parse")

    # engine: plan compilation and the plan cache, cursors and pages.
    _wrap_function(engine_module, "prepare_query", tracer, "engine.prepare_query")
    prepare = engine_module.QueryEngine.prepare

    def traced_prepare(self, query, name=None):
        with tracer.span("engine.plan"):
            return prepare(self, query, name)

    engine_module.QueryEngine.prepare = traced_prepare
    open_cursor = engine_module.QueryEngine.open

    def traced_open(self, *args, **kwargs):
        with tracer.span("engine.open"):
            return open_cursor(self, *args, **kwargs)

    engine_module.QueryEngine.open = traced_open
    fetchmany = engine_module.AnswerCursor.fetchmany

    def traced_fetchmany(self, size=None):
        with tracer.span("engine.page") as attrs, enumeration_busy(tracer):
            rows = fetchmany(self, size)
            attrs["rows"] = len(rows)
            return rows

    engine_module.AnswerCursor.fetchmany = traced_fetchmany

    # chase: the query-directed chase, where the engine and OMQ.chase call it.
    def annotate_chase(attrs, args, kwargs, result):
        attrs["db_facts"] = len(args[0])
        attrs["chase_facts"] = len(result.instance)
        reuse = kwargs.get("reuse")
        attrs["reused"] = reuse is not None and result.result is reuse.result

    for module in (materialization, core_omq):
        _wrap_function(module, "query_directed_chase", tracer, "chase.chase", annotate_chase)

    # planner: cost-based plan choice (imported lazily by the engine).
    def annotate_plan(attrs, _args, _kwargs, result):
        attrs["candidates"] = len(result.candidates) if result is not None else 0

    _wrap_function(planner, "choose_plan", tracer, "planner.plan_choice", annotate_plan)

    # enumeration: the reduce step (construction) and the CD∘Lin walk.
    class TracedCDLinEnumerator(CDLinEnumerator):
        def __init__(self, query, instance, *args, **kwargs):
            with tracer.span("enumeration.reduce") as attrs:
                super().__init__(query, instance, *args, **kwargs)
                attrs["rows_in"] = sum(
                    instance.relation_size(atom.relation) for atom in query.atoms
                )
                attrs["rows_out"] = self.reduced.size()

        def enumerate(self):
            return _timed_walk(tracer, super().enumerate())

    materialization.CDLinEnumerator = TracedCDLinEnumerator

    # incremental: eager refresh after a mutation batch, and its parts.
    refresh = engine_module.QueryEngine.refresh

    def traced_refresh(self, database=None):
        with tracer.span("incremental.refresh"):
            return refresh(self, database)

    engine_module.QueryEngine.refresh = traced_refresh
    apply_delta = ChaseMaintainer.apply_delta

    def traced_apply_delta(self, delta):
        with tracer.span("incremental.apply_delta"):
            return apply_delta(self, delta)

    ChaseMaintainer.apply_delta = traced_apply_delta
    maintain = CDLinEnumerator.maintain

    def traced_maintain(self, instance, touched):
        with tracer.span("incremental.maintain"):
            return maintain(self, instance, touched)

    CDLinEnumerator.maintain = traced_maintain


def install_server(tracer: Tracer) -> None:
    """Also wrap the HTTP service's request handler, one operation per request."""
    from repro.server.service import QueryService

    handle = QueryService.handle

    async def traced_handle(self, request):
        parts = [part for part in request.path.split("/") if part]
        route = parts[-1] if len(parts) >= 3 else (parts[0] if parts else "root")
        with tracer.op(f"server.handle.{route}"):
            return await handle(self, request)

    QueryService.handle = traced_handle


def _timed_walk(tracer: Tracer, answers):
    """Yield ``answers``, recording each answer's delay and the walk's busy time.

    The busy time of the answers drawn inside one page is recorded as one
    ``enumeration.enumerate`` child span of that page (placed at the page's
    start, with the summed duration), so ``engine.page`` self time is the
    cursor's own work.
    """
    sink = tracer.delay_sink()
    clock = time.perf_counter_ns
    iterator = iter(answers)
    while True:
        started = clock()
        try:
            answer = next(iterator)
        except StopIteration:
            _account(clock() - started)
            return
        elapsed = clock() - started
        if len(sink) < DELAY_SAMPLES:
            sink.append(elapsed)
        _account(elapsed)
        yield answer


_BUSY: contextvars.ContextVar = contextvars.ContextVar("omqbench_busy", default=None)


def _account(elapsed_ns: int) -> None:
    busy = _BUSY.get()
    if busy is not None:
        busy[0] += elapsed_ns


@contextmanager
def enumeration_busy(tracer: Tracer):
    """Collect walk busy time inside the block into one child span."""
    busy = [0]
    token = _BUSY.set(busy)
    start = time.perf_counter()
    try:
        yield
    finally:
        _BUSY.reset(token)
        if busy[0]:
            tracer.record("enumeration.enumerate", start, start + busy[0] / 1e9)
