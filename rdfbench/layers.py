"""Outside-in layer tracing.

The benchmark wraps the public function of each layer it measures --
in its own process and inside the server child -- and records one span
per call: ``[span_id, layer, parent_id, start, end, value, tag]``.
Spans are kept in memory and aggregated when the phase ends.  Nothing
under ``src/`` changes; removing the wrappers restores the originals.

``value`` is a per-layer count (rows fetched, ids resolved, 1 for a
cache hit); ``tag`` carries the request id on client and handler spans,
which is how a server span finds the client call that caused it.

Self time is a span's duration minus its children's.  Children are
clipped to their parent's interval and to each other, in start order,
so the self times of one operation sum exactly to its wall time: time
a server thread spends after the client already has its answer is cut
off, and overlapping children never count twice.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Installs span-recording wrappers and keeps their spans."""

    def __init__(self, first_id: int = 1) -> None:
        self.spans: list[list] = []
        # Span ids of the server child start far above the client's,
        # so the two processes' spans can be folded into one tree.
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> list | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, layer: str, tag: str | None = None,
              parent: int | None = None) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        span = [next(self._ids), layer, parent, _clock(), 0.0, 0, tag]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = _clock()
        self._stack().pop()
        self.spans.append(span)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrapper(self, original, layer: str, value=None, tag=None):
        tracer = self

        def traced(*args, **kwargs):
            top = tracer.current()
            if top is not None and top[1] == layer:
                # Re-entry within one layer (query_all -> execute):
                # the outer span already covers it.
                return original(*args, **kwargs)
            span = tracer.begin(layer, tag(args, kwargs) if tag else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if value is not None:
                span[5] = value(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def wrap_method(self, owner: type, name: str, layer: str,
                    value=None, tag=None) -> None:
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self._wrapper(original, layer, value, tag))

    def wrap_function(self, module: str, name: str, layer: str,
                      value=None) -> None:
        """Wrap a module-level function in every loaded ``repro``
        module that imported it by name."""
        original = getattr(sys.modules[module], name)
        traced = self._wrapper(original, layer, value)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(mod, name, None) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, traced)

    def wrap_writer_submit(self, owner: type) -> None:
        """Wrap ``WriterQueue.submit`` so the job it is handed records
        its queue wait and execution as children of the submitting
        span, although it runs on the writer thread."""
        tracer = self
        original = owner.__dict__["submit"]

        def submit(queue_self, job, *args, **kwargs):
            top = tracer.current()
            parent = top[0] if top is not None else None
            submitted = _clock()

            def traced_job(store):
                started = _clock()
                tracer.spans.append([next(tracer._ids), "writer.queue_wait",
                                     parent, submitted, started, 0, None])
                span = tracer.begin("writer.exec", parent=parent)
                try:
                    return job(store)
                finally:
                    tracer.end(span)

            return original(queue_self, traced_job, *args, **kwargs)

        self._patches.append((owner, "submit", original))
        owner.submit = submit

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def install_program_layers(tracer: Tracer) -> None:
    """Wrap the program's layers below the HTTP client: used inside the
    server child and, for ``scan_inproc``, in the measuring process."""
    from repro.cache.result_cache import ResultCache
    from repro.core.parser import TripleParser
    from repro.core.values import ValueStore
    from repro.db.connection import Database
    from repro.db.pool import ConnectionPool, WriterQueue
    from repro.inference.plan import PlanCache
    from repro.inference.stats import MatchStatistics
    from repro.replica.manager import ReplicaManager
    import repro.cache.normalize  # noqa: F401  (normalized_key's home)
    import repro.inference.match  # noqa: F401

    hit = lambda args, result: 1 if result is not None else 0  # noqa: E731
    tracer.wrap_method(ConnectionPool, "acquire", "pool.acquire")
    tracer.wrap_writer_submit(WriterQueue)
    tracer.wrap_method(TripleParser, "insert", "insert")
    tracer.wrap_function("repro.cache.normalize", "normalized_key",
                         "cache.key")
    tracer.wrap_method(ResultCache, "lookup", "cache.lookup", value=hit)
    tracer.wrap_method(ReplicaManager, "try_match", "replica.serve",
                       value=hit)
    tracer.wrap_method(ReplicaManager, "refresh", "replica.build",
                       value=lambda args, result: len(result))
    tracer.wrap_method(ReplicaManager, "warm", "replica.build",
                       value=lambda args, result: 1)
    tracer.wrap_function("repro.inference.patterns", "parse_pattern_list",
                         "parse")
    tracer.wrap_function("repro.inference.filters", "parse_filter", "parse")
    tracer.wrap_function("repro.inference.plan", "build_plan", "plan")
    tracer.wrap_method(PlanCache, "lookup", "plan.lookup", value=hit)
    for name in ("dataset_size", "constant_count", "estimate_rows"):
        tracer.wrap_method(MatchStatistics, name, "stats")
    tracer.wrap_function("repro.inference.match", "sdo_rdf_match", "match",
                         value=lambda args, result: len(result)
                         if isinstance(result, list) else 0)
    tracer.wrap_method(Database, "query_all", "sql",
                       value=lambda args, result: len(result))
    tracer.wrap_method(Database, "query_one", "sql",
                       value=lambda args, result: int(result is not None))
    tracer.wrap_method(Database, "query_value", "sql")
    tracer.wrap_method(Database, "execute", "sql")
    tracer.wrap_method(Database, "executemany", "sql")
    tracer.wrap_method(ValueStore, "get_terms", "values",
                       value=lambda args, result: len(result))


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

class LayerTotals:
    """Per-layer self time, call count and value sum over operations."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.values: dict[str, int] = defaultdict(int)


def attribute(roots: list[tuple[list, float]], spans: list[list],
              totals: LayerTotals) -> None:
    """Fold the span trees under each ``(root span, factor)`` into
    ``totals``; self times are multiplied by the root's normalisation
    factor.  A span with no parent but a request id tag (a server
    handler span) is first re-parented onto the client span with the
    same tag."""
    children: dict[int, list[list]] = defaultdict(list)
    by_tag: dict[str, int] = {}
    for span in spans:
        if span[1] == "client" and span[6] is not None:
            by_tag[span[6]] = span[0]
    for span in spans:
        parent = span[2]
        if parent is None and span[6] is not None and span[1] != "client":
            parent = by_tag.get(span[6])
        if parent is not None:
            children[parent].append(span)
    for root, factor in roots:
        _fold(root, root[3], root[4], children, totals, factor)


def _fold(span: list, low: float, high: float, children: dict,
          totals: LayerTotals, factor: float) -> tuple[float, float]:
    start = min(max(span[3], low), high)
    end = max(min(span[4], high), start)
    cursor = start
    covered = 0.0
    for child in sorted(children.get(span[0], ()), key=lambda s: s[3]):
        child_start, child_end = _fold(child, cursor, end, children,
                                       totals, factor)
        covered += child_end - child_start
        cursor = max(cursor, child_end)
    layer = span[1]
    totals.self_s[layer] += (end - start - covered) * factor
    totals.calls[layer] += 1
    totals.values[layer] += span[5]
    return start, end
