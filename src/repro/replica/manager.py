"""Replica lifecycle: build, version-gate, refresh, account, evict.

One :class:`ReplicaManager` serves a whole store (or a whole server —
the pooled readers share one).  It keeps at most one
:class:`ModelReplica` per model, each tagged with the model's durable
write version (``rdf_model_version$``, bumped inside every write
transaction) read in the same snapshot as the ``rdf_link$`` scan that
built it.  A lease compares that tag against the store's current
version *inside the caller's read transaction*, so a replica can only
serve results identical to what the SQL engine would return from the
same snapshot — the zero-stale-read guarantee reduces to SQLite's own
snapshot isolation.

Two refresh modes:

* ``inline`` (embedded default) — a stale lease rebuilds the model's
  partitions on the spot, inside the leasing transaction, then serves.
* ``fallback`` (the server) — a stale lease misses (the query falls
  back to SQL on the same snapshot).  An absent replica is queued for
  the background refresher at once; a stale or partly evicted one only
  once the SQL time its misses cost (charged by ``sdo_rdf_match``
  through :meth:`ReplicaManager.charge`) reaches the time its last
  build took.  A model that is written often but read rarely is then
  rebuilt rarely: the rebuild is paid for only when reads use it.

Memory is accounted per partition (``PredicateIndex.nbytes``); when a
byte cap is set, least-recently-used partitions are evicted first.  A
query that needs an evicted partition misses to SQL — correctness
never depends on residency.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, ContextManager

from repro.core.schema import LINK_TABLE
from repro.errors import (
    ModelNotFoundError,
    PoolTimeoutError,
    ReplicaError,
)
from repro.replica.index import PredicateIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.models import ModelInfo
    from repro.core.store import RDFStore
    from repro.db.connection import Database

#: Byte-cap suffixes accepted by :func:`parse_replica_setting`.
_SUFFIXES = {"": 1, "b": 1, "k": 1024, "kb": 1024,
             "m": 1024 ** 2, "mb": 1024 ** 2,
             "g": 1024 ** 3, "gb": 1024 ** 3}
_FALSE_WORDS = frozenset({"", "0", "false", "off", "no", "none"})
_TRUE_WORDS = frozenset({"1", "true", "on", "yes"})


def parse_replica_setting(value) -> tuple[bool, int | None]:
    """``(enabled, max_bytes)`` from a ``REPRO_REPLICA``-style setting.

    Accepts booleans, ints (0/False disable, 1/True enable uncapped,
    larger ints are a byte cap), and strings: on/off words or a byte
    cap like ``"67108864"``, ``"64mb"``, ``"512k"``, ``"1g"``.
    """
    if value is None or value is False:
        return False, None
    if value is True:
        return True, None
    if isinstance(value, int):
        if value <= 0:
            return False, None
        return True, None if value == 1 else value
    text = str(value).strip().lower()
    if text in _FALSE_WORDS:
        return False, None
    if text in _TRUE_WORDS:
        return True, None
    digits = text.rstrip("bgkm")
    suffix = text[len(digits):]
    if digits.isdigit() and suffix in _SUFFIXES:
        cap = int(digits) * _SUFFIXES[suffix]
        if cap <= 0:
            return False, None
        return True, None if cap == 1 else cap
    raise ReplicaError(
        f"bad replica setting {value!r}: expected an on/off word or a "
        "byte cap such as '64mb'")


class ReplicaMiss(Exception):
    """Internal signal: this query cannot be served by the replica.

    Never escapes to callers of ``sdo_rdf_match`` — the routing layer
    catches it and falls back to the SQL engine.  ``kind`` says why:
    ``shape`` (query not eligible), ``absent``/``stale`` (no fresh
    replica and refresh mode forbids an inline build), ``evicted``
    (a needed partition fell to the memory cap).  ``replica`` is the
    resident replica a ``stale`` or ``evicted`` miss is billed to.
    """

    def __init__(self, kind: str, message: str,
                 replica: "ModelReplica | None" = None) -> None:
        self.kind = kind
        self.replica = replica
        super().__init__(message)


class ModelReplica:
    """One model's partitions plus the snapshot tag they were built at.

    ``predicate_ids`` is frozen at build time; ``partitions`` may lose
    entries to eviction.  A predicate in the former but not the latter
    means *evicted* (fall back to SQL); absent from both means the
    snapshot genuinely had no such triples (an empty contribution).
    ``build_ms`` is what the build cost; ``fallback_debt_ms`` is the
    SQL time spent on this replica's stale or evicted misses so far.
    """

    __slots__ = ("model_name", "model_id", "model_version",
                 "data_version", "write_version", "predicate_ids",
                 "sorted_predicates", "partitions", "triples",
                 "build_ms", "fallback_debt_ms")

    def __init__(self, model_name: str, model_id: int,
                 model_version: int, data_version: int,
                 write_version: int,
                 partitions: dict[int, PredicateIndex],
                 triples: int, build_ms: float) -> None:
        self.model_name = model_name
        self.model_id = model_id
        self.model_version = model_version
        self.data_version = data_version
        self.write_version = write_version
        self.partitions = partitions
        self.predicate_ids = frozenset(partitions)
        self.sorted_predicates = tuple(sorted(partitions))
        self.triples = triples
        self.build_ms = build_ms
        self.fallback_debt_ms = 0.0

    @property
    def complete(self) -> bool:
        """All partitions of the build still resident (none evicted)."""
        return len(self.partitions) == len(self.predicate_ids)

    @property
    def nbytes(self) -> int:
        return sum(index.nbytes for index in self.partitions.values())

    def as_dict(self) -> dict[str, Any]:
        return {
            "model_id": self.model_id,
            "model_version": self.model_version,
            "data_version": self.data_version,
            "write_version": self.write_version,
            "triples": self.triples,
            "predicates": len(self.predicate_ids),
            "partitions": len(self.partitions),
            "bytes": self.nbytes,
            "complete": self.complete,
            "last_build_ms": round(self.build_ms, 3),
            "fallback_debt_ms": round(self.fallback_debt_ms, 3),
        }

    def __repr__(self) -> str:
        return (f"ModelReplica({self.model_name!r}, "
                f"v{self.model_version}, triples={self.triples})")


def _serve_write_version(database: "Database") -> int:
    # Imported lazily: repro.server pulls in the whole serving layer,
    # which itself imports this module.
    from repro.server.state import read_write_version
    return read_write_version(database)


class ReplicaManager:
    """Owns every :class:`ModelReplica` and the policies around them."""

    def __init__(self, max_bytes: int | None = None,
                 refresh: str = "inline") -> None:
        if refresh not in ("inline", "fallback"):
            raise ReplicaError(
                f"unknown replica refresh mode {refresh!r}: "
                "expected 'inline' or 'fallback'")
        if max_bytes is not None and max_bytes <= 0:
            raise ReplicaError(
                f"replica byte cap must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self.refresh_mode = refresh
        self._lock = threading.RLock()
        self._replicas: dict[str, ModelReplica] = {}
        #: (model_name, predicate_id) -> index, oldest-touched first.
        self._lru: "OrderedDict[tuple[str, int], PredicateIndex]" = \
            OrderedDict()
        self._bytes = 0
        self._wanted: set[str] = set()
        self._counters = {
            "hits": 0, "misses": 0, "fallbacks": 0, "builds": 0,
            "refreshes": 0, "evictions": 0, "refresh_errors": 0,
        }
        self._executor = None
        #: Per thread: the replica the last stale/evicted miss was
        #: billed to, until :meth:`charge` settles it.
        self._debtor = threading.local()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # the serving entry point (called from sdo_rdf_match)
    # ------------------------------------------------------------------

    def try_match(self, store: "RDFStore", patterns, models,
                  filter_expression=None, order_by: str | None = None,
                  limit: int | None = None, token=None):
        """Serve the query from the replica, or None (fall back to SQL).

        The caller has already parsed and validated the query exactly
        as the SQL path would, and established eligibility (single
        model, no rulebases).  Counts a hit, a miss (stale / absent /
        evicted), or a fallback (unsupported shape).  ``token``, when
        given, is a key that uniquely identifies the parsed query
        text (the match module's parse-cache key); the executor uses
        it to memoise shape analysis and constant resolution
        per store.
        """
        executor = self._executor
        if executor is None:
            # Imported lazily: the executor imports the match module,
            # which routes back here only through duck typing.
            from repro.replica.executor import ReplicaExecutor
            with self._lock:
                if self._executor is None:
                    self._executor = ReplicaExecutor(self)
                executor = self._executor
        try:
            rows = executor.execute(
                store, patterns, models,
                filter_expression=filter_expression,
                order_by=order_by, limit=limit, token=token)
        except ReplicaMiss as miss:
            self._debtor.replica = miss.replica
            with self._lock:
                self._counters[
                    "fallbacks" if miss.kind == "shape" else "misses"
                ] += 1
            return None
        with self._lock:
            self._counters["hits"] += 1
        return rows

    def charge(self, seconds: float) -> None:
        """Bill the SQL answer to this thread's last miss.

        ``sdo_rdf_match`` calls this after answering a query that
        :meth:`try_match` missed.  A stale or evicted miss adds the
        time to its replica's ``fallback_debt_ms``; once the debt
        reaches the replica's ``build_ms`` the model is queued for the
        refresher (the ski-rental rule: keep renting SQL answers until
        they have cost as much as buying a rebuild).  Shape and absent
        misses carry no debtor and cost nothing here.
        """
        replica = getattr(self._debtor, "replica", None)
        if replica is None:
            return
        self._debtor.replica = None
        with self._lock:
            if self._replicas.get(replica.model_name) is not replica:
                return  # rebuilt or dropped since the miss
            replica.fallback_debt_ms += seconds * 1000.0
            if replica.fallback_debt_ms >= replica.build_ms:
                self._queue_locked(replica.model_name)

    def _queue_locked(self, model_name: str) -> None:
        self._wanted.add(model_name)
        self._wake.set()

    def would_serve(self, store: "RDFStore", model_name: str) -> bool:
        """Advisory freshness check for EXPLAIN (never builds).

        True when an eligible query over ``model_name`` would be
        served right now: a fresh, complete replica exists — or the
        refresh mode is ``inline``, in which case the lease would
        build one.  Advisory only: an eviction between this check and
        the actual query can still force a SQL fallback.
        """
        try:
            info = store.models.get(model_name)
        except ModelNotFoundError:
            return False
        current = store.links.model_version(info.model_id)
        with self._lock:
            replica = self._replicas.get(info.model_name)
            if replica is not None and replica.model_id == info.model_id \
                    and replica.model_version == current \
                    and replica.complete:
                return True
            return self.refresh_mode == "inline"

    # ------------------------------------------------------------------
    # leasing (executor-facing)
    # ------------------------------------------------------------------

    def lease(self, store: "RDFStore", model_name: str) -> ModelReplica:
        """A replica guaranteed fresh for the caller's read snapshot.

        Must run inside the caller's read transaction: the version
        comparison and (in inline mode) the rebuild then see the same
        snapshot the query executes against.  Raises
        :class:`ReplicaMiss` in fallback mode when no fresh replica
        exists: an absent one is queued for the refresher at once, a
        stale one is billed its fallback (see :meth:`charge`); unknown
        models raise :class:`~repro.errors.ModelNotFoundError` exactly
        like the SQL planner.

        Inline mode memoises the durable version check on the store's
        in-memory ``data_version`` counter: every local write bumps
        the counter, so an unchanged counter proves the model version
        did not move since the last SQL read — the round trip can be
        skipped.  This leans on the same single-writer assumption the
        plan cache already makes (an embedded store is the only writer
        of its database); pooled server readers run in fallback mode,
        where foreign commits arrive via the pool snoop rather than
        this counter, and always re-read the version.
        """
        info = store.models.get(model_name)
        if self.refresh_mode == "inline":
            memo = getattr(store, "_replica_version_memo", None)
            if memo is None:
                memo = store._replica_version_memo = {}
            data_version = store.database.data_version
            cached = memo.get(info.model_id)
            if cached is not None and cached[0] == data_version:
                current = cached[1]
            else:
                current = store.links.model_version(info.model_id)
                memo[info.model_id] = (data_version, current)
        else:
            current = store.links.model_version(info.model_id)
        with self._lock:
            replica = self._replicas.get(info.model_name)
            if replica is not None and replica.model_id == info.model_id \
                    and replica.model_version == current:
                return replica
            if self.refresh_mode != "inline":
                if replica is None or replica.model_id != info.model_id:
                    self._queue_locked(info.model_name)
                    raise ReplicaMiss(
                        "absent", f"no replica for model "
                        f"{info.model_name!r} (store at v{current})")
                raise ReplicaMiss(
                    "stale", f"replica for model {info.model_name!r} is "
                    f"stale (store at v{current})", replica)
            rebuilt = self._build(store, info)
            self._install_locked(rebuilt)
            return rebuilt

    def partition(self, replica: ModelReplica,
                  predicate_id: int) -> PredicateIndex | None:
        """The partition for a predicate, LRU-touched.

        None when the build's snapshot had no triples with this
        predicate (a correct empty contribution); raises
        :class:`ReplicaMiss` when the partition existed but was
        evicted to the memory cap.
        """
        with self._lock:
            index = replica.partitions.get(predicate_id)
            if index is None:
                if predicate_id in replica.predicate_ids:
                    raise ReplicaMiss(
                        "evicted",
                        f"partition for predicate {predicate_id} of "
                        f"model {replica.model_name!r} was evicted",
                        replica)
                return None
            self._lru.move_to_end((replica.model_name, predicate_id))
            return index

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------

    def _build(self, store: "RDFStore",
               info: "ModelInfo") -> ModelReplica:
        """Scan ``rdf_link$`` into partitions, snapshot-consistently.

        The version tag and the scan run in one transaction (a nested
        SAVEPOINT when the caller already holds one, so a lease-time
        rebuild shares the query's snapshot).
        """
        database = store.database
        started = time.perf_counter()
        with database.transaction():
            version = store.links.model_version(info.model_id)
            partitions: dict[int, PredicateIndex] = {}
            triples = 0
            current_predicate: int | None = None
            pairs: list[tuple[int, int]] = []
            for row in database.execute(
                    'SELECT p_value_id, start_node_id, end_node_id '
                    f'FROM "{LINK_TABLE}" WHERE model_id = ? '
                    "ORDER BY p_value_id", (info.model_id,)):
                predicate_id = int(row["p_value_id"])
                if predicate_id != current_predicate:
                    if current_predicate is not None:
                        partitions[current_predicate] = PredicateIndex(
                            current_predicate, pairs)
                    current_predicate = predicate_id
                    pairs = []
                pairs.append((int(row["start_node_id"]),
                              int(row["end_node_id"])))
                triples += 1
            if current_predicate is not None:
                partitions[current_predicate] = PredicateIndex(
                    current_predicate, pairs)
            # Pre-decode the dictionary while still inside the build
            # snapshot: one batch get_terms covers every id the
            # partitions will ever serve, so queries never resolve.
            wanted = set(partitions)
            for index in partitions.values():
                flat = index._so
                wanted.update(flat)
            terms = store.values.get_terms(wanted)
            for predicate_id, index in partitions.items():
                index.attach_terms(terms, terms[predicate_id])
            replica = ModelReplica(
                model_name=info.model_name, model_id=info.model_id,
                model_version=version,
                data_version=database.data_version,
                write_version=_serve_write_version(database),
                partitions=partitions, triples=triples,
                build_ms=(time.perf_counter() - started) * 1000.0)
        with self._lock:
            self._counters["builds"] += 1
        return replica

    def _install_locked(self, replica: ModelReplica) -> None:
        if replica.model_name in self._replicas:
            self._remove_locked(replica.model_name)
        self._replicas[replica.model_name] = replica
        for predicate_id in replica.sorted_predicates:
            index = replica.partitions[predicate_id]
            self._lru[(replica.model_name, predicate_id)] = index
            self._bytes += index.nbytes
        self._enforce_cap_locked()

    def _remove_locked(self, model_name: str) -> None:
        replica = self._replicas.pop(model_name, None)
        if replica is None:
            return
        for predicate_id in list(replica.partitions):
            index = self._lru.pop((model_name, predicate_id), None)
            if index is not None:
                self._bytes -= index.nbytes
        replica.partitions.clear()

    def _enforce_cap_locked(self) -> None:
        if self.max_bytes is None:
            return
        while self._bytes > self.max_bytes and self._lru:
            (model_name, predicate_id), index = \
                self._lru.popitem(last=False)
            replica = self._replicas.get(model_name)
            if replica is not None:
                replica.partitions.pop(predicate_id, None)
            self._bytes -= index.nbytes
            self._counters["evictions"] += 1

    # ------------------------------------------------------------------
    # maintenance (CLI verb, server refresher)
    # ------------------------------------------------------------------

    def warm(self, store: "RDFStore", model_name: str) -> ModelReplica:
        """Build (or confirm) the replica for a model, now."""
        info = store.models.get(model_name)
        with self._lock:
            current = store.links.model_version(info.model_id)
            replica = self._replicas.get(info.model_name)
            if replica is not None and replica.model_id == info.model_id \
                    and replica.model_version == current \
                    and replica.complete:
                return replica
            rebuilt = self._build(store, info)
            self._install_locked(rebuilt)
            self._wanted.discard(info.model_name)
            return rebuilt

    def refresh(self, store: "RDFStore",
                model_name: str | None = None) -> list[str]:
        """Rebuild every stale / incomplete / queued model replica.

        Only models whose durable version moved (or that lost
        partitions, or were queued by a miss) rebuild — a no-op write
        stream makes this a cheap version probe per model.  Returns the
        names rebuilt.  Dropped models are forgotten.
        """
        with self._lock:
            names = ([model_name.lower()] if model_name is not None
                     else sorted(set(self._replicas) | self._wanted))
        rebuilt: list[str] = []
        for name in names:
            try:
                info = store.models.get(name)
            except ModelNotFoundError:
                with self._lock:
                    self._remove_locked(name)
                    self._wanted.discard(name)
                continue
            with self._lock:
                current = store.links.model_version(info.model_id)
                replica = self._replicas.get(name)
                if replica is not None \
                        and replica.model_id == info.model_id \
                        and replica.model_version == current \
                        and replica.complete:
                    self._wanted.discard(name)
                    continue
                self._install_locked(self._build(store, info))
                self._wanted.discard(name)
                self._counters["refreshes"] += 1
            rebuilt.append(name)
        return rebuilt

    def drop(self, model_name: str | None = None) -> int:
        """Forget one model's replica (or all); returns models dropped."""
        with self._lock:
            names = ([model_name.lower()] if model_name is not None
                     else list(self._replicas))
            dropped = 0
            for name in names:
                if name in self._replicas:
                    self._remove_locked(name)
                    dropped += 1
                self._wanted.discard(name)
            return dropped

    # ------------------------------------------------------------------
    # the background refresher (server, refresh mode "fallback")
    # ------------------------------------------------------------------

    def start_refresher(self,
                        acquire: Callable[[], ContextManager["RDFStore"]],
                        interval: float = 0.5) -> None:
        """Start the refresher daemon.

        ``acquire`` returns a context manager yielding a store to read
        through (the server passes a pool lease).  The thread wakes
        when a model is queued (an absent miss, or a stale replica
        whose misses paid for a rebuild) or every ``interval``
        seconds, and rebuilds the queued models only.
        """
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._refresher_loop, args=(acquire, interval),
            name="replica-refresher", daemon=True)
        self._thread.start()

    def stop_refresher(self, timeout: float = 5.0) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        self._wake.set()
        thread.join(timeout)
        self._thread = None

    def _refresher_loop(self, acquire, interval: float) -> None:
        while not self._stop.is_set():
            self._wake.wait(interval)
            if self._stop.is_set():
                break
            self._wake.clear()
            with self._lock:
                queued = sorted(self._wanted)
            if not queued:
                continue
            try:
                with acquire() as store:
                    for name in queued:
                        self.refresh(store, name)
            except PoolTimeoutError:
                # Pool saturated: retry on the next tick.
                self._wake.set()
            except Exception:
                with self._lock:
                    self._counters["refresh_errors"] += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters[name]

    def status(self, store: "RDFStore | None" = None) -> dict[str, Any]:
        """The freshness / accounting snapshot for /stats and the CLI.

        With a ``store``, each model also reports ``stale`` against
        the store's current durable version.
        """
        with self._lock:
            models = {name: replica.as_dict()
                      for name, replica in sorted(self._replicas.items())}
            body: dict[str, Any] = {
                "refresh": self.refresh_mode,
                "max_bytes": self.max_bytes,
                "bytes": self._bytes,
                "partitions": len(self._lru),
                "wanted": sorted(self._wanted),
                "counters": dict(self._counters),
                "models": models,
            }
        if store is not None:
            for name, entry in body["models"].items():
                try:
                    info = store.models.get(name)
                except ModelNotFoundError:
                    entry["stale"] = True
                    continue
                current = store.links.model_version(info.model_id)
                entry["stale"] = (info.model_id != entry["model_id"]
                                  or current != entry["model_version"])
        return body
