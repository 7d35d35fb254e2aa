"""The three workloads: streams, measured loops and their metrics.

Each workload is one closed-loop client with no think time, pinned with
everything it drives to one CPU.  ``serve_hot`` and ``serve_plain`` talk
HTTP to a ``ReproServer`` in a child process; ``scan_inproc`` calls
``sdo_rdf_match`` in the measuring process itself.
"""

from __future__ import annotations

import json
import os
import resource
import select
import subprocess
import sys
import time

import repro.inference.match as match_module
from repro import RDFStore
from repro.server.client import ReproClient

import data as d
from layers import LayerTotals, Tracer, attribute, install_program_layers
from meter import Meter, percentile
from oracle import Oracle

HERE = os.path.dirname(os.path.abspath(__file__))
#: Operations hashed per stream for the info line.
HASHED_OPS = 2048
#: serve_hot operations per round: reads, inserts, read-backs.
HOT_ROUND = (17, 2, 1)
#: serve_plain operations per round: inserts, then reads by shape.
PLAIN_ROUND = {"insert": 2, "subject": 8, "anchored": 3, "star": 4,
               "like": 3}
#: scan_inproc shapes per round.
SCAN_ROUND = {"seealso": 1, "seealso_like": 2, "type_organism": 2,
              "keyword_name": 2, "organism": 4, "keyword": 2}
WARM_PLAIN_OPS = 256
#: Seconds of in-process inserts that close a scan_inproc run: long
#: enough to span several of the host's speed swings, not one moment.
SCAN_WRITE_S = 2.5
CHILD_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# streams: pure functions of (seed, workload, phase)
# ----------------------------------------------------------------------

def hot_stream(seed: int, phase: str, catalogue_size: int):
    """Zipf(1) reads over the catalogue, inserts and read-backs."""
    pick = d.rng(seed, "serve_hot", phase)
    cumulative = []
    total = 0.0
    for rank in range(catalogue_size):
        total += 1.0 / (rank + 1)
        cumulative.append(total)
    population = range(catalogue_size)
    reads, inserts, readbacks = HOT_ROUND
    inserted = 0
    while True:
        kinds = ["read"] * reads + ["insert"] * inserts \
            + ["readback"] * readbacks
        pick.shuffle(kinds)
        for kind in kinds:
            if kind == "read":
                yield ("read", pick.choices(population,
                                            cum_weights=cumulative)[0])
            elif kind == "insert":
                yield ("insert", inserted)
                inserted += 1
            else:
                yield ("readback",)


def plain_stream(seed: int, phase: str, sizes: dict[str, int]):
    """Uniform reads within fixed shape weights, plus inserts."""
    pick = d.rng(seed, "serve_plain", phase)
    inserted = 0
    while True:
        kinds = [kind for kind, count in PLAIN_ROUND.items()
                 for _ in range(count)]
        pick.shuffle(kinds)
        for kind in kinds:
            if kind == "insert":
                yield ("insert", inserted)
                inserted += 1
            else:
                yield ("read", kind, pick.randrange(sizes[kind]))


def scan_stream(seed: int, phase: str, sizes: dict[str, int]):
    """Fixed-weight rounds of the large-result shapes."""
    pick = d.rng(seed, "scan_inproc", phase)
    while True:
        kinds = [kind for kind, count in SCAN_ROUND.items()
                 for _ in range(count)]
        pick.shuffle(kinds)
        for kind in kinds:
            yield ("read", kind, pick.randrange(sizes[kind]))


def hash_of(make_stream) -> str:
    stream = make_stream()
    return d.stream_hash([next(stream) for _ in range(HASHED_OPS)])


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------

class ServerChild:
    """A ``ReproServer`` in a child process (see server_child.py)."""

    def __init__(self, path: str, config: str, env: dict) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_child.py"), path,
             config],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env)
        try:
            self.port = self._read()["port"]
        except BaseException:
            self.kill()
            raise

    def _read(self) -> dict:
        ready, _, _ = select.select([self._proc.stdout], [], [],
                                    CHILD_TIMEOUT_S)
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("server child did not answer")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self._proc.stdin.write(json.dumps({"cmd": name}) + "\n")
        self._proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        reply = self.command("stop")
        self._proc.stdin.close()
        self._proc.wait(timeout=CHILD_TIMEOUT_S)
        return reply

    def kill(self) -> None:
        """Make sure the child has ended (a no-op after :meth:`stop`)."""
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout):
            if not stream.closed:
                stream.close()


# ----------------------------------------------------------------------
# one measured phase
# ----------------------------------------------------------------------

class Phase:
    """The operations of one measured stretch, and their spans."""

    def __init__(self, name: str, meter: Meter) -> None:
        self.name = name
        self.meter = meter
        self.roots: list[tuple[list, list]] = []
        self.attempted = 0
        self.failed = 0
        self.spans: list[list] = []
        self.counters_before: dict = {}
        self.counters_after: dict = {}

    def metrics(self) -> dict:
        meter = self.meter
        reads = [op[2] * 1000 for op in meter.of("read")]
        raw_reads = [op[1] * 1000 for op in meter.of("read")]
        writes = [op[2] * 1000 for op in meter.of("write")]
        raw_writes = [op[1] * 1000 for op in meter.of("write")]
        busy = meter.total("read", "write")
        raw_busy = meter.total("read", "write", normalised=False)
        rows = sum(op[3] for op in meter.ops)
        count = len(meter.ops)
        return {
            "ops": count,
            "reads": len(reads),
            "writes": len(writes),
            "rows": rows,
            "ops_per_s": count / busy,
            "raw_ops_per_s": count / raw_busy,
            "rows_per_s": rows / busy,
            "raw_rows_per_s": rows / raw_busy,
            "read_p50_ms": percentile(reads, 50),
            "read_p95_ms": percentile(reads, 95),
            "raw_read_p50_ms": percentile(raw_reads, 50),
            "raw_read_p95_ms": percentile(raw_reads, 95),
            "write_p50_ms": percentile(writes, 50),
            "write_p90_ms": percentile(writes, 90),
            "raw_write_p50_ms": percentile(raw_writes, 50),
            "raw_write_p90_ms": percentile(raw_writes, 90),
            "probe_factor": meter.factor(),
            "probes": len(meter.probes),
            "probe_share": meter.probe_seconds()
            / (meter.probe_seconds() + raw_busy),
        }


def _run_ops(phase: Phase, stream, execute, seconds: float,
             tracer: Tracer | None, limit: int | None = None) -> None:
    """Drive ``execute(op, request_id)`` closed-loop for ``seconds``
    (or ``limit`` operations).

    ``execute`` returns ``(kind, rows, check)``; ``check`` runs after
    the clock has stopped and returns an error message or None.
    """
    meter = phase.meter
    deadline = time.perf_counter() + seconds
    number = 0
    while time.perf_counter() < deadline and number != limit:
        op = next(stream)
        number += 1
        request_id = f"{phase.name}-{number}"
        root = tracer.begin("op") if tracer is not None else None
        start = time.perf_counter()
        try:
            kind, rows, check = execute(op, request_id)
        except Exception as exc:  # a failed operation is counted
            kind, rows = "read" if op[0] != "insert" else "write", 0
            check = _failed(f"{op}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if root is not None:
            tracer.end(root)
        entry = meter.record(kind, elapsed, rows)
        if root is not None:
            phase.roots.append((root, entry))
        phase.attempted += 1
        problem = check()
        if problem is not None:
            phase.failed += 1
            print(f"failed: {problem}", file=sys.stderr)
    meter.flush()


def _failed(message: str):
    return lambda: message


def _ok():
    return None


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _fold_phase(phase: Phase) -> LayerTotals:
    totals = LayerTotals()
    roots = [(span, entry[2] / entry[1] if entry[1] else 1.0)
             for span, entry in phase.roots]
    attribute(roots, phase.spans, totals)
    return totals


def layer_metrics(untraced: Phase, traced: Phase,
                  writes: Phase | None = None) -> dict:
    """The per-layer metrics of one traced phase.  ``writes``, when
    given, is a separately traced phase that the per-write metrics
    come from instead (scan_inproc's closing inserts)."""
    totals = _fold_phase(traced)
    summary = traced.metrics()
    ops = max(summary["ops"], 1)
    rows = summary["rows"]
    wall = sum(entry[2] for _, entry in traced.roots)
    write_totals, writes_done = totals, summary["writes"]
    if writes is not None:
        write_totals, writes_done = _fold_phase(writes), len(writes.roots)

    def ms(*layers: str) -> float:
        return sum(totals.self_s[layer] for layer in layers) * 1000 / ops

    def ms_per_write(layer: str) -> float:
        return write_totals.self_s[layer] * 1000 / writes_done \
            if writes_done else 0.0

    def ratio(layer: str) -> float:
        calls = totals.calls[layer]
        return totals.values[layer] / calls if calls else 0.0

    builds = [span for span in traced.spans
              if span[1] == "replica.build" and span[5] > 0]
    built = sum(span[5] for span in builds)
    factor = traced.meter.factor()
    before, after = traced.counters_before, traced.counters_after
    invalidations = after.get("cache_invalidations", 0) \
        - before.get("cache_invalidations", 0)
    return {
        "trace.op_ms": wall * 1000 / ops,
        "trace.unattributed_share": totals.self_s["op"] / wall
        if wall else 0.0,
        "trace.overhead": summary["ops_per_s"]
        / untraced.metrics()["ops_per_s"],
        "client.self_ms_per_op": ms("client"),
        "server.handler_self_ms_per_op": ms("server.handler"),
        "pool.acquire_wait_ms_per_op": ms("pool.acquire"),
        "writer.queue_wait_ms_per_write": ms_per_write("writer.queue_wait"),
        "writer.exec_ms_per_write": ms_per_write("writer.exec"),
        "insert.ms_per_write": ms_per_write("insert"),
        "cache.key_ms_per_op": ms("cache.key"),
        "cache.lookup_ms_per_op": ms("cache.lookup"),
        "cache.hit_ratio": ratio("cache.lookup"),
        "cache.invalidations_per_write": invalidations / writes_done
        if writes_done else 0.0,
        "replica.serve_ms_per_op": ms("replica.serve"),
        "replica.hit_ratio": ratio("replica.serve"),
        "replica.builds": after.get("replica_builds", 0)
        - before.get("replica_builds", 0),
        "replica.build_ms": sum(s[4] - s[3] for s in builds) * factor
        * 1000 / built if built else 0.0,
        "parse.calls_per_op": totals.calls["parse"] / ops,
        "parse.ms_per_op": ms("parse"),
        "plan.cache_hit_ratio": ratio("plan.lookup"),
        "plan.ms_per_op": ms("plan", "plan.lookup"),
        "stats.ms_per_op": ms("stats"),
        "match.self_ms_per_op": ms("match"),
        "sql.calls_per_op": totals.calls["sql"] / ops,
        "sql.ms_per_op": ms("sql"),
        "sql.rows_fetched_per_row": totals.values["sql"] / rows
        if rows else 0.0,
        "values.ids_per_row": totals.values["values"] / rows
        if rows else 0.0,
        "values.resolve_ms_per_op": ms("values"),
    }


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------

def run_serve(workload: str, data: d.Dataset, work: str, seconds: float,
              trace: bool, probe, env: dict) -> dict:
    """Run ``serve_hot`` or ``serve_plain``; returns the raw results."""
    hot = workload == "serve_hot"
    oracle = Oracle()
    if hot:
        catalogue = d.hot_catalogue(data)
        make = lambda phase: hot_stream(data.seed, phase,  # noqa: E731
                                        len(catalogue))
        pool, model = data.ingest_pool, d.INGEST_MODEL
    else:
        shapes = d.plain_catalogue(data)
        sizes = {shape: len(queries) for shape, queries in shapes.items()}
        make = lambda phase: plain_stream(data.seed, phase,  # noqa: E731
                                          sizes)
        pool, model = data.tag_pool, d.MODEL
    state = {"inserted": 0, "last": None}

    def execute(op, request_id):
        if op[0] == "insert":
            index = state["inserted"]
            state["inserted"] += 1
            triple = pool[index]
            reply = client.insert(model, [triple[:3]],
                                   request_id=request_id,
                                   idempotency_key=request_id)
            if reply.get("created") == 1 and reply.get("count") == 1:
                state["last"] = triple
                return "write", 0, _ok
            return "write", 0, _failed(f"insert {triple[:3]}: {reply}")
        if op[0] == "readback" and state["last"] is not None:
            subject, predicate, _, lexical = state["last"]
            query = d.readback(subject, predicate)
            reply = client.match(query.text, list(query.models),
                                  request_id=request_id)
            rows = reply["rows"]
            if rows != [{"o": lexical}]:
                return "read", len(rows), _failed(
                    f"read-back of {subject} {predicate}: {rows}, "
                    f"expected {lexical!r}")
            return "read", len(rows), _ok
        if hot:
            # Before the first insert a read-back falls back to the
            # most popular catalogue query.
            query = catalogue[op[1] if op[0] == "read" else 0]
        else:
            query = shapes[op[1]][op[2]]
        reply = client.match(query.text, list(query.models),
                             request_id=request_id, **query.kwargs())
        rows = reply["rows"]
        return "read", len(rows), \
            lambda: oracle.saw(query, rows, reply["count"])

    child = ServerChild(os.path.join(work, "store.db"),
                        "hot" if hot else "plain", env)
    try:
        client = ReproClient("127.0.0.1", child.port, timeout=60.0)
        warm = Meter(probe)
        if hot:
            _warm_hot(client, catalogue, warm)
        else:
            reads = (op for op in make("warm") if op[0] == "read")
            _run_ops(Phase("warm", warm), reads, execute, CHILD_TIMEOUT_S,
                     None, limit=WARM_PLAIN_OPS)
        phases = _measure(make, execute, seconds, trace, probe, child)
        client.close()
        stopped = child.stop()
    finally:
        child.kill()
    with RDFStore(os.path.join(work, "store.db"), replica=False) as store:
        failures = oracle.check(store)
    for message in failures:
        print(f"failed: {message}", file=sys.stderr)
    return {
        "phases": phases,
        "warm_s": warm.total("read", "wait"),
        "warm_raw_s": warm.total("read", "wait", normalised=False),
        "peak_rss_kb": stopped["peak_rss_kb"],
        "oracle_failures": len(failures),
        "stream_hashes": {phase.name: hash_of(lambda: make(phase.name))
                          for phase in phases},
    }


def _warm_hot(client: ReproClient, catalogue: list, meter: Meter) -> None:
    """Every catalogue query, until the replica serves ``uniprot``, and
    once more so the result cache holds every answer."""
    def run_catalogue():
        for query in catalogue:
            start = time.perf_counter()
            client.match(query.text, list(query.models), **query.kwargs())
            meter.record("read", time.perf_counter() - start)

    run_catalogue()
    deadline = time.perf_counter() + 60.0
    while True:
        start = time.perf_counter()
        replica = client.stats().get("replica", {}).get("models", {})
        ready = d.MODEL in replica and not replica[d.MODEL].get("stale")
        if not ready:
            time.sleep(0.02)
        meter.record("wait", time.perf_counter() - start)
        if ready:
            break
        if time.perf_counter() > deadline:
            raise RuntimeError("the replica never became ready")
    run_catalogue()
    meter.flush()


def _measure(make, execute, seconds: float, trace: bool, probe,
             child: ServerChild | None) -> list[Phase]:
    """The measured phases: one untraced phase, or with ``trace`` an
    untraced and a traced half over the same setup."""
    if not trace:
        phase = Phase("measure", Meter(probe))
        _run_ops(phase, make("measure"), execute, seconds, None)
        return [phase]
    untraced = Phase("untraced", Meter(probe))
    _run_ops(untraced, make("untraced"), execute, seconds / 2, None)
    tracer = Tracer()
    traced = Phase("traced", Meter(probe))
    if child is not None:
        traced.counters_before = child.command("trace_on")["counters"]
        for name in ("match", "insert"):
            tracer.wrap_method(ReproClient, name, "client",
                               tag=lambda args, kwargs:
                               kwargs.get("request_id"))
    else:
        install_program_layers(tracer)
    try:
        _run_ops(traced, make("traced"), execute, seconds / 2, tracer)
    finally:
        tracer.restore()
    traced.spans = tracer.take()
    if child is not None:
        reply = child.command("trace_off")
        traced.spans.extend(reply["spans"])
        traced.counters_after = reply["counters"]
    return [untraced, traced]


# ----------------------------------------------------------------------
# scan_inproc
# ----------------------------------------------------------------------

def run_scan(data: d.Dataset, work: str, seconds: float, trace: bool,
             probe) -> dict:
    shapes = d.scan_catalogue(data)
    sizes = {shape: len(queries) for shape, queries in shapes.items()}
    oracle = Oracle()
    store = RDFStore(os.path.join(work, "store.db"), replica=False)
    try:
        def execute(op, request_id):
            query = shapes[op[1]][op[2]]
            rows = match_module.sdo_rdf_match(
                store, query.text, list(query.models), **query.kwargs())
            return "read", len(rows), \
                lambda: oracle.saw(query, rows, len(rows))

        warm = Meter(probe)
        for queries in shapes.values():
            for query in queries:
                start = time.perf_counter()
                match_module.sdo_rdf_match(store, query.text,
                                           list(query.models),
                                           **query.kwargs())
                warm.record("read", time.perf_counter() - start)
        warm.flush()
        make = lambda phase: scan_stream(data.seed, phase,  # noqa: E731
                                         sizes)
        phases = _measure(make, execute, seconds, trace, probe, None)
        writes = _scan_writes(store, data, probe, trace)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures = oracle.check(store)
    finally:
        store.close()
    for message in failures:
        print(f"failed: {message}", file=sys.stderr)
    return {
        "phases": phases,
        "writes": writes,
        "warm_s": warm.total("read"),
        "warm_raw_s": warm.total("read", normalised=False),
        "peak_rss_kb": peak_rss_kb,
        "oracle_failures": len(failures),
        "stream_hashes": {phase.name: hash_of(lambda: make(phase.name))
                          for phase in phases},
    }


def _scan_writes(store: RDFStore, data: d.Dataset, probe,
                 trace: bool) -> Phase:
    """A closing run of in-process single-triple inserts into
    ``ingest``, after the read-only scan phase: the write latency of
    the store without the server in front of it (traced too when
    ``trace`` is set)."""
    phase = Phase("writes", Meter(probe))
    tracer = None
    if trace:
        tracer = Tracer()
        install_program_layers(tracer)
    inserted: list[list[str]] = []

    pool = [triple[:3] for triple in data.ingest_pool] + data.tag_pool

    def execute(op, request_id):
        triple = pool[op[1]]
        store.insert_triple(d.INGEST_MODEL, *triple)
        inserted.append(triple)
        return "write", 0, _ok

    inserts = (("insert", index) for index in range(len(pool)))
    try:
        _run_ops(phase, inserts, execute, SCAN_WRITE_S, tracer,
                 limit=len(pool))
    finally:
        if tracer is not None:
            tracer.restore()
            phase.spans = tracer.take()
    for triple in inserted:
        if not store.is_triple(d.INGEST_MODEL, *triple):
            phase.failed += 1
            print(f"failed: insert of {triple} not readable",
                  file=sys.stderr)
    return phase
