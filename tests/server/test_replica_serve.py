"""The replica behind the HTTP server: fallback refresh, stats,
metrics, and the zero-stale storm.

The server runs the replica in ``fallback`` mode: a stale or absent
replica never blocks a request (the query falls back to SQL on the
same snapshot) while the background refresher rebuilds.  The storm
test is the acceptance bar: under one writer and many readers, every
``/match`` response must be exactly consistent with the write version
it reports — no matter which engine served it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ReplicaError
from repro.server.app import ReproServer, ServerConfig
from repro.server.client import ReproClient


def make_server(tmp_path, **overrides):
    defaults = dict(path=str(tmp_path / "serve.db"), port=0,
                    workers=4, backlog=8, pool_timeout=2.0,
                    replica=True)
    defaults.update(overrides)
    return ReproServer(ServerConfig(**defaults))


@pytest.fixture
def server(tmp_path):
    with make_server(tmp_path) as running:
        yield running


@pytest.fixture
def client(server):
    host, port = server.address
    with ReproClient(host, port) as c:
        yield c


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestConfig:
    def test_replica_refuses_sharded_store(self, tmp_path):
        with pytest.raises(ReplicaError):
            ServerConfig(path=str(tmp_path / "s.db"), shards=2,
                         replica=True)

    def test_replica_cap_must_be_positive(self, tmp_path):
        with pytest.raises(ReplicaError):
            ServerConfig(path=str(tmp_path / "s.db"), replica=True,
                         replica_max_bytes=-1)


class TestServeCycle:
    def test_fallback_then_background_build_then_hits(self, server,
                                                      client):
        client.insert("m", [["<urn:a>", "<urn:p>", "<urn:b>"],
                            ["<urn:b>", "<urn:p>", "<urn:c>"]],
                      create=True)
        manager = server.replica
        # First query falls back (no replica yet) but queues the model.
        first = client.match("(?s <urn:p> ?o)", ["m"])
        assert first["count"] == 2
        # The refresher picks the model up and builds in background.
        assert _wait_for(lambda: manager.counter("builds") >= 1)
        assert _wait_for(
            lambda: client.match("(?s <urn:p> ?o)", ["m"])["count"] == 2
            and manager.counter("hits") >= 1)
        # A write stales the replica; responses stay correct
        # throughout, and the refresher catches up again once the
        # fallback misses have paid for the rebuild — so keep reading
        # while waiting.
        builds = manager.counter("builds")
        client.insert("m", [["<urn:c>", "<urn:p>", "<urn:d>"]])
        assert client.match("(?s <urn:p> ?o)", ["m"])["count"] == 3
        assert _wait_for(
            lambda: client.match("(?s <urn:p> ?o)", ["m"])["count"] == 3
            and manager.counter("builds") > builds)

    def test_writes_alone_never_rebuild(self, server, client):
        client.insert("m", [["<urn:a>", "<urn:p>", "<urn:b>"]],
                      create=True)
        manager = server.replica
        assert _wait_for(
            lambda: client.match("(?s <urn:p> ?o)", ["m"])["count"] == 1
            and manager.counter("hits") >= 1)
        builds = manager.counter("builds")
        for serial in range(5):
            client.insert("m", [[f"<urn:w{serial}>", "<urn:p>",
                                 "<urn:b>"]])
        # Longer than the refresher's 0.5 s periodic wake: an unread
        # stale replica stays as it is.
        time.sleep(0.8)
        assert manager.counter("builds") == builds
        assert server.replica.status()["wanted"] == []

    def test_stats_report_build_cost_and_fallback_debt(self, server,
                                                       client):
        client.insert("m", [["<urn:a>", "<urn:p>", "<urn:b>"]],
                      create=True)
        manager = server.replica
        assert _wait_for(
            lambda: client.match("(?s <urn:p> ?o)", ["m"])["count"] == 1
            and manager.counter("hits") >= 1)
        with manager._lock:
            manager._replicas["m"].build_ms = 1e9  # never pays off
        client.insert("m", [["<urn:c>", "<urn:p>", "<urn:d>"]])
        assert client.match("(?s <urn:p> ?o)", ["m"])["count"] == 2
        entry = client.stats()["replica"]["models"]["m"]
        assert entry["last_build_ms"] == 1e9
        assert entry["fallback_debt_ms"] > 0
        assert entry["stale"] is True

    def test_stats_report_versions_and_replica(self, server, client):
        client.insert("m", [["<urn:a>", "<urn:p>", "<urn:b>"]],
                      create=True)
        body = client.stats()
        assert body["server"]["replica"] is True
        versions = body["versions"]
        assert versions["write_version"] == 1
        # data_version is the leased reader's observed invalidation
        # counter — 0 is legal when its snoop has seen no commit yet.
        assert isinstance(versions["data_version"], int)
        replica = body["replica"]
        assert replica["refresh"] == "fallback"
        assert set(replica["counters"]) >= {"hits", "misses",
                                            "fallbacks", "builds"}

    def test_metrics_expose_replica_gauges(self, server, client):
        client.insert("m", [["<urn:a>", "<urn:p>", "<urn:b>"]],
                      create=True)
        client.match("(?s <urn:p> ?o)", ["m"])
        text = client.metrics_text()
        assert "replica_bytes" in text
        assert "replica_hits" in text
        assert "replica_misses" in text

    def test_stats_without_replica(self, tmp_path):
        with make_server(tmp_path, replica=False) as server:
            host, port = server.address
            with ReproClient(host, port) as client:
                body = client.stats()
                assert body["server"]["replica"] is False
                assert "replica" not in body
                assert "versions" in body


class TestZeroStaleStorm:
    def test_storm_no_stale_reads(self, server, client):
        """One writer, 8 reader threads, every response self-checked.

        Writes insert exactly one matching triple each, so any
        ``/match`` snapshot taken at write version V must report
        ``count == V - base``.  A replica response computed from a
        stale version would break the equation — zero tolerance.
        """
        client.insert(
            "m", [["<urn:seed>", "<urn:p>", "<urn:o>"]], create=True)
        base_version = client.stats()["versions"]["write_version"]
        base_count = client.match("(?s <urn:p> ?o)", ["m"])["count"]
        host, port = server.address
        stop = threading.Event()
        violations: list[tuple[int, int]] = []
        reads = [0] * 8

        def reader(slot):
            with ReproClient(host, port) as mine:
                while not stop.is_set():
                    result = mine.match_retrying("(?s <urn:p> ?o)",
                                                 ["m"])
                    expected = base_count + (result["data_version"]
                                             - base_version)
                    if result["count"] != expected:
                        violations.append((result["count"], expected))
                        return
                    reads[slot] += 1

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(8)]
        for thread in threads:
            thread.start()
        try:
            for serial in range(25):
                client.insert(
                    "m",
                    [[f"<urn:s{serial}>", "<urn:p>", f"<urn:o{serial}>"]])
                time.sleep(0.005)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert violations == []
        assert sum(reads) > 0
        # The replica must actually have served part of the storm —
        # otherwise this proved nothing about its freshness.
        assert _wait_for(
            lambda: server.replica.counter("builds") >= 1)
        final = client.match("(?s <urn:p> ?o)", ["m"])
        assert final["count"] == base_count + 25
