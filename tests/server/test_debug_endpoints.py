"""End-to-end tests for request ids, the slow log, and /debug routes.

Every test drives a real :class:`ReproServer` over sockets.  The
server runs observed with ``slow_threshold=0`` so every request is
captured whole — span tree, annotations, EXPLAIN — which is exactly
what the debug endpoints are for.
"""

from __future__ import annotations

import http.client
import io
import json

import pytest

from repro.errors import ServerError
from repro.server.app import ReproServer, ServerConfig
from repro.server.client import ReproClient


def make_server(tmp_path, **overrides):
    defaults = dict(path=str(tmp_path / "debug.db"), port=0,
                    workers=2, backlog=2, pool_timeout=0.2,
                    observe=True, slow_threshold=0.0)
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


def seed(client):
    client.insert("m1", [["<urn:a>", "<urn:p>", "<urn:b>"],
                         ["<urn:b>", "<urn:p>", "<urn:c>"]],
                  create=True)


def raw_request(server, method, path, body=None, headers=None):
    """One request via http.client, returning the whole response."""
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        conn.close()


class TestRequestIds:
    def test_client_supplied_id_is_echoed(self, client):
        seed(client)
        client.match("(?s <urn:p> ?o)", ["m1"],
                     request_id="my-trace-1")
        assert client.last_request_id == "my-trace-1"

    def test_an_id_is_minted_when_absent(self, client):
        seed(client)
        client.match("(?s <urn:p> ?o)", ["m1"])
        assert client.last_request_id
        assert len(client.last_request_id) == 16

    def test_hostile_id_is_not_echoed(self, server, client):
        seed(client)
        status, headers, _ = raw_request(
            server, "GET", "/stats",
            headers={"X-Request-Id": "x" * 500})
        assert status == 200
        echoed = headers["X-Request-Id"]
        assert echoed != "x" * 500 and len(echoed) == 16

    def test_metrics_route_carries_the_id_too(self, server):
        status, headers, body = raw_request(
            server, "GET", "/metrics",
            headers={"X-Request-Id": "metrics-probe"})
        assert status == 200
        assert headers["X-Request-Id"] == "metrics-probe"
        assert b"server_requests" in body

    def test_errors_are_traced_too(self, server, client):
        seed(client)
        with pytest.raises(ServerError):
            client.match("(?s ?p ?o)", ["no-such-model"],
                         request_id="failed-req")
        assert client.last_request_id == "failed-req"
        entry = client.debug_trace("failed-req")
        assert entry["status"] == 404


class TestDebugSlow:
    def test_slow_match_is_captured_with_full_context(self, client):
        seed(client)
        client.match("(?s <urn:p> ?o)", ["m1"],
                     request_id="slow-match")
        payload = client.debug_slow()
        assert payload["threshold_seconds"] == 0.0
        assert payload["captured"] >= 1
        entry = next(e for e in payload["requests"]
                     if e["request_id"] == "slow-match")
        assert entry["method"] == "POST"
        assert entry["path"] == "/match"
        assert entry["status"] == 200
        assert entry["duration"] > 0
        notes = entry["annotations"]
        assert notes["query"] == "(?s <urn:p> ?o)"
        assert notes["plan_cache"] in ("hit", "miss")
        assert notes["rows"] == 2
        assert notes["data_version"] == 1
        # EXPLAIN captured while the lease was still held.
        assert "SELECT" in notes["plan_sql"].upper()
        assert notes["explain"]
        # The span tree followed the request.
        names = {span["name"] for span in entry["spans"]}
        assert "match.execute" in names
        assert all(span["attributes"].get("request_id") ==
                   "slow-match" for span in entry["spans"])

    def test_write_requests_capture_queue_waits(self, client):
        client.insert("m2", [["<urn:x>", "<urn:p>", "<urn:y>"]],
                      create=True, request_id="slow-write")
        entry = client.debug_trace("slow-write")
        notes = entry["annotations"]
        assert notes["writer_queue_wait_seconds"] >= 0
        assert notes["writer_exec_seconds"] > 0
        # The writer thread's span landed in this request's trace.
        assert any(span["name"] == "writer.execute"
                   for span in entry["spans"])

    def test_limit_parameter(self, client):
        seed(client)
        for index in range(3):
            client.match("(?s <urn:p> ?o)", ["m1"],
                         request_id=f"limited-{index}")
        payload = client.debug_slow(limit=1)
        assert len(payload["requests"]) == 1
        # Newest first.
        assert payload["requests"][0]["request_id"] == "limited-2"

    def test_bad_limit_is_400(self, server):
        status, _, body = raw_request(server, "GET",
                                      "/debug/slow?limit=banana")
        assert status == 400
        assert b"limit" in body

    def test_slow_counts_reach_stats_and_metrics(self, server, client):
        seed(client)
        client.match("(?s <urn:p> ?o)", ["m1"])
        stats = client.stats()
        assert stats["slow_requests"]["captured"] >= 1
        counters = stats["metrics"]["counters"]
        assert counters["server.slow_requests"] >= 1
        assert counters["server.requests.match"] >= 1
        assert "server.endpoint.match.seconds" in \
            stats["metrics"]["histograms"]


class TestDebugTrace:
    def test_fast_requests_found_via_recent_ring(self, tmp_path):
        with make_server(tmp_path, slow_threshold=30.0) as server:
            host, port = server.address
            with ReproClient(host, port) as client:
                seed(client)
                client.match("(?s <urn:p> ?o)", ["m1"],
                             request_id="fast-one")
                assert client.debug_slow()["requests"] == []
                entry = client.debug_trace("fast-one")
                assert entry["request_id"] == "fast-one"

    def test_unknown_id_is_404(self, client):
        with pytest.raises(ServerError) as info:
            client.debug_trace("never-happened")
        assert info.value.status == 404

    def test_chrome_export(self, client):
        seed(client)
        client.match("(?s <urn:p> ?o)", ["m1"],
                     request_id="chrome-me")
        events = client.debug_trace("chrome-me", chrome=True)
        assert isinstance(events, list)
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "expected at least one complete event"
        assert all(e["args"].get("request_id") == "chrome-me"
                   for e in complete)
        metadata = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metadata)


class TestBackpressureContext:
    def test_429_body_names_the_saturation(self, server, client):
        seed(client)
        # Take every admission permit.  Blocking with a bound: the
        # handler that answered seed() may not have released its
        # permit yet, and a non-blocking drain would then leave one
        # free and the request below would be admitted.
        limit = server.config.workers + server.config.backlog
        permits = 0
        while permits < limit \
                and server._gate.acquire(blocking=True, timeout=5.0):
            permits += 1
        try:
            assert permits == limit
            status, headers, body = raw_request(
                server, "POST", "/match",
                body=json.dumps({"query": "(?s ?p ?o)",
                                 "models": ["m1"]}),
                headers={"Content-Type": "application/json"})
        finally:
            for _ in range(permits):
                server._gate.release()
        assert status == 429
        assert headers["Retry-After"]
        payload = json.loads(body)
        assert payload["type"] == "Backpressure"
        assert payload["queue_depth"] == 0
        assert payload["queue_limit"] == 64
        assert payload["pool_size"] == 2
        assert payload["admission_limit"] == 4
        assert payload["admission_free"] == 0
        gauges = client.stats()["metrics"]["gauges"]
        assert "server.queue_depth" in gauges
        assert "pool.in_use" in gauges


class TestAccessLog:
    def test_one_json_line_per_request(self, tmp_path):
        stream = io.StringIO()
        with make_server(tmp_path, access_log=True,
                         access_log_stream=stream) as server:
            host, port = server.address
            with ReproClient(host, port) as client:
                seed(client)
                client.match("(?s <urn:p> ?o)", ["m1"],
                             request_id="logged-req")
        lines = [json.loads(line)
                 for line in stream.getvalue().splitlines()]
        matched = [line for line in lines
                   if line.get("request_id") == "logged-req"]
        assert len(matched) == 1
        entry = matched[0]
        assert entry["method"] == "POST"
        assert entry["path"] == "/match"
        assert entry["status"] == 200
        assert entry["duration_ms"] > 0
        assert entry["worker"]

    def test_off_by_default(self, tmp_path):
        stream = io.StringIO()
        with make_server(tmp_path,
                         access_log_stream=stream) as server:
            host, port = server.address
            with ReproClient(host, port) as client:
                seed(client)
        assert stream.getvalue() == ""
