"""Tests for the ``repro replica`` CLI verb and stats versions."""

import io
import json

from repro.cli import main


def run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _seed(db_path):
    run("create-model", db_path, "m")
    run("insert", db_path, "m", "<urn:a>", "<urn:p>", "<urn:b>")
    run("insert", db_path, "m", "<urn:a>", "<urn:q>", '"42"')


class TestReplicaVerb:
    def test_status_cold(self, tmp_path):
        db_path = str(tmp_path / "r.db")
        _seed(db_path)
        code, output = run("replica", db_path, "status")
        assert code == 0
        assert "0 partitions" in output
        assert "warm" in output and "m" in output

    def test_warm_reports_partitions_and_bytes(self, tmp_path):
        db_path = str(tmp_path / "r.db")
        _seed(db_path)
        code, output = run("replica", db_path, "warm")
        assert code == 0
        assert "2 partitions" in output
        assert "m: 2 triples" in output
        assert "(fresh)" in output
        assert "built in" in output

    def test_warm_json(self, tmp_path):
        db_path = str(tmp_path / "r.db")
        _seed(db_path)
        code, output = run("replica", db_path, "warm", "--json")
        assert code == 0
        body = json.loads(output)
        assert body["partitions"] == 2
        assert body["bytes"] > 0
        entry = body["models"]["m"]
        assert entry["triples"] == 2
        assert entry["stale"] is False

    def test_warm_with_cap_evicts(self, tmp_path):
        db_path = str(tmp_path / "r.db")
        _seed(db_path)
        code, output = run("replica", db_path, "warm",
                           "--max-bytes", "2", "--json")
        assert code == 0
        body = json.loads(output)
        assert body["max_bytes"] == 2
        assert body["counters"]["evictions"] >= 1

    def test_drop_is_process_local(self, tmp_path):
        db_path = str(tmp_path / "r.db")
        _seed(db_path)
        code, output = run("replica", db_path, "drop")
        assert code == 0
        # A fresh process holds no replica memory: nothing to drop.
        assert "dropped 0" in output

    def test_unknown_model_errors(self, tmp_path):
        db_path = str(tmp_path / "r.db")
        _seed(db_path)
        code, output = run("replica", db_path, "warm", "ghost")
        assert code == 1
        assert "error" in output


class TestStatsVersions:
    def test_stats_json_reports_versions(self, tmp_path):
        db_path = str(tmp_path / "r.db")
        _seed(db_path)
        code, output = run("stats", db_path, "--json")
        assert code == 0
        body = json.loads(output)
        versions = body["versions"]
        # CLI-only writes never touch the serve-state table, so the
        # durable write version reads as the documented "unknown" -1.
        assert versions["write_version"] == -1
        assert isinstance(versions["data_version"], int)
