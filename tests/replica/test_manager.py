"""Replica lifecycle: settings, builds, freshness, cap, counters."""

import pytest

from repro.core.store import RDFStore
from repro.errors import ModelNotFoundError, ReplicaError
from repro.inference.match import sdo_rdf_match
from repro.replica.manager import ReplicaManager, parse_replica_setting


@pytest.fixture
def loaded(store):
    store.create_model("m")
    for serial in range(6):
        store.insert_triple("m", f"<urn:s{serial % 3}>", "<urn:p>",
                            f"<urn:o{serial}>")
        store.insert_triple("m", f"<urn:s{serial % 3}>", "<urn:q>",
                            f'"{serial}"')
    return store


class TestParseReplicaSetting:
    @pytest.mark.parametrize("value", [None, False, 0, "", "0", "off",
                                       "no", "false", "none", -5])
    def test_disabled(self, value):
        assert parse_replica_setting(value) == (False, None)

    @pytest.mark.parametrize("value", [True, 1, "1", "on", "yes",
                                       "true", "TRUE", " On "])
    def test_enabled_uncapped(self, value):
        assert parse_replica_setting(value) == (True, None)

    @pytest.mark.parametrize("value,cap", [
        (4096, 4096), ("4096", 4096), ("64mb", 64 * 1024 ** 2),
        ("512k", 512 * 1024), ("1g", 1024 ** 3), ("2KB", 2048),
    ])
    def test_byte_caps(self, value, cap):
        assert parse_replica_setting(value) == (True, cap)

    @pytest.mark.parametrize("value", ["64xb", "lots", "1.5g", "-2k"])
    def test_garbage_rejected(self, value):
        with pytest.raises(ReplicaError):
            parse_replica_setting(value)


class TestManagerConstruction:
    def test_bad_refresh_mode(self):
        with pytest.raises(ReplicaError):
            ReplicaManager(refresh="eager")

    def test_bad_cap(self):
        with pytest.raises(ReplicaError):
            ReplicaManager(max_bytes=0)


class TestWarmAndStatus:
    def test_warm_builds_partitions(self, loaded):
        manager = loaded.enable_replica()
        replica = manager.warm(loaded, "m")
        assert replica.triples == 12
        assert len(replica.partitions) == 2  # urn:p and urn:q
        assert replica.complete
        assert manager.counter("builds") == 1

    def test_warm_is_idempotent_when_fresh(self, loaded):
        manager = loaded.enable_replica()
        first = manager.warm(loaded, "m")
        assert manager.warm(loaded, "m") is first
        assert manager.counter("builds") == 1

    def test_warm_unknown_model(self, loaded):
        manager = loaded.enable_replica()
        with pytest.raises(ModelNotFoundError):
            manager.warm(loaded, "ghost")

    def test_status_shape(self, loaded):
        manager = loaded.enable_replica()
        manager.warm(loaded, "m")
        body = manager.status(loaded)
        assert body["refresh"] == "inline"
        assert body["partitions"] == 2
        assert body["bytes"] == manager.total_bytes > 0
        entry = body["models"]["m"]
        assert entry["triples"] == 12
        assert entry["complete"] is True
        assert entry["stale"] is False

    def test_status_marks_stale_after_write(self, loaded):
        manager = loaded.enable_replica()
        manager.warm(loaded, "m")
        loaded.insert_triple("m", "<urn:new>", "<urn:p>", "<urn:x>")
        assert manager.status(loaded)["models"]["m"]["stale"] is True

    def test_status_marks_dropped_model_stale(self, loaded):
        manager = loaded.enable_replica()
        manager.warm(loaded, "m")
        loaded.drop_model("m")
        # drop_model forgets the replica; a survivor would be stale.
        body = manager.status(loaded)
        assert body["models"] == {}


class TestFreshness:
    def test_inline_rebuild_after_write(self, loaded):
        manager = loaded.enable_replica()
        query = "(?s <urn:p> ?o)"
        before = sdo_rdf_match(loaded, query, ["m"])
        loaded.insert_triple("m", "<urn:late>", "<urn:p>", "<urn:z>")
        after = sdo_rdf_match(loaded, query, ["m"])
        assert len(after) == len(before) + 1
        assert manager.counter("hits") >= 2
        assert manager.counter("builds") >= 2

    def test_fallback_mode_misses_until_refreshed(self, loaded):
        manager = ReplicaManager(refresh="fallback")
        loaded.attach_replica(manager)
        query = "(?s <urn:p> ?o)"
        rows = sdo_rdf_match(loaded, query, ["m"])  # absent -> SQL
        assert len(rows) == 6
        assert manager.counter("misses") == 1
        assert manager.counter("hits") == 0
        assert manager.status()["wanted"] == ["m"]
        manager.refresh(loaded)
        assert sdo_rdf_match(loaded, query, ["m"]) == rows
        assert manager.counter("hits") == 1

    def test_refresh_rebuilds_only_stale(self, loaded):
        manager = loaded.enable_replica()
        manager.warm(loaded, "m")
        assert manager.refresh(loaded) == []
        loaded.insert_triple("m", "<urn:late>", "<urn:p>", "<urn:z>")
        assert manager.refresh(loaded) == ["m"]
        assert manager.counter("refreshes") == 1

    def test_refresh_forgets_dropped_models(self, loaded):
        manager = ReplicaManager(refresh="fallback")
        loaded.attach_replica(manager)
        sdo_rdf_match(loaded, "(?s <urn:p> ?o)", ["m"])  # queue m
        loaded.drop_model("m")
        assert manager.refresh(loaded) == []
        assert manager.status()["wanted"] == []

    def test_version_memo_never_serves_stale(self, loaded):
        """The inline data_version memo must not mask local writes."""
        manager = loaded.enable_replica()
        query = "(?s <urn:q> ?o)"
        for serial in range(20, 25):
            loaded.insert_triple("m", "<urn:hot>", "<urn:q>",
                                 f'"{serial}"')
            rows = sdo_rdf_match(loaded, query, ["m"])
            assert len(rows) == 6 + (serial - 19)
        assert manager.counter("hits") >= 5


class TestAmortisedRefresh:
    """Fallback mode rebuilds a stale replica once its misses have
    cost as much SQL time as its last build (the ski-rental rule)."""

    QUERY = "(?s <urn:p> ?o)"

    def stale_replica(self, loaded):
        manager = ReplicaManager(refresh="fallback")
        loaded.attach_replica(manager)
        replica = manager.warm(loaded, "m")
        loaded.insert_triple("m", "<urn:late>", "<urn:p>", "<urn:z>")
        return manager, replica

    def test_stale_misses_accrue_debt_before_queueing(self, loaded):
        manager, replica = self.stale_replica(loaded)
        replica.build_ms = 1e9  # a rebuild far dearer than any miss
        debts = []
        for _ in range(3):
            rows = sdo_rdf_match(loaded, self.QUERY, ["m"])
            assert len(rows) == 7
            debts.append(replica.fallback_debt_ms)
        assert 0 < debts[0] < debts[1] < debts[2]
        assert manager.counter("misses") == 3
        assert manager.status()["wanted"] == []
        # Once the debt reaches the build cost, the next miss queues.
        replica.build_ms = replica.fallback_debt_ms
        sdo_rdf_match(loaded, self.QUERY, ["m"])
        assert manager.status()["wanted"] == ["m"]

    def test_rebuild_starts_a_fresh_debt(self, loaded):
        manager, replica = self.stale_replica(loaded)
        replica.build_ms = 0.0
        sdo_rdf_match(loaded, self.QUERY, ["m"])
        assert manager.status()["wanted"] == ["m"]
        assert manager.refresh(loaded) == ["m"]
        entry = manager.status(loaded)["models"]["m"]
        assert entry["fallback_debt_ms"] == 0
        assert entry["stale"] is False
        assert manager.status()["wanted"] == []
        assert len(sdo_rdf_match(loaded, self.QUERY, ["m"])) == 7
        assert manager.counter("hits") == 1

    def test_shape_fallbacks_are_not_billed(self, loaded):
        manager, replica = self.stale_replica(loaded)
        replica.build_ms = 0.0
        chain = "(?s <urn:p> ?o) (?o <urn:q> ?x)"
        sdo_rdf_match(loaded, chain, ["m"])
        assert manager.counter("fallbacks") == 1
        assert replica.fallback_debt_ms == 0
        assert manager.status()["wanted"] == []

    def test_evicted_partitions_are_billed(self, loaded):
        manager = ReplicaManager(max_bytes=1, refresh="fallback")
        loaded.attach_replica(manager)
        replica = manager.warm(loaded, "m")
        replica.build_ms = 1e9
        assert len(sdo_rdf_match(loaded, self.QUERY, ["m"])) == 6
        assert manager.counter("misses") == 1
        assert replica.fallback_debt_ms > 0

    def test_absent_replica_queues_on_first_miss(self, loaded):
        manager = ReplicaManager(refresh="fallback")
        loaded.attach_replica(manager)
        sdo_rdf_match(loaded, self.QUERY, ["m"])
        assert manager.status()["wanted"] == ["m"]

    def test_status_reports_build_cost_and_debt(self, loaded):
        manager, replica = self.stale_replica(loaded)
        replica.build_ms = 1e9
        sdo_rdf_match(loaded, self.QUERY, ["m"])
        entry = manager.status()["models"]["m"]
        assert entry["last_build_ms"] > 0
        assert entry["fallback_debt_ms"] > 0


class TestMemoryCap:
    def test_eviction_under_cap(self, loaded):
        manager = loaded.enable_replica(max_bytes=1)
        manager.warm(loaded, "m")
        body = manager.status()
        assert body["counters"]["evictions"] >= 1
        assert body["bytes"] <= 1
        assert body["models"]["m"]["complete"] is False

    def test_evicted_partition_falls_back_to_sql(self, loaded):
        manager = loaded.enable_replica(max_bytes=1)
        manager.warm(loaded, "m")
        rows = sdo_rdf_match(loaded, "(?s <urn:p> ?o)", ["m"])
        assert len(rows) == 6  # correct, served by SQL
        assert manager.counter("misses") >= 1

    def test_lru_keeps_touched_partition(self, loaded):
        manager = loaded.enable_replica()
        replica = manager.warm(loaded, "m")
        total = replica.nbytes
        # Cap to just under the total: exactly one partition must go.
        manager.max_bytes = total - 1
        with manager._lock:
            manager._enforce_cap_locked()
        assert len(replica.partitions) == 1
        assert manager.counter("evictions") == 1

    def test_drop_releases_bytes(self, loaded):
        manager = loaded.enable_replica()
        manager.warm(loaded, "m")
        assert manager.total_bytes > 0
        assert manager.drop("m") == 1
        assert manager.total_bytes == 0
        assert manager.drop("m") == 0


class TestStoreWiring:
    def test_store_replica_setting(self):
        store = RDFStore(replica=True)
        try:
            assert store.replica is not None
            assert store.replica.refresh_mode == "inline"
        finally:
            store.close()

    def test_store_replica_cap_setting(self):
        store = RDFStore(replica="2mb")
        try:
            assert store.replica.max_bytes == 2 * 1024 ** 2
        finally:
            store.close()

    def test_env_toggle(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLICA", "on")
        store = RDFStore()
        try:
            assert store.replica is not None
        finally:
            store.close()
        monkeypatch.setenv("REPRO_REPLICA", "off")
        store = RDFStore()
        try:
            assert store.replica is None
        finally:
            store.close()

    def test_drop_model_forgets_replica(self, loaded):
        manager = loaded.enable_replica()
        manager.warm(loaded, "m")
        loaded.drop_model("m")
        assert manager.status()["models"] == {}
