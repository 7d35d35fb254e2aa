"""A dropped and recreated model never looks like its old self.

``rdf_model$`` hands a dropped model's id to the next model created,
so the replica's ``(model_id, version)`` freshness tag must never
repeat: create and drop both advance the model's durable version.
The scenario is two stores on one file — a serving process with a
warm fallback-mode replica, and another connection that drops the
model, recreates it, and writes as many triples as it had before.
"""

from __future__ import annotations

from repro.core.store import RDFStore
from repro.inference.match import sdo_rdf_match
from repro.replica.manager import ReplicaManager

QUERY = "(?s <urn:p> ?o)"


def test_recreated_model_does_not_serve_old_rows(tmp_path):
    path = str(tmp_path / "reuse.db")
    reader = RDFStore(path, replica=False)
    writer = RDFStore(path, replica=False)
    try:
        reader.create_model("other")
        original = reader.create_model("m")
        for serial in range(3):
            reader.insert_triple("m", f"<urn:old{serial}>", "<urn:p>",
                                 "<urn:x>")
        manager = ReplicaManager(refresh="fallback")
        reader.attach_replica(manager)
        manager.warm(reader, "m")
        assert len(sdo_rdf_match(reader, QUERY, ["m"])) == 3
        assert manager.counter("hits") == 1

        writer.drop_model("m")
        recreated = writer.create_model("m")
        assert recreated.model_id == original.model_id
        for serial in range(3):
            writer.insert_triple("m", f"<urn:new{serial}>", "<urn:p>",
                                 "<urn:y>")

        served = sdo_rdf_match(reader, QUERY, ["m"])
        expected = sdo_rdf_match(reader, QUERY, ["m"], optimize=False)
        assert sorted(row["s"] for row in expected) == \
            [f"urn:new{serial}" for serial in range(3)]
        assert sorted(map(repr, served)) == sorted(map(repr, expected))
        assert manager.counter("hits") == 1
    finally:
        writer.close()
        reader.close()


def test_create_and_drop_advance_the_model_version(tmp_path):
    with RDFStore(str(tmp_path / "v.db"), replica=False) as store:
        info = store.create_model("m")
        created = store.links.model_version(info.model_id)
        assert created > 0
        store.drop_model("m")
        dropped = store.links.model_version(info.model_id)
        assert dropped > created
        again = store.create_model("m")
        assert again.model_id == info.model_id
        assert store.links.model_version(again.model_id) > dropped
