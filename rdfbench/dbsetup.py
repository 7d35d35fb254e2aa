"""Building the benchmark database through public calls only.

Setup is driven as a sequence of short public calls with a probe
between each: one 50k-triple bulk load bracketed by two probes does not
normalise (the host drifts within it), ten 5k-triple loads do.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

from repro import DBUri, RDFStore
from repro.core.bulkload import BulkLoader

from data import INGEST_MODEL, MODEL, TRIPLES, make_dataset, spo
from meter import Meter
from probe import Probe

LOAD_CHUNK = 5_000
REIFY_CHUNK = 500
#: Probe runs per reading between setup steps.
SETUP_PROBES = 5


def _open(path: str) -> RDFStore:
    store = RDFStore(path, durability="durable", replica=False)
    store.create_model(MODEL)
    store.create_model(INGEST_MODEL)
    return store


def _reify(store: RDFStore, statements: list) -> list[str]:
    """Reify one batch in one transaction; returns the DBUri subjects."""
    subjects = []
    with store.database.transaction():
        for statement in statements:
            link = store.find_link(MODEL, *spo(statement))
            if link is None:
                raise RuntimeError(f"reification target missing: "
                                   f"{spo(statement)}")
            store.reify_triple(MODEL, link.link_id)
            subjects.append(DBUri.for_link(link.link_id).text)
    return subjects


def build(path: str, triples: list, reified: list, meter: Meter) -> dict:
    """Load, reify, checkpoint and close one database file, replacing
    any earlier one.

    Returns the normalised seconds of each stage, the triple count, the
    closed file's size and the reification DBUri subjects.
    """
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    store, opened = meter.timed("create", _open, path)
    loader = BulkLoader(store, MODEL)
    links = 0
    load = [opened]
    for start in range(0, TRIPLES, LOAD_CHUNK):
        report, entry = meter.timed(
            "bulkload", loader.load, triples[start:start + LOAD_CHUNK])
        links += report.new_links
        load.append(entry)
    reify = []
    dburis: list[str] = []
    for start in range(0, len(reified), REIFY_CHUNK):
        subjects, entry = meter.timed(
            "reify", _reify, store, reified[start:start + REIFY_CHUNK])
        dburis.extend(subjects)
        reify.append(entry)
    _, closed = meter.timed("close", store.close)
    steps = load + reify + [closed]
    return {
        "bulkload_s": sum(e[2] for e in load) + closed[2],
        "reify_s": sum(e[2] for e in reify),
        "raw_s": sum(e[1] for e in steps),
        "probe_factor": sum(e[2] for e in steps) / sum(e[1] for e in steps),
        "triples": links + len(dburis),
        "file_bytes": sum(os.path.getsize(path + suffix)
                          for suffix in ("", "-wal")
                          if os.path.exists(path + suffix)),
        "dburis": dburis,
    }


def main(argv: list[str]) -> int:
    """``dbsetup.py SEED WORKDIR REPS``: build ``WORKDIR/store.db``
    ``REPS`` times over (the last build is kept), write the
    dataset constants to ``WORKDIR/dataset.json`` and print the setup
    timings as one JSON line."""
    seed, workdir, reps = int(argv[0]), argv[1], int(argv[2])
    data, triples, reified = make_dataset(seed)
    probe = Probe()
    path = os.path.join(workdir, "store.db")
    builds = [build(path, triples, reified, Meter(probe, repeat=SETUP_PROBES))
              for _ in range(reps)]
    data.dburis = builds[-1].pop("dburis")
    for extra in builds[:-1]:
        if extra.pop("dburis") != data.dburis:
            raise RuntimeError("reification is not deterministic")
    with open(os.path.join(workdir, "dataset.json"), "w",
              encoding="utf-8") as stream:
        json.dump(dataclasses.asdict(data), stream)
    print(json.dumps({"builds": builds}))
    probe.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
