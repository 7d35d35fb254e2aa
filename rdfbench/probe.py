"""Host-speed reference probe.

The host's speed drifts from second to second, and two vCPUs drift
independently.  Every timing the benchmark reports is therefore divided
by the cost of a fixed reference task run on the same pinned CPU just
before and just after the timed work.  The task mixes what the program
under test spends its time on -- SQLite statements, dict building and
string work -- but uses the standard library only: it must never
import ``repro``, or a change to the program would move the yardstick.

A normalised time is reported in "reference milliseconds": the wall
time the work would have taken on a host where one probe costs exactly
``REFERENCE_MS``.
"""

from __future__ import annotations

import gc
import sqlite3
import time

#: Nominal probe cost that normalised timings are scaled to (ms).
REFERENCE_MS = 0.2

_ROWS = 512


class Probe:
    """A fixed, repeatable slice of interpreter + SQLite work."""

    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:")
        self._db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, "
            "name TEXT)")
        self._db.execute("CREATE INDEX t_k ON t (k)")
        self._db.executemany(
            "INSERT INTO t VALUES (?, ?, ?)",
            [(i, (i * 7919) % _ROWS,
              f"urn:lsid:uniprot.org:probe:P{i:05d}") for i in range(_ROWS)])
        self._db.commit()
        self._turn = 0
        #: Raw seconds of every timed probe pass, in order.
        self.samples: list[float] = []
        #: Wall seconds spent probing, both passes.
        self.spent = 0.0

    def run(self) -> float:
        """Run the reference task once; returns and records its seconds."""
        turn = self._turn = (self._turn + 1) % 8
        # A collection the measured work made due must not land in the
        # yardstick; it runs in the next operation instead.
        collecting = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        try:
            # The first pass reloads the task's code and data into the
            # caches the measured work just evicted; only the second is
            # timed, so the yardstick tracks the CPU's speed, not how
            # much memory the program under test touched.
            self._task(turn)
            elapsed = self._task(turn)
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - begin
        self.samples.append(elapsed)
        return elapsed

    def _task(self, turn: int) -> float:
        start = time.perf_counter()
        low = turn * 64
        rows = self._db.execute(
            "SELECT id, k, name FROM t WHERE k BETWEEN ? AND ? "
            "ORDER BY name", (low, low + 63)).fetchall()
        table = {}
        for row_id, key, name in rows:
            table[name] = {"id": row_id, "k": key,
                           "tail": name.rsplit(":", 1)[-1].lower()}
        text = "|".join(sorted(entry["tail"] for entry in table.values()))
        counts: dict[str, int] = {}
        for char in text:
            counts[char] = counts.get(char, 0) + 1
        if len(table) != 64 or not counts:
            raise RuntimeError("probe task returned a wrong answer")
        return time.perf_counter() - start

    def close(self) -> None:
        self._db.close()

