"""The serve-state tables: write version and the idempotency ledger.

Python-level :attr:`~repro.db.connection.Database.data_version`
counters are per-connection, and SQLite's ``PRAGMA data_version``
values are also per-connection — neither is comparable *across* the
pooled readers.  The serving layer therefore keeps one row of durable
state, ``rdf_serve_state$``::

    (id = 1, write_version INTEGER)

The writer bumps ``write_version`` **inside** each write transaction;
a reader selects it **inside** the same read transaction as its query
SQL.  Because both happen atomically, the value each ``/match``
response reports is exactly the number of write transactions its
snapshot includes — monotonic and torn-read-free across any reader
connection, which is what the end-to-end consistency tests assert.

The same startup hook also creates ``rdf_idempotency$``, the bounded
**exactly-once write ledger**: a write request carrying an
``Idempotency-Key`` header records its outcome here inside the same
transaction as the mutation itself, so a client that retries after a
dropped connection (it cannot know whether the first attempt
committed) gets the recorded outcome replayed instead of applying the
write twice.  The ledger is capacity-bounded; the oldest entries are
pruned — inside write transactions, so the bound itself is
crash-consistent.
"""

from __future__ import annotations

import json
import time
from typing import Any

from repro.core.schema import (
    IDEMPOTENCY_SQL,
    IDEMPOTENCY_TABLE,
    MODEL_TABLE,
    MODEL_VERSION_TABLE,
)
from repro.db.connection import Database
from repro.errors import StorageError

#: The serving layer's single-row state table (central-schema style name).
SERVE_STATE_TABLE = "rdf_serve_state$"

#: Idempotency-ledger rows kept before the oldest are pruned.
DEFAULT_IDEMPOTENCY_CAPACITY = 4096


def ensure_serve_state(database: Database) -> None:
    """Create the state tables and their rows (writer, at startup)."""
    with database.transaction():
        database.execute(
            f'CREATE TABLE IF NOT EXISTS "{SERVE_STATE_TABLE}" ('
            "  id            INTEGER PRIMARY KEY CHECK (id = 1),"
            "  write_version INTEGER NOT NULL"
            ")")
        database.execute(
            f'INSERT OR IGNORE INTO "{SERVE_STATE_TABLE}" '
            "(id, write_version) VALUES (1, 0)")
        for statement in IDEMPOTENCY_SQL.strip().split(";"):
            if statement.strip():
                database.execute(statement)


def bump_write_version(database: Database) -> int:
    """Increment the write version (call inside the write transaction).

    Returns the new version so the writer can report it without a
    second round trip.
    """
    database.execute(
        f'UPDATE "{SERVE_STATE_TABLE}" '
        "SET write_version = write_version + 1 WHERE id = 1")
    return read_write_version(database)


def read_write_version(database: Database) -> int:
    """The current write version (read inside the query transaction).

    Returns -1 when the table does not exist yet — a database that was
    never served; callers treat that as "version unknown".
    """
    try:
        return int(database.query_value(
            f'SELECT write_version FROM "{SERVE_STATE_TABLE}" '
            "WHERE id = 1", default=-1))
    except StorageError:
        return -1


def read_versions(database: Database, model_names
                  ) -> tuple[int, dict[str, tuple[int, int]]]:
    """The write version and each named model's durable version.

    One statement, read inside the query transaction like
    :func:`read_write_version`: returns ``(write_version, {name:
    (model_id, version)})`` with names lowercased as registered.  A
    name with no model is left out.  The ``(model_id, version)`` pairs
    key the server's result cache per model: a write to one model does
    not move the key of a query over another, and a write by any
    connection — the server's writer, the CLI, another process —
    moves the key of the model it touched.
    """
    names = sorted({name.lower() for name in model_names})
    placeholders = ", ".join("?" for _ in names)
    rows = database.query_all(
        "SELECT s.write_version, m.model_name, m.model_id, "
        "IFNULL(v.version, 0) AS version "
        f'FROM "{SERVE_STATE_TABLE}" AS s '
        f'LEFT JOIN "{MODEL_TABLE}" AS m '
        f"ON m.model_name IN ({placeholders}) "
        f'LEFT JOIN "{MODEL_VERSION_TABLE}" AS v '
        "ON v.model_id = m.model_id "
        "WHERE s.id = 1", names)
    if not rows:
        return -1, {}
    return int(rows[0]["write_version"]), {
        row["model_name"]: (int(row["model_id"]), int(row["version"]))
        for row in rows if row["model_id"] is not None}


# ----------------------------------------------------------------------
# the idempotency ledger
# ----------------------------------------------------------------------

def lookup_idempotent(database: Database,
                      key: str) -> dict[str, Any] | None:
    """The recorded outcome for ``key``, or None if never applied.

    Called by the writer *inside* the write transaction, before the
    mutation: a hit means some earlier attempt with this key already
    committed — replay its outcome, execute nothing.
    """
    row = database.query_one(
        f'SELECT outcome_json FROM "{IDEMPOTENCY_TABLE}" '
        "WHERE key = ?", (key,))
    if row is None:
        return None
    return json.loads(row["outcome_json"])


def record_idempotent(database: Database, key: str, route: str,
                      outcome: dict[str, Any],
                      capacity: int = DEFAULT_IDEMPOTENCY_CAPACITY
                      ) -> None:
    """File ``outcome`` under ``key`` (inside the write transaction).

    Committing the ledger row atomically with the mutation is the
    whole mechanism: either both are durable (a retry replays) or
    neither is (a retry re-executes) — there is no window where the
    write applied but the ledger missed it.  The ledger is bounded:
    rows beyond ``capacity`` are pruned oldest-first, in the same
    transaction.
    """
    seq = int(database.query_value(
        f'SELECT IFNULL(MAX(seq), 0) + 1 FROM "{IDEMPOTENCY_TABLE}"',
        default=1))
    database.execute(
        f'INSERT OR REPLACE INTO "{IDEMPOTENCY_TABLE}" '
        "(key, seq, route, outcome_json, created_at) "
        "VALUES (?, ?, ?, ?, ?)",
        (key, seq, route, json.dumps(outcome), time.time()))
    database.execute(
        f'DELETE FROM "{IDEMPOTENCY_TABLE}" WHERE key IN ('
        f'  SELECT key FROM "{IDEMPOTENCY_TABLE}" '
        "   ORDER BY seq DESC LIMIT -1 OFFSET ?)",
        (max(1, capacity),))


def idempotency_stats(database: Database) -> dict[str, Any]:
    """Ledger size (for ``/stats`` and tests)."""
    try:
        return {"entries": int(database.query_value(
            f'SELECT COUNT(*) FROM "{IDEMPOTENCY_TABLE}"',
            default=0))}
    except StorageError:  # table not created yet
        return {"entries": 0}
