"""Checking every answer against plain SQL.

Reference rows come from ``sdo_rdf_match(..., optimize=False)`` on a
store with no result cache and no replica.  During a run the benchmark
only notes what it saw -- the row count of every response, the rows of
the first response to each distinct query -- and checks after the clock
has stopped.  A mismatch is a failed operation and is reported; it is
never dropped.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict

import repro.inference.match as match_module

from data import Query


def canonical(row: dict) -> tuple:
    return tuple(sorted(row.items()))


def digest(rows: list[dict]) -> str:
    """Order-free fingerprint of a row multiset.  Kept instead of the
    rows themselves, so the check does not inflate the peak RSS of the
    process that hosts the store."""
    return hashlib.sha256(
        repr(sorted(map(canonical, rows))).encode("utf-8")).hexdigest()


class Oracle:
    """What the run saw, and the check of it after the run."""

    def __init__(self) -> None:
        self._first: dict[Query, list[dict] | str] = {}
        self._counts: dict[Query, Counter] = defaultdict(Counter)
        #: Responses whose reported count disagreed with their rows.
        self._failures: list[str] = []

    def saw(self, query: Query, rows: list, count: int) -> None:
        """Note one response: its rows (dicts or ``MatchRow``s) and the
        count the program reported."""
        if query not in self._first:
            dicts = [row if isinstance(row, dict) else row.as_dict()
                     for row in rows]
            self._first[query] = dicts if query.order_by else digest(dicts)
        if count != len(rows):
            self._failures.append(
                f"{query}: count {count} but {len(rows)} rows")
        self._counts[query][len(rows)] += 1

    def check(self, store) -> list[str]:
        """Compare everything seen against the reference store; returns
        one message per failed operation (including earlier ones)."""
        failures = list(self._failures)
        for query, seen in self._first.items():
            reference = [row.as_dict() for row in match_module.sdo_rdf_match(
                store, query.text, list(query.models), filter=query.filter,
                order_by=query.order_by, optimize=False)]
            expected = len(reference) if query.limit is None \
                else min(query.limit, len(reference))
            for count, times in self._counts[query].items():
                if count != expected:
                    failures.extend(
                        [f"{query}: {count} rows, expected "
                         f"{expected}"] * times)
            problem = _compare(query, seen, reference)
            if problem is not None:
                failures.append(f"{query}: {problem}")
        return failures


def _compare(query: Query, seen: list[dict] | str,
             reference: list[dict]) -> str | None:
    """Row-for-row check of one response against the full reference.

    Without ``order_by`` the rows (``seen`` is their digest) must equal
    the reference as a multiset.  With it, the sort column must read
    exactly as the reference's first ``limit`` values, and every row
    must be a reference row (ties at the limit may pick any tied row).
    """
    if query.order_by is None:
        if seen != digest(reference):
            return "rows differ from the reference"
        return None
    rows = seen
    column = query.order_by
    wanted = reference if query.limit is None else reference[:query.limit]
    if [row[column] for row in rows] != [row[column] for row in wanted]:
        return f"?{column} sequence differs from the reference"
    available = Counter(map(canonical, reference))
    available.subtract(Counter(map(canonical, rows)))
    if min(available.values(), default=0) < 0:
        return "rows not in the reference"
    return None
