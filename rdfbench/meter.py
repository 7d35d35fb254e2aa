"""Per-operation timing, normalised against the host-speed probe.

A :class:`Meter` collects the raw wall time of every operation of one
phase and runs the probe once about every ``PROBE_EVERY_S`` seconds of
load (and always at the start and end).  Each operation's time is
divided by the mean of the two probe times on either side of it, so a
slow second of the host slows the probe as much as the work.
"""

from __future__ import annotations

import statistics
import time

from probe import REFERENCE_MS, Probe

PROBE_EVERY_S = 0.010


class Meter:
    """Operation timings of one phase, raw and normalised."""

    def __init__(self, probe: Probe, repeat: int = 1) -> None:
        self._probe = probe
        self._repeat = repeat
        self._spent_at_start = probe.spent
        self._before = self._measure()
        self._pending: list[list] = []
        self._load = 0.0
        #: ``[kind, raw_s, normalised_s, rows]`` per finished operation.
        self.ops: list[list] = []
        #: Raw probe seconds, in order.
        self.probes: list[float] = [self._before]

    def record(self, kind: str, seconds: float, rows: int = 0) -> list:
        """Add one operation; returns its record (normalised at the
        next probe)."""
        entry = [kind, seconds, 0.0, rows]
        self._pending.append(entry)
        self._load += seconds
        if self._load >= PROBE_EVERY_S:
            self.flush()
        return entry

    def _measure(self) -> float:
        """One probe reading: the median of ``repeat`` probe runs (long
        setup steps afford several, which keeps one interrupted probe
        from skewing a whole step)."""
        return statistics.median(self._probe.run()
                                 for _ in range(self._repeat))

    def flush(self) -> None:
        """Probe now and normalise everything recorded since the last
        probe."""
        after = self._measure()
        factor = (REFERENCE_MS / 1000.0) / ((self._before + after) / 2.0)
        for entry in self._pending:
            entry[2] = entry[1] * factor
        self.ops.extend(self._pending)
        self._pending = []
        self._load = 0.0
        self._before = after
        self.probes.append(after)

    def timed(self, kind: str, operation, *args, **kwargs):
        """Run ``operation`` as one timed step, probing right after it
        (setup steps are long enough that each gets its own probes)."""
        start = time.perf_counter()
        result = operation(*args, **kwargs)
        entry = self.record(kind, time.perf_counter() - start)
        if self._pending:
            self.flush()
        return result, entry

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def of(self, *kinds: str) -> list[list]:
        return [op for op in self.ops if op[0] in kinds]

    def total(self, *kinds: str, normalised: bool = True) -> float:
        column = 2 if normalised else 1
        return sum(op[column] for op in self.of(*kinds))

    def probe_seconds(self) -> float:
        """Wall seconds this phase spent probing."""
        return self._probe.spent - self._spent_at_start

    def factor(self) -> float:
        """Mean normalisation factor of the phase (normalised / raw)."""
        raw = sum(op[1] for op in self.ops)
        return sum(op[2] for op in self.ops) / raw if raw else 1.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

