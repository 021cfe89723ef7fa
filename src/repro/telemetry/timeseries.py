"""Windowed rollups: a bounded utilization timeline over the registry.

The :class:`~repro.telemetry.registry.MetricsRegistry` answers "what is
the value *now*"; a long run therefore ends with one number per metric
and no way to ask "when did the fabric saturate".  The rollup recorder
closes that gap: every ``interval_s`` of *sim* time it snapshots the
registry's scalars (counters, gauges, and histogram counts) into a
window, and keeps the last ``retention`` windows on a ring.  Memory is
O(retention x metrics) no matter how long the run is; dropped windows
are counted in :attr:`RollupRecorder.evicted` so a truncated timeline
is visible in the record itself.

The recorder has no clock of its own — sim code drives it by calling
:meth:`maybe_roll` with the current sim time.  The flow recorder calls
it from its delivery hook (one float compare per message when armed),
and long quiet stretches are filled in lazily: ``maybe_roll`` emits
every elapsed window boundary, carrying the last snapshot forward, so
the timeline has a row per interval even when no message moved.
"""

from __future__ import annotations

from collections import deque

from .registry import MetricsRegistry

__all__ = ["RollupRecorder"]

#: Cap on boundaries emitted per catch-up so a single maybe_roll after a
#: very long quiet stretch cannot stall the run filling gap windows.
MAX_GAP_WINDOWS = 64


class RollupRecorder:
    """Fixed-interval registry snapshots on a bounded ring."""

    __slots__ = ("registry", "interval_s", "retention", "windows",
                 "evicted", "gap_windows", "_next_boundary")

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float = 1e-3,
        retention: int = 256,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"rollup interval must be positive, got {interval_s}")
        if retention <= 0:
            raise ValueError(f"rollup retention must be positive, got {retention}")
        self.registry = registry
        self.interval_s = interval_s
        self.retention = retention
        #: Ring of ``{"t_s": boundary, "metrics": {name: float}}`` dicts.
        self.windows: deque = deque(maxlen=retention)
        #: Windows pushed off the ring (timeline truncation, satellite of
        #: the "flight record must show its own truncation" rule).
        self.evicted = 0
        #: Boundaries synthesised with a carried-forward snapshot.
        self.gap_windows = 0
        self._next_boundary = interval_s

    def _scalars(self) -> dict[str, float]:
        """Registry snapshot flattened to floats (histograms -> count)."""
        out: dict[str, float] = {}
        for name, value in self.registry.snapshot().items():
            if isinstance(value, dict):
                out[name] = float(value.get("count", 0.0))
            else:
                out[name] = float(value)
        return out

    def maybe_roll(self, now: float) -> None:
        """Roll every boundary that has elapsed by sim time ``now``."""
        if now < self._next_boundary:
            return
        self.roll(now)

    def roll(self, now: float) -> None:
        """Unconditionally emit all boundaries up to ``now``."""
        metrics = self._scalars()
        emitted = 0
        while self._next_boundary <= now:
            if len(self.windows) == self.retention:
                self.evicted += 1
            self.windows.append(
                {"t_s": self._next_boundary, "metrics": metrics}
            )
            self._next_boundary += self.interval_s
            emitted += 1
            if emitted > 1:
                self.gap_windows += 1
            if emitted >= MAX_GAP_WINDOWS:
                # Skip the remainder of a pathological gap in one jump;
                # the jump itself is visible as a hole in the t_s column.
                intervals = int((now - self._next_boundary)
                                / self.interval_s) + 1
                if intervals > 0:
                    self._next_boundary += intervals * self.interval_s
                break

    def flush(self, now: float) -> None:
        """Close the timeline: emit a final window at ``now`` if anything
        happened since the last boundary."""
        if not self.windows or self.windows[-1]["t_s"] < now:
            if len(self.windows) == self.retention:
                self.evicted += 1
            self.windows.append({"t_s": now, "metrics": self._scalars()})
            while self._next_boundary <= now:
                self._next_boundary += self.interval_s

    # -- queries ----------------------------------------------------------

    def series(self, name: str) -> list[tuple[float, float]]:
        """``(t_s, value)`` timeline of one metric (missing -> 0.0)."""
        return [
            (window["t_s"], window["metrics"].get(name, 0.0))
            for window in self.windows
        ]

    def names(self) -> list[str]:
        """Every metric name appearing in any retained window, sorted."""
        seen: set[str] = set()
        for window in self.windows:
            seen.update(window["metrics"])
        return sorted(seen)

    def rate_series(self, name: str) -> list[tuple[float, float]]:
        """Per-second first differences of a (counter-like) metric."""
        out = []
        previous_t = 0.0
        previous_v = 0.0
        for t, value in self.series(name):
            dt = t - previous_t
            if dt > 0:
                out.append((t, (value - previous_v) / dt))
            previous_t, previous_v = t, value
        return out

    def state_size(self) -> int:
        """Retained cells — the RSS proxy the bounded-memory bench checks."""
        return sum(len(window["metrics"]) + 1 for window in self.windows)
