"""Measurement instruments for simulated experiments.

One instrument per job:

* :class:`TimeWeighted` — tracks a piecewise-constant value over time and
  reports its time-weighted mean.  This is how CPU utilisation is computed
  ("TCP/IP burns ~200% CPU" means the time-weighted busy-core count is ~2);
  :class:`repro.hardware.service.ServicePool`, behind the CPU, the NIC
  engine and every bandwidth pipe, moves one on each busy/idle edge.
* :class:`StreamingSeries` — the sample collector behind every latency
  distribution and registry histogram: exact count/sum/min/max plus a
  fixed-size uniform reservoir (Vitter's Algorithm R) for percentiles, so
  millions of samples stay O(1) memory.  ``reservoir=math.inf`` is the
  degenerate exact mode: every sample is kept and percentiles are exact.
* :class:`ThroughputTimeline` — delivered bytes per time bucket.

All are deliberately dependency-free (no numpy) so the core library stays
pure; benchmarks may post-process with numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Optional

from .rand import RandomStream

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Environment

__all__ = [
    "TimeWeighted",
    "StreamingSeries",
    "ThroughputTimeline",
]


class TimeWeighted:
    """Time-weighted statistics for a piecewise-constant signal.

    Call :meth:`record` whenever the signal changes value.  The mean over
    ``[start, now]`` weights each value by how long it was held.
    """

    def __init__(self, env: "Environment", initial: float = 0.0) -> None:
        self.env = env
        self._start = self._last_time = env.now
        self._value = float(initial)
        self._area = 0.0

    @property
    def value(self) -> float:
        """The current value of the signal."""
        return self._value

    def record(self, value: float) -> None:
        """Register a change of the signal to ``value`` at the current time."""
        now = self.env.now
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the signal by ``delta`` (convenience for counters)."""
        self.record(self._value + delta)

    def mean(self, until: Optional[float] = None) -> float:
        """Time-weighted mean from creation until ``until`` (default now)."""
        end = self.env.now if until is None else until
        span = end - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (end - self._last_time)
        return area / span

    def reset(self) -> None:
        """Restart the measurement window at the current time."""
        self._start = self.env.now
        self._last_time = self.env.now
        self._area = 0.0


class StreamingSeries:
    """Sample stream: exact moments, reservoir-sampled percentiles.

    Count, sum, min and max are exact for the whole stream (the sum is
    accumulated left to right, in arrival order); percentiles are
    computed over a uniform random sample of at most ``reservoir``
    samples maintained with Vitter's Algorithm R, so memory stays
    O(``reservoir``) no matter how many samples arrive.  The replacement
    RNG is seeded per instance, so two identical runs sample identically
    (simulation determinism).

    ``reservoir=math.inf`` never overflows: every sample is kept in
    arrival order and percentiles are exact.  Callers that need the
    whole distribution (ping-pong rounds, request latencies, training
    steps) use that mode.

    ``len()`` reports the *total* stream count, and ``append`` aliases
    ``add`` for callers that treat the collector as a list.
    """

    __slots__ = (
        "_count", "_total", "_min", "_max",
        "_capacity", "_reservoir", "_seed", "_rng", "_sorted",
    )

    #: Default reservoir size: percentile error ~1/sqrt(1024) ≈ 3%.
    DEFAULT_RESERVOIR = 1024

    def __init__(self, reservoir: float = DEFAULT_RESERVOIR, seed: int = 0x5EED) -> None:
        if reservoir <= 0:
            raise ValueError(f"reservoir size must be positive, got {reservoir}")
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._capacity = reservoir
        self._reservoir: list[float] = []
        # Replacement draws come from a seeded repro.sim.rand stream
        # (SIM001): identical runs keep identical reservoirs.  The stream
        # is built on the first overflow: most series never fill, and its
        # first draw is the same whenever it is built.
        self._seed = seed
        self._rng: Optional[RandomStream] = None
        self._sorted: Optional[list[float]] = None

    def __len__(self) -> int:
        """Total samples seen (not the reservoir size)."""
        return self._count

    @property
    def count(self) -> int:
        return self._count

    def add(self, sample: float) -> None:
        sample = float(sample)
        self._count += 1
        self._total += sample
        if sample < self._min:
            self._min = sample
        if sample > self._max:
            self._max = sample
        reservoir = self._reservoir
        if len(reservoir) < self._capacity:
            reservoir.append(sample)
        else:
            # Algorithm R: keep each of the n samples with equal
            # probability k/n by replacing a random slot.
            rng = self._rng
            if rng is None:
                rng = self._rng = RandomStream(self._seed, "reservoir")
            j = rng.randrange(self._count)
            if j < self._capacity:
                reservoir[j] = sample
            else:
                return  # reservoir unchanged; keep the sorted cache
        self._sorted = None

    #: List-style alias so ``stats.latencies.append(x)`` keeps working.
    append = add

    def extend(self, samples: Iterable[float]) -> None:
        for sample in samples:
            self.add(sample)

    @property
    def samples(self) -> list[float]:
        """The current reservoir contents: a uniform sample, in arrival
        order until the first overflow (all samples when unbounded)."""
        return list(self._reservoir)

    def mean(self) -> float:
        if not self._count:
            raise ValueError("no samples recorded")
        return self._total / self._count

    def total(self) -> float:
        return self._total

    def minimum(self) -> float:
        if not self._count:
            raise ValueError("no samples recorded")
        return self._min

    def maximum(self) -> float:
        if not self._count:
            raise ValueError("no samples recorded")
        return self._max

    def percentile(self, p: float) -> float:
        """Estimated percentile from the reservoir (exact at 0/100)."""
        if not self._count:
            raise ValueError("no samples recorded")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if p == 0:
            return self._min
        if p == 100:
            return self._max
        if self._sorted is None:
            self._sorted = sorted(self._reservoir)
        data = self._sorted
        if len(data) == 1:
            return data[0]
        rank = (p / 100) * (len(data) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return data[low]
        frac = rank - low
        # The a + t*(b-a) form is exact when a == b, unlike the convex
        # combination, which can round a hair outside [a, b].
        return data[low] + frac * (data[high] - data[low])

    def median(self) -> float:
        return self.percentile(50)

    def summary(self) -> dict[str, float]:
        """A dict of the headline statistics (handy for bench output);
        just ``{"count": 0.0}`` before the first sample."""
        if not self._count:
            return {"count": 0.0}
        return {
            "count": float(self._count),
            "mean": self.mean(),
            "min": self._min,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self._max,
        }


class ThroughputTimeline:
    """Time-bucketed byte counter: throughput as a function of time.

    Call :meth:`add` whenever bytes are delivered; :meth:`series` returns
    ``[(bucket_start_s, bytes_per_second), ...]`` — the instrument behind
    throughput-over-time plots such as the migration-dip figure (E23).
    """

    def __init__(self, env: "Environment", bucket_s: float = 1e-3) -> None:
        if bucket_s <= 0:
            raise ValueError("bucket size must be positive")
        self.env = env
        self.bucket_s = bucket_s
        self._start = env.now
        self._buckets: dict[int, float] = {}

    def add(self, nbytes: float) -> None:
        index = int((self.env.now - self._start) / self.bucket_s)
        # One entry per elapsed bucket of a finite measurement window —
        # bounded by the measurement's duration, not by traffic volume.
        # simlint: disable=SIM009
        self._buckets[index] = self._buckets.get(index, 0.0) + nbytes

    def series(self) -> list[tuple[float, float]]:
        """Dense series from t=0 to the last non-empty bucket."""
        if not self._buckets:
            return []
        last = max(self._buckets)
        return [
            (self._start + index * self.bucket_s,
             self._buckets.get(index, 0.0) / self.bucket_s)
            for index in range(last + 1)
        ]

    def minimum_rate(self, after_s: float = 0.0) -> float:
        """Lowest bucket rate at/after ``after_s`` (absolute sim time)."""
        series = self.series()
        rates = [rate for start, rate in series if start >= after_s]
        if not rates:
            raise ValueError("no buckets in the requested window")
        return min(rates)
