"""Shared-bandwidth pipes: the common mechanism behind buses, links, NICs.

A :class:`BandwidthPipe` serialises data at a fixed byte rate.  Transfers
are split into chunks and the pipe is acquired per chunk, so concurrent
flows interleave and converge to a fair share while the aggregate stays at
the pipe's capacity — which is how multi-pair experiments saturate the
memory bus (shm) or the NIC link (RDMA) without any closed-form math.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.monitor import TimeWeighted
from ..sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = ["BandwidthPipe"]


class BandwidthPipe:
    """Serialises bytes at ``rate_bytes`` per second, time-shared by chunk.

    Parameters
    ----------
    rate_bytes:
        Capacity in bytes/second.
    chunk_bytes:
        Granularity of time-sharing.  Smaller chunks are fairer but cost
        more simulation events.
    lanes:
        Number of transfers served simultaneously (each at ``rate/lanes``
        while more than one is active is *not* modelled; lanes > 1 simply
        allows that many chunk holders at full rate — use 1 for strict
        serialisation, which is the right model for a bus or a link).
    """

    def __init__(
        self,
        env: "Environment",
        rate_bytes: float,
        chunk_bytes: int = 64 * 1024,
        lanes: int = 1,
        name: str = "pipe",
    ) -> None:
        if rate_bytes <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes}")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.env = env
        self.name = name
        self.rate_bytes = float(rate_bytes)
        self.chunk_bytes = int(chunk_bytes)
        self._slots = Resource(env, capacity=lanes)
        self._busy = TimeWeighted(env)
        self._bytes_moved = 0.0

    @property
    def bytes_moved(self) -> float:
        """Total bytes ever pushed through the pipe."""
        return self._bytes_moved

    def seconds_for(self, nbytes: float) -> float:
        """Uncontended serialisation time for ``nbytes``."""
        return nbytes / self.rate_bytes

    def transfer(self, nbytes: float, priority: int = 0):
        """Move ``nbytes`` through the pipe (generator; yield from it).

        Returns (via StopIteration) the time the transfer took, useful to
        callers that overlap pipe time with CPU time.
        """
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        start = self.env.now
        remaining = float(nbytes)
        while remaining > 0:
            chunk = min(remaining, self.chunk_bytes)
            with self._slots.request(priority=priority) as slot:
                yield slot
                self._busy.add(1)
                try:
                    yield self.env.timeout(chunk / self.rate_bytes)
                finally:
                    self._busy.add(-1)
            remaining -= chunk
            self._bytes_moved += chunk
        return self.env.now - start

    def utilisation(self) -> float:
        """Time-weighted mean occupancy in [0, lanes]."""
        return self._busy.mean()

    def reset_accounting(self) -> None:
        self._busy.reset()
        self._bytes_moved = 0.0
