"""Shared-bandwidth pipes: the common mechanism behind buses, links, NICs.

A :class:`BandwidthPipe` serialises data at a fixed byte rate.  Transfers
are split into chunks and its one FIFO server is taken per chunk, so
flows interleave and converge to a fair share while the aggregate stays at
the pipe's capacity — which is how multi-pair experiments saturate the
memory bus (shm) or the NIC link (RDMA) without any closed-form math.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .service import ServicePool

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = ["BandwidthPipe"]


class BandwidthPipe(ServicePool):
    """Serialises bytes at ``rate_bytes`` per second, time-shared by chunk.

    Parameters
    ----------
    rate_bytes:
        Capacity in bytes/second.
    chunk_bytes:
        Granularity of time-sharing.  Smaller chunks are fairer but cost
        more simulation events.

    One chunk is on the pipe at a time: strict serialisation, which is
    the right model for a bus or a link.
    """

    def __init__(
        self,
        env: "Environment",
        rate_bytes: float,
        chunk_bytes: int = 64 * 1024,
        name: str = "pipe",
    ) -> None:
        if rate_bytes <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes}")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        super().__init__(env)
        self.name = name
        self.rate_bytes = float(rate_bytes)
        self.chunk_bytes = int(chunk_bytes)
        self._bytes_moved = 0.0

    @property
    def bytes_moved(self) -> float:
        """Total bytes ever pushed through the pipe."""
        return self._bytes_moved

    def seconds_for(self, nbytes: float) -> float:
        """Uncontended serialisation time for ``nbytes``."""
        return nbytes / self.rate_bytes

    def transfer(self, nbytes: float):
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
            yield from self.serve(chunk)
            remaining -= chunk
            self._bytes_moved += chunk
        return self.env.now - start

    def reset_accounting(self) -> None:
        super().reset_accounting()
        self._bytes_moved = 0.0
