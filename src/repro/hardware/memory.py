"""Memory subsystem: DRAM capacity plus the shared memory bus.

The memory bus is the resource that bounds shared-memory networking.
:meth:`MemoryBus.copy` models a memcpy: the copying core is held for the
whole operation (a stalled core is still a busy core, which is why the
paper notes shared memory "still burns some cpu"), while the bytes move
through the bus pipe, which is shared with every other flow on the host.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .bandwidth import BandwidthPipe
from .cpu import CpuSet
from .specs import MemorySpec

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = ["MemoryBus"]


class MemoryBus:
    """The host's DRAM bandwidth, shared by all cores, NIC DMA included."""

    def __init__(self, env: "Environment", spec: Optional[MemorySpec] = None) -> None:
        self.env = env
        self.spec = spec or MemorySpec()
        self.pipe = BandwidthPipe(
            env,
            rate_bytes=self.spec.bus_bandwidth_bytes,
            chunk_bytes=self.spec.chunk_bytes,
            name="membus",
        )
        self._allocated = 0.0

    # -- capacity accounting (coarse; prevents absurd configurations) -----

    @property
    def allocated_bytes(self) -> float:
        return self._allocated

    def allocate(self, nbytes: float) -> None:
        """Reserve DRAM capacity (buffers, rings)."""
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes}")
        if self._allocated + nbytes > self.spec.capacity_bytes:
            raise MemoryError(
                f"host DRAM exhausted: {self._allocated + nbytes:.0f} "
                f"> {self.spec.capacity_bytes:.0f} bytes"
            )
        self._allocated += nbytes

    def free(self, nbytes: float) -> None:
        self._allocated = max(0.0, self._allocated - nbytes)

    # -- bandwidth ----------------------------------------------------------

    def dma(self, nbytes: float, priority: int = 0):
        """Move bytes via device DMA: consumes bus bandwidth, no CPU."""
        yield from self.pipe.transfer(nbytes, priority=priority)

    def copy(self, cpu: CpuSet, nbytes: float, priority: int = 0):
        """A memcpy of ``nbytes`` performed by one core.

        The copy is bounded by whichever is slower: the core's copy rate
        (``copy_cycles_per_byte``) or the core's share of the bus.  The
        core is held for the full duration either way.
        """
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        if nbytes == 0:
            return
        cpu_seconds = cpu.seconds_for(nbytes * self.spec.copy_cycles_per_byte)

        def _copy_with_core():
            start = self.env.now
            bus_seconds = yield from self.pipe.transfer(nbytes, priority=priority)
            # If the core-side copy rate is the bottleneck, the remainder
            # of the copy time is spent executing (bus already released).
            extra = cpu_seconds - bus_seconds
            if extra > 0:
                yield self.env.timeout(extra)
            return self.env.now - start

        # Hold one core for the whole copy (stall time included).
        with cpu._cores.request(priority=priority) as claim:
            yield claim
            cpu.busy.add(1)
            try:
                yield from _copy_with_core()
            finally:
                cpu.busy.add(-1)
