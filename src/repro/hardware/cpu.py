"""CPU model: a set of cores as FIFO servers with a busy count.

All software costs in the simulation — kernel stack traversal, memcpy,
verbs posting, overlay routing — are expressed in *cycles* and executed
here, so CPU utilisation (the paper's third metric) falls out of the same
mechanism that limits throughput: ``spec.cores`` FIFO servers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .service import CoreClaim, ServicePool
from .specs import CpuSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = ["CpuSet"]


class CpuSet(ServicePool):
    """``spec.cores`` identical cores at ``spec.frequency_hz``.

    The main entry point is :meth:`execute`, a generator that occupies one
    core for the wall time of ``cycles`` of work::

        yield from cpu.execute(spec.kernel.syscall_cycles)
    """

    def __init__(self, env: "Environment", spec: Optional[CpuSpec] = None) -> None:
        self.spec = spec or CpuSpec()
        super().__init__(env, capacity=self.spec.cores)

    @property
    def cores(self) -> int:
        return self.spec.cores

    @property
    def busy_cores(self) -> float:
        """How many cores are busy right now."""
        return self.busy.value

    def seconds_for(self, cycles: float) -> float:
        """Wall time for ``cycles`` on one core (no queueing)."""
        return self.spec.seconds_for(cycles)

    def execute(self, cycles: float):
        """Run ``cycles`` of work on one core (generator; yield from it).

        Queues if all cores are busy; the wait time is how CPU saturation
        turns into throughput loss in the experiments.
        """
        if cycles < 0:
            raise ValueError(f"negative cycles {cycles}")
        if cycles == 0:
            return
        yield from self.serve(cycles)

    def dedicate(self) -> CoreClaim:
        """Permanently claim a core (DPDK PMD thread).

        The claim is granted immediately if a core is free; otherwise this
        raises, because a real PMD pin would simply starve — surfacing the
        misconfiguration is more useful in experiments.
        """
        claim = self.claim()
        if claim is None:
            raise RuntimeError(
                f"no free core to dedicate (all {self.cores} busy)"
            )
        return claim

    def utilisation_percent(self) -> float:
        """Paper-style CPU usage: 200.0 means two cores' worth."""
        return 100.0 * self.utilisation()
