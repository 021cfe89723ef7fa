"""A physical host: CPU + memory bus + NIC, assembled from a HostSpec.

Hosts are where containers land and where FreeFlow's network agents run.
Everything a transport needs — cores to burn, a bus to copy through, a
NIC to reach the fabric — hangs off this object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .cpu import CpuSet
from .link import Fabric
from .memory import MemoryBus
from .nic import PhysicalNic
from .specs import PAPER_TESTBED, HostSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment
    from .vm import VirtualMachine

__all__ = ["Host"]


class Host:
    """One bare-metal server in the cluster."""

    def __init__(
        self,
        env: "Environment",
        name: str,
        spec: Optional[HostSpec] = None,
        fabric: Optional[Fabric] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.spec = spec or PAPER_TESTBED
        self.cpu = CpuSet(env, self.spec.cpu)
        self.memory = MemoryBus(env, self.spec.memory)
        self.nic = PhysicalNic(env, self.spec.nic, name=f"{name}.eth0")
        self.nic.host = self
        self.vms: list["VirtualMachine"] = []
        if fabric is not None:
            fabric.attach(self.nic)

    @property
    def fabric(self) -> Optional[Fabric]:
        return self.nic.fabric

    @property
    def rdma_capable(self) -> bool:
        return self.nic.rdma_capable

    @property
    def dpdk_capable(self) -> bool:
        return self.nic.dpdk_capable

    def same_machine(self, other: "Host") -> bool:
        """True when both names refer to this physical machine."""
        return other is self

    # -- convenience wrappers used throughout the transports ---------------

    def memcpy(self, nbytes: float):
        """One-core memcpy through this host's memory bus (generator)."""
        yield from self.memory.copy(self.cpu, nbytes)

    def dma(self, nbytes: float):
        """Device DMA through the memory bus, no CPU (generator)."""
        yield from self.memory.dma(nbytes)

    def reset_accounting(self) -> None:
        """Restart utilisation windows (called at measurement start)."""
        self.cpu.reset_accounting()
        self.nic.reset_accounting()
        self.memory.pipe.reset_accounting()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Host {self.name} spec={self.spec.name}>"
