"""Hardware models (substrate S2): the simulated testbed.

CPU cores, the memory bus, NICs with RDMA engines, the switched fabric,
hosts and VMs — calibrated in :mod:`repro.hardware.specs` against the
paper's Xeon + Mellanox CX3 testbed.  Every contended part (cores, the
NIC engine, each pipe) is a FIFO :class:`ServicePool`.
"""

from .bandwidth import BandwidthPipe
from .cpu import CpuSet
from .host import Host
from .link import Fabric
from .memory import MemoryBus
from .nic import PhysicalNic
from .service import CoreClaim, ServicePool
from .topology import FabricLink, FatTreeFabric, FatTreeTopology, SwitchNode
from .specs import (
    GBPS,
    NO_RDMA_TESTBED,
    PAPER_TESTBED,
    CpuSpec,
    DpdkSpec,
    HostSpec,
    KernelStackSpec,
    MemorySpec,
    NicSpec,
    OverlayRouterSpec,
    ShmSpec,
    VmSpec,
    gbps,
    to_gbps,
)
from .vm import VirtualMachine

__all__ = [
    "BandwidthPipe",
    "CoreClaim",
    "CpuSet",
    "CpuSpec",
    "DpdkSpec",
    "Fabric",
    "FabricLink",
    "FatTreeFabric",
    "FatTreeTopology",
    "GBPS",
    "Host",
    "HostSpec",
    "KernelStackSpec",
    "MemoryBus",
    "MemorySpec",
    "NO_RDMA_TESTBED",
    "NicSpec",
    "OverlayRouterSpec",
    "PAPER_TESTBED",
    "PhysicalNic",
    "ShmSpec",
    "ServicePool",
    "SwitchNode",
    "VirtualMachine",
    "VmSpec",
    "gbps",
    "to_gbps",
]
