"""Data-plane mechanisms (substrate S5): what FreeFlow integrates.

Shared memory for co-located containers, RDMA and DPDK for kernel-bypass
across hosts, and kernel TCP as the universal fallback — all behind one
lane/channel interface the agents and the policy engine program against.
The kernel TCP lanes live with the rest of the kernel model, in
:mod:`repro.netstack.tcp`; this package imports nothing from
:mod:`repro.netstack`.
"""

from .base import (
    ChannelEnd,
    DuplexChannel,
    ForwardingLane,
    Lane,
    LaneStats,
    Mechanism,
)
from .dpdk import DpdkChannel, DpdkEngine, DpdkLane
from .rdma import RdmaChannel, RdmaLane
from .shmem import ShmChannel, ShmLane

__all__ = [
    "ChannelEnd",
    "DpdkChannel",
    "DpdkEngine",
    "DpdkLane",
    "DuplexChannel",
    "ForwardingLane",
    "Lane",
    "LaneStats",
    "Mechanism",
    "RdmaChannel",
    "RdmaLane",
    "ShmChannel",
    "ShmLane",
]
