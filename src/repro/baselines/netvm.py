"""A NetVM-style inter-VM shared-memory path (related work, paper §6-7).

NetVM "provides a shared-memory framework that exploits the DPDK library
to provide zero-copy delivery between VMs" — applicable only when the
VMs share a physical machine, which is exactly why it cannot replace
FreeFlow ("the NetVM work is applicable only to intra-host setting").
We model it as a shared-memory lane between two VMs on one host with a
vhost-doorbell surcharge per message; the discussion-section experiment
(deployment case (c) with ``shm_across_vms``) uses it as the inter-VM
fast path.
"""

from __future__ import annotations

from typing import Any

from ..cluster.container import Container
from ..errors import TransportUnavailable
from ..transports.base import DuplexChannel, Mechanism
from ..transports.shmem import ShmLane

__all__ = ["NetVmLane", "NetVmChannel", "NetVmNetwork", "VHOST_DOORBELL_CYCLES"]

#: Extra per-message cost of the vhost doorbell + descriptor handling.
VHOST_DOORBELL_CYCLES = 900.0

#: Extra wakeup latency across the VM boundary.
VHOST_LATENCY_S = 2.0e-6


class NetVmLane(ShmLane):
    """A shared-memory lane that crosses a VM boundary (NetVM-style)."""

    def send(self, nbytes: int, payload: Any = None):
        yield from self.host.cpu.execute(VHOST_DOORBELL_CYCLES)
        yield self.env.timeout(VHOST_LATENCY_S)
        message = yield from super().send(nbytes, payload)
        return message


class NetVmChannel(DuplexChannel):
    """Bidirectional NetVM channel between two VMs on one host."""

    def __init__(self, host) -> None:
        super().__init__(NetVmLane(host), NetVmLane(host))
        self.host = host


class NetVmNetwork:
    """Builds NetVM channels between containers in co-located VMs."""

    def connect(self, a: Container, b: Container) -> NetVmChannel:
        if a.vm is None or b.vm is None:
            raise TransportUnavailable("NetVM connects VMs, not bare metal")
        if not a.colocated(b):
            raise TransportUnavailable(
                "NetVM only works between VMs on one physical machine"
            )
        if a.same_vm(b):
            raise TransportUnavailable(
                "same-VM containers should use plain shared memory"
            )
        return NetVmChannel(a.host)
