"""Virtual machines: deployment cases (c) and (d) of the paper's Fig. 2.

Containers may run inside VMs on a cloud.  The VM model keeps a single
unified CPU/memory substrate (the physical host's), adding the
virtualisation taxes where they belong:

* vCPU work executes on the host's cores (no separate scheduler model —
  the paper's cases pin VMs to dedicated cores anyway);
* network traffic leaving a VM through the paravirtual path pays the
  virtio/vswitch per-byte and per-segment surcharge;
* with SR-IOV, RDMA and DPDK bypass that tax (which is what makes
  FreeFlow's kernel-bypass plan viable inside clouds).

The fabric controller (:mod:`repro.cluster.fabric`) is the authority on
which physical machine a VM occupies — FreeFlow's orchestrator queries it,
exactly as §4 prescribes ("if containers are running on top of VMs, the
network orchestrator also needs to know which physical machine each VM is
located (from fabric controllers)").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .host import Host
from .specs import VmSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = ["VirtualMachine"]


class VirtualMachine:
    """A VM instance placed on a physical host."""

    def __init__(
        self,
        host: Host,
        name: str,
        spec: Optional[VmSpec] = None,
    ) -> None:
        self.env = host.env
        self.host = host
        self.name = name
        self.spec = spec or VmSpec()
        host.vms.append(self)

    @property
    def sriov(self) -> bool:
        """True when the VM has SR-IOV passthrough to the physical NIC."""
        return self.spec.sriov and self.host.nic.rdma_capable

    def same_vm(self, other: Optional["VirtualMachine"]) -> bool:
        return other is self

    def same_machine(self, other: "VirtualMachine") -> bool:
        """True when both VMs share a physical host."""
        return other.host is self.host

    # -- virtualisation taxes ------------------------------------------------

    def virtio_cost_cycles(self, payload: int, segments: int) -> float:
        """CPU cycles of the paravirtual network path for one message."""
        return (
            payload * self.spec.virtio_cycles_per_byte
            + segments * self.spec.virtio_per_segment_cycles
        )

    def virtio_tax(self, payload: int, segments: int):
        """Pay the virtio path for one message (generator).

        Skipped entirely for SR-IOV traffic — callers check :attr:`sriov`.
        """
        yield from self.host.cpu.execute(
            self.virtio_cost_cycles(payload, segments)
        )
        yield self.env.timeout(self.spec.virtio_latency_s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VirtualMachine {self.name} on {self.host.name}>"
