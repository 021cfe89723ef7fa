"""The data-plane selection policy (paper §4.2, and the commented Table 1).

"Generally, one container should decide how to communicate with another
according to the latter's location, using the optimal transport for high
networking performance" (§3.1).  The decision inputs are exactly the
global state the network orchestrator maintains: container locations
(cluster orchestrator + fabric controller), NIC capabilities, and tenant
trust; the output is a :class:`~repro.transports.base.Mechanism`.

The paper's (commented-out) Table 1 gives the expected matrix, which the
deployment-cases bench (E11) regenerates:

    constraint      (a) same host   (b) two hosts   (c) same VM    (d) two VMs
    none            SharedMem       RDMA            SharedMem      RDMA
    w/o trust       TCP/IP          TCP/IP          TCP/IP         TCP/IP
    w/o RDMA NIC    SharedMem       TCP/IP          SharedMem      TCP/IP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster.container import Container
from ..transports.base import Mechanism

__all__ = ["PolicyConfig", "MechanismPolicy", "PolicyDecision"]


@dataclass(frozen=True)
class PolicyConfig:
    """Administrative constraints on mechanism selection."""

    allow_shm: bool = True
    allow_rdma: bool = True
    allow_dpdk: bool = True
    #: Relax isolation only between same-tenant containers (paper §7).
    require_trust: bool = True
    #: Prefer DPDK over kernel TCP when RDMA is absent but DPDK works.
    prefer_dpdk_fallback: bool = True
    #: Treat containers in *different* VMs on one host as co-located
    #: (requires a NetVM-style inter-VM shm path; default off, see §7).
    shm_across_vms: bool = False


@dataclass(frozen=True, slots=True)
class PolicyDecision:
    """The chosen mechanism plus the reasoning trail (for debuggability)."""

    mechanism: Mechanism
    reason: str
    colocated: bool
    trusted: bool


class MechanismPolicy:
    """Pure decision logic: no I/O, trivially testable."""

    def __init__(self, config: Optional[PolicyConfig] = None) -> None:
        self.config = config or PolicyConfig()

    def decide(
        self,
        src: Container,
        dst: Container,
        capabilities: Optional[dict] = None,
    ) -> PolicyDecision:
        """Pick the best mechanism for traffic ``src -> dst``.

        ``capabilities`` optionally overrides per-host NIC capability
        bits (``{host_name: {"rdma": bool, "dpdk": bool}}``) — the
        orchestrator's registry view, which may diverge from the
        hardware when an operator disables a feature at runtime.
        """
        trusted = src.trusts(dst)
        colocated = src.colocated(dst)
        caps = capabilities or {}

        if self.config.require_trust and not trusted:
            # No isolation compromise across tenants: the kernel path is
            # the only one that keeps full namespace/middlebox semantics.
            return PolicyDecision(
                Mechanism.TCP, "untrusted peers keep full isolation",
                colocated, trusted,
            )

        if self._degraded(src, caps) or self._degraded(dst, caps):
            # Graceful degradation: an operator (or the chaos harness)
            # marked a host's bypass plumbing unreliable, so every flow
            # touching it takes the always-works kernel path until the
            # flag clears — even the co-located shm case, since the
            # FreeFlow agent on that host is suspect as a whole.
            return PolicyDecision(
                Mechanism.TCP, "degraded host: kernel TCP until healthy",
                colocated, trusted,
            )

        if colocated and self._shm_usable(src, dst):
            return PolicyDecision(
                Mechanism.SHM, "co-located and trusted: shared memory",
                colocated, trusted,
            )

        if colocated:
            # Same machine but separated by a VM boundary we may not
            # pierce: fall through to the inter-host logic, which still
            # works (the NIC hairpins locally).
            pass

        if self.config.allow_rdma and self._both_rdma(src, dst, caps):
            return PolicyDecision(
                Mechanism.RDMA, "kernel bypass via RDMA NICs",
                colocated, trusted,
            )

        if (
            self.config.allow_dpdk
            and self.config.prefer_dpdk_fallback
            and self._both_dpdk(src, dst, caps)
        ):
            return PolicyDecision(
                Mechanism.DPDK, "no RDMA; DPDK poll-mode bypass",
                colocated, trusted,
            )

        return PolicyDecision(
            Mechanism.TCP, "no usable bypass mechanism; kernel TCP fallback",
            colocated, trusted,
        )

    # -- helpers --------------------------------------------------------------

    def _shm_usable(self, src: Container, dst: Container) -> bool:
        if not self.config.allow_shm:
            return False
        if src.vm is dst.vm:
            # Same VM (or both bare-metal): plain process shared memory.
            return True
        # Different VMs (or VM vs bare-metal) on one machine need an
        # inter-VM shared-memory device (NetVM-style, paper §7).
        return self.config.shm_across_vms

    @staticmethod
    def _vm_bypass_ok(container: Container) -> bool:
        """Kernel-bypass from inside a VM needs SR-IOV passthrough."""
        return container.vm is None or container.vm.sriov

    @staticmethod
    def _degraded(container: Container, capabilities: dict) -> bool:
        """Registry ``degraded`` bit for the container's host."""
        override = capabilities.get(container.host.name)
        return bool(override and override.get("degraded"))

    @staticmethod
    def _cap(container: Container, capabilities: dict, key: str,
             default: bool) -> bool:
        """Hardware capability, unless the registry overrides it."""
        override = capabilities.get(container.host.name)
        if override is not None and key in override:
            return bool(override[key])
        return default

    def _both_rdma(self, src: Container, dst: Container,
                   capabilities: dict) -> bool:
        return (
            self._cap(src, capabilities, "rdma", src.host.rdma_capable)
            and self._cap(dst, capabilities, "rdma", dst.host.rdma_capable)
            and self._vm_bypass_ok(src)
            and self._vm_bypass_ok(dst)
        )

    def _both_dpdk(self, src: Container, dst: Container,
                   capabilities: dict) -> bool:
        return (
            self._cap(src, capabilities, "dpdk", src.host.dpdk_capable)
            and self._cap(dst, capabilities, "dpdk", dst.host.dpdk_capable)
            and self._vm_bypass_ok(src)
            and self._vm_bypass_ok(dst)
        )
