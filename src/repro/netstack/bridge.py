"""The veth + Linux-bridge hop (docker0-style).

In bridge mode every packet crosses the container's veth pair and the
host bridge before it reaches the host stack proper.  That work happens
inline in the kernel's softirq context on the sending core, so we charge
it inline on the sender path — which is exactly why bridge mode tops out
below host mode (≈27 vs ≈38 Gb/s on the paper's testbed).

The class itself is small: it owns the cost arithmetic and counters so
experiments can report forwarding load per bridge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hardware.specs import KernelStackSpec
from ..transports.packet import segment_count

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host

__all__ = ["SoftwareBridge"]


class SoftwareBridge:
    """A Linux bridge instance on one host (e.g. ``docker0``)."""

    def __init__(self, host: "Host", name: str = "docker0") -> None:
        self.host = host
        self.name = name
        self.spec: KernelStackSpec = host.spec.kernel
        self.messages_forwarded = 0
        self.bytes_forwarded = 0

    def forwarding_cycles(self, payload: int) -> float:
        """CPU cycles to shuttle one message across veth + bridge."""
        segments = segment_count(payload, self.spec.segment_bytes)
        return (
            payload * self.spec.bridge_cycles_per_byte
            + segments * self.spec.bridge_per_segment_cycles
        )

    @property
    def latency_s(self) -> float:
        """Non-CPU latency of the hop (queueing into the bridge)."""
        return self.spec.bridge_latency_s

    def account(self, payload: int) -> None:
        """Record one forwarded message (callers charge the CPU cost)."""
        self.messages_forwarded += 1
        self.bytes_forwarded += payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SoftwareBridge {self.name} on {self.host.name}>"
