"""Middlebox support under FreeFlow (paper §7, "Security and middle-box").

"One valid concern for FreeFlow is how legacy middle-boxes will work for
communication via shared-memory or RDMA ... We are investigating how
best to support existing middle-boxes (e.g. IDS/IPS) under FreeFlow."

This module is that investigation, made concrete: an inline inspection
point that can be attached to *any* FreeFlow channel, regardless of the
underlying mechanism.  Because kernel-bypass traffic never crosses the
kernel's netfilter hooks, inspection must happen in the library/agent
layer — which is exactly where :class:`InspectedLane` sits.  The cost is
honest: DPI burns host CPU per byte and adds latency, so bench E19 can
quantify what mandatory inspection costs each mechanism.

Filtering verdicts are supported (an IPS, not just an IDS): messages the
middlebox rejects are counted and silently dropped, like a firewall DROP
target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..transports.base import DuplexChannel, ForwardingLane, Lane

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host

__all__ = ["Middlebox", "InspectedLane", "wrap_channel"]


@dataclass
class Middlebox:
    """An inline IDS/IPS function applied to FreeFlow traffic.

    ``verdict(nbytes, payload)`` returns True to allow the message; the
    default allows everything (pure IDS).  Costs are calibrated to a
    software DPI engine (~1 cycle/byte for signature matching).
    """

    name: str = "ids"
    cycles_per_byte: float = 1.0
    per_message_cycles: float = 2000.0
    added_latency_s: float = 2.0e-6
    verdict: Callable[[int, Any], bool] = field(
        default=lambda nbytes, payload: True
    )
    inspected_messages: int = 0
    inspected_bytes: int = 0
    dropped_messages: int = 0

    def inspection_cycles(self, nbytes: int) -> float:
        return self.per_message_cycles + nbytes * self.cycles_per_byte


class InspectedLane(ForwardingLane):
    """A lane wrapper that funnels every send through a middlebox.

    Everything but the inspection is the wrapped lane's (see
    :class:`~repro.transports.base.ForwardingLane`), so it composes with
    shm, RDMA, DPDK and TCP alike.
    """

    def __init__(self, inner: Lane, middlebox: Middlebox,
                 host: "Host") -> None:
        super().__init__(inner)
        self.middlebox = middlebox
        self.host = host

    def send(self, nbytes: int, payload: Any = None):
        """Inspect, then forward (generator).  Returns None on a drop."""
        box = self.middlebox
        yield from self.host.cpu.execute(box.inspection_cycles(nbytes))
        yield self.env.timeout(box.added_latency_s)
        if not box.verdict(nbytes, payload):
            box.dropped_messages += 1
            return None
        box.inspected_messages += 1
        box.inspected_bytes += nbytes
        message = yield from self.inner.send(nbytes, payload)
        return message


def wrap_channel(channel: DuplexChannel, middlebox: Middlebox,
                 src_host: "Host", dst_host: "Host") -> DuplexChannel:
    """Put ``middlebox`` inline on both directions of a channel.

    Each direction is inspected on its *sending* host, where the library
    intercepts the call — the only place that sees kernel-bypass bytes.
    """
    channel.set_lanes(InspectedLane(channel.lane_ab, middlebox, src_host),
                      InspectedLane(channel.lane_ba, middlebox, dst_host))
    return channel
