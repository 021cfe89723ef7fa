"""RDMA data path: kernel-bypass messaging between (or within) hosts.

The host CPU only *posts* work requests; the NIC engine does the rest —
DMA the payload out of host memory, serialise it onto the wire, and on
the far side DMA it into the destination buffer.  That is why the RDMA
columns of the paper's motivation figures show 40 Gb/s (link-bound) at
near-zero CPU.

Loopback is modelled faithfully to the paper's observation that
*intra-host* RDMA still tops out at 40 Gb/s: the payload hairpins through
the NIC (engine + wire-rate internal path), so RDMA is **not** the right
intra-host mechanism — shared memory is.  This asymmetry is the heart of
FreeFlow's policy.

Ordering: one lane models one reliable connection; the NIC services its
send queue in order, and per-message DMA/wire phases are overlapped
(cut-through) by taking ``max(dma, wire)`` as the occupancy of the
pipeline head.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..errors import TransportUnavailable
from ..sim.stage import Stage
from .base import DuplexChannel, Mechanism, WindowedLane

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host
    from .packet import Message

__all__ = ["RdmaLane", "RdmaChannel"]


class RdmaLane(WindowedLane):
    """One direction of a reliable RDMA connection (one queue pair)."""

    __slots__ = ("src_host", "dst_host", "_sq", "_rx")

    def __init__(
        self,
        src_host: "Host",
        dst_host: "Host",
        window_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        super().__init__(src_host.env, Mechanism.RDMA, window_bytes)
        if not src_host.nic.rdma_capable:
            raise TransportUnavailable(f"{src_host.name} has no RDMA NIC")
        if not dst_host.nic.rdma_capable:
            raise TransportUnavailable(f"{dst_host.name} has no RDMA NIC")
        self.src_host = src_host
        self.dst_host = dst_host
        #: The NIC's tx and rx stages, built on their first message.
        self._sq: Optional[Stage] = None
        self._rx: Optional[Stage] = None

    @property
    def loopback(self) -> bool:
        return self.src_host is self.dst_host

    # -- host-side API ------------------------------------------------------------

    def send(self, nbytes: int, payload: Any = None):
        """Post one message; returns once it sits in the send queue."""
        if self.closed:
            raise TransportUnavailable("RDMA connection closed")
        message = self.make_message(nbytes, payload)
        trace = self._trace_of(message)
        mark = self.env.now
        yield from self.src_host.cpu.execute(self.src_host.nic.spec.rdma_post_cycles)
        if trace is not None:
            trace.add("post", mark, self.env.now)
            mark = self.env.now
        yield self.window.put(max(1, nbytes))
        if trace is not None:
            trace.add("queue", mark, self.env.now)
        if self._sq is None:
            self._sq = Stage(self.env)
        self._sq.put(message, self._nic_tx_worker)
        return message

    def recv(self):
        """Blocking receive; frees the flow-control window."""
        message = yield self.inbox.get()
        trace = self._trace_of(message)
        mark = self.env.now
        yield from self.dst_host.cpu.execute(
            self.dst_host.nic.spec.rdma_poll_cycles
        )
        yield self.window.get(max(1, message.size_bytes))
        if trace is not None:
            trace.add("consume", mark, self.env.now)
        self._finish_trace(message)
        return message

    # -- NIC pipeline -----------------------------------------------------------------

    def _nic_tx_worker(self, message: "Message"):
        """The source NIC servicing this queue pair, in order."""
        nic = self.src_host.nic
        while message is not None:
            trace = self._trace_of(message)
            mark = self.env.now
            yield from nic.engine_service()
            yield self.env.timeout(nic.spec.dma_latency_s)
            if trace is not None:
                trace.add("nic", mark, self.env.now)
            yield from self._dma_and_wire(message)
            message = yield from self._sq.next()

    def _dma_and_wire(self, message: "Message"):
        """Overlap host-memory DMA with wire serialisation (cut-through)."""
        dma_done = self.env.process(self._dma(self.src_host, message.size_bytes))
        wire = self.src_host.nic.spec.rdma_wire_bytes(message.size_bytes)
        if self.loopback:
            wire_done = self.env.process(self._loopback_wire(wire, message))
        else:
            fabric = self.src_host.fabric
            if fabric is None:
                raise TransportUnavailable(
                    f"{self.src_host.name} is not attached to a fabric"
                )
            wire_done = self.env.process(
                self._fabric_wire(fabric, wire, message)
            )
        yield self.env.all_of([dma_done, wire_done])

    def _dma(self, host: "Host", nbytes: int):
        yield from host.dma(nbytes)

    def _loopback_wire(self, wire_bytes: int, message: "Message"):
        """Hairpin through the NIC's internal path at wire rate.  No
        fabric is crossed, so the lane records the ``wire`` span."""
        start = self.env.now
        yield from self.src_host.nic.egress.transfer(wire_bytes)
        trace = self._trace_of(message)
        if trace is not None:
            trace.add("wire", start, self.env.now)
        self._remote_rx(message)

    def _fabric_wire(self, fabric, wire_bytes: int, message: "Message"):
        # The fabric closes ``wire`` when the payload lands on the far
        # NIC, not when the overlapped DMA/wire barrier resolves.
        yield from fabric.send(
            self.src_host.nic, self.dst_host.nic, wire_bytes,
            deliver=lambda: self._remote_rx(message),
            trace=self._trace_of(message),
        )

    def _remote_rx(self, message: "Message") -> None:
        if self._rx is None:
            self._rx = Stage(self.env)
        self._rx.put(message, self._nic_rx_worker)

    def _nic_rx_worker(self, message: "Message"):
        """The destination NIC landing inbound messages into memory."""
        nic = self.dst_host.nic
        while message is not None:
            trace = self._trace_of(message)
            mark = self.env.now
            yield from nic.engine_service()
            yield self.env.timeout(nic.spec.dma_latency_s)
            yield from self.dst_host.dma(message.size_bytes)
            if trace is not None:
                trace.add("nic", mark, self.env.now)
            self.deliver(message)
            message = yield from self._rx.next()


class RdmaChannel(DuplexChannel):
    """Bidirectional RDMA connection between two hosts (or loopback)."""

    def __init__(
        self,
        a_host: "Host",
        b_host: "Host",
        window_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        super().__init__(
            RdmaLane(a_host, b_host, window_bytes),
            RdmaLane(b_host, a_host, window_bytes),
        )
        self.a_host = a_host
        self.b_host = b_host
