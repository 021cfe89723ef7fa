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

from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import TransportUnavailable
from ..sim.resources import Store, Tank
from .base import DuplexChannel, Lane, Mechanism

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host
    from .packet import Message

__all__ = ["RdmaLane", "RdmaChannel"]


class RdmaLane(Lane):
    """One direction of a reliable RDMA connection (one queue pair)."""

    __slots__ = ("src_host", "dst_host", "window", "_sq", "_rx")

    def __init__(
        self,
        src_host: "Host",
        dst_host: "Host",
        window_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        super().__init__(src_host.env, Mechanism.RDMA)
        if not src_host.nic.rdma_capable:
            raise TransportUnavailable(f"{src_host.name} has no RDMA NIC")
        if not dst_host.nic.rdma_capable:
            raise TransportUnavailable(f"{dst_host.name} has no RDMA NIC")
        self.src_host = src_host
        self.dst_host = dst_host
        self.window = Tank(src_host.env, capacity=window_bytes)
        #: The NIC workers' queues, created with their workers by the
        #: first message (see :meth:`Lane._hand_off`).
        self._sq: Optional[Store] = None
        self._rx: Optional[Store] = None

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
        self._sq = self._hand_off(self._sq, self._nic_tx_worker, message)
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
        while True:
            trace = self._trace_of(message)
            mark = self.env.now
            yield from nic.engine_service(message.size_bytes)
            yield self.env.timeout(nic.spec.dma_latency_s)
            if trace is not None:
                trace.add("nic", mark, self.env.now)
                # Close the wire span when the payload actually lands on
                # the far NIC (the deliver callback), not when the
                # overlapped DMA/wire barrier below resolves.
                message.meta["wire_start"] = self.env.now
            yield from self._dma_and_wire(message)
            message = yield self._sq.get()

    def _dma_and_wire(self, message: "Message"):
        """Overlap host-memory DMA with wire serialisation (cut-through)."""
        dma_done = self.env.process(self._dma(self.src_host, message.size_bytes))
        wire = self.src_host.nic.spec.rdma_wire_bytes(message.size_bytes)
        if self.loopback:
            # Hairpin through the NIC's internal path at wire rate.
            wire_done = self.env.process(
                self._loopback_wire(wire, lambda: self._remote_rx(message))
            )
        else:
            fabric = self.src_host.fabric
            if fabric is None:
                raise TransportUnavailable(
                    f"{self.src_host.name} is not attached to a fabric"
                )
            wire_done = self.env.process(
                self._fabric_wire(fabric, wire, lambda: self._remote_rx(message))
            )
        yield self.env.all_of([dma_done, wire_done])

    def _dma(self, host: "Host", nbytes: int):
        yield from host.dma(nbytes)

    def _loopback_wire(self, wire_bytes: int, deliver: Callable[[], None]):
        yield from self.src_host.nic.egress.transfer(wire_bytes)
        deliver()

    def _fabric_wire(self, fabric, wire_bytes: int, deliver: Callable[[], None]):
        yield from fabric.send(
            self.src_host.nic, self.dst_host.nic, wire_bytes, deliver=deliver
        )

    def _remote_rx(self, message: "Message") -> None:
        trace = self._trace_of(message)
        if trace is not None:
            start = message.meta.pop("wire_start", None)
            if start is not None:
                trace.add("wire", start, self.env.now)
        self._rx = self._hand_off(self._rx, self._nic_rx_worker, message)

    def _nic_rx_worker(self, message: "Message"):
        """The destination NIC landing inbound messages into memory."""
        nic = self.dst_host.nic
        while True:
            trace = self._trace_of(message)
            mark = self.env.now
            yield from nic.engine_service(message.size_bytes)
            yield self.env.timeout(nic.spec.dma_latency_s)
            yield from self.dst_host.dma(message.size_bytes)
            if trace is not None:
                trace.add("nic", mark, self.env.now)
            self.deliver(message)
            message = yield self._rx.get()


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
