"""The kernel TCP/IP data path between two container endpoints.

This is the "deep software stack" of the paper's Fig. 3(a), built as a
pipeline of stages so that throughput limits *emerge* from CPU, wire and
router contention instead of being asserted:

    sender syscall+stack (CPU, inline)           <- send() blocks here
      └─ [bridge hop, inline, bridge mode]
    window (socket-buffer backpressure)
    tx stage: wire serialisation / overlay router
    rx stage: receiver softirq+copy (CPU, worker)
    inbox                                        <- recv() blocks here

Each direction is a transport :class:`~repro.transports.base.Lane`
(:class:`KernelLane`) and a :class:`TcpConnection` is a
:class:`~repro.transports.base.DuplexChannel`.  The baselines and
FreeFlow's fallback (paper §4.2: "it will fall back to the sub-optimal
mechanism (e.g., TCP/IP)"), a host-mode connection, therefore share one
model, traced and flight-recorded under the lane's flow label like every
other mechanism.

Three modes mirror the paper's taxonomy:

* ``HOST``    — container binds the host interface; pure stack hairpin.
* ``BRIDGE``  — docker0: veth+bridge surcharge inline on the sender path.
* ``OVERLAY`` — everything hairpins through the per-host user-space
  router (:class:`~repro.netstack.overlay.OverlayRouter`), twice for
  inter-host traffic.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Optional

from ..errors import TransportError
from ..sim.resources import Store, Tank
from ..transports.base import ChannelEnd, DuplexChannel, Lane, Mechanism
from ..transports.packet import EndpointAddr, Message, segment_count
from .bridge import SoftwareBridge
from .overlay import OverlayRouter

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host

__all__ = ["FAULTS", "TcpMode", "KernelLane", "TcpConnection", "TcpEnd"]

#: Process-wide fault-injection hook for the kernel receive path (the
#: chaos subsystem's seam, mirroring ``telemetry.tracer.ACTIVE``).  When
#: set to an object with ``rx_delay(lane, message) -> float``, every
#: message entering a connection's rx queue may be held for that many
#: seconds first.  A held message is delayed — never dropped — modelling
#: loss + retransmit on a reliable transport (byte conservation holds);
#: messages queued behind a held one overtake it, producing reordering.
FAULTS = None


class TcpMode(enum.Enum):
    """Which container-networking flavour carries the connection."""

    HOST = "host"
    BRIDGE = "bridge"
    OVERLAY = "overlay"


class KernelLane(Lane):
    """One direction of a kernel TCP connection: its own pipeline."""

    __slots__ = ("src_host", "dst_host", "src_addr", "dst_addr",
                 "src_router", "dst_router", "src_bridge", "dst_bridge",
                 "kernel", "window", "rx_queue", "tx_queue")

    def __init__(
        self,
        src_host: "Host",
        dst_host: "Host",
        src_addr: EndpointAddr,
        dst_addr: EndpointAddr,
        window_bytes: int,
        src_router: Optional[OverlayRouter],
        dst_router: Optional[OverlayRouter],
        src_bridge: Optional[SoftwareBridge],
        dst_bridge: Optional[SoftwareBridge],
    ) -> None:
        super().__init__(src_host.env, Mechanism.TCP)
        self.src_host = src_host
        self.dst_host = dst_host
        self.src_addr = src_addr
        self.dst_addr = dst_addr
        self.src_router = src_router
        self.dst_router = dst_router
        self.src_bridge = src_bridge
        self.dst_bridge = dst_bridge
        self.kernel = src_host.spec.kernel
        self.window = Tank(self.env, capacity=window_bytes)
        self.rx_queue: Store = Store(self.env)
        self.env.process(self._rx_worker())
        if self._needs_tx_worker():
            self.tx_queue: Optional[Store] = Store(self.env)
            self.env.process(self._tx_worker())
        else:
            self.tx_queue = None
        if self.dst_router is not None:
            self.dst_router.register(dst_addr, self._rx_enqueue)

    # -- send path ---------------------------------------------------------------

    def send(self, nbytes: int, payload: Any = None):
        """Sender-side path (generator): syscall, stack CPU, window."""
        if self.closed:
            raise TransportError("connection closed")
        message = self._open_message(nbytes, payload, self.src_addr,
                                     self.dst_addr)
        trace = self._trace_of(message)
        cycles = self._send_cycles(nbytes)
        mark = self.env.now
        yield from self.src_host.cpu.execute(cycles)
        if trace is not None:
            trace.add("kernel", mark, self.env.now)
            mark = self.env.now
        yield self.window.put(max(1, nbytes))
        if trace is not None:
            trace.add("queue", mark, self.env.now)
            mark = self.env.now
        # In-flight window bytes are repaid by the receive worker
        # (window.get in _rx_worker) when the segment lands; the
        # send-side stack latency between reservation and dispatch has
        # no raising path in the model.
        # simlint: disable=SIM012
        yield self.env.timeout(self.kernel.stack_latency_s)
        if trace is not None:
            trace.add("kernel", mark, self.env.now)
        self._dispatch(message)
        # Counted once the kernel has the message, not when the call
        # starts: a send still in the syscall is not in flight yet.
        self.stats.messages_sent += 1
        return message

    def _send_cycles(self, nbytes: int) -> float:
        segments = segment_count(nbytes, self.kernel.segment_bytes)
        cycles = (
            self.kernel.syscall_cycles
            + nbytes * self.kernel.send_cycles_per_byte
            + segments * self.kernel.per_segment_cycles
        )
        if self.src_bridge is not None:
            cycles += self.src_bridge.forwarding_cycles(nbytes)
            self.src_bridge.account(nbytes)
        return cycles

    def _dispatch(self, message: Message) -> None:
        """Hand the message to the mid-path (router, wire or loopback)."""
        if self.src_router is not None:
            self.src_router.submit(message)
        elif self.src_host is self.dst_host:
            self._rx_enqueue(message)
        else:
            if self.tx_queue is None:
                raise TransportError(
                    "inter-host TCP lane has no tx queue (invariant: "
                    "lanes where _needs_tx_worker() holds own a wire stage)"
                )
            self.tx_queue.put(message)

    def _needs_tx_worker(self) -> bool:
        return self.src_router is None and self.src_host is not self.dst_host

    def _tx_worker(self):
        """Wire stage: serialises onto the sender's NIC (device layer)."""
        fabric = self.src_host.fabric
        while True:
            message = yield self.tx_queue.get()
            if fabric is None:
                raise TransportError(
                    f"hosts {self.src_host.name}/{self.dst_host.name} share no fabric"
                )
            wire = self.kernel.wire_bytes(message.size_bytes)
            if self._trace_of(message) is not None:
                message.meta["wire_start"] = self.env.now
            yield from fabric.send(
                self.src_host.nic,
                self.dst_host.nic,
                wire,
                deliver=lambda m=message: self._off_wire(m),
            )

    def _off_wire(self, message: Message) -> None:
        """The device layer delivered the frame into the receiver's NIC."""
        trace = self._trace_of(message)
        if trace is not None:
            start = message.meta.pop("wire_start", None)
            if start is not None:
                trace.add("wire", start, self.env.now)
        self._rx_enqueue(message)

    def _rx_enqueue(self, message: Message) -> None:
        """Feed the rx queue, honouring the :data:`FAULTS` hook (also the
        entry point the destination overlay router delivers into)."""
        faults = FAULTS
        if faults is not None:
            delay = faults.rx_delay(self, message)
            if delay > 0:
                self.env.process(self._delayed_rx(message, delay))
                return
        self.rx_queue.put(message)

    def _delayed_rx(self, message: Message, delay: float):
        """Hold a "lost" frame for its retransmit delay, then deliver."""
        yield self.env.timeout(delay)
        self.rx_queue.put(message)

    # -- receive path ----------------------------------------------------------------

    def _rx_worker(self):
        """Receiver softirq + copy-to-user stage (serial per connection)."""
        while True:
            message = yield self.rx_queue.get()
            trace = self._trace_of(message)
            mark = self.env.now
            cycles = self._recv_cycles(message.size_bytes)
            yield from self.dst_host.cpu.execute(cycles)
            yield self.env.timeout(self.kernel.stack_latency_s)
            yield self.window.get(max(1, message.size_bytes))
            if trace is not None:
                trace.add("kernel", mark, self.env.now)
            self.deliver(message)

    def _recv_cycles(self, nbytes: int) -> float:
        segments = segment_count(nbytes, self.kernel.segment_bytes)
        cycles = (
            self.kernel.syscall_cycles
            + nbytes * self.kernel.recv_cycles_per_byte
            + segments * self.kernel.per_segment_cycles
        )
        if self.dst_bridge is not None:
            cycles += self.dst_bridge.forwarding_cycles(nbytes)
            self.dst_bridge.account(nbytes)
        return cycles

    def close(self) -> None:
        if self.dst_router is not None:
            self.dst_router.unregister(self.dst_addr)
        super().close()


class TcpEnd(ChannelEnd):
    """One side of a kernel connection.

    ``send`` and ``recv`` are restated here rather than inherited so the
    kernel path has entry points of its own: ``bench/layers.py`` times
    them as netstack spans.
    """

    def send(self, nbytes: int, payload: Any = None):
        """Send ``nbytes`` to the peer (generator; yield from it)."""
        result = yield from self._out.send(nbytes, payload)
        return result

    def recv(self):
        """Receive the next message from the peer (generator)."""
        message = yield from self._in.recv()
        return message


class TcpConnection(DuplexChannel):
    """A duplex kernel-TCP connection between two container endpoints.

    Parameters
    ----------
    a_addr/b_addr:
        The endpoints' addresses; by default port 0 and port 1 on the
        hosts' names.
    mode:
        Which container networking flavour (host/bridge/overlay).  Host
        mode is FreeFlow's fallback when no faster mechanism is allowed.
    a_router/b_router:
        Overlay routers for the two hosts (required iff OVERLAY mode).
    a_bridge/b_bridge:
        Software bridges for the two hosts (required iff BRIDGE mode;
        OVERLAY mode also crosses the local bridge to reach the router).
    window_bytes:
        Socket-buffer backpressure per direction.
    """

    End = TcpEnd

    def __init__(
        self,
        a_host: "Host",
        b_host: "Host",
        a_addr: Optional[EndpointAddr] = None,
        b_addr: Optional[EndpointAddr] = None,
        mode: TcpMode = TcpMode.HOST,
        a_router: Optional[OverlayRouter] = None,
        b_router: Optional[OverlayRouter] = None,
        a_bridge: Optional[SoftwareBridge] = None,
        b_bridge: Optional[SoftwareBridge] = None,
        window_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        if a_host.env is not b_host.env:
            raise ValueError("hosts live in different environments")
        if mode is TcpMode.OVERLAY and (a_router is None or b_router is None):
            raise ValueError("OVERLAY mode needs a router on each host")
        if mode is TcpMode.BRIDGE and (a_bridge is None or b_bridge is None):
            raise ValueError("BRIDGE mode needs a bridge on each host")
        if mode is not TcpMode.OVERLAY:
            a_router = b_router = None
        if mode is TcpMode.HOST:
            a_bridge = b_bridge = None
        a_addr = a_addr or EndpointAddr(a_host.name, 0)
        b_addr = b_addr or EndpointAddr(b_host.name, 1)
        self.mode = mode
        # Intra-host overlay traffic traverses the single local router once.
        same_host = a_host is b_host
        super().__init__(
            KernelLane(
                a_host, b_host, a_addr, b_addr, window_bytes,
                src_router=a_router,
                dst_router=(b_router if not same_host else a_router),
                src_bridge=a_bridge, dst_bridge=b_bridge,
            ),
            KernelLane(
                b_host, a_host, b_addr, a_addr, window_bytes,
                src_router=b_router,
                dst_router=(a_router if not same_host else b_router),
                src_bridge=b_bridge, dst_bridge=a_bridge,
            ),
        )
