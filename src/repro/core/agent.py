"""FreeFlow's per-host network agent: the customized overlay router (S9).

Paper §3.2 — the agent replaces the classic overlay router's data plane
with two new features: "(1) the traffic between routers and its local
containers goes through shared-memory instead of software bridge; and
(2) the traffic between different routers is delivered via kernel
bypassing techniques, e.g. RDMA or DPDK, if the hardware on the hosts is
capable."

The key data-plane challenge (§3.2) is connecting the container-facing
shared-memory channel to the inter-host kernel-bypass channel *without
extra copies*.  Both variants are implemented:

* ``zero_copy=True`` (FreeFlow) — the agent posts RDMA/DPDK work straight
  from/into the container's shared ring; the only byte-touching CPU work
  is the sender writing its data into the ring.
* ``zero_copy=False`` (copying-router ablation, bench E14) — the agent
  memcpys between the ring and a private transfer buffer on each side,
  like a conventional proxy.

Intra-host pairs never reach the agent's relay path at all: the agent
simply wires a container-to-container shared-memory lane (paper Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..errors import TransportError, TransportUnavailable
from ..netstack.tcp import TcpConnection
from ..sim.resources import Tank
from ..sim.stage import Stage
from ..transports.base import DuplexChannel, Lane, Mechanism
from ..transports.dpdk import DpdkLane
from ..transports.rdma import RdmaLane
from ..transports.shmem import ShmLane

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host
    from ..transports.packet import Message

__all__ = ["AgentStats", "FreeFlowAgent", "RelayLane", "build_channel"]


@dataclass
class AgentStats:
    """Relay counters for one agent."""

    messages_relayed: int = 0
    bytes_relayed: int = 0
    relay_copies: int = 0


class FreeFlowAgent:
    """One network agent per host, coordinating the local data planes."""

    def __init__(self, host: "Host", zero_copy: bool = True) -> None:
        self.env = host.env
        self.host = host
        self.zero_copy = zero_copy
        self.stats = AgentStats()

    # -- channel factories -------------------------------------------------------

    def local_channel(self) -> DuplexChannel:
        """Shared-memory channel between two containers on this host."""
        return DuplexChannel(ShmLane(self.host), ShmLane(self.host))

    def relay_lane(
        self,
        peer: "FreeFlowAgent",
        mechanism: Mechanism,
        window_bytes: int = 8 * 1024 * 1024,
    ) -> "RelayLane":
        """One direction of an inter-host FreeFlow path toward ``peer``,
        relayed over RDMA or DPDK."""
        if mechanism is Mechanism.RDMA:
            backing: Lane = RdmaLane(self.host, peer.host, window_bytes)
        elif mechanism is Mechanism.DPDK:
            backing = DpdkLane(self.host, peer.host, window_bytes)
        else:
            raise TransportUnavailable(
                f"agents do not relay over {mechanism.value!r}"
            )
        return RelayLane(self, peer, backing)


class RelayLane(Lane):
    """container → local ring → agent → [RDMA/DPDK] → agent → container.

    The lane's mechanism reports the backing (inter-host) mechanism; the
    shared-memory hand-offs at both edges are part of the FreeFlow design
    rather than a separate mechanism.
    """

    __slots__ = ("src_agent", "dst_agent", "backing", "src_spec", "dst_spec",
                 "_src_ring", "_dst_ring", "_tx", "_receiving")

    def __init__(
        self,
        src_agent: FreeFlowAgent,
        dst_agent: FreeFlowAgent,
        backing: Lane,
    ) -> None:
        super().__init__(src_agent.env, backing.mechanism)
        if src_agent.host is dst_agent.host:
            raise ValueError("relay lanes are for inter-host pairs")
        self.src_agent = src_agent
        self.dst_agent = dst_agent
        self.backing = backing
        # Each relayed message delivers once on the backing lane and once
        # here; only the relay (the flow-labelled lane) feeds the flight
        # recorder.
        backing.record_deliveries = False
        src_shm = src_agent.host.spec.shm
        dst_shm = dst_agent.host.spec.shm
        self.src_spec = src_shm
        self.dst_spec = dst_shm
        #: The shared rings' occupancy tanks, built on first use (see
        #: :attr:`src_ring`); their memory is accounted from the start.
        self._src_ring: Optional[Tank] = None
        self._dst_ring: Optional[Tank] = None
        src_agent.host.memory.allocate(src_shm.ring_bytes)
        dst_agent.host.memory.allocate(dst_shm.ring_bytes)
        #: The agent tx stage, built on the first send.
        self._tx: Optional[Stage] = None
        #: Whether the agent rx worker runs: from a send until a delivery
        #: leaves nothing in flight.
        self._receiving = False

    @property
    def src_ring(self) -> Tank:
        """The sending container's shared ring.  Built on first use, as
        most flows of a fleet never send."""
        ring = self._src_ring
        if ring is None:
            ring = self._src_ring = Tank(self.env,
                                         capacity=self.src_spec.ring_bytes)
        return ring

    @property
    def dst_ring(self) -> Tank:
        """The receiving container's shared ring, built on first use."""
        ring = self._dst_ring
        if ring is None:
            ring = self._dst_ring = Tank(self.env,
                                         capacity=self.dst_spec.ring_bytes)
        return ring

    # -- container-side send --------------------------------------------------------

    def send(self, nbytes: int, payload: Any = None):
        """The sending container writes into its shared ring and notifies
        the agent — identical cost structure to the intra-host fast path."""
        if self.closed:
            raise TransportError("relay lane closed")
        if nbytes > self.src_spec.ring_bytes:
            raise TransportError(
                f"message of {nbytes} B exceeds ring size "
                f"{self.src_spec.ring_bytes} B"
            )
        message = self.make_message(nbytes, payload)
        trace = self._trace_of(message)
        host = self.src_agent.host
        mark = self.env.now
        yield from host.cpu.execute(self.src_spec.per_message_cycles)
        yield self.src_ring.put(max(1, nbytes))
        if trace is not None:
            trace.add("queue", mark, self.env.now)
            mark = self.env.now
        # The ring reservation deliberately outlives this scope: the
        # bytes ARE the message's storage until the TX agent worker
        # repays them (src_ring.get) after relaying onto the backing
        # lane.  Nothing on this path raises mid-copy in the model.
        # simlint: disable=SIM012
        yield from host.memcpy(nbytes)
        if trace is not None:
            trace.add("copy", mark, self.env.now)
            mark = self.env.now
        yield from host.cpu.execute(self.src_spec.notify_cycles)
        yield self.env.timeout(self.src_spec.notify_latency_s)
        if trace is not None:
            trace.add("kernel", mark, self.env.now)
        if not self._receiving:
            # The rx worker only parks on the backing lane's inbox, so
            # its start event schedules nothing.
            self._receiving = True
            self.env.process(self._agent_rx_worker())
        if self._tx is None:
            self._tx = Stage(self.env)
        self._tx.put(message, self._agent_tx_worker)
        return message

    # -- agent relay stages ------------------------------------------------------------

    def _agent_tx_worker(self, message: "Message"):
        """Sender-side agent: ring → backing transport."""
        while message is not None:
            trace = self._trace_of(message)
            if not self.src_agent.zero_copy:
                # Conventional proxy: copy out of the ring first.
                mark = self.env.now
                yield from self.src_agent.host.memcpy(message.size_bytes)
                if trace is not None:
                    trace.add("copy", mark, self.env.now)
                self.src_agent.stats.relay_copies += 1
            # The backing lane traces its own (inner) message; on the
            # relay's trace the backing flight shows up as "wait".
            yield from self.backing.send(message.size_bytes, payload=message)
            # The payload left the ring (DMA'd or copied): free the slot.
            yield self.src_ring.get(max(1, message.size_bytes))
            self.src_agent.stats.messages_relayed += 1
            self.src_agent.stats.bytes_relayed += message.size_bytes
            message = yield from self._tx.next()

    def _agent_rx_worker(self):
        """Receiver-side agent: backing transport → ring → container.
        Returns once a delivery leaves nothing in flight; the next send
        starts it again."""
        while True:
            wrapped = yield from self.backing.recv()
            message: "Message" = wrapped.payload
            trace = self._trace_of(message)
            mark = self.env.now
            message.meta["ring"] = self.dst_ring
            yield self.dst_ring.put(max(1, message.size_bytes))
            if trace is not None:
                trace.add("queue", mark, self.env.now)
                mark = self.env.now
            if not self.dst_agent.zero_copy:
                # Receiver-ring hand-off: the reservation is repaid by
                # the consuming container (ring.get via message.meta
                # ["ring"]) when it drains its inbox, not on this path.
                # simlint: disable=SIM012
                yield from self.dst_agent.host.memcpy(message.size_bytes)
                self.dst_agent.stats.relay_copies += 1
                if trace is not None:
                    trace.add("copy", mark, self.env.now)
                    mark = self.env.now
            yield from self.dst_agent.host.cpu.execute(
                self.dst_spec.notify_cycles
            )
            yield self.env.timeout(self.dst_spec.notify_latency_s)
            if trace is not None:
                trace.add("kernel", mark, self.env.now)
            self.dst_agent.stats.messages_relayed += 1
            self.dst_agent.stats.bytes_relayed += message.size_bytes
            self.deliver(message)
            if not self.in_flight():
                self._receiving = False
                return

    # -- container-side receive -----------------------------------------------------------

    def recv(self):
        """The receiving container consumes from its shared ring."""
        message = yield self.inbox.get()
        trace = self._trace_of(message)
        mark = self.env.now
        yield from self.dst_agent.host.cpu.execute(
            self.dst_spec.per_message_cycles
        )
        ring = message.meta.pop("ring", self.dst_ring)
        yield ring.get(max(1, message.size_bytes))
        if trace is not None:
            trace.add("consume", mark, self.env.now)
        self._finish_trace(message)
        return message

    def close(self) -> None:
        if not self.closed:
            self.src_agent.host.memory.free(self.src_spec.ring_bytes)
            self.dst_agent.host.memory.free(self.dst_spec.ring_bytes)
            self.backing.close()
        super().close()


def build_channel(
    src_agent: FreeFlowAgent,
    dst_agent: FreeFlowAgent,
    mechanism: Mechanism,
    window_bytes: int = 8 * 1024 * 1024,
    crosses_vm_boundary: bool = False,
) -> DuplexChannel:
    """Assemble the duplex FreeFlow channel for a container pair.

    ``Mechanism.SHM`` requires both agents on the same host and yields a
    direct container-to-container shared-memory channel; when the pair
    sits in *different VMs* on that host (``crosses_vm_boundary``), the
    channel is a NetVM-style vhost shared-memory path instead (paper §7:
    "perhaps using NetVM").  ``Mechanism.TCP`` is the
    *isolation-preserving* fallback: it goes straight through the
    kernel path with no shared-memory hand-off (untrusted pairs must not
    touch the agents' rings), intra-host or inter-host alike.  RDMA/DPDK
    yield a pair of agent relay lanes over the kernel-bypass transport.
    """
    if mechanism is Mechanism.SHM:
        if src_agent.host is not dst_agent.host:
            raise TransportUnavailable(
                "shared memory needs both containers on one host"
            )
        if crosses_vm_boundary:
            from ..baselines.netvm import NetVmChannel

            return NetVmChannel(src_agent.host)
        return src_agent.local_channel()
    if mechanism is Mechanism.TCP:
        return TcpConnection(
            src_agent.host, dst_agent.host, window_bytes=window_bytes
        )
    return DuplexChannel(
        src_agent.relay_lane(dst_agent, mechanism, window_bytes),
        dst_agent.relay_lane(src_agent, mechanism, window_bytes),
    )
