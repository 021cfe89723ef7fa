"""Shared-memory channel: the intra-host fast path (paper §3.1).

Two containers on the same host are just two processes; once the
namespace wall is (deliberately) pierced, they can exchange data through
a shared ring buffer:

* the sender memcpys the payload into the ring — one core held for the
  copy, bytes through the shared memory bus (the "still burns some cpu"
  of §2.3.1);
* the receiver is notified (futex-style wakeup) and, in the default
  zero-copy configuration, consumes the data in place;
* ring occupancy is the backpressure point.

Single-pair throughput is bounded by the single-core memcpy rate
(≈ 9.6 GB/s ≈ 77 Gb/s on the paper's Xeon — "near-to-memory-bandwidth");
many pairs together saturate the memory bus itself, which is the
"memory bus" ceiling line in the paper's §2.4 sketch of Figure 2(a).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..errors import TransportError
from ..hardware.specs import ShmSpec
from ..sim.resources import Tank
from ..sim.stage import Stage
from .base import DuplexChannel, Lane, Mechanism

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host

__all__ = ["ShmLane", "ShmChannel"]


class ShmLane(Lane):
    """One direction of a shared-memory ring between two local processes.

    The ring's memory is accounted to the host from construction; its
    occupancy tank (:attr:`ring`) is built on first use, as most flows
    of a fleet never send, and so is the receive-side copy stage of a
    lane without zero-copy receive.
    """

    __slots__ = ("host", "spec", "_ring", "_rx")

    def __init__(self, host: "Host", spec: Optional[ShmSpec] = None) -> None:
        super().__init__(host.env, Mechanism.SHM)
        self.host = host
        self.spec = spec or host.spec.shm
        self._ring: Optional[Tank] = None
        host.memory.allocate(self.spec.ring_bytes)
        self._rx: Optional[Stage] = None

    @property
    def ring(self) -> Tank:
        """The shared ring: bytes written but not yet consumed."""
        ring = self._ring
        if ring is None:
            ring = self._ring = Tank(self.env,
                                     capacity=self.spec.ring_bytes)
        return ring

    def send(self, nbytes: int, payload: Any = None):
        """Copy one message into the ring and wake the receiver."""
        if self.closed:
            raise TransportError("shared-memory channel closed")
        if nbytes > self.spec.ring_bytes:
            raise TransportError(
                f"message of {nbytes} B exceeds ring size {self.spec.ring_bytes} B"
            )
        message = self.make_message(nbytes, payload)
        # Remember which ring holds the payload so the consumer can free
        # the right one even if the message is transplanted to a new
        # channel during a live migration.
        message.meta["ring"] = self.ring
        trace = self._trace_of(message)
        mark = self.env.now
        yield from self.host.cpu.execute(self.spec.per_message_cycles)
        yield self.ring.put(max(1, nbytes))
        if trace is not None:
            trace.add("queue", mark, self.env.now)
            mark = self.env.now
        # Ring bytes double as the payload's storage until the consumer
        # repays them (ring.get in recv/_rx_copy_worker, routed through
        # message.meta["ring"] so transplants free the right ring).
        # simlint: disable=SIM012
        yield from self.host.memcpy(nbytes)
        if trace is not None:
            trace.add("copy", mark, self.env.now)
            mark = self.env.now
        yield from self.host.cpu.execute(self.spec.notify_cycles)
        yield self.env.timeout(self.spec.notify_latency_s)
        if trace is not None:
            # The futex-style receiver wakeup is the shm path's only
            # kernel involvement.
            trace.add("kernel", mark, self.env.now)
        if self.spec.zero_copy_receive:
            self.deliver(message)
            return message
        if self._rx is None:
            self._rx = Stage(self.env)
        self._rx.put(message, self._rx_copy_worker)
        return message

    def _rx_copy_worker(self, message):
        """Receive-side memcpy stage (only when zero-copy is disabled)."""
        while message is not None:
            trace = self._trace_of(message)
            mark = self.env.now
            yield from self.host.memcpy(message.size_bytes)
            if trace is not None:
                trace.add("copy", mark, self.env.now)
            self.deliver(message)
            message = yield from self._rx.next()

    def recv(self):
        """Consume the next message and free its ring space."""
        message = yield self.inbox.get()
        trace = self._trace_of(message)
        mark = self.env.now
        yield from self.host.cpu.execute(self.spec.per_message_cycles)
        ring = message.meta.pop("ring", self.ring)
        yield ring.get(max(1, message.size_bytes))
        if trace is not None:
            trace.add("consume", mark, self.env.now)
        self._finish_trace(message)
        return message

    def close(self) -> None:
        if not self.closed:
            self.host.memory.free(self.spec.ring_bytes)
        super().close()


class ShmChannel(DuplexChannel):
    """Bidirectional shared-memory channel between two co-located processes."""

    def __init__(self, host: "Host", spec: Optional[ShmSpec] = None) -> None:
        super().__init__(ShmLane(host, spec), ShmLane(host, spec))
        self.host = host
