"""Common machinery for data-plane mechanisms (substrate S5).

Every mechanism — shared memory, RDMA, DPDK, and the kernel TCP path of
:mod:`repro.netstack.tcp` — is exposed as a :class:`DuplexChannel` made of
two unidirectional :class:`Lane` pipelines.  FreeFlow's network agents
(and the baselines) program against this one interface, which is what
lets the paper's policy engine swap mechanisms under a connection without
the application noticing.  A :class:`ForwardingLane` puts a step of its
own (a middlebox, a rate limit) in front of a lane's sends and is a lane
everywhere else.

``send`` semantics: the generator returns once the message is accepted by
the mechanism (bounded in-flight window => backpressure), not when it is
delivered; ``recv`` blocks until a message arrives.  Delivery timestamps
land on the :class:`~repro.transports.packet.Message` for measurement.
"""

from __future__ import annotations

import enum
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..sim.monitor import StreamingSeries
from ..sim.resources import Store
from ..telemetry import flowrecords as _flowrecords
from ..telemetry import registry as _registry
from ..telemetry import tracer as _tracer
from .packet import EndpointAddr, Message

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = ["Mechanism", "LaneStats", "Lane", "ForwardingLane", "ChannelEnd",
           "DuplexChannel"]

#: Monotone lane ids: the default flow label is "<mechanism>/<id>".
_lane_ids = count(1)


class Mechanism(enum.Enum):
    """The data-plane mechanisms FreeFlow integrates (paper §4.2)."""

    SHM = "shm"
    RDMA = "rdma"
    DPDK = "dpdk"
    TCP = "tcp"

    @property
    def kernel_bypass(self) -> bool:
        return self is not Mechanism.TCP


class LaneStats:
    """Delivery counters for one lane.

    ``latencies`` is a :class:`~repro.sim.monitor.StreamingSeries`: exact
    count/sum/min/max plus a bounded reservoir for percentiles, so a lane
    that delivers millions of messages does not grow memory linearly.
    """

    __slots__ = ("messages_sent", "messages_delivered", "payload_bytes", "latencies")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.payload_bytes = 0
        self.latencies = StreamingSeries()

    def record_delivery(self, message: Message) -> None:
        self.messages_delivered += 1
        self.payload_bytes += message.size_bytes
        self.latencies.add(message.latency)


class Lane:
    """A unidirectional message pipeline with an inbox at the far end.

    Subclasses implement :meth:`send`; they call :meth:`deliver` when the
    message reaches the destination endpoint.
    """

    __slots__ = ("env", "mechanism", "inbox", "stats", "closed", "flow",
                 "record_deliveries")

    def __init__(self, env: "Environment", mechanism: Mechanism) -> None:
        self.env = env
        self.mechanism = mechanism
        self.inbox: Store = Store(env)
        self.stats = LaneStats()
        self.closed = False
        #: Whether deliveries feed the flight recorder.  The agent relay
        #: clears this on its backing lane so each message is accounted
        #: exactly once, at the outermost — flow-labelled — delivery point.
        self.record_deliveries = True
        #: Flow label the tracer keys traces by; connection owners may
        #: overwrite it with something meaningful ("web->db").
        self.flow = f"{mechanism.value}/{next(_lane_ids)}"
        registry = _registry.ACTIVE
        if registry is not None:
            registry.register_lane(self)

    def make_message(
        self,
        nbytes: int,
        payload: Any = None,
        src: Optional[EndpointAddr] = None,
        dst: Optional[EndpointAddr] = None,
    ) -> Message:
        """A new message, counted as sent (see :meth:`_open_message`)."""
        self.stats.messages_sent += 1
        return self._open_message(nbytes, payload, src, dst)

    def _open_message(
        self,
        nbytes: int,
        payload: Any,
        src: Optional[EndpointAddr],
        dst: Optional[EndpointAddr],
    ) -> Message:
        """A new message stamped with its send time, its trace begun when
        sampled.  It is not counted as sent: a lane that counts a message
        only once the mechanism accepts it calls this directly."""
        message = Message(size_bytes=nbytes, src=src, dst=dst, payload=payload)
        message.sent_at = self.env.now
        tracer = _tracer.ACTIVE
        if tracer is not None:
            trace = tracer.begin(self.flow, self.mechanism.value,
                                 self.env.now)
            if trace is not None:
                message.meta["trace"] = trace
        return message

    def _trace_of(self, message: Message):
        """The message's open trace, or None (one compare when disabled)."""
        if _tracer.ACTIVE is None:
            return None
        return message.meta.get("trace")

    def _finish_trace(self, message: Message) -> None:
        """Close the message's trace at receive time (idempotent)."""
        tracer = _tracer.ACTIVE
        if tracer is not None:
            trace = message.meta.get("trace")
            if trace is not None:
                tracer.finish(trace, self.env.now)

    def send(self, nbytes: int, payload: Any = None):
        """Push one message into the lane (generator). Must be overridden."""
        raise NotImplementedError

    def _hand_off(self, queue: Optional[Store], worker: Callable,
                  message: Message) -> Store:
        """Queue ``message`` for ``worker`` and return the queue to keep.

        ``worker`` takes its first message as an argument, then drains
        the queue.  With no queue yet, it starts on ``message``: an idle
        lane owns no process and schedules no event.  The start event
        takes the ready-queue slot a parked worker's wake-up would have
        taken, so event order is unchanged.  A worker that took its first
        message with a ``get`` would run one hop later and reorder
        same-instant events.
        """
        if queue is None:
            self.env.process(worker(message))
            return Store(self.env)
        queue.put(message)
        return queue

    def deliver(self, message: Message) -> None:
        """Final step: timestamp, account and enqueue at the receiver."""
        message.delivered_at = self.env.now
        self.stats.record_delivery(message)
        recorder = _flowrecords.ACTIVE
        if recorder is not None and self.record_deliveries:
            recorder.on_deliver(self.flow, message.size_bytes, self.env.now)
        self.inbox.put(message)

    def recv(self):
        """Blocking receive (generator)."""
        message = yield self.inbox.get()
        self._finish_trace(message)
        return message

    def adopt(self, message: Message) -> None:
        """Take ownership of a delivered-but-unconsumed message that was
        sitting in another lane's inbox when the channel was swapped
        (live migration / repair).

        Accounting moves with the message: the adopting lane counts it
        as sent *and* delivered (so ``in_flight`` stays conserved and
        this lane's delivered/byte counters reflect every message it
        will actually serve), and the message's open trace — if any — is
        re-keyed to this lane's flow and mechanism so it finishes under
        the live flow instead of dangling on the closed one.  The
        delivery latency sample stays with the lane that actually
        delivered the message; it is not re-recorded here.
        """
        self.stats.messages_sent += 1
        self.stats.messages_delivered += 1
        self.stats.payload_bytes += message.size_bytes
        trace = message.meta.get("trace")
        if trace is not None:
            trace.flow = self.flow
            trace.mechanism = self.mechanism.value
        self.inbox.put(message)

    def eject_receivers(self, exception: BaseException) -> None:
        """Fail every receiver parked on this lane's inbox.

        Used when a migration swaps the channel under a connection: the
        parked receivers are woken with :class:`ChannelRebound` and retry
        against the new channel.
        """
        pending = list(self.inbox._get_queue)
        self.inbox._get_queue.clear()
        for get in pending:
            get.fail(exception)

    def close(self) -> None:
        self.closed = True


class ForwardingLane:
    """A lane in front of another: a subclass defines ``send``, which
    adds a step of its own before forwarding; everything else, the flow
    label included, is the wrapped lane's.

    Forwarding ``flow`` is what lets a flow label stamped on the wrapper
    reach the lane that traces and records the messages.
    """

    def __init__(self, inner: Lane) -> None:
        self.inner = inner
        self.env = inner.env

    @property
    def mechanism(self) -> Mechanism:
        return self.inner.mechanism

    @property
    def stats(self) -> LaneStats:
        return self.inner.stats

    @property
    def inbox(self) -> Store:
        return self.inner.inbox

    @property
    def closed(self) -> bool:
        return self.inner.closed

    @property
    def flow(self) -> str:
        return self.inner.flow

    @flow.setter
    def flow(self, label: str) -> None:
        self.inner.flow = label

    def recv(self):
        message = yield from self.inner.recv()
        return message

    def adopt(self, message: Message) -> None:
        self.inner.adopt(message)

    def eject_receivers(self, exception: BaseException) -> None:
        self.inner.eject_receivers(exception)

    def close(self) -> None:
        self.inner.close()


class ChannelEnd:
    """One side of a duplex channel: sends on one lane, receives on the other."""

    def __init__(self, out_lane: Lane, in_lane: Lane) -> None:
        self._out = out_lane
        self._in = in_lane

    @property
    def mechanism(self) -> Mechanism:
        return self._out.mechanism

    def send(self, nbytes: int, payload: Any = None):
        result = yield from self._out.send(nbytes, payload)
        return result

    def recv(self):
        message = yield from self._in.recv()
        return message

    @property
    def send_stats(self) -> LaneStats:
        return self._out.stats

    @property
    def recv_stats(self) -> LaneStats:
        return self._in.stats


class DuplexChannel:
    """Two lanes glued into a bidirectional channel with ``a``/``b`` ends."""

    #: The class of the two ends.
    End = ChannelEnd

    def __init__(self, lane_ab: Lane, lane_ba: Lane) -> None:
        if lane_ab.mechanism is not lane_ba.mechanism:
            raise ValueError("both lanes must use the same mechanism")
        self.set_lanes(lane_ab, lane_ba)

    def set_lanes(self, lane_ab: Lane, lane_ba: Lane) -> None:
        """Carry the channel on these lanes, with ends rebuilt over them.

        Wrapping a channel's lanes (a middlebox, a rate limit) goes
        through here, so the ends never point at the unwrapped lanes.
        """
        self.lane_ab = lane_ab
        self.lane_ba = lane_ba
        self.a = self.End(lane_ab, lane_ba)
        self.b = self.End(lane_ba, lane_ab)

    @property
    def mechanism(self) -> Mechanism:
        return self.lane_ab.mechanism

    def close(self) -> None:
        self.lane_ab.close()
        self.lane_ba.close()
