"""The unified flow-lifecycle subsystem (paper §7, generalized).

FreeFlow's control plane used to scatter connection lifecycle across the
network facade, the migration controller and the failure handler: each
mutated ``FlowConnection`` fields (``failed``, ``channel``, pause flags)
directly, and each reimplemented half of pause → drain → rebind →
resume.  This module centralizes all of it:

* :class:`FlowState` / :class:`FlowTable` — an explicit per-flow state
  machine (``RESOLVING → ACTIVE ⇄ PAUSED → BROKEN → REBINDING →
  CLOSED``) with guarded transitions.  *Every* lifecycle change goes
  through :meth:`FlowTable.transition`, which emits one
  :data:`~repro.telemetry.events.FLOW_TRANSITION` control-plane event —
  so a flow's whole history is reconstructable from the event log.
  Closed flows leave the table (bounded memory, however many
  connect/close cycles an experiment runs).

* :class:`ChannelFactory` — owns the build pipeline (mechanism channel →
  middlebox wrap → per-tenant rate-limit wrap) and the *transplant* of
  delivered-but-unconsumed messages when a channel is swapped under a
  live connection.

* :class:`FlowReconciler` — a Kubernetes-controller-style loop that
  watches the KV stores for container location changes, host liveness
  and runtime NIC-capability changes, computes the affected flows from
  the FlowTable, and drives pause → drain → re-resolve → rebind → resume
  automatically.  The migration controller and the failure/repair paths
  are thin clients of these primitives.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional

from ..errors import (
    CompactedRevision,
    ConnectionReset,
    EngineInvariantError,
    FlowStateError,
    FreeFlowError,
    UnknownContainer,
)
from ..sim.backoff import Backoff
from ..sim.rand import RandomStream
from ..telemetry import events as _events
from ..telemetry import flowrecords as _flowrecords
from ..telemetry import registry as _registry
from ..transports.base import DuplexChannel, Mechanism
from .agent import build_channel

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment
    from .network import FreeFlowNetwork
    from .policy import PolicyDecision
    from .verbs import QueuePair

__all__ = [
    "FlowState",
    "FlowConnection",
    "ConnectionEnd",
    "FlowTable",
    "ChannelFactory",
    "FlowReconciler",
    "label_channel",
]


class FlowState(enum.Enum):
    """Lifecycle states of one container-to-container flow."""

    RESOLVING = "resolving"  #: opened; policy/channel not yet in place
    ACTIVE = "active"        #: channel live, senders admitted
    PAUSED = "paused"        #: facade gate closed (migration downtime)
    BROKEN = "broken"        #: an endpoint died; channel is reset
    REBINDING = "rebinding"  #: channel being swapped underneath
    CLOSED = "closed"        #: terminal; pruned from the table


#: The legal transitions.  Anything else raises :class:`FlowStateError`
#: — e.g. repairing a flow that never broke, or rebinding a closed flow.
_LEGAL: dict[FlowState, frozenset] = {
    FlowState.RESOLVING: frozenset(
        {FlowState.ACTIVE, FlowState.BROKEN, FlowState.CLOSED}),
    FlowState.ACTIVE: frozenset(
        {FlowState.PAUSED, FlowState.BROKEN, FlowState.REBINDING,
         FlowState.CLOSED}),
    FlowState.PAUSED: frozenset(
        {FlowState.ACTIVE, FlowState.BROKEN, FlowState.REBINDING,
         FlowState.CLOSED}),
    FlowState.BROKEN: frozenset(
        {FlowState.REBINDING, FlowState.CLOSED}),
    FlowState.REBINDING: frozenset(
        {FlowState.ACTIVE, FlowState.PAUSED, FlowState.BROKEN,
         FlowState.CLOSED}),
    FlowState.CLOSED: frozenset(),
}


def label_channel(flow: "FlowConnection", channel: DuplexChannel) -> None:
    """Stamp both lanes with the flow id ("f<n>:<src>-><dst>") so the
    tracer and the flight recorder attribute traffic to endpoints
    instead of anonymous per-process lane counters.  A wrapped lane
    forwards the label to the lane it wraps."""
    channel.lane_ab.flow = flow.flow_id
    channel.lane_ba.flow = flow.flow_id


class ConnectionEnd:
    """Migration-stable endpoint facade over a :class:`FlowConnection`.

    Applications hold this object; it resolves the live channel on every
    call, holds sends at the connection's pause gate, and transparently
    retries a receive that was ejected by a channel swap — which is what
    keeps connections alive across live migrations (paper §7).  Receives
    never wait at the gate: a receiver that keeps consuming is what lets
    the reconciler's drain finish, whatever the backlog's size.  It is
    stateless: :attr:`FlowConnection.a`/``.b`` build one per access, so
    the connection holds no reference back to it and a closed flow is
    freed by reference counting, without the cycle collector.
    """

    __slots__ = ("_connection", "_side")

    def __init__(self, connection: "FlowConnection", side: str) -> None:
        if side not in ("a", "b"):
            raise ValueError(f"side must be 'a' or 'b', got {side!r}")
        self._connection = connection
        self._side = side

    def _end(self):
        channel = self._connection.channel
        return channel.a if self._side == "a" else channel.b

    @property
    def mechanism(self) -> Mechanism:
        return self._end().mechanism

    def send(self, nbytes: int, payload=None):
        yield from self._connection.wait_if_paused()
        result = yield from self._end().send(nbytes, payload)
        return result

    def recv(self):
        from ..errors import ChannelRebound
        while True:
            try:
                message = yield from self._end().recv()
                return message
            except ChannelRebound:
                continue


class FlowConnection:
    """One logical container-to-container flow the network tracks.

    Tracking flows centrally — with an explicit state machine — is what
    lets migration, failure handling and the reconciler rebind them when
    an endpoint moves (paper §7, "Live migration").  A flow is built by
    :meth:`FlowTable.open`, starts RESOLVING, and every state change
    goes through that table.  :attr:`state` is read-only: assigning it
    raises ``AttributeError`` (rule SIM006 is the static twin).
    """

    __slots__ = ("src_name", "dst_name", "channel", "decision", "qp_a",
                 "qp_b", "generation", "flow_id", "table", "_state",
                 "_paused", "_resume_event", "__weakref__")

    def __init__(self, src_name: str, dst_name: str, flow_id: str,
                 table: "FlowTable") -> None:
        self.src_name = src_name
        self.dst_name = dst_name
        self.channel: Optional[DuplexChannel] = None
        self.decision: Optional["PolicyDecision"] = None
        self.qp_a: Optional["QueuePair"] = None
        self.qp_b: Optional["QueuePair"] = None
        self.generation = 1
        self.flow_id = flow_id
        self.table = table
        self._state = FlowState.RESOLVING
        self._paused = False
        self._resume_event = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlowConnection {self.flow_id} {self.state.value} "
                f"gen={self.generation}>")

    @property
    def state(self) -> FlowState:
        """Lifecycle state, written only by :meth:`FlowTable.transition`."""
        return self._state

    @property
    def a(self) -> ConnectionEnd:
        """The source endpoint's facade."""
        return ConnectionEnd(self, "a")

    @property
    def b(self) -> ConnectionEnd:
        """The destination endpoint's facade."""
        return ConnectionEnd(self, "b")

    @property
    def mechanism(self) -> Mechanism:
        return self.decision.mechanism

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def failed(self) -> bool:
        """Backward-compatible view: ``True`` while the flow is BROKEN."""
        return self.state is FlowState.BROKEN

    def pause(self, env) -> None:
        """Stop admitting new sends at the facade (migration)."""
        if not self._paused:
            self._paused = True
            self._resume_event = env.event()
            if self.state is FlowState.ACTIVE:
                self.table.transition(self, FlowState.PAUSED, reason="pause")

    def resume(self) -> None:
        if self._paused:
            self._paused = False
            event, self._resume_event = self._resume_event, None
            if event is not None:
                event.succeed()
            if self.state is FlowState.PAUSED:
                self.table.transition(self, FlowState.ACTIVE,
                                      reason="resume")

    def wait_if_paused(self):
        """Generator: park until :meth:`resume` (no-op when running)."""
        while self._paused:
            yield self._resume_event

    def in_flight(self) -> int:
        """Messages accepted but not yet delivered, both directions."""
        channel = self.channel
        return channel.lane_ab.in_flight() + channel.lane_ba.in_flight()


class FlowTable:
    """The authoritative registry of live flows, with guarded transitions.

    Closed flows are pruned (their ids disappear from the table and the
    per-endpoint index), so long experiments that churn connections do
    not grow memory — only the ``closed_total``/``transitions`` counters
    remember them.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._flows: dict[str, FlowConnection] = {}
        self._by_endpoint: dict[str, list[str]] = {}
        self._seq = itertools.count(1)
        #: Lifetime counters (survive pruning).
        self.opened_total = 0
        self.closed_total = 0
        self.transitions = 0

    # -- registry -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self):
        return iter(list(self._flows.values()))

    def __contains__(self, flow) -> bool:
        if isinstance(flow, str):
            return flow in self._flows
        return self._flows.get(getattr(flow, "flow_id", None)) is flow

    def get(self, flow_id: str) -> Optional[FlowConnection]:
        return self._flows.get(flow_id)

    def open_flows(self) -> list[FlowConnection]:
        """Every non-closed flow, in creation order (BROKEN included)."""
        return list(self._flows.values())

    def flows_for(self, name: str) -> list[FlowConnection]:
        """Non-closed flows with ``name`` as either endpoint."""
        return [
            self._flows[fid]
            for fid in self._by_endpoint.get(name, ())
            if fid in self._flows
        ]

    def count(self, state: FlowState) -> int:
        return sum(1 for f in self._flows.values() if f.state is state)

    # -- lifecycle ----------------------------------------------------------

    def open(self, src_name: str, dst_name: str) -> FlowConnection:
        """Create a flow in RESOLVING (no channel yet)."""
        self.opened_total += 1
        flow_id = f"f{next(self._seq)}:{src_name}->{dst_name}"
        flow = FlowConnection(src_name, dst_name, flow_id, self)
        self._flows[flow_id] = flow
        for name in {src_name, dst_name}:
            self._by_endpoint.setdefault(name, []).append(flow_id)
        self.transitions += 1
        _events.emit_transition(
            self.env, flow_id, src_name, dst_name,
            "none", FlowState.RESOLVING.value, reason="open",
        )
        return flow

    def activate(self, flow: FlowConnection, channel: DuplexChannel,
                 decision: "PolicyDecision") -> FlowConnection:
        """RESOLVING → ACTIVE once the channel pipeline is built."""
        flow.channel = channel
        flow.decision = decision
        label_channel(flow, channel)
        self.transition(flow, FlowState.ACTIVE, reason="connected")
        return flow

    def transition(self, flow: FlowConnection, new_state: FlowState,
                   reason: str = "") -> FlowConnection:
        """The single gate every state change passes through."""
        old = flow._state
        if new_state not in _LEGAL[old]:
            raise FlowStateError(
                f"flow {flow.flow_id}: illegal transition "
                f"{old.value} -> {new_state.value}"
            )
        flow._state = new_state
        self.transitions += 1
        recorder = _flowrecords.ACTIVE
        if recorder is not None:
            recorder.on_transition(flow.flow_id, old.value, new_state.value,
                                   self.env.now)
        _events.emit_transition(
            self.env, flow.flow_id, flow.src_name, flow.dst_name,
            old.value, new_state.value, reason=reason,
            generation=flow.generation,
        )
        if new_state is FlowState.CLOSED:
            self.closed_total += 1
            self._forget(flow)
        return flow

    def close(self, flow: FlowConnection, reason: str = "close") -> None:
        """Terminal transition + channel teardown (idempotent)."""
        if flow.state is FlowState.CLOSED:
            return
        self.transition(flow, FlowState.CLOSED, reason=reason)
        if flow.channel is not None:
            flow.channel.close()
        flow.resume()  # never leave senders parked on a dead gate

    def _forget(self, flow: FlowConnection) -> None:
        self._flows.pop(flow.flow_id, None)
        for name in {flow.src_name, flow.dst_name}:
            ids = self._by_endpoint.get(name)
            if ids is None:
                continue
            try:
                ids.remove(flow.flow_id)
            except ValueError:
                pass
            if not ids:
                del self._by_endpoint[name]


class ChannelFactory:
    """Owns the channel construction pipeline and message transplants.

    Construction: mechanism channel (via the hosts' agents) → optional
    middlebox wrap (paper §7 security) → optional per-tenant rate-limit
    wrap (paper §1 isolation).  Previously inlined in
    ``FreeFlowNetwork._build``; extracting it gives rebind/repair one
    shared, tested pipeline.
    """

    def __init__(self, network: "FreeFlowNetwork") -> None:
        self.network = network
        self.built = 0
        self.transplanted_messages = 0

    def build(self, src_name: str, dst_name: str,
              decision: "PolicyDecision") -> DuplexChannel:
        network = self.network
        orchestrator = network.orchestrator
        src = orchestrator.lookup(src_name).container
        dst = orchestrator.lookup(dst_name).container
        src_host = orchestrator.locate(src_name)
        dst_host = orchestrator.locate(dst_name)
        channel = build_channel(
            network.agent_for(src_host),
            network.agent_for(dst_host),
            decision.mechanism,
            crosses_vm_boundary=(src.vm is not dst.vm),
        )
        if network.middlebox is not None and network.inspect(src, dst):
            from .middlebox import wrap_channel

            channel = wrap_channel(
                channel, network.middlebox, src_host, dst_host
            )
        if network.tenant_rate_limits:
            bucket_ab = network._tenant_bucket(src.tenant)
            bucket_ba = network._tenant_bucket(dst.tenant)
            if bucket_ab is not None or bucket_ba is not None:
                from .ratelimit import RateLimitedLane

                channel.set_lanes(*(
                    lane if bucket is None else RateLimitedLane(lane, bucket)
                    for lane, bucket in ((channel.lane_ab, bucket_ab),
                                         (channel.lane_ba, bucket_ba))))
        self.built += 1
        return channel

    def transplant(self, old: DuplexChannel, new: DuplexChannel) -> int:
        """Move delivered-but-unconsumed messages onto the new lanes.

        Each message is *adopted* by the corresponding new lane: its
        stats count it (so ``in_flight`` stays conserved and delivery
        counters match what the lane will actually serve) and any open
        trace is re-keyed to the live flow.  Returns the number moved.

        Every call checks conservation: the old inboxes end empty, and
        each new lane's sent, delivered and payload counters grow by
        exactly what it adopted.  Anything else means a message was lost
        or forged in the swap, and raises
        :class:`~repro.errors.EngineInvariantError`.
        """
        moved = 0
        for old_lane, new_lane in (
            (old.lane_ab, new.lane_ab),
            (old.lane_ba, new.lane_ba),
        ):
            items = old_lane.drain_inbox()
            if not items:
                continue
            stats = new_lane.stats
            before = (stats.messages_sent, stats.messages_delivered,
                      stats.payload_bytes)
            for message in items:
                new_lane.adopt(message)
            adopted = (len(items), len(items),
                       sum(message.size_bytes for message in items))
            grew = (stats.messages_sent - before[0],
                    stats.messages_delivered - before[1],
                    stats.payload_bytes - before[2])
            if grew != adopted or len(old_lane.inbox):
                raise EngineInvariantError(
                    f"transplant broke conservation on the new "
                    f"{new_lane.mechanism.value} lane: it adopted "
                    f"{adopted[0]} message(s) of {adopted[2]} byte(s) but "
                    f"sent/delivered/payload grew by {grew}, and "
                    f"{len(old_lane.inbox)} message(s) stayed in "
                    f"the old inbox — messages were lost or forged during "
                    f"the channel swap"
                )
            moved += len(items)
        self.transplanted_messages += moved
        return moved


class FlowReconciler:
    """Watch-driven control loop over the FlowTable.

    Subscribes to three feeds and converges the data plane on each
    change, Kubernetes-controller style:

    * ``/network/containers/`` (network orchestrator KV) — a changed
      placement triggers pause → drain → rebind → resume of the affected
      flows; a *first* sighting of a name triggers a repair pass over
      BROKEN flows (the replacement-container story, paper §2.1).
    * ``/cluster/hosts/`` (cluster KV) — a DELETE is a host failure:
      lost containers leave the overlay and their flows go BROKEN.
    * ``/network/nics/`` (network orchestrator KV) — a runtime NIC
      capability change re-decides every flow touching the host and
      rebinds only those whose mechanism actually changed.

    Each watch has its own :meth:`_pump` process, so a host failure
    never waits behind a running rebind.  A watch delivers one
    :class:`~repro.cluster.kvstore.WatchBatch` per instant (a lease-expiry
    cascade or a rack of host DELETEs is one batch), and its handler
    converges the whole batch at once.

    The primitives (``reconcile_containers``, ``host_failed``,
    ``repair_flow`` …) are also directly callable, so the migration
    controller and ``FreeFlowNetwork``'s failure API share one
    implementation whether or not the watch pumps are running.
    """

    DRAIN_POLL_S = 100e-6
    #: Polls with messages in flight and no change in their count after
    #: which :meth:`drain` reports a stall: 100 ms of sim time, far above
    #: the longest such run any workload shows (under 10 ms).
    DRAIN_STALL_POLLS = 1000
    SETTLE_POLL_S = 100e-6

    def __init__(self, network: "FreeFlowNetwork",
                 backoff: Optional[Backoff] = None) -> None:
        self.network = network
        self.env = network.env
        self.table = network.flows
        #: Retry schedule for rebind/repair attempts.  Seeded (stream
        #: name, not wall clock), so runs are reproducible; pass a
        #: custom :class:`~repro.sim.backoff.Backoff` to retune.
        self.backoff = backoff or Backoff(
            RandomStream(0, "reconciler.backoff")
        )
        self.running = False
        self._watches: list = []
        self._procs: list = []
        #: name -> (host, generation) last seen on the container feed.
        self._locations: dict[str, tuple] = {}
        self._busy = 0
        self.rebinds = 0
        self.repairs = 0
        self.reconciliations = 0
        self.capability_rechecks = 0
        self.failures_handled = 0
        self.retries = 0
        self.gave_up = 0
        self.resyncs = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "FlowReconciler":
        """Subscribe the three watches and start one pump per watch."""
        if self.running:
            return self
        self.running = True
        orchestrator = self.network.orchestrator
        containers = orchestrator.kv.watch("/network/containers/",
                                           include_existing=True)
        hosts = self.network.cluster.watch_hosts()
        capabilities = orchestrator.watch_capabilities()
        self._watches = [containers, hosts, capabilities]
        process = self.env.process
        self._procs = [
            process(self._pump(containers, self._containers_changed)),
            process(self._pump(hosts, self._hosts_changed)),
            process(self._pump(capabilities, self._capabilities_changed)),
        ]
        _events.emit(self.env, "reconciler.start")
        return self

    def stop(self) -> None:
        """Cancel the watches; parked pumps become inert."""
        if not self.running:
            return
        self.running = False
        for watch in self._watches:
            watch.cancel()
            watch.queue.drain()
        self._watches = []
        self._procs = []
        _events.emit(self.env, "reconciler.stop")

    def resync(self) -> int:
        """Recover after suspected missed watch deliveries (reconnect).

        A lossy or stalled control-plane connection can eat watch
        events; snapshot replay (:meth:`Watch.resync`) recovers missed
        PUTs but cannot express missed DELETEs, so this first diffs KV
        truth against the reconciler's last-seen view and synthesizes
        them: hosts our flows still believe in but absent from the
        liveness registry are treated as failed, and container names we
        track but the store no longer publishes are dropped.  Then each
        live watch replays its prefix, and the ordinary pumps converge
        the rest (moved placements, repair-unblocking arrivals) exactly
        as they would live events.  Returns the number of replayed
        events; follow with :meth:`wait_settled` to await convergence.
        """
        if not self.running:
            return 0
        self.resyncs += 1
        live_hosts = {
            key.rsplit("/", 1)[-1]
            for key in self.network.cluster.kv.keys("/cluster/hosts/")
        }
        believed = {
            host for host, _gen in self._locations.values()
            if host is not None
        }
        for host_name in sorted(believed - live_hosts):
            self.host_failed(host_name)
        published = {
            key.rsplit("/", 1)[-1]
            for key in self.network.orchestrator.kv.keys(
                "/network/containers/"
            )
        }
        for name in sorted(set(self._locations) - published):
            self._locations.pop(name, None)
        replayed = 0
        for watch in self._watches:
            # Precise-first: replay exactly the missed events (DELETEs
            # included) from the store's retained history; fall back to
            # the snapshot replay once the history has been compacted
            # past our last delivered revision.
            try:
                replayed += watch.resync(since=watch.last_revision)
            except CompactedRevision:
                replayed += watch.resync()
        _events.emit(self.env, "reconciler.resync", replayed=replayed)
        return replayed

    # -- watch pumps ---------------------------------------------------------

    def _pump(self, watch, handle):
        """The one watch loop: hand each delivered batch's events to the
        generator function ``handle``, marked busy while it runs."""
        while True:
            batch = yield watch.queue.get()
            if not self.running:
                return
            self._busy += 1
            try:
                yield from handle(batch.events)
            finally:
                self._busy -= 1

    def _containers_changed(self, events):
        """Generator: placements changed.  A first sighting of a name
        runs a repair pass; a changed placement converges its flows."""
        arrived: list[str] = []
        moved: list[str] = []
        for event in events:
            name = event.key.rsplit("/", 1)[-1]
            if event.kind == "delete":
                self._locations.pop(name, None)
                continue
            placement = (event.value.get("host"),
                         event.value.get("generation"))
            previous = self._locations.get(name)
            self._locations[name] = placement
            if previous is None:
                # New (or replayed) endpoint: may unblock repairs.
                arrived.append(name)
            elif previous != placement:
                moved.append(name)
        for name in arrived:
            yield from self._repair_pass(name)
        if moved:
            self.reconciliations += len(moved)
            yield from self.reconcile_containers(moved)

    def _hosts_changed(self, events):
        """Generator: host liveness changed.  A batch holds each host
        once."""
        recheck: list[str] = []
        for event in events:
            host_name = event.key.rsplit("/", 1)[-1]
            if event.kind == "delete":
                # Failure (explicit or lease expiry): synchronous, so a
                # whole-rack batch breaks every lost flow before any
                # rebind work starts.
                self.host_failed(host_name)
            else:
                # Admission or recovery: capabilities may differ from
                # what flows were decided with.
                recheck.append(host_name)
        for host_name in recheck:
            yield from self.reconcile_capability(host_name)

    def _capabilities_changed(self, events):
        """Generator: NIC capabilities changed (each host once)."""
        for event in events:
            yield from self.reconcile_capability(
                event.key.rsplit("/", 1)[-1])

    # -- primitives ----------------------------------------------------------

    def drain(self, flows):
        """Generator: wait until ``flows`` have no in-flight messages.

        Two consecutive quiet polls — a send that had passed the pause
        gate may still be mid-pipeline on the first quiet sample.  A
        drain whose in-flight count stays above zero and unchanged for
        :attr:`DRAIN_STALL_POLLS` polls reports a stall, once per call
        (a ``flow.drain.stall`` event and the
        ``repro.flows.drain_stalls`` counter), and keeps polling: a
        stalled drain shows up as a report instead of only as a hang.
        """
        quiet = unchanged = last = 0
        stalled = False
        while quiet < 2:
            in_flight = sum(f.in_flight() for f in flows
                            if f.channel is not None
                            and f.state is not FlowState.CLOSED)
            if not in_flight:
                quiet += 1
            else:
                quiet = 0
                unchanged = unchanged + 1 if in_flight == last else 0
                if unchanged >= self.DRAIN_STALL_POLLS and not stalled:
                    stalled = True
                    _events.emit(self.env, "flow.drain.stall",
                                 flows=len(flows), in_flight=in_flight,
                                 polls=unchanged)
                    _registry.counter_inc("repro.flows.drain_stalls")
            last = in_flight
            yield self.env.timeout(self.DRAIN_POLL_S)

    def _rebind_with_retry(self, flow: FlowConnection, reraise: bool = False):
        """Generator: :meth:`FreeFlowNetwork.rebind` with seeded backoff.

        A failed rebind leaves the flow BROKEN (the rebind path's own
        failure transition), so each retry is a legal BROKEN → REBINDING
        attempt after a jittered-exponential wait.  Returns the fresh
        decision; returns ``None`` when the flow moved on underneath us
        (:class:`FlowStateError`: closed, or claimed by another handler)
        or when retries are exhausted — the flow is then left BROKEN for
        a later repair pass.  With ``reraise=True`` exhaustion re-raises
        the last error instead (the contract of the direct repair API).
        """
        attempt = 0
        while True:
            try:
                decision = yield from self.network.rebind(flow)
                return decision
            except FlowStateError:
                if reraise:
                    raise
                return None
            except FreeFlowError as exc:
                if self.backoff.exhausted(attempt):
                    self.gave_up += 1
                    _events.emit(
                        self.env, "flow.rebind.abandon", flow=flow.flow_id,
                        error=type(exc).__name__, attempts=attempt + 1,
                    )
                    if reraise:
                        raise
                    return None
                self.retries += 1
                yield self.env.timeout(self.backoff.delay(attempt))
                attempt += 1

    def _converge(self, flows):
        """Generator: the one pause → drain → rebind → resume cycle.

        Pauses the flows not already paused, drains them all, rebinds
        each with retry and resumes the ones it paused — flows their
        caller paused stay paused (the migration controller owns its
        downtime window).  Returns ``[(flow, old, new)]`` mechanisms for
        every rebind.
        """
        if not flows:
            return []
        paused_by_me = [flow for flow in flows if not flow.paused]
        for flow in paused_by_me:
            flow.pause(self.env)
        yield from self.drain(flows)
        rebinds: list = []
        for flow in flows:
            old = flow.mechanism
            decision = yield from self._rebind_with_retry(flow)
            if decision is None:
                continue
            self.rebinds += 1
            rebinds.append((flow, old, decision.mechanism))
        for flow in paused_by_me:
            flow.resume()
        return rebinds

    def reconcile_containers(self, names):
        """Generator: a batch of endpoints moved — converge their flows.

        One :meth:`_converge` cycle over every ACTIVE/PAUSED flow
        touching any of ``names``, so a watch batch costs one drain wait
        instead of one per event.  Returns ``[(flow, old, new)]`` for
        the rebinds that changed mechanism.
        """
        network = self.network
        affected: list = []
        seen: set[int] = set()
        for name in names:
            network.invalidate(name)
            for flow in self.table.flows_for(name):
                if id(flow) in seen:
                    continue
                seen.add(id(flow))
                if flow.state in (FlowState.ACTIVE, FlowState.PAUSED):
                    affected.append(flow)
        rebinds = yield from self._converge(affected)
        return [change for change in rebinds if change[2] is not change[1]]

    def reconcile_capability(self, host_name: str):
        """Generator: a host's registry capabilities changed.

        Re-decides every ACTIVE/PAUSED flow with an endpoint on the
        host; only flows whose fresh decision picks a *different*
        mechanism go through :meth:`_converge` — e.g. disabling RDMA
        moves inter-host RDMA flows to kernel TCP while co-located shm
        pairs stay untouched.  Returns ``[(flow, old, new)]``.
        """
        self.capability_rechecks += 1
        network = self.network
        orchestrator = network.orchestrator
        stale: list = []
        for flow in self.table.open_flows():
            if flow.state not in (FlowState.ACTIVE, FlowState.PAUSED):
                continue
            try:
                hosts = {
                    orchestrator.lookup(flow.src_name).host_name,
                    orchestrator.lookup(flow.dst_name).host_name,
                }
            except UnknownContainer:
                continue
            if host_name not in hosts:
                continue
            network.invalidate(flow.src_name)
            network.invalidate(flow.dst_name)
            fresh = orchestrator.decide(flow.src_name, flow.dst_name)
            if fresh.mechanism is not flow.mechanism:
                stale.append(flow)
        rebinds = yield from self._converge(stale)
        return rebinds

    def host_failed(self, host_name: str,
                    force_emit: bool = False) -> list[FlowConnection]:
        """A host died: evict its endpoints, break their flows.

        Synchronous and idempotent — safe to call both directly (the
        ``FreeFlowNetwork.handle_host_failure`` client) and from the
        host-liveness pump reacting to the same failure.  Returns the
        flows newly transitioned to BROKEN.
        """
        network = self.network
        orchestrator = network.orchestrator
        lost = orchestrator.containers_on(host_name)
        for name in lost:
            network._vnics.pop(name, None)
            orchestrator.deregister(name)
            network.invalidate(name)
            self._locations.pop(name, None)
        network._agents.pop(host_name, None)
        broken: list[FlowConnection] = []
        seen: set[int] = set()
        # Per-endpoint index instead of a full flow-table scan: a dead
        # host costs O(its containers' flows), not O(all flows) — at
        # 100k fleet-wide flows the difference is the whole budget.
        for name in lost:
            for flow in self.table.flows_for(name):
                if id(flow) in seen:
                    continue
                seen.add(id(flow))
                if flow.state in (FlowState.BROKEN, FlowState.CLOSED):
                    continue
                self.table.transition(flow, FlowState.BROKEN,
                                      reason=f"host {host_name} failed")
                if flow.channel is not None:
                    for lane in (flow.channel.lane_ab,
                                 flow.channel.lane_ba):
                        lane.eject_receivers(
                            ConnectionReset(f"host {host_name} failed")
                        )
                    flow.channel.close()
                broken.append(flow)
        if lost or broken or force_emit:
            self.failures_handled += 1
            _events.emit(self.env, "host.failure", host=host_name,
                         containers_lost=len(lost),
                         connections_broken=len(broken))
        return broken

    def repair_flow(self, flow: FlowConnection):
        """Generator: rebind a BROKEN flow whose endpoints are back.

        The state machine enforces legality: repairing a flow that never
        broke raises :class:`~repro.errors.FlowStateError` at the
        BROKEN → REBINDING gate.  Transient build failures retry on the
        seeded backoff schedule; exhaustion re-raises the last error.
        """
        decision = yield from self._rebind_with_retry(flow, reraise=True)
        self.repairs += 1
        _events.emit(self.env, "flow.repair", src=flow.src_name,
                     dst=flow.dst_name,
                     mechanism=decision.mechanism.value)
        return decision

    def _repair_pass(self, name: str):
        """Generator: a newly attached endpoint may unblock repairs."""
        network = self.network
        for flow in list(self.table.flows_for(name)):
            if flow.state is not FlowState.BROKEN:
                continue
            if (flow.src_name in network._vnics
                    and flow.dst_name in network._vnics):
                yield from self.repair_flow(flow)

    def settled(self, name: Optional[str] = None) -> bool:
        """True when no handler is busy, no watch delivery is pending and
        no flow (of ``name``, when given) is REBINDING."""
        if self._busy or any(w.has_pending() for w in self._watches):
            return False
        flows = (self.table.flows_for(name) if name is not None
                 else self.table.open_flows())
        return not any(f.state is FlowState.REBINDING for f in flows)

    def wait_settled(self, name: Optional[str] = None):
        """Generator: park until :meth:`settled` holds for two
        consecutive polls, so an event consumed but not yet handled
        cannot slip through the gap."""
        quiet = 0
        while quiet < 2:
            yield self.env.timeout(self.SETTLE_POLL_S)
            quiet = quiet + 1 if self.settled(name) else 0
