"""FreeFlowNetwork: the whole system assembled (paper Fig. 4(b)).

One object wires together the three gray boxes of the paper's
architecture figure:

* the **network orchestrator** (extends the cluster orchestrator with
  location/IP/capability queries),
* one **network agent per host** (the customized overlay router), and
* per-container **vNICs + customized network library** (verbs, with
  socket and MPI translations layered on top).

Typical use::

    net = FreeFlowNetwork(cluster)
    vnic_a = net.attach(container_a)      # IP assigned, agent ready
    vnic_b = net.attach(container_b)
    decision = yield from net.connect(qp_a, qp_b)   # policy + channel

Flow lifecycle lives in :mod:`repro.core.flows`: every connection is a
:class:`~repro.core.flows.FlowConnection` registered in the network's
:class:`~repro.core.flows.FlowTable`, channels are built by its
:class:`~repro.core.flows.ChannelFactory`, and the watch-driven
:class:`~repro.core.flows.FlowReconciler` (``net.reconciler.start()``)
converges flows automatically when containers move, hosts die or NIC
capabilities change.  ``handle_host_failure``/``repair_connection``
remain as thin clients of the reconciler's primitives.

The library-side *location cache* (TTL-based) implements the paper's
"keeps pulling the newest container location information from the
network orchestrator" with a knob the caching ablation (E13) sweeps:
``cache_ttl_s=0`` forces a round trip to the orchestrator per
connection; a positive TTL amortises it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from ..cluster.container import Container
from ..cluster.orchestrator import ClusterOrchestrator
from ..errors import ChannelRebound, OrchestrationError
from ..telemetry import events as _events
from ..telemetry import registry as _registry
from .agent import FreeFlowAgent
from .flows import (
    ChannelFactory,
    ConnectionEnd,
    FlowConnection,
    FlowReconciler,
    FlowState,
    FlowTable,
    label_channel,
)
from .orchestrator import NetworkOrchestrator
from .policy import MechanismPolicy, PolicyConfig, PolicyDecision
from .verbs import QpState, QueuePair
from .vnic import VirtualNic

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.host import Host

__all__ = ["FreeFlowNetwork", "FlowConnection", "ConnectionEnd",
           "FlowState"]


class FreeFlowNetwork:
    """The FreeFlow control plane plus per-host agents."""

    def __init__(
        self,
        cluster: ClusterOrchestrator,
        policy: Optional[MechanismPolicy] = None,
        policy_config: Optional[PolicyConfig] = None,
        zero_copy: bool = True,
        cache_ttl_s: float = 1.0,
        query_latency_s: float = 50e-6,
        middlebox=None,
        inspect=None,
        tenant_rate_limits=None,
    ) -> None:
        if policy is None:
            policy = MechanismPolicy(policy_config)
        elif policy_config is not None:
            raise ValueError("pass either policy or policy_config, not both")
        if inspect is not None and middlebox is None:
            raise ValueError("an inspect predicate needs a middlebox")
        self.env = cluster.env
        self.cluster = cluster
        self.zero_copy = zero_copy
        self.cache_ttl_s = cache_ttl_s
        self.orchestrator = NetworkOrchestrator(
            cluster, policy, query_latency_s=query_latency_s
        )
        #: Optional inline IDS/IPS (paper §7) and the predicate deciding
        #: which container pairs it applies to (default: all pairs).
        self.middlebox = middlebox
        self.inspect = inspect if inspect is not None else (
            (lambda src, dst: True) if middlebox is not None else None
        )
        #: Per-tenant egress caps in bytes/s (paper §1: bypass loses the
        #: kernel's rate-limiting — FreeFlow restores it in the library).
        self.tenant_rate_limits = dict(tenant_rate_limits or {})
        self._tenant_buckets: dict[str, object] = {}
        self._agents: dict[str, FreeFlowAgent] = {}
        self._vnics: dict[str, VirtualNic] = {}
        #: pair -> (decision, expiry).  The TTL is one constant, so the
        #: insertion order is the expiry order, and each resolve drops
        #: the expired entries from the front: the cache holds the pairs
        #: resolved within one TTL, not every pair ever resolved.  An
        #: OrderedDict finds its oldest entry in O(1); a dict scans past
        #: the slots its front deletions left.
        self._cache: OrderedDict[tuple[str, str],
                                 tuple[PolicyDecision, float]] = OrderedDict()
        #: name -> the cached pairs it is an endpoint of (dict as an
        #: ordered set), so invalidating one endpoint touches only its
        #: own entries instead of scanning the whole cache.
        self._cache_pairs: dict[str, dict[tuple[str, str], None]] = {}
        #: The flow-lifecycle subsystem (see repro.core.flows).
        self.flows = FlowTable(self.env)
        self.factory = ChannelFactory(self)
        self.reconciler = FlowReconciler(self)
        self.cache_hits = 0
        self.cache_misses = 0
        registry = _registry.ACTIVE
        if registry is not None:
            registry.register_network(self)

    @property
    def connections(self) -> list[FlowConnection]:
        """Open flows (BROKEN included), creation-ordered.

        A view over the FlowTable: closed flows are pruned there, so
        this no longer grows without bound across connect/close churn.
        """
        return self.flows.open_flows()

    # -- agents ------------------------------------------------------------------

    def agent_for(self, host: "Host") -> FreeFlowAgent:
        """Get (or start) the network agent on ``host``."""
        agent = self._agents.get(host.name)
        if agent is None or agent.host is not host:
            agent = FreeFlowAgent(host, zero_copy=self.zero_copy)
            self._agents[host.name] = agent
        return agent

    # -- container attach ----------------------------------------------------------

    def attach(self, container: Container) -> VirtualNic:
        """Admit a container: allocate its overlay IP, create its vNIC."""
        if container.name in self._vnics:
            raise OrchestrationError(
                f"container {container.name!r} already attached"
            )
        self.orchestrator.register(container)
        self.agent_for(container.host)
        vnic = VirtualNic(container, self)
        self._vnics[container.name] = vnic
        _events.emit(self.env, "container.attach", container=container.name,
                     host=container.host.name, ip=container.ip)
        return vnic

    def detach(self, name: str) -> None:
        """Remove a container from the overlay, closing its flows."""
        from ..errors import ConnectionReset

        for flow in self.flows.flows_for(name):
            if flow.channel is not None:
                for lane in (flow.channel.lane_ab, flow.channel.lane_ba):
                    lane.eject_receivers(
                        ConnectionReset(f"{name} detached")
                    )
            self.flows.close(flow, reason=f"{name} detached")
        self._vnics.pop(name, None)
        self.orchestrator.deregister(name)
        self.invalidate(name)
        _events.emit(self.env, "container.detach", container=name)

    def vnic(self, name: str) -> VirtualNic:
        try:
            return self._vnics[name]
        except KeyError:
            raise OrchestrationError(f"{name!r} is not attached") from None

    # -- mechanism resolution (the library's orchestrator query) ---------------------

    def resolve(self, src_name: str, dst_name: str):
        """Policy decision with library-side caching (generator)."""
        key = (src_name, dst_name)
        if self.cache_ttl_s > 0:
            self._expire()
            cached = self._cache.get(key)
            if cached is not None and cached[1] > self.env.now:
                self.cache_hits += 1
                return cached[0]
        self.cache_misses += 1
        decision = yield from self.orchestrator.query_mechanism(
            src_name, dst_name
        )
        _events.emit(self.env, "policy.decision", src=src_name, dst=dst_name,
                     mechanism=decision.mechanism.value,
                     reason=decision.reason)
        if self.cache_ttl_s > 0:
            cache = self._cache
            cache[key] = (decision, self.env.now + self.cache_ttl_s)
            # A pair two connects resolved at once is refreshed in place:
            # move it behind the entries it now outlives.
            cache.move_to_end(key)
            pairs = self._cache_pairs
            for name in key:
                pairs.setdefault(name, {})[key] = None
        return decision

    def _expire(self) -> None:
        """Drop every cached decision whose expiry has passed."""
        cache = self._cache
        now = self.env.now
        while cache:
            key = next(iter(cache))
            if cache[key][1] > now:
                return
            self._drop(key)

    def _drop(self, key: tuple[str, str]) -> None:
        """Forget one cached decision, in the cache and in its index."""
        del self._cache[key]
        index = self._cache_pairs
        for name in set(key):
            pairs = index[name]
            del pairs[key]
            if not pairs:
                del index[name]

    def invalidate(self, name: str) -> None:
        """Drop every cached decision involving ``name`` (migration)."""
        for key in list(self._cache_pairs.get(name, ())):
            self._drop(key)

    # -- connection setup ---------------------------------------------------------------

    def _open(self, src_name: str, dst_name: str):
        """Generator: open a flow, resolve its mechanism and build its
        channel, closing the flow if either fails.  Returns
        ``(flow, channel, decision)`` for the caller to activate."""
        flow = self.flows.open(src_name, dst_name)
        try:
            decision = yield from self.resolve(src_name, dst_name)
            channel = self.factory.build(src_name, dst_name, decision)
        except BaseException:
            self.flows.close(flow, reason="connect-failed")
            raise
        return flow, channel, decision

    def connect_containers(self, src_name: str, dst_name: str):
        """Raw FreeFlow channel between two containers (generator).

        Benchmarks use this to measure the data plane without verbs-layer
        overhead; the verbs path goes through :meth:`connect`.
        """
        flow, channel, decision = yield from self._open(src_name, dst_name)
        self.flows.activate(flow, channel, decision)
        _events.emit(self.env, "flow.connect", src=src_name, dst=dst_name,
                     mechanism=decision.mechanism.value)
        return flow

    def connect(self, qp_a: QueuePair, qp_b: QueuePair):
        """Connect two queue pairs through the policy-chosen channel.

        Performs the standard verbs state dance (INIT → RTR → RTS) on
        both QPs, so the application code looks exactly like the paper's
        Fig. 5 pseudo-code.
        """
        src = qp_a.vnic.container
        dst = qp_b.vnic.container
        flow, channel, decision = yield from self._open(src.name, dst.name)
        for qp in (qp_a, qp_b):
            if qp.state is QpState.RESET:
                qp.modify(QpState.INIT)
            if qp.state is QpState.INIT:
                qp.modify(QpState.RTR)
            if qp.state is QpState.RTR:
                qp.modify(QpState.RTS)
        qp_a.vnic.bind(qp_a, channel.a, qp_b)
        qp_b.vnic.bind(qp_b, channel.b, qp_a)
        flow.qp_a = qp_a
        flow.qp_b = qp_b
        qp_a.flow = qp_b.flow = flow
        self.flows.activate(flow, channel, decision)
        _events.emit(self.env, "flow.connect", src=src.name, dst=dst.name,
                     mechanism=decision.mechanism.value, verbs=True)
        return decision

    def close_connection(self, connection: FlowConnection) -> None:
        """Close a flow and prune it from the table (idempotent)."""
        self.flows.close(connection)

    def _tenant_bucket(self, tenant: str):
        """The shared token bucket for a rate-limited tenant (or None)."""
        limit = self.tenant_rate_limits.get(tenant)
        if limit is None:
            return None
        bucket = self._tenant_buckets.get(tenant)
        if bucket is None:
            from .ratelimit import TokenBucket

            bucket = TokenBucket(self.env, rate_bytes_per_s=limit)
            self._tenant_buckets[tenant] = bucket
        return bucket

    # -- failure handling (§2.1 failure-mitigation story) -----------------------
    #
    # Thin clients of the reconciler's primitives: the same code paths
    # run whether failure is reported here synchronously or observed by
    # the reconciler's host-liveness watch.

    def handle_host_failure(self, host_name: str) -> list[FlowConnection]:
        """React to a dead host: lost containers leave the overlay and
        every flow touching them goes BROKEN (channel reset).

        Returns the broken flows so the application (or a controller)
        can repair them once replacements are running.  With the
        reconciler started, the replacement attach alone triggers the
        repair automatically.
        """
        self.cluster.fail_host(host_name)
        return self.reconciler.host_failed(host_name, force_emit=True)

    def repair_connection(self, connection: FlowConnection):
        """Rebuild a BROKEN flow once both endpoints exist again
        (generator).  The caller resubmits + re-attaches the replacement
        container first; this re-resolves (possibly a new mechanism,
        since the replacement may land elsewhere) and swaps the channel.
        """
        if not connection.failed:
            raise OrchestrationError("connection has not failed")
        # Both endpoints must be attached again.
        self.vnic(connection.src_name)
        self.vnic(connection.dst_name)
        decision = yield from self.reconciler.repair_flow(connection)
        return decision

    # -- migration hook ---------------------------------------------------------------

    def rebind(self, connection: FlowConnection):
        """Re-resolve and rebuild a flow's channel after an endpoint
        moved (or came back from a failure).

        Generator: costs an orchestrator query (the cache entry was
        invalidated by whoever observed the move).  The flow passes
        through REBINDING and lands back in ACTIVE — or PAUSED, when a
        controller holds the pause gate for its downtime window.  The
        state machine rejects rebinds of RESOLVING/CLOSED flows.
        """
        table = self.flows
        table.transition(connection, FlowState.REBINDING, reason="rebind")
        try:
            decision = yield from self.resolve(
                connection.src_name, connection.dst_name
            )
            channel = self.factory.build(
                connection.src_name, connection.dst_name, decision
            )
        except BaseException:
            table.transition(connection, FlowState.BROKEN,
                             reason="rebind-failed")
            raise
        old = connection.channel
        # Label the new lanes before transplanting so open traces rekey
        # to the flow label, not the lane's anonymous transport name.
        label_channel(connection, channel)
        # Transplant delivered-but-unconsumed messages so nothing is
        # lost (stats + trace move with them), then eject receivers
        # still parked on the old lanes — they retry against the new
        # channel through the ConnectionEnd facade.
        moved = self.factory.transplant(old, channel)
        connection.channel = channel
        connection.decision = decision
        connection.generation += 1
        if connection.qp_a is not None and connection.qp_b is not None:
            connection.qp_a.vnic.rebind(
                connection.qp_a, channel.a, connection.qp_b
            )
            connection.qp_b.vnic.rebind(
                connection.qp_b, channel.b, connection.qp_a
            )
        else:
            for old_lane in (old.lane_ab, old.lane_ba):
                old_lane.eject_receivers(ChannelRebound("channel was rebound"))
        old.close()
        table.transition(
            connection,
            FlowState.PAUSED if connection.paused else FlowState.ACTIVE,
            reason="rebound",
        )
        _events.emit(self.env, "flow.rebind", src=connection.src_name,
                     dst=connection.dst_name,
                     mechanism=decision.mechanism.value,
                     generation=connection.generation,
                     transplanted=moved)
        return decision
