"""k-ary fat-tree fabric: multi-path topology behind the Fabric API.

The plain :class:`~repro.hardware.link.Fabric` is one non-blocking
switch — structurally incapable of path collisions.  This module builds
the standard k-ary fat-tree instead (k pods, each with k/2 edge and k/2
aggregation switches; (k/2)^2 core switches; k^3/4 host ports) with an
individual :class:`FabricLink` per hop, so congestion *emerges* from
per-link contention: two flows ECMP-hashed onto the same agg→core link
really do halve each other.

:class:`FatTreeFabric` keeps the existing transfer contract — callers
still invoke ``fabric.send(src_nic, dst_nic, wire_bytes, deliver,
trace=...)`` and pay the source NIC's egress serialisation themselves —
so hosts, NICs and every transport are untouched.  Behind that API each
message:

1. gets a route from the :class:`~repro.netstack.pathsel.PathSelector`
   (ECMP on the flow key, re-hashed at flowlet boundaries);
2. traverses the hop sequence through per-link FIFO stages, paying
   each link's store-and-forward latency and serialisation (one
   :class:`~repro.sim.stage.Stage` per link, whose worker runs while the
   link has traffic, so messages pipeline across hops);
3. lands in the base fabric's per-(src, dst) delivery stage, the same
   one a single switch feeds straight after egress: it honours
   partitions (parked, not dropped), pays the destination NIC's
   ingress, checks flowlet order and records the ``wire`` segment.

**Failures.** ``fail_link`` kills both directions of a cable: queued
messages are drained and deterministically detoured, new selections
avoid the dead hops (the topology version bump invalidates cached
paths), and a message already being serialised finishes its hop (the
frame is on the wire).  Every forced detour ends the flowlet, so the
delivery-side :class:`FlowletTracer` can assert the fabric invariant:
**no reordering within a flowlet, ever**.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from ..sim.stage import Stage
from ..telemetry.registry import counter_inc
from .bandwidth import BandwidthPipe
from .link import Fabric
from .specs import NicSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment
    from .nic import PhysicalNic

__all__ = ["FabricLink", "SwitchNode", "FatTreeTopology", "FatTreeFabric",
           "FlowletTracer"]

#: Link tier labels, in traversal order from the host outward.
TIERS = ("edge-agg", "agg-core")


class SwitchNode:
    """One switch: position in the tree, no behaviour of its own."""

    __slots__ = ("name", "kind", "pod", "index", "group")

    def __init__(self, name: str, kind: str, pod: int = -1,
                 index: int = -1, group: int = -1) -> None:
        self.name = name
        #: "edge" | "agg" | "core"
        self.kind = kind
        #: Pod number (edge/agg only).
        self.pod = pod
        #: Position within the pod tier (edge/agg) or within the core
        #: group (core).
        self.index = index
        #: For cores: which agg index they connect to in every pod.
        self.group = group

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SwitchNode {self.name}>"


class FabricLink:
    """One *directed* inter-switch link: a pipe plus liveness state.

    A physical cable is two of these (one per direction);
    :meth:`FatTreeTopology.fail_cable` takes both down together.
    """

    __slots__ = ("name", "src", "dst", "tier", "pipe", "up", "stage",
                 "assignments", "fails", "heals")

    def __init__(self, env: "Environment", src: SwitchNode, dst: SwitchNode,
                 tier: str, rate_bytes: float, chunk_bytes: int) -> None:
        self.name = f"{src.name}->{dst.name}"
        self.src = src
        self.dst = dst
        self.tier = tier
        self.pipe = BandwidthPipe(env, rate_bytes=rate_bytes,
                                  chunk_bytes=chunk_bytes, name=self.name)
        self.up = True
        #: FIFO of :class:`_Transit` crossing this link; the owning
        #: fabric supplies its worker.
        self.stage = Stage(env)
        #: Flowlet path assignments that chose this link (collision
        #: accounting, bumped by the path selector).
        self.assignments = 0
        self.fails = 0
        self.heals = 0

    def utilisation(self) -> float:
        return self.pipe.utilisation()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "up" if self.up else "DOWN"
        return f"<FabricLink {self.name} {state}>"


class FatTreeTopology:
    """The switch/link graph of a k-ary fat-tree (no traffic logic).

    Parameters
    ----------
    k:
        Arity (even, >= 2).  Capacity is ``k^3 / 4`` host ports.
    link_rate_bytes:
        Capacity of every edge-agg link; defaults to the paper NIC's
        goodput so the tree is non-blocking relative to the hosts.
    core_rate_scale:
        Multiplier on agg-core link capacity — ``0.5`` models a 2:1
        oversubscribed core, the rack-locality knob.
    """

    def __init__(
        self,
        env: "Environment",
        k: int = 4,
        link_rate_bytes: Optional[float] = None,
        core_rate_scale: float = 1.0,
        chunk_bytes: int = 64 * 1024,
    ) -> None:
        if k < 2 or k % 2:
            raise ValueError(f"fat-tree arity k must be even and >= 2, got {k}")
        if core_rate_scale <= 0:
            raise ValueError(f"core_rate_scale must be positive, "
                             f"got {core_rate_scale}")
        self.env = env
        self.k = k
        self.radix = k // 2
        if link_rate_bytes is None:
            link_rate_bytes = NicSpec().goodput_bytes
        self.link_rate_bytes = float(link_rate_bytes)
        self.core_rate_scale = float(core_rate_scale)
        #: Bumped on every fail/heal; the path selector keys its cached
        #: routes on it, so a change invalidates every cached path.
        self.version = 0
        self.edges: list[list[SwitchNode]] = []
        self.aggs: list[list[SwitchNode]] = []
        self.cores: list[SwitchNode] = []
        self._links: dict[tuple[str, str], FabricLink] = {}
        radix = self.radix
        for pod in range(k):
            # Construction-time only: k pods, fixed for the topology's life.
            self.edges.append([  # simlint: disable=SIM004
                SwitchNode(f"edge{pod}.{i}", "edge", pod=pod, index=i)
                for i in range(radix)
            ])
            self.aggs.append([  # simlint: disable=SIM004
                SwitchNode(f"agg{pod}.{i}", "agg", pod=pod, index=i)
                for i in range(radix)
            ])
        for group in range(radix):
            for i in range(radix):
                # Construction-time only: (k/2)^2 cores, fixed thereafter.
                self.cores.append(  # simlint: disable=SIM004
                    SwitchNode(f"core{group}.{i}", "core",
                               index=i, group=group)
                )
        for pod in range(k):
            for edge in self.edges[pod]:
                for agg in self.aggs[pod]:
                    self._add_cable(edge, agg, "edge-agg",
                                    self.link_rate_bytes, chunk_bytes)
        core_rate = self.link_rate_bytes * self.core_rate_scale
        for core in self.cores:
            for pod in range(k):
                agg = self.aggs[pod][core.group]
                self._add_cable(agg, core, "agg-core",
                                core_rate, chunk_bytes)

    def _add_cable(self, a: SwitchNode, b: SwitchNode, tier: str,
                   rate_bytes: float, chunk_bytes: int) -> None:
        for src, dst in ((a, b), (b, a)):
            self._links[(src.name, dst.name)] = FabricLink(
                self.env, src, dst, tier, rate_bytes, chunk_bytes
            )

    # -- lookups -------------------------------------------------------------

    @property
    def host_capacity(self) -> int:
        return self.k ** 3 // 4

    def pod_aggs(self, pod: int) -> list[SwitchNode]:
        return self.aggs[pod]

    def agg_cores(self, agg: SwitchNode) -> list[SwitchNode]:
        """The cores wired to this aggregation switch (its group)."""
        radix = self.radix
        return self.cores[agg.index * radix:(agg.index + 1) * radix]

    def link(self, src: SwitchNode, dst: SwitchNode) -> FabricLink:
        return self._links[(src.name, dst.name)]

    def link_by_name(self, src_name: str, dst_name: str) -> FabricLink:
        try:
            return self._links[(src_name, dst_name)]
        except KeyError:
            raise ValueError(
                f"no fat-tree link {src_name} -> {dst_name}"
            ) from None

    def links(self) -> list[FabricLink]:
        """Every directed link, in deterministic construction order."""
        return list(self._links.values())

    def edge_for_port(self, port: int) -> SwitchNode:
        """The edge switch serving host attachment slot ``port``."""
        if not 0 <= port < self.host_capacity:
            raise ValueError(
                f"host port {port} out of range (capacity "
                f"{self.host_capacity})"
            )
        radix = self.radix
        pod, rest = divmod(port, radix * radix)
        return self.edges[pod][rest // radix]

    # -- failures ------------------------------------------------------------

    def fail_cable(self, a_name: str, b_name: str) -> list[FabricLink]:
        """Take both directions of the a<->b cable down.

        Returns the two directed links (already marked down); the
        owning fabric drains and detours their queued traffic.
        """
        pair = [self.link_by_name(a_name, b_name),
                self.link_by_name(b_name, a_name)]
        for link in pair:
            if link.up:
                link.up = False
                link.fails += 1
        self.version += 1
        return pair

    def heal_cable(self, a_name: str, b_name: str) -> list[FabricLink]:
        """Bring both directions of the a<->b cable back up."""
        pair = [self.link_by_name(a_name, b_name),
                self.link_by_name(b_name, a_name)]
        for link in pair:
            if not link.up:
                link.up = True
                link.heals += 1
        self.version += 1
        return pair

    def down_links(self) -> list[FabricLink]:
        return [link for link in self._links.values() if not link.up]

    # -- rollups -------------------------------------------------------------

    def tier_utilisation(self) -> dict[str, float]:
        """Mean busy fraction per link tier (the ``repro top`` rollup)."""
        sums = {tier: 0.0 for tier in TIERS}
        counts = {tier: 0 for tier in TIERS}
        for link in self._links.values():
            sums[link.tier] += link.utilisation()
            counts[link.tier] += 1
        return {
            tier: (sums[tier] / counts[tier] if counts[tier] else 0.0)
            for tier in TIERS
        }

    def link_utilisation(self) -> dict[str, float]:
        """Per-link busy fraction, keyed by directed link name."""
        return {
            link.name: link.utilisation()
            for link in self._links.values()
        }


class _Transit:
    """One message crossing the tree: route + bookkeeping, mutable."""

    __slots__ = ("src", "dst", "dst_edge", "wire_bytes", "deliver",
                 "trace", "sent_at", "path", "hop", "flowlet_key", "seq",
                 "ready_at")

    def __init__(self, src, dst, dst_edge, wire_bytes, deliver, trace,
                 sent_at, route) -> None:
        self.src = src
        self.dst = dst
        self.dst_edge = dst_edge
        self.wire_bytes = wire_bytes
        self.deliver = deliver
        self.trace = trace
        self.sent_at = sent_at
        self.path = route.path
        self.hop = 0
        self.flowlet_key = route.flowlet_key
        self.seq = route.seq
        self.ready_at = 0.0


class FlowletTracer:
    """Delivery-order watchdog for the fabric invariant.

    Per flowlet key, deliveries must arrive in send-sequence order; any
    inversion is recorded (bounded) and counted.  State is a bounded
    FIFO-evicted map, so the tracer costs O(1) memory over any run.
    """

    MAX_FLOWLETS = 4096
    MAX_VIOLATIONS = 64

    def __init__(self) -> None:
        self._last_seq: dict = {}
        self.checked = 0
        self.reorders = 0
        self.violations: list[tuple] = []

    def observe(self, flowlet_key, seq: int) -> None:
        self.checked += 1
        last = self._last_seq.get(flowlet_key)
        if last is not None and seq < last:
            self.reorders += 1
            counter_inc("repro.fabric.reorders")
            if len(self.violations) < self.MAX_VIOLATIONS:
                # Bounded above by MAX_VIOLATIONS.
                self.violations.append(  # simlint: disable=SIM004
                    (flowlet_key, last, seq)
                )
            return
        self._last_seq[flowlet_key] = max(seq, last or 0)
        while len(self._last_seq) > self.MAX_FLOWLETS:
            self._last_seq.pop(next(iter(self._last_seq)))


class FatTreeFabric(Fabric):
    """Multi-path fabric: the Fabric API over a k-ary fat-tree.

    ``send`` accepts an optional ``flow`` argument — any hashable flow
    identity (e.g. a 5-tuple) ECMP-hashed by the path selector.  The
    existing transports never pass it, so their traffic hashes on the
    (src host, dst host) pair, which is exactly the granularity the
    base fabric already kept FIFO.
    """

    def __init__(
        self,
        env: "Environment",
        k: int = 4,
        switch_latency_s: float = 0.6e-6,
        propagation_s: float = 0.4e-6,
        link_rate_bytes: Optional[float] = None,
        core_rate_scale: float = 1.0,
        flowlet_gap_s: Optional[float] = None,
        max_flows: int = 4096,
        chunk_bytes: int = 64 * 1024,
    ) -> None:
        # Base init registers the fabric with the telemetry registry,
        # so the topology must exist first.
        self.topology = FatTreeTopology(
            env, k=k, link_rate_bytes=link_rate_bytes,
            core_rate_scale=core_rate_scale, chunk_bytes=chunk_bytes,
        )
        from ..netstack.pathsel import FLOWLET_GAP_S, PathSelector

        if flowlet_gap_s is None:
            flowlet_gap_s = FLOWLET_GAP_S
        elif flowlet_gap_s == float("inf"):
            flowlet_gap_s = None  # plain ECMP: never re-hash
        self.selector = PathSelector(
            self.topology, flowlet_gap_s=flowlet_gap_s, max_flows=max_flows
        )
        self.tracer = FlowletTracer()
        #: NIC -> attachment port (edge assignment is port-order).
        self._ports: dict[int, int] = {}
        super().__init__(env, switch_latency_s=switch_latency_s,
                         propagation_s=propagation_s)

    # -- attachment ----------------------------------------------------------

    def attach(self, nic: "PhysicalNic") -> None:
        port = len(self._nics)
        if port >= self.topology.host_capacity:
            raise ValueError(
                f"fat-tree k={self.topology.k} is full "
                f"({self.topology.host_capacity} host ports)"
            )
        super().attach(nic)
        self._ports[id(nic)] = port

    def port_of(self, nic: "PhysicalNic") -> int:
        return self._ports[id(nic)]

    def edge_of(self, nic: "PhysicalNic") -> SwitchNode:
        return self.topology.edge_for_port(self._ports[id(nic)])

    def pod_of(self, nic: "PhysicalNic") -> int:
        return self.edge_of(nic).pod

    def _flow_key(self, src, dst, flow):
        """Stable flow identity (never id()-based: must be the same
        across runs so path assignments are byte-identical)."""
        key = (self._ports[id(src)], self._ports[id(dst)])
        return key if flow is None else key + (flow,)

    # -- the transfer API ----------------------------------------------------

    def send(
        self,
        src: "PhysicalNic",
        dst: "PhysicalNic",
        wire_bytes: float,
        deliver: Callable[[], None],
        flow=None,
        trace=None,
    ):
        """Carry ``wire_bytes`` across the tree (generator).

        Same contract as :meth:`Fabric.send`: the caller pays egress
        serialisation; the link workers and the delivery stage do the
        rest, so back-to-back sends pipeline.  ``wire`` spans the whole
        crossing, from this call to delivery.
        """
        if src.fabric is not self or dst.fabric is not self:
            raise ValueError("both NICs must be attached to this fabric")
        if src is dst:
            raise ValueError("use host-local channels for loopback traffic")
        sent_at = self.env.now
        yield from src.egress.transfer(wire_bytes)
        route = self.selector.route(
            self.env.now, self.edge_of(src), self.edge_of(dst),
            self._flow_key(src, dst, flow),
        )
        transit = _Transit(src, dst, self.edge_of(dst), wire_bytes,
                           deliver, trace, sent_at, route)
        counter_inc("repro.fabric.messages")
        self._forward(transit)

    # -- hop machinery -------------------------------------------------------

    def _forward(self, transit: _Transit) -> None:
        """Queue ``transit`` at its next hop (or the delivery stage)."""
        while transit.hop < len(transit.path):
            link = transit.path[transit.hop]
            if not link.up:
                self.selector.detour(transit, transit.hop)
                continue
            transit.ready_at = self.env.now + self.one_way_latency_s
            link.stage.put(transit, partial(self._link_worker, link))
            return
        self._arrive(transit.src, transit.dst, transit.wire_bytes,
                     transit.deliver, transit.trace, transit.sent_at,
                     (transit.flowlet_key, transit.seq))

    def _link_worker(self, link: FabricLink, transit: _Transit):
        """FIFO server for one directed link (store-and-forward)."""
        while transit is not None:
            if not link.up:
                # Drained-and-missed race guard: re-route instead of
                # transmitting over a dead link.
                self.selector.detour(transit, transit.hop)
                self._forward(transit)
            else:
                wait = transit.ready_at - self.env.now
                if wait > 0:
                    yield self.env.timeout(wait)
                yield from link.pipe.transfer(transit.wire_bytes)
                transit.hop += 1
                self._forward(transit)
            transit = yield from link.stage.next()

    # -- failures ------------------------------------------------------------

    def fail_link(self, a_name: str, b_name: str) -> None:
        """Kill the a<->b cable; queued traffic detours immediately.

        A message already being serialised on the link finishes its hop
        (the frame is on the wire); everything still queued is drained
        in FIFO order and re-forwarded through the detour machinery, so
        byte conservation holds and ordering within each (rerouted)
        flowlet is preserved.
        """
        pair = self.topology.fail_cable(a_name, b_name)
        counter_inc("repro.fabric.link_fails")
        for link in pair:
            for transit in link.stage.drain():
                self.selector.detour(transit, transit.hop)
                self._forward(transit)

    def heal_link(self, a_name: str, b_name: str) -> None:
        self.topology.heal_cable(a_name, b_name)
        counter_inc("repro.fabric.link_heals")

    def busiest_core_link(self) -> FabricLink:
        """The agg->core link with the most flowlet assignments."""
        candidates = [link for link in self.topology.links()
                      if link.tier == "agg-core"
                      and link.src.kind == "agg"]
        return max(candidates, key=lambda link: (link.assignments,
                                                 link.pipe.bytes_moved))

    # -- accounting ----------------------------------------------------------

    def reorders(self) -> int:
        return self.tracer.reorders

    def path_latency(self, wire_bytes: float, rate_bytes: float) -> float:
        """Closed-form uncontended inter-pod latency (sanity checks):
        egress + 4 store-and-forward hops + ingress, plus per-hop
        switching/propagation."""
        hops = 6  # egress wire, 4 links, ingress wire
        return (wire_bytes / rate_bytes * hops
                + self.one_way_latency_s * 5)
