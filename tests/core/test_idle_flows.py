"""An idle flow costs only its bookkeeping.

FreeFlow picks each flow's data plane when the flow opens, so a fleet
opens and closes many flows that never carry data.  Such a flow must
schedule no engine event and leave no reference cycle: every pipeline
stage of every data plane starts its worker on the first message and
lets it return once it has no work, and a closed flow, idle or not, is
freed by reference counting alone.  It also allocates no inbox, stats,
buffer, wait queue, latency series, window or ring: each is built on
first use, and the channel's ends are built per access.  Reading an
idle flow (its in-flight count, a rebind, a detach) builds none of them
either.  The RDMA relay, the DPDK relay and the kernel-TCP fallback are
held to one budget.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from collections import Counter

import pytest

from repro.cluster import ClusterOrchestrator, ContainerSpec, RackAwareStrategy
from repro.core import FreeFlowNetwork, FlowState, PolicyConfig
from repro.core.agent import FreeFlowAgent, build_channel
from repro.hardware import Fabric, FatTreeFabric, Host, ShmSpec
from repro.netstack import TcpConnection, TcpMode
from repro.netstack.bridge import SoftwareBridge
from repro.netstack.overlay import OverlayRouter
from repro.netstack.routing import RoutingMesh
from repro.sim import Environment, Process, Store, StreamingSeries, Tank
from repro.sim.rand import RandomStream
from repro.transports import DpdkEngine, Mechanism, ShmChannel
from repro.transports.base import ChannelEnd, Lane, LaneStats


def _quiet(env):
    env.run()
    assert env.peek() == float("inf")


def test_building_an_rdma_relay_channel_schedules_no_event(
        env, network, three_containers):
    _quiet(env)
    decision = network.orchestrator.decide("web", "db")
    assert decision.mechanism is Mechanism.RDMA
    channel = network.factory.build("web", "db", decision)
    assert channel.mechanism is Mechanism.RDMA
    assert env.peek() == float("inf")
    channel.close()


def _overlay_routers(env, a, b):
    mesh = RoutingMesh(env)
    routers = [OverlayRouter(host, mesh.join(host.name)) for host in (a, b)]
    routers[0].connect_peer(routers[1])
    return routers


def _tcp(mode):
    def build(env, a, b):
        routers = (_overlay_routers(env, a, b) if mode is TcpMode.OVERLAY
                   else (None, None))
        bridges = ((SoftwareBridge(a), SoftwareBridge(b))
                   if mode is not TcpMode.HOST else (None, None))
        _quiet(env)
        return TcpConnection(a, b, mode=mode, a_router=routers[0],
                             b_router=routers[1], a_bridge=bridges[0],
                             b_bridge=bridges[1])
    return build


def _dpdk_relay(env, a, b):
    # Each host's PMD claims its core once, and the grant is an event:
    # build the engines first.
    for host in (a, b):
        DpdkEngine.on_host(host)
    _quiet(env)
    return build_channel(FreeFlowAgent(a), FreeFlowAgent(b), Mechanism.DPDK)


#: Data planes with pipeline stages: building one starts none of them.
BUILDS = {
    "shm-copy": lambda env, a, b: ShmChannel(
        a, ShmSpec(zero_copy_receive=False)),
    "dpdk-relay": _dpdk_relay,
    "tcp-host": _tcp(TcpMode.HOST),
    "tcp-bridge": _tcp(TcpMode.BRIDGE),
    "tcp-overlay": _tcp(TcpMode.OVERLAY),
    "overlay-router": _overlay_routers,
    "fat-tree": lambda env, a, b: FatTreeFabric(env, k=4),
}


@pytest.mark.parametrize("plane", sorted(BUILDS))
def test_building_a_data_plane_schedules_no_event(env, host_pair, plane):
    _quiet(env)
    BUILDS[plane](env, *host_pair)
    assert env.peek() == float("inf")


def _live_lanes() -> int:
    # Lanes have __slots__ without __weakref__, so count them instead.
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Lane))


def test_closed_idle_flow_is_freed_without_the_collector(
        env, network, three_containers, runner):
    refs = []
    open_lanes = []

    def open_and_close():
        flow = yield from network.connect_containers("web", "db")
        refs.extend([weakref.ref(flow), weakref.ref(flow.channel)])
        open_lanes.append(_live_lanes())
        network.close_connection(flow)

    gc.collect()
    gc.disable()
    try:
        before = _live_lanes()
        runner(open_and_close())
        # Two relay lanes, each over its own RDMA lane.
        assert open_lanes == [before + 4]
        assert [ref() for ref in refs] == [None, None]
        assert _live_lanes() == before
    finally:
        gc.enable()


#: Policies that pick each inter-host data plane for web -> db.
POLICIES = {
    "rdma": (PolicyConfig(), Mechanism.RDMA),
    "dpdk": (PolicyConfig(allow_rdma=False), Mechanism.DPDK),
    "tcp": (PolicyConfig(allow_rdma=False, allow_dpdk=False), Mechanism.TCP),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_a_closed_flow_that_sent_is_freed_without_the_collector(
        env, cluster, runner, policy):
    """Once a flow has carried a message each way and is closed, its
    pipeline stages have gone idle, so nothing holds its lanes, not
    even a cycle waiting for the collector."""
    config, mechanism = POLICIES[policy]
    network = FreeFlowNetwork(cluster, policy_config=config)
    for name, host in (("web", "h1"), ("db", "h2")):
        network.attach(cluster.submit(ContainerSpec(name, pinned_host=host)))
    refs = []

    def exchange():
        flow = yield from network.connect_containers("web", "db")
        refs.extend([weakref.ref(flow), weakref.ref(flow.channel)])
        yield from flow.a.send(100, payload="request")
        yield from flow.b.recv()
        yield from flow.b.send(200, payload="reply")
        yield from flow.a.recv()
        network.close_connection(flow)
        return flow.mechanism

    gc.collect()
    gc.disable()
    try:
        before = _live_lanes()
        assert runner(exchange()) is mechanism
        _quiet(env)
        assert [ref() for ref in refs] == [None, None]
        assert _live_lanes() == before
    finally:
        gc.enable()


def test_first_send_in_each_direction_is_delivered(
        env, network, three_containers, runner):
    def exchange():
        flow = yield from network.connect_containers("web", "db")
        assert flow.mechanism is Mechanism.RDMA
        yield from flow.a.send(100, payload="request")
        request = yield from flow.b.recv()
        yield from flow.b.send(200, payload="reply")
        reply = yield from flow.a.recv()
        return flow, request, reply

    flow, request, reply = runner(exchange())
    assert (request.payload, reply.payload) == ("request", "reply")
    assert request.delivered_at > request.sent_at
    assert reply.delivered_at > reply.sent_at
    for lane in (flow.channel.lane_ab, flow.channel.lane_ba):
        assert lane.stats.messages_delivered == 1
        assert lane.backing.stats.messages_delivered == 1


#: ROADMAP item 2's budget for an idle inter-host RDMA flow, over the
#: 8.3 objects and 1.3 KiB one holds here: the flow, its channel, two
#: relay and two RDMA lanes, and the pair's decision-cache entry (a
#: PolicyDecision in an entry tuple).  Nothing a message needs exists.
IDLE_FLOW_OBJECTS = 9
IDLE_FLOW_BYTES = 1536

#: What only a message needs: none may exist before the first one.
MESSAGE_STATE = (Store, LaneStats, ChannelEnd, Tank, StreamingSeries)


def _lease_backed_fleet(hosts=16, racks=4, per_host=4, policy_config=None):
    env = Environment()
    fabric = Fabric(env)
    strategy = RackAwareStrategy()
    cluster = ClusterOrchestrator(env, strategy=strategy,
                                  host_lease_ttl_s=1.0)
    strategy.cluster = cluster
    for i in range(hosts):
        cluster.add_host(Host(env, f"host{i}", fabric=fabric),
                         rack=f"rack{i % racks}")
    network = FreeFlowNetwork(cluster, policy_config=policy_config)
    network.reconciler.start()
    names = [cluster.submit(ContainerSpec(f"c{i}")).name
             for i in range(hosts * per_host)]
    for name in names:
        network.attach(cluster.container(name))
    return env, cluster, network, names


def _pairs(cluster, names, count, same_host):
    rng = RandomStream(7, "idle-flow-budget")
    pairs = []
    while len(pairs) < count:
        a, b = (names[rng.randrange(len(names))] for _ in range(2))
        if a != b and (cluster.locate(a) is cluster.locate(b)) == same_host:
            pairs.append((a, b))
    return pairs


def _open_idle(env, network, pairs):
    """Open a flow per pair and send nothing.  Returns the flows, the
    growth in GC-tracked objects by type, the new objects and the bytes
    traced while opening them."""
    flows = []

    def open_all():
        for a, b in pairs:
            flows.append((yield from network.connect_containers(a, b)))

    # The driver is not part of the flows, so it predates the census (an
    # armed wait-for graph keeps it as the owner of each new PMD's core
    # claim).
    driver = env.process(open_all())
    gc.collect()
    before = gc.get_objects()
    old = {id(obj) for obj in before}
    counts = Counter(map(type, before))
    del before
    tracemalloc.start()
    try:
        env.run(until=driver)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    after = gc.get_objects()
    new = [obj for obj in after if id(obj) not in old]
    grew = Counter(map(type, after))
    grew.subtract(counts)
    del after
    return flows, grew, new, traced


def test_an_idle_inter_host_flow_fits_its_budget():
    """Opens inter-host RDMA flows on a small lease-backed fleet and
    sends nothing: per flow, GC-tracked objects and traced bytes stay
    within budget, and nothing a message needs was built."""
    env, cluster, network, names = _lease_backed_fleet()
    pairs = _pairs(cluster, names, 300, same_host=False)
    flows, grew, new, traced = _open_idle(env, network, pairs)

    assert {flow.mechanism for flow in flows} == {Mechanism.RDMA}
    assert sum(grew.values()) / len(flows) <= IDLE_FLOW_OBJECTS, \
        grew.most_common(8)
    assert traced / len(flows) <= IDLE_FLOW_BYTES
    assert [obj for obj in new if isinstance(obj, MESSAGE_STATE)] == []


@pytest.mark.parametrize("policy", ["dpdk", "tcp"])
def test_an_idle_fallback_flow_fits_the_rdma_budget(policy):
    """The DPDK relay and the kernel-TCP fallback build their windows
    and start their pipeline stages on the first message, so an idle
    flow of either fits the RDMA flow's budget and owns no process."""
    config, mechanism = POLICIES[policy]
    env, cluster, network, names = _lease_backed_fleet(policy_config=config)
    pairs = _pairs(cluster, names, 300, same_host=False)
    flows, grew, new, traced = _open_idle(env, network, pairs)

    assert {flow.mechanism for flow in flows} == {mechanism}
    assert sum(grew.values()) / len(flows) <= IDLE_FLOW_OBJECTS, \
        grew.most_common(8)
    assert traced / len(flows) <= IDLE_FLOW_BYTES
    assert [obj for obj in new
            if isinstance(obj, MESSAGE_STATE + (Process,))] == []


def test_an_idle_intra_host_flow_builds_no_ring_or_inbox():
    env, cluster, network, names = _lease_backed_fleet()
    pairs = _pairs(cluster, names, 100, same_host=True)
    flows, _, new, _ = _open_idle(env, network, pairs)

    assert {flow.mechanism for flow in flows} == {Mechanism.SHM}
    assert [obj for obj in new if isinstance(obj, (Tank, Store))] == []


def _census() -> Counter:
    """Live objects of each message-state type; a read built one if a
    count grew."""
    gc.collect()
    return Counter(type(obj) for obj in gc.get_objects()
                   if isinstance(obj, MESSAGE_STATE))


@pytest.mark.parametrize("pair", [("web", "db"), ("web", "cache")],
                         ids=["rdma", "shm"])
def test_reading_an_idle_flow_builds_nothing(
        env, network, three_containers, runner, pair):
    """The reconciler's drain reads in_flight(); a rebind transplants
    and ejects the old lanes; a detach ejects and closes.  On an idle
    flow none of them builds an inbox, stats, end, window or ring."""
    flows = [runner(network.connect_containers(*pair)) for _ in range(2)]
    baseline = _census()

    assert [flow.in_flight() for flow in flows] == [0, 0]
    assert not _census() - baseline

    old = flows[0].channel  # anything built on it stays countable
    runner(network.rebind(flows[0]))
    assert flows[0].channel is not old
    assert not _census() - baseline

    network.detach(pair[1])
    assert [flow.state for flow in flows] == [FlowState.CLOSED] * 2
    assert not _census() - baseline
