"""An idle flow costs only its bookkeeping.

FreeFlow picks each flow's data plane when the flow opens, so a fleet
opens and closes many flows that never carry data.  Such a flow must
schedule no engine event and leave no reference cycle: its lanes start
their workers on the first message, and a closed idle flow is freed by
reference counting alone.  It also allocates no buffer, wait queue,
latency series, window or ring: each is built on first use.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from collections import Counter, deque

from repro.cluster import ClusterOrchestrator, ContainerSpec, RackAwareStrategy
from repro.core import FreeFlowNetwork
from repro.hardware import Fabric, Host
from repro.sim import Environment, Store, StreamingSeries, Tank
from repro.sim.rand import RandomStream
from repro.transports import Mechanism
from repro.transports.base import Lane


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


#: ROADMAP item 2's budget for an idle flow, with room over the ≤16
#: objects it aims at: 4 LaneStats, 2 ChannelEnds and the pair's
#: decision-cache entry are still built eagerly.
IDLE_FLOW_OBJECTS = 20
IDLE_FLOW_BYTES = 4 * 1024


def _lease_backed_fleet(hosts=16, racks=4, per_host=4):
    env = Environment()
    fabric = Fabric(env)
    strategy = RackAwareStrategy()
    cluster = ClusterOrchestrator(env, strategy=strategy,
                                  host_lease_ttl_s=1.0)
    strategy.cluster = cluster
    for i in range(hosts):
        cluster.add_host(Host(env, f"host{i}", fabric=fabric),
                         rack=f"rack{i % racks}")
    network = FreeFlowNetwork(cluster)
    network.reconciler.start()
    names = [cluster.submit(ContainerSpec(f"c{i}")).name
             for i in range(hosts * per_host)]
    for name in names:
        network.attach(cluster.container(name))
    return env, cluster, network, names


def _inter_host_pairs(cluster, names, count):
    rng = RandomStream(7, "idle-flow-budget")
    pairs = []
    while len(pairs) < count:
        a, b = (names[rng.randrange(len(names))] for _ in range(2))
        if cluster.locate(a) is not cluster.locate(b):
            pairs.append((a, b))
    return pairs


def test_an_idle_inter_host_flow_fits_its_budget():
    """Opens inter-host RDMA flows on a small lease-backed fleet and
    sends nothing: per flow, GC-tracked objects and traced bytes stay
    within budget."""
    env, cluster, network, names = _lease_backed_fleet()
    pairs = _inter_host_pairs(cluster, names, 300)
    flows = []

    def open_all():
        for a, b in pairs:
            flows.append((yield from network.connect_containers(a, b)))

    gc.collect()
    before = gc.get_objects()
    old = {id(obj) for obj in before}
    counts = Counter(map(type, before))
    del before
    tracemalloc.start()
    try:
        env.run(until=env.process(open_all()))
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    after = gc.get_objects()
    new = [obj for obj in after if id(obj) not in old]
    grew = Counter(map(type, after))
    grew.subtract(counts)
    del after

    assert {flow.mechanism for flow in flows} == {Mechanism.RDMA}
    assert sum(grew.values()) / len(flows) <= IDLE_FLOW_OBJECTS, \
        grew.most_common(8)
    assert traced / len(flows) <= IDLE_FLOW_BYTES
    # No window, ring or latency series exists before the first message,
    # and no store holds a buffer or wait queue before its first put.
    assert [obj for obj in new if isinstance(obj, (Tank, StreamingSeries))] \
        == []
    assert [ref for obj in new if isinstance(obj, Store)
            for ref in gc.get_referents(obj)
            if isinstance(ref, (deque, list))] == []
