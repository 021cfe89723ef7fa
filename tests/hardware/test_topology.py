"""Unit tests for the fat-tree topology and multi-path fabric."""

import pytest

from repro.errors import RoutingError
from repro.hardware import Fabric, FatTreeFabric, FatTreeTopology, PhysicalNic
from repro.hardware.topology import FlowletTracer
from repro.netstack.pathsel import FLOWLET_GAP_S, PathSelector
from repro.sim import Environment


# ---------------------------------------------------------------- topology


def test_fat_tree_shape_k4(env):
    topo = FatTreeTopology(env, k=4)
    assert len(topo.edges) == 4 and all(len(t) == 2 for t in topo.edges)
    assert len(topo.aggs) == 4 and all(len(t) == 2 for t in topo.aggs)
    assert len(topo.cores) == 4
    assert topo.host_capacity == 16
    links = topo.links()
    # 4 pods x (2 edge x 2 agg) cables + 4 cores x 4 pods cables,
    # two directed links per cable.
    assert len(links) == (4 * 4 + 4 * 4) * 2
    assert sum(1 for link in links if link.tier == "edge-agg") == 32
    assert sum(1 for link in links if link.tier == "agg-core") == 32


def test_fat_tree_rejects_bad_arity(env):
    with pytest.raises(ValueError):
        FatTreeTopology(env, k=3)
    with pytest.raises(ValueError):
        FatTreeTopology(env, k=0)
    with pytest.raises(ValueError):
        FatTreeTopology(env, k=4, core_rate_scale=0)


def test_core_wiring_one_agg_per_pod(env):
    """Core group g connects to agg index g in every pod."""
    topo = FatTreeTopology(env, k=4)
    for core in topo.cores:
        for pod in range(4):
            agg = topo.pod_aggs(pod)[core.group]
            assert topo.link(agg, core).up
            assert topo.link(core, agg).up
    for agg_row in topo.aggs:
        for agg in agg_row:
            assert [c.group for c in topo.agg_cores(agg)] == [agg.index] * 2


def test_edge_for_port_is_pod_major(env):
    topo = FatTreeTopology(env, k=4)
    assert topo.edge_for_port(0).name == "edge0.0"
    assert topo.edge_for_port(1).name == "edge0.0"
    assert topo.edge_for_port(2).name == "edge0.1"
    assert topo.edge_for_port(4).name == "edge1.0"
    assert topo.edge_for_port(15).name == "edge3.1"
    with pytest.raises(ValueError):
        topo.edge_for_port(16)


def test_fail_cable_downs_both_directions_and_bumps_version(env):
    topo = FatTreeTopology(env, k=4)
    version = topo.version
    pair = topo.fail_cable("agg0.0", "core0.0")
    assert all(not link.up for link in pair)
    assert len(topo.down_links()) == 2
    assert topo.version == version + 1
    topo.heal_cable("agg0.0", "core0.0")
    assert not topo.down_links()
    assert topo.version == version + 2
    with pytest.raises(ValueError):
        topo.fail_cable("agg0.0", "nope")


def test_tier_utilisation_keys(env):
    topo = FatTreeTopology(env, k=4)
    util = topo.tier_utilisation()
    assert set(util) == {"edge-agg", "agg-core"}
    assert all(value == 0.0 for value in util.values())
    assert len(topo.link_utilisation()) == 64


# ---------------------------------------------------------------- tracer


def test_flowlet_tracer_counts_inversions():
    tracer = FlowletTracer()
    tracer.observe(("f", 0, 0), 0)
    tracer.observe(("f", 0, 0), 1)
    tracer.observe(("f", 0, 0), 3)
    assert tracer.reorders == 0
    tracer.observe(("f", 0, 0), 2)
    assert tracer.reorders == 1
    assert tracer.violations == [(("f", 0, 0), 3, 2)]
    # A different flowlet key is a fresh sequence space.
    tracer.observe(("f", 1, 0), 0)
    assert tracer.reorders == 1


def test_flowlet_tracer_state_is_bounded():
    tracer = FlowletTracer()
    for i in range(tracer.MAX_FLOWLETS + 100):
        tracer.observe(("f", i, 0), 0)
    assert len(tracer._last_seq) <= tracer.MAX_FLOWLETS


# ---------------------------------------------------------------- fabric


def _tree(env, **kwargs):
    fabric = FatTreeFabric(env, k=4, **kwargs)
    nics = [PhysicalNic(env) for _ in range(6)]
    for nic in nics:
        fabric.attach(nic)
    return fabric, nics


def test_attach_assigns_ports_and_pods(env):
    fabric, nics = _tree(env)
    assert [fabric.port_of(nic) for nic in nics] == list(range(6))
    assert fabric.edge_of(nics[0]).name == "edge0.0"
    assert fabric.pod_of(nics[0]) == 0
    assert fabric.pod_of(nics[4]) == 1


def test_attach_rejects_overflow(env):
    fabric = FatTreeFabric(env, k=2)
    for _ in range(fabric.topology.host_capacity):
        fabric.attach(PhysicalNic(env))
    with pytest.raises(ValueError):
        fabric.attach(PhysicalNic(env))


def test_send_rejects_foreign_and_loopback(env):
    fabric, nics = _tree(env)
    other = PhysicalNic(env)
    with pytest.raises(ValueError):
        next(fabric.send(nics[0], other, 1, lambda: None))
    with pytest.raises(ValueError):
        next(fabric.send(nics[0], nics[0], 1, lambda: None))


def test_interpod_transfer_matches_closed_form(env):
    fabric, nics = _tree(env)
    src, dst = nics[0], nics[4]  # pod0 -> pod1: four hops
    done = []

    def go():
        yield from fabric.send(src, dst, 64 * 1024, lambda: done.append(env.now))

    env.process(go())
    env.run()
    rate = src.spec.goodput_bytes
    assert done == [pytest.approx(fabric.path_latency(64 * 1024, rate))]


def test_oversubscribed_core_caps_only_cross_pod_traffic(env):
    """At core_rate_scale=0.25 a pod-crossing stream gets a quarter of
    the link rate; a stream that stays inside the pod keeps all of it."""
    fabric, nics = _tree(env, core_rate_scale=0.25)
    moved = {"pod": 0, "cross": 0}
    duration = 5e-3

    def stream(src, dst, key):
        def deliver():
            moved[key] += 64 * 1024

        def go():
            while env.now < duration:
                yield from fabric.send(src, dst, 64 * 1024, deliver)
        env.process(go())

    stream(nics[2], nics[0], "pod")    # edge0.1 -> edge0.0
    stream(nics[1], nics[4], "cross")  # pod 0 -> pod 1
    env.run(until=duration)
    rate = nics[0].spec.goodput_bytes
    assert moved["pod"] / duration == pytest.approx(rate, rel=0.05)
    assert moved["cross"] / duration == pytest.approx(0.25 * rate, rel=0.05)


def test_cross_pod_conservation_and_order(env):
    fabric, nics = _tree(env)
    delivered = []

    def stream(src, dst, count, tag):
        def go():
            for i in range(count):
                yield from fabric.send(
                    src, dst, 4096, lambda i=i: delivered.append((tag, i))
                )
        env.process(go())

    stream(nics[0], nics[4], 20, "a")
    stream(nics[1], nics[5], 20, "b")
    env.run()
    assert len(delivered) == 40
    for tag in ("a", "b"):
        seqs = [i for t, i in delivered if t == tag]
        assert seqs == sorted(seqs)
    assert fabric.reorders() == 0
    assert fabric.tracer.checked == 40


def test_core_failure_reroutes_and_conserves(env):
    fabric, nics = _tree(env)
    src, dst = nics[0], nics[4]
    delivered = []

    def burst(count):
        def go():
            for i in range(count):
                yield from fabric.send(
                    src, dst, 4096, lambda: delivered.append(env.now)
                )
        return env.process(go())

    env.run(until=burst(10))
    busy = fabric.busiest_core_link()
    assert busy.pipe.bytes_moved > 0
    fabric.fail_link(busy.src.name, busy.dst.name)
    # A frame already on the wire finishes its hop; once the fabric
    # quiesces the dead link is byte-frozen.
    env.run()
    frozen = busy.pipe.bytes_moved
    env.run(until=burst(10))
    env.run()
    assert len(delivered) == 20
    assert busy.pipe.bytes_moved == frozen
    assert fabric.reorders() == 0
    fabric.heal_link(busy.src.name, busy.dst.name)
    assert not fabric.topology.down_links()


def test_fail_link_mid_flight_detours_queued_traffic(env):
    fabric, nics = _tree(env)
    src, dst = nics[0], nics[4]
    delivered = []

    def sender():
        for _ in range(5):
            yield from fabric.send(
                src, dst, 64 * 1024, lambda: delivered.append(env.now)
            )

    def killer():
        # Land the cut while messages are queued inside the tree.
        yield env.timeout(20e-6)
        busy = fabric.busiest_core_link()
        fabric.fail_link(busy.src.name, busy.dst.name)

    env.process(sender())
    env.process(killer())
    env.run()
    assert len(delivered) == 5
    assert fabric.reorders() == 0


def test_no_alive_path_raises(env):
    fabric = FatTreeFabric(env, k=2)
    a, b = PhysicalNic(env), PhysicalNic(env)
    fabric.attach(a)
    fabric.attach(b)
    # k=2: one edge per pod, one agg per pod, one core.
    fabric.fail_link("edge0.0", "agg0.0")

    def go():
        yield from fabric.send(a, b, 4096, lambda: None)

    env.process(go())
    with pytest.raises(RoutingError):
        env.run()


def _cut_pair(env, kind):
    """A fabric of ``kind`` and a (src, dst) NIC pair on it; on the
    fat-tree the pair sits in different pods."""
    if kind == "flat":
        fabric = Fabric(env)
        nics = [PhysicalNic(env) for _ in range(2)]
        for nic in nics:
            fabric.attach(nic)
        return fabric, nics[0], nics[1]
    fabric, nics = _tree(env)
    return fabric, nics[0], nics[4]


@pytest.mark.parametrize("kind", ["flat", "fat-tree"])
def test_partition_parks_until_heal(env, kind):
    """A cut parks traffic at the delivery stage, before ingress, and
    heal releases it in order with every byte.  The cut lands while the
    first message is in ingress: that one completes, and the small one
    already queued behind it parks."""
    fabric, src, dst = _cut_pair(env, kind)
    sizes = [256 * 1024, 64, 4096, 64 * 1024]
    late = 1500  # sent into the cut
    delivered = []
    first_ingress = sizes[0] / dst.spec.goodput_bytes
    cut_at = fabric.path_latency(sizes[0], dst.spec.goodput_bytes) \
        - first_ingress / 2
    heal_at = 1e-3

    def deliver(i, size):
        return lambda: delivered.append((i, size, env.now))

    def sender():
        for i, size in enumerate(sizes):
            yield from fabric.send(src, dst, size, deliver(i, size))
        yield env.timeout(heal_at / 2 - env.now)
        assert fabric.partitioned(src, dst)
        yield from fabric.send(src, dst, late, deliver(len(sizes), late))

    def cut():
        yield env.timeout(cut_at)
        fabric.partition([src], [dst])

    env.process(sender())
    env.process(cut())
    env.run(until=heal_at)
    assert [i for i, _, _ in delivered] == [0]
    fabric.heal()
    env.run()
    assert [i for i, _, _ in delivered] == list(range(len(sizes) + 1))
    assert sum(size for _, size, _ in delivered) == sum(sizes) + late
    assert all(at >= heal_at for _, _, at in delivered[1:])
    if kind == "fat-tree":
        assert fabric.reorders() == 0


# ------------------------------------------- degenerate modes: flat fabric


def _mixed_incast(fabric_cls, **kwargs):
    """Two senders on one edge stream mixed sizes into a third host on
    that edge; returns every delivery as (sender, index, time)."""
    env = Environment()
    fabric = fabric_cls(env, **kwargs)
    nics = [PhysicalNic(env) for _ in range(3)]
    for nic in nics:
        fabric.attach(nic)
    sizes = {"a": [64, 256 * 1024, 1500, 64 * 1024,
                   9000, 128 * 1024, 512, 4096],
             "b": [256 * 1024, 64, 32 * 1024, 1500,
                   128 * 1024, 64, 9000, 64 * 1024]}
    delivered = []

    def sender(src, tag):
        for i, size in enumerate(sizes[tag]):
            yield from fabric.send(
                src, nics[2], size,
                lambda tag=tag, i=i: delivered.append((tag, i, env.now)),
            )

    env.process(sender(nics[0], "a"))
    env.process(sender(nics[1], "b"))
    env.run()
    return delivered


def test_same_edge_traffic_is_exactly_the_flat_fabric():
    """Hosts on one edge switch share no fabric link: on a fat-tree
    their traffic is an empty path into the flat fabric's delivery
    stage, so every delivery lands at the same time, in the same order,
    even with two senders contending for one ingress."""
    flat = _mixed_incast(Fabric)
    assert len(flat) == 16
    assert _mixed_incast(FatTreeFabric, k=6) == flat


def _lone_delivery(fabric_cls, dst_port, size, **kwargs):
    """Sim time at which one message from port 0 to ``dst_port`` lands
    on an otherwise idle fabric, and the fabric it crossed."""
    env = Environment()
    fabric = fabric_cls(env, **kwargs)
    nics = [PhysicalNic(env) for _ in range(dst_port + 1)]
    for nic in nics:
        fabric.attach(nic)
    done = []

    def go():
        yield from fabric.send(nics[0], nics[dst_port], size,
                               lambda: done.append(env.now))

    env.process(go())
    env.run()
    return done[0], fabric


def test_uncontended_tree_path_is_flat_plus_per_hop_terms():
    """Each fat-tree link adds one store-and-forward hop, its
    serialisation plus the switch's one-way latency, to the flat
    fabric's time: two links inside a pod, four across pods."""
    size = 64 * 1024
    flat, fabric = _lone_delivery(Fabric, 1, size)
    hop = (size / fabric.nics[0].spec.goodput_bytes
           + fabric.one_way_latency_s)
    same_pod, _ = _lone_delivery(FatTreeFabric, 2, size, k=4)
    cross_pod, _ = _lone_delivery(FatTreeFabric, 4, size, k=4)
    assert same_pod == flat + 2 * hop
    assert cross_pod == flat + 4 * hop


# ------------------------------------------- degenerate modes: plain ECMP


def _paths_taken(fabric, flows, rounds, gap_s):
    """Send one message per flow per round, idle ``gap_s`` between
    rounds, and return the (sorted) names of the links each message
    crossed."""
    env = fabric.env
    links = fabric.topology.links()
    taken = []
    for _ in range(rounds):
        for src, dst, flow in flows:
            moved = [link.pipe.bytes_moved for link in links]

            def go():
                yield from fabric.send(src, dst, 4096, lambda: None,
                                       flow=flow)

            env.run(until=env.process(go()))
            env.run()
            taken.append(tuple(sorted(
                link.name for link, before in zip(links, moved)
                if link.pipe.bytes_moved > before)))
        env.run(until=env.now + gap_s)
    return taken


def _ecmp_flows(nics):
    """Three flows on each of four host pairs, cross-pod and in-pod."""
    return [(nics[src], nics[dst], flow)
            for src, dst in ((0, 4), (1, 5), (2, 4), (0, 2))
            for flow in range(3)]


def test_infinite_flowlet_gap_is_plain_ecmp():
    """``flowlet_gap_s=inf`` never re-hashes: across idle gaps far above
    FLOWLET_GAP_S every flow stays on the path a plain-ECMP selector
    picks for it.  The default fabric, given the same traffic, moves
    flows."""
    rounds, gap = 4, 50 * FLOWLET_GAP_S
    env = Environment()
    fabric, nics = _tree(env, flowlet_gap_s=float("inf"))
    flows = _ecmp_flows(nics)
    taken = _paths_taken(fabric, flows, rounds, gap)
    ecmp = PathSelector(fabric.topology, flowlet_gap_s=None)
    expected = []
    for src, dst, flow in flows * rounds:
        key = (fabric.port_of(src), fabric.port_of(dst), flow)
        route = ecmp.route(0.0, fabric.edge_of(src), fabric.edge_of(dst), key)
        expected.append(tuple(sorted(link.name for link in route.path)))
    assert taken == expected
    assert fabric.selector.rehashes == 0

    env = Environment()
    flowlet, nics = _tree(env)
    moved = _paths_taken(flowlet, _ecmp_flows(nics), rounds, gap)
    count = len(flows)
    assert flowlet.selector.rehashes > 0
    assert any(len(set(moved[i::count])) > 1 for i in range(count))


def test_quickstart_fat_tree_cluster():
    from repro import quickstart_cluster

    env, cluster, network = quickstart_cluster(hosts=5, fat_tree_k=4)
    fabric = cluster.host("host0").nic.fabric
    assert isinstance(fabric, FatTreeFabric)
    assert fabric.pod_of(cluster.host("host4").nic) == 1
