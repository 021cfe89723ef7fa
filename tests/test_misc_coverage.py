"""Coverage for assorted paths not exercised elsewhere."""

import pytest

from repro.cluster import BinPackStrategy, ClusterOrchestrator, ContainerSpec
from repro.core import FreeFlowAgent, Middlebox, TokenBucket
from repro.errors import (
    AddressError,
    ChannelRebound,
    ConnectionRefused,
    FreeFlowError,
    MigrationError,
    OrchestrationError,
    QueuePairStateError,
    SocketError,
    TransportError,
    TransportUnavailable,
    UnknownContainer,
    VerbsError,
)
from repro.hardware import Fabric, Host
from repro.sim import Environment, ThroughputTimeline
from repro.transports import Mechanism


class TestErrorHierarchy:
    def test_everything_derives_from_freeflow_error(self):
        for exc_type in (
            AddressError, ChannelRebound, ConnectionRefused,
            MigrationError, OrchestrationError, QueuePairStateError,
            SocketError, TransportError, TransportUnavailable,
            UnknownContainer, VerbsError,
        ):
            assert issubclass(exc_type, FreeFlowError)

    def test_specialisations(self):
        assert issubclass(TransportUnavailable, TransportError)
        assert issubclass(UnknownContainer, OrchestrationError)
        assert issubclass(QueuePairStateError, VerbsError)


class TestThroughputTimeline:
    def test_bucketing(self, env):
        timeline = ThroughputTimeline(env, bucket_s=1.0)

        def driver():
            timeline.add(100)
            yield env.timeout(1.0)
            timeline.add(300)
            yield env.timeout(1.0)

        env.run(until=env.process(driver()))
        series = timeline.series()
        assert series == [(0.0, 100.0), (1.0, 300.0)]

    def test_empty_series(self, env):
        assert ThroughputTimeline(env).series() == []
        with pytest.raises(ValueError):
            ThroughputTimeline(env).minimum_rate()

    def test_gap_buckets_are_zero(self, env):
        timeline = ThroughputTimeline(env, bucket_s=1.0)

        def driver():
            timeline.add(10)
            yield env.timeout(2.5)
            timeline.add(10)

        env.run(until=env.process(driver()))
        series = timeline.series()
        assert series[1] == (1.0, 0.0)
        assert timeline.minimum_rate() == 0.0

    def test_validation(self, env):
        with pytest.raises(ValueError):
            ThroughputTimeline(env, bucket_s=0)


class TestFabricHelpers:
    def test_path_latency_closed_form(self, env):
        fabric = Fabric(env)
        latency = fabric.path_latency(1000, rate_bytes=1e6)
        assert latency == pytest.approx(
            2 * 1e-3 + fabric.one_way_latency_s
        )


class TestBinPackScheduling:
    def test_cluster_packs_with_binpack(self, env, fabric):
        cluster = ClusterOrchestrator(env, strategy=BinPackStrategy())
        for name in ("h1", "h2"):
            cluster.add_host(Host(env, name, fabric=fabric))
        placed = [cluster.submit(ContainerSpec(f"c{i}")).host.name
                  for i in range(4)]
        # BinPack keeps piling onto one host.
        assert len(set(placed)) == 1


class TestAgentTcpRelay:
    def test_relay_lane_over_tcp_backing(self, env, host_pair):
        """Agents relay over kernel bypass only: a TCP flow goes straight
        through the kernel path (build_channel), so there is no TCP trunk
        behind shared-memory edges, as there is none for shm."""
        h1, h2 = host_pair
        a1, a2 = FreeFlowAgent(h1), FreeFlowAgent(h2)
        with pytest.raises(TransportUnavailable):
            a1.relay_lane(a2, Mechanism.TCP)


class TestComposedPolicies:
    def test_middlebox_and_rate_limit_compose(self, env, cluster, runner):
        """A flow can be both inspected and shaped."""
        from repro.core import FreeFlowNetwork
        from repro.hardware import gbps
        from repro.metrics import run_stream

        middlebox = Middlebox(name="dpi", cycles_per_byte=0.1)
        network = FreeFlowNetwork(
            cluster,
            middlebox=middlebox,
            tenant_rate_limits={"t": gbps(8)},
        )
        a = cluster.submit(ContainerSpec("a", tenant="t", pinned_host="h1"))
        b = cluster.submit(ContainerSpec("b", tenant="t", pinned_host="h1"))
        network.attach(a)
        network.attach(b)

        def go():
            connection = yield from network.connect_containers("a", "b")
            return connection

        connection = runner(go())
        result = run_stream(env, [(connection.a, connection.b)],
                            duration_s=0.03, hosts=[a.host])
        assert result.gbps == pytest.approx(8, rel=0.15)   # cap binds
        assert middlebox.inspected_messages > 0            # and inspected


class TestSocketBacklog:
    def test_backlog_limits_pending_accepts(self, env, cluster, network):
        from repro.core import SocketLayer

        server = cluster.submit(ContainerSpec("srv", pinned_host="h1"))
        network.attach(server)
        clients = []
        for i in range(3):
            c = cluster.submit(ContainerSpec(f"cl{i}", pinned_host="h1"))
            network.attach(c)
            clients.append(c)
        layer = SocketLayer(network)
        listener = layer.listen(server, 80, backlog=2)
        connected = []

        def client(container):
            sock = layer.socket(container)
            yield from sock.connect(server.ip, 80)
            connected.append(container.name)

        for c in clients:
            env.process(client(c))
        env.run(until=env.now + 0.01)
        # Only backlog-many connects complete while nobody accepts.
        assert len(connected) == 2

        def acceptor():
            yield from listener.accept()

        env.run(until=env.process(acceptor()))
        env.run(until=env.now + 0.01)
        assert len(connected) == 3


class TestOverlayAccounting:
    def test_encap_overhead_on_wire(self, env, host):
        from repro.netstack import OverlayRouter, RoutingMesh

        mesh = RoutingMesh(env)
        router = OverlayRouter(host, mesh.join("h1"))
        plain = host.spec.kernel.wire_bytes(10_000)
        encapped = router.wire_bytes(10_000)
        packets = -(-10_000 // host.spec.kernel.mtu_bytes)
        assert encapped == plain + packets * router.spec.encap_bytes

    def test_router_counters(self, env, host, runner):
        from repro.netstack import (
            EndpointAddr, OverlayRouter, RoutingMesh, Message,
        )

        mesh = RoutingMesh(env)
        router = OverlayRouter(host, mesh.join("h1"))
        delivered = []
        addr = EndpointAddr("10.40.0.2", 80)
        router.register(addr, delivered.append)
        assert router.has_endpoint(addr)
        message = Message(size_bytes=500, dst=addr)
        message.sent_at = env.now
        router.submit(message)
        env.run()
        assert delivered and router.messages_routed == 1
        assert router.bytes_routed == 500
        router.unregister(addr)
        assert not router.has_endpoint(addr)

    def test_router_rejects_self_peer(self, env, host):
        from repro.netstack import OverlayRouter, RoutingMesh

        mesh = RoutingMesh(env)
        router = OverlayRouter(host, mesh.join("h1"))
        with pytest.raises(ValueError):
            router.connect_peer(router)

    def test_duplicate_endpoint_rejected(self, env, host):
        from repro.errors import RoutingError
        from repro.netstack import EndpointAddr, OverlayRouter, RoutingMesh

        mesh = RoutingMesh(env)
        router = OverlayRouter(host, mesh.join("h1"))
        addr = EndpointAddr("10.40.0.2", 80)
        router.register(addr, lambda m: None)
        with pytest.raises(RoutingError):
            router.register(addr, lambda m: None)


class TestVnicAccounting:
    def test_post_counter_increments(self, env, cluster, network, runner):
        from repro.core import Opcode, WorkRequest

        a = cluster.submit(ContainerSpec("pa", pinned_host="h1"))
        b = cluster.submit(ContainerSpec("pb", pinned_host="h1"))
        va, vb = network.attach(a), network.attach(b)
        pa, pb = va.alloc_pd(), vb.alloc_pd()
        qa = va.create_qp(pa, va.create_cq(), va.create_cq())
        qb = vb.create_qp(pb, vb.create_cq(), vb.create_cq())
        mr_b = vb.reg_mr(pb, 1 << 16)

        def go():
            yield from network.connect(qa, qb)
            for _ in range(3):
                yield from qa.post_send(WorkRequest(
                    opcode=Opcode.WRITE, length=64,
                    remote_key=mr_b.rkey, signaled=False,
                ))
            yield env.timeout(0.001)

        runner(go())
        assert va.posts == 3


class TestKvWatchLifecycle:
    def test_cancelled_watch_removed_from_store(self, env):
        from repro.cluster import KeyValueStore

        kv = KeyValueStore(env)
        watch = kv.watch("/x/")
        assert watch in kv._watches
        watch.cancel()
        assert watch not in kv._watches
