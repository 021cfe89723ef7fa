"""Integration tests: whole-system scenarios across every layer."""

import pytest

import repro
from repro.cluster import ContainerSpec
from repro.core import (
    FreeFlowNetwork,
    MigrationController,
    PolicyConfig,
    SocketLayer,
)
from repro.hardware import NO_RDMA_TESTBED, to_gbps
from repro.metrics import run_pingpong, run_stream
from repro.transports import Mechanism
from repro.workloads import KeyValueStoreApp


def test_quickstart_helper_builds_working_cluster():
    env, cluster, network = repro.quickstart_cluster(hosts=3)
    assert len(cluster.hosts) == 3
    c1 = cluster.submit(ContainerSpec("a"))
    c2 = cluster.submit(ContainerSpec("b"))
    network.attach(c1)
    network.attach(c2)

    def go():
        conn = yield from network.connect_containers("a", "b")
        yield from conn.a.send(1024, payload="hello")
        message = yield from conn.b.recv()
        return message.payload

    process = env.process(go())
    assert env.run(until=process) == "hello"


def test_quickstart_validates_hosts():
    with pytest.raises(ValueError):
        repro.quickstart_cluster(hosts=0)


def test_web_service_three_tiers(env, cluster, network):
    """The paper's §2.1 shape: load balancer + web + cache tiers."""
    tiers = {}
    for name, host in (("lb", "h1"), ("web", "h1"), ("db", "h2")):
        c = cluster.submit(ContainerSpec(name, pinned_host=host))
        network.attach(c)
        tiers[name] = c

    def go():
        front = yield from network.connect_containers("lb", "web")
        back = yield from network.connect_containers("web", "db")
        assert front.mechanism is Mechanism.SHM
        assert back.mechanism is Mechanism.RDMA

        # One request flows through both tiers.
        yield from front.a.send(512, payload="GET /")
        request = yield from front.b.recv()
        yield from back.a.send(256, payload=("query", request.payload))
        query = yield from back.b.recv()
        yield from back.b.send(4096, payload=("rows", query.payload))
        rows = yield from back.a.recv()
        yield from front.b.send(8192, payload=("page", rows.payload))
        page = yield from front.a.recv()
        return page.payload

    process = env.process(go())
    page = env.run(until=process)
    assert page == ("page", ("rows", ("query", "GET /")))


def test_untrusted_tenants_fall_back_to_tcp(env, cluster, network):
    blue = cluster.submit(ContainerSpec("blue", tenant="blue",
                                        pinned_host="h1"))
    red = cluster.submit(ContainerSpec("red", tenant="red",
                                       pinned_host="h1"))
    network.attach(blue)
    network.attach(red)

    def go():
        conn = yield from network.connect_containers("blue", "red")
        return conn.mechanism

    process = env.process(go())
    assert env.run(until=process) is Mechanism.TCP


def test_no_rdma_cluster_uses_dpdk_then_tcp():
    env, cluster, network = repro.quickstart_cluster(
        hosts=2, spec=NO_RDMA_TESTBED
    )
    a = cluster.submit(ContainerSpec("a", pinned_host="host0"))
    b = cluster.submit(ContainerSpec("b", pinned_host="host1"))
    network.attach(a)
    network.attach(b)

    def go():
        conn = yield from network.connect_containers("a", "b")
        return conn.mechanism

    process = env.process(go())
    # NO_RDMA_TESTBED disables both bypasses: TCP is the only option.
    assert env.run(until=process) is Mechanism.TCP


def test_dpdk_chosen_when_rdma_off_but_dpdk_on(env, cluster):
    network = FreeFlowNetwork(
        cluster, policy_config=PolicyConfig(allow_rdma=False)
    )
    a = cluster.submit(ContainerSpec("a", pinned_host="h1"))
    b = cluster.submit(ContainerSpec("b", pinned_host="h2"))
    network.attach(a)
    network.attach(b)

    def go():
        conn = yield from network.connect_containers("a", "b")
        return conn.mechanism

    process = env.process(go())
    assert env.run(until=process) is Mechanism.DPDK


class TestFreeFlowHeadlineClaims:
    """The paper's bottom line, measured end-to-end on the public API."""

    def test_intra_host_freeflow_matches_shm_ipc(self, env, cluster,
                                                 network):
        a = cluster.submit(ContainerSpec("a", pinned_host="h1"))
        b = cluster.submit(ContainerSpec("b", pinned_host="h1"))
        network.attach(a)
        network.attach(b)

        def go():
            conn = yield from network.connect_containers("a", "b")
            return conn

        process = env.process(go())
        conn = env.run(until=process)
        result = run_stream(env, [(conn.a, conn.b)], duration_s=0.02,
                            hosts=[a.host])
        # Paper Fig. 1: shm IPC ≈ 77 Gb/s on this testbed; FreeFlow's
        # intra-host path IS a shm channel, so it must match.
        assert result.gbps == pytest.approx(76.8, rel=0.1)

    def test_inter_host_freeflow_matches_rdma_at_low_cpu(
        self, env, cluster, network, host_pair
    ):
        a = cluster.submit(ContainerSpec("a", pinned_host="h1"))
        b = cluster.submit(ContainerSpec("b", pinned_host="h2"))
        network.attach(a)
        network.attach(b)

        def go():
            conn = yield from network.connect_containers("a", "b")
            return conn

        process = env.process(go())
        conn = env.run(until=process)
        result = run_stream(env, [(conn.a, conn.b)], duration_s=0.02,
                            hosts=list(host_pair))
        assert result.gbps == pytest.approx(39, rel=0.08)
        assert result.total_cpu_percent < 120  # vs ~200 % for kernel TCP

    def test_latency_ordering_freeflow_vs_overlay(self, env, cluster,
                                                  network):
        from repro.baselines import OverlayModeNetwork

        a = cluster.submit(ContainerSpec("a", pinned_host="h1"))
        b = cluster.submit(ContainerSpec("b", pinned_host="h1"))
        network.attach(a)
        network.attach(b)

        def go():
            conn = yield from network.connect_containers("a", "b")
            return conn

        process = env.process(go())
        conn = env.run(until=process)
        freeflow = run_pingpong(env, conn.a, conn.b, rounds=50)

        overlay_net = OverlayModeNetwork(env)
        overlay_conn = overlay_net.connect(a, b)
        overlay = run_pingpong(env, overlay_conn.a, overlay_conn.b,
                               rounds=50)
        assert freeflow.mean_us() < overlay.mean_us() / 5


def test_kv_app_survives_live_migration(env, cluster, network):
    server = cluster.submit(ContainerSpec("kv", pinned_host="h1"))
    client_c = cluster.submit(ContainerSpec("cl", pinned_host="h1"))
    network.attach(server)
    network.attach(client_c)
    app = KeyValueStoreApp(network, server, value_bytes=1024)
    controller = MigrationController(network)

    def go():
        client = yield from app.client(client_c)
        yield from client.put(1, "before-migration")
        yield from controller.live_migrate("kv", "h2", state_bytes=20e6)
        value = yield from client.get(1)
        return value

    process = env.process(go())
    assert env.run(until=process) == "before-migration"


def test_ip_is_location_independent_across_migration(env, cluster, network):
    c = cluster.submit(ContainerSpec("mover", pinned_host="h1"))
    peer = cluster.submit(ContainerSpec("peer", pinned_host="h2"))
    network.attach(c)
    network.attach(peer)
    ip_before = c.ip
    controller = MigrationController(network)

    def go():
        yield from controller.live_migrate("mover", "h2", state_bytes=1e6)

    process = env.process(go())
    env.run(until=process)
    assert c.ip == ip_before  # paper §2.4: IP independent of location
    assert network.orchestrator.lookup_by_ip(ip_before).container is c


def test_multipair_shm_saturates_cores_then_bus(env, cluster, network):
    """Paper §2.4 Figure 2(a): shm scales with pairs until a shared
    resource saturates."""
    from repro.transports import ShmChannel

    host = cluster.host("h1")
    one = run_stream(
        env, [(lambda ch: (ch.a, ch.b))(ShmChannel(host))],
        duration_s=0.01, hosts=[host],
    )
    pairs = [ShmChannel(host) for _ in range(4)]
    four = run_stream(
        env, [(ch.a, ch.b) for ch in pairs], duration_s=0.01, hosts=[host],
    )
    assert four.gbps > one.gbps * 2
    # All four cores busy copying.
    assert four.cpu_percent["h1"] == pytest.approx(400, rel=0.1)


def test_cli_demos_run(capsys):
    """`python -m repro` demos execute and print sane output."""
    from repro.__main__ import main

    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "SHM" in out and "RDMA" in out

    assert main(["matrix"]) == 0
    out = capsys.readouterr().out
    assert "shm" in out and "rdma" in out and "tcp" in out
