"""Unit tests for the FreeFlow network orchestrator."""

import pytest

from repro.cluster import ContainerSpec
from repro.core import NetworkOrchestrator
from repro.errors import UnknownContainer
from repro.transports import Mechanism


@pytest.fixture
def orchestrator(cluster):
    return NetworkOrchestrator(cluster)


@pytest.fixture
def pair(cluster, orchestrator):
    a = cluster.submit(ContainerSpec("a", pinned_host="h1"))
    b = cluster.submit(ContainerSpec("b", pinned_host="h1"))
    orchestrator.register(a)
    orchestrator.register(b)
    return a, b


def test_register_assigns_tenant_scoped_ip(cluster, orchestrator):
    blue = cluster.submit(ContainerSpec("blue1", tenant="blue"))
    red = cluster.submit(ContainerSpec("red1", tenant="red"))
    record_blue = orchestrator.register(blue)
    record_red = orchestrator.register(red)
    assert blue.ip == record_blue.ip
    assert orchestrator.subnets.tenant_of(record_blue.ip) == "blue"
    assert orchestrator.subnets.tenant_of(record_red.ip) == "red"


def test_register_twice_rejected(cluster, orchestrator, pair):
    with pytest.raises(ValueError):
        orchestrator.register(pair[0])


def test_manual_ip_honoured(cluster, orchestrator):
    c = cluster.submit(ContainerSpec("pinned", requested_ip="10.32.0.100"))
    record = orchestrator.register(c)
    assert record.ip == "10.32.0.100"


def test_lookup_by_ip(cluster, orchestrator, pair):
    a, __ = pair
    assert orchestrator.lookup_by_ip(a.ip).container is a
    with pytest.raises(UnknownContainer):
        orchestrator.lookup_by_ip("1.2.3.4")


def test_deregister_releases_ip(cluster, orchestrator, pair):
    a, __ = pair
    ip = a.ip
    orchestrator.deregister("a")
    assert a.ip is None
    with pytest.raises(UnknownContainer):
        orchestrator.lookup("a")
    # The IP can be re-allocated.
    c = cluster.submit(ContainerSpec("c", requested_ip=ip))
    assert orchestrator.register(c).ip == ip


def test_deregister_unknown_is_noop(orchestrator):
    orchestrator.deregister("ghost")


def test_query_mechanism_decides_from_global_state(
    env, cluster, orchestrator, pair, runner
):
    def query():
        decision = yield from orchestrator.query_mechanism("a", "b")
        return decision

    decision = runner(query())
    assert decision.mechanism is Mechanism.SHM  # both pinned to h1


def test_decide_synchronous(orchestrator, pair):
    assert orchestrator.decide("a", "b").mechanism is Mechanism.SHM


def test_nic_capabilities(cluster, orchestrator):
    caps = orchestrator.nic_capabilities("h1")
    assert caps["rdma"] and caps["dpdk"]
    assert caps["link_rate_bps"] == pytest.approx(40e9)
    assert "CX3" in caps["model"]


def test_refresh_location_publishes(cluster, orchestrator, pair):
    a, __ = pair
    watch = orchestrator.kv.watch("/network/containers/a")
    cluster.relocate("a", "h2")
    orchestrator.refresh_location("a")
    events = watch.pending()
    assert events
    assert events[-1].value["host"] == "h2"
    assert events[-1].value["generation"] == a.generation


def test_locate_resolves_physical_host(cluster, orchestrator, pair):
    assert orchestrator.locate("a").name == "h1"


def test_unknown_container_raises(orchestrator):
    with pytest.raises(UnknownContainer):
        orchestrator.lookup("ghost")
    with pytest.raises(UnknownContainer):
        orchestrator.decide("ghost", "ghost2")
