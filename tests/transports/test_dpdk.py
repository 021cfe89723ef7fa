"""Unit + behaviour tests for the DPDK transport."""

import gc
import weakref

import pytest

from repro.analysis import waitfor
from repro.errors import TransportUnavailable
from repro.hardware import Fabric, Host, NO_RDMA_TESTBED, to_gbps
from repro.sim import Environment
from repro.transports import DpdkChannel, DpdkEngine, Mechanism


def test_requires_dpdk_nic(env, fabric):
    plain = Host(env, "h1", spec=NO_RDMA_TESTBED, fabric=fabric)
    with pytest.raises(TransportUnavailable):
        DpdkEngine(plain)


def test_one_engine_per_host(env, host):
    first = DpdkEngine.on_host(host)
    second = DpdkEngine.on_host(host)
    assert first is second


def test_engine_dedicates_a_core(env, host):
    DpdkEngine.on_host(host)
    assert host.cpu.busy_cores == 1


def test_shutdown_releases_core(env, host):
    engine = DpdkEngine.on_host(host)
    engine.shutdown()
    assert host.cpu.busy_cores == 0
    # A new engine can start afterwards.
    assert DpdkEngine.on_host(host) is not engine


def _dpdk_simulation():
    """Two hosts, one DPDK channel, one message delivered."""
    env = Environment()
    fabric = Fabric(env)
    a, b = Host(env, "a", fabric=fabric), Host(env, "b", fabric=fabric)
    channel = DpdkChannel(a, b)

    def flow():
        yield from channel.a.send(1500)
        yield from channel.b.recv()

    env.run(until=env.process(flow()))
    return env, a, b


@pytest.fixture
def waitfor_disarmed():
    """The wait-for graph, when the suite arms it, keeps every process
    and resource it has named; run with it off, re-arming it after."""
    was_installed = waitfor.installed()
    waitfor.uninstall()
    yield
    if was_installed:
        waitfor.install()


def test_dropped_simulation_is_freed(waitfor_disarmed):
    alive = weakref.ref(_dpdk_simulation()[0])
    gc.collect()
    assert alive() is None


def test_idle_engine_lives_as_long_as_its_host():
    _, a, b = _dpdk_simulation()
    engine = weakref.ref(a.nic.pmd)
    gc.collect()  # the channel is gone; its hosts are not
    DpdkChannel(a, b)
    assert a.nic.pmd is engine()
    assert a.cpu.busy_cores == 1


def test_roundtrip(env, host_pair, runner):
    h1, h2 = host_pair
    channel = DpdkChannel(h1, h2)
    assert channel.mechanism is Mechanism.DPDK

    def flow():
        yield from channel.a.send(9000, payload="pkt")
        message = yield from channel.b.recv()
        return message

    assert runner(flow()).payload == "pkt"


def test_interhost_throughput_near_link_rate(env, host_pair):
    h1, h2 = host_pair
    channel = DpdkChannel(h1, h2)
    got = {"bytes": 0}
    duration = 0.02

    def sender():
        while env.now < duration:
            yield from channel.a.send(1 << 20)

    def receiver():
        while True:
            message = yield from channel.b.recv()
            got["bytes"] += message.size_bytes

    env.process(sender())
    env.process(receiver())
    env.run(until=duration)
    rate = to_gbps(got["bytes"] / duration)
    assert rate == pytest.approx(38.8, rel=0.12)


def test_pmd_core_always_burns(env, host_pair):
    """DPDK's cost: one fully-busy core per host even when idle-ish."""
    h1, h2 = host_pair
    DpdkChannel(h1, h2)
    env.run(until=0.01)
    assert h1.cpu.utilisation_percent() == pytest.approx(100, rel=0.05)
    assert h2.cpu.utilisation_percent() == pytest.approx(100, rel=0.05)


def test_in_order_delivery(env, host_pair):
    h1, h2 = host_pair
    channel = DpdkChannel(h1, h2)
    received = []

    def sender():
        for i in range(15):
            yield from channel.a.send(50_000, payload=i)

    def receiver():
        for _ in range(15):
            message = yield from channel.b.recv()
            received.append(message.payload)

    env.process(sender())
    done = env.process(receiver())
    env.run(until=done)
    assert received == list(range(15))


def test_closed_lane_rejects_send(env, host_pair):
    h1, h2 = host_pair
    channel = DpdkChannel(h1, h2)
    channel.close()

    def flow():
        yield from channel.a.send(10)

    process = env.process(flow())
    with pytest.raises(TransportUnavailable):
        env.run(until=process)
