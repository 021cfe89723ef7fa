"""Unit tests for the NIC and the switched fabric."""

import gc
from collections import Counter

import pytest

from repro.hardware import Fabric, Host, NicSpec, PhysicalNic, PAPER_TESTBED
from repro.sim import Process, Stage, Store


def test_nic_capabilities_follow_spec(env):
    nic = PhysicalNic(env, NicSpec(rdma_capable=False, dpdk_capable=True))
    assert not nic.rdma_capable
    assert nic.dpdk_capable


def test_goodput_below_link_rate(env):
    nic = PhysicalNic(env)
    assert nic.spec.goodput_bytes < nic.spec.link_rate_bytes
    assert nic.spec.link_rate_bytes == pytest.approx(5e9)


def test_engine_service_takes_op_time(env, runner):
    nic = PhysicalNic(env)

    def op():
        yield from nic.engine_service()
        return env.now

    assert runner(op()) == pytest.approx(nic.spec.rdma_engine_op_seconds)


def test_engine_serialises_ops(env):
    nic = PhysicalNic(env)
    finished = []

    def op(name):
        yield from nic.engine_service()
        finished.append((env.now, name))

    env.process(op("a"))
    env.process(op("b"))
    env.run()
    assert finished[1][0] == pytest.approx(2 * nic.spec.rdma_engine_op_seconds)


def test_engine_utilisation_tracked(env):
    nic = PhysicalNic(env)

    def ops():
        for _ in range(10):
            yield from nic.engine_service()

    done = env.process(ops())
    env.run(until=done)
    assert nic.engine_utilisation() == pytest.approx(1.0)


def test_fabric_attach_and_reject_duplicates(env):
    fabric = Fabric(env)
    nic = PhysicalNic(env)
    fabric.attach(nic)
    assert nic.fabric is fabric
    with pytest.raises(ValueError):
        fabric.attach(nic)


def test_fabric_send_delivers_after_latency_and_serialisation(env):
    fabric = Fabric(env)
    h1 = Host(env, "h1", fabric=fabric)
    h2 = Host(env, "h2", fabric=fabric)
    delivered = []

    def send():
        yield from fabric.send(
            h1.nic, h2.nic, 1_000_000, deliver=lambda: delivered.append(env.now)
        )

    env.process(send())
    env.run()
    serialisation = 1_000_000 / h1.nic.spec.goodput_bytes
    expected = 2 * serialisation + fabric.one_way_latency_s
    assert delivered[0] == pytest.approx(expected, rel=0.01)


def test_fabric_send_requires_attached_nics(env):
    fabric = Fabric(env)
    h1 = Host(env, "h1", fabric=fabric)
    lonely = PhysicalNic(env)

    def send():
        yield from fabric.send(h1.nic, lonely, 10, deliver=lambda: None)

    process = env.process(send())
    with pytest.raises(ValueError):
        env.run(until=process)


def test_fabric_rejects_loopback(env):
    fabric = Fabric(env)
    h1 = Host(env, "h1", fabric=fabric)

    def send():
        yield from fabric.send(h1.nic, h1.nic, 10, deliver=lambda: None)

    process = env.process(send())
    with pytest.raises(ValueError):
        env.run(until=process)


def test_pipelined_sends_reach_link_rate(env):
    """Back-to-back sends must pipeline (egress is paid by the caller,
    propagation+ingress happen asynchronously)."""
    fabric = Fabric(env)
    h1 = Host(env, "h1", fabric=fabric)
    h2 = Host(env, "h2", fabric=fabric)
    delivered = []
    message = 1_000_000

    def send_many():
        for _ in range(10):
            yield from fabric.send(
                h1.nic, h2.nic, message,
                deliver=lambda: delivered.append(env.now),
            )

    env.process(send_many())
    env.run()
    total = 10 * message
    rate = total / delivered[-1]
    assert rate == pytest.approx(h1.nic.spec.goodput_bytes, rel=0.15)


def test_a_pair_that_has_gone_idle_holds_no_process_and_no_store(env):
    """The flat fabric's delivery stage for a (src, dst) pair exists
    only while the pair has a message in it.  Once every pair has gone
    idle, no stage, process or Store of theirs is left, not even in a
    cycle for the collector."""
    fabric = Fabric(env)
    nics = [PhysicalNic(env) for _ in range(3)]
    for nic in nics:
        fabric.attach(nic)
    pairs = [(0, 1), (1, 0), (0, 2)]
    staged = set()

    def traffic():
        for _ in range(3):
            for src, dst in pairs:
                yield from fabric.send(nics[src], nics[dst], 4096,
                                       lambda: staged.update(fabric._stages))

    gc.collect()
    gc.disable()
    try:
        before = Counter(map(type, gc.get_objects()))
        env.process(traffic())
        env.run()
        grew = Counter(map(type, gc.get_objects()))
    finally:
        gc.enable()
    grew.subtract(before)
    assert len(staged) == len(pairs)
    assert fabric._stages == {}
    assert grew[Process] == grew[Store] == grew[Stage] == 0


def test_host_assembles_paper_testbed(env, fabric):
    host = Host(env, "h1", fabric=fabric)
    assert host.spec is PAPER_TESTBED
    assert host.cpu.cores == 4
    assert host.rdma_capable and host.dpdk_capable
    assert host.fabric is fabric
    assert host.nic.host is host


def test_host_without_rdma_spec(env):
    host = Host(env, "h1", spec=PAPER_TESTBED.without_rdma())
    assert not host.rdma_capable
    assert not host.dpdk_capable


def test_reset_accounting_clears_counters(env, fabric):
    host = Host(env, "h1", fabric=fabric)

    def work():
        yield from host.cpu.execute(1e6)

    env.process(work())
    env.run()
    assert host.cpu.utilisation() > 0
    host.reset_accounting()
    assert host.cpu.utilisation() == pytest.approx(0.0)


class TestTwoTierFabric:
    """Rack-local versus cross-core traffic below an oversubscribed core.

    ``FatTreeFabric(core_rate_scale=0.25)`` gives each core link a
    quarter of the 40G link rate. A rack is an edge switch; only traffic
    between pods crosses the core. Plain ECMP keeps a flow on one core
    link, where flowlets would spread it over several.
    """

    def _stream_gbps(self, dst_port):
        from repro.hardware import FatTreeFabric, to_gbps
        from repro.sim import Environment
        from repro.transports import RdmaChannel

        env = Environment()
        fabric = FatTreeFabric(env, k=4, core_rate_scale=0.25,
                               flowlet_gap_s=float("inf"))
        hosts = [Host(env, f"h{i}", fabric=fabric)
                 for i in range(dst_port + 1)]
        channel = RdmaChannel(hosts[0], hosts[dst_port])
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
        return to_gbps(got["bytes"] / duration)

    def test_oversubscribed_core_caps_cross_rack_traffic(self):
        """A quarter-rate core throttles cross-pod flows below the 40G
        NICs, to about a quarter of their 38.8 Gb/s goodput."""
        assert self._stream_gbps(dst_port=4) == pytest.approx(0.25 * 38.8,
                                                              rel=0.15)

    def test_intra_rack_traffic_keeps_full_rate(self):
        assert self._stream_gbps(dst_port=1) == pytest.approx(38.8, rel=0.1)
