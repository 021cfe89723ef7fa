"""Unit + behaviour tests for the FreeFlow network agents."""

import pytest

from repro.core import FreeFlowAgent, build_channel
from repro.errors import TransportError, TransportUnavailable
from repro.hardware import Host, to_gbps
from repro.sim import Environment
from repro.transports import Mechanism


@pytest.fixture
def agents(host_pair):
    h1, h2 = host_pair
    return FreeFlowAgent(h1), FreeFlowAgent(h2)


def _stream(env, channel, duration=0.02, msg=1 << 20):
    got = {"bytes": 0}

    def sender():
        while env.now < duration:
            yield from channel.a.send(msg)

    def receiver():
        while True:
            message = yield from channel.b.recv()
            got["bytes"] += message.size_bytes

    env.process(sender())
    env.process(receiver())
    env.run(until=duration)
    return to_gbps(got["bytes"] / duration)


class TestChannelAssembly:
    def test_shm_requires_colocation(self, agents):
        a1, a2 = agents
        with pytest.raises(TransportUnavailable):
            build_channel(a1, a2, Mechanism.SHM)

    def test_local_channel_is_shm(self, env, host):
        agent = FreeFlowAgent(host)
        channel = build_channel(agent, agent, Mechanism.SHM)
        assert channel.mechanism is Mechanism.SHM

    def test_relay_lane_rejects_same_host(self, env, host):
        agent = FreeFlowAgent(host)
        with pytest.raises(ValueError):
            agent.relay_lane(agent, Mechanism.RDMA)

    def test_relay_channels_by_mechanism(self, env, agents):
        a1, a2 = agents
        for mechanism in (Mechanism.RDMA, Mechanism.DPDK, Mechanism.TCP):
            channel = build_channel(a1, a2, mechanism)
            assert channel.mechanism is mechanism

    def test_relay_refuses_shm_mechanism(self, env, agents):
        a1, a2 = agents
        with pytest.raises(TransportUnavailable):
            a1.relay_lane(a2, Mechanism.SHM)


class TestRelayDataPath:
    def test_roundtrip_preserves_payload_and_order(self, env, agents):
        a1, a2 = agents
        channel = build_channel(a1, a2, Mechanism.RDMA)
        received = []

        def sender():
            for i in range(20):
                yield from channel.a.send(65536, payload=i)

        def receiver():
            for _ in range(20):
                message = yield from channel.b.recv()
                received.append(message.payload)

        env.process(sender())
        done = env.process(receiver())
        env.run(until=done)
        assert received == list(range(20))

    def test_agent_stats_accumulate(self, env, agents, runner):
        a1, a2 = agents
        channel = build_channel(a1, a2, Mechanism.RDMA)

        def flow():
            yield from channel.a.send(1000)
            yield from channel.b.recv()

        runner(flow())
        assert a1.stats.messages_relayed == 1
        assert a1.stats.bytes_relayed == 1000
        assert a2.stats.messages_relayed == 1

    def test_zero_copy_agents_do_not_memcpy(self, env, agents, runner):
        a1, a2 = agents
        channel = build_channel(a1, a2, Mechanism.RDMA)

        def flow():
            yield from channel.a.send(1 << 20)
            yield from channel.b.recv()

        runner(flow())
        assert a1.stats.relay_copies == 0
        assert a2.stats.relay_copies == 0

    def test_copying_agents_memcpy_each_side(self, env, host_pair, runner):
        h1, h2 = host_pair
        a1 = FreeFlowAgent(h1, zero_copy=False)
        a2 = FreeFlowAgent(h2, zero_copy=False)
        channel = build_channel(a1, a2, Mechanism.RDMA)

        def flow():
            yield from channel.a.send(1 << 20)
            yield from channel.b.recv()

        runner(flow())
        assert a1.stats.relay_copies == 1
        assert a2.stats.relay_copies == 1

    def test_oversized_message_rejected(self, env, agents):
        a1, a2 = agents
        channel = build_channel(a1, a2, Mechanism.RDMA)

        def flow():
            yield from channel.a.send(1 << 30)

        process = env.process(flow())
        with pytest.raises(TransportError):
            env.run(until=process)

    def test_closed_relay_rejects_send(self, env, agents):
        a1, a2 = agents
        channel = build_channel(a1, a2, Mechanism.RDMA)
        channel.close()

        def flow():
            yield from channel.a.send(10)

        process = env.process(flow())
        with pytest.raises(TransportError):
            env.run(until=process)

    def test_rings_freed_on_close(self, env, agents):
        a1, a2 = agents
        before_1 = a1.host.memory.allocated_bytes
        before_2 = a2.host.memory.allocated_bytes
        channel = build_channel(a1, a2, Mechanism.RDMA)
        assert a1.host.memory.allocated_bytes > before_1
        channel.close()
        assert a1.host.memory.allocated_bytes == before_1
        assert a2.host.memory.allocated_bytes == before_2


class TestRelayPerformanceShapes:
    def test_rdma_relay_is_wire_bound(self, env, agents):
        a1, a2 = agents
        rate = _stream(env, build_channel(a1, a2, Mechanism.RDMA))
        assert rate == pytest.approx(38.8, rel=0.1)

    def test_rdma_relay_burns_far_less_cpu_than_tcp(self, env, host_pair):
        h1, h2 = host_pair
        a1, a2 = FreeFlowAgent(h1), FreeFlowAgent(h2)
        _stream(env, build_channel(a1, a2, Mechanism.RDMA))
        freeflow_cpu = (
            h1.cpu.utilisation_percent() + h2.cpu.utilisation_percent()
        )

        env2 = Environment()
        from repro.hardware import Fabric

        fabric2 = Fabric(env2)
        g1 = Host(env2, "g1", fabric=fabric2)
        g2 = Host(env2, "g2", fabric=fabric2)
        from repro.netstack import TcpConnection

        _stream(env2, TcpConnection(g1, g2))
        tcp_cpu = g1.cpu.utilisation_percent() + g2.cpu.utilisation_percent()

        # Paper's core claim: similar throughput, a fraction of the CPU.
        assert freeflow_cpu < tcp_cpu / 2

    def test_tcp_relay_close_to_host_mode(self, env, agents):
        a1, a2 = agents
        rate = _stream(env, build_channel(a1, a2, Mechanism.TCP))
        assert rate == pytest.approx(38, rel=0.15)
