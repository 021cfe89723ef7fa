"""Unit tests for the lane framework and the kernel-TCP fallback channel."""

import pytest

from repro.errors import ChannelRebound
from repro.hardware import Host, to_gbps
from repro.netstack import TcpConnection
from repro.sim import Environment
from repro.transports import DuplexChannel, Lane, Mechanism, ShmLane


class TestLaneFramework:
    def test_duplex_requires_matching_mechanisms(self, env, host, host_pair):
        from repro.transports import RdmaLane

        h1, h2 = host_pair
        with pytest.raises(ValueError):
            DuplexChannel(ShmLane(h1), RdmaLane(h1, h2))

    def test_stats_track_messages(self, env, host, runner):
        lane = ShmLane(host)

        def flow():
            yield from lane.send(100)
            yield from lane.send(200)
            yield from lane.recv()
            yield from lane.recv()

        runner(flow())
        assert lane.stats.messages_sent == 2
        assert lane.stats.messages_delivered == 2
        assert lane.stats.payload_bytes == 300
        assert len(lane.stats.latencies) == 2

    def test_eject_receivers_fails_pending_gets(self, env, host):
        lane = ShmLane(host)
        outcome = []

        def receiver():
            try:
                yield from lane.recv()
            except ChannelRebound:
                outcome.append("ejected")

        env.process(receiver())
        env.run(until=0.001)
        lane.eject_receivers(ChannelRebound("swap"))
        env.run()
        assert outcome == ["ejected"]

    def test_mechanism_kernel_bypass_flags(self):
        assert Mechanism.SHM.kernel_bypass
        assert Mechanism.RDMA.kernel_bypass
        assert Mechanism.DPDK.kernel_bypass
        assert not Mechanism.TCP.kernel_bypass


class TestTcpFallback:
    def test_mechanism_is_tcp(self, env, host_pair):
        h1, h2 = host_pair
        channel = TcpConnection(h1, h2)
        assert channel.mechanism is Mechanism.TCP

    def test_roundtrip_both_directions(self, env, host_pair, runner):
        h1, h2 = host_pair
        channel = TcpConnection(h1, h2)

        def flow():
            yield from channel.a.send(1000, payload="fwd")
            fwd = yield from channel.b.recv()
            yield from channel.b.send(1000, payload="rev")
            rev = yield from channel.a.recv()
            return fwd.payload, rev.payload

        assert runner(flow()) == ("fwd", "rev")

    def test_throughput_matches_host_mode(self, env, host_pair):
        h1, h2 = host_pair
        channel = TcpConnection(h1, h2)
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
        assert to_gbps(got["bytes"] / duration) == pytest.approx(38, rel=0.08)

    def test_lane_stats_accumulate(self, env, host_pair, runner):
        h1, h2 = host_pair
        channel = TcpConnection(h1, h2)

        def flow():
            yield from channel.a.send(500)
            yield from channel.b.recv()

        runner(flow())
        assert channel.a.send_stats.messages_sent == 1
        # a's outgoing lane is b's incoming lane: same stats object.
        assert channel.a.send_stats is channel.b.recv_stats
        assert channel.b.recv_stats.messages_delivered == 1

    def test_connection_is_a_duplex_channel_of_lanes(self, env, host_pair):
        h1, h2 = host_pair
        channel = TcpConnection(h1, h2)
        assert isinstance(channel, DuplexChannel)
        assert isinstance(channel.lane_ab, Lane)
        assert channel.lane_ab.mechanism is Mechanism.TCP
        assert channel.a.send_stats is channel.lane_ab.stats

    def test_send_counts_once_the_kernel_accepts(self, env, host_pair):
        """A send still inside the sender's syscall is not in flight: the
        lane counts it when ``send`` returns."""
        h1, h2 = host_pair
        channel = TcpConnection(h1, h2)
        stats = channel.a.send_stats
        sending = env.process(channel.a.send(1 << 20))
        env.run(until=1e-6)
        assert sending.is_alive
        assert stats.messages_sent == 0
        env.run(until=sending)
        assert stats.messages_sent == 1
