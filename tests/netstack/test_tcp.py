"""Unit + behaviour tests for the kernel TCP path and its modes."""

import pytest

from repro.hardware import Host, Fabric, to_gbps
from repro.netstack import (
    EndpointAddr,
    Message,
    OverlayRouter,
    RoutingMesh,
    SoftwareBridge,
    TcpConnection,
    TcpMode,
    segment_count,
)
from repro.sim import Environment


def _connect(h1, h2, mode=TcpMode.HOST, **kw):
    return TcpConnection(
        h1, h2, EndpointAddr("a", 1), EndpointAddr("b", 1), mode=mode, **kw
    )


class TestPacketHelpers:
    def test_segment_count(self):
        assert segment_count(0, 1000) == 1
        assert segment_count(1, 1000) == 1
        assert segment_count(1000, 1000) == 1
        assert segment_count(1001, 1000) == 2

    def test_segment_count_bad_segment(self):
        with pytest.raises(ValueError):
            segment_count(10, 0)

    def test_message_validation(self):
        with pytest.raises(ValueError):
            Message(size_bytes=-1)

    def test_message_latency(self):
        message = Message(size_bytes=10)
        message.sent_at = 1.0
        message.delivered_at = 3.0
        assert message.latency == 2.0

    def test_endpoint_addr_str(self):
        assert str(EndpointAddr("10.0.0.1", 80)) == "10.0.0.1:80"


class TestTcpConnection:
    def test_send_recv_roundtrip(self, env, host, runner):
        conn = _connect(host, host)

        def flow():
            yield from conn.a.send(1000, payload="hello")
            message = yield from conn.b.recv()
            return message

        message = runner(flow())
        assert message.payload == "hello"
        assert message.size_bytes == 1000
        assert message.latency > 0

    def test_duplex_both_directions(self, env, host, runner):
        conn = _connect(host, host)

        def flow():
            yield from conn.a.send(100, payload="ping")
            ping = yield from conn.b.recv()
            yield from conn.b.send(100, payload="pong")
            pong = yield from conn.a.recv()
            return ping.payload, pong.payload

        assert runner(flow()) == ("ping", "pong")

    def test_messages_arrive_in_order(self, env, host):
        conn = _connect(host, host)
        received = []

        def sender():
            for i in range(20):
                yield from conn.a.send(50_000, payload=i)

        def receiver():
            for _ in range(20):
                message = yield from conn.b.recv()
                received.append(message.payload)

        env.process(sender())
        done = env.process(receiver())
        env.run(until=done)
        assert received == list(range(20))

    def test_window_backpressure_limits_inflight(self, env, host):
        """A one-message window forces lock-step with the receive stage:
        finishing N sends must take longer than with a large window."""

        def elapsed_for(window_bytes):
            local_env = Environment()
            local_host = Host(local_env, "h1")
            conn = TcpConnection(
                local_host, local_host,
                EndpointAddr("a", 1), EndpointAddr("b", 1),
                window_bytes=window_bytes,
            )

            def sender():
                for _ in range(20):
                    yield from conn.a.send(600)
                return local_env.now

            done = local_env.process(sender())
            return local_env.run(until=done)

        assert elapsed_for(600) > elapsed_for(4 * 1024 * 1024) * 1.2

    def test_bridge_mode_requires_bridges(self, env, host):
        with pytest.raises(ValueError):
            _connect(host, host, mode=TcpMode.BRIDGE)

    def test_overlay_mode_requires_routers(self, env, host):
        with pytest.raises(ValueError):
            _connect(host, host, mode=TcpMode.OVERLAY)

    def test_cross_environment_rejected(self, env):
        other = Environment()
        h1 = Host(env, "h1")
        h2 = Host(other, "h2")
        with pytest.raises(ValueError):
            _connect(h1, h2)

    def test_closed_connection_rejects_send(self, env, host):
        conn = _connect(host, host)
        conn.close()

        def flow():
            yield from conn.a.send(10)

        process = env.process(flow())
        with pytest.raises(Exception):
            env.run(until=process)

    def test_recv_stats_accumulate(self, env, host, runner):
        conn = _connect(host, host)

        def flow():
            for _ in range(3):
                yield from conn.a.send(100)
            for _ in range(3):
                yield from conn.b.recv()

        runner(flow())
        assert conn.b.recv_stats.messages_delivered == 3
        assert conn.b.recv_stats.payload_bytes == 300
        assert len(conn.b.recv_stats.latencies) == 3


def _stream_gbps(env, conn, h_cpu_hosts, duration=0.02, msg=1 << 20):
    got = {"bytes": 0}

    def sender():
        while env.now < duration:
            yield from conn.a.send(msg)

    def receiver():
        while True:
            message = yield from conn.b.recv()
            got["bytes"] += message.size_bytes

    env.process(sender())
    env.process(receiver())
    env.run(until=duration)
    return to_gbps(got["bytes"] / duration)


class TestModePerformanceShapes:
    """The paper's §2 ordering must emerge from the model."""

    def test_host_mode_beats_bridge_mode(self, env):
        h = Host(env, "h1")
        host_conn = _connect(h, h)
        host_rate = _stream_gbps(env, host_conn, [h])

        env2 = Environment()
        h2 = Host(env2, "h1")
        bridge = SoftwareBridge(h2)
        bridge_conn = _connect(
            h2, h2, mode=TcpMode.BRIDGE, a_bridge=bridge, b_bridge=bridge
        )
        bridge_rate = _stream_gbps(env2, bridge_conn, [h2])

        assert host_rate > bridge_rate > 0

    def test_bridge_mode_beats_overlay_mode(self, env):
        h = Host(env, "h1")
        bridge = SoftwareBridge(h)
        bridge_conn = _connect(
            h, h, mode=TcpMode.BRIDGE, a_bridge=bridge, b_bridge=bridge
        )
        bridge_rate = _stream_gbps(env, bridge_conn, [h])

        env2 = Environment()
        h2 = Host(env2, "h1")
        mesh = RoutingMesh(env2)
        router = OverlayRouter(h2, mesh.join("h1"))
        overlay_conn = _connect(
            h2, h2, mode=TcpMode.OVERLAY, a_router=router, b_router=router
        )
        overlay_rate = _stream_gbps(env2, overlay_conn, [h2])

        assert bridge_rate > overlay_rate > 0

    def test_paper_absolute_numbers(self, env):
        """Host ≈ 38, bridge ≈ 27 Gb/s at ~200 % CPU (paper §2.3-2.4)."""
        h = Host(env, "h1")
        rate = _stream_gbps(env, _connect(h, h), [h], duration=0.05)
        assert rate == pytest.approx(38, rel=0.05)
        assert h.cpu.utilisation_percent() == pytest.approx(200, rel=0.05)

        env2 = Environment()
        h2 = Host(env2, "h1")
        bridge = SoftwareBridge(h2)
        conn = _connect(h2, h2, mode=TcpMode.BRIDGE,
                        a_bridge=bridge, b_bridge=bridge)
        rate2 = _stream_gbps(env2, conn, [h2], duration=0.05)
        assert rate2 == pytest.approx(27, rel=0.05)

    def test_interhost_overlay_crosses_two_routers(self, env, fabric):
        h1 = Host(env, "h1", fabric=fabric)
        h2 = Host(env, "h2", fabric=fabric)
        mesh = RoutingMesh(env)
        r1 = OverlayRouter(h1, mesh.join("h1"))
        r2 = OverlayRouter(h2, mesh.join("h2"))
        r1.connect_peer(r2)
        mesh.announce("10.40.0.3", "h2", immediate=True)
        conn = TcpConnection(
            h1, h2,
            EndpointAddr("10.40.0.2", 1), EndpointAddr("10.40.0.3", 1),
            mode=TcpMode.OVERLAY, a_router=r1, b_router=r2,
        )
        received = []

        def flow():
            yield from conn.a.send(10_000)
            message = yield from conn.b.recv()
            received.append(message)

        done = env.process(flow())
        env.run(until=done)
        assert r1.messages_routed == 1  # encap at the sender side
        assert r2.messages_routed == 1  # decap at the receiver side

    def test_overlay_drops_unroutable_traffic(self, env, fabric):
        h1 = Host(env, "h1", fabric=fabric)
        mesh = RoutingMesh(env)
        r1 = OverlayRouter(h1, mesh.join("h1"))
        message = Message(size_bytes=10, dst=EndpointAddr("10.99.0.1", 5))
        message.sent_at = env.now
        r1.submit(message)
        env.run()
        assert "dropped" in message.meta
