"""Property-based tests on data-plane invariants (hypothesis).

For every mechanism, a random sequence of message sizes must arrive
exactly once, in order, with bytes conserved and time strictly
advancing — the invariants every experiment in the repo rests on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ContainerSpec, quickstart_cluster
from repro.baselines import OverlayModeNetwork
from repro.core import PolicyConfig


def _drive(channel, env, sizes):
    """Send ``sizes`` through channel.a, receive them at channel.b."""
    received = []

    def sender():
        for index, size in enumerate(sizes):
            yield from channel.a.send(size, payload=index)

    def receiver():
        for _ in sizes:
            message = yield from channel.b.recv()
            received.append((message.payload, message.size_bytes,
                             message.latency))

    env.process(sender())
    done = env.process(receiver())
    env.run(until=done)
    return received


def _check(received, sizes):
    assert [index for index, __, __ in received] == list(range(len(sizes)))
    assert [size for __, size, __ in received] == list(sizes)
    assert all(latency > 0 for __, __, latency in received)


_SIZES = st.lists(
    st.integers(min_value=1, max_value=2 * 1024 * 1024),
    min_size=1, max_size=25,
)


@given(_SIZES)
@settings(max_examples=20, deadline=None)
def test_freeflow_shm_delivers_exactly_once_in_order(sizes):
    env, cluster, network = quickstart_cluster(hosts=1)
    a = cluster.submit(ContainerSpec("a", pinned_host="host0"))
    b = cluster.submit(ContainerSpec("b", pinned_host="host0"))
    network.attach(a)
    network.attach(b)

    def wire():
        connection = yield from network.connect_containers("a", "b")
        return connection

    connection = env.run(until=env.process(wire()))
    _check(_drive(connection, env, sizes), sizes)


@given(_SIZES)
@settings(max_examples=20, deadline=None)
def test_freeflow_rdma_delivers_exactly_once_in_order(sizes):
    env, cluster, network = quickstart_cluster(hosts=2)
    a = cluster.submit(ContainerSpec("a", pinned_host="host0"))
    b = cluster.submit(ContainerSpec("b", pinned_host="host1"))
    network.attach(a)
    network.attach(b)

    def wire():
        connection = yield from network.connect_containers("a", "b")
        return connection

    connection = env.run(until=env.process(wire()))
    _check(_drive(connection, env, sizes), sizes)


@given(_SIZES)
@settings(max_examples=15, deadline=None)
def test_freeflow_dpdk_delivers_exactly_once_in_order(sizes):
    env, cluster, network = quickstart_cluster(
        hosts=2, policy_config=PolicyConfig(allow_rdma=False)
    )
    a = cluster.submit(ContainerSpec("a", pinned_host="host0"))
    b = cluster.submit(ContainerSpec("b", pinned_host="host1"))
    network.attach(a)
    network.attach(b)

    def wire():
        connection = yield from network.connect_containers("a", "b")
        return connection

    connection = env.run(until=env.process(wire()))
    assert connection.mechanism.value == "dpdk"
    _check(_drive(connection, env, sizes), sizes)


@given(_SIZES)
@settings(max_examples=15, deadline=None)
def test_overlay_delivers_exactly_once_in_order(sizes):
    env, cluster, network = quickstart_cluster(hosts=2)
    a = cluster.submit(ContainerSpec("a", pinned_host="host0"))
    b = cluster.submit(ContainerSpec("b", pinned_host="host1"))
    overlay = OverlayModeNetwork(env)
    channel = overlay.connect(a, b)
    _check(_drive(channel, env, sizes), sizes)


@given(st.lists(st.integers(min_value=1, max_value=512 * 1024),
                min_size=1, max_size=15),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=15, deadline=None)
def test_simulation_is_deterministic(sizes, seed):
    """Two identical runs produce byte-identical delivery timestamps."""

    def run_once():
        env, cluster, network = quickstart_cluster(hosts=2)
        a = cluster.submit(ContainerSpec("a", pinned_host="host0"))
        b = cluster.submit(ContainerSpec("b", pinned_host="host1"))
        network.attach(a)
        network.attach(b)

        def wire():
            connection = yield from network.connect_containers("a", "b")
            return connection

        connection = env.run(until=env.process(wire()))
        received = _drive(connection, env, sizes)
        return [(idx, size, lat) for idx, size, lat in received]

    assert run_once() == run_once()


@given(st.lists(st.integers(min_value=1, max_value=1024 * 1024),
                min_size=2, max_size=12))
@settings(max_examples=15, deadline=None)
def test_socket_stream_conserves_bytes(sizes):
    """Random writes through the socket layer: total bytes conserved."""
    from repro.core import SocketLayer

    env, cluster, network = quickstart_cluster(hosts=2)
    a = cluster.submit(ContainerSpec("a", pinned_host="host0"))
    b = cluster.submit(ContainerSpec("b", pinned_host="host1"))
    network.attach(a)
    network.attach(b)
    layer = SocketLayer(network)
    listener = layer.listen(b, 9999)
    total = sum(sizes)
    got = {}

    def server():
        sock = yield from listener.accept()
        n, __ = yield from sock.recv_exactly(total)
        eof, __ = yield from sock.recv()
        got["n"], got["eof"] = n, eof

    env.process(server())

    def client():
        sock = layer.socket(a)
        yield from sock.connect(b.ip, 9999)
        for size in sizes:
            yield from sock.send(size)
        yield from sock.shutdown()

    env.run(until=env.process(client()))
    env.run(until=env.now + 0.2)
    assert got["n"] == total
    assert got["eof"] == 0
