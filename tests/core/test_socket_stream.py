"""Streaming socket path: ordering, FIN semantics, credit backpressure,
completion batching, and chaos-repair conservation.

These tests pin the TSoR-style protocol details that the generic
byte-stream contract in ``test_sockets.py`` (which runs both data
paths) cannot see: ring/zero-copy interleaving, FIN ordering behind
staged bytes, the credit window actually exhausting and recovering,
``wait_batch`` coalescing showing up in telemetry, and the flow
table's BROKEN → REBINDING transplant conserving every in-ring byte.
"""

import gc

import pytest

from repro import telemetry
from repro.chaos import NicInjector
from repro.cluster import ContainerSpec
from repro.core import FlowState, SocketLayer
from repro.core.sockets import (
    RING_BYTES,
    ZERO_COPY_THRESHOLD_BYTES,
    FreeFlowSocket,
)
from repro.core.verbs import CompletionQueue, QueuePair
from repro.sim import Process
from repro.transports import Mechanism


@pytest.fixture
def layer(network):
    return SocketLayer(network, streaming=True)


@pytest.fixture
def remote_pair(cluster, network):
    """client on h1, server on h2: inter-host, so the RDMA path."""
    a = cluster.submit(ContainerSpec("client", pinned_host="h1"))
    b = cluster.submit(ContainerSpec("server", pinned_host="h2"))
    network.attach(a)
    network.attach(b)
    return a, b


def test_interleaved_small_and_large_sends_preserve_order(
    env, layer, remote_pair, runner
):
    """Ring-path and zero-copy sends interleave freely; the FIFO send
    lock plus the flusher drain in ``_send_large`` must keep the stream
    in exact send order, with each message's payload marker intact."""
    client_c, server_c = remote_pair
    sizes = [
        64,                             # ring
        ZERO_COPY_THRESHOLD_BYTES,      # smallest zero-copy send
        200,                            # ring
        64 * 1024,                      # zero-copy
        ZERO_COPY_THRESHOLD_BYTES - 1,  # largest ring send
        96,                             # ring
        32 * 1024,                      # zero-copy
        48,                             # ring
    ]
    listener = layer.listen(server_c, 7100)
    got = []

    def server():
        sock = yield from listener.accept()
        for size in sizes:
            n, payload = yield from sock.recv_exactly(size)
            got.append((n, payload))

    def go():
        server_proc = env.process(server())
        sock = layer.socket(client_c)
        yield from sock.connect(server_c.ip, 7100)
        for i, size in enumerate(sizes):
            yield from sock.send(size, payload=f"msg-{i}")
        yield from sock.shutdown()
        yield server_proc

    runner(go())
    assert got == [(size, f"msg-{i}") for i, size in enumerate(sizes)]


def test_shutdown_with_bytes_still_in_ring_orders_fin_after_data(
    env, layer, remote_pair, runner
):
    """shutdown() called while bytes sit staged / in the ring: the FIN
    must wait out the flusher, so the peer reads every byte and only
    then sees EOF."""
    client_c, server_c = remote_pair
    listener = layer.listen(server_c, 7101)
    result = {"bytes": 0, "eof": False, "bytes_at_eof": None}

    def server():
        sock = yield from listener.accept()
        while True:
            n, _ = yield from sock.recv()
            if n == 0:
                result["eof"] = True
                result["bytes_at_eof"] = result["bytes"]
                return
            result["bytes"] += n

    def go():
        server_proc = env.process(server())
        sock = layer.socket(client_c)
        yield from sock.connect(server_c.ip, 7101)
        for _ in range(32):
            yield from sock.send(512)
        # The flusher is paced (RING_WRITE_PIPELINE), so right after the
        # last send() returns there are still unflushed/unacked bytes —
        # exactly the situation FIN ordering is about.
        assert sock._staged_bytes > 0 or sock._tx_ring.used > 0
        yield from sock.shutdown()
        yield server_proc

    runner(go())
    assert result["eof"]
    assert result["bytes_at_eof"] == 32 * 512


def test_credit_exhaustion_blocks_sender_until_consumer_drains(
    env, layer, remote_pair
):
    """A non-consuming receiver exhausts the RING_BYTES credit window:
    the sender parks on the credit tank (no retries, no drops) and a
    draining consumer releases it for full delivery."""
    client_c, server_c = remote_pair
    listener = layer.listen(server_c, 7102)
    socks = {}

    def acceptor():
        socks["server"] = yield from listener.accept()

    env.process(acceptor())

    chunk = 4096
    chunks = RING_BYTES // chunk + 16   # 64 KiB more than the window
    progress = {"sent": 0}

    def client():
        sock = layer.socket(client_c)
        socks["client"] = sock
        yield from sock.connect(server_c.ip, 7102)
        for _ in range(chunks):
            yield from sock.send(chunk)
            progress["sent"] += 1

    sender = env.process(client())
    env.run(until=env.now + 0.05)

    # Exhausted: the sender is parked mid-stream with the tank empty.
    assert sender.is_alive
    assert 0 < progress["sent"] < chunks
    assert socks["client"]._tx_credits.level < chunk
    assert socks["server"]._rx_ring.used > 0

    # Recovery: a consumer drains the ring, credits flow back, and the
    # blocked sender finishes without losing a byte.
    drained = {"bytes": 0}

    def consumer():
        sock = socks["server"]
        while drained["bytes"] < chunks * chunk:
            n, _ = yield from sock.recv()
            drained["bytes"] += n

    done = env.process(consumer())
    env.run(until=done)
    env.run(until=sender)
    assert progress["sent"] == chunks
    assert drained["bytes"] == chunks * chunk
    # Steady state restored: everything advertised back except what the
    # receiver has consumed but not yet re-advertised (sub-threshold).
    client_sock = socks["client"]
    assert client_sock._tx_credits.level == RING_BYTES - client_sock._tx_ring.used


def test_completion_batching_shows_up_in_telemetry(
    env, layer, remote_pair, runner
):
    """A burst of small sends must coalesce: fewer ring WRITEs than
    sends, and the ``repro.verbs.cq.batch`` histogram records multi-
    completion drains on the receive side."""
    client_c, server_c = remote_pair
    sends = 128
    size = 8192  # long enough bounce copies that completions pile up

    with telemetry.session() as handle:
        listener = layer.listen(server_c, 7103)

        def server():
            sock = yield from listener.accept()
            yield from sock.recv_exactly(sends * size)

        def go():
            server_proc = env.process(server())
            sock = layer.socket(client_c)
            yield from sock.connect(server_c.ip, 7103)
            for _ in range(sends):
                yield from sock.send(size)
            yield server_proc

        runner(go())
        snapshot = handle.registry.snapshot()

    assert snapshot["repro.socket.ring_appends"] == sends
    assert snapshot["repro.socket.ring_writes"] < sends  # coalesced
    batch = snapshot["repro.verbs.cq.batch"]
    assert batch["count"] > 0
    assert batch["max"] > 1.0  # at least one genuinely batched drain


def test_broken_flow_repair_conserves_streamed_bytes(
    env, network, layer, remote_pair, runner
):
    """nic-loss-midflow, socket edition: the NIC's bypass dies with
    bytes staged and in the ring, the flow goes BROKEN → REBINDING →
    ACTIVE on the TCP fallback, and the transplant conserves the whole
    stream — every byte lands, in order, followed by the FIN."""
    client_c, server_c = remote_pair
    listener = layer.listen(server_c, 7104)
    socks = {}
    result = {"bytes": 0, "eof": False}
    messages = 64
    size = 1024

    def server():
        sock = yield from listener.accept()
        socks["server"] = sock
        while True:
            n, _ = yield from sock.recv()
            if n == 0:
                result["eof"] = True
                return
            result["bytes"] += n

    def go():
        server_proc = env.process(server())
        sock = layer.socket(client_c)
        yield from sock.connect(server_c.ip, 7104)
        assert sock.mechanism is Mechanism.RDMA
        for _ in range(messages):
            yield from sock.send(size)
        # Mid-flow: the paced flusher still has bytes staged or
        # un-acked in the ring when the NIC dies.
        assert sock._staged_bytes > 0 or sock._tx_ring.used > 0

        flow = network.flows.flows_for("client")[0]
        injector = NicInjector(network)
        injector.lose_bypass("h2")
        network.invalidate("client")    # drop the cached RDMA decision
        network.flows.transition(flow, FlowState.BROKEN,
                                 reason="nic-loss-midflow")
        decision = yield from network.repair_connection(flow)
        assert decision.mechanism is Mechanism.TCP

        for _ in range(messages):
            yield from sock.send(size)
        yield from sock.shutdown()
        yield server_proc
        return flow

    flow = runner(go())
    assert result["eof"]
    assert result["bytes"] == 2 * messages * size   # nothing lost, no dup
    assert flow.state is FlowState.ACTIVE
    assert flow.mechanism is Mechanism.TCP
    assert flow.generation == 2
    # Ring invariant after drain: the receive ring is empty and agrees
    # with the (empty) reassembly buffer.
    server_sock = socks["server"]
    ring_tagged = sum(n for n, _p, from_ring in server_sock._rx_buffer
                      if from_ring)
    assert server_sock._rx_ring.used == ring_tagged == 0


def test_two_orderly_shutdowns_release_the_flow_and_memory_regions(
    env, layer, network, remote_pair, runner
):
    """Once both ends shut down and each applied the other's FIN, no
    WRITE can reach either end: the connection's flow closes and both
    sockets' memory regions are deregistered, whichever end shuts down
    first.  An abrupt ``close()`` keeps both (no FIN, no release)."""
    client_c, server_c = remote_pair
    listener = layer.listen(server_c, 7105)
    cycles = 50
    received = []

    def server(server_first):
        sock = yield from listener.accept()
        received.append((yield from sock.recv_exactly(500)))
        if server_first:
            yield from sock.shutdown()
        else:
            received.append((yield from sock.recv()))  # EOF
            yield from sock.shutdown()

    def go():
        for cycle in range(cycles):
            server_first = cycle % 2 == 1
            server_proc = env.process(server(server_first))
            sock = layer.socket(client_c)
            yield from sock.connect(server_c.ip, 7105)
            yield from sock.send(500, payload=cycle)
            if server_first:
                yield server_proc
            yield from sock.shutdown()
            yield server_proc
        yield env.timeout(0.01)  # the last FINs land

    runner(go())
    assert [r for r in received if r[0]] == [(500, c) for c in range(cycles)]
    assert len(network.flows) == 0
    for name in ("client", "server"):
        assert network.vnic(name)._mrs_by_rkey == {}

    sock = layer.socket(client_c)

    def abrupt():
        yield from sock.connect(server_c.ip, 7105)
        peer = yield from listener.accept()
        sock.close()
        yield from peer.shutdown()
        yield env.timeout(0.01)

    runner(abrupt())
    assert len(network.flows) == 1
    assert len(network.vnic("client")._mrs_by_rkey) == 4


def test_a_released_connection_is_freed_without_the_collector(
    env, layer, remote_pair, runner
):
    """Once both ends shut down, both sockets' flusher and dispatcher
    and both queue pairs' vNIC engines end, so no process of the
    connection stays parked, and neither socket nor queue pair waits
    for the cyclic collector, with the wait-for graph armed or not."""
    client_c, server_c = remote_pair
    listener = layer.listen(server_c, 7106)

    def live(kind):
        return sum(1 for obj in gc.get_objects() if isinstance(obj, kind))

    def server():
        sock = yield from listener.accept()
        yield from sock.recv_exactly(500)
        yield from sock.recv()  # EOF
        yield from sock.shutdown()

    def go():
        for _ in range(50):
            server_proc = env.process(server())
            sock = layer.socket(client_c)
            yield from sock.connect(server_c.ip, 7106)
            yield from sock.send(500)
            yield from sock.shutdown()
            yield server_proc
        yield env.timeout(0.01)  # the last FINs land

    kinds = (Process, FreeFlowSocket, QueuePair, CompletionQueue)
    gc.collect()
    gc.disable()
    try:
        before = [live(kind) for kind in kinds]
        runner(go())
        assert [live(kind) for kind in kinds] == before
    finally:
        gc.enable()
