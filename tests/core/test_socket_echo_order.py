"""Exact timing of a FreeFlow socket echo RPC, pinned by digest.

A client keeps a window of small requests in flight on one inter-host
FreeFlow socket (RDMA by policy) and the server echoes each one.  A
digest of every request's exact ``(served_at, answered_at)`` must match
the one recorded from the reference implementation.

Small messages leave the pipeline stages (NIC, agent, fabric delivery)
idle between bursts and start them again within one instant, where
they share that instant with other stages' events.  A stage whose
worker started one ready-queue hop late kept every pin, relay-order
digest and golden, and moved the last bits of these digests.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ContainerSpec, quickstart_cluster
from repro.core import SocketLayer
from repro.sim import Store, Tank
from repro.sim.rand import RandomStream
from repro.transports import Mechanism

#: (requests, window) -> digest of the run's exact timeline.
DIGESTS = {
    (400, 32): "9292b83e5195391d",
    (1000, 128): "f54cb3a3c3830b07",
}

SIZES = (64, 128, 256, 512)


def _run(requests: int, window: int) -> list[str]:
    rng = RandomStream(1, f"socket-echo.{requests}.{window}")
    sizes = [rng.choice(SIZES) for _ in range(requests)]
    env, cluster, network = quickstart_cluster(hosts=2)
    client_c = cluster.submit(ContainerSpec("client", pinned_host="host0"))
    server_c = cluster.submit(ContainerSpec("server", pinned_host="host1"))
    network.attach(client_c)
    network.attach(server_c)
    layer = SocketLayer(network)
    listener = layer.listen(server_c, 7000)
    client = layer.socket(client_c)

    def handshake():
        decision = yield from client.connect(server_c.ip, 7000)
        server = yield from listener.accept()
        return decision, server

    decision, server = env.run(until=env.process(handshake()))
    assert decision.mechanism is Mechanism.RDMA
    tokens = Tank(env, capacity=window, initial=window)
    echo = Store(env)
    served = [0.0] * requests
    answered = [0.0] * requests

    def server_rx():
        for i, size in enumerate(sizes):
            nbytes, tag = yield from server.recv_exactly(size)
            assert (nbytes, tag) == (size, i)
            served[i] = env.now
            yield echo.put(i)

    def server_tx():
        for _ in sizes:
            i = yield echo.get()
            yield from server.send(sizes[i], i)

    def client_tx():
        for i, size in enumerate(sizes):
            yield tokens.get(1)
            yield from client.send(size, i)

    def client_rx():
        for i, size in enumerate(sizes):
            nbytes, tag = yield from client.recv_exactly(size)
            assert (nbytes, tag) == (size, i)
            answered[i] = env.now
            yield tokens.put(1)

    for generator in (server_rx(), server_tx(), client_tx()):
        env.process(generator)
    env.run(until=env.process(client_rx()))
    return [f"{i} {s.hex()} {a.hex()}"
            for i, (s, a) in enumerate(zip(served, answered))]


@pytest.mark.parametrize("shape", sorted(DIGESTS), ids=lambda s: "%dx%d" % s)
def test_echo_timeline_matches_reference(shape):
    lines = _run(*shape)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == DIGESTS[shape]
