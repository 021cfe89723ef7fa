"""A busy connection's footprint stops growing.

A long-lived connection that keeps carrying messages must hold about
the same live objects after N messages as after 4N: whatever a message
leaves behind (a ring batch in the receiver's memory region, a
completion, a latency sample, a wait-for graph entry) is either dropped
or replaced by a later one.  Each case carries N messages on one live
connection, runs the collector, counts GC-tracked objects by type,
carries 3N more, and counts again; no type may grow by more than a
small constant.  The socket ring is the case that grew: its memory
region used to keep every batch it ever carried.  The suite's armed run
(``REPRO_WAITFOR=1``) counts with the wait-for graph on, which used to
keep every process that had held a resource slot.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.cluster import ContainerSpec
from repro.core import (
    Communicator,
    FreeFlowNetwork,
    Opcode,
    PolicyConfig,
    SocketLayer,
    WorkRequest,
)
from repro.transports import Mechanism

#: Messages carried before the first count; 3N more follow.
N = 500
#: Message sizes, in turn: N messages wrap the socket ring more than
#: once, and its batches land at offsets that rarely repeat.
SIZES = (64, 320, 1088, 1472)
#: Growth any type may show between the counts: the first count's own
#: Counter, the random stream a latency reservoir builds once it fills,
#: a batch boundary that fell differently.
SLACK = 3


def _run(env, generator):
    return env.run(until=env.process(generator))


def _attach(cluster, network):
    """A container on each host, attached: their vNICs."""
    return [
        network.attach(cluster.submit(ContainerSpec(name, pinned_host=host)))
        for name, host in (("a", "h1"), ("b", "h2"))
    ]


def _sockets(env, cluster, streaming):
    network = FreeFlowNetwork(cluster)
    a, b = (vnic.container for vnic in _attach(cluster, network))
    layer = SocketLayer(network, streaming=streaming)
    listener = layer.listen(b, 7000)
    client = layer.socket(a)

    def handshake():
        yield from client.connect(b.ip, 7000)
        return (yield from listener.accept())

    server = _run(env, handshake())

    def carry(n):
        def receive():
            for i in range(n):
                _, tag = yield from server.recv_exactly(SIZES[i % 4])
                assert tag == i

        done = env.process(receive())
        for i in range(n):
            yield from client.send(SIZES[i % 4], i)
        yield done

    return carry


def _mpi(env, cluster):
    network = FreeFlowNetwork(cluster)
    comm = Communicator(
        network, [vnic.container for vnic in _attach(cluster, network)])
    sender, receiver = comm.endpoint(0), comm.endpoint(1)

    def carry(n):
        def receive():
            for i in range(n):
                _, payload = yield from receiver.recv(0)
                assert payload == i

        done = env.process(receive())
        for i in range(n):
            yield from sender.send(1, SIZES[i % 4], i)
        yield done

    return carry


def _verbs_writes(env, cluster):
    """WRITE_WITH_IMM into a region at offsets that move like a ring's
    tail: lengths cycle through five sizes and are cut at the end of the
    region, where the next write starts again at 0, so each lap lands
    at offsets the last one did not use."""
    network = FreeFlowNetwork(cluster)
    vnics = _attach(cluster, network)
    pds = [vnic.alloc_pd() for vnic in vnics]
    qa, qb = (vnic.create_qp(pd, vnic.create_cq(), vnic.create_cq())
              for vnic, pd in zip(vnics, pds))
    decision = _run(env, network.connect(qa, qb))
    assert decision.mechanism is Mechanism.RDMA
    region = vnics[1].reg_mr(pds[1], 64 * 1024)
    landing = vnics[1].reg_mr(pds[1], 1)
    tail = [0]

    def carry(n):
        for i in range(n):
            offset = tail[0]
            length = min((64, 96, 160, 224, 352)[i % 5],
                         region.length - offset)
            qb.post_recv(WorkRequest(opcode=Opcode.RECV, local_mr=landing))
            yield from qa.post_send(WorkRequest(
                opcode=Opcode.WRITE_WITH_IMM, length=length, payload=[i],
                remote_key=region.rkey, remote_offset=offset, imm_data=i,
            ))
            wc = yield from qb.recv_cq.wait()
            assert wc.ok and wc.imm_data == i
            assert (yield from qa.send_cq.wait()).ok
            tail[0] = (offset + length) % region.length

    return carry


def _flow(env, cluster, config, mechanism):
    network = FreeFlowNetwork(cluster, policy_config=config)
    _attach(cluster, network)
    flow = _run(env, network.connect_containers("a", "b"))
    assert flow.mechanism is mechanism

    def carry(n):
        def receive():
            for i in range(n):
                message = yield from flow.b.recv()
                assert message.payload == i

        done = env.process(receive())
        for i in range(n):
            yield from flow.a.send(SIZES[i % 4], payload=i)
        yield done

    return carry


CASES = {
    "streaming-socket": lambda env, cluster: _sockets(env, cluster, True),
    "legacy-socket": lambda env, cluster: _sockets(env, cluster, False),
    "mpi": _mpi,
    "verbs-write-imm": _verbs_writes,
    "rdma-flow": lambda env, cluster: _flow(
        env, cluster, PolicyConfig(), Mechanism.RDMA),
    "dpdk-flow": lambda env, cluster: _flow(
        env, cluster, PolicyConfig(allow_rdma=False), Mechanism.DPDK),
    "tcp-flow": lambda env, cluster: _flow(
        env, cluster, PolicyConfig(allow_rdma=False, allow_dpdk=False),
        Mechanism.TCP),
}


def _carried(env, generator) -> Counter:
    """Run ``generator`` to its end and the engine until it is idle, then
    count live GC-tracked objects by type."""
    _run(env, generator)
    env.run()
    gc.collect()
    # A plain loop: Counter(iterable) would first ask whether the
    # iterable is a Mapping, and the ABC caches that question fills
    # would be counted by the next census only.
    counts = Counter()
    for obj in gc.get_objects():
        counts[type(obj)] += 1
    return counts


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_busy_connection_stops_growing(env, cluster, case):
    carry = CASES[case](env, cluster)
    first = _carried(env, carry(N))
    grew = _carried(env, carry(3 * N)) - first
    assert max(grew.values(), default=0) <= SLACK, grew.most_common(5)
