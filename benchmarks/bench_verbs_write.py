"""E12 — §5 "System to Build": the RDMA WRITE flow through FreeFlow.

The paper walks through one operation — a verbs WRITE — and shows how
FreeFlow executes it over shared memory when the peer is local (Fig. 8)
and over real RDMA when it is remote (Fig. 7).  This bench runs exactly
that WRITE (the pseudo-code of Fig. 5) across a message-size sweep and
reports the completion time of each variant, plus raw RDMA as the
no-virtualisation reference.
"""

import pytest

from repro import ContainerSpec
from repro.baselines import RawRdmaNetwork
from repro.core import Opcode, WorkRequest
from repro.workloads import MessageSizeSweep

from common import deploy_pair, fmt_table, record, make_testbed

SIZES = MessageSizeSweep(4096, 4 * 1024 * 1024, factor=16).sizes()


def _freeflow_write_times(intra: bool):
    env, cluster, network = make_testbed(hosts=2)
    a, b = deploy_pair(cluster, network, "host0",
                       "host0" if intra else "host1")
    va, vb = network.vnic("a"), network.vnic("b")
    pa, pb = va.alloc_pd(), vb.alloc_pd()
    qa = va.create_qp(pa, va.create_cq(), va.create_cq())
    qb = vb.create_qp(pb, vb.create_cq(), vb.create_cq())
    mr_b = vb.reg_mr(pb, 8 * 1024 * 1024)

    def connect():
        yield from network.connect(qa, qb)

    env.run(until=env.process(connect()))

    times = {}

    def writes():
        for size in SIZES:
            started = env.now
            yield from qa.post_send(WorkRequest(
                opcode=Opcode.WRITE, length=size, payload=b"x",
                remote_key=mr_b.rkey,
            ))
            # One WRITE in flight at a time: the completion is the latency
            # being measured, so there is no burst to batch.
            # simlint: disable=SIM008
            wc = yield from qa.send_cq.wait()
            if not wc.ok:
                raise RuntimeError(f"{size} B WRITE failed: {wc.status}")
            times[size] = (env.now - started) * 1e6

    env.run(until=env.process(writes()))
    return times


def _raw_rdma_write_times(intra: bool):
    env, cluster, network = make_testbed(hosts=2)
    a, b = deploy_pair(cluster, network, "host0",
                       "host0" if intra else "host1")
    channel = RawRdmaNetwork().connect(a, b)
    times = {}

    def writes():
        for size in SIZES:
            started = env.now
            yield from channel.a.send(size)
            yield from channel.b.recv()
            times[size] = (env.now - started) * 1e6

    env.run(until=env.process(writes()))
    return times


def test_verbs_write_flow(benchmark):
    results = {}

    def run():
        results["freeflow shm (Fig. 8)"] = _freeflow_write_times(True)
        results["freeflow rdma (Fig. 7)"] = _freeflow_write_times(False)
        results["raw rdma (reference)"] = _raw_rdma_write_times(False)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    record(
        "E12", "§5 — one verbs WRITE, completion time by size (us)",
        fmt_table(
            ["path"] + [f"{s >> 10}KB" for s in SIZES],
            [[name] + [times[s] for s in SIZES]
             for name, times in results.items()],
        ),
        "intra-host WRITE completes via shared memory, beating even real "
        "RDMA for large sizes; FreeFlow's remote WRITE tracks raw RDMA "
        "with a small vNIC/agent overhead",
    )

    shm = results["freeflow shm (Fig. 8)"]
    ff_rdma = results["freeflow rdma (Fig. 7)"]
    raw = results["raw rdma (reference)"]
    big = SIZES[-1]
    # Large intra-host WRITEs: the shm path beats the NIC hairpin.
    assert shm[big] < ff_rdma[big]
    # FreeFlow's remote WRITE is within 2x of raw RDMA (agent+vNIC tax).
    assert ff_rdma[big] < 2 * raw[big]
