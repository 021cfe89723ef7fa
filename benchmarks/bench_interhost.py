"""E9 — §2.3.2 inter-host communication across the 40 Gb/s fabric.

Two containers on different hosts: host-mode kernel TCP, Weave-style
overlay, raw RDMA, DPDK.  The kernel paths burn cores on both machines;
the bypass paths saturate the link with the CPU nearly idle (RDMA) or
one pinned PMD core per host (DPDK).
"""

import pytest

from repro import ContainerSpec
from repro.baselines import (
    HostModeNetwork,
    OverlayModeNetwork,
    RawRdmaNetwork,
)
from repro.transports import DpdkChannel

from common import fmt_table, pingpong, record, stream, make_testbed


def _interhost(kind: str):
    env, cluster, network = make_testbed(hosts=2)
    hosts = [cluster.host("host0"), cluster.host("host1")]
    a = cluster.submit(ContainerSpec("a", pinned_host="host0"))
    b = cluster.submit(ContainerSpec("b", pinned_host="host1"))
    channel = {
        "host tcp": lambda: HostModeNetwork(env).connect(a, b, 1, 2),
        "overlay": lambda: OverlayModeNetwork(env).connect(a, b),
        "rdma": lambda: RawRdmaNetwork().connect(a, b),
        "dpdk": lambda: DpdkChannel(a.host, b.host),
    }[kind]()
    result = stream(env, channel, hosts, duration_s=0.04)
    latency = pingpong(env, channel)
    return result.gbps, latency.mean_us(), result.total_cpu_percent


def test_interhost_transports(benchmark):
    rows = {}

    def run():
        for kind in ("host tcp", "overlay", "rdma", "dpdk"):
            rows[kind] = _interhost(kind)
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    record(
        "E9", "inter-host: kernel modes vs kernel bypass (2 hosts, 40G)",
        fmt_table(
            ["transport", "Gb/s", "latency us", "CPU % (both hosts)"],
            [[k, *v] for k, v in rows.items()],
        ),
        "paper: bypass reaches link rate; kernel TCP close behind but at "
        "~200 % CPU; overlay far behind at even more total CPU",
    )

    assert rows["rdma"][0] == pytest.approx(39, rel=0.07)
    assert rows["dpdk"][0] == pytest.approx(37, rel=0.10)
    assert rows["overlay"][0] < rows["host tcp"][0] / 2
    # CPU story: rdma ~0, dpdk = 2 pinned cores, kernel ~2 busy cores.
    assert rows["rdma"][2] < 10
    assert rows["dpdk"][2] == pytest.approx(200, rel=0.1)
    assert rows["host tcp"][2] == pytest.approx(200, rel=0.1)
    # Latency: bypass transports well under the kernel paths.
    assert rows["rdma"][1] < rows["host tcp"][1]
    assert rows["host tcp"][1] < rows["overlay"][1]
