"""Every flow is traced and flight-recorded under its flow id.

``label_channel`` stamps the id (``f<n>:<src>-><dst>``) on a channel's
two lanes.  The id must reach the lane that begins traces and records
deliveries, whatever wraps it (a middlebox, a tenant rate limit) and
whichever mechanism carries it, kernel TCP included.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.cluster import ContainerSpec
from repro.core import FreeFlowNetwork, Middlebox, PolicyConfig
from repro.transports import Mechanism

#: Wrappers around an RDMA relay flow: case -> network options.
WRAPS = {
    "plain": lambda: {},
    "middlebox": lambda: {"middlebox": Middlebox()},
    "rate-limit": lambda: {"tenant_rate_limits": {"default": 10e9}},
    "both": lambda: {"middlebox": Middlebox(),
                     "tenant_rate_limits": {"default": 10e9}},
}


def _traced_flow(cluster, **network_options):
    """Open a flow a(h1) -> b(h2), send three messages each way under a
    full-rate telemetry session; return the flow and the session."""
    network = FreeFlowNetwork(cluster, **network_options)
    for name, host in (("a", "h1"), ("b", "h2")):
        network.attach(cluster.submit(ContainerSpec(name, pinned_host=host)))
    env = cluster.env

    def go():
        flow = yield from network.connect_containers("a", "b")
        for _ in range(3):
            yield from flow.a.send(4096)
            yield from flow.b.recv()
            yield from flow.b.send(4096)
            yield from flow.a.recv()
        return flow

    with telemetry.session(flow_sample_rate=1.0) as handle:
        flow = env.run(until=env.process(go()))
    return flow, handle


def _recorded(handle) -> list[str]:
    return [record["flow"] for record in handle.flows.flow_records()]


@pytest.mark.parametrize("wrap", sorted(WRAPS))
def test_wrapped_rdma_flow_is_labelled_with_its_flow_id(cluster, wrap):
    flow, handle = _traced_flow(cluster, **WRAPS[wrap]())
    assert flow.mechanism is Mechanism.RDMA
    assert flow.flow_id in handle.tracer.flows()
    assert _recorded(handle) == [flow.flow_id]
    assert flow.channel.lane_ab.flow == flow.flow_id


def test_tcp_fallback_flow_is_labelled_with_its_flow_id(cluster):
    flow, handle = _traced_flow(
        cluster,
        policy_config=PolicyConfig(allow_rdma=False, allow_dpdk=False))
    assert flow.mechanism is Mechanism.TCP
    # The kernel lanes are the flow's lanes: nothing else is traced.
    assert handle.tracer.flows() == [flow.flow_id]
    assert _recorded(handle) == [flow.flow_id]
