"""Tracer unit + integration tests: spans, sampling, scheduler ordering."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.hardware import Fabric, Host
from repro.metrics import run_pingpong
from repro.netstack import TcpConnection
from repro.sim import Environment
from repro.telemetry import MessageTrace, Tracer
from repro.telemetry import tracer as tracer_module
from repro.transports import RdmaChannel, ShmChannel


# -- MessageTrace.breakdown -------------------------------------------------


def test_breakdown_attributes_gaps_to_wait():
    trace = MessageTrace("f", "shm", start_s=0.0)
    trace.add("queue", 0.0, 1.0)
    trace.add("copy", 3.0, 4.0)
    trace.end_s = 6.0
    out = trace.breakdown()
    assert out == {"queue": 1.0, "copy": 1.0, "wait": 4.0}
    assert sum(out.values()) == pytest.approx(trace.total_s)


def test_breakdown_clips_overlapping_segments():
    trace = MessageTrace("f", "shm", start_s=0.0)
    trace.add("queue", 0.0, 2.0)
    trace.add("copy", 1.0, 3.0)  # overlaps [1, 2] with queue
    trace.end_s = 3.0
    out = trace.breakdown()
    assert out == {"queue": 2.0, "copy": 1.0}
    assert sum(out.values()) == pytest.approx(trace.total_s)


def test_breakdown_merges_repeated_segment_names():
    trace = MessageTrace("f", "tcp", start_s=0.0)
    trace.add("kernel", 0.0, 1.0)
    trace.add("wire", 1.0, 2.0)
    trace.add("kernel", 2.0, 4.0)
    trace.end_s = 4.0
    assert trace.breakdown() == {"kernel": 3.0, "wire": 1.0}


def test_open_trace_is_not_closed():
    trace = MessageTrace("f", "shm", start_s=1.0)
    assert not trace.closed
    trace.end_s = 2.0
    assert trace.closed
    assert trace.total_s == pytest.approx(1.0)


# -- Tracer sampling --------------------------------------------------------


def test_sample_rate_validation():
    with pytest.raises(ValueError):
        Tracer(sample_rate=1.5)
    with pytest.raises(ValueError):
        Tracer(sample_rate=-0.1)
    with pytest.raises(ValueError):
        Tracer(max_traces_per_flow=0)


def test_rate_zero_traces_nothing_rate_one_traces_everything():
    off = Tracer(sample_rate=0.0)
    on = Tracer(sample_rate=1.0)
    for _ in range(50):
        assert off.begin("f", "shm", 0.0) is None
        assert on.begin("f", "shm", 0.0) is not None
    assert off.offered == on.offered == 50


def _decisions(tracer: Tracer, flow: str, n: int) -> list[bool]:
    return [tracer.begin(flow, "shm", 0.0) is not None for _ in range(n)]


def test_sampling_is_deterministic_given_seed():
    first = _decisions(Tracer(sample_rate=0.3, seed=7), "flow-a", 200)
    second = _decisions(Tracer(sample_rate=0.3, seed=7), "flow-a", 200)
    assert first == second
    assert any(first) and not all(first)


def test_sampling_differs_across_seeds():
    a = _decisions(Tracer(sample_rate=0.3, seed=7), "flow-a", 200)
    b = _decisions(Tracer(sample_rate=0.3, seed=8), "flow-a", 200)
    assert a != b


def test_per_flow_sampling_is_independent_of_interleaving():
    solo = _decisions(Tracer(sample_rate=0.3, seed=7), "flow-a", 100)
    mixed_tracer = Tracer(sample_rate=0.3, seed=7)
    mixed = []
    for i in range(100):
        mixed.append(mixed_tracer.begin("flow-a", "shm", 0.0) is not None)
        mixed_tracer.begin(f"noise-{i % 5}", "shm", 0.0)
    assert solo == mixed


def test_per_flow_cap_counts_drops():
    tracer = Tracer(sample_rate=1.0, max_traces_per_flow=3)
    for i in range(5):
        trace = tracer.begin("f", "shm", float(i))
        if trace is not None:
            tracer.finish(trace, float(i) + 0.5)
    assert len(tracer) == 3
    assert tracer.dropped == 2
    assert tracer.counts["f"] == 3


def test_finish_is_idempotent():
    tracer = Tracer()
    trace = tracer.begin("f", "shm", 0.0)
    tracer.finish(trace, 1.0)
    tracer.finish(trace, 99.0)  # second close must not re-store or re-stamp
    assert len(tracer) == 1
    assert trace.end_s == 1.0


def test_breakdown_start_scopes_to_new_traces():
    tracer = Tracer()
    old = tracer.begin("f", "shm", 0.0)
    tracer.finish(old, 1.0)
    mark = len(tracer)
    new = tracer.begin("f", "shm", 10.0)
    tracer.finish(new, 12.0)
    scoped = tracer.breakdown(start=mark)
    assert scoped["count"] == 1
    assert scoped["mean_total_s"] == pytest.approx(2.0)


# -- integration: spans recorded under the real scheduler -------------------


def _traced_pingpong(make_channel, rounds=30):
    env = Environment()
    channel = make_channel(env)
    with telemetry.session(sample_rate=1.0) as handle:
        result = run_pingpong(env, channel.a, channel.b,
                              rounds=rounds, warmup_rounds=0)
    return handle, result


def _mk_shm(env):
    return ShmChannel(Host(env, "h0", fabric=Fabric(env)))


def _mk_rdma(env):
    fabric = Fabric(env)
    return RdmaChannel(Host(env, "a", fabric=fabric),
                       Host(env, "b", fabric=fabric))


def _mk_tcp(env):
    fabric = Fabric(env)
    return TcpConnection(Host(env, "a", fabric=fabric),
                         Host(env, "b", fabric=fabric))


@pytest.mark.parametrize("make_channel", [_mk_shm, _mk_rdma, _mk_tcp],
                         ids=["shm", "rdma", "tcp"])
def test_segments_are_time_ordered_and_sum_to_total(make_channel):
    handle, _ = _traced_pingpong(make_channel)
    assert handle.tracer.traces
    for trace in handle.tracer.traces:
        assert trace.closed
        starts = [start for _, start, _ in trace.segments]
        assert starts == sorted(starts)
        for name, start, end in trace.segments:
            assert trace.start_s <= start <= end <= trace.end_s
            assert name in telemetry.SEGMENT_ORDER
        assert sum(trace.breakdown().values()) == pytest.approx(
            trace.total_s, rel=1e-9, abs=1e-15
        )


@pytest.mark.parametrize("make_channel", [_mk_shm, _mk_rdma, _mk_tcp],
                         ids=["shm", "rdma", "tcp"])
def test_trace_total_matches_harness_latency(make_channel):
    """The demo's acceptance criterion: trace means = measured means (<1%)."""
    handle, result = _traced_pingpong(make_channel)
    aggregate = handle.tracer.breakdown()
    measured = result.latencies.mean()
    assert aggregate["mean_total_s"] == pytest.approx(measured, rel=0.01)
    # ...and the segment means sum to the aggregate total exactly.
    assert sum(aggregate["segments"].values()) == pytest.approx(
        aggregate["mean_total_s"], rel=1e-9
    )


def test_disabled_tracer_records_nothing():
    env = Environment()
    channel = _mk_shm(env)
    assert tracer_module.ACTIVE is None
    result = run_pingpong(env, channel.a, channel.b,
                          rounds=10, warmup_rounds=0)
    assert result.breakdown is None


def test_session_restores_previous_state():
    assert tracer_module.ACTIVE is None
    with telemetry.session() as outer:
        assert tracer_module.ACTIVE is outer.tracer
        with telemetry.session() as inner:
            assert tracer_module.ACTIVE is inner.tracer
        assert tracer_module.ACTIVE is outer.tracer
    assert tracer_module.ACTIVE is None
