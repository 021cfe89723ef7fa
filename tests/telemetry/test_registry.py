"""MetricsRegistry semantics: metric kinds, registration hooks, queries."""

from __future__ import annotations

import pytest

from repro import ContainerSpec, quickstart_cluster, telemetry
from repro.hardware import Fabric, Host
from repro.metrics import run_pingpong
from repro.sim import Environment
from repro.telemetry import MetricsRegistry
from repro.telemetry import registry as registry_module
from repro.transports import ShmChannel


# -- metric kinds -----------------------------------------------------------


def test_counter_is_monotonic():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == pytest.approx(3.5)
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_get_or_create_returns_same_metric():
    registry = MetricsRegistry()
    assert registry.counter("c") is registry.counter("c")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")


def test_kind_mismatch_raises_type_error():
    registry = MetricsRegistry()
    registry.counter("m")
    with pytest.raises(TypeError):
        registry.gauge("m")
    with pytest.raises(TypeError):
        registry.histogram("m")


def test_callback_gauge_rejects_set():
    registry = MetricsRegistry()
    gauge = registry.gauge("g", fn=lambda: 42.0)
    assert gauge.value == 42.0
    with pytest.raises(ValueError):
        gauge.set(1.0)


def test_plain_gauge_set():
    registry = MetricsRegistry()
    gauge = registry.gauge("g")
    gauge.set(7)
    assert gauge.value == 7.0


def test_histogram_summary():
    registry = MetricsRegistry()
    histogram = registry.histogram("h")
    assert histogram.summary() == {"count": 0.0}
    for sample in (1.0, 2.0, 3.0):
        histogram.add(sample)
    summary = histogram.summary()
    assert summary["count"] == 3
    assert summary["mean"] == pytest.approx(2.0)


def test_query_and_snapshot_filter_by_prefix():
    registry = MetricsRegistry()
    registry.counter("repro.a.x").inc()
    registry.counter("repro.b.y").inc(2)
    assert set(registry.query("repro.a.")) == {"repro.a.x"}
    assert registry.snapshot()["repro.b.y"] == 2.0
    assert registry.names() == ["repro.a.x", "repro.b.y"]


# -- push helpers gate on ACTIVE --------------------------------------------


def test_push_helpers_noop_when_disabled():
    assert registry_module.ACTIVE is None
    registry_module.counter_inc("repro.never")  # must not raise or record
    registry_module.histogram_observe("repro.never", 1.0)
    with telemetry.session() as handle:
        registry_module.counter_inc("repro.now", 2.0)
        registry_module.histogram_observe("repro.lat", 1e-6)
        assert handle.registry.snapshot()["repro.now"] == 2.0
    assert registry_module.ACTIVE is None


# -- pull-style registration from the live stack ----------------------------


def test_lanes_register_and_aggregate_under_session():
    env = Environment()
    host = Host(env, "h0", fabric=Fabric(env))
    with telemetry.session() as handle:
        channel = ShmChannel(host)
        run_pingpong(env, channel.a, channel.b, rounds=10, warmup_rounds=0)
        snapshot = handle.registry.snapshot()
    assert snapshot["repro.lane.shm.lanes"] == 2.0  # duplex pair
    # 10 rounds = 10 messages each way, one lane per direction.
    assert snapshot["repro.lane.shm.messages_delivered"] == 20.0
    latency = snapshot["repro.lane.shm.latency_s"]
    assert latency["count"] == 20
    assert latency["mean"] > 0


def test_bench_metrics_recorded_by_harness():
    env = Environment()
    host = Host(env, "h0", fabric=Fabric(env))
    with telemetry.session() as handle:
        channel = ShmChannel(host)
        run_pingpong(env, channel.a, channel.b, rounds=10, warmup_rounds=0)
        snapshot = handle.registry.snapshot()
    assert snapshot["repro.bench.pingpong.runs"] == 1.0
    assert snapshot["repro.bench.pingpong.latency_s"]["count"] == 10


def test_hosts_and_orchestrator_register_under_session():
    with telemetry.session() as handle:
        env, cluster, network = quickstart_cluster(hosts=2)
        a = cluster.submit(ContainerSpec("a", pinned_host="host0"))
        b = cluster.submit(ContainerSpec("b", pinned_host="host1"))
        network.attach(a)
        network.attach(b)

        def wire():
            connection = yield from network.connect_containers("a", "b")
            return connection

        env.run(until=env.process(wire()))
        names = handle.registry.names()
        snapshot = handle.registry.snapshot()
    assert "repro.host.host0.cpu_pct" in names
    assert "repro.host.host1.nic_engine_util" in names
    assert snapshot["repro.orchestrator.connections"] == 1.0
    assert snapshot["repro.orchestrator.queries_served"] >= 1.0
