"""Flight recorder: rollups, flow records, profiler — unit + golden.

The golden test drives the recorder with a synthetic, fully
deterministic delivery feed (no process-global lane ids involved) and
compares the JSON-lines artifact byte-for-byte against
``golden_flightrecord.jsonl``.  Regenerate after an intentional format
change with::

    PYTHONPATH=src python tests/telemetry/test_flightrecorder.py --regenerate
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import telemetry
from repro.sim import Environment
from repro.telemetry import export
from repro.telemetry import flowrecords as flowrecords_module
from repro.telemetry import profiler as profiler_module
from repro.telemetry.flowrecords import FlowRecorder, _parse_label
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.timeseries import RollupRecorder

GOLDEN = Path(__file__).with_name("golden_flightrecord.jsonl")


# -- synthetic deterministic feed -------------------------------------------


def golden_records() -> list[dict]:
    """Rollup + top-k + flow records from a fixed synthetic feed."""
    registry = MetricsRegistry()
    counter = registry.counter("repro.telemetry.test_deliveries")
    rollups = RollupRecorder(registry, interval_s=1e-3, retention=8)
    recorder = FlowRecorder(seed=7, sample_rate=1.0, top_k=8,
                            max_records=16, rollup=rollups)
    feed = [
        ("f1:web->db", 8192), ("f2:web->cache", 4096),
        ("f1:web->db", 8192), ("f3:worker->db", 1024),
        ("shm/1", 512), ("f1:web->db", 8192), ("f2:web->cache", 4096),
        ("tcp-host/2", 256), ("f3:worker->db", 1024),
    ]
    for index, (label, nbytes) in enumerate(feed):
        counter.inc()
        recorder.on_deliver(label, nbytes, now=index * 0.4e-3)
    recorder.on_transition("f1:web->db", "resolving", "active", 1e-3)
    recorder.on_transition("f1:web->db", "active", "closed", 3e-3)
    recorder.on_verbs("write", 8192)
    recorder.on_verbs("write", 8192)
    recorder.on_verbs("send", 1024)
    rollups.flush(4e-3)
    return (export.rollup_records(rollups)
            + export.topk_records(recorder, n=5)
            + export.flow_records(recorder))


def test_golden_flightrecord_jsonl_is_byte_stable():
    got = export.jsonl(golden_records()) + "\n"
    assert GOLDEN.exists(), (
        f"{GOLDEN} missing — run this module with --regenerate"
    )
    assert got == GOLDEN.read_text()


def test_golden_feed_is_reproducible():
    assert golden_records() == golden_records()


# -- flow recorder units -----------------------------------------------------


def test_parse_label_variants():
    assert _parse_label("f3:web->db") == ("web", "db")
    assert _parse_label("web->db") == ("web", "db")
    assert _parse_label("shm/7") == (None, None)
    assert _parse_label("tcp-host/2") == (None, None)
    assert _parse_label("f9:->") == (None, None)


def test_sampling_is_deterministic_per_seed():
    a = FlowRecorder(seed=42, sample_rate=0.3)
    b = FlowRecorder(seed=42, sample_rate=0.3)
    labels = [f"f{i}:h{i}->h{i + 1}" for i in range(200)]
    for label in labels:
        a.on_deliver(label, 100, 0.0)
        b.on_deliver(label, 100, 0.0)
    assert sorted(a.records) == sorted(b.records)
    assert 0 < a.sampled_flows < 200  # rate is actually partial


def test_unattributed_counts_bare_transport_labels():
    recorder = FlowRecorder(seed=1, sample_rate=0.0)
    recorder.on_deliver("shm/9", 64, 0.0)
    recorder.on_deliver("f1:a->b", 64, 0.0)
    assert recorder.unattributed == 1
    assert recorder.by_src.estimate("a") == 64.0


def test_record_table_evicts_eldest_and_counts():
    recorder = FlowRecorder(seed=1, sample_rate=1.0, max_records=4)
    for i in range(10):
        recorder.on_deliver(f"f{i}:a->b", 10, float(i))
    assert len(recorder.records) == 4
    assert recorder.record_evictions == 6
    assert recorder.sampled_flows == 10


def test_label_cache_is_bounded_and_decisions_survive_eviction():
    recorder = FlowRecorder(seed=9, sample_rate=0.5, label_cache=8)
    first = {}
    for i in range(64):
        label = f"f{i}:a->b"
        recorder.on_deliver(label, 1, 0.0)
        first[label] = label in recorder.records
    assert len(recorder._labels) <= 8
    # Re-offering an evicted label re-derives the same decision: the
    # sampled set keyed by label never flip-flops.
    for label, was_sampled in first.items():
        recorder.on_deliver(label, 1, 1.0)
        assert (label in recorder.records) == was_sampled


def test_state_size_stays_bounded_under_flow_churn():
    recorder = FlowRecorder(seed=2, sample_rate=0.01, top_k=16,
                            max_records=8, label_cache=32)
    for i in range(5000):
        recorder.on_deliver(f"f{i}:h{i % 50}->h{(i + 1) % 50}", 100,
                            float(i) * 1e-6)
    assert recorder.messages == 5000
    assert recorder.state_size() <= 3 * 16 + 8 + 32 + 0 + 0


def test_transitions_update_sampled_record_state():
    recorder = FlowRecorder(seed=1, sample_rate=1.0)
    recorder.on_deliver("f1:a->b", 10, 0.0)
    recorder.on_transition("f1:a->b", "resolving", "active", 1e-3)
    recorder.on_transition("f7:x->y", "resolving", "active", 1e-3)
    record = recorder.records["f1:a->b"].as_record()
    assert record["state"] == "active"
    assert record["transitions"] == 1
    assert recorder.transition_counts == {"resolving->active": 2}


def test_top_rejects_unknown_dimension():
    recorder = FlowRecorder()
    with pytest.raises(ValueError):
        recorder.top("host")


# -- rollups -----------------------------------------------------------------


def test_rollup_boundaries_and_gap_fill():
    registry = MetricsRegistry()
    counter = registry.counter("repro.telemetry.test_ticks")
    rollups = RollupRecorder(registry, interval_s=1e-3, retention=16)
    counter.inc(5)
    rollups.maybe_roll(0.5e-3)  # before the first boundary: no window
    assert len(rollups.windows) == 0
    rollups.maybe_roll(1.2e-3)
    assert [w["t_s"] for w in rollups.windows] == [1e-3]
    counter.inc(5)
    # A quiet gap: every elapsed boundary is emitted, carrying the
    # snapshot forward, and counted as a gap window.
    rollups.maybe_roll(4.5e-3)
    assert [w["t_s"] for w in rollups.windows] == [1e-3, 2e-3, 3e-3, 4e-3]
    assert rollups.gap_windows == 2
    values = [v for _, v in rollups.series("repro.telemetry.test_ticks")]
    assert values == [5.0, 10.0, 10.0, 10.0]


def test_rollup_ring_evicts_and_counts():
    registry = MetricsRegistry()
    rollups = RollupRecorder(registry, interval_s=1e-3, retention=4)
    rollups.roll(10e-3)  # boundaries 1e-3..9e-3 through a 4-deep ring
    assert len(rollups.windows) == 4
    assert rollups.evicted == 5


def test_rollup_flush_and_rate_series():
    registry = MetricsRegistry()
    counter = registry.counter("repro.telemetry.test_bytes")
    rollups = RollupRecorder(registry, interval_s=1e-3, retention=8)
    counter.inc(1000)
    rollups.maybe_roll(1e-3)
    counter.inc(3000)
    rollups.flush(2.5e-3)
    rates = rollups.rate_series("repro.telemetry.test_bytes")
    assert rates[0] == (1e-3, pytest.approx(1e6))
    assert rates[1] == (2.5e-3, pytest.approx(3000 / 1.5e-3))
    # flush is idempotent at the same instant.
    rollups.flush(2.5e-3)
    assert len(rollups.windows) == 2


# -- engine profiler ---------------------------------------------------------


def _tiny_sim():
    env = Environment()
    box = {"pings": 0}

    def ticker():
        for _ in range(5):
            yield env.timeout(1e-6)
            box["pings"] += 1

    env.process(ticker())
    env.run(until=1e-3)
    return box["pings"]


def test_profiler_attributes_to_generator_sites():
    profiler = profiler_module.install()
    try:
        assert _tiny_sim() == 5
    finally:
        profiler_module.uninstall()
    sites = dict(profiler.sites)
    assert any("test_flightrecorder.py" in site and "ticker" in site
               for site in sites)
    assert profiler.events_total == sum(e[0] for e in sites.values())
    records = profiler.records()
    assert all(set(r) == {"record", "site", "events", "event_share_pct"}
               for r in records)  # wall-clock excluded: deterministic


def test_profiler_event_counts_are_deterministic():
    def run_once():
        profiler = profiler_module.install()
        try:
            _tiny_sim()
        finally:
            profiler_module.uninstall()
        return profiler.records()

    assert run_once() == run_once()


def test_profiler_install_uninstall_idempotent_and_restores_engine():
    from repro.sim import scheduler

    others = scheduler.OBSERVERS
    first = profiler_module.install()
    again = profiler_module.install()
    assert first is again
    assert profiler_module.installed()
    assert scheduler.OBSERVERS == others + (first,)
    profiler_module.uninstall()
    assert profiler_module.uninstall() is None
    assert scheduler.OBSERVERS == others
    assert not profiler_module.installed()


def test_profiler_composes_with_sanitizer():
    from repro.analysis import sanitizer

    had_sanitizer = sanitizer.installed()
    sanitizer.install()
    profiler = profiler_module.install()
    try:
        assert _tiny_sim() == 5
    finally:
        profiler_module.uninstall()
        # Leave a suite-wide REPRO_SANITIZE=1 arming in place.
        if not had_sanitizer:
            sanitizer.uninstall()
    assert profiler.events_total > 0


# -- session wiring ----------------------------------------------------------


def test_session_arms_and_restores_flight_recorder_handles():
    assert flowrecords_module.ACTIVE is None
    with telemetry.session(flow_sample_rate=0.5,
                           rollup_interval_s=1e-3) as handle:
        assert flowrecords_module.ACTIVE is handle.flows
        assert handle.flows.rollup is handle.rollups
        snapshot = handle.registry.snapshot()
        assert "repro.telemetry.flow_messages" in snapshot
        assert "repro.telemetry.rollup_windows" in snapshot
        assert "repro.telemetry.events_evicted" in snapshot
        assert "repro.telemetry.traces_dropped" in snapshot
    assert flowrecords_module.ACTIVE is None


def test_session_defaults_leave_flight_recorder_off():
    with telemetry.session() as handle:
        assert handle.flows is None
        assert handle.rollups is None
        assert flowrecords_module.ACTIVE is None


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        GOLDEN.write_text(export.jsonl(golden_records()) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print("usage: python tests/telemetry/test_flightrecorder.py "
              "--regenerate")
