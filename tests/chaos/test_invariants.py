"""Unit tests for the invariant probes over synthetic end-state."""

from repro.chaos import (
    check_conservation,
    check_repair_time,
    check_trace_consistency,
)
from repro.core.flows import FlowState, FlowTable
from repro.chaos.invariants import check_convergence
from repro.telemetry.events import FLOW_TRANSITION, EventLog


# -- convergence ---------------------------------------------------------------


def test_convergence_passes_on_active_flows(env):
    table = FlowTable(env)
    flow = table.open("a", "b")
    table.transition(flow, FlowState.ACTIVE, reason="test")
    assert check_convergence(table, EventLog()) == []


def test_convergence_flags_stuck_flow(env):
    table = FlowTable(env)
    flow = table.open("a", "b")
    table.transition(flow, FlowState.ACTIVE, reason="test")
    table.transition(flow, FlowState.BROKEN, reason="test")
    violations = check_convergence(table, EventLog())
    assert len(violations) == 1
    assert violations[0].invariant == "convergence"
    assert "broken" in violations[0].detail


def test_convergence_flags_a_drain_stall(env):
    """A drain that stalled fails convergence even when every flow
    ended ACTIVE."""
    table = FlowTable(env)
    flow = table.open("a", "b")
    table.transition(flow, FlowState.ACTIVE, reason="test")
    log = EventLog()
    log.emit(0.25, "flow.drain.stall", flows=1, in_flight=3, polls=1000)
    (violation,) = check_convergence(table, log)
    assert violation.invariant == "convergence"
    assert "3 message(s) in flight on 1 flow(s)" in violation.detail


# -- conservation --------------------------------------------------------------


def test_exact_conservation_passes():
    counters = {"a->b": {"sent": 10, "received": 10}}
    assert check_conservation(counters, "exact") == []


def test_exact_conservation_flags_loss():
    counters = {"a->b": {"sent": 10, "received": 8}}
    violations = check_conservation(counters, "exact")
    assert len(violations) == 1
    assert "lost" in violations[0].detail


def test_no_forge_tolerates_loss_but_not_forgery():
    lossy = {"a->b": {"sent": 10, "received": 7}}
    assert check_conservation(lossy, "no-forge") == []
    forged = {"a->b": {"sent": 10, "received": 11}}
    violations = check_conservation(forged, "no-forge")
    assert len(violations) == 1
    assert "forged" in violations[0].detail


def test_forgery_flagged_even_in_exact_mode():
    counters = {"a->b": {"sent": 5, "received": 6}}
    violations = check_conservation(counters, "exact")
    assert [v.invariant for v in violations] == ["conservation"]
    assert "forged" in violations[0].detail


# -- repair time ---------------------------------------------------------------


def _transition(log, t, flow, old, new):
    log.emit(t, FLOW_TRANSITION, flow=flow, src="a", dst="b",
             old=old, new=new, reason="test")


def test_repair_within_bound_passes():
    log = EventLog(64)
    _transition(log, 0.0, "f", "none", "active")
    _transition(log, 1.0, "f", "active", "broken")
    _transition(log, 1.5, "f", "broken", "rebinding")
    _transition(log, 2.0, "f", "rebinding", "active")
    assert check_repair_time(log, bound_s=1.5) == []


def test_repair_over_bound_flagged():
    log = EventLog(64)
    _transition(log, 1.0, "f", "active", "broken")
    _transition(log, 5.0, "f", "broken", "active")
    violations = check_repair_time(log, bound_s=1.0)
    assert len(violations) == 1
    assert violations[0].invariant == "repair-time"


def test_still_broken_flow_is_not_repair_times_problem():
    log = EventLog(64)
    _transition(log, 1.0, "f", "active", "broken")
    assert check_repair_time(log, bound_s=0.1) == []


# -- trace consistency ---------------------------------------------------------


def test_consistent_history_passes():
    log = EventLog(64)
    _transition(log, 0.0, "f", "none", "resolving")
    _transition(log, 0.1, "f", "resolving", "active")
    _transition(log, 0.2, "f", "active", "closed")
    assert check_trace_consistency(log) == []


def test_gap_in_history_flagged():
    log = EventLog(64)
    _transition(log, 0.0, "f", "none", "active")
    _transition(log, 0.2, "f", "broken", "active")  # missing active->broken
    violations = check_trace_consistency(log)
    assert len(violations) == 1
    assert "gap" in violations[0].detail


def test_history_not_starting_at_none_flagged():
    log = EventLog(64)
    _transition(log, 0.0, "f", "active", "broken")
    violations = check_trace_consistency(log)
    assert len(violations) == 1
    assert "'none'" in violations[0].detail


def test_transition_after_close_flagged():
    log = EventLog(64)
    _transition(log, 0.0, "f", "none", "active")
    _transition(log, 0.1, "f", "active", "closed")
    _transition(log, 0.2, "f", "closed", "active")
    violations = check_trace_consistency(log)
    assert len(violations) == 1
    assert "after close" in violations[0].detail


def test_eviction_makes_probes_unsound():
    log = EventLog(2)
    _transition(log, 0.0, "f", "none", "active")
    _transition(log, 0.1, "f", "active", "broken")
    _transition(log, 0.2, "f", "broken", "active")   # evicts the first
    violations = check_trace_consistency(log)
    assert any(v.detail.startswith("event log evicted")
               for v in violations)
