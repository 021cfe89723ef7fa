"""Invariant probes: what must still be true after the faults.

Each probe is a pure function over end-of-scenario state (the flow
table, the harness's app-level traffic counters, the control-plane event
log) returning a list of :class:`Violation` — empty means the system
rode out the scenario.  The runner aggregates them; CI fails on any.

The probes deliberately reuse existing observability rather than
private state: convergence reads the :class:`FlowTable`, repair latency
and trace consistency are reconstructed from the
:data:`~repro.telemetry.events.FLOW_TRANSITION` stream (so they also
verify the telemetry contract itself).  The rest raise mid-run with
their own exception: the runtime sanitizer, armed for the whole
scenario, covers the engine-level invariants (no past-dated events, a
monotone clock) and streaming-ring conservation, and the flow layer
itself checks transplant conservation and FlowTable-only state writes
in every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.flows import FlowState
from ..errors import UnknownContainer
from ..telemetry.events import FLOW_TRANSITION

if TYPE_CHECKING:  # pragma: no cover
    from ..core.flows import FlowTable
    from ..core.network import FreeFlowNetwork
    from ..telemetry.events import EventLog

__all__ = [
    "Violation",
    "check_convergence",
    "check_conservation",
    "check_repair_time",
    "check_trace_consistency",
    "check_policy_freshness",
]


@dataclass(frozen=True)
class Violation:
    """One invariant breach, self-describing for the report."""

    invariant: str
    detail: str

    def as_record(self) -> dict:
        return {"invariant": self.invariant, "detail": self.detail}


def check_convergence(table: "FlowTable",
                      log: "EventLog") -> list[Violation]:
    """Every flow ends ACTIVE (CLOSED ones have left the table), and no
    drain stalled on the way.

    A flow stuck BROKEN, REBINDING, PAUSED or RESOLVING after the
    scenario's quiesce window means some repair path gave up or hung; a
    ``flow.drain.stall`` event means a rebind waited on messages that
    stopped moving, even if it got through in the end.
    """
    violations = [
        Violation(
            "convergence",
            f"drain stalled at {event.time_s * 1e3:.3f} ms: "
            f"{event.fields['in_flight']} message(s) in flight on "
            f"{event.fields['flows']} flow(s) unchanged for "
            f"{event.fields['polls']} polls",
        )
        for event in log.of_kind("flow.drain.stall")
    ]
    for flow in table.open_flows():
        if flow.state is not FlowState.ACTIVE:
            violations.append(Violation(
                "convergence",
                f"flow {flow.flow_id} stuck in {flow.state.value} "
                f"(gen {flow.generation})",
            ))
    return violations


def check_conservation(counters: dict, mode: str) -> list[Violation]:
    """App-level message conservation per traffic pair.

    ``exact``: reliable transport and no endpoint death — every sent
    message must have been received.  ``no-forge``: endpoints died
    mid-scenario, so in-flight messages may legitimately be lost, but
    the receiver can never count *more* than was sent.
    """
    violations = []
    for label in sorted(counters):
        sent = counters[label]["sent"]
        received = counters[label]["received"]
        if received > sent:
            violations.append(Violation(
                "conservation",
                f"{label}: received {received} > sent {sent} "
                "(messages forged)",
            ))
        elif mode == "exact" and received != sent:
            violations.append(Violation(
                "conservation",
                f"{label}: sent {sent} != received {received} "
                f"({sent - received} lost on a reliable path)",
            ))
    return violations


def check_repair_time(log: "EventLog", bound_s: float) -> list[Violation]:
    """Every BROKEN flow returned to ACTIVE within ``bound_s``.

    Reconstructed from the FLOW_TRANSITION stream: the clock starts when
    a flow enters BROKEN and stops at its next arrival in ACTIVE.  A
    flow still broken at the end is convergence's problem, not ours.
    """
    violations = []
    broken_since: dict[str, float] = {}
    for event in log.of_kind(FLOW_TRANSITION):
        flow_id = event.fields["flow"]
        new = event.fields["new"]
        if new == FlowState.BROKEN.value:
            broken_since.setdefault(flow_id, event.time_s)
        elif new == FlowState.ACTIVE.value and flow_id in broken_since:
            elapsed = event.time_s - broken_since.pop(flow_id)
            if elapsed > bound_s:
                violations.append(Violation(
                    "repair-time",
                    f"flow {flow_id} took {elapsed * 1e3:.3f} ms to "
                    f"repair (bound {bound_s * 1e3:.3f} ms)",
                ))
    return violations


def check_trace_consistency(log: "EventLog") -> list[Violation]:
    """The transition stream itself must be complete and legal.

    * No evictions — an evicted event would make every other probe
      unsound, so the harness sizes the ring for the scenario and this
      check proves the sizing held.
    * Per flow: the first event starts from ``none`` (open), and each
      event's ``old`` equals the previous event's ``new`` — a gap means
      a transition bypassed the FlowTable or the log dropped one.
    * Nothing follows a ``closed``.
    """
    violations = []
    if log.evicted:
        violations.append(Violation(
            "trace-consistency",
            f"event log evicted {log.evicted} events; probes unsound "
            "(raise the harness's event capacity)",
        ))
    last_state: dict[str, str] = {}
    for event in log.of_kind(FLOW_TRANSITION):
        flow_id = event.fields["flow"]
        old = event.fields["old"]
        new = event.fields["new"]
        previous = last_state.get(flow_id)
        if previous is None:
            if old != "none":
                violations.append(Violation(
                    "trace-consistency",
                    f"flow {flow_id}: first logged transition starts at "
                    f"{old!r}, not 'none'",
                ))
        elif previous == FlowState.CLOSED.value:
            violations.append(Violation(
                "trace-consistency",
                f"flow {flow_id}: transition {old} -> {new} after close",
            ))
        elif old != previous:
            violations.append(Violation(
                "trace-consistency",
                f"flow {flow_id}: gap in history ({previous} .. {old} "
                f"-> {new})",
            ))
        last_state[flow_id] = new
    return violations


def check_policy_freshness(network: "FreeFlowNetwork") -> list[Violation]:
    """No surviving flow runs on a stale mechanism decision.

    After the dust settles, re-deciding each ACTIVE flow against the
    orchestrator's *current* global state must agree with the mechanism
    the flow actually uses — otherwise some registry change never
    reached the reconciler (lost watch event without resync).
    """
    violations = []
    for flow in network.flows.open_flows():
        if flow.state is not FlowState.ACTIVE:
            continue
        try:
            fresh = network.orchestrator.decide(flow.src_name,
                                                flow.dst_name)
        except UnknownContainer:
            continue
        if fresh.mechanism is not flow.mechanism:
            violations.append(Violation(
                "policy-freshness",
                f"flow {flow.flow_id} runs {flow.mechanism.value} but "
                f"current policy says {fresh.mechanism.value}",
            ))
    return violations
