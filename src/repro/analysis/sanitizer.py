"""Runtime sanitizer: dynamic invariant checks for the simulation engine.

The static rules in :mod:`repro.analysis.rules` catch what the AST can
see; this module catches what it cannot — armed either by setting
``REPRO_SANITIZE=1`` in the environment (checked at :mod:`repro` import
time) or by calling :func:`install` directly.  Five invariant groups:

* **No event scheduled in the past** — every entry popped by the engine
  must carry ``time >= env.now``; a past-dated entry means some code
  pushed directly onto the queues with a stale timestamp.
* **Monotone clock / global order** — consecutive pops must be
  non-decreasing in time, and each popped entry must sort at or before
  every remaining queue front.  The three-queue engine (ready deque /
  monotone tail / heap) is *supposed* to be pop-order-identical to a
  single heap; this verifies it on every event.
* **Conservation across transplants** — :meth:`Lane.adopt` must count
  the adopted message exactly once in sent, delivered and payload
  bytes, and :meth:`ChannelFactory.transplant` must move every queued
  message and leave the old inboxes empty (no message lost or forged
  during live migration / repair).
* **FlowTable-only transitions** — ``FlowConnection.state`` becomes a
  guarded property; assigning it anywhere but through
  :meth:`FlowTable.transition` / :meth:`FlowConnection._transition`
  raises (the static counterpart is rule SIM006).
* **Streaming-ring conservation** — after every completion batch the
  receiver applies and every ``recv`` consumption, a streaming socket's
  ring accounting must balance: occupied receive-ring bytes equal the
  ring-tagged bytes waiting in the reassembly buffer, and on the send
  side ``ring capacity - credit level`` equals staged + un-acked ring
  bytes (no byte is ever minted or leaked by the coalescer or the
  credit protocol).

All violations raise :class:`repro.errors.SanitizerViolation`.  The
engine checks are an observer in
:data:`repro.sim.scheduler.OBSERVERS`; while any observer is armed,
``run()`` sends every event through ``step()`` instead of its batched
drain loop.  That costs some throughput, which is why it is opt-in (CI
runs the tier-1 suite and an engine smoke with it armed; the floor for
the sanitized smoke is 5% below the normal one).  The conservation,
flow-state and ring checks still wrap their domain methods.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SanitizerViolation
from ..sim import scheduler

__all__ = ["install", "uninstall", "installed", "stats", "reset_stats"]


class _State(scheduler.Observer):
    """Engine observer + saved domain methods + counters while armed."""

    def __init__(self) -> None:
        self.orig_adopt = None
        self.orig_transplant = None
        self.orig_table_transition = None
        self.orig_flow_transition = None
        self.orig_apply_completions = None
        self.orig_consume_rx = None
        #: >0 while inside a sanctioned transition (state writes allowed).
        self.allow_depth = 0
        self.checks: dict[str, int] = {}
        self.violations = 0

    # -- engine checks (scheduler.Observer) ---------------------------------

    def before(self, env, entry) -> None:
        time, priority, eid, _event = entry
        if time < env._now:
            _violate(
                f"event scheduled in the past: entry at t={time!r} "
                f"(priority={priority}, eid={eid}) while the clock is at "
                f"t={env._now!r} — something pushed a stale timestamp "
                f"directly onto the engine queues"
            )
        # Only *time* must be monotone across pops: an event processed at
        # time t may legitimately schedule an URGENT (lower-priority-number)
        # event at the same t, which a single heap would also pop next with
        # a smaller (priority, eid) — full-key monotonicity only holds for a
        # static event set.
        last = env.__dict__.get("_san_last_time")
        if last is not None and time < last:
            _violate(
                f"simulation clock regressed: popping an entry at t={time!r} "
                f"(priority={priority}, eid={eid}) after one at t={last!r} — "
                f"the three-queue schedule is no longer heap-equivalent"
            )
        env.__dict__["_san_last_time"] = time
        for pending in (env._ready, env._tail, env._queue):
            if pending and pending[0] < entry:
                _violate(
                    f"step() popped t={time!r} (priority={priority}, "
                    f"eid={eid}) ahead of an earlier queued entry "
                    f"{pending[0][:3]!r} — the three-queue pop no longer "
                    f"matches a single heap"
                )
        checks = self.checks
        checks["engine_step"] = checks.get("engine_step", 0) + 1


_state: Optional[_State] = None


def installed() -> bool:
    return _state is not None


def stats() -> dict:
    """Counters: checks performed per category + violations raised."""
    if _state is None:
        return {"installed": False}
    return {
        "installed": True,
        "violations": _state.violations,
        **dict(sorted(_state.checks.items())),
    }


def reset_stats() -> None:
    if _state is not None:
        _state.checks.clear()
        _state.violations = 0


def _bump(key: str) -> None:
    state = _state
    if state is not None:
        state.checks[key] = state.checks.get(key, 0) + 1


def _violate(message: str) -> None:
    if _state is not None:
        _state.violations += 1
    raise SanitizerViolation(message)


# -- conservation checks ----------------------------------------------------


def _checked_adopt(self, message) -> None:
    stats_obj = self.stats
    sent = stats_obj.messages_sent
    delivered = stats_obj.messages_delivered
    payload = stats_obj.payload_bytes
    _state.orig_adopt(self, message)
    _bump("lane_adopt")
    if (stats_obj.messages_sent != sent + 1
            or stats_obj.messages_delivered != delivered + 1
            or stats_obj.payload_bytes != payload + message.size_bytes):
        _violate(
            f"Lane.adopt broke stats conservation on {self.flow!r}: "
            f"expected sent +1 / delivered +1 / payload "
            f"+{message.size_bytes}, got sent "
            f"{stats_obj.messages_sent - sent:+d}, delivered "
            f"{stats_obj.messages_delivered - delivered:+d}, payload "
            f"{stats_obj.payload_bytes - payload:+d} — in_flight is no "
            f"longer conserved across the transplant"
        )


def _checked_transplant(self, old, new) -> int:
    pairs = ((old.lane_ab, new.lane_ab), (old.lane_ba, new.lane_ba))
    pending = [len(old_lane.inbox.items) for old_lane, _ in pairs]
    delivered_before = [new_lane.stats.messages_delivered
                        for _, new_lane in pairs]
    moved = _state.orig_transplant(self, old, new)
    _bump("channel_transplant")
    if moved != sum(pending):
        _violate(
            f"transplant moved {moved} message(s) but the old inboxes "
            f"held {sum(pending)} — messages were lost or forged during "
            f"the channel swap"
        )
    for (old_lane, new_lane), count, before in zip(
            pairs, pending, delivered_before):
        if old_lane.inbox.items:
            _violate(
                f"transplant left {len(old_lane.inbox.items)} message(s) "
                f"in the old {old_lane.mechanism.value} lane's inbox — "
                f"they are stranded on a dead channel"
            )
        got = new_lane.stats.messages_delivered - before
        if got != count:
            _violate(
                f"transplant adopted {got} message(s) into the new "
                f"{new_lane.mechanism.value} lane but the old lane held "
                f"{count}"
            )
    return moved


# -- streaming-ring conservation --------------------------------------------


def _check_socket_rings(sock) -> None:
    """Re-balance a streaming socket's ring accounting (both sides)."""
    if sock._rx_ring is not None:
        buffered = sum(n for n, _p, from_ring in sock._rx_buffer
                       if from_ring)
        if sock._rx_ring.used != buffered:
            _violate(
                f"receive-ring accounting out of balance on "
                f"{sock.container.name!r}: ring holds "
                f"{sock._rx_ring.used} byte(s) but the reassembly "
                f"buffer carries {buffered} ring-tagged byte(s) — a "
                f"coalesced WRITE was applied without its chunks (or "
                f"vice versa)"
            )
    if sock._tx_ring is not None and sock._tx_credits is not None:
        debited = sock._tx_credits.capacity - sock._tx_credits.level
        outstanding = sock._tx_ring.used + sock._staged_bytes
        # Senders parked between credit grant and staging account for
        # up to _credit_debt_pending extra debited-but-unstaged bytes.
        if not (outstanding <= debited
                <= outstanding + sock._credit_debt_pending):
            _violate(
                f"send-ring credit accounting out of balance on "
                f"{sock.container.name!r}: {debited} byte(s) of credit "
                f"debited but {outstanding} staged/un-acked "
                f"({sock._staged_bytes} staged + {sock._tx_ring.used} "
                f"in the ring, {sock._credit_debt_pending} granted but "
                f"not yet staged) — the credit protocol minted or "
                f"leaked ring bytes"
            )
    _bump("socket_ring")


def _checked_apply_completions(self, wcs):
    reposts = _state.orig_apply_completions(self, wcs)
    _check_socket_rings(self)
    return reposts


def _checked_consume_rx(self, max_bytes):
    result = _state.orig_consume_rx(self, max_bytes)
    _check_socket_rings(self)
    return result


# -- flow-state ownership ---------------------------------------------------


def _flow_state_get(self):
    try:
        return self.__dict__["state"]
    except KeyError:
        raise AttributeError("state") from None


def _flow_state_set(self, value) -> None:
    if "state" in self.__dict__ and _state is not None:
        if _state.allow_depth == 0:
            _violate(
                f"direct assignment to {self!r}.state "
                f"({self.__dict__['state']!r} -> {value!r}) outside the "
                f"FlowTable state machine — use FlowTable.transition() / "
                f"FlowConnection._transition() so legality checks and "
                f"telemetry fire (static counterpart: SIM006)"
            )
        _bump("flow_transition")
    self.__dict__["state"] = value


def _allowed_transition(orig):
    def wrapper(self, *args, **kwargs):
        _state.allow_depth += 1
        try:
            return orig(self, *args, **kwargs)
        finally:
            _state.allow_depth -= 1

    return wrapper


# -- install / uninstall ----------------------------------------------------


def install() -> None:
    """Arm every runtime check (idempotent)."""
    global _state
    if _state is not None:
        return
    from ..core.flows import ChannelFactory, FlowConnection, FlowTable
    from ..core.sockets import FreeFlowSocket
    from ..transports.base import Lane

    state = _State()
    state.orig_adopt = Lane.adopt
    state.orig_transplant = ChannelFactory.transplant
    state.orig_table_transition = FlowTable.transition
    state.orig_flow_transition = FlowConnection._transition
    state.orig_apply_completions = FreeFlowSocket._apply_completions
    state.orig_consume_rx = FreeFlowSocket._consume_rx
    _state = state

    scheduler.OBSERVERS += (state,)
    Lane.adopt = _checked_adopt
    ChannelFactory.transplant = _checked_transplant
    FreeFlowSocket._apply_completions = _checked_apply_completions
    FreeFlowSocket._consume_rx = _checked_consume_rx
    FlowTable.transition = _allowed_transition(state.orig_table_transition)
    FlowConnection._transition = _allowed_transition(
        state.orig_flow_transition)
    # This is the guard installation itself, not a state write.
    # simlint: disable=SIM006
    FlowConnection.state = property(_flow_state_get, _flow_state_set)


def uninstall() -> None:
    """Restore the unsanitized fast paths (idempotent)."""
    global _state
    if _state is None:
        return
    from ..core.flows import ChannelFactory, FlowConnection, FlowTable
    from ..core.sockets import FreeFlowSocket
    from ..transports.base import Lane

    scheduler.OBSERVERS = tuple(
        observer for observer in scheduler.OBSERVERS if observer is not _state)
    Lane.adopt = _state.orig_adopt
    ChannelFactory.transplant = _state.orig_transplant
    FreeFlowSocket._apply_completions = _state.orig_apply_completions
    FreeFlowSocket._consume_rx = _state.orig_consume_rx
    FlowTable.transition = _state.orig_table_transition
    FlowConnection._transition = _state.orig_flow_transition
    delattr(FlowConnection, "state")
    _state = None
