"""Runtime sanitizer: dynamic invariant checks for the simulation engine.

The static rules in :mod:`repro.analysis.rules` catch what the AST can
see; this module catches what it cannot — armed either by setting
``REPRO_SANITIZE=1`` in the environment (checked at :mod:`repro` import
time) or by calling :func:`install` directly.  Three invariant groups:

* **No event scheduled in the past** — every entry popped by the engine
  must carry ``time >= env.now``; a past-dated entry means some code
  pushed directly onto the queues with a stale timestamp.
* **Monotone clock / global order** — consecutive pops must be
  non-decreasing in time, and each popped entry must sort at or before
  every remaining queue front.  The three-queue engine (ready deque /
  monotone tail / heap) is *supposed* to be pop-order-identical to a
  single heap; this verifies it on every event.
* **Streaming-ring conservation** — after every completion batch the
  receiver applies and every ``recv`` consumption, a streaming socket's
  ring accounting must balance: occupied receive-ring bytes equal the
  ring-tagged bytes waiting in the reassembly buffer, and on the send
  side ``ring capacity - credit level`` equals staged + un-acked ring
  bytes (no byte is ever minted or leaked by the coalescer or the
  credit protocol).  The check itself is
  :meth:`FreeFlowSocket._ring_imbalance`; it runs only while the
  sanitizer holds the :data:`repro.core.sockets.RING_CHECK` slot.

All violations raise :class:`repro.errors.SanitizerViolation`.  The
engine checks are an observer in
:data:`repro.sim.scheduler.OBSERVERS`; while any observer is armed,
``run()`` sends every event through ``step()`` instead of its batched
drain loop.  That costs some throughput, which is why it is opt-in (CI
runs the tier-1 suite and an engine smoke with it armed; the floor for
the sanitized smoke is 5% below the normal one).  Arming touches those
two slots and no class.

Two cheap checks are not armed here because they run in every run,
beside the data they check: ``FlowConnection.state`` is a read-only
property (assigning it raises ``AttributeError``; rule SIM006 is the
static twin), and :meth:`ChannelFactory.transplant` raises
:class:`~repro.errors.EngineInvariantError` when a channel swap loses
or forges a message.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SanitizerViolation
from ..sim import scheduler

__all__ = ["install", "uninstall", "installed", "stats", "reset_stats"]


class _State(scheduler.Observer):
    """Engine observer + ring-check hook + counters while armed."""

    def __init__(self) -> None:
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

    # -- streaming-ring conservation (sockets.RING_CHECK) --------------------

    def ring(self, problem) -> None:
        checks = self.checks
        checks["socket_ring"] = checks.get("socket_ring", 0) + 1
        if problem is not None:
            _violate(problem)


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


def _violate(message: str) -> None:
    if _state is not None:
        _state.violations += 1
    raise SanitizerViolation(message)


# -- install / uninstall ----------------------------------------------------


def install() -> None:
    """Arm every runtime check (idempotent)."""
    global _state
    if _state is not None:
        return
    from ..core import sockets

    _state = _State()
    scheduler.OBSERVERS += (_state,)
    sockets.RING_CHECK = _state


def uninstall() -> None:
    """Disarm every runtime check (idempotent)."""
    global _state
    if _state is None:
        return
    from ..core import sockets

    scheduler.OBSERVERS = tuple(
        observer for observer in scheduler.OBSERVERS if observer is not _state)
    sockets.RING_CHECK = None
    _state = None
