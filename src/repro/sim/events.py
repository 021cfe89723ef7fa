"""Event primitives for the discrete-event simulation engine.

The engine follows the classic process-interaction style (like SimPy, but
implemented from scratch for this reproduction): simulation *processes* are
Python generators that ``yield`` events, and the :class:`Environment`
(see :mod:`repro.sim.scheduler`) resumes them when those events trigger.

An :class:`Event` moves through three stages:

1. *pending*   — created, nobody has triggered it yet;
2. *triggered* — a value (or exception) has been set and the event has been
   scheduled on the environment's queue;
3. *processed* — the environment has popped it and run its callbacks.

Composite conditions (:class:`AllOf` / :class:`AnyOf`) let a process wait for
several events at once, which the transports use to model concurrent DMA,
CPU work and link transmission.

Performance notes: every hot class uses ``__slots__`` (an engine run
allocates millions of events, and ``__dict__``-free instances are both
smaller and faster to create), and the callback list is built lazily — the
overwhelmingly common case is *one* waiter (a process parked on a yield),
which is stored as a bare callable with no list allocation at all.  The
internal representation of :attr:`Event._callbacks` is therefore one of:

* ``NO_CALLBACKS`` — nothing registered yet (pending or triggered);
* a single callable — exactly one waiter (the fast path);
* a ``list`` — two or more waiters, or external code used the
  :attr:`Event.callbacks` property (which materialises a real list);
* ``None`` — the event has been processed.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from ..errors import EngineInvariantError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .scheduler import Environment

__all__ = [
    "PENDING",
    "NO_CALLBACKS",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "EventAlreadyTriggered",
]


class _Pending:
    """Sentinel for "this event has no value yet"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Sentinel stored in :attr:`Event._value` until the event triggers.
PENDING = _Pending()


class _NoCallbacks:
    """Sentinel: no callbacks registered yet (distinct from processed)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<NO_CALLBACKS>"


#: Initial value of :attr:`Event._callbacks`; avoids a list allocation for
#: events nobody ever waits on (and defers it for single-waiter events).
NO_CALLBACKS = _NoCallbacks()


class EventAlreadyTriggered(RuntimeError):
    """Raised when code tries to succeed/fail an event twice."""


class Event:
    """A single occurrence that processes can wait on.

    Events carry either a *value* (on success) or an *exception* (on
    failure).  Waiting processes receive the value as the result of their
    ``yield`` expression, or have the exception thrown into them.
    """

    __slots__ = ("env", "_callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._callbacks: Any = NO_CALLBACKS
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Set True to acknowledge a failure nobody waits on; otherwise the
        #: environment re-raises unhandled failures (errors never pass
        #: silently).
        self.defused: bool = False

    @property
    def callbacks(self) -> Optional[list]:
        """Callables run when the event is processed (None afterwards).

        Accessing this property materialises the internal compact
        representation into a real, mutable list, so external code can
        keep using ``event.callbacks.append(fn)`` / ``.remove(fn)``.
        Engine-internal hot paths use :meth:`_add_callback` instead.
        """
        cbs = self._callbacks
        if cbs is None:
            return None
        if cbs is NO_CALLBACKS:
            cbs = self._callbacks = []
        elif type(cbs) is not list:
            cbs = self._callbacks = [cbs]
        return cbs

    def _add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` without allocating a list for the 1-waiter case."""
        cbs = self._callbacks
        if cbs is NO_CALLBACKS:
            self._callbacks = fn
        elif type(cbs) is list:
            cbs.append(fn)
        elif cbs is None:
            raise RuntimeError(f"{self!r} already processed")
        else:
            self._callbacks = [cbs, fn]

    def _remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Detach ``fn`` if it is registered (undoes :meth:`_add_callback`)."""
        cbs = self._callbacks
        if cbs is fn:
            self._callbacks = NO_CALLBACKS
        elif type(cbs) is list and fn in cbs:
            cbs.remove(fn)

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has run this event's callbacks."""
        return self._callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value (or exception instance) the event triggered with."""
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined env.schedule(self): an immediate NORMAL-priority event
        # goes straight onto the ready deque (succeed is the hottest
        # trigger path in the engine — every handoff and resume ends here).
        env = self.env
        env._ready.append((env._now, 1, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is thrown into every waiting process.  If nobody is
        waiting, the environment raises it at the next ``step()`` so errors
        never pass silently.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def _mark_processed(self) -> list:
        """Detach and return callbacks; the event is now *processed*."""
        cbs = self._callbacks
        if cbs is None:
            raise EngineInvariantError(
                f"{self!r} processed twice — callbacks may be detached "
                "only once per event"
            )
        self._callbacks = None
        if cbs is NO_CALLBACKS:
            return []
        if type(cbs) is list:
            return cbs
        return [cbs]

    def _abandon(self) -> None:
        """Withdraw any pending claim this event represents.

        Called when the waiting process is interrupted away from the
        event: resources/stores override this so an orphaned request does
        not consume an item or slot nobody will ever receive.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` simulated time.

    Unlike a bare :class:`Event`, a timeout is scheduled the moment it is
    created; it cannot fail and cannot be re-triggered.
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ + trigger: timeouts are born triggered, so
        # writing the final state once keeps the hottest allocation path in
        # the engine down to a single pass over the slots.
        self.env = env
        self._callbacks = NO_CALLBACKS
        self._ok = True
        self._value = value
        self.defused = False
        self._delay = delay
        # Inlined env.schedule(self, delay=delay): zero-delay timeouts ride
        # the ready deque; delayed ones take the monotone tail deque when
        # their key extends it (the fixed-latency re-arm pattern), and only
        # out-of-order inserts pay the heap.
        if delay == 0.0:
            env._ready.append((env._now, 1, next(env._eid), self))
        else:
            entry = (env._now + delay, 1, next(env._eid), self)
            tail = env._tail
            if not tail or entry >= tail[-1]:
                tail.append(entry)
            else:
                heappush(env._queue, entry)

    @property
    def delay(self) -> float:
        return self._delay

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise RuntimeError("a Timeout triggers itself; do not call succeed()")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise RuntimeError("a Timeout cannot fail")


class Condition(Event):
    """Waits for a combination of events, evaluated by ``evaluate``.

    ``evaluate(events, count)`` receives the tuple of child events and the
    number already succeeded, and returns True once the condition holds.
    The condition's value is a dict mapping each *triggered* child event to
    its value (insertion-ordered by trigger time), so callers can inspect
    which events fired.

    A failing child event fails the whole condition immediately.
    """

    __slots__ = ("_evaluate", "_events", "_count", "_results")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[tuple[Event, ...], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = tuple(events)
        self._count = 0
        self._results: dict[Event, Any] = {}

        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must share one environment")

        if not self._events:
            # An empty condition is trivially satisfied.
            self.succeed(self._results)
            return

        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event._add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self._count += 1
        self._results[event] = event.value
        if self._evaluate(self._events, self._count):
            self.succeed(dict(self._results))

    @staticmethod
    def all_events(events: tuple[Event, ...], count: int) -> bool:
        """Evaluator: every child event has succeeded."""
        return len(events) == count

    @staticmethod
    def any_events(events: tuple[Event, ...], count: int) -> bool:
        """Evaluator: at least one child event has succeeded."""
        return count > 0 or len(events) == 0


class AllOf(Condition):
    """Condition that triggers when *all* child events have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that triggers when *any* child event has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
