"""The simulation environment: virtual clock plus event queue.

:class:`Environment` owns the queues of scheduled events and the current
simulated time.  All FreeFlow experiments run inside one environment, so a
whole cluster — hosts, NICs, agents, containers, the orchestrator — advances
deterministically in virtual time.

Time unit convention for this project: **seconds** (floats).  Hardware
models convert from cycles / bytes / bits internally.

Performance notes: the classic single-heap design pays O(log n) per event,
but almost no event in a FreeFlow run actually needs it.  The environment
therefore keeps three internally-sorted structures and ``step()`` pops the
globally smallest ``(time, priority, eid)`` key, which makes the execution
order *identical* to a single heap — time, then priority, then creation
order — while the common cases are O(1):

* ``_ready`` — FIFO deque of immediate events (``succeed()`` with no
  delay: store handoffs, process resumes, resource grants).  Naturally
  sorted: appended at the current time with increasing event ids, and the
  clock never moves backwards.
* ``_tail`` — deque of *delayed* events whose keys arrive in
  non-decreasing order (the dominant pattern: fixed service latencies
  re-armed as time advances).  A schedule whose key is not ``>=`` the
  tail's last entry falls back to the heap.
* ``_queue`` — heap for everything else: urgent (interrupt) events and
  out-of-order delayed inserts.

Instrumentation (the runtime sanitizer, the engine profiler, the
wait-for graph) never patches this class: it registers an
:class:`Observer` in :data:`OBSERVERS`.  While that tuple is empty
``run()`` drains the queues with its batched inlined loop; while it is
not, every event goes through ``step()``, which hands each observer the
popped entry before and after its callbacks run.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Any, Iterable, Optional

from .events import NO_CALLBACKS, AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGen

__all__ = [
    "OBSERVERS", "Environment", "EmptySchedule", "Observer", "StopSimulation",
]

#: Scheduling priorities: URGENT events (interrupts) run before NORMAL
#: events that share the same timestamp.
URGENT = 0
NORMAL = 1

#: Process-wide engine observers (the instrumentation seam, mirroring
#: ``netstack.tcp.FAULTS``): a tuple of :class:`Observer`, called in
#: order.  Tools arm by appending themselves and disarm by filtering
#: themselves out, so any install/uninstall order composes.
OBSERVERS: tuple = ()


class Observer:
    """Engine observer protocol; every hook defaults to a no-op.

    ``before``/``after`` bracket one event's callbacks: ``before`` sees
    the popped ``(time, priority, eid, event)`` entry while ``env.now``
    still holds the previous clock, and ``after`` runs in a ``finally``
    once the callbacks returned or raised.  ``idle`` runs when ``run()``
    returns with every queue drained.
    """

    __slots__ = ()

    def before(self, env: "Environment", entry: tuple) -> None:
        pass

    def after(self, env: "Environment", entry: tuple) -> None:
        pass

    def idle(self, env: "Environment") -> None:
        pass


class EmptySchedule(Exception):
    """Raised by ``step()`` when no events remain."""


class StopSimulation(Exception):
    """Raised internally to end ``run(until=event)`` early."""


class Environment:
    """Discrete-event execution environment.

    Parameters
    ----------
    initial_time:
        Starting value of the virtual clock (seconds).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Heap of urgent / out-of-order delayed events.
        self._queue: list[tuple[float, int, int, Event]] = []
        #: FIFO of zero-delay NORMAL-priority events (the common case).
        self._ready: deque[tuple[float, int, int, Event]] = deque()
        #: Monotone deque of delayed NORMAL events (keys non-decreasing).
        self._tail: deque[tuple[float, int, int, Event]] = deque()
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Total events processed by :meth:`step` (perf accounting).
        self.events_processed: int = 0

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped (None between steps)."""
        return self._active_process

    # -- event creation helpers ------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGen) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when every event in ``events`` succeeds."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any event in ``events`` succeeds."""
        return AnyOf(self, events)

    # -- scheduling and execution -----------------------------------------

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Queue ``event`` to be processed ``delay`` seconds from now."""
        if delay == 0.0 and priority == NORMAL:
            # Fast path: immediate events keep FIFO order on a deque; no
            # heap, no log-n sift.
            self._ready.append((self._now, NORMAL, next(self._eid), event))
            return
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        entry = (self._now + delay, priority, next(self._eid), event)
        if priority == NORMAL:
            tail = self._tail
            if not tail or entry >= tail[-1]:
                # Monotone insert (fixed service latencies re-armed as the
                # clock advances): O(1) append instead of a heap sift.
                tail.append(entry)
                return
        heapq.heappush(self._queue, entry)

    def _next_entry_time(self) -> float:
        """Timestamp of the globally next event, or ``inf`` if none."""
        first = float("inf")
        if self._ready:
            first = self._ready[0][0]
        if self._tail and self._tail[0][0] < first:
            first = self._tail[0][0]
        if self._queue and self._queue[0][0] < first:
            first = self._queue[0][0]
        return first

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._next_entry_time()

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        # Pop the globally smallest (time, priority, eid) of the three
        # internally-sorted structures (keep in sync with run()'s drain
        # loop).  Each branch below compares at most two front keys.
        ready = self._ready
        tail = self._tail
        queue = self._queue
        if ready:
            best = ready[0]
            if tail and tail[0] < best:
                best = tail[0]
                if queue and queue[0] < best:
                    entry = heapq.heappop(queue)
                else:
                    entry = tail.popleft()
            elif queue and queue[0] < best:
                entry = heapq.heappop(queue)
            else:
                entry = ready.popleft()
        elif tail:
            if queue and queue[0] < tail[0]:
                entry = heapq.heappop(queue)
            else:
                entry = tail.popleft()
        elif queue:
            entry = heapq.heappop(queue)
        else:
            raise EmptySchedule()
        self.events_processed += 1
        observers = OBSERVERS
        if observers:
            # Observers see the entry while the clock still reads the
            # previous event's time.
            for observer in observers:
                observer.before(self, entry)
        self._now, _, _, event = entry
        try:
            # Inlined Event._mark_processed + dispatch: the compact
            # callback representation means no list is built for
            # 0/1-waiter events.
            callbacks = event._callbacks
            event._callbacks = None
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(event)
            elif callbacks is not NO_CALLBACKS:
                callbacks(event)
        finally:
            if observers:
                for observer in observers:
                    observer.after(self, entry)
        if not event._ok and not event.defused:
            # A failure that nobody consumed: surface it loudly.  The
            # traceback keeps this frame and the event keeps the
            # exception, so the frame lets go of the event first.
            try:
                raise event._value
            finally:
                entry = best = event = callbacks = None

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the queue drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception).

        :data:`OBSERVERS` is read once, here; armed observers get their
        ``idle`` hook when the run returns with every queue drained.
        """
        observers = OBSERVERS
        try:
            result = self._run(until, observers)
        except BaseException:
            until = None  # a failed ``until`` must not outlive the raise
            raise
        if observers and not (self._ready or self._tail or self._queue):
            for observer in observers:
                observer.idle(self)
        return result

    def _run(self, until: "float | Event | None", observers: tuple) -> Any:
        if until is None:
            stop_at = float("inf")
            stop_event: Optional[Event] = None
        elif isinstance(until, Event):
            stop_at = float("inf")
            stop_event = until
            if stop_event.processed:
                if stop_event._ok:
                    return stop_event._value
                try:
                    raise stop_event._value
                finally:
                    until = stop_event = None
            stop_event._add_callback(self._stop_on)
        else:
            stop_at = float(until)
            stop_event = None
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} is in the past (now={self._now})"
                )

        try:
            if stop_at == float("inf") and not observers:
                # No time bound, nobody observing: drain the queues with
                # step()'s body inlined (keep in sync with step()) — the
                # per-event method call is measurable at millions of
                # events per run.
                ready = self._ready
                tail = self._tail
                queue = self._queue
                heappop = heapq.heappop
                events = 0
                try:
                    while ready or tail or queue:
                        if ready and not queue and (
                            not tail or tail[0][0] > ready[0][0]
                        ):
                            # Batched same-timestamp drain.  Every pending
                            # ready entry shares one timestamp (ready
                            # entries are appended at the current time and
                            # the clock cannot advance past one), and the
                            # tail/heap heads are strictly later — so the
                            # whole run pops FIFO with no per-event
                            # three-way compare, in heap-identical order
                            # (appends during the run land at the same
                            # time with larger eids, i.e. after).  A rack
                            # failure fanning out thousands of same-tick
                            # callbacks rides this loop.  Bail out to the
                            # careful loop if an URGENT event lands on the
                            # heap mid-run (it must preempt the rest), or
                            # if a mid-run append seeds an empty tail at
                            # the current instant (sub-ulp delays round
                            # to now).
                            popleft = ready.popleft
                            while ready:
                                self._now, _, _, event = popleft()
                                events += 1
                                callbacks = event._callbacks
                                event._callbacks = None
                                if type(callbacks) is list:
                                    for callback in callbacks:
                                        callback(event)
                                elif callbacks is not NO_CALLBACKS:
                                    callbacks(event)
                                if not event._ok and not event.defused:
                                    try:
                                        raise event._value
                                    finally:
                                        event = best = callbacks = None
                                if queue or (
                                    tail and tail[0][0] <= self._now
                                ):
                                    break
                            continue
                        if ready:
                            best = ready[0]
                            if tail and tail[0] < best:
                                best = tail[0]
                                if queue and queue[0] < best:
                                    self._now, _, _, event = heappop(queue)
                                else:
                                    self._now, _, _, event = tail.popleft()
                            elif queue and queue[0] < best:
                                self._now, _, _, event = heappop(queue)
                            else:
                                self._now, _, _, event = ready.popleft()
                        elif tail:
                            if queue and queue[0] < tail[0]:
                                self._now, _, _, event = heappop(queue)
                            else:
                                self._now, _, _, event = tail.popleft()
                        else:
                            self._now, _, _, event = heappop(queue)
                        events += 1
                        callbacks = event._callbacks
                        event._callbacks = None
                        if type(callbacks) is list:
                            for callback in callbacks:
                                callback(event)
                        elif callbacks is not NO_CALLBACKS:
                            callbacks(event)
                        if not event._ok and not event.defused:
                            try:
                                raise event._value
                            finally:
                                event = best = callbacks = None
                finally:
                    self.events_processed += events
            else:
                # A time bound or armed observers: one step() per event.
                bounded = stop_at != float("inf")
                while self._ready or self._tail or self._queue:
                    if bounded and self._next_entry_time() > stop_at:
                        break
                    self.step()
        except StopSimulation as stop:
            stop_event = stop.args[0]
        except BaseException:
            # A failed run's stop must not end a later run at the event.
            if stop_event is not None:
                stop_event._remove_callback(self._stop_on)
            raise
        else:
            if stop_event is not None and not stop_event.processed:
                stop_event._remove_callback(self._stop_on)
                raise RuntimeError(
                    "simulation ran out of events before `until` event "
                    "triggered"
                )
            if stop_at != float("inf"):
                self._now = stop_at
        # The outcome is raised outside the handler, so the failure does
        # not take the StopSimulation (which holds the event) as context.
        if stop_event is not None:
            if stop_event._ok:
                return stop_event._value
            try:
                raise stop_event._value
            finally:
                until = stop_event = event = best = callbacks = None
        return None

    @staticmethod
    def _stop_on(event: Event) -> None:
        event.defused = True
        raise StopSimulation(event)
