"""Shared, contended resources for the simulated testbed.

Three families, mirroring the classic DES toolkit:

* :class:`Resource` — ``capacity`` identical slots granted in request
  order.  Used for locks and (via ``repro.hardware.service``) hardware.
* :class:`Store` — an unbounded-or-bounded queue of Python objects.  Used
  for packet queues, completion queues, mailbox-style channels.
* :class:`Tank` — a continuous level (named to avoid clashing with the
  Docker sense of "container").  Used for buffer accounting.

Requests are events, so processes write::

    with lock.request() as req:
        yield req
        yield env.timeout(work_seconds)

The ``with`` form guarantees release even if the process is interrupted —
important for migration and failure-injection experiments.

Performance notes: ``Store`` and ``Tank`` operations that can complete
immediately (a ``get`` against a non-empty buffer with no queued waiters,
a ``put`` into free space) take a *fast path*: the event is triggered on
the spot without touching the wait queues or re-running the matching loop.
Queued waiters always win over a newcomer — the fast path is only taken
when the relevant wait queue is empty, so FIFO ordering and the
no-starvation property are preserved exactly (see
``tests/sim/test_resources.py::TestStoreFastPath``).

A store's buffer and a store's or tank's wait queues start as one
shared empty tuple, ``_EMPTY``, and become a real ``deque`` or list on
the first put or park.  Most stores of a fleet never see an item (an
idle flow owns four), an empty ``deque`` preallocates a 64-slot block
(~760 B), and an empty list is one more object for the cycle collector
to walk.  Only the methods below write these fields; readers treat the
tuple as any empty sequence.  The wait queues are plain lists, not
deques: a wait queue almost never holds more than one waiter, so
``pop(0)`` costs what ``popleft()`` did.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Environment

__all__ = [
    "Resource",
    "Request",
    "Store",
    "StorePut",
    "StoreGet",
    "Tank",
    "TankPut",
    "TankGet",
    "WAITS",
]

#: Process-wide park/grant hook for the blocking primitives (the seam the
#: runtime wait-for graph arms, mirroring ``netstack.tcp.FAULTS``).  When
#: set, every ``Resource.request``, ``Store.get``, ``Tank.get`` and
#: ``Tank.put`` reports its event once the operation has either been
#: granted on the spot or parked: ``WAITS.request(resource, request)``,
#: ``WAITS.store_get(store, event)`` and ``WAITS.tank(tank, event,
#: amount, sign)`` with ``sign`` -1 for a get and +1 for a put.  A
#: request that leaves its resource, released or withdrawn, is reported
#: as ``WAITS.release(resource, request)``.
WAITS = None

#: The buffer or wait queue of a store or tank that has never held an
#: item or a waiter.  Immutable, so sharing it is safe: whatever would
#: add to it swaps in a container of its own first.
_EMPTY: tuple = ()


def _park(queue, event: Event) -> list:
    """``queue`` with ``event`` appended, a new list if it was ``_EMPTY``."""
    if queue is _EMPTY:
        return [event]
    queue.append(event)
    return queue


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager: exiting the ``with`` block releases the
    slot (or cancels the claim if it never triggered).
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._add_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot if held, or withdraw from the wait queue."""
        self.resource._remove_request(self)

    def _abandon(self) -> None:
        self.cancel()


class Resource:
    """``capacity`` interchangeable slots, granted in request order."""

    __slots__ = ("env", "_capacity", "users", "queue", "label")

    def __init__(
        self,
        env: "Environment",
        capacity: int = 1,
        label: Optional[str] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        #: Optional human-readable name, surfaced by diagnostics (the
        #: wait-for graph reports) instead of an anonymous repr.
        self.label = label
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Claim one slot; the event triggers when granted, and its
        ``cancel()`` (or leaving its ``with`` block) releases it."""
        request = Request(self)
        if WAITS is not None:
            WAITS.request(self, request)
        return request

    # -- internals --------------------------------------------------------

    def _add_request(self, request: Request) -> None:
        self.queue.append(request)
        self._trigger()

    def _remove_request(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._trigger()
        elif request in self.queue:
            self.queue.remove(request)
        if WAITS is not None:
            WAITS.release(self, request)

    def _trigger(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            request = self.queue.pop(0)
            self.users.append(request)
            request.succeed()


class StorePut(Event):
    """Pending put into a :class:`Store` (waits if the store is full)."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.store = store
        self.item = item
        if not store._put_queue and len(store.items) < store.capacity:
            # Fast path: free space and nobody queued ahead — accept the
            # item on the spot.  Triggering before waking any parked gets
            # keeps the event order identical to the queued path.
            self.succeed()
            items = store.items
            if items is _EMPTY:
                items = store.items = deque()
            items.append(item)
            if store._get_queue:
                store._trigger()
            return
        store._put_queue = _park(store._put_queue, self)
        store._trigger()

    def _abandon(self) -> None:
        queue = self.store._put_queue
        if self in queue:  # else already satisfied
            queue.remove(self)


class StoreGet(Event):
    """Pending get from a :class:`Store` (waits if the store is empty)."""

    __slots__ = ("store", "predicate")

    def __init__(self, store: "Store", predicate: Optional[Callable[[Any], bool]]) -> None:
        super().__init__(store.env)
        self.store = store
        self.predicate = predicate
        if not store._get_queue and store.items:
            # Fast path: an immediate handoff from the buffer, bypassing
            # the wait queue entirely.  Only taken when no getter is
            # queued ahead of us, so FIFO order among getters holds.
            if predicate is None:
                self.succeed(store.items.popleft())
            else:
                match = store._find(predicate)
                if match is None:
                    # Nothing matches, and nothing else can have changed.
                    store._get_queue = _park(store._get_queue, self)
                    return
                index, item = match
                del store.items[index]
                self.succeed(item)
            if store._put_queue:
                # Our take freed a slot: admit the oldest blocked put.
                store._trigger()
            return
        store._get_queue = _park(store._get_queue, self)
        store._trigger()

    def _abandon(self) -> None:
        queue = self.store._get_queue
        if self in queue:  # else already satisfied
            queue.remove(self)


class Store:
    """FIFO object queue with optional capacity and filtered gets.

    ``get(predicate)`` retrieves the first item matching ``predicate``,
    which the verbs layer uses to match completions to a specific queue
    pair without draining unrelated completions.
    """

    __slots__ = ("env", "capacity", "items", "_put_queue", "_get_queue", "label")

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        label: Optional[str] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.label = label
        self.capacity = capacity
        #: Buffered items, oldest first: a ``deque`` from the first put.
        self.items: deque | tuple = _EMPTY
        self._put_queue: list[StorePut] | tuple = _EMPTY
        self._get_queue: list[StoreGet] | tuple = _EMPTY

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Queue ``item``; the event triggers once there is room."""
        return StorePut(self, item)

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Take the oldest item (matching ``predicate`` if given)."""
        event = StoreGet(self, predicate)
        if WAITS is not None:
            WAITS.store_get(self, event)
        return event

    def try_get(self) -> Any:
        """Non-blocking get: pop the oldest item or return None."""
        if not self.items:
            return None
        item = self.items.popleft()
        if self._put_queue or self._get_queue:
            self._trigger()
        return item

    def drain(self) -> list[Any]:
        """Non-blocking drain: take *every* buffered item in FIFO order.

        The bulk counterpart of :meth:`try_get` — one call, one list, no
        per-item trigger churn.  Blocked puts are admitted afterwards
        (the drain freed capacity), so a bounded store keeps flowing;
        items admitted that way stay in the buffer for the *next* drain,
        preserving the rule that a drain only returns what had already
        been delivered when it was called.
        """
        if not self.items:
            return []
        items = list(self.items)
        self.items.clear()
        if self._put_queue or self._get_queue:
            self._trigger()
        return items

    def fail_getters(self, exception: BaseException) -> None:
        """Fail every parked get with ``exception``, oldest first.

        A channel swap uses this to wake the receivers parked on an old
        inbox, which then retry on the new channel.
        """
        getters, self._get_queue = self._get_queue, _EMPTY
        for get in getters:
            get.fail(exception)

    # -- internals --------------------------------------------------------

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit puts while capacity allows.  A put parks only on a
            # full buffer, so the buffer is a deque by now.
            while self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.pop(0)
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Satisfy gets that have a matching item.
            if self._get_queue and self.items:
                for get in tuple(self._get_queue):
                    match = self._find(get.predicate)
                    if match is None:
                        continue
                    index, item = match
                    del self.items[index]
                    self._get_queue.remove(get)
                    get.succeed(item)
                    progressed = True

    def _find(self, predicate: Optional[Callable[[Any], bool]]):
        for index, item in enumerate(self.items):
            if predicate is None or predicate(item):
                return index, item
        return None


class TankPut(Event):
    """Pending put of ``amount`` into a :class:`Tank` (waits for room)."""

    __slots__ = ("tank", "amount")

    def __init__(self, tank: "Tank", amount: float) -> None:
        super().__init__(tank.env)
        self.tank = tank
        self.amount = amount

    def _abandon(self) -> None:
        queue = self.tank._puts
        if self in queue:  # else already satisfied
            queue.remove(self)
            # Waiters are served head-of-line: one behind may fit now.
            self.tank._trigger()


class TankGet(Event):
    """Pending get of ``amount`` from a :class:`Tank` (waits for level)."""

    __slots__ = ("tank", "amount")

    def __init__(self, tank: "Tank", amount: float) -> None:
        super().__init__(tank.env)
        self.tank = tank
        self.amount = amount

    def _abandon(self) -> None:
        queue = self.tank._gets
        if self in queue:  # else already satisfied
            queue.remove(self)
            # Waiters are served head-of-line: one behind may fit now.
            self.tank._trigger()


class Tank:
    """A continuous level between 0 and ``capacity``.

    ``put``/``get`` block until the operation fits.  Used for shared-memory
    buffer pools and NIC ring occupancy accounting.
    """

    __slots__ = ("env", "capacity", "_level", "_puts", "_gets", "label",
                 "__weakref__")

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        initial: float = 0.0,
        label: Optional[str] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= initial <= capacity:
            raise ValueError(f"initial level {initial} outside [0, {capacity}]")
        self.env = env
        self.label = label
        self.capacity = capacity
        self._level = float(initial)
        self._puts: list[TankPut] | tuple = _EMPTY
        self._gets: list[TankGet] | tuple = _EMPTY

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; blocks while it would overflow capacity."""
        if amount < 0:
            raise ValueError(f"negative amount {amount}")
        if not self._puts and self._level + amount <= self.capacity:
            # Fast path: the put fits and nobody is queued ahead (puts are
            # served head-of-line, so an empty queue is required).
            self._level += amount
            event = Event(self.env)
            event.succeed()
            if self._gets:
                self._trigger()
        else:
            event = TankPut(self, amount)
            self._puts = _park(self._puts, event)
            # No _trigger: the head put still does not fit (queue was
            # non-empty or this put overflows), and the level did not
            # change, so no queued get can have become satisfiable either.
        if WAITS is not None:
            WAITS.tank(self, event, amount, +1)
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; blocks while the level is insufficient."""
        if amount < 0:
            raise ValueError(f"negative amount {amount}")
        if not self._gets and self._level >= amount:
            self._level -= amount
            event = Event(self.env)
            event.succeed()
            if self._puts:
                self._trigger()
        else:
            event = TankGet(self, amount)
            self._gets = _park(self._gets, event)
        if WAITS is not None:
            WAITS.tank(self, event, amount, -1)
        return event

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._puts:
                put = self._puts[0]
                if self._level + put.amount <= self.capacity:
                    self._puts.pop(0)
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._gets:
                get = self._gets[0]
                if self._level >= get.amount:
                    self._gets.pop(0)
                    self._level -= get.amount
                    get.succeed()
                    progressed = True
