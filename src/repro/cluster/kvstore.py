"""An etcd-like key-value store with prefix watches (substrate S7).

Container orchestrators keep their cluster state in exactly this shape
of store, and FreeFlow's network orchestrator needs both point lookups
("where is container X right now?") and change notification ("tell my
agents when X moves") — the paper's library "keeps pulling the newest
container location information from the network orchestrator" (§3.2);
watches are the efficient push-style equivalent we also provide.

The store is synchronous in simulated time (an in-process data
structure); RPC latency to reach it is modelled by the *callers* (see
:class:`repro.core.orchestrator.NetworkOrchestrator`), so control-plane
cost ablations can vary it without touching the store.

Datacenter-scale machinery (DESIGN.md §15):

* **Indexed watch dispatch** — keys and watch prefixes share one
  segment trie, so a put/delete touches O(key-depth) trie nodes plus
  the watchers actually hanging off that path, instead of scanning
  every registered watch.  ``dispatch_checks`` counts candidate tests
  so the property is testable, not just asserted.
* **Leases** — etcd-style TTL sessions: keys attached to a lease are
  deleted together (emitting ordinary DELETE events) when the lease
  lapses.  Host liveness becomes "keepalive the lease" instead of
  explicit ``fail_host`` bookkeeping.  One lazy expiry timer serves
  every lease; keepalives are O(log leases), not one process each.
* **Revision history + compaction** — a bounded deque of recent events
  enables *precise* resync (``resync(since=revision)`` replays exactly
  the missed events, deletes included); :exc:`~repro.errors.CompactedRevision`
  signals the horizon passed and callers fall back to snapshot resync.
* **Coalesced delivery** — a watch delivers one :class:`WatchBatch`
  per simulated instant: the events of that instant, one per key (the
  latest), in first-touch key order — the TSoR lesson: batch everything
  that crosses a layer boundary.  Replays (``include_existing``,
  :meth:`Watch.resync`) queue one single-event batch per event, so
  every queue item is a :class:`WatchBatch`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from ..errors import CompactedRevision, LeaseError
from ..sim.events import Timeout
from ..sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.scheduler import Environment

__all__ = [
    "ABSENT",
    "KeyValueStore",
    "WatchEvent",
    "WatchBatch",
    "Watch",
    "Lease",
]


class _Absent:
    """Sentinel for :meth:`KeyValueStore.compare_and_put`: "the key must
    not exist".  A dedicated singleton (rather than ``None``) so a key
    explicitly stored as ``None`` can still be CAS-updated."""

    _instance = None

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ABSENT>"


#: Pass as ``expected`` to :meth:`KeyValueStore.compare_and_put` to mean
#: create-if-absent.
ABSENT = _Absent()


@dataclass(frozen=True)
class WatchEvent:
    """One change notification: PUT or DELETE of a key."""

    kind: str  # "put" | "delete"
    key: str
    value: Any
    revision: int


@dataclass(frozen=True)
class WatchBatch:
    """One watch delivery: at most one event per key, first-touch key
    order, each event the *latest* for its key within its instant (a
    replay holds exactly one event).  Every queue item of a
    :class:`Watch` is one; iterate it like a list of events.
    """

    events: tuple[WatchEvent, ...]

    def __iter__(self) -> Iterator[WatchEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


class _Node:
    """One segment of the shared key/watch prefix trie."""

    __slots__ = ("children", "entries", "key")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        #: Watches whose prefix ends inside this node's segment span:
        #: ``(partial, watch)`` matches keys whose next segment starts
        #: with ``partial`` ("" for prefixes ending in "/").
        self.entries: list[tuple[str, Watch]] = []
        #: Full key string if a live key terminates here, else None.
        self.key: Optional[str] = None


class Lease(object):
    """An etcd-style TTL session: keys attached to it die with it."""

    __slots__ = ("lease_id", "ttl_s", "deadline", "keys", "alive", "on_expire")

    def __init__(
        self,
        lease_id: int,
        ttl_s: float,
        deadline: float,
        on_expire: Optional[Callable[["Lease"], None]],
    ) -> None:
        self.lease_id = lease_id
        self.ttl_s = ttl_s
        self.deadline = deadline
        #: Attached keys as an insertion-ordered set (dict keys), so the
        #: expiry DELETE cascade is deterministic (SIM001).
        self.keys: dict[str, None] = {}
        self.alive = True
        self.on_expire = on_expire

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "dead"
        return (f"<Lease {self.lease_id} {state} ttl={self.ttl_s} "
                f"keys={len(self.keys)}>")


class Watch:
    """A live subscription to changes under a key prefix.

    Iterate with ``batch = yield watch.queue.get()`` inside a process
    (every item is a :class:`WatchBatch`), or drain synchronously in
    tests with :meth:`pending`.
    """

    def __init__(self, store: "KeyValueStore", prefix: str) -> None:
        self._store = store
        self.prefix = prefix
        self.queue: Store = Store(store.env)
        self.cancelled = False
        #: Highest revision delivered (or buffered) to this watch; the
        #: ``since`` anchor for a precise :meth:`resync`.  A fresh watch
        #: anchors at the store's current revision: it has missed
        #: nothing that happened before it existed.
        self.last_revision = store.revision
        #: This instant's deliveries: key -> latest event, first-touch
        #: order.
        self._buffer: dict[str, WatchEvent] = {}

    def has_pending(self) -> bool:
        """True if any delivery (queued or still buffered) is pending."""
        return len(self.queue) > 0 or bool(self._buffer)

    def pending(self) -> list[WatchEvent]:
        """Non-blocking drain of already-delivered events.

        Flushes this instant's buffer first and flattens the batches, so
        a synchronous consumer sees every event known at call time.
        """
        self._flush(None)
        return [event for batch in self.queue.drain() for event in batch]

    def cancel(self) -> None:
        self.cancelled = True
        self._buffer.clear()
        self._store._unindex_watch(self)

    def resync(self, since: Optional[int] = None) -> int:
        """Replay state or history under the prefix into the queue.

        The reconnect primitive: a watcher that suspects it missed
        deliveries (its connection to the store was dropped, delayed or
        lossy) calls ``resync()`` and recovers through the same queue as
        live changes.  Two modes:

        * ``since=None`` — snapshot replay: one synthetic PUT per live
          key, at the store's current revision — etcd's "watch from the
          current revision after a compaction" dance.  Deletions that
          were missed do not replay (the key is gone); consumers that
          track a view must diff it against the replayed set (see
          :meth:`repro.core.flows.FlowReconciler.resync`).
        * ``since=revision`` — precise replay from the revision history:
          exactly the events after ``revision`` under the prefix,
          missed DELETEs included.  Raises
          :exc:`~repro.errors.CompactedRevision` when ``revision``
          predates the compaction horizon; fall back to a snapshot.

        Returns the number of events queued; a cancelled watch replays
        nothing.
        """
        if self.cancelled:
            return 0
        if since is None:
            return self._store.resync(self)
        return self._store.replay_history(self, since)

    # -- internals ------------------------------------------------------------

    def _flush(self, _event: object) -> None:
        """Deliver this instant's buffer as one :class:`WatchBatch` (the
        callback of the instant's flush timer).  A cancelled watch has
        none: :meth:`cancel` clears it and the store delivers nothing
        more."""
        if not self._buffer:
            return
        batch = WatchBatch(tuple(self._buffer.values()))
        self._buffer.clear()
        self.queue.put(batch)


class KeyValueStore:
    """Hierarchical (slash-separated) keys, revisions, prefix watches,
    leases and bounded revision history."""

    def __init__(
        self, env: "Environment", history_limit: int = 4096
    ) -> None:
        if history_limit <= 0:
            raise ValueError(f"history_limit must be positive, got {history_limit}")
        self.env = env
        self._data: dict[str, Any] = {}
        self._revisions = itertools.count(1)
        self.revision = 0
        self._watches: set[Watch] = set()
        #: Shared key/watch-prefix trie (watch dispatch + prefix listing).
        self._root = _Node()
        #: Recent events for precise resync; older revisions are compacted.
        self.history_limit = history_limit
        self._history: deque[WatchEvent] = deque()
        #: Highest revision compacted away (0 = full history retained).
        self.compacted_revision = 0
        # -- leases ---------------------------------------------------------
        self._lease_ids = itertools.count(1)
        self._leases: dict[int, Lease] = {}
        #: Lazy-deletion deadline heap: (deadline, lease_id).  Stale
        #: entries (lease refreshed or dead) are skipped at pop time.
        self._lease_heap: list[tuple[float, int]] = []
        self._key_lease: dict[str, Lease] = {}
        #: Deadline the armed expiry timer fires at (None = not armed).
        self._expiry_armed_at: Optional[float] = None
        # -- dispatch accounting (the "no full scan" property is tested
        # against these, not just asserted) ---------------------------------
        self.dispatch_events = 0
        self.dispatch_checks = 0
        self.dispatch_deliveries = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    # -- reads/writes ----------------------------------------------------------

    def put(self, key: str, value: Any, lease: Optional[Lease] = None) -> int:
        """Set ``key`` to ``value``; returns the new store revision.

        With ``lease=``, the key is attached to that lease and will be
        deleted when it expires or is revoked.  A plain put *detaches*
        the key from any previous lease (etcd semantics).
        """
        self._validate(key)
        if lease is not None and not lease.alive:
            raise LeaseError(
                f"lease {lease.lease_id} is no longer alive"
            )
        if key not in self._data:
            self._index_key(key)
        self._data[key] = value
        old = self._key_lease.pop(key, None)
        if old is not None and old is not lease:
            old.keys.pop(key, None)
        if lease is not None:
            self._key_lease[key] = lease
            lease.keys[key] = None
        self.revision = next(self._revisions)
        event = WatchEvent("put", key, value, self.revision)
        self._record(event)
        self._notify(event)
        return self.revision

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns True if it existed."""
        if key not in self._data:
            return False
        value = self._data.pop(key)
        self._unindex_key(key)
        old = self._key_lease.pop(key, None)
        if old is not None:
            old.keys.pop(key, None)
        self.revision = next(self._revisions)
        event = WatchEvent("delete", key, value, self.revision)
        self._record(event)
        self._notify(event)
        return True

    def keys(self, prefix: str = "") -> list[str]:
        """Sorted keys under ``prefix`` — trie-backed, O(result)."""
        segments = prefix.split("/")
        node = self._root
        for segment in segments[:-1]:
            node = node.children.get(segment)
            if node is None:
                return []
        partial = segments[-1]
        found: list[str] = []
        for segment, child in node.children.items():
            if segment.startswith(partial):
                self._collect(child, found)
        found.sort()
        return found

    def items(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        for key in self.keys(prefix):
            yield key, self._data[key]

    def watch(self, prefix: str = "",
              include_existing: bool = False) -> Watch:
        """Subscribe to future changes under ``prefix``.

        Deliveries arrive as :class:`WatchBatch` items, one per simulated
        instant that changed a key under the prefix: one event per key
        (the latest), first-touch key order.

        With ``include_existing=True`` the current state under the prefix
        is replayed into the queue first, as synthetic PUT events at the
        store's current revision — an etcd-style "watch from revision 0".
        Reconcilers use this so a late subscriber still sees every key it
        is responsible for, through the same queue as live changes.
        """
        watch = Watch(self, prefix)
        self._index_watch(watch)
        if include_existing:
            self.resync(watch)
        return watch

    def compare_and_put(self, key: str, expected: Any, value: Any) -> bool:
        """Atomic update: succeeds only if the current value equals
        ``expected`` (use the :data:`ABSENT` sentinel for
        create-if-absent).

        ``expected=None`` means "the key holds a stored ``None``" — it
        does *not* match a missing key, so a create/update race on a
        ``None``-valued key cannot be mistaken for creation.
        """
        current = self._data.get(key, ABSENT)
        if current is not expected and current != expected:
            return False
        self.put(key, value)
        return True

    # -- leases ----------------------------------------------------------------

    def grant(
        self,
        ttl_s: float,
        on_expire: Optional[Callable[[Lease], None]] = None,
    ) -> Lease:
        """Create a lease that lapses ``ttl_s`` from now unless kept alive.

        On expiry every attached key is deleted (ordinary DELETE events,
        attachment order), then ``on_expire(lease)`` runs — the hook the
        cluster orchestrator uses to mark a host down.
        """
        if ttl_s <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl_s}")
        lease = Lease(next(self._lease_ids), ttl_s, self.env.now + ttl_s,
                      on_expire)
        self._leases[lease.lease_id] = lease
        heappush(self._lease_heap, (lease.deadline, lease.lease_id))
        self._arm_expiry()
        return lease

    def keepalive(self, lease: Lease) -> float:
        """Refresh ``lease`` to a full TTL from now; returns the deadline."""
        if not lease.alive or lease.lease_id not in self._leases:
            raise LeaseError(
                f"cannot keepalive dead lease {lease.lease_id}"
            )
        lease.deadline = self.env.now + lease.ttl_s
        heappush(self._lease_heap, (lease.deadline, lease.lease_id))
        self._arm_expiry()
        return lease.deadline

    def revoke(self, lease: Lease) -> list[str]:
        """Kill ``lease`` now, deleting its keys; returns the keys deleted."""
        if not lease.alive or lease.lease_id not in self._leases:
            raise LeaseError(f"cannot revoke dead lease {lease.lease_id}")
        return self._expire(lease, run_hook=False)

    def lease_count(self) -> int:
        return len(self._leases)

    # -- history / compaction ---------------------------------------------------

    def compact(self, revision: int) -> None:
        """Discard retained history up to and including ``revision``.

        Watchers can no longer precise-resync from at-or-before the
        compacted revision; they fall back to snapshot resync (the
        :exc:`~repro.errors.CompactedRevision` dance).
        """
        if revision > self.revision:
            raise ValueError(
                f"cannot compact future revision {revision} "
                f"(current {self.revision})"
            )
        history = self._history
        while history and history[0].revision <= revision:
            history.popleft()
        if revision > self.compacted_revision:
            self.compacted_revision = revision

    def resync(self, watch: Watch) -> int:
        """Queue a snapshot of ``watch``'s prefix as synthetic PUTs, one
        single-event batch each (see :meth:`Watch.resync`)."""
        count = 0
        for key in self.keys(watch.prefix):
            watch.queue.put(WatchBatch((
                WatchEvent("put", key, self._data[key], self.revision),
            )))
            count += 1
        if self.revision > watch.last_revision:
            watch.last_revision = self.revision
        return count

    def replay_history(self, watch: Watch, since: int) -> int:
        """Queue the retained events after revision ``since`` under
        ``watch``'s prefix, one single-event batch each — the precise
        resync path (DELETEs replay).  A replay is never merged: a
        DELETE and a later PUT of one key stay two deliveries.

        Raises :exc:`~repro.errors.CompactedRevision` when ``since``
        predates the compaction horizon.
        """
        if since < self.compacted_revision:
            raise CompactedRevision(
                f"revision {since} predates compaction horizon "
                f"{self.compacted_revision}"
            )
        prefix = watch.prefix
        count = 0
        for event in self._history:
            if event.revision > since and event.key.startswith(prefix):
                watch.queue.put(WatchBatch((event,)))
                if event.revision > watch.last_revision:
                    watch.last_revision = event.revision
                count += 1
        return count

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _validate(key: str) -> None:
        if not key or not isinstance(key, str):
            raise ValueError(f"bad key {key!r}")
        if key != key.strip():
            raise ValueError(f"key has surrounding whitespace: {key!r}")

    def _record(self, event: WatchEvent) -> None:
        history = self._history
        history.append(event)
        if len(history) > self.history_limit:
            dropped = history.popleft()
            self.compacted_revision = dropped.revision

    def _notify(self, event: WatchEvent) -> None:
        """Dispatch one event to the watches indexed along its key path.

        This is the single live-delivery entry point —
        :class:`repro.chaos.faults.FaultyKVStore` wraps it to inject
        drops/delays/duplicates, so every delivery must flow through
        here (history recording deliberately does *not*: the store's
        truth is not subject to the watcher-link fault model).

        Cost: O(key segments) trie hops plus the watch entries hanging
        off that path — never a scan of all registered watches.
        """
        node = self._root
        checks = 0
        delivered = 0
        for segment in event.key.split("/"):
            entries = node.entries
            if entries:
                for partial, watch in entries:
                    checks += 1
                    if not watch.cancelled and segment.startswith(partial):
                        self._deliver(watch, event)
                        delivered += 1
            node = node.children.get(segment)
            if node is None:
                break
        self.dispatch_events += 1
        self.dispatch_checks += checks
        self.dispatch_deliveries += delivered

    def _deliver(self, watch: Watch, event: WatchEvent) -> None:
        if event.revision > watch.last_revision:
            watch.last_revision = event.revision
        buffer = watch._buffer
        if not buffer:
            # First event of this instant: arm one flush for its end.
            # The dict replace below keeps first-touch key order while
            # the value collapses to the latest event for that key.
            Timeout(self.env, 0.0)._add_callback(watch._flush)
        buffer[event.key] = event

    # trie maintenance ---------------------------------------------------------

    def _index_key(self, key: str) -> None:
        node = self._root
        for segment in key.split("/"):
            child = node.children.get(segment)
            if child is None:
                child = node.children[segment] = _Node()
            node = child
        node.key = key

    def _unindex_key(self, key: str) -> None:
        segments = key.split("/")
        node = self._walk(segments)
        if node is None:  # pragma: no cover - index/data always in sync
            return
        node.key = None
        self._prune(segments)

    def _index_watch(self, watch: Watch) -> None:
        segments = watch.prefix.split("/")
        node = self._root
        for segment in segments[:-1]:
            child = node.children.get(segment)
            if child is None:
                child = node.children[segment] = _Node()
            node = child
        node.entries.append((segments[-1], watch))
        self._watches.add(watch)

    def _unindex_watch(self, watch: Watch) -> None:
        self._watches.discard(watch)
        segments = watch.prefix.split("/")
        node = self._walk(segments[:-1])
        if node is None:
            return
        entry = (segments[-1], watch)
        if entry in node.entries:
            node.entries.remove(entry)
            self._prune(segments[:-1])

    def _walk(self, segments: list[str]) -> Optional[_Node]:
        node = self._root
        for segment in segments:
            node = node.children.get(segment)
            if node is None:
                return None
        return node

    def _prune(self, segments: list[str]) -> None:
        """Drop now-empty trie nodes along ``segments``, leaf-up."""
        path = [self._root]
        for segment in segments:
            node = path[-1].children.get(segment)
            if node is None:
                return
            path.append(node)
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            if node.children or node.entries or node.key is not None:
                break
            del path[depth - 1].children[segments[depth - 1]]

    def _collect(self, node: _Node, out: list[str]) -> None:
        if node.key is not None:
            out.append(node.key)
        for child in node.children.values():
            self._collect(child, out)

    # lease expiry -------------------------------------------------------------

    def _arm_expiry(self) -> None:
        """Ensure a timer fires no later than the earliest lease deadline."""
        if not self._lease_heap:
            return
        deadline = self._lease_heap[0][0]
        armed = self._expiry_armed_at
        if armed is not None and armed <= deadline:
            return
        self._expiry_armed_at = deadline
        timer = Timeout(self.env, max(0.0, deadline - self.env.now))
        timer._add_callback(self._expiry_tick)

    def _expiry_tick(self, _event: object) -> None:
        self._expiry_armed_at = None
        now = self.env.now
        heap = self._lease_heap
        while heap and heap[0][0] <= now:
            _, lease_id = heappop(heap)
            lease = self._leases.get(lease_id)
            if lease is None or not lease.alive:
                continue  # revoked, or a stale entry for a dead lease
            if lease.deadline > now:
                continue  # refreshed; a fresher heap entry exists
            self._expire(lease, run_hook=True)
        self._arm_expiry()

    def _expire(self, lease: Lease, run_hook: bool) -> list[str]:
        lease.alive = False
        self._leases.pop(lease.lease_id, None)
        doomed = list(lease.keys)
        lease.keys.clear()
        for key in doomed:
            self._key_lease.pop(key, None)
            self.delete(key)
        if run_hook and lease.on_expire is not None:
            lease.on_expire(lease)
        return doomed
