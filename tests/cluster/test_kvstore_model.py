"""Reference test for the KV store: trie-indexed dispatch, per-instant
batched delivery, the lazy lease heap, bounded history and resync.

The model is the naive definition the store implements: a dict of keys,
a scan of every watch's prefix on each change, one buffer per watch per
instant (the latest event of each key, in first-touch order), an eager
lease list checked at every time step, and a history list capped at
``history_limit``.  Random programs of writes, watches, lease
operations, time steps, compactions and resyncs must agree with it on
every watch's deliveries, batch by batch, on ``keys(prefix)`` and on
each watch's resync anchor.  Every queue item must be a ``WatchBatch``.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cluster import ABSENT, KeyValueStore, WatchBatch
from repro.errors import CompactedRevision, LeaseError
from repro.sim import Environment

KEYS = ["/a/x", "/a/y", "/a/b/x", "/ab", "/b/x"]
PREFIXES = ["", "/a", "/a/", "/a/b/", "/a/b", "/b/"]
VALUES = [None, 0, 1, 2]
HISTORY_LIMIT = 5


class _Lease:
    """The model's view of one lease: an entry in the eager list."""

    def __init__(self, lease_id, ttl, deadline):
        self.lease_id = lease_id
        self.ttl = ttl
        self.deadline = deadline
        self.keys: dict = {}  # attachment order
        self.alive = True


class _Watch:
    """The model's view of one watch."""

    def __init__(self, prefix, last_revision):
        self.prefix = prefix
        self.cancelled = False
        self.last_revision = last_revision
        self.buffer: dict = {}     # this instant: key -> latest event
        self.batches: list = []    # every delivery, in order


class KeyValueStoreModel(RuleBasedStateMachine):
    watches = Bundle("watches")
    leases = Bundle("leases")

    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.kv = KeyValueStore(self.env, history_limit=HISTORY_LIMIT)
        self.now = 0.0
        self.data: dict = {}
        self.revision = 0
        self.history: list = []
        self.compacted = 0
        self.model_leases: dict = {}      # lease id -> _Lease
        self.key_lease: dict = {}         # key -> lease id
        self.model_watches: dict = {}     # Watch -> _Watch
        self.received: dict = {}          # Watch -> batches drained so far

    # -- the model's write path ---------------------------------------------

    def _emit(self, kind, key, value):
        self.revision += 1
        event = (kind, key, value, self.revision)
        self.history.append(event)
        if len(self.history) > HISTORY_LIMIT:
            self.compacted = self.history.pop(0)[3]
        for watch in self.model_watches.values():  # the naive scan
            if not watch.cancelled and key.startswith(watch.prefix):
                watch.last_revision = max(watch.last_revision, self.revision)
                watch.buffer[key] = event

    def _detach(self, key):
        lease_id = self.key_lease.pop(key, None)
        if lease_id is not None:
            self.model_leases[lease_id].keys.pop(key, None)

    def _put(self, key, value, lease=None):
        if lease is None or self.key_lease.get(key) != lease.lease_id:
            self._detach(key)
        if lease is not None:
            # A key re-put under its own lease keeps its place.
            self.key_lease[key] = lease.lease_id
            lease.keys[key] = None
        self.data[key] = value
        self._emit("put", key, value)

    def _delete(self, key):
        if key not in self.data:
            return False
        self._detach(key)
        self._emit("delete", key, self.data.pop(key))
        return True

    def _expire(self, lease):
        lease.alive = False
        doomed = list(lease.keys)
        lease.keys.clear()
        for key in doomed:
            self.key_lease.pop(key, None)
            self._delete(key)
        return doomed

    def _flush(self):
        """The instant ends: every buffer becomes one batch."""
        for watch in self.model_watches.values():
            if watch.buffer:
                watch.batches.append(list(watch.buffer.values()))
                watch.buffer.clear()

    def _replay(self, watch, events):
        for event in events:
            watch.batches.append([event])
            watch.last_revision = max(watch.last_revision, event[3])

    # -- rules -----------------------------------------------------------------

    @rule(key=st.sampled_from(KEYS), value=st.sampled_from(VALUES))
    def put(self, key, value):
        assert self.kv.put(key, value) == self.revision + 1
        self._put(key, value)

    @rule(key=st.sampled_from(KEYS), value=st.sampled_from(VALUES),
          lease=leases)
    def put_leased(self, key, value, lease):
        model = self.model_leases[lease.lease_id]
        if not model.alive:
            with pytest.raises(LeaseError):
                self.kv.put(key, value, lease=lease)
            return
        self.kv.put(key, value, lease=lease)
        self._put(key, value, model)

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        assert self.kv.delete(key) == self._delete(key)

    @rule(key=st.sampled_from(KEYS),
          expected=st.one_of(st.just(ABSENT), st.sampled_from(VALUES)),
          value=st.sampled_from(VALUES))
    def compare_and_put(self, key, expected, value):
        current = self.data.get(key, ABSENT)
        matches = current is expected or current == expected
        assert self.kv.compare_and_put(key, expected, value) == matches
        if matches:
            self._put(key, value)

    @initialize(target=watches, prefix=st.sampled_from(PREFIXES),
                include_existing=st.booleans())
    def first_watch(self, prefix, include_existing):
        """Every program starts with a watch and a lease, so each step
        has a subscriber to check and a lease to act on."""
        return self.watch(prefix, include_existing)

    @initialize(target=leases, ttl=st.sampled_from([1.0, 2.0]))
    def first_lease(self, ttl):
        return self.grant(ttl)

    @rule(target=watches, prefix=st.sampled_from(PREFIXES),
          include_existing=st.booleans())
    def watch(self, prefix, include_existing):
        watch = self.kv.watch(prefix, include_existing=include_existing)
        model = _Watch(prefix, self.revision)
        if include_existing:
            self._replay(model, [
                ("put", key, self.data[key], self.revision)
                for key in sorted(self.data) if key.startswith(prefix)
            ])
        self.model_watches[watch] = model
        self.received[watch] = []
        return watch

    @rule(watch=watches)
    def cancel(self, watch):
        watch.cancel()
        model = self.model_watches[watch]
        model.cancelled = True
        model.buffer.clear()

    @rule(watch=watches)
    def pending(self, watch):
        """The synchronous consumer: closes this watch's batch early."""
        model = self.model_watches[watch]
        if model.buffer:
            model.batches.append(list(model.buffer.values()))
            model.buffer.clear()
        received = self.received[watch]
        fresh = model.batches[len(received):]
        assert [(e.kind, e.key, e.value, e.revision)
                for e in watch.pending()] == [
            event for batch in fresh for event in batch]
        received.extend(fresh)

    @rule(watch=watches)
    def resync_since(self, watch):
        """The reconnect path: precise replay from the anchor, falling
        back to a snapshot once the history was compacted past it."""
        model = self.model_watches[watch]
        since = watch.last_revision
        assert since == model.last_revision
        if model.cancelled:
            assert watch.resync(since=since) == 0
            return
        if since < self.compacted:
            with pytest.raises(CompactedRevision):
                watch.resync(since=since)
            self.resync_snapshot(watch)
            return
        missed = [event for event in self.history
                  if event[3] > since and event[1].startswith(model.prefix)]
        assert watch.resync(since=since) == len(missed)
        self._replay(model, missed)

    @rule(watch=watches)
    def resync_snapshot(self, watch):
        model = self.model_watches[watch]
        if model.cancelled:
            assert watch.resync() == 0
            return
        snapshot = [("put", key, self.data[key], self.revision)
                    for key in sorted(self.data)
                    if key.startswith(model.prefix)]
        assert watch.resync() == len(snapshot)
        self._replay(model, snapshot)
        model.last_revision = max(model.last_revision, self.revision)

    @rule(target=leases, ttl=st.sampled_from([1.0, 2.0]))
    def grant(self, ttl):
        lease = self.kv.grant(ttl)
        self.model_leases[lease.lease_id] = _Lease(
            lease.lease_id, ttl, self.now + ttl)
        return lease

    @rule(lease=leases)
    def keepalive(self, lease):
        model = self.model_leases[lease.lease_id]
        if not model.alive:
            with pytest.raises(LeaseError):
                self.kv.keepalive(lease)
            return
        model.deadline = self.now + model.ttl
        assert self.kv.keepalive(lease) == model.deadline

    @rule(lease=leases)
    def heartbeat(self, lease):
        """Half a TTL passes, then the holder refreshes its lease, as
        the cluster's keepalive pump does for each host."""
        self.advance(0.5)
        self.keepalive(lease)

    @rule(lease=leases)
    def revoke(self, lease):
        model = self.model_leases[lease.lease_id]
        if not model.alive:
            with pytest.raises(LeaseError):
                self.kv.revoke(lease)
            return
        assert self.kv.revoke(lease) == self._expire(model)

    @rule(dt=st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]))
    def advance(self, dt):
        """Time passes: leases due by then expire, in deadline then id
        order, each instant's deliveries closing as one batch."""
        target = self.now + dt
        while True:
            due = [lease for lease in self.model_leases.values()
                   if lease.alive and lease.deadline <= target]
            if not due:
                break
            first = min(lease.deadline for lease in due)
            if first > self.now:
                self._flush()
                self.now = first
            for lease in sorted(due, key=lambda lease: lease.lease_id):
                if lease.deadline == first:
                    self._expire(lease)
        self._flush()
        self.now = target
        self.env.run(until=target)

    @rule(back=st.integers(0, 4))
    def compact(self, back):
        revision = max(0, self.revision - back)
        self.kv.compact(revision)
        self.history = [e for e in self.history if e[3] > revision]
        self.compacted = max(self.compacted, revision)

    def teardown(self):
        """Every program ends by letting every lease run out: nothing
        may stay buffered, and no lease may outlive its deadline."""
        self.advance(3.0)
        self.deliveries_match_the_model()
        self.keys_match_the_model()

    # -- checks ----------------------------------------------------------------

    @invariant()
    def deliveries_match_the_model(self):
        for watch, model in self.model_watches.items():
            items = watch.queue.drain()
            assert all(type(item) is WatchBatch for item in items)
            self.received[watch].extend(
                [(e.kind, e.key, e.value, e.revision) for e in item]
                for item in items)
            assert self.received[watch] == model.batches
            assert watch.last_revision == model.last_revision
            assert watch.has_pending() == bool(model.buffer)

    @invariant()
    def keys_match_the_model(self):
        for prefix in PREFIXES:
            assert self.kv.keys(prefix) == sorted(
                key for key in self.data if key.startswith(prefix))
        assert self.kv.revision == self.revision
        assert self.kv.compacted_revision == self.compacted
        assert self.kv.lease_count() == sum(
            lease.alive for lease in self.model_leases.values())


KeyValueStoreModel.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None)
TestKeyValueStoreModel = KeyValueStoreModel.TestCase
