"""Datacenter-scale KV-store machinery: per-instant batched delivery,
indexed watch dispatch, revision history, compaction and precise
resync."""

import pytest

from repro.cluster import KeyValueStore, WatchBatch
from repro.errors import CompactedRevision


@pytest.fixture
def kv(env):
    return KeyValueStore(env)


class TestCoalescedDelivery:
    def test_same_instant_puts_collapse_to_one_batch(self, env, kv):
        watch = kv.watch("/c/")
        kv.put("/c/a", 1)
        kv.put("/c/a", 2)
        kv.put("/c/b", 10)
        assert watch.queue.drain() == []  # buffered until the instant ends
        env.run(until=0.0)  # the flush is a zero-delay timer event
        items = watch.queue.drain()
        assert len(items) == 1
        batch = items[0]
        assert type(batch) is WatchBatch
        # One event per key, first-touch order, latest value wins.
        assert [(e.key, e.value) for e in batch] == [
            ("/c/a", 2), ("/c/b", 10),
        ]

    def test_windows_split_batches(self, env, kv):
        """Each simulated instant is its own window: puts at two
        instants, however close, arrive as two batches."""
        watch = kv.watch("/c/")
        kv.put("/c/a", 1)

        def later():
            yield env.timeout(1e-9)
            kv.put("/c/a", 2)
            kv.put("/c/b", 3)

        env.process(later())
        env.run(until=1.0)
        batches = watch.queue.drain()
        assert [[e.value for e in b] for b in batches] == [[1], [2, 3]]

    def test_delete_after_put_survives_as_latest(self, env, kv):
        watch = kv.watch("/c/")
        kv.put("/c/a", 1)
        kv.delete("/c/a")
        env.run(until=0.0)
        (batch,) = watch.queue.drain()
        assert [(e.kind, e.key) for e in batch] == [("delete", "/c/a")]

    def test_pending_flushes_buffer(self, env, kv):
        watch = kv.watch("/c/")
        kv.put("/c/a", 1)
        assert watch.has_pending()
        events = watch.pending()  # synchronous drain: no timer wait
        assert [(e.key, e.value) for e in events] == [("/c/a", 1)]
        assert not watch.has_pending()

    def test_cancel_discards_buffer(self, env, kv):
        watch = kv.watch("/c/")
        kv.put("/c/a", 1)
        watch.cancel()
        env.run(until=0.0)
        assert watch.queue.drain() == []

    def test_batch_revision_advances_last_revision(self, env, kv):
        watch = kv.watch("/c/")
        rev = kv.put("/c/a", 1)
        assert watch.last_revision == rev

    def test_replays_stay_one_event_per_batch(self, env, kv):
        """A replay is never merged: a DELETE then a PUT of one key stay
        two deliveries, so a consumer sees an arrival, not a move."""
        watch = kv.watch("/c/")
        kv.put("/c/a", 1)
        anchor = kv.revision
        kv.delete("/c/a")
        kv.put("/c/a", 2)
        env.run(until=0.0)
        watch.queue.drain()  # the live deliveries, "lost"
        assert watch.resync(since=anchor) == 2
        assert watch.resync() == 1
        batches = watch.queue.drain()
        assert all(type(batch) is WatchBatch for batch in batches)
        assert [[(e.kind, e.value) for e in batch] for batch in batches] == [
            [("delete", 1)], [("put", 2)], [("put", 2)],
        ]


class TestIndexedDispatch:
    def test_dispatch_does_not_scan_unrelated_watches(self, kv):
        """The tentpole property: put cost is independent of how many
        watches exist on *other* prefixes."""
        for i in range(8):
            kv.watch(f"/w{i}/")
        kv.put("/w0/x", 1)
        baseline = kv.dispatch_checks
        for i in range(8, 256):
            kv.watch(f"/w{i}/")
        kv.put("/w0/y", 2)
        assert kv.dispatch_checks - baseline <= 2
        assert kv.dispatch_deliveries == 2

    def test_dispatch_counts_only_candidates_on_path(self, kv):
        deep = kv.watch("/a/b/c/")
        sibling = kv.watch("/a/x/")
        kv.put("/a/b/c/k", 1)
        # The sibling subtree is never visited.
        assert [e.key for e in deep.pending()] == ["/a/b/c/k"]
        assert sibling.pending() == []

    def test_partial_segment_prefixes_match(self, kv):
        watch = kv.watch("/cluster/host")  # no trailing slash
        kv.put("/cluster/hosts/h1", 1)
        kv.put("/cluster/hostile", 2)
        kv.put("/cluster/vms/v1", 3)
        assert [e.key for e in watch.pending()] == [
            "/cluster/hosts/h1", "/cluster/hostile",
        ]

    def test_empty_prefix_watch_sees_everything(self, kv):
        watch = kv.watch("")
        kv.put("/a", 1)
        kv.put("/b/c", 2)
        assert [e.key for e in watch.pending()] == ["/a", "/b/c"]

    def test_cancelled_watch_is_unindexed(self, kv):
        watch = kv.watch("/c/")
        watch.cancel()
        before = kv.dispatch_checks
        kv.put("/c/a", 1)
        assert kv.dispatch_checks == before  # entry removed, not skipped

    def test_trie_keys_listing_sorted(self, kv):
        # DFS order of the trie is not lexicographic ('/' sorts between
        # '.' and '0'); keys() must still return sorted results.
        kv.put("/x/a/b", 1)
        kv.put("/x/a-b", 2)
        kv.put("/x/a.b", 3)
        assert kv.keys("/x/") == ["/x/a-b", "/x/a.b", "/x/a/b"]
        assert kv.keys("/x/a") == ["/x/a-b", "/x/a.b", "/x/a/b"]
        assert kv.keys("/y/") == []

    def test_keys_after_deletes_prunes_clean(self, kv):
        kv.put("/x/a", 1)
        kv.put("/x/b", 2)
        kv.delete("/x/a")
        assert kv.keys("/x/") == ["/x/b"]
        kv.delete("/x/b")
        assert kv.keys("") == []
        assert not kv._root.children  # fully pruned


class TestHistoryAndCompaction:
    def test_precise_resync_replays_missed_deletes(self, env, kv):
        watch = kv.watch("/c/")
        kv.put("/c/a", 1)
        anchor = watch.last_revision
        watch.pending()
        kv.put("/c/a", 2)
        kv.delete("/c/a")
        kv.put("/d/other", 9)  # outside the prefix: never replayed
        watch.pending()  # live copies "lost" (modelling a dropped link)
        assert watch.resync(since=anchor) == 2
        assert [(e.kind, e.value) for e in watch.pending()] == [
            ("put", 2), ("delete", 2),  # deletes carry the last value
        ]

    def test_resync_since_replays_history(self, env, kv):
        """A watch opened late replays the retained history after a
        revision it names, DELETEs included."""
        kv.put("/c/a", 1)
        rev = kv.put("/c/b", 2)
        kv.delete("/c/a")
        watch = kv.watch("/c/")
        assert watch.resync(since=rev - 1) == 2
        assert [(e.kind, e.key) for e in watch.pending()] == [
            ("put", "/c/b"), ("delete", "/c/a"),
        ]

    def test_compaction_horizon_raises(self, env, kv):
        watch = kv.watch("/c/")
        kv.put("/c/a", 1)
        kv.put("/c/a", 2)
        kv.compact(kv.revision)
        with pytest.raises(CompactedRevision):
            watch.resync(since=1)
        # Snapshot fallback still recovers current state.
        watch.pending()
        assert watch.resync() == 1
        assert [(e.kind, e.value) for e in watch.pending()] == [("put", 2)]

    def test_compact_future_revision_rejected(self, kv):
        kv.put("/a", 1)
        with pytest.raises(ValueError):
            kv.compact(kv.revision + 1)

    def test_history_limit_auto_compacts(self, env):
        kv = KeyValueStore(env, history_limit=4)
        for i in range(10):
            kv.put("/a", i)
        assert len(kv._history) == 4
        assert kv.compacted_revision == 6
        watch = kv.watch("/")
        with pytest.raises(CompactedRevision):
            watch.resync(since=3)
        assert watch.resync(since=6) == 4

    def test_history_limit_validated(self, env):
        with pytest.raises(ValueError):
            KeyValueStore(env, history_limit=0)
