"""Unit tests for the etcd-like KV store."""

import pytest

from repro.cluster import ABSENT, KeyValueStore, WatchBatch


@pytest.fixture
def kv(env):
    return KeyValueStore(env)


def test_put_get_delete(kv):
    kv.put("/a", 1)
    assert kv.get("/a") == 1
    assert "/a" in kv
    assert kv.delete("/a")
    assert kv.get("/a") is None
    assert not kv.delete("/a")


def test_get_default(kv):
    assert kv.get("/missing", "fallback") == "fallback"


def test_revisions_monotonic(kv):
    r1 = kv.put("/a", 1)
    r2 = kv.put("/a", 2)
    assert r2 > r1
    assert kv.revision == r2


def test_keys_and_items_by_prefix(kv):
    kv.put("/x/1", "a")
    kv.put("/x/2", "b")
    kv.put("/y/1", "c")
    assert kv.keys("/x/") == ["/x/1", "/x/2"]
    assert dict(kv.items("/x/")) == {"/x/1": "a", "/x/2": "b"}
    assert len(kv) == 3


def test_bad_keys_rejected(kv):
    with pytest.raises(ValueError):
        kv.put("", 1)
    with pytest.raises(ValueError):
        kv.put(" padded ", 1)


def test_watch_sees_puts_and_deletes(kv):
    watch = kv.watch("/net/")
    kv.put("/net/a", 1)
    kv.put("/other/b", 2)
    assert [(e.kind, e.key) for e in watch.pending()] == [("put", "/net/a")]
    kv.delete("/net/a")
    assert [(e.kind, e.key) for e in watch.pending()] == [
        ("delete", "/net/a"),
    ]


def test_watch_from_process(env, kv):
    watch = kv.watch("/c/")
    seen = []

    def watcher():
        batch = yield watch.queue.get()
        assert type(batch) is WatchBatch
        seen.extend((event.kind, event.key, event.value) for event in batch)

    def writer():
        yield env.timeout(1)
        kv.put("/c/x", 42)

    env.process(watcher())
    env.process(writer())
    env.run()
    assert seen == [("put", "/c/x", 42)]


def test_cancelled_watch_gets_nothing(kv):
    watch = kv.watch("")
    watch.cancel()
    kv.put("/a", 1)
    assert watch.pending() == []


def test_compare_and_put(kv):
    assert kv.compare_and_put("/a", ABSENT, 1)     # create-if-absent
    assert not kv.compare_and_put("/a", ABSENT, 2)  # already exists
    assert not kv.compare_and_put("/a", 99, 2)     # wrong expectation
    assert kv.compare_and_put("/a", 1, 2)          # correct CAS
    assert kv.get("/a") == 2


def test_compare_and_put_stored_none_regression(kv):
    """A key explicitly stored as ``None`` is distinct from a missing key.

    The old API used ``expected=None`` for create-if-absent, so a stored
    ``None`` was indistinguishable from absence: a second "create" would
    clobber it.  With the ABSENT sentinel both operations are exact.
    """
    kv.put("/lease", None)
    assert not kv.compare_and_put("/lease", ABSENT, "stolen")
    assert kv.get("/lease", "default") is None
    assert kv.compare_and_put("/lease", None, "owner-1")  # CAS on stored None
    assert kv.get("/lease") == "owner-1"
    assert not kv.compare_and_put("/missing", None, 1)    # None != absent
    assert "/missing" not in kv


def test_watch_event_carries_revision(kv):
    watch = kv.watch("")
    revision = kv.put("/a", 1)
    event = watch.pending()[0]
    assert event.revision == revision


# -- watch edge cases ----------------------------------------------------------


def test_cancel_during_active_watch_loop(env, kv):
    """cancel() while a process is parked on the queue: the consumer
    never sees post-cancel events and the park stays pending forever."""
    watch = kv.watch("/c/")
    seen = []

    def watcher():
        while True:
            batch = yield watch.queue.get()
            seen.extend(event.key for event in batch)

    def driver():
        yield env.timeout(1)
        kv.put("/c/before", 1)
        yield env.timeout(1)
        watch.cancel()
        kv.put("/c/after", 2)
        yield env.timeout(1)

    env.process(watcher())
    done = env.process(driver())
    env.run(until=done)
    assert seen == ["/c/before"]
    assert watch.cancelled
    assert watch.pending() == []


def test_include_existing_replays_before_concurrent_puts(kv):
    """The snapshot replay is ordered (sorted keys, current revision) and
    strictly precedes anything written after the watch was taken."""
    kv.put("/c/b", 1)
    kv.put("/c/a", 2)
    snapshot_revision = kv.revision
    watch = kv.watch("/c/", include_existing=True)
    kv.put("/c/z", 3)      # lands after the replay
    kv.put("/c/a", 4)      # update also after the replay
    events = watch.pending()
    assert [(e.kind, e.key, e.value) for e in events] == [
        ("put", "/c/a", 2),
        ("put", "/c/b", 1),
        ("put", "/c/z", 3),
        ("put", "/c/a", 4),
    ]
    # Replayed events are stamped at the snapshot revision, not 0 and
    # not the later write revisions.
    assert events[0].revision == snapshot_revision
    assert events[1].revision == snapshot_revision
    assert events[2].revision > snapshot_revision


def test_delete_under_watched_prefix_carries_last_value(kv):
    """Within one instant a key's events collapse to its latest: the
    DELETE, carrying the value it removed."""
    watch = kv.watch("/c/")
    kv.put("/c/x", "v1")
    kv.put("/c/x", "v2")
    kv.delete("/c/x")
    kv.delete("/other")          # outside the prefix, and absent anyway
    events = watch.pending()
    assert [(e.kind, e.value) for e in events] == [("delete", "v2")]


def test_resync_replays_live_state_only(kv):
    """resync() cannot resurrect deletions — only live keys replay."""
    watch = kv.watch("/c/")
    kv.put("/c/kept", 1)
    kv.put("/c/gone", 2)
    kv.delete("/c/gone")
    watch.pending()              # drop the live deliveries
    replayed = watch.resync()
    assert replayed == 1
    assert [(e.kind, e.key) for e in watch.pending()] == [("put", "/c/kept")]


def test_resync_on_cancelled_watch_is_noop(kv):
    kv.put("/c/a", 1)
    watch = kv.watch("/c/")
    watch.cancel()
    assert watch.resync() == 0
    assert watch.pending() == []
