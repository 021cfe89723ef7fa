"""Batched watch consumption in the FlowReconciler: coalesced
WatchBatch handling, batch rebinds, and precise-first resync."""

import pytest

from repro.core import FlowState
from repro.transports import Mechanism


@pytest.fixture
def reconciled(network):
    network.reconciler.start()
    return network.reconciler


def spy_batches(reconciler):
    """Record the name-lists handed to reconcile_containers."""
    calls = []
    original = reconciler.reconcile_containers

    def spy(names):
        calls.append(list(names))
        return original(names)

    reconciler.reconcile_containers = spy
    return calls


class TestCoalescedConsumption:
    def test_same_instant_moves_arrive_as_one_batch(self, env, cluster,
                                                    network,
                                                    three_containers,
                                                    reconciled, runner):
        """Two publishes in the same instant coalesce (COALESCE_S=0.0)
        into a single WatchBatch and one batch-rebind cycle."""
        calls = spy_batches(reconciled)

        def go():
            a = yield from network.connect_containers("web", "cache")
            b = yield from network.connect_containers("web", "db")
            cluster.relocate("cache", "h2")
            network.orchestrator.refresh_location("cache")
            cluster.relocate("db", "h1")
            network.orchestrator.refresh_location("db")
            yield from reconciled.wait_settled()
            return a, b

        a, b = runner(go())
        assert calls == [["cache", "db"]]
        assert a.mechanism is Mechanism.RDMA
        assert b.mechanism is Mechanism.SHM
        assert a.state is FlowState.ACTIVE
        assert b.state is FlowState.ACTIVE
        assert reconciled.rebinds == 2
        assert reconciled.reconciliations == 2


class TestResync:
    def test_precise_resync_replays_dropped_move(self, env, cluster, network,
                                                 three_containers,
                                                 reconciled, runner):
        """A dropped watch delivery (lossy control-plane link) is
        recovered by replaying exactly the missed events from history."""
        kv = network.orchestrator.kv

        def go():
            conn = yield from network.connect_containers("web", "cache")
            notify = kv._notify
            kv._notify = lambda *a, **k: None  # the link eats deliveries
            cluster.relocate("cache", "h2")
            network.orchestrator.refresh_location("cache")
            kv._notify = notify
            yield env.timeout(0.001)
            assert conn.mechanism is Mechanism.SHM  # nobody noticed
            replayed = reconciled.resync()
            yield from reconciled.wait_settled("cache")
            return conn, replayed

        conn, replayed = runner(go())
        assert replayed == 1  # just the missed PUT, nothing else
        assert conn.mechanism is Mechanism.RDMA
        assert conn.state is FlowState.ACTIVE
        assert reconciled.resyncs == 1

    def test_resync_falls_back_to_snapshot_after_compaction(
        self, env, cluster, network, three_containers, reconciled, runner
    ):
        """When history has been compacted past the watch's last
        revision, resync degrades to the snapshot replay and still
        converges."""
        kv = network.orchestrator.kv

        def go():
            conn = yield from network.connect_containers("web", "cache")
            notify = kv._notify
            kv._notify = lambda *a, **k: None
            cluster.relocate("cache", "h2")
            network.orchestrator.refresh_location("cache")
            kv._notify = notify
            kv.compact(kv.revision)  # precise replay now impossible
            replayed = reconciled.resync()
            yield from reconciled.wait_settled("cache")
            return conn, replayed

        conn, replayed = runner(go())
        # Snapshot replay re-publishes every current key (3 containers
        # on the container watch; capability watch replays too).
        assert replayed >= 3
        assert conn.mechanism is Mechanism.RDMA
        assert conn.state is FlowState.ACTIVE

    def test_resync_synthesizes_missed_container_deletes(
        self, env, cluster, network, three_containers, reconciled, runner
    ):
        """Snapshot resync cannot express DELETEs; the reconciler diffs
        KV truth against its last-seen view and drops vanished names."""
        kv = network.orchestrator.kv

        def go():
            yield env.timeout(0.001)  # let include_existing replay land
            assert "db" in reconciled._locations
            notify = kv._notify
            kv._notify = lambda *a, **k: None
            network.detach("db")
            cluster.stop("db")
            cluster.remove("db")
            kv._notify = notify
            kv.compact(kv.revision)
            reconciled.resync()
            yield from reconciled.wait_settled()

        runner(go())
        assert "db" not in reconciled._locations
