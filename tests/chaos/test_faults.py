"""Unit tests for the fault injectors (each wraps a real seam)."""

import pytest

from repro.chaos import (
    FaultyKVStore,
    HostInjector,
    KernelPathFaults,
    LinkInjector,
    NicInjector,
)
from repro.cluster import KeyValueStore
from repro.netstack import tcp as _tcp
from repro.sim.rand import RandomStream
from repro.transports import Mechanism


def stream(name="test", seed=1):
    return RandomStream(seed, name)


# -- LinkInjector --------------------------------------------------------------


class TestLinkInjector:
    def test_degrade_and_restore_rates(self, fabric, host_pair):
        h1, h2 = host_pair
        link = LinkInjector(fabric)
        egress0 = h1.nic.egress.rate_bytes
        ingress0 = h1.nic.ingress.rate_bytes
        link.degrade_host(h1, 0.5)
        assert h1.nic.egress.rate_bytes == pytest.approx(egress0 * 0.5)
        assert h1.nic.ingress.rate_bytes == pytest.approx(ingress0 * 0.5)
        # A second degrade compounds from the original, not the degraded.
        link.degrade_host(h1, 0.25)
        assert h1.nic.egress.rate_bytes == pytest.approx(egress0 * 0.25)
        link.restore_rates()
        assert h1.nic.egress.rate_bytes == pytest.approx(egress0)
        assert h1.nic.ingress.rate_bytes == pytest.approx(ingress0)

    def test_degrade_factor_validated(self, fabric, host_pair):
        link = LinkInjector(fabric)
        with pytest.raises(ValueError):
            link.degrade_host(host_pair[0], 0.0)
        with pytest.raises(ValueError):
            link.degrade_host(host_pair[0], 1.5)

    def test_partition_blocks_and_heal_releases(self, fabric, host_pair):
        h1, h2 = host_pair
        link = LinkInjector(fabric)
        link.partition_hosts([h1], [h2])
        assert fabric.partitioned(h1.nic, h2.nic)
        assert fabric.partitioned(h2.nic, h1.nic)  # both directions
        link.heal()
        assert not fabric.partitioned(h1.nic, h2.nic)

    def test_partition_validation(self, fabric, host_pair):
        h1, h2 = host_pair
        with pytest.raises(ValueError):
            fabric.partition([], [h2.nic])
        with pytest.raises(ValueError):
            fabric.partition([h1.nic], [h1.nic, h2.nic])

    def test_partition_parks_traffic_until_heal(self, env, fabric,
                                                host_pair):
        """Bytes sent into a partition arrive after heal — never vanish."""
        h1, h2 = host_pair
        link = LinkInjector(fabric)
        link.partition_hosts([h1], [h2])
        delivered = []

        def sender():
            yield from fabric.send(h1.nic, h2.nic, 4096,
                                   lambda: delivered.append(env.now))

        def healer():
            yield env.timeout(0.01)
            link.heal()

        env.process(sender())
        env.process(healer())
        env.run()
        assert delivered and delivered[0] >= 0.01


# -- KernelPathFaults ----------------------------------------------------------


class TestKernelPathFaults:
    def test_loss_returns_rto_scale_delay(self):
        faults = KernelPathFaults(stream(), loss_p=1.0, rto_s=1e-3)
        delay = faults.rx_delay(None, None)
        assert 1e-3 <= delay <= 2e-3
        assert faults.losses == 1

    def test_reorder_returns_jitter_delay(self):
        faults = KernelPathFaults(stream(), reorder_p=1.0, jitter_s=1e-4)
        delay = faults.rx_delay(None, None)
        assert 0.0 <= delay <= 1e-4
        assert faults.reorders == 1

    def test_clean_path_passes_through(self):
        faults = KernelPathFaults(stream())
        assert faults.rx_delay(None, None) == 0.0
        assert faults.passed == 1

    def test_install_uninstall_and_exclusivity(self):
        faults = KernelPathFaults(stream())
        assert faults.install() is faults
        try:
            assert _tcp.FAULTS is faults
            with pytest.raises(RuntimeError):
                KernelPathFaults(stream()).install()
        finally:
            faults.uninstall()
        assert _tcp.FAULTS is None

    def test_same_seed_same_fault_pattern(self):
        a = KernelPathFaults(stream(seed=9), loss_p=0.3)
        b = KernelPathFaults(stream(seed=9), loss_p=0.3)
        pattern_a = [a.rx_delay(None, None) for _ in range(50)]
        pattern_b = [b.rx_delay(None, None) for _ in range(50)]
        assert pattern_a == pattern_b

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError):
            KernelPathFaults(stream(), rto_s=-1.0)


# -- NicInjector ---------------------------------------------------------------


class TestNicInjector:
    def test_lose_bypass_flips_policy_to_tcp(self, network,
                                             three_containers):
        nic = NicInjector(network)
        assert network.orchestrator.decide(
            "web", "db").mechanism is Mechanism.RDMA
        nic.lose_bypass("h2")
        assert network.orchestrator.decide(
            "web", "db").mechanism is Mechanism.TCP
        nic.restore("h2")
        assert network.orchestrator.decide(
            "web", "db").mechanism is Mechanism.RDMA

    def test_degraded_host_forces_tcp_even_intra_host(self, network,
                                                      three_containers):
        nic = NicInjector(network)
        assert network.orchestrator.decide(
            "web", "cache").mechanism is Mechanism.SHM
        nic.degrade("h1")
        decision = network.orchestrator.decide("web", "cache")
        assert decision.mechanism is Mechanism.TCP
        assert "degraded" in decision.reason
        nic.restore("h1")
        assert network.orchestrator.decide(
            "web", "cache").mechanism is Mechanism.SHM


# -- HostInjector --------------------------------------------------------------


class TestHostInjector:
    def test_via_watch_crash_touches_only_cluster(self, cluster, network,
                                                  three_containers):
        injector = HostInjector(network, cluster)
        broken = injector.crash("h2", via_watch=True)
        assert broken == []
        assert "/cluster/hosts/h2" not in cluster.kv
        injector.restart("h2")
        assert "/cluster/hosts/h2" in cluster.kv

    def test_respawn_resubmits_and_attaches(self, cluster, network,
                                            three_containers):
        injector = HostInjector(network, cluster)
        injector.crash("h2")
        container = injector.respawn("db", on_host="h1")
        assert container.host.name == "h1"
        assert network.orchestrator.locate("db").name == "h1"


# -- FaultyKVStore -------------------------------------------------------------


class TestFaultyKVStore:
    def test_drop_all_starves_the_watch(self, env):
        kv = KeyValueStore(env)
        watch = kv.watch("/c/")
        fault = FaultyKVStore(kv, stream(), drop_p=1.0).install()
        kv.put("/c/a", 1)
        assert watch.pending() == []
        assert fault.dropped == 1
        assert kv.get("/c/a") == 1  # data plane untouched
        fault.uninstall()
        kv.put("/c/b", 2)
        assert [e.key for e in watch.pending()] == ["/c/b"]

    def test_duplicate_all_delivers_twice(self, env):
        kv = KeyValueStore(env)
        watch = kv.watch("/c/")
        fault = FaultyKVStore(kv, stream(), duplicate_p=1.0).install()
        kv.put("/c/a", 1)
        # Both copies land in the same instant, so the watch's batch
        # collapses them to one event.
        assert [e.key for e in watch.pending()] == ["/c/a"]
        assert fault.delivered == 2
        assert fault.duplicated == 1
        fault.uninstall()

    def test_stall_buffers_and_heal_flushes_in_order(self, env):
        kv = KeyValueStore(env)
        watch = kv.watch("/c/")
        fault = FaultyKVStore(kv, stream()).install()
        fault.stall()
        kv.put("/c/a", 1)
        kv.put("/c/b", 2)
        kv.delete("/c/a")
        assert watch.pending() == []
        assert fault.stalled == 3
        flushed = fault.heal()
        assert flushed == 3
        assert fault.delivered == 3
        # The flush lands in one instant: one batch, each key's latest
        # event in first-touch order.
        assert [(e.kind, e.key) for e in watch.pending()] == [
            ("delete", "/c/a"), ("put", "/c/b"),
        ]
        fault.uninstall()

    def test_heal_with_resync_replays_state(self, env):
        kv = KeyValueStore(env)
        watch = kv.watch("/c/")
        fault = FaultyKVStore(kv, stream(), drop_p=1.0).install()
        kv.put("/c/a", 1)            # dropped on the floor
        assert watch.pending() == []
        fault.drop_p = 0.0
        replayed = fault.heal(resync=[watch])
        assert replayed == 1
        assert [e.key for e in watch.pending()] == ["/c/a"]
        fault.uninstall()

    def test_delayed_delivery_preserves_order(self, env):
        kv = KeyValueStore(env)
        watch = kv.watch("/c/")
        fault = FaultyKVStore(kv, stream(), delay_s=1e-3,
                              jitter_s=1e-3).install()
        kv.put("/c/a", 1)
        kv.put("/c/b", 2)
        kv.put("/c/c", 3)
        assert watch.pending() == []     # nothing lands synchronously
        env.run(until=0.05)
        assert [e.key for e in watch.pending()] == ["/c/a", "/c/b", "/c/c"]
        assert fault.delivered == 3
        fault.uninstall()

    def test_uninstall_flushes_held_events(self, env):
        kv = KeyValueStore(env)
        watch = kv.watch("/c/")
        fault = FaultyKVStore(kv, stream()).install()
        fault.stall()
        kv.put("/c/a", 1)
        fault.uninstall()
        assert [e.key for e in watch.pending()] == ["/c/a"]
        assert kv._notify.__self__ is kv  # original bound method restored
