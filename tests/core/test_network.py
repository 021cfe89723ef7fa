"""Unit + behaviour tests for FreeFlowNetwork assembly and caching."""

import pytest

from repro.cluster import ContainerSpec
from repro.core import FreeFlowNetwork, MechanismPolicy, PolicyConfig
from repro.errors import OrchestrationError
from repro.transports import Mechanism


class TestAttach:
    def test_attach_assigns_ip_and_vnic(self, cluster, network):
        c = cluster.submit(ContainerSpec("c"))
        vnic = network.attach(c)
        assert c.ip is not None
        assert network.vnic("c") is vnic

    def test_double_attach_rejected(self, cluster, network, three_containers):
        with pytest.raises(OrchestrationError):
            network.attach(three_containers[0])

    def test_detach_releases_everything(self, cluster, network,
                                        three_containers):
        web = three_containers[0]
        network.detach("web")
        assert web.ip is None
        with pytest.raises(OrchestrationError):
            network.vnic("web")

    def test_vnic_unknown_container(self, network):
        with pytest.raises(OrchestrationError):
            network.vnic("ghost")

    def test_agent_per_host_is_cached(self, network, host_pair):
        h1, __ = host_pair
        assert network.agent_for(h1) is network.agent_for(h1)

    def test_policy_and_config_mutually_exclusive(self, cluster):
        with pytest.raises(ValueError):
            FreeFlowNetwork(
                cluster,
                policy=MechanismPolicy(),
                policy_config=PolicyConfig(),
            )


class TestConnectContainers:
    def test_intra_host_pair_gets_shm(self, env, network, three_containers,
                                      runner):
        def go():
            conn = yield from network.connect_containers("web", "cache")
            return conn

        conn = runner(go())
        assert conn.mechanism is Mechanism.SHM
        assert conn in network.connections

    def test_inter_host_pair_gets_rdma(self, env, network, three_containers,
                                       runner):
        def go():
            conn = yield from network.connect_containers("web", "db")
            return conn

        assert runner(go()).mechanism is Mechanism.RDMA

    def test_connection_ends_work(self, env, network, three_containers,
                                  runner):
        def go():
            conn = yield from network.connect_containers("web", "db")
            yield from conn.a.send(1024, payload="x")
            message = yield from conn.b.recv()
            return message.payload

        assert runner(go()) == "x"

    def test_in_flight_counter(self, env, network, three_containers, runner):
        def go():
            conn = yield from network.connect_containers("web", "cache")
            assert conn.in_flight() == 0
            yield from conn.a.send(128)
            # ShmLane delivers within send, so in-flight is 0 again.
            return conn.in_flight()

        assert runner(go()) == 0


class TestResolveCaching:
    def test_cache_hit_avoids_second_query(self, env, network,
                                           three_containers, runner):
        def go():
            yield from network.resolve("web", "cache")
            yield from network.resolve("web", "cache")

        runner(go())
        assert network.cache_misses == 1
        assert network.cache_hits == 1
        assert network.orchestrator.queries_served == 1

    def test_cache_ttl_zero_always_queries(self, cluster, three_containers):
        network = FreeFlowNetwork(cluster, cache_ttl_s=0)
        for c in three_containers:
            pass  # containers already attached to the other network
        # Build a fresh pair for this network instance.
        a = cluster.submit(ContainerSpec("a2", pinned_host="h1"))
        b = cluster.submit(ContainerSpec("b2", pinned_host="h1"))
        network.attach(a)
        network.attach(b)
        env = cluster.env

        def go():
            yield from network.resolve("a2", "b2")
            yield from network.resolve("a2", "b2")

        process = env.process(go())
        env.run(until=process)
        assert network.cache_hits == 0
        assert network.orchestrator.queries_served == 2

    def test_cache_expires_after_ttl(self, cluster, env, three_containers,
                                     network):
        network.cache_ttl_s = 0.01

        def go():
            yield from network.resolve("web", "cache")
            yield env.timeout(0.02)
            yield from network.resolve("web", "cache")

        process = env.process(go())
        env.run(until=process)
        assert network.cache_misses == 2

    def test_invalidate_drops_entries(self, env, network, three_containers,
                                      runner):
        def go():
            yield from network.resolve("web", "cache")

        runner(go())
        network.invalidate("cache")

        runner(go())
        assert network.cache_misses == 2

    def test_cache_holds_only_the_last_ttl_of_pairs(self, cluster, env):
        """Distinct pairs connected over 5 TTLs: every resolve forgets the
        expired decisions, so the cache ends with no more entries than
        the pairs resolved within one TTL of the last resolve."""
        ttl = 1e-3
        network = FreeFlowNetwork(cluster, cache_ttl_s=ttl)
        names = [f"c{i}" for i in range(6)]
        for i, name in enumerate(names):
            network.attach(cluster.submit(
                ContainerSpec(name, pinned_host=f"h{1 + i % 2}")))
        pairs = [(a, b) for a in names for b in names if a != b][:17]
        resolved = []

        def go():
            for pair in pairs:
                started = env.now
                yield from network.connect_containers(*pair)
                resolved.append(env.now)
                yield env.timeout(0.3 * ttl)
            return started

        last_started = env.run(until=env.process(go()))
        assert resolved[-1] - resolved[0] > 4.5 * ttl
        recent = sum(1 for at in resolved if at > last_started - ttl)
        assert len(network._cache) <= recent < len(pairs)
        assert network.cache_misses == len(pairs)
        assert set(network._cache_pairs) \
            == {name for pair in network._cache for name in pair}

    def test_a_pair_refreshed_in_place_keeps_expiry_order(
            self, env, network, three_containers):
        """Two resolves of one pair overlap within the query latency, and
        another pair lands between their inserts.  The second insert
        refreshes the first pair, which must then expire after the other
        pair, not shield it at the front of the cache."""
        latency = network.orchestrator.query_latency_s

        def resolve_at(delay, src, dst):
            yield env.timeout(delay)
            yield from network.resolve(src, dst)

        for step, pair in enumerate((("web", "db"), ("web", "cache"),
                                     ("web", "db"))):
            env.process(resolve_at(step * latency / 5, *pair))
        env.run()
        assert network.cache_misses == 3
        # Between the two expiries: ("web", "cache") is stale, the
        # refreshed ("web", "db") is not.
        env.run(until=network.cache_ttl_s + 1.3 * latency)
        env.run(until=env.process(network.resolve("db", "web")))
        assert list(network._cache) == [("web", "db"), ("db", "web")]

    def test_resolve_costs_query_latency(self, env, network,
                                         three_containers, runner):
        def go():
            started = env.now
            yield from network.resolve("web", "db")
            return env.now - started

        assert runner(go()) == pytest.approx(
            network.orchestrator.query_latency_s
        )


class TestRebind:
    def test_rebind_changes_mechanism_after_move(
        self, env, cluster, network, three_containers, runner
    ):
        def go():
            conn = yield from network.connect_containers("web", "cache")
            assert conn.mechanism is Mechanism.SHM
            cluster.relocate("cache", "h2")
            network.orchestrator.refresh_location("cache")
            network.invalidate("cache")
            yield from network.rebind(conn)
            return conn

        conn = runner(go())
        assert conn.mechanism is Mechanism.RDMA
        assert conn.generation == 2

    def test_rebind_transplants_unconsumed_messages(
        self, env, cluster, network, three_containers, runner
    ):
        def go():
            conn = yield from network.connect_containers("web", "cache")
            yield from conn.a.send(256, payload="precious")
            # Delivered but not consumed; now move the endpoint.
            cluster.relocate("cache", "h2")
            network.orchestrator.refresh_location("cache")
            network.invalidate("cache")
            yield from network.rebind(conn)
            message = yield from conn.b.recv()
            return message.payload

        assert runner(go()) == "precious"

    def test_pause_gates_senders(self, env, network, three_containers):
        sent = []

        def go():
            conn = yield from network.connect_containers("web", "cache")
            conn.pause(env)

            def sender():
                yield from conn.a.send(64)
                sent.append(env.now)

            env.process(sender())
            yield env.timeout(0.01)
            assert sent == []
            conn.resume()
            yield env.timeout(0.01)
            assert len(sent) == 1

        process = env.process(go())
        env.run(until=process)


class TestVmAwareChannels:
    def test_cross_vm_shm_uses_netvm_channel(self, env, cluster):
        from repro.baselines import NetVmChannel
        from repro.core import FreeFlowNetwork, PolicyConfig
        from repro.hardware import VirtualMachine

        h1 = cluster.host("h1")
        vm_a = VirtualMachine(h1, "vm-a")
        vm_b = VirtualMachine(h1, "vm-b")
        cluster.add_vm(vm_a)
        cluster.add_vm(vm_b)
        network = FreeFlowNetwork(
            cluster, policy_config=PolicyConfig(shm_across_vms=True)
        )
        from repro.cluster import ContainerSpec

        a = cluster.submit(ContainerSpec("va", pinned_host="vm-a"))
        b = cluster.submit(ContainerSpec("vb", pinned_host="vm-b"))
        network.attach(a)
        network.attach(b)

        def go():
            conn = yield from network.connect_containers("va", "vb")
            yield from conn.a.send(1024, payload="x")
            message = yield from conn.b.recv()
            return conn, message.payload

        process = env.process(go())
        conn, payload = env.run(until=process)
        assert isinstance(conn.channel, NetVmChannel)
        assert payload == "x"

    def test_same_vm_pair_uses_plain_shm(self, env, cluster, network):
        from repro.baselines import NetVmChannel
        from repro.cluster import ContainerSpec
        from repro.hardware import VirtualMachine

        h1 = cluster.host("h1")
        vm = VirtualMachine(h1, "vm-x")
        cluster.add_vm(vm)
        a = cluster.submit(ContainerSpec("xa", pinned_host="vm-x"))
        b = cluster.submit(ContainerSpec("xb", pinned_host="vm-x"))
        network.attach(a)
        network.attach(b)

        def go():
            conn = yield from network.connect_containers("xa", "xb")
            return conn

        process = env.process(go())
        conn = env.run(until=process)
        assert not isinstance(conn.channel, NetVmChannel)
        assert conn.mechanism.value == "shm"


class TestAutoInvalidation:
    """The reconciler's container watch drops the cached decisions of a
    container whose published location changed."""

    def test_watch_invalidates_on_republish(self, env, cluster, network,
                                            three_containers, runner):
        network.reconciler.start()

        def go():
            yield from network.resolve("web", "cache")
            assert network.cache_misses == 1
            # Simulate a move published by some other actor.
            cluster.relocate("cache", "h2")
            network.orchestrator.refresh_location("cache")
            yield from network.reconciler.wait_settled()
            decision = yield from network.resolve("web", "cache")
            return decision

        decision = runner(go())
        assert network.cache_misses == 2  # cache was auto-invalidated
        assert decision.mechanism.value == "rdma"

    def test_enable_twice_is_idempotent(self, network):
        reconciler = network.reconciler.start()
        watches, procs = list(reconciler._watches), list(reconciler._procs)
        assert network.reconciler.start() is reconciler
        assert (reconciler._watches, reconciler._procs) == (watches, procs)
