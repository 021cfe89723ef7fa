"""End-to-end tests for the watch-driven FlowReconciler.

The acceptance bar for the control-plane refactor: live migration, host
failure + replacement, and runtime NIC-capability changes are handled
*entirely* by the reconciler — no test here calls ``network.rebind`` or
``network.repair_connection`` — and message conservation holds across
every channel swap.
"""

import pytest

from repro import telemetry
from repro.cluster import ContainerSpec
from repro.core import FlowState, MigrationController
from repro.errors import ConnectionReset
from repro.transports import Mechanism


@pytest.fixture
def reconciled(network):
    network.reconciler.start()
    return network.reconciler


class TestExternalRelocate:
    def test_published_move_triggers_rebind(self, env, cluster, network,
                                            three_containers, reconciled,
                                            runner):
        """Nobody calls rebind: the watch pump reacts to the KV event."""

        def go():
            conn = yield from network.connect_containers("web", "cache")
            assert conn.mechanism is Mechanism.SHM
            cluster.relocate("cache", "h2")
            network.orchestrator.refresh_location("cache")
            yield from reconciled.wait_settled("cache")
            return conn

        conn = runner(go())
        assert conn.mechanism is Mechanism.RDMA
        assert conn.state is FlowState.ACTIVE
        assert conn.generation == 2
        assert reconciled.rebinds == 1

    def test_relocate_conserves_in_flight_messages(self, env, cluster,
                                                   network, three_containers,
                                                   reconciled, runner):
        def go():
            conn = yield from network.connect_containers("web", "cache")
            yield from conn.a.send(512, payload="precious")
            cluster.relocate("cache", "h2")
            network.orchestrator.refresh_location("cache")
            yield from reconciled.wait_settled("cache")
            message = yield from conn.b.recv()
            return message.payload

        assert runner(go()) == "precious"

    def test_unrelated_flows_left_alone(self, env, cluster, network,
                                        three_containers, reconciled,
                                        runner):
        def go():
            moved = yield from network.connect_containers("web", "cache")
            bystander = yield from network.connect_containers("web", "db")
            cluster.relocate("cache", "h2")
            network.orchestrator.refresh_location("cache")
            yield from reconciled.wait_settled()
            return moved, bystander

        moved, bystander = runner(go())
        assert moved.generation == 2
        assert bystander.generation == 1


class TestMigrationThroughReconciler:
    def test_live_migration_is_reconciler_driven(self, env, cluster, network,
                                                 three_containers,
                                                 reconciled, runner):
        controller = MigrationController(network)
        counters = {"delivered": 0}

        def go():
            conn = yield from network.connect_containers("web", "cache")
            assert conn.mechanism is Mechanism.SHM
            stop = {"v": False}

            def traffic():
                while not stop["v"]:
                    yield from conn.a.send(32 * 1024)
                    yield from conn.b.recv()
                    counters["delivered"] += 1

            env.process(traffic())
            yield env.timeout(0.002)
            report = yield from controller.live_migrate(
                "cache", "h2", state_bytes=10e6
            )
            at_switch = counters["delivered"]
            yield env.timeout(0.002)
            stop["v"] = True
            yield env.timeout(0.01)
            sent = (conn.channel.lane_ab.stats.messages_sent
                    + conn.channel.lane_ba.stats.messages_sent)
            received = (conn.channel.lane_ab.stats.messages_delivered
                        + conn.channel.lane_ba.stats.messages_delivered)
            return conn, report, at_switch, sent, received

        conn, report, at_switch, sent, received = runner(go())
        assert conn.mechanism is Mechanism.RDMA
        assert conn.state is FlowState.ACTIVE
        assert report.mechanism_changes == [(Mechanism.SHM, Mechanism.RDMA)]
        assert reconciled.rebinds == 1
        assert at_switch > 0
        assert counters["delivered"] > at_switch  # flowed after the move
        assert sent == received  # nothing lost across the swap

    def test_migration_without_pumps_uses_same_primitive(
        self, env, cluster, network, three_containers, runner
    ):
        """Reconciler not started: the controller invokes it directly."""
        controller = MigrationController(network)

        def go():
            conn = yield from network.connect_containers("web", "cache")
            report = yield from controller.live_migrate(
                "cache", "h2", state_bytes=10e6
            )
            return conn, report

        conn, report = runner(go())
        assert conn.mechanism is Mechanism.RDMA
        assert network.reconciler.rebinds == 1
        assert report.rebound_connections == 1


class TestFailureThroughReconciler:
    def test_bare_cluster_failure_breaks_flows(self, env, cluster, network,
                                               three_containers, reconciled,
                                               runner):
        """Only the *cluster* is told about the failure; the reconciler
        observes the host-liveness watch and does the network side."""

        def go():
            conn = yield from network.connect_containers("web", "db")
            outcome = {}

            def receiver():
                try:
                    yield from conn.b.recv()
                    outcome["result"] = "message"
                except ConnectionReset:
                    outcome["result"] = "reset"

            env.process(receiver())
            yield env.timeout(0.001)
            cluster.fail_host("h2")  # nobody calls handle_host_failure
            yield from reconciled.wait_settled()
            return conn, outcome

        conn, outcome = runner(go())
        assert conn.state is FlowState.BROKEN
        assert conn.failed
        assert outcome["result"] == "reset"
        with pytest.raises(Exception):
            network.orchestrator.lookup("db")

    def test_replacement_attach_triggers_auto_repair(self, env, cluster,
                                                     network,
                                                     three_containers,
                                                     reconciled, runner):
        """The full §2.1 loop with zero manual repair calls."""

        def go():
            conn = yield from network.connect_containers("web", "db")
            yield from conn.a.send(1024, payload="before")
            yield from conn.b.recv()
            cluster.fail_host("h2")
            yield from reconciled.wait_settled()
            assert conn.failed

            replacement = cluster.submit(ContainerSpec("db",
                                                       pinned_host="h1"))
            network.attach(replacement)
            yield from reconciled.wait_settled()

            assert conn.state is FlowState.ACTIVE
            yield from conn.a.send(1024, payload="after")
            message = yield from conn.b.recv()
            return conn, message.payload

        conn, payload = runner(go())
        assert payload == "after"
        assert conn.mechanism is Mechanism.SHM  # replacement is co-located
        assert reconciled.repairs == 1

    def test_handle_host_failure_is_pump_idempotent(self, env, cluster,
                                                    network,
                                                    three_containers,
                                                    reconciled, runner):
        """The synchronous client and the watch pump both observe one
        failure; the second observation is a no-op."""

        def go():
            conn = yield from network.connect_containers("web", "db")
            broken = network.handle_host_failure("h2")
            yield from reconciled.wait_settled()
            return conn, broken

        conn, broken = runner(go())
        assert broken == [conn]
        assert reconciled.failures_handled == 1


class TestCapabilityChange:
    def test_rdma_flip_moves_flows_to_tcp(self, env, cluster, network,
                                          three_containers, reconciled,
                                          runner):
        """Satellite: runtime NIC-capability change in the registry.

        Disabling RDMA+DPDK on h2 re-decides the inter-host flow down to
        kernel TCP; the co-located shm pair is untouched.  No message is
        lost across the rebind.
        """

        def go():
            shm_pair = yield from network.connect_containers("web", "cache")
            inter = yield from network.connect_containers("web", "db")
            assert inter.mechanism is Mechanism.RDMA
            yield from inter.a.send(2048, payload="carried-over")
            network.orchestrator.set_nic_capability("h2", rdma=False,
                                                    dpdk=False)
            yield from reconciled.wait_settled()
            message = yield from inter.b.recv()
            return shm_pair, inter, message.payload

        shm_pair, inter, payload = runner(go())
        assert inter.mechanism is Mechanism.TCP
        assert inter.state is FlowState.ACTIVE
        assert inter.generation == 2
        assert payload == "carried-over"  # conserved across the rebind
        assert shm_pair.mechanism is Mechanism.SHM
        assert shm_pair.generation == 1  # untouched

    def test_capability_restore_moves_back(self, env, cluster, network,
                                           three_containers, reconciled,
                                           runner):
        def go():
            inter = yield from network.connect_containers("web", "db")
            network.orchestrator.set_nic_capability("h2", rdma=False,
                                                    dpdk=False)
            yield from reconciled.wait_settled()
            assert inter.mechanism is Mechanism.TCP
            network.orchestrator.set_nic_capability("h2", rdma=True)
            yield from reconciled.wait_settled()
            return inter

        inter = runner(go())
        assert inter.mechanism is Mechanism.RDMA
        assert inter.generation == 3

    def test_unchanged_decision_skips_rebind(self, env, cluster, network,
                                             three_containers, reconciled,
                                             runner):
        def go():
            shm_pair = yield from network.connect_containers("web", "cache")
            network.orchestrator.set_nic_capability("h1", dpdk=False)
            yield from reconciled.wait_settled()
            return shm_pair

        shm_pair = runner(go())
        assert shm_pair.generation == 1
        assert reconciled.rebinds == 0
        assert reconciled.capability_rechecks >= 1


class TestLifecycleControls:
    def test_start_is_idempotent(self, network, reconciled):
        procs = network.reconciler._procs
        network.reconciler.start()
        assert network.reconciler._procs is procs

    def test_stop_detaches_watches(self, env, cluster, network,
                                   three_containers, reconciled, runner):
        def go():
            conn = yield from network.connect_containers("web", "cache")
            reconciled.stop()
            cluster.relocate("cache", "h2")
            network.orchestrator.refresh_location("cache")
            yield env.timeout(0.01)
            return conn

        conn = runner(go())
        assert conn.generation == 1  # nobody rebound it
        assert not reconciled.running

    def test_transitions_all_flow_through_table(self, env, cluster, network,
                                                three_containers, runner):
        """Every lifecycle change shows up as a flow.transition event."""
        from repro import telemetry
        from repro.telemetry.events import FLOW_TRANSITION

        with telemetry.session() as handle:
            network.reconciler.start()

            def go():
                conn = yield from network.connect_containers("web", "cache")
                cluster.relocate("cache", "h2")
                network.orchestrator.refresh_location("cache")
                yield from network.reconciler.wait_settled("cache")
                network.close_connection(conn)
                return conn

            conn = runner(go())
            states = [
                e.fields["new"]
                for e in handle.events.of_kind(FLOW_TRANSITION)
                if e.fields["flow"] == conn.flow_id
            ]
        assert states == ["resolving", "active", "paused", "rebinding",
                          "paused", "active", "closed"]


class TestBusyReceiverDuringDrain:
    """The pause gate holds senders only.  A receiver busy when its flow
    is paused must still be able to consume once it returns, or a
    backlog larger than the receive window keeps ``drain`` polling
    forever and the rebind never happens.  Such a drain reports a stall
    after ``DRAIN_STALL_POLLS`` unchanged polls, well inside the run's
    horizon, so the test fails on that report first."""

    @pytest.mark.parametrize("nbytes", [1 << 20, 4 << 20])
    def test_rebind_finishes_whatever_the_backlog_size(
            self, env, cluster, network, nbytes):
        for name, host in (("a0", "h1"), ("b0", "h2")):
            network.attach(cluster.submit(
                ContainerSpec(name, pinned_host=host)))
        arrived = []
        rebound = []

        def rebind():
            yield from network.reconciler.reconcile_containers(("a0",))
            rebound.append(env.now)

        def program():
            flow = yield from network.connect_containers("a0", "b0")
            assert flow.mechanism is Mechanism.RDMA

            def sender():
                for k in range(4):
                    yield from flow.a.send(nbytes, payload=k)

            def receiver():
                for n in range(4):
                    message = yield from flow.b.recv()
                    arrived.append(message.payload)
                    if n == 0:
                        # Start the rebind, then stay busy past the
                        # pause, with the rest of the backlog undelivered.
                        env.process(rebind())
                        yield env.timeout(3e-3)

            env.process(sender())
            yield env.process(receiver())
            return flow

        done = env.process(program())
        with telemetry.session() as handle:
            env.run(until=1.0)
            stalls = handle.events.of_kind("flow.drain.stall")
        assert stalls == [], f"drain stalled: {stalls[0].fields}"
        assert done.triggered, f"{len(arrived)} of 4 messages arrived"
        flow = done.value
        assert arrived == [0, 1, 2, 3]
        assert len(rebound) == 1
        assert flow.state is FlowState.ACTIVE
        assert flow.generation == 2
