"""Unit tests for the flow-lifecycle subsystem (repro.core.flows)."""

import pytest

from repro.cluster import ContainerSpec
from repro.core import FlowState, FlowTable
from repro.errors import FlowStateError
from repro.sim import Environment
from repro.transports import Mechanism


@pytest.fixture
def table(env):
    return FlowTable(env)


class TestStateMachine:
    def test_open_starts_resolving(self, table):
        flow = table.open("a", "b")
        assert flow.state is FlowState.RESOLVING
        assert flow in table
        assert len(table) == 1

    def test_legal_lifecycle_path(self, env, table):
        flow = table.open("a", "b")
        table.transition(flow, FlowState.ACTIVE)
        table.transition(flow, FlowState.PAUSED)
        table.transition(flow, FlowState.REBINDING)
        table.transition(flow, FlowState.PAUSED)
        table.transition(flow, FlowState.ACTIVE)
        table.transition(flow, FlowState.BROKEN)
        table.transition(flow, FlowState.REBINDING)
        table.transition(flow, FlowState.ACTIVE)
        table.transition(flow, FlowState.CLOSED)
        assert flow.state is FlowState.CLOSED

    def test_illegal_transitions_raise(self, table):
        flow = table.open("a", "b")
        # Cannot rebind a flow that has no channel yet.
        with pytest.raises(FlowStateError):
            table.transition(flow, FlowState.REBINDING)
        table.transition(flow, FlowState.ACTIVE)
        # Repairing (BROKEN -> REBINDING) a healthy flow is illegal:
        # ACTIVE cannot jump straight back to ACTIVE either.
        with pytest.raises(FlowStateError):
            table.transition(flow, FlowState.RESOLVING)
        table.transition(flow, FlowState.CLOSED)
        # Closed is terminal.
        for state in FlowState:
            with pytest.raises(FlowStateError):
                table.transition(flow, state)

    def test_broken_only_rebinds_or_closes(self, table):
        flow = table.open("a", "b")
        table.transition(flow, FlowState.ACTIVE)
        table.transition(flow, FlowState.BROKEN)
        with pytest.raises(FlowStateError):
            table.transition(flow, FlowState.ACTIVE)
        with pytest.raises(FlowStateError):
            table.transition(flow, FlowState.PAUSED)

    def test_failed_property_mirrors_broken(self, table):
        flow = table.open("a", "b")
        table.transition(flow, FlowState.ACTIVE)
        assert not flow.failed
        table.transition(flow, FlowState.BROKEN)
        assert flow.failed

    def test_every_transition_is_emitted(self, env):
        from repro import telemetry
        from repro.telemetry.events import FLOW_TRANSITION

        with telemetry.session() as handle:
            table = FlowTable(env)
            flow = table.open("a", "b")
            table.transition(flow, FlowState.ACTIVE, reason="connected")
            table.transition(flow, FlowState.CLOSED, reason="done")
            events = handle.events.of_kind(FLOW_TRANSITION)
        assert [e.fields["new"] for e in events] == [
            "resolving", "active", "closed"
        ]
        assert events[1].fields["old"] == "resolving"
        assert events[1].fields["flow"] == flow.flow_id
        assert events[1].fields["reason"] == "connected"


class TestTablePruning:
    def test_closed_flows_are_pruned(self, table):
        flows = [table.open("a", "b") for _ in range(10)]
        for flow in flows:
            table.transition(flow, FlowState.ACTIVE)
        for flow in flows[:7]:
            table.close(flow)
        assert len(table) == 3
        assert table.closed_total == 7
        assert table.opened_total == 10
        assert all(f not in table for f in flows[:7])

    def test_endpoint_index_follows_pruning(self, table):
        flow = table.open("a", "b")
        table.transition(flow, FlowState.ACTIVE)
        assert table.flows_for("a") == [flow]
        table.close(flow)
        assert table.flows_for("a") == []
        assert table.flows_for("b") == []

    def test_close_is_idempotent(self, table):
        flow = table.open("a", "b")
        table.close(flow)
        table.close(flow)
        assert table.closed_total == 1

    def test_close_releases_paused_senders(self, env, table):
        flow = table.open("a", "b")
        table.transition(flow, FlowState.ACTIVE)
        flow.pause(env)
        table.close(flow)
        assert not flow.paused

    def test_network_connections_stays_bounded(self, env, network,
                                               three_containers, runner):
        """Satellite: connect/close churn no longer grows the list."""

        def go():
            for _ in range(20):
                conn = yield from network.connect_containers("web", "cache")
                network.close_connection(conn)
            survivor = yield from network.connect_containers("web", "db")
            return survivor

        survivor = runner(go())
        assert network.connections == [survivor]
        assert network.flows.closed_total == 20

    def test_detach_closes_flows(self, env, network, three_containers,
                                 runner):
        def go():
            conn = yield from network.connect_containers("web", "cache")
            return conn

        conn = runner(go())
        network.detach("cache")
        assert conn.state is FlowState.CLOSED
        assert network.connections == []


class TestChannelFactory:
    def test_factory_builds_policy_mechanism(self, env, network,
                                             three_containers, runner):
        def go():
            decision = yield from network.resolve("web", "db")
            channel = network.factory.build("web", "db", decision)
            return decision, channel

        decision, channel = runner(go())
        assert decision.mechanism is Mechanism.RDMA
        assert channel.mechanism is Mechanism.RDMA
        assert network.factory.built == 1

    def test_factory_applies_middlebox_and_rate_limit(self, cluster):
        from repro.core import FreeFlowNetwork, Middlebox
        from repro.core.middlebox import InspectedLane
        from repro.core.ratelimit import RateLimitedLane

        network = FreeFlowNetwork(
            cluster,
            middlebox=Middlebox(),
            tenant_rate_limits={"default": 10e9},
        )
        a = cluster.submit(ContainerSpec("fa", pinned_host="h1"))
        b = cluster.submit(ContainerSpec("fb", pinned_host="h2"))
        network.attach(a)
        network.attach(b)
        env = cluster.env

        def go():
            conn = yield from network.connect_containers("fa", "fb")
            return conn

        conn = env.run(until=env.process(go()))
        # Outermost wrap is the rate limiter, inspection inside it.
        assert isinstance(conn.channel.lane_ab, RateLimitedLane)
        assert isinstance(conn.channel.lane_ab.inner, InspectedLane)

    def test_transplant_conserves_stats_and_traffic(
        self, env, cluster, network, three_containers, runner
    ):
        """Satellite regression: rebind carries stats with the messages.

        Before the fix the transplanted message was invisible to the new
        lane's stats, so ``in_flight`` went negative after the receive
        and per-lane delivered counts under-reported.
        """

        def go():
            conn = yield from network.connect_containers("web", "cache")
            yield from conn.a.send(256, payload="precious")
            cluster.relocate("cache", "h2")
            network.orchestrator.refresh_location("cache")
            network.invalidate("cache")
            yield from network.rebind(conn)
            new_stats = conn.channel.lane_ab.stats
            assert new_stats.messages_sent == 1
            assert new_stats.messages_delivered == 1
            assert new_stats.payload_bytes == 256
            assert conn.in_flight() == 0
            message = yield from conn.b.recv()
            assert conn.in_flight() == 0
            return message.payload

        assert runner(go()) == "precious"
        assert network.factory.transplanted_messages == 1

    def test_transplant_rekeys_open_trace(self, env, cluster, network,
                                          three_containers):
        from repro import telemetry

        with telemetry.session() as handle:
            def go():
                conn = yield from network.connect_containers("web", "cache")
                yield from conn.a.send(256, payload="x")
                cluster.relocate("cache", "h2")
                network.orchestrator.refresh_location("cache")
                network.invalidate("cache")
                yield from network.rebind(conn)
                new_flow_label = conn.channel.lane_ab.flow
                message = yield from conn.b.recv()
                return new_flow_label, message

            new_flow_label, message = env.run(until=env.process(go()))
            trace = message.meta["trace"]
            # The trace finished under the adopting (rdma) lane's flow,
            # not dangling on the closed shm lane.
            assert trace.flow == new_flow_label
            assert trace.mechanism == Mechanism.RDMA.value
            assert new_flow_label in handle.tracer.flows()


def test_registry_exports_flow_gauges():
    from repro import telemetry
    from repro.cluster import ClusterOrchestrator
    from repro.core import FreeFlowNetwork
    from repro.hardware import Fabric, Host

    env = Environment()
    with telemetry.session() as handle:
        cluster = ClusterOrchestrator(env)
        fabric = Fabric(env)
        for name in ("h1", "h2"):
            cluster.add_host(Host(env, name, fabric=fabric))
        network = FreeFlowNetwork(cluster)
        a = cluster.submit(ContainerSpec("a", pinned_host="h1"))
        b = cluster.submit(ContainerSpec("b", pinned_host="h1"))
        network.attach(a)
        network.attach(b)

        def go():
            conn = yield from network.connect_containers("a", "b")
            return conn

        conn = env.run(until=env.process(go()))
        snapshot = handle.registry.snapshot()
        assert snapshot["repro.flows.open"] == 1.0
        assert snapshot["repro.flows.active"] == 1.0
        assert snapshot["repro.flows.broken"] == 0.0
        network.close_connection(conn)
        snapshot = handle.registry.snapshot()
        assert snapshot["repro.flows.open"] == 0.0
        assert snapshot["repro.flows.closed_total"] == 1.0
        assert snapshot["repro.flows.transitions"] >= 3.0
