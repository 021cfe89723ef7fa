"""Runtime sanitizer: trip tests for each armed invariant, plus proof
that a sanitized run matches the unsanitized engine exactly — and for
the two checks that moved into the domain code (transplant
conservation, read-only flow state), trips that run disarmed."""

from __future__ import annotations

import heapq
import inspect
import textwrap
from types import SimpleNamespace

import pytest

from repro.analysis import sanitizer
from repro.cluster import ClusterOrchestrator, ContainerSpec
from repro.core import FreeFlowNetwork, SocketLayer, sockets
from repro.core.flows import (
    ChannelFactory,
    FlowConnection,
    FlowState,
    FlowTable,
)
from repro.core.middlebox import InspectedLane, Middlebox
from repro.core.ratelimit import RateLimitedLane, TokenBucket
from repro.core.sockets import FreeFlowSocket
from repro.errors import EngineInvariantError, SanitizerViolation
from repro.hardware import Fabric, Host
from repro.sim import Environment, scheduler
from repro.transports.base import Lane, Mechanism


@pytest.fixture
def sanitized():
    """Arm the sanitizer for one test, restoring the prior state after.

    When the whole suite already runs with ``REPRO_SANITIZE=1`` the
    install() below is a no-op and teardown leaves it armed.
    """
    was_installed = sanitizer.installed()
    sanitizer.install()
    yield sanitizer
    if was_installed:
        sanitizer.reset_stats()
    else:
        sanitizer.uninstall()


def pingpong_workload(env: Environment) -> float:
    def proc():
        for _ in range(50):
            yield env.timeout(1e-6)
        return env.now

    return env.run(until=env.process(proc()))


# -- engine checks -----------------------------------------------------------


def test_sanitized_run_matches_unsanitized_engine(sanitized):
    env = Environment()
    result = pingpong_workload(env)
    processed = env.events_processed
    assert sanitized.stats()["engine_step"] >= processed

    sanitizer.uninstall()
    try:
        plain = Environment()
        assert pingpong_workload(plain) == result
        assert plain.events_processed == processed
    finally:
        sanitizer.install()


def test_past_scheduled_event_trips(sanitized):
    env = Environment(initial_time=10.0)
    heapq.heappush(env._queue, (9.0, 1, next(env._eid), env.event()))
    with pytest.raises(SanitizerViolation, match="scheduled in the past"):
        env.run()


def test_past_event_trips_under_run_until_number(sanitized):
    env = Environment(initial_time=10.0)
    heapq.heappush(env._queue, (9.0, 1, next(env._eid), env.event()))
    with pytest.raises(SanitizerViolation, match="scheduled in the past"):
        env.run(until=20.0)


def test_out_of_order_pop_trips(sanitized):
    """A tail deque that lost its sort order makes step() pop an entry
    that a single heap would not pop next."""
    env = Environment()
    env._tail.append((5.0, 1, next(env._eid), env.event()))
    env._tail.append((2.0, 1, next(env._eid), env.event()))
    with pytest.raises(SanitizerViolation, match="single heap"):
        env.run()


def test_urgent_event_at_current_time_is_legal(sanitized):
    """An event processed at t may schedule an URGENT event at the same t;
    only *time* must be monotone, not the full (time, priority, eid) key."""
    env = Environment()
    log = []

    def proc():
        yield env.timeout(1e-6)
        interrupt = env.event()
        interrupt._ok = True
        interrupt._value = None
        interrupt._add_callback(lambda _e: log.append(env.now))
        env.schedule(interrupt, delay=0.0, priority=0)
        yield env.timeout(1e-6)

    env.run(until=env.process(proc()))
    assert log == [1e-6]


# -- checks that run in every run --------------------------------------------
#
# Transplant conservation and FlowTable-only state writes live in the
# domain code, so these run with the sanitizer disarmed.


@pytest.fixture
def disarmed():
    """Run with the sanitizer off, re-arming it afterwards when the
    suite runs with REPRO_SANITIZE=1."""
    was_installed = sanitizer.installed()
    sanitizer.uninstall()
    yield
    if was_installed:
        sanitizer.install()


def make_lane(env: Environment) -> Lane:
    return Lane(env, Mechanism.SHM)


def test_adopt_conservation_holds_for_real_lanes():
    env = Environment()
    src, dst = make_lane(env), make_lane(env)
    message = src.make_message(4096)
    dst.adopt(message)
    assert dst.stats.messages_sent == 1
    assert dst.stats.messages_delivered == 1
    assert dst.stats.payload_bytes == 4096


def test_transplant_conservation_holds_for_real_lanes():
    env = Environment()
    old = SimpleNamespace(lane_ab=make_lane(env), lane_ba=make_lane(env))
    new = SimpleNamespace(lane_ab=make_lane(env), lane_ba=make_lane(env))
    for lane, count in ((old.lane_ab, 3), (old.lane_ba, 1)):
        for _ in range(count):
            lane.inbox.put(lane.make_message(100))
    factory = SimpleNamespace(transplanted_messages=0)

    moved = ChannelFactory.transplant(factory, old, new)

    assert moved == 4
    assert factory.transplanted_messages == 4
    assert not old.lane_ab.inbox.items and not old.lane_ba.inbox.items
    assert len(new.lane_ab.inbox.items) == 3
    assert new.lane_ba.stats.messages_delivered == 1


def test_transplant_trips_when_new_lane_drops_messages(disarmed):
    env = Environment()

    class DroppingLane:
        """A buggy adoptive lane: acknowledges nothing it is handed."""

        def __init__(self):
            self.inbox = SimpleNamespace(items=[])
            self.stats = SimpleNamespace(
                messages_sent=0, messages_delivered=0, payload_bytes=0)
            self.mechanism = Mechanism.TCP

        def adopt(self, message):
            pass

    old = SimpleNamespace(lane_ab=make_lane(env), lane_ba=make_lane(env))
    old.lane_ab.inbox.put(old.lane_ab.make_message(100))
    new = SimpleNamespace(lane_ab=DroppingLane(), lane_ba=DroppingLane())
    factory = SimpleNamespace(transplanted_messages=0)

    with pytest.raises(EngineInvariantError, match="adopted 1 message"):
        ChannelFactory.transplant(factory, old, new)


class DroppingAdoptLane(Lane):
    """A lane whose adopt loses every other message it is handed."""

    def adopt(self, message) -> None:
        self.dropped = not getattr(self, "dropped", True)
        if not self.dropped:
            super().adopt(message)


@pytest.mark.parametrize("wrap", ["rate-limited", "inspected"])
def test_transplant_trips_through_a_wrapped_lane(disarmed, wrap):
    """The check reads the wrapper's stats, so a loss inside the lane a
    RateLimitedLane or InspectedLane delegates to is still caught."""
    env = Environment()

    def wrapped():
        inner = DroppingAdoptLane(env, Mechanism.RDMA)
        if wrap == "rate-limited":
            return RateLimitedLane(inner, TokenBucket(env, 1e9))
        return InspectedLane(inner, Middlebox(), host=None)

    old = SimpleNamespace(lane_ab=make_lane(env), lane_ba=make_lane(env))
    for _ in range(2):
        old.lane_ba.inbox.put(old.lane_ba.make_message(100))
    new = SimpleNamespace(lane_ab=wrapped(), lane_ba=wrapped())
    factory = SimpleNamespace(transplanted_messages=0)

    with pytest.raises(EngineInvariantError,
                       match=r"grew by \(1, 1, 100\)"):
        ChannelFactory.transplant(factory, old, new)


def test_flow_state_guard_allows_transition_api_only(disarmed):
    table = FlowTable(Environment())
    flow = table.open("a", "b")
    assert flow.state is FlowState.RESOLVING

    table.transition(flow, FlowState.ACTIVE, reason="test")  # sanctioned
    assert flow.state is FlowState.ACTIVE

    with pytest.raises(AttributeError):
        flow.state = FlowState.BROKEN
    # The guarded write never happened.
    assert flow.state is FlowState.ACTIVE


def test_flow_created_before_install_still_guarded(disarmed):
    """The guard does not depend on arming: a flow is read-only before,
    while and after the sanitizer is armed."""
    flow = FlowTable(Environment()).open("a", "b")
    with pytest.raises(AttributeError):
        flow.state = FlowState.CLOSED
    sanitizer.install()
    try:
        assert flow.state is FlowState.RESOLVING
        with pytest.raises(AttributeError):
            flow.state = FlowState.CLOSED
    finally:
        sanitizer.uninstall()
    assert flow.state is FlowState.RESOLVING


# -- streaming-ring conservation (armed through sockets.RING_CHECK) ---------


def short_release_consume_rx():
    """``FreeFlowSocket._consume_rx`` releasing one ring byte short."""
    source = textwrap.dedent(inspect.getsource(FreeFlowSocket._consume_rx))
    mutant = source.replace("self._rx_ring.release(ring_bytes)",
                            "self._rx_ring.release(ring_bytes - 1)")
    assert mutant != source
    namespace: dict = {}
    exec(mutant, vars(sockets), namespace)
    return namespace["_consume_rx"]


def stream_a_few_small_messages() -> int:
    """Client on h1 streams three ring-path messages to a server on h2."""
    env = Environment()
    fabric = Fabric(env)
    cluster = ClusterOrchestrator(env)
    for name in ("h1", "h2"):
        cluster.add_host(Host(env, name, fabric=fabric))
    network = FreeFlowNetwork(cluster)
    client_c, server_c = (
        cluster.submit(ContainerSpec(name, pinned_host=host))
        for name, host in (("client", "h1"), ("server", "h2")))
    network.attach(client_c)
    network.attach(server_c)
    layer = SocketLayer(network, streaming=True)
    listener = layer.listen(server_c, 7300)
    got = []

    def server():
        sock = yield from listener.accept()
        for _ in range(3):
            n, _payload = yield from sock.recv_exactly(64)
            got.append(n)

    def client():
        done = env.process(server())
        sock = layer.socket(client_c)
        yield from sock.connect(server_c.ip, 7300)
        for _ in range(3):
            yield from sock.send(64)
        yield done

    env.run(until=env.process(client()))
    return sum(got)


def test_ring_mutant_trips_only_while_the_slot_is_armed(
        disarmed, monkeypatch):
    monkeypatch.setattr(FreeFlowSocket, "_consume_rx",
                        short_release_consume_rx())
    assert sockets.RING_CHECK is None
    assert stream_a_few_small_messages() == 192  # nothing checks it

    sanitizer.install()
    try:
        assert sockets.RING_CHECK is not None
        with pytest.raises(SanitizerViolation,
                           match="receive-ring accounting out of balance"):
            stream_a_few_small_messages()
        assert sanitizer.stats()["violations"] == 1
    finally:
        sanitizer.uninstall()


def test_ring_check_runs_clean_on_the_real_socket(sanitized):
    sanitizer.reset_stats()
    assert stream_a_few_small_messages() == 192
    stats = sanitized.stats()
    assert stats["socket_ring"] > 0
    assert stats["violations"] == 0


# -- install / uninstall -----------------------------------------------------


def test_install_is_idempotent_and_uninstall_restores():
    was_installed = sanitizer.installed()
    if was_installed:
        sanitizer.uninstall()
    others = scheduler.OBSERVERS
    try:
        sanitizer.install()
        sanitizer.install()  # no-op, must not arm twice
        assert len(scheduler.OBSERVERS) == len(others) + 1
        assert sockets.RING_CHECK is not None
        sanitizer.uninstall()
        assert scheduler.OBSERVERS == others
        assert sockets.RING_CHECK is None
        assert isinstance(FlowConnection.__dict__["state"], property)
        assert sanitizer.stats() == {"installed": False}
    finally:
        if was_installed:
            sanitizer.install()


def test_stats_counters_accumulate(sanitized):
    sanitizer.reset_stats()
    env = Environment()
    pingpong_workload(env)
    stats = sanitized.stats()
    assert stats["installed"] is True
    assert stats["violations"] == 0
    assert stats["engine_step"] == env.events_processed
