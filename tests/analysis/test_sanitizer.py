"""Runtime sanitizer: trip tests for each armed invariant, plus proof
that a sanitized run matches the unsanitized engine exactly."""

from __future__ import annotations

import heapq
from types import SimpleNamespace

import pytest

from repro.analysis import sanitizer
from repro.core.flows import ChannelFactory, FlowConnection, FlowState
from repro.errors import SanitizerViolation
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


# -- conservation checks -----------------------------------------------------


def make_lane(env: Environment) -> Lane:
    return Lane(env, Mechanism.SHM)


def test_adopt_conservation_holds_for_real_lanes(sanitized):
    env = Environment()
    src, dst = make_lane(env), make_lane(env)
    message = src.make_message(4096)
    before = sanitized.stats().get("lane_adopt", 0)
    dst.adopt(message)
    assert dst.stats.messages_sent == 1
    assert dst.stats.messages_delivered == 1
    assert dst.stats.payload_bytes == 4096
    assert sanitized.stats()["lane_adopt"] == before + 1


def test_transplant_conservation_holds_for_real_lanes(sanitized):
    env = Environment()
    old = SimpleNamespace(lane_ab=make_lane(env), lane_ba=make_lane(env))
    new = SimpleNamespace(lane_ab=make_lane(env), lane_ba=make_lane(env))
    for lane, count in ((old.lane_ab, 3), (old.lane_ba, 1)):
        for _ in range(count):
            lane.inbox.items.append(lane.make_message(100))
    factory = SimpleNamespace(transplanted_messages=0)

    moved = ChannelFactory.transplant(factory, old, new)

    assert moved == 4
    assert factory.transplanted_messages == 4
    assert not old.lane_ab.inbox.items and not old.lane_ba.inbox.items
    assert len(new.lane_ab.inbox.items) == 3
    assert new.lane_ba.stats.messages_delivered == 1


def test_transplant_trips_when_new_lane_drops_messages(sanitized):
    env = Environment()

    class DroppingLane:
        """A buggy adoptive lane: acknowledges nothing it is handed."""

        def __init__(self):
            self.inbox = SimpleNamespace(items=[])
            self.stats = SimpleNamespace(messages_delivered=0)
            self.mechanism = Mechanism.TCP

        def adopt(self, message):
            pass

    old = SimpleNamespace(lane_ab=make_lane(env), lane_ba=make_lane(env))
    old.lane_ab.inbox.items.append(old.lane_ab.make_message(100))
    new = SimpleNamespace(lane_ab=DroppingLane(), lane_ba=DroppingLane())
    factory = SimpleNamespace(transplanted_messages=0)

    with pytest.raises(SanitizerViolation, match="adopted 0 message"):
        ChannelFactory.transplant(factory, old, new)


# -- flow-state ownership ----------------------------------------------------


def test_flow_state_guard_allows_transition_api_only(sanitized):
    flow = FlowConnection("a", "b", channel=None, decision=None)
    assert flow.state is FlowState.RESOLVING

    flow._transition(FlowState.ACTIVE, "test")  # sanctioned path
    assert flow.state is FlowState.ACTIVE

    with pytest.raises(SanitizerViolation, match="FlowTable"):
        flow.state = FlowState.BROKEN
    # The guarded write never happened.
    assert flow.state is FlowState.ACTIVE


def test_flow_created_before_install_still_guarded():
    was_installed = sanitizer.installed()
    if was_installed:
        sanitizer.uninstall()
    flow = FlowConnection("a", "b", channel=None, decision=None)
    sanitizer.install()
    try:
        assert flow.state is FlowState.RESOLVING
        with pytest.raises(SanitizerViolation):
            flow.state = FlowState.CLOSED
    finally:
        if not was_installed:
            sanitizer.uninstall()


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
        sanitizer.uninstall()
        assert scheduler.OBSERVERS == others
        assert not hasattr(FlowConnection, "state") or (
            not isinstance(FlowConnection.__dict__.get("state"), property))
        # A flow created while armed keeps a readable plain attribute.
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
