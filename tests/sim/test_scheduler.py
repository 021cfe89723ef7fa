"""Unit tests for the environment / scheduler."""

import pytest

from repro.sim import EmptySchedule, Environment


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0


def test_run_until_time_stops_clock(env):
    env.timeout(5)
    env.run(until=3)
    assert env.now == 3


def test_run_until_time_processes_earlier_events(env):
    hits = []
    t = env.timeout(1)
    t.callbacks.append(lambda e: hits.append(env.now))
    env.run(until=2)
    assert hits == [1]


def test_run_until_past_raises(env):
    env.timeout(5)
    env.run(until=3)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_run_drains_queue(env):
    env.timeout(1)
    env.timeout(2)
    env.run()
    assert env.now == 2
    assert env.peek() == float("inf")


def test_step_empty_raises(env):
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_returns_next_event_time(env):
    env.timeout(4)
    env.timeout(2)
    assert env.peek() == 2


def test_events_at_same_time_fifo(env):
    order = []
    for name in "abc":
        t = env.timeout(1)
        t.callbacks.append(lambda e, n=name: order.append(n))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_event_returns_value(env):
    def work():
        yield env.timeout(2)
        return "value"

    process = env.process(work())
    assert env.run(until=process) == "value"
    assert env.now == 2


def test_run_until_event_raises_its_exception(env):
    def failing():
        yield env.timeout(1)
        raise KeyError("nope")

    process = env.process(failing())
    with pytest.raises(KeyError):
        env.run(until=process)


def test_run_until_already_processed_event(env):
    t = env.timeout(1, value="done")
    env.run()
    assert env.run(until=t) == "done"


def test_run_until_event_that_never_fires(env):
    stuck = env.event()
    env.timeout(1)
    with pytest.raises(RuntimeError, match="ran out of events"):
        env.run(until=stuck)


def _fire_at_one(env, event):
    def fire():
        yield env.timeout(1)
        event.succeed("late")

    env.process(fire())


def test_run_until_event_that_runs_dry_leaves_no_stop_behind(env):
    """A run whose ``until`` event never fired raises; a later run must
    not stop where that event fires."""
    stuck = env.event()
    with pytest.raises(RuntimeError, match="ran out of events"):
        env.run(until=stuck)
    _fire_at_one(env, stuck)
    assert env.run(until=10) is None
    assert env.now == 10
    assert stuck.processed and stuck.value == "late"


def test_run_until_event_that_fails_midway_leaves_no_stop_behind(env):
    stuck = env.event()

    def failing():
        yield env.timeout(0.5)
        raise ValueError("boom")

    env.process(failing())
    with pytest.raises(ValueError, match="boom"):
        env.run(until=stuck)
    _fire_at_one(env, stuck)
    assert env.run(until=10) is None
    assert env.now == 10


def test_negative_schedule_delay_rejected(env):
    event = env.event()
    with pytest.raises(ValueError):
        env.schedule(event, delay=-1)


def test_simulation_continues_after_partial_run(env):
    env.timeout(1)
    env.timeout(5)
    env.run(until=2)
    env.run()
    assert env.now == 5


def test_active_process_tracked(env):
    seen = []

    def work():
        seen.append(env.active_process)
        yield env.timeout(1)

    process = env.process(work())
    env.run()
    assert seen == [process]
    assert env.active_process is None

# -- regression tests: `until` boundary semantics and queue interleaving --


def test_run_until_lands_exactly_on_stop_time(env):
    env.timeout(1)
    env.timeout(2)
    env.run(until=3.7)
    assert env.now == 3.7


def test_run_until_exact_when_queue_drains_early(env):
    # The queue empties at t=1 but the clock must still advance to `until`.
    env.timeout(1)
    env.run(until=7.5)
    assert env.now == 7.5
    assert env.peek() == float("inf")


def test_run_until_event_exactly_at_stop_time(env):
    hits = []
    t = env.timeout(3.0)
    t.callbacks.append(lambda e: hits.append(env.now))
    env.run(until=3.0)
    assert hits == [3.0]
    assert env.now == 3.0


def test_run_until_already_failed_processed_event_raises(env):
    event = env.event()
    event.defused = True  # nobody waits; suppress the unhandled-error check
    event.fail(ValueError("boom"))
    env.run()
    assert event.processed
    with pytest.raises(ValueError, match="boom"):
        env.run(until=event)


def test_run_until_event_that_fails_during_run_raises(env):
    event = env.event()
    event.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run(until=event)


def test_out_of_order_delays_keep_time_order(env):
    # Decreasing delays exercise the heap fallback behind the monotone
    # tail deque; mixed same-time events exercise FIFO within a time.
    order = []
    for delay in (5, 3, 4, 3):
        t = env.timeout(delay)
        t.callbacks.append(lambda e, d=delay: order.append(d))
    env.run()
    assert order == [3, 3, 4, 5]


def test_zero_delay_and_delayed_events_interleave_in_time_order(env):
    order = []

    def worker():
        order.append(("start", env.now))
        yield env.timeout(0)
        order.append(("zero", env.now))
        yield env.timeout(2)
        order.append(("two", env.now))

    t = env.timeout(1)
    t.callbacks.append(lambda e: order.append(("one", env.now)))
    env.process(worker())
    env.run()
    assert order == [("start", 0), ("zero", 0), ("one", 1), ("two", 2)]


def test_events_processed_counter(env):
    for _ in range(3):
        env.timeout(1)
    env.run()
    # 3 timeouts (no process-bookkeeping events involved).
    assert env.events_processed == 3


class TestBatchedSameTimestampDrain:
    """run()'s batched drain of same-instant ready events must stay
    observationally identical to the one-at-a-time heap semantics."""

    def test_same_instant_storm_keeps_fifo_order(self, env):
        order = []
        for i in range(100):
            e = env.event()
            e.succeed()
            e.callbacks.append(lambda _e, i=i: order.append(i))
        env.run()
        assert order == list(range(100))

    def test_appends_during_drain_run_after_existing_entries(self, env):
        order = []

        def chain(e):
            order.append("first")
            nxt = env.event()
            nxt.succeed()
            nxt.callbacks.append(lambda _e: order.append("chained"))

        head = env.event()
        head.succeed()
        head.callbacks.append(chain)
        tail = env.event()
        tail.succeed()
        tail.callbacks.append(lambda _e: order.append("second"))
        env.run()
        assert order == ["first", "second", "chained"]

    def test_urgent_interrupt_preempts_remaining_ready_entries(self, env):
        """An interrupt raised mid-storm schedules an URGENT event on
        the heap; the batched drain must bail out and run it before the
        rest of the same-instant ready batch."""
        from repro.sim import Interrupt

        order = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt:
                order.append("interrupted")

        proc = env.process(victim())

        def storm():
            yield env.timeout(1)  # victim is parked by now
            a = env.event()
            a.succeed()
            a.callbacks.append(
                lambda _e: (order.append("a"), proc.interrupt())
            )
            b = env.event()
            b.succeed()
            b.callbacks.append(lambda _e: order.append("b"))

        env.process(storm())
        env.run()
        assert order == ["a", "interrupted", "b"]

    def test_batched_drain_matches_step_semantics(self, env):
        """Same workload through run() (batched) and step() (per-event)
        produces the same observable order."""

        def workload(e, log):
            for i in range(5):
                ev = e.event()
                ev.succeed()
                ev.callbacks.append(lambda _x, i=i: log.append(("r", i)))
            t = e.timeout(0)
            t.callbacks.append(lambda _x: log.append(("t", e.now)))

        run_log = []
        workload(env, run_log)
        env.run()

        from repro.sim import Environment

        stepped = Environment()
        step_log = []
        workload(stepped, step_log)
        while stepped.peek() != float("inf"):
            stepped.step()
        assert run_log == step_log
