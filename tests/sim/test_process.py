"""Unit tests for simulation processes."""

import gc

import pytest

from repro.sim import Interrupt, Process


def test_process_returns_generator_value(env, runner):
    def work():
        yield env.timeout(1)
        return "result"

    assert runner(work()) == "result"
    assert env.now == 1


def test_process_is_an_event(env):
    def work():
        yield env.timeout(1)
        return 7

    process = env.process(work())

    def waiter():
        value = yield process
        return value * 2

    outer = env.process(waiter())
    assert env.run(until=outer) == 14


def test_sequential_timeouts_accumulate(env, runner):
    def work():
        yield env.timeout(1)
        yield env.timeout(2)
        return env.now

    assert runner(work()) == 3


def test_non_generator_rejected(env):
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_yielding_non_event_raises(env):
    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(TypeError, match="not an Event"):
        env.run()


def test_exception_in_process_propagates_to_waiter(env):
    def failing():
        yield env.timeout(1)
        raise ValueError("inner")

    def waiter():
        try:
            yield env.process(failing())
        except ValueError as exc:
            return f"caught {exc}"

    process = env.process(waiter())
    assert env.run(until=process) == "caught inner"


def test_unwaited_process_failure_surfaces(env):
    def failing():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(failing())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_interrupt_carries_cause(env):
    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            return interrupt.cause

    def interrupter(target):
        yield env.timeout(5)
        target.interrupt("wake up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    assert env.run(until=target) == "wake up"
    assert env.now == 5


def test_interrupt_dead_process_raises(env):
    def quick():
        yield env.timeout(1)

    process = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_interrupted_process_can_continue(env):
    def resilient():
        total = 0
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(1)
        return env.now

    def interrupter(target):
        yield env.timeout(2)
        target.interrupt()

    target = env.process(resilient())
    env.process(interrupter(target))
    assert env.run(until=target) == 3


def test_is_alive_lifecycle(env):
    def work():
        yield env.timeout(1)

    process = env.process(work())
    assert process.is_alive
    env.run()
    assert not process.is_alive


def test_waiting_on_already_processed_event(env):
    done = env.timeout(1, value="early")
    env.run()

    def late_waiter():
        value = yield done
        return value

    process = env.process(late_waiter())
    assert env.run(until=process) == "early"


def test_interrupt_detaches_from_target_event(env):
    shared = env.event()

    def sleeper():
        try:
            yield shared
        except Interrupt:
            return "interrupted"

    def other_waiter():
        value = yield shared
        return value

    target = env.process(sleeper())
    other = env.process(other_waiter())

    def interrupter():
        yield env.timeout(1)
        target.interrupt()
        yield env.timeout(1)
        shared.succeed("for the other")

    env.process(interrupter())
    assert env.run(until=target) == "interrupted"
    assert env.run(until=other) == "for the other"


def test_process_return_none_by_default(env, runner):
    def work():
        yield env.timeout(1)

    assert runner(work()) is None


def live_processes():
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Process))


def test_a_finished_process_is_freed_without_the_collector(env):
    """A process keeps its resume callback, which points back at it,
    only while it runs: once its generator returns, dropping the last
    reference frees it by reference counting alone."""

    def work():
        yield env.timeout(1)

    def waiter(process):
        yield process

    gc.collect()
    gc.disable()
    try:
        before = live_processes()
        process = env.process(work())
        env.process(waiter(process))
        assert live_processes() == before + 2
        del process
        env.run()
        assert live_processes() == before
    finally:
        gc.enable()


def fails(env):
    yield env.timeout(1)
    raise ValueError("boom")


def test_a_failed_process_nobody_awaits_is_freed_without_the_collector(env):
    """A failed process keeps its exception, whose traceback starts in
    the generator, not in the engine frame that holds the process: once
    the last reference goes, it is freed by reference counting."""
    gc.collect()
    gc.disable()
    try:
        before = live_processes()
        process = env.process(fails(env))
        process.defused = True  # nobody waits; the run does not raise
        del process
        env.run()
        assert live_processes() == before
    finally:
        gc.enable()


@pytest.mark.parametrize("until", [None, 5.0])
def test_a_failure_run_re_raises_frees_its_process(env, until):
    """``run()`` re-raising the failure of a process nobody awaited, as
    the batched drain or as ``step()`` (a time bound), leaves no frame
    of the engine holding the process, so it is freed by reference
    counting once the caller drops the exception."""
    gc.collect()
    gc.disable()
    try:
        before = live_processes()
        env.process(fails(env))
        try:
            env.run(until=until)
        except ValueError:
            pass
        assert live_processes() == before
    finally:
        gc.enable()


def test_run_until_a_failed_process_frees_it(env):
    """``run(until=process)`` re-raises the process's failure, both when
    it fails during the run and when it had failed before; neither
    leaves the process in a cycle through the traceback."""
    gc.collect()
    gc.disable()
    try:
        before = live_processes()
        process = env.process(fails(env))
        for _ in range(2):  # fails during the run, then already failed
            try:
                env.run(until=process)
            except ValueError:
                pass
        del process
        assert live_processes() == before
    finally:
        gc.enable()


def test_a_failed_process_and_the_waiter_that_caught_it_are_freed(env):
    """A waiter that catches a process's failure and returns leaves
    neither process behind.  A waiter whose catching frame keeps the
    failed process in a local still makes a cycle (frame -> process ->
    exception -> traceback -> frame) that only the collector frees."""
    caught = []

    def waiter():
        try:
            yield env.process(fails(env))
        except ValueError:
            caught.append(env.now)

    gc.collect()
    gc.disable()
    try:
        before = live_processes()
        env.process(waiter())
        env.run()
        assert caught == [1]
        assert live_processes() == before
    finally:
        gc.enable()
