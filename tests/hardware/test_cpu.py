"""Unit tests for the CPU model."""

import pytest

from repro.hardware import CpuSet, CpuSpec
from repro.sim import Environment


@pytest.fixture
def cpu(env):
    return CpuSet(env, CpuSpec(cores=2, frequency_hz=1e9))


def test_seconds_for_cycles(cpu):
    assert cpu.seconds_for(1e9) == pytest.approx(1.0)
    assert cpu.seconds_for(0) == 0


def test_execute_occupies_core_for_wall_time(env, cpu, runner):
    def work():
        yield from cpu.execute(2e9)  # 2 seconds at 1 GHz
        return env.now

    assert runner(work()) == pytest.approx(2.0)


def test_zero_cycles_is_free(env, cpu, runner):
    def work():
        yield from cpu.execute(0)
        return env.now

    assert runner(work()) == 0


def test_negative_cycles_rejected(env, cpu):
    def work():
        yield from cpu.execute(-1)

    process = env.process(work())
    with pytest.raises(ValueError):
        env.run(until=process)


def test_contention_queues_work(env, cpu):
    """3 jobs of 1s on 2 cores: last finishes at 2s."""
    finished = []

    def work(name):
        yield from cpu.execute(1e9)
        finished.append((env.now, name))

    for name in "abc":
        env.process(work(name))
    env.run()
    assert finished[-1][0] == pytest.approx(2.0)
    # Queued work is not busy: 2 cores for 1 s, then 1 core for 1 s.
    assert cpu.utilisation() == pytest.approx(1.5)


def test_utilisation_accounting(env, cpu):
    def work():
        yield from cpu.execute(1e9)

    env.process(work())
    env.run()
    # 1 core busy for the whole (1 s) window => 100 %.
    assert cpu.utilisation_percent() == pytest.approx(100.0)


def test_utilisation_two_cores(env, cpu):
    def work():
        yield from cpu.execute(1e9)

    env.process(work())
    env.process(work())
    env.run()
    assert cpu.utilisation_percent() == pytest.approx(200.0)


def test_hold_occupies_wall_time(env, cpu, runner):
    # A dedicated core counts as busy from the claim to its release.
    def work():
        claim = cpu.dedicate()
        yield env.timeout(0.5)
        claim.release()
        yield env.timeout(0.5)
        return env.now

    assert runner(work()) == pytest.approx(1.0)
    assert cpu.utilisation() == pytest.approx(0.5)


def test_dedicate_claims_core_forever(env, cpu):
    claim = cpu.dedicate()
    assert cpu.busy_cores == 1

    def work():
        yield from cpu.execute(1e9)

    env.process(work())
    env.run()
    # Dedicated core stayed busy during the 1s of work: 2 cores busy.
    assert cpu.utilisation() == pytest.approx(2.0)
    claim.release()
    assert cpu.busy_cores == 0


def test_dedicate_when_full_raises(env):
    cpu = CpuSet(env, CpuSpec(cores=1))
    cpu.dedicate()
    with pytest.raises(RuntimeError):
        cpu.dedicate()


def test_dedicate_release_idempotent(env, cpu):
    claim = cpu.dedicate()
    claim.release()
    claim.release()
    assert cpu.busy_cores == 0


def test_reset_accounting(env, cpu):
    def work():
        yield from cpu.execute(1e9)

    env.process(work())
    env.run()
    cpu.reset_accounting()
    env.timeout(1)
    env.run()
    assert cpu.utilisation() == pytest.approx(0.0)
