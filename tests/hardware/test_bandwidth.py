"""Unit tests for the shared-bandwidth pipe."""

import pytest

from repro.hardware import BandwidthPipe
from repro.sim import Environment


def test_uncontended_transfer_time(env, runner):
    pipe = BandwidthPipe(env, rate_bytes=1000, chunk_bytes=100)

    def move():
        seconds = yield from pipe.transfer(500)
        return seconds

    assert runner(move()) == pytest.approx(0.5)


def test_two_flows_share_capacity(env):
    pipe = BandwidthPipe(env, rate_bytes=1000, chunk_bytes=10)
    finished = []

    def move(name):
        yield from pipe.transfer(500)
        finished.append((env.now, name))

    env.process(move("a"))
    env.process(move("b"))
    env.run()
    # 1000 bytes total through a 1000 B/s pipe => both done around 1s.
    assert finished[-1][0] == pytest.approx(1.0, rel=0.05)
    # Fair sharing: the first finisher cannot be much earlier.
    assert finished[0][0] > 0.9


def test_aggregate_rate_is_capacity(env):
    pipe = BandwidthPipe(env, rate_bytes=1000, chunk_bytes=50)

    def move():
        yield from pipe.transfer(250)

    for _ in range(4):
        env.process(move())
    env.run()
    assert env.now == pytest.approx(1.0)
    assert pipe.bytes_moved == 1000


def test_zero_bytes_transfer_is_instant(env, runner):
    pipe = BandwidthPipe(env, rate_bytes=1000)

    def move():
        seconds = yield from pipe.transfer(0)
        return seconds

    assert runner(move()) == 0


def test_negative_bytes_rejected(env):
    pipe = BandwidthPipe(env, rate_bytes=1000)

    def move():
        yield from pipe.transfer(-5)

    process = env.process(move())
    with pytest.raises(ValueError):
        env.run(until=process)


def test_invalid_construction(env):
    with pytest.raises(ValueError):
        BandwidthPipe(env, rate_bytes=0)
    with pytest.raises(ValueError):
        BandwidthPipe(env, rate_bytes=10, chunk_bytes=0)


def test_utilisation_full_when_saturated(env):
    pipe = BandwidthPipe(env, rate_bytes=1000, chunk_bytes=100)

    def move():
        yield from pipe.transfer(1000)

    env.process(move())
    env.run()
    assert pipe.utilisation() == pytest.approx(1.0)


def test_seconds_for(env):
    pipe = BandwidthPipe(env, rate_bytes=2000)
    assert pipe.seconds_for(1000) == pytest.approx(0.5)


def test_reset_accounting(env):
    pipe = BandwidthPipe(env, rate_bytes=1000)

    def move():
        yield from pipe.transfer(100)

    env.process(move())
    env.run()
    pipe.reset_accounting()
    assert pipe.bytes_moved == 0


def test_same_instant_completions_keep_their_last_chunk_order(env):
    """Two pipes finish transfers at the same instant: the one whose
    last chunk started first completes first.  The chunked loop arms
    each chunk's timeout at that chunk's boundary, so A (two 128 B
    chunks, the last armed at t=0.125) completes after B (one chunk,
    armed at t=0.0625).  A transfer that armed one timeout for its
    whole run at its start would complete A first; that is why bulk
    transfers cannot move in O(1) engine events and keep every
    same-instant order of the chunked pipe."""
    pipe_a = BandwidthPipe(env, rate_bytes=1024, chunk_bytes=128)
    pipe_b = BandwidthPipe(env, rate_bytes=1024, chunk_bytes=1024)
    done = []

    def move(name, pipe, nbytes, delay):
        yield env.timeout(delay)
        yield from pipe.transfer(nbytes)
        done.append((env.now, name))

    env.process(move("A", pipe_a, 256, 0.0))
    env.process(move("B", pipe_b, 192, 0.0625))
    env.run()
    assert done == [(0.25, "B"), (0.25, "A")]
