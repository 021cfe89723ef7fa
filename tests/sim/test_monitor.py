"""Unit tests for the measurement instruments."""

import math

import pytest

from repro.hardware import CpuSet
from repro.sim import RandomStream, StreamingSeries, TimeWeighted


class TestTimeWeighted:
    def test_constant_signal(self, env):
        tracker = TimeWeighted(env, initial=3.0)
        env.timeout(10)
        env.run()
        assert tracker.mean() == pytest.approx(3.0)

    def test_step_change_weighting(self, env):
        tracker = TimeWeighted(env, initial=0.0)

        def driver():
            yield env.timeout(4)
            tracker.record(10.0)
            yield env.timeout(6)

        env.process(driver())
        env.run()
        # 0 for 4s, 10 for 6s over 10s => 6.0
        assert tracker.mean() == pytest.approx(6.0)

    def test_add_is_relative(self, env):
        tracker = TimeWeighted(env, initial=1.0)
        tracker.add(2.0)
        assert tracker.value == 3.0
        tracker.add(-3.0)
        assert tracker.value == 0.0

    def test_reset_restarts_window(self, env):
        tracker = TimeWeighted(env, initial=10)

        def driver():
            yield env.timeout(5)
            tracker.reset()
            tracker.record(2)
            yield env.timeout(5)

        env.process(driver())
        env.run()
        assert tracker.mean() == pytest.approx(2.0)

    def test_mean_with_zero_span(self, env):
        tracker = TimeWeighted(env, initial=7)
        assert tracker.mean() == 7


class TestBusyTime:
    """Busy-worker accounting: a TimeWeighted count of busy workers,
    whose mean is "how many cores were burning"."""

    def test_utilisation_of_half_busy_worker(self, env):
        cpu = CpuSet(env)

        def driver():
            yield from cpu.execute(cpu.spec.frequency_hz * 5)
            yield env.timeout(5)

        env.process(driver())
        env.run()
        assert cpu.utilisation() == pytest.approx(0.5)
        assert cpu.utilisation_percent() == pytest.approx(50.0)

    def test_two_workers_counted(self, env):
        busy = TimeWeighted(env)

        def driver():
            busy.add(2)
            yield env.timeout(10)
            busy.add(-2)

        env.process(driver())
        env.run()
        assert busy.mean() == pytest.approx(2.0)

    def test_active_tracks_current(self, env):
        cpu = CpuSet(env)
        claims = [cpu.dedicate() for _ in range(3)]
        assert cpu.busy_cores == 3
        claims[0].release()
        assert cpu.busy_cores == 2


def exact() -> StreamingSeries:
    """The exact collector: an unbounded reservoir keeps every sample."""
    return StreamingSeries(reservoir=math.inf)


class TestSeries:
    """The exact mode, ``StreamingSeries(reservoir=math.inf)``."""

    def test_basic_stats(self):
        series = exact()
        series.extend([1, 2, 3, 4, 5])
        assert series.mean() == 3
        assert series.minimum() == 1
        assert series.maximum() == 5
        assert series.median() == 3
        assert len(series) == 5

    def test_percentile_interpolation(self):
        series = exact()
        series.extend([0, 10])
        assert series.percentile(50) == pytest.approx(5)
        assert series.percentile(0) == 0
        assert series.percentile(100) == 10

    def test_percentile_single_sample(self):
        series = exact()
        series.add(42)
        assert series.percentile(99) == 42

    def test_empty_series_raises(self):
        series = exact()
        with pytest.raises(ValueError):
            series.mean()
        with pytest.raises(ValueError):
            series.percentile(50)
        assert series.summary() == {"count": 0.0}

    def test_bad_percentile_rejected(self):
        series = exact()
        series.add(1)
        with pytest.raises(ValueError):
            series.percentile(101)

    def test_summary_keys(self):
        series = exact()
        series.extend(range(100))
        summary = series.summary()
        assert set(summary) == {"count", "mean", "min", "p50", "p99", "max"}
        assert summary["count"] == 100

    def test_samples_are_copied(self):
        series = exact()
        series.add(1)
        external = series.samples
        external.append(2)
        assert len(series) == 1


#: Percentiles the reference comparison reads, extremes included.
PERCENTILES = (0, 0.1, 1, 5, 25, 50, 75, 90, 99, 99.9, 100)


def reference_summary(samples: list) -> dict:
    """The statistics from a plain sorted list, the total summed left to
    right in arrival order, percentiles interpolated between ranks."""
    data = sorted(samples)
    total = 0.0
    for sample in samples:
        total += sample

    def percentile(p):
        rank = (p / 100) * (len(data) - 1)
        low, high = math.floor(rank), math.ceil(rank)
        return data[low] + (rank - low) * (data[high] - data[low])

    return {
        "count": len(samples), "total": total, "mean": total / len(samples),
        "min": data[0], "max": data[-1],
        "percentiles": [percentile(p) for p in PERCENTILES],
    }


def summary_of(series: StreamingSeries) -> dict:
    return {
        "count": len(series), "total": series.total(), "mean": series.mean(),
        "min": series.minimum(), "max": series.maximum(),
        "percentiles": [series.percentile(p) for p in PERCENTILES],
    }


def random_samples(seed: int, count: int) -> list:
    """``count`` samples spanning a seeded scale: mostly exponential,
    with some negative and repeated values."""
    rng = RandomStream(seed, "series-reference")
    scale = 10 ** rng.uniform(-9, 3)
    samples = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.1:
            samples.append(rng.uniform(-scale, scale))
        elif roll < 0.2 and samples:
            samples.append(samples[rng.randrange(len(samples))])
        else:
            samples.append(rng.expovariate(1 / scale))
    return samples


@pytest.mark.parametrize("seed", range(12))
def test_unbounded_reservoir_matches_sorted_list_reference(seed):
    count = RandomStream(seed, "series-count").randint(1, 3_000)
    samples = random_samples(seed, count)
    series = exact()
    series.extend(samples)
    assert summary_of(series) == reference_summary(samples)
    assert series.samples == samples


@pytest.mark.parametrize(
    "count", (1, 2, 3, 100, StreamingSeries.DEFAULT_RESERVOIR))
def test_default_reservoir_is_exact_up_to_its_size(count):
    samples = random_samples(count, count)
    series = StreamingSeries()
    series.extend(samples)
    assert summary_of(series) == reference_summary(samples)


class TestStreamingSeries:
    def test_exact_moments_match_plain_series(self):
        # Past its reservoir, a bounded series still has the exact
        # stream's count, mean, min and max.
        streaming = StreamingSeries(reservoir=4)
        plain = exact()
        for value in (3.0, 1.0, 4.0, 1.0, 5.0, 9.0):
            streaming.add(value)
            plain.add(value)
        assert len(streaming) == len(plain)
        assert streaming.mean() == plain.mean()
        assert streaming.minimum() == plain.minimum()
        assert streaming.maximum() == plain.maximum()

    def test_percentiles_exact_below_reservoir_size(self):
        series = StreamingSeries()
        series.extend(range(101))
        assert series.percentile(0) == 0
        assert series.percentile(50) == 50
        assert series.percentile(100) == 100
        assert series.median() == 50

    def test_append_aliases_add(self):
        series = StreamingSeries()
        series.append(2.5)
        assert len(series) == 1
        assert series.mean() == 2.5

    def test_empty_raises(self):
        series = StreamingSeries()
        with pytest.raises(ValueError):
            series.mean()
        with pytest.raises(ValueError):
            series.percentile(50)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            StreamingSeries(reservoir=0)
        series = StreamingSeries()
        series.add(1.0)
        with pytest.raises(ValueError):
            series.percentile(101)

    def test_deterministic_sampling(self):
        a = StreamingSeries(reservoir=16)
        b = StreamingSeries(reservoir=16)
        for value in range(10_000):
            a.add(value)
            b.add(value)
        assert a.samples == b.samples

    def test_rng_created_on_first_overflow(self):
        series = StreamingSeries(reservoir=8)
        series.extend(range(8))
        assert series._rng is None
        series.add(8.0)
        assert series._rng is not None

    def test_reservoir_matches_eager_algorithm_r(self):
        capacity, n = StreamingSeries.DEFAULT_RESERVOIR, 10_000
        series = StreamingSeries()
        rng = RandomStream(0x5EED, "reservoir")
        reservoir = []
        for count, value in enumerate(range(n), 1):
            series.add(value)
            if len(reservoir) < capacity:
                reservoir.append(float(value))
            else:
                j = rng.randrange(count)
                if j < capacity:
                    reservoir[j] = float(value)
        assert series.samples == reservoir

    def test_million_samples_bounded_memory(self):
        # Acceptance: a 1M-sample stream must not grow memory linearly —
        # the reservoir stays at its fixed capacity while the exact
        # moments cover the full stream.
        n = 1_000_000
        series = StreamingSeries(reservoir=512)
        add = series.add
        for value in range(n):
            add(float(value))
        assert len(series) == n
        assert len(series.samples) == 512
        assert series.minimum() == 0.0
        assert series.maximum() == float(n - 1)
        assert series.mean() == pytest.approx((n - 1) / 2)
        # Reservoir percentiles approximate the uniform stream.
        assert series.percentile(50) == pytest.approx(n / 2, rel=0.15)
        summary = series.summary()
        assert summary["count"] == float(n)
