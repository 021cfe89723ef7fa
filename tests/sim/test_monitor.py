"""Unit tests for the measurement instruments."""

import pytest

from repro.sim import Environment, IntervalRecorder, Series, TimeWeighted


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

    def test_min_max(self, env):
        tracker = TimeWeighted(env)
        tracker.record(5)
        tracker.record(-2)
        assert tracker.maximum() == 5
        assert tracker.minimum() == -2

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


class TestSeries:
    def test_basic_stats(self):
        series = Series()
        series.extend([1, 2, 3, 4, 5])
        assert series.mean() == 3
        assert series.minimum() == 1
        assert series.maximum() == 5
        assert series.median() == 3
        assert len(series) == 5

    def test_percentile_interpolation(self):
        series = Series()
        series.extend([0, 10])
        assert series.percentile(50) == pytest.approx(5)
        assert series.percentile(0) == 0
        assert series.percentile(100) == 10

    def test_percentile_single_sample(self):
        series = Series()
        series.add(42)
        assert series.percentile(99) == 42

    def test_empty_series_raises(self):
        series = Series()
        with pytest.raises(ValueError):
            series.mean()
        with pytest.raises(ValueError):
            series.percentile(50)

    def test_bad_percentile_rejected(self):
        series = Series()
        series.add(1)
        with pytest.raises(ValueError):
            series.percentile(101)

    def test_stdev(self):
        series = Series()
        series.extend([2, 4, 4, 4, 5, 5, 7, 9])
        assert series.stdev() == pytest.approx(2.138, abs=1e-3)
        single = Series()
        single.add(1)
        assert single.stdev() == 0.0

    def test_summary_keys(self):
        series = Series()
        series.extend(range(100))
        summary = series.summary()
        assert set(summary) == {"count", "mean", "min", "p50", "p99", "max"}
        assert summary["count"] == 100

    def test_samples_are_copied(self):
        series = Series()
        series.add(1)
        external = series.samples
        external.append(2)
        assert len(series) == 1


class TestIntervalRecorder:
    def test_utilisation_of_half_busy_worker(self, env):
        recorder = IntervalRecorder(env)

        def driver():
            recorder.busy()
            yield env.timeout(5)
            recorder.idle()
            yield env.timeout(5)

        env.process(driver())
        env.run()
        assert recorder.utilisation() == pytest.approx(0.5)
        assert recorder.utilisation_percent() == pytest.approx(50.0)

    def test_two_workers_counted(self, env):
        recorder = IntervalRecorder(env)

        def driver():
            recorder.busy(2)
            yield env.timeout(10)
            recorder.idle(2)

        env.process(driver())
        env.run()
        assert recorder.utilisation() == pytest.approx(2.0)

    def test_active_tracks_current(self, env):
        recorder = IntervalRecorder(env)
        recorder.busy(3)
        assert recorder.active == 3
        recorder.idle()
        assert recorder.active == 2


class TestStreamingSeries:
    def test_exact_moments_match_plain_series(self):
        from repro.sim import Series, StreamingSeries

        streaming = StreamingSeries()
        plain = Series()
        for value in (3.0, 1.0, 4.0, 1.0, 5.0, 9.0):
            streaming.add(value)
            plain.add(value)
        assert len(streaming) == len(plain)
        assert streaming.mean() == pytest.approx(plain.mean())
        assert streaming.minimum() == plain.minimum()
        assert streaming.maximum() == plain.maximum()

    def test_percentiles_exact_below_reservoir_size(self):
        from repro.sim import StreamingSeries

        series = StreamingSeries()
        series.extend(range(101))
        assert series.percentile(0) == 0
        assert series.percentile(50) == 50
        assert series.percentile(100) == 100
        assert series.median() == 50

    def test_append_aliases_add(self):
        from repro.sim import StreamingSeries

        series = StreamingSeries()
        series.append(2.5)
        assert len(series) == 1
        assert series.mean() == 2.5

    def test_empty_raises(self):
        from repro.sim import StreamingSeries

        series = StreamingSeries()
        with pytest.raises(ValueError):
            series.mean()
        with pytest.raises(ValueError):
            series.percentile(50)

    def test_invalid_arguments(self):
        from repro.sim import StreamingSeries

        with pytest.raises(ValueError):
            StreamingSeries(reservoir=0)
        series = StreamingSeries()
        series.add(1.0)
        with pytest.raises(ValueError):
            series.percentile(101)

    def test_deterministic_sampling(self):
        from repro.sim import StreamingSeries

        a = StreamingSeries(reservoir=16)
        b = StreamingSeries(reservoir=16)
        for value in range(10_000):
            a.add(value)
            b.add(value)
        assert a.samples == b.samples

    def test_rng_created_on_first_overflow(self):
        from repro.sim import StreamingSeries

        series = StreamingSeries(reservoir=8)
        series.extend(range(8))
        assert series._rng is None
        series.add(8.0)
        assert series._rng is not None

    def test_reservoir_matches_eager_algorithm_r(self):
        from repro.sim import RandomStream, StreamingSeries

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
        from repro.sim import StreamingSeries

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
