"""Clock rescaling: the map itself, path transforms, rate transforms, speeds."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cpb.core import (
    ChangePointLaw,
    History,
    PreconditionError,
    RateSchedule,
    validate_rates,
)
from cpb.continuous import ContinuousModel, PathSample, intensity, posterior_survival, sample_path
from cpb.timescale import (
    TimeScale,
    path_clock,
    regularizing_gammas,
    time_map,
    transform_path,
    transform_rates,
)


class TestTimeMap:
    def test_unit_speed_is_identity(self):
        scale = TimeScale((1.0,))
        h = History(5.0, (1.0, 2.5))
        for t in (0.0, 0.7, 1.0, 3.3, 5.0):
            assert time_map(scale, h, t) == pytest.approx(t, rel=1e-15)

    def test_two_speeds(self):
        scale = TimeScale((2.0, 3.0))
        h = History(2.0, (1.0,))
        assert time_map(scale, h, 1.5) == pytest.approx(2.0 * 1.0 + 3.0 * 0.5, rel=1e-15)

    def test_knot_values_are_partial_sums(self):
        scale = TimeScale((2.0, 0.5, 4.0))
        h = History(3.0, (0.4, 1.1, 2.9))
        prev = 0.0
        acc = 0.0
        for k, t in enumerate(h.arrivals):
            acc += scale.gamma(k) * (t - prev)
            prev = t
            assert time_map(scale, h, t) == pytest.approx(acc, rel=1e-14)

    def test_strictly_increasing_piecewise_linear(self):
        scale = TimeScale((0.5, 2.0, 1.0))
        h = History(4.0, (1.0, 2.0))
        grid = np.linspace(0.0, 4.0, 101)
        vals = [time_map(scale, h, t) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # slope inside a segment equals the speed at the segment's count
        probes = [(0.3, 0.6, 0.5), (1.2, 1.7, 2.0), (2.5, 3.9, 1.0)]
        for a, b, speed in probes:
            slope = (time_map(scale, h, b) - time_map(scale, h, a)) / (b - a)
            assert slope == pytest.approx(speed, rel=1e-12)

    def test_range_error(self):
        with pytest.raises(ValueError):
            time_map(TimeScale((1.0,)), History(2.0), 2.5)


class TestTransformPath:
    def test_unit_speed_identity(self):
        path = PathSample(0.8, (0.5, 1.5, 3.0))
        out = transform_path(TimeScale((1.0,)), path)
        assert out.arrival_times == pytest.approx(path.arrival_times)
        assert out.change_time == pytest.approx(0.8)

    def test_interarrival_scaling(self):
        # interarrivals (1, 2) with speeds (2, 3) become (2, 6)
        path = PathSample(5.0, (1.0, 3.0))
        out = transform_path(TimeScale((2.0, 3.0)), path)
        assert out.arrival_times == pytest.approx((2.0, 8.0))
        intervals = np.diff((0.0,) + out.arrival_times)
        assert tuple(intervals) == pytest.approx((2.0, 6.0))

    def test_change_time_between_arrivals(self):
        scale = TimeScale((2.0, 3.0, 0.5))
        path = PathSample(1.5, (1.0, 2.0))
        out = transform_path(scale, path)
        expected = 2.0 * 1.0 + 3.0 * (1.5 - 1.0)
        assert out.change_time == pytest.approx(expected, rel=1e-14)
        assert out.change_time == pytest.approx(path_clock(scale, path, 1.5), rel=1e-15)

    def test_count_closure_on_simulated_paths(self):
        # the transformed path has the original path's count at the mapped time
        model = ContinuousModel(RateSchedule((1.0, 2.0), (2.0, 3.0)), ChangePointLaw.exponential(1.0))
        scale = TimeScale((0.5, 2.0, 1.5))
        for seed in range(300):
            path = sample_path(model, horizon=3.0, seed=seed)
            mapped = transform_path(scale, path)
            for t in list(path.arrival_times) + [0.7, 1.9, 3.0]:
                g_t = path_clock(scale, path, t)
                n_orig = sum(1 for x in path.arrival_times if x <= t)
                n_mapped = sum(1 for x in mapped.arrival_times if x <= g_t * (1 + 1e-12))
                assert n_mapped == n_orig


def _prefix_knots(scale, times):
    """Reference: the clock at 0 and at each arrival, one speed lookup per step."""
    knots = [0.0]
    prev = 0.0
    for k, t in enumerate(times):
        knots.append(knots[-1] + scale.gamma(k) * (t - prev))
        prev = t
    return knots


def _prefix_clock(scale, times, x):
    """Reference: the clock at x, with the knots of the arrival prefix rebuilt."""
    count = bisect_right(times, x)
    prev = times[count - 1] if count else 0.0
    return _prefix_knots(scale, times[:count])[-1] + scale.gamma(count) * (x - prev)


class TestOneKnotTable:
    """Readings off one knot table per history are bit-identical to rebuilding
    the prefix knots at every reading."""

    @settings(max_examples=200, deadline=None)
    @given(
        horizon=st.floats(1e-3, 1e3),
        fractions=st.lists(st.floats(1e-9, 1.0), max_size=50, unique=True),
        gammas=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=60),
        queries=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
        change=st.one_of(st.just(math.inf), st.floats(0.0, 2.0)),
    )
    def test_matches_prefix_rebuild(self, horizon, fractions, gammas, queries, change):
        h = History(horizon, tuple(sorted({horizon * f for f in fractions})))
        times = h.arrivals
        scale = TimeScale(tuple(gammas))
        path = PathSample(horizon * change, times, seed=1)
        for t in (*times, *(horizon * q for q in queries)):
            assert time_map(scale, h, t) == _prefix_clock(scale, times, t)
            assert path_clock(scale, path, t) == _prefix_clock(scale, times, t)
        knots = _prefix_knots(scale, times)
        mapped = transform_path(scale, path)
        expected_change = _prefix_clock(scale, times, path.change_time) if change != math.inf else math.inf
        assert mapped == PathSample(expected_change, tuple(knots[1:]), seed=1)


class TestTransformRates:
    def test_unit_speed_identity(self):
        rates = RateSchedule((1.0, 2.0), (3.0, 4.0))
        assert transform_rates(TimeScale((1.0,)), rates) == rates

    def test_divides_by_speed(self):
        rates = RateSchedule((1.0, 1.0), (2.0, 100.0))
        out = transform_rates(TimeScale((1.0, 98.0)), rates)
        assert out.post_change == pytest.approx((2.0, 100.0 / 98.0))
        assert out.pre_change == pytest.approx((1.0, 1.0 / 98.0))

    def test_dominance_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pre = rng.uniform(0.2, 2.0, size=3)
            post = pre + rng.uniform(0.0, 2.0, size=3)
            speeds = rng.uniform(0.1, 4.0, size=3)
            out = transform_rates(TimeScale(tuple(speeds)), RateSchedule(tuple(pre), tuple(post)))
            assert validate_rates(out).assu_broad

    def test_round_trip(self):
        rates = RateSchedule((1.0, 2.0), (3.0, 4.0))
        scale = TimeScale((0.7, 2.3))
        back = transform_rates(scale.inverted(), transform_rates(scale, rates))
        for k in range(2):
            assert back.pre(k) == pytest.approx(rates.pre(k), rel=1e-14)
            assert back.post(k) == pytest.approx(rates.post(k), rel=1e-14)


class TestRegularizingGammas:
    def test_constant_gaps_reduce_to_weights(self):
        # the speeds are the gap ratios times the profile's weights 1/(1 + k/4)
        rates = RateSchedule((1.0, 2.0, 3.0), (2.0, 3.0, 4.0))  # gaps all 1
        scale = regularizing_gammas(rates)
        assert scale.gammas == pytest.approx((1.0, 0.8, 2.0 / 3.0))
        out = transform_rates(scale, rates)
        gaps = [out.post(k) - out.pre(k) for k in range(3)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        assert validate_rates(out).catania

    def test_two_level_example(self):
        rates = RateSchedule((1.0, 1.0), (2.0, 100.0))
        scale = regularizing_gammas(rates)
        assert scale.gammas == pytest.approx((1.0, 74.25))  # 99 * 1/(1 + 1/3)
        assert validate_rates(transform_rates(scale, rates)).catania

    def test_default_profile(self):
        rates = RateSchedule((1.0, 1.0, 1.0), (3.0, 2.0, 5.0))
        scale = regularizing_gammas(rates)
        out = transform_rates(scale, rates)
        assert validate_rates(out).catania

    def test_requires_strict_dominance(self):
        with pytest.raises(PreconditionError):
            regularizing_gammas(RateSchedule((1.0, 2.0), (2.0, 2.0)))


class TestPosteriorInvariance:
    def test_constant_speed_rescaling_preserves_posterior(self):
        # a deterministic clock with one speed maps the model onto another
        # member of the family; the posterior must not move
        rng = np.random.default_rng(12)
        for _ in range(60):
            factor = rng.uniform(0.4, 2.5)
            pre = rng.uniform(0.3, 1.5, size=2)
            post = pre + rng.uniform(0.0, 1.5, size=2)
            law = (
                ChangePointLaw.exponential(rng.uniform(0.4, 1.5))
                if rng.random() < 0.7
                else ChangePointLaw.weibull(rng.uniform(0.9, 1.6), rng.uniform(0.6, 1.4))
            )
            model = ContinuousModel(RateSchedule(tuple(pre), tuple(post)), law)
            t = rng.uniform(0.6, 2.0)
            k = int(rng.integers(0, 3))
            arr = tuple(np.sort(rng.uniform(0.05, t - 0.05, size=k)))
            h = History(t, arr)

            scaled_model = ContinuousModel(
                model.rates.scaled(1.0 / factor), law.scaled_time(factor)
            )
            scaled_h = History(t * factor, tuple(x * factor for x in arr))
            assert posterior_survival(scaled_model, scaled_h) == pytest.approx(
                posterior_survival(model, h), abs=1e-10
            )

    def test_intensity_re_expression(self):
        # the intensity rewrites as pre + gap * (posterior change mass)
        model = ContinuousModel(RateSchedule((0.7, 1.1), (1.9, 2.8)), ChangePointLaw.exponential(0.8))
        for h in (History(1.5), History(1.5, (0.4,)), History(1.5, (0.4, 1.1))):
            res = intensity(model, h)
            k = h.count
            rebuilt = model.rates.pre(k) + (
                model.rates.post(k) - model.rates.pre(k)
            ) * res.prob_after
            assert res.intensity == pytest.approx(rebuilt, rel=1e-14)


class TestDegenerateLawDistributions:
    def test_transformed_interarrivals_exponential(self):
        # immediate switch: the k-th transformed interarrival is exponential
        # with the transformed post-change rate at count k-1
        rates = RateSchedule((0.3, 0.3, 0.3), (2.0, 4.0, 1.0))
        model = ContinuousModel(rates, ChangePointLaw.point_mass(1e-12))
        scale = TimeScale((0.5, 2.0, 1.0))
        transformed = transform_rates(scale, rates)
        rng = np.random.default_rng(77)
        seconds = []
        for _ in range(10_000):
            path = sample_path(model, horizon=20.0, seed=rng)
            if len(path.arrival_times) >= 2:
                mapped = transform_path(scale, path)
                seconds.append(mapped.arrival_times[1] - mapped.arrival_times[0])
        rate = transformed.post(1)
        res = stats.kstest(seconds, lambda x: -np.expm1(-rate * np.asarray(x)))
        assert res.pvalue > 0.01
