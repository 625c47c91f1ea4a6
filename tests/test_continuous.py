"""Continuous engine: likelihood kernel, posterior integration, sampling, grids."""

import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import cpb._weibull as weibull_module
import cpb.continuous as continuous_module
import cpb.verify as verify_module
from cpb.core import (
    TAIL_REPEAT,
    TAIL_ZERO,
    ChangePointLaw,
    DegenerateModelError,
    History,
    PreconditionError,
    RateSchedule,
)
from cpb.continuous import (
    ContinuousModel,
    convergence_study,
    discretize,
    intensity,
    intensity_path,
    log_likelihood_given_changepoint,
    posterior_survival,
    sample_path,
)
from cpb.cli import ConfigError, load_config
from cpb.discrete import posterior_survival as discrete_posterior

GOLDEN_CFG = Path(__file__).resolve().parent / "golden" / "cfg"


def closed_form_model():
    # unit-rate switch law, rate 1 before and 2 after, any count
    return ContinuousModel(RateSchedule((1.0,), (2.0,)), ChangePointLaw.exponential(1.0))


def grid_history(slots, m):
    """A history without arrivals whose horizon snaps to the given slot count."""
    return History((slots + 0.5) / m)


def reference_likelihood(model, h, u, extra_cuts=()):
    """Likelihood rebuilt in the test from scratch, with arbitrary extra cuts.

    Splitting the integrated-rate sum at additional interior points must
    never change the value; passing random cuts exercises exactly that.
    """
    t = h.horizon
    value = 1.0
    for j, arr in enumerate(h.arrivals):
        value *= model.rates.post(j) if arr >= u else model.rates.pre(j)
    cuts = sorted({0.0, t, *h.arrivals, *(c for c in extra_cuts if 0.0 < c < t),
                   *((u,) if 0.0 < u < t else ())})
    exponent = 0.0
    for a, b in zip(cuts, cuts[1:]):
        count = sum(1 for x in h.arrivals if x <= a)
        rate = model.rates.post(count) if a >= u else model.rates.pre(count)
        exponent += rate * (b - a)
    return value * math.exp(-exponent)


class TestLikelihood:
    def test_equal_rates_homogeneous(self):
        model = ContinuousModel(RateSchedule((1.5,), (1.5,)), ChangePointLaw.exponential(1.0))
        h = History(2.0, (0.5, 1.2, 1.9))
        expected = 1.5**3 * math.exp(-1.5 * 2.0)
        for u in (0.0, 0.7, 1.9, 5.0, math.inf):
            assert math.exp(log_likelihood_given_changepoint(model, h, u)) == pytest.approx(expected, rel=1e-12)

    def test_empty_history_two_segments(self):
        model = ContinuousModel(RateSchedule((0.7,), (1.9,)), ChangePointLaw.exponential(1.0))
        h = History(3.0)
        u = 1.25
        assert math.exp(log_likelihood_given_changepoint(model, h, u)) == pytest.approx(
            math.exp(-0.7 * u - 1.9 * (3.0 - u)), rel=1e-12
        )

    def test_unit_window_closed_form(self):
        model = closed_form_model()
        value = math.exp(log_likelihood_given_changepoint(model, History(1.0), 0.5))
        assert value == pytest.approx(math.exp(0.5 - 2.0), rel=1e-13)

    def test_split_invariance(self):
        model = ContinuousModel(
            RateSchedule((0.5, 1.0, 0.8), (1.5, 2.5, 2.0)), ChangePointLaw.exponential(1.0)
        )
        h = History(2.0, (0.4, 1.1, 1.7))
        rng = np.random.default_rng(2)
        for u in (0.0, 0.2, 0.4, 0.9, 1.1, 1.5, 2.0, math.inf):
            base = reference_likelihood(model, h, u)
            for _ in range(5):
                cuts = rng.uniform(0.0, 2.0, size=4)
                assert reference_likelihood(model, h, u, cuts) == pytest.approx(base, rel=1e-12)
            assert math.exp(log_likelihood_given_changepoint(model, h, u)) == pytest.approx(base, rel=1e-12)

    def test_increasing_in_u_for_empty_history(self):
        model = ContinuousModel(RateSchedule((0.6,), (2.2,)), ChangePointLaw.exponential(1.0))
        h = History(1.5)
        values = [math.exp(log_likelihood_given_changepoint(model, h, u)) for u in np.linspace(0.01, 1.49, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_boundary_arrival_admitted(self):
        model = closed_form_model()
        h = History(1.0, (1.0,))
        assert math.exp(log_likelihood_given_changepoint(model, h, math.inf)) == pytest.approx(
            1.0 * math.exp(-1.0), rel=1e-12
        )

    def test_arrival_past_a_zero_tail_is_impossible(self):
        # a zero tail halts the process after two arrivals: a third has rate 0
        model = ContinuousModel(RateSchedule((1.0, 1.0), (2.0, 2.0), TAIL_ZERO),
                                ChangePointLaw.exponential(1.0))
        h = History(2.0, (0.5, 1.0, 2.0))
        for u in (0.0, 0.7, math.inf):
            assert log_likelihood_given_changepoint(model, h, u) == -math.inf


class TestPosterior:
    def test_unit_window_half(self):
        # with rates 1 before and 2 after and a unit exponential switch law,
        # the no-arrival window of length 1 splits the mass exactly in half:
        # the change integral is exp(-2) and the survival mass exp(-1)*exp(-1)
        model = closed_form_model()
        assert posterior_survival(model, History(1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_unit_window_half_against_quadrature_oracle(self):
        mp.mp.dps = 30
        num = mp.e**-2
        den = mp.quad(lambda u: mp.e ** (-u) * mp.e ** (u - 2.0), [0, 1]) + num
        assert posterior_survival(closed_form_model(), History(1.0)) == pytest.approx(
            float(num / den), abs=1e-13
        )

    def test_equal_rates_posterior_is_prior(self):
        laws = [
            ChangePointLaw.exponential(0.8),
            ChangePointLaw.weibull(1.4, 1.2),
            ChangePointLaw.table([(0.5, 0.3), (2.5, 1.0)]),
        ]
        h = History(1.7, (0.3, 0.9))
        for law in laws:
            model = ContinuousModel(RateSchedule((1.1, 0.7), (1.1, 0.7)), law)
            assert posterior_survival(model, h) == pytest.approx(law.sf(1.7), rel=1e-9)

    def test_point_mass_beyond_horizon(self):
        model = ContinuousModel(RateSchedule((1.0,), (3.0,)), ChangePointLaw.point_mass(9.0))
        assert posterior_survival(model, History(2.0, (0.5,))) == 1.0
        assert intensity(model, History(2.0, (0.5,))).intensity == pytest.approx(1.0)

    def test_point_mass_before_horizon(self):
        model = ContinuousModel(RateSchedule((1.0,), (3.0,)), ChangePointLaw.point_mass(0.5))
        assert posterior_survival(model, History(2.0)) == 0.0

    def test_weibull_route_matches_exponential_route(self):
        # shape-1 weibull is the unit family in disguise: the adaptive
        # quadrature path must agree with the per-segment closed form
        h = History(1.4, (0.3, 0.8))
        rates = RateSchedule((0.9, 1.3), (1.8, 2.4))
        p_exp = posterior_survival(ContinuousModel(rates, ChangePointLaw.exponential(1.25)), h)
        p_wei = posterior_survival(
            ContinuousModel(rates, ChangePointLaw.weibull(1.0, 1.0 / 1.25)), h
        )
        assert p_wei == pytest.approx(p_exp, rel=1e-9)

    def test_table_route_matches_exponential_route(self):
        # a fine table approximation of the exponential law converges on it
        rho = 1.0
        grid = np.linspace(0.0, 12.0, 4001)
        knots = [(float(s), float(-math.expm1(-rho * s))) for s in grid[1:]]
        knots.append((14.0, 1.0))
        law = ChangePointLaw.table(knots)
        h = History(1.0)
        p_exp = posterior_survival(closed_form_model(), h)
        p_tab = posterior_survival(ContinuousModel(RateSchedule((1.0,), (2.0,)), law), h)
        assert p_tab == pytest.approx(p_exp, abs=2e-3)

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            t = rng.uniform(0.5, 3.0)
            k = int(rng.integers(0, 4))
            arr = tuple(np.sort(rng.uniform(0.0, t, size=k)))
            pre = rng.uniform(0.3, 1.5, size=2)
            model = ContinuousModel(
                RateSchedule(tuple(pre), tuple(pre + rng.uniform(0.0, 1.5, size=2))),
                ChangePointLaw.exponential(rng.uniform(0.4, 1.5)),
            )
            res = intensity(model, History(t, arr))
            assert res.prob_after + res.prob_before == pytest.approx(1.0, abs=1e-12)
            lo = min(model.rates.pre(k), model.rates.post(k))
            hi = max(model.rates.pre(k), model.rates.post(k))
            assert lo - 1e-12 <= res.intensity <= hi + 1e-12


class TestIntensity:
    def test_equal_rates_flat(self):
        model = ContinuousModel(RateSchedule((1.2, 0.5), (1.2, 0.5)), ChangePointLaw.exponential(1.0))
        assert intensity(model, History(2.0)).intensity == pytest.approx(1.2, rel=1e-12)
        assert intensity(model, History(2.0, (1.0,))).intensity == pytest.approx(0.5, rel=1e-12)

    def test_unit_window_mixture(self):
        res = intensity(closed_form_model(), History(1.0))
        assert res.prob_before == pytest.approx(0.5, abs=1e-12)
        assert res.intensity == pytest.approx(1.5, abs=1e-12)


def _law_density(law):
    if law.family == "exponential":
        return lambda u: law.rate * math.exp(-law.rate * u)
    if law.family == "weibull":
        return stats.weibull_min(law.shape, scale=law.scale).pdf
    knots = law.knots

    def table_pdf(u):
        for (s0, g0), (s1, g1) in zip(knots, knots[1:]):
            if s0 <= u < s1:
                return (g1 - g0) / (s1 - s0)
        return 0.0

    return table_pdf


def oracle_survival(model, h):
    """Posterior survival by quadrature of the direct likelihood, segment by segment.

    Cuts the window at the arrivals and at the table knots, so every piece
    of the integrand is smooth; a point mass is evaluated where it sits.
    """
    t, law = h.horizon, model.law
    # the weibull sf, 1 - cdf, loses its digits in the tail
    sf = float(mp.exp(-(mp.mpf(t) / law.scale) ** law.shape)) if law.family == "weibull" else law.sf(t)
    no_change = sf * math.exp(log_likelihood_given_changepoint(model, h, math.inf))
    if law.family == "point-mass":
        u0 = law.location
        change = math.exp(log_likelihood_given_changepoint(model, h, u0)) if u0 <= t else 0.0
    else:
        pdf = _law_density(law)
        knots = [s for s, _ in law.knots] if law.family == "table" else []
        cuts = sorted({0.0, t, *h.arrivals, *(s for s in knots if 0.0 < s < t)})
        change = sum(
            integrate.quad(lambda u: math.exp(log_likelihood_given_changepoint(model, h, u)) * pdf(u), a, b,
                           epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for a, b in zip(cuts, cuts[1:])
        )
    return no_change / (change + no_change)


@st.composite
def forward_cases(draw):
    """Small models and histories over all four law families.

    Covers zero-tail schedules, arrivals exactly at the horizon, point
    masses on an arrival instant or on the horizon, and table laws with a
    flat stretch.
    """
    k = draw(st.integers(0, 5))
    tail = draw(st.sampled_from([TAIL_REPEAT, TAIL_ZERO]))
    # a zero tail forbids arrivals past the listed counts
    size = draw(st.integers(max(1, k) if tail == TAIL_ZERO else 1, 6))
    rate = st.floats(0.1, 5.0)
    pre = draw(st.lists(rate, min_size=size, max_size=size))
    post = draw(st.lists(rate, min_size=size, max_size=size))
    horizon = draw(st.floats(0.5, 4.0))
    cum = np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=k + 1, max_size=k + 1)))
    arrivals = [float(horizon * c / cum[-1]) for c in cum[:k]]
    if arrivals and draw(st.booleans()):
        arrivals[-1] = horizon
    family = draw(st.sampled_from(["exponential", "weibull", "table", "point-mass"]))
    if family == "exponential":
        law = ChangePointLaw.exponential(draw(st.floats(0.1, 3.0)))
    elif family == "weibull":
        law = ChangePointLaw.weibull(draw(st.floats(0.8, 3.0)), draw(st.floats(0.3, 3.0)))
    elif family == "point-mass":
        location = draw(st.sampled_from([*arrivals, horizon, draw(st.floats(0.01, 2 * horizon))]))
        law = ChangePointLaw.point_mass(location)
    else:
        times = np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=2, max_size=5)))
        steps = draw(st.lists(st.floats(0.05, 1.0), min_size=len(times), max_size=len(times)))
        steps[draw(st.integers(0, len(steps) - 2))] = 0.0  # a flat stretch
        values = np.cumsum(steps) / sum(steps)
        law = ChangePointLaw.table([(float(s), min(float(g), 1.0)) for s, g in zip(times[:-1], values)]
                                   + [(float(times[-1]), 1.0)])
    model = ContinuousModel(RateSchedule(tuple(pre), tuple(post), tail_mode=tail), law)
    return model, History(horizon, tuple(arrivals))


class TestForwardPass:
    @settings(max_examples=150, deadline=None)
    @given(forward_cases())
    def test_matches_segmentwise_oracle(self, case):
        model, h = case
        expected = oracle_survival(model, h)
        res = intensity(model, h)
        k = h.count
        assert res.prob_before == pytest.approx(expected, rel=1e-8, abs=1e-12)
        assert res.intensity == pytest.approx(
            model.rates.post(k) * (1.0 - expected) + model.rates.pre(k) * expected,
            rel=1e-8, abs=1e-12,
        )

    @settings(max_examples=60, deadline=None)
    @given(forward_cases())
    def test_path_entries_are_prefix_histories(self, case):
        model, h = case
        path = intensity_path(model, h)
        assert len(path) == h.count + 1
        for i, t_i in enumerate(h.arrivals):
            prefix = intensity(model, History(t_i, h.arrivals[: i + 1]))
            assert path[i].prob_before == pytest.approx(prefix.prob_before, rel=1e-13, abs=1e-300)
            assert path[i].intensity == pytest.approx(prefix.intensity, rel=1e-13)
        assert path[-1] == intensity(model, h)

    def test_engine_does_not_call_the_direct_likelihood(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the engine called log_likelihood_given_changepoint")

        monkeypatch.setattr(continuous_module, "log_likelihood_given_changepoint", refuse)
        model = ContinuousModel(RateSchedule((0.8, 1.0, 1.2), (2.0, 2.6, 3.2)),
                                ChangePointLaw.exponential(0.04))
        h = History(400.0, tuple(0.4 * i for i in range(1, 1001)))
        res = intensity(model, h)
        assert 0.0 <= res.prob_before <= 1.0
        assert 1.2 <= res.intensity <= 3.2


@st.composite
def weibull_cases(draw):
    """Weibull laws, shape 0.3 to 8 and scale 0.1 to 10, with up to 40 arrivals.

    The horizon keeps (horizon / scale)^shape below 30, and the rates keep the
    direct log likelihood, which ``oracle_survival`` exponentiates unshifted,
    within 500 of 0 at every switch time, so the oracle neither underflows
    nor overflows.
    """
    shape, scale = draw(st.floats(0.3, 8.0)), draw(st.floats(0.1, 10.0))
    horizon = scale * draw(st.floats(0.05, min(30.0 ** (1.0 / shape), 50.0)))
    k = draw(st.integers(0, 40))
    size = draw(st.integers(1, 3))
    # rates of about k / horizon arrivals per unit time, either regime faster
    rate = st.floats(0.2, 5.0).map(lambda r: r * (k + 1) / horizon)
    pre = draw(st.lists(rate, min_size=size, max_size=size))
    post = draw(st.lists(rate, min_size=size, max_size=size))
    cum = np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=k + 1, max_size=k + 1)))
    arrivals = tuple(float(horizon * c / cum[-1]) for c in cum[:k])
    model = ContinuousModel(RateSchedule(tuple(pre), tuple(post)), ChangePointLaw.weibull(shape, scale))
    h = History(horizon, arrivals)
    switch_times = (0.0, *arrivals, horizon, math.inf)
    assume(all(abs(log_likelihood_given_changepoint(model, h, u)) < 500.0 for u in switch_times))
    return model, h


@settings(max_examples=30, deadline=None)
@given(weibull_cases())
def test_weibull_posterior_matches_segmentwise_oracle(case):
    model, h = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = intensity(model, h)
    expected = oracle_survival(model, h)
    assert res.prob_before == pytest.approx(expected, rel=1e-9)
    assert res.prob_after == pytest.approx(1.0 - expected, rel=1e-9)


@st.composite
def extreme_cases(draw):
    """Every continuous family at extremes: rates 10^U(-8, 8), horizons
    10^U(-3, 3), up to 300 arrivals (the last one on the horizon at times),
    weibull shapes 0.1 to 50, tables with a flat stretch and point masses
    anywhere in [1e-9, 2] horizons."""
    horizon = 10.0 ** draw(st.floats(-3.0, 3.0))
    size = draw(st.integers(1, 3))
    rate = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)
    pre, post = (tuple(draw(st.lists(rate, min_size=size, max_size=size))) for _ in range(2))
    family = draw(st.sampled_from(["exponential", "weibull", "point-mass", "table"]))
    if family == "exponential":
        law = ChangePointLaw.exponential(10.0 ** draw(st.floats(-3.0, 3.0)) / horizon)
    elif family == "weibull":
        law = ChangePointLaw.weibull(draw(st.floats(0.1, 50.0)), horizon * 10.0 ** draw(st.floats(-3.0, 3.0)))
    elif family == "point-mass":
        law = ChangePointLaw.point_mass(horizon * draw(st.floats(1e-9, 2.0)))
    else:
        s1, s2, s3 = np.cumsum(draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))) * horizon
        law = ChangePointLaw.table([(s1, 0.4), (s2, 0.4), (s3, 1.0)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrivals = sorted({t for t in rng.uniform(0.0, horizon, draw(st.integers(0, 300))).tolist() if t > 0.0})
    if arrivals and draw(st.booleans()):
        arrivals[-1] = horizon
    return ContinuousModel(RateSchedule(pre, post), law), History(horizon, tuple(arrivals))


@settings(max_examples=200, deadline=None)
@given(extreme_cases())
@pytest.mark.filterwarnings("error")
def test_intensity_path_at_extremes(case):
    # no warning, a finite path with probabilities in [0, 1], and the
    # intensity between the two rates at k, up to the rounding of the mixture
    model, h = case
    path = intensity_path(model, h)
    for res in path:
        assert all(map(math.isfinite, (res.prob_before, res.prob_after, res.intensity)))
        assert 0.0 <= res.prob_before <= 1.0
    assert path[-1] == intensity(model, h)
    pre, post = model.rates.pre(h.count), model.rates.post(h.count)
    assert min(pre, post) * (1 - 1e-15) <= path[-1].intensity <= max(pre, post) * (1 + 1e-15)


def test_gauss_kronrod_constants_integrate_monomials():
    # on [0, 1] the 21-point Kronrod rule is exact to degree 31 and its
    # 10-point Gauss rule to degree 19, so a wrong digit in a node or weight shows
    kronrod, difference = weibull_module._GK_WEIGHTS
    for degree in range(32):
        powers = weibull_module._GK_NODES[:, 0] ** degree
        assert abs(kronrod @ powers - 1.0 / (degree + 1)) < 1e-14, degree
        if degree <= 19:
            assert abs((kronrod - difference) @ powers - 1.0 / (degree + 1)) < 1e-14, degree


K = continuous_module._ARRAY_PASS_ARRIVALS
FAMILIES = ("exponential", "weibull", "table", "point-mass", "flat")


def long_case(family, k, seed=0):
    """A k-arrival history sampled from a model whose switch falls near the
    middle of its window, with post-change rates 5% above the pre-change
    ones: the posterior stays undecided over many arrivals.  "flat" is the
    exponential law whose rate is post - pre, so that every stretch's
    integrand is flat (the |d| < 1e-7 branch of the closed form)."""
    if family == "flat":
        model = ContinuousModel(RateSchedule((1.0,), (2.0,)), ChangePointLaw.exponential(1.0))
        arrivals = sample_path(model, max_arrivals=k, seed=seed).arrival_times
        return model, History(arrivals[-1] + 0.5, arrivals)
    rates = RateSchedule((0.8, 1.0, 1.2), (0.84, 1.05, 1.26))
    span = k / 1.2  # about the window of k arrivals
    laws = {
        "exponential": ChangePointLaw.exponential(2.0 / span),
        "weibull": ChangePointLaw.weibull(1.5, span / 2),
        "table": ChangePointLaw.table([(span / 8, 0.1), (span / 3, 0.3), (span / 3 * 2, 0.7), (span * 4, 1.0)]),
        "point-mass": ChangePointLaw.point_mass(span / 2),
    }
    model = ContinuousModel(rates, laws[family])
    arrivals = sample_path(model, max_arrivals=k, seed=seed).arrival_times
    return model, History(arrivals[-1] + 0.5, arrivals)


PASSES = {"array": lambda m, h: continuous_module._array_path(m, h),
          "loop": lambda m, h: continuous_module._loop_paths([(m, h)])[0]}


def force_pass(patch, name):
    """Run every forward pass on the named pass, whatever the arrival count."""
    one = PASSES[name]
    patch.setattr(continuous_module, "_forward_paths", lambda pairs, whole=True: [one(m, h) for m, h in pairs])


@pytest.mark.parametrize("k", [K - 1, K, K + 1, 1000, 10_000])
@pytest.mark.parametrize("family", FAMILIES)
def test_array_pass_matches_the_loop_across_the_threshold(family, k, monkeypatch):
    # the instants and log_stay keep their bits; log_change differs by the
    # closed forms' and the fold's rounding, within 1e-12 of its size, and
    # the posterior and intensity at every prefix within 1e-9.  None of
    # these histories sends the array pass back to the loop
    model, h = long_case(family, k)
    assert h.count == k
    loop = continuous_module._loop_paths([(model, h)])[0]
    with monkeypatch.context() as patch:
        patch.setattr(continuous_module, "_loop_paths", lambda pairs: pytest.fail("the array pass fell back"))
        array = continuous_module._array_path(model, h)
    assert [(t, stay) for t, _, stay in array] == [(t, stay) for t, _, stay in loop]
    for (_, got, _), (_, want, _) in zip(array, loop):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    paths = []
    for name in PASSES:
        with monkeypatch.context() as patch:
            force_pass(patch, name)
            paths.append(intensity_path(model, h))
    fast, slow = paths
    assert len(fast) == len(slow) == k + 1
    for got, want in zip(fast, slow):
        for field in ("prob_before", "prob_after", "intensity"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9, abs=1e-300)
    # the dispatch: from K arrivals on the array pass, below it the loop
    expected = (array if k >= K else loop)[-1]
    assert continuous_module._forward_paths([(model, h)])[0][-1] == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_array_stretches_keep_the_loop_bits(family):
    # a, b, la, lb, slope, step and log_stay are the loop's, also on a
    # zero tail (logs of -inf past the listed counts) and on a schedule
    # that lists more counts than the history reaches
    model, h = long_case(family, 3 * K)
    k = h.count
    for rates in (model.rates, RateSchedule((0.8, 1.0, 1.2), (0.84, 1.05, 1.26), TAIL_ZERO),
                  RateSchedule(np.linspace(0.5, 2.0, 5 * K), np.linspace(1.0, 3.0, 5 * K))):
        case = ContinuousModel(rates, model.law)
        stretches, trail = continuous_module._stretches(case, h)
        *columns, step, log_stay = continuous_module._array_stretches(case, h)
        for i, column in enumerate(columns):
            assert column[:k + 1].tolist() == [s[i] for s in stretches]
        assert step[:k + 1].tolist() == [step for _, step, _ in trail]
        assert log_stay[1:k + 2].tolist() == [stay for _, _, stay in trail]


def degenerate_cases():
    """Long histories with degenerate stretches: an arrival on the horizon
    (an empty last stretch), arrivals one float step apart (History refuses
    exact ties), a post-change rate whose product with a width overflows
    (la = -inf, a step of -inf), a pre-change rate whose products sum past
    the float range (log_stay = -inf), and a zero tail that the history
    overruns."""
    arrivals = [0.5 * (i + 1) for i in range(2 * K)]
    near = list(arrivals)
    for i in range(0, 2 * K, 4):
        near[i + 1] = math.nextafter(near[i], math.inf)
    rates = RateSchedule((1.0, 1.5), (2.0, 3.0))
    for family_law in (ChangePointLaw.exponential(0.1), ChangePointLaw.weibull(1.5, 8.0),
                       ChangePointLaw.point_mass(4.0), ChangePointLaw.table([(4.0, 0.5), (40.0, 1.0)])):
        yield ContinuousModel(rates, family_law), History(arrivals[-1], arrivals)
        yield ContinuousModel(rates, family_law), History(near[-1] + 1.0, near)
        yield ContinuousModel(RateSchedule((1.0, 1.5), (2.0, 1e308)), family_law), History(40.0, arrivals)
        yield ContinuousModel(RateSchedule((1.0, 1e308), (2.0, 3.0)), family_law), History(40.0, arrivals)
        yield ContinuousModel(RateSchedule((1.0,) * K, (2.0,) * K, TAIL_ZERO), family_law), History(40.0, arrivals)


@pytest.mark.parametrize("case", list(degenerate_cases()))
def test_degenerate_stretches_give_the_loop_result(case, monkeypatch):
    # the same finite survival from both passes, or from both the same
    # DegenerateModelError.  The array pass warns on none of them; the
    # loop's weibull rule warns (overflow in add) where la nears -1.8e308,
    # and its warnings are only recorded
    model, h = case
    outcomes = []
    for name in PASSES:
        with monkeypatch.context() as patch, warnings.catch_warnings(record=name == "loop"):
            force_pass(patch, name)
            warnings.simplefilter("error" if name == "array" else "always")
            try:
                outcomes.append(posterior_survival(model, h))
            except DegenerateModelError as exc:
                outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
    else:
        assert math.isfinite(got) and got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_sweeps_and_goldens_stay_on_the_loop():
    # the theorem1 sweeps draw at most MAX_COUNT arrivals, and every
    # continuous golden config has fewer than K: their bytes come from the loop
    assert K > verify_module.MAX_COUNT
    counts = []
    for path in sorted(GOLDEN_CFG.glob("*.cfg")):
        try:
            config = load_config(str(path))
        except ConfigError:
            continue
        if config.kind == "continuous" and config.history is not None:
            counts.append(config.history.count)
    assert counts and K > max(counts)


class TestSamplePath:
    def test_reproducible(self):
        model = closed_form_model()
        a = sample_path(model, horizon=5.0, seed=4)
        b = sample_path(model, horizon=5.0, seed=4)
        assert a == b

    def test_numpy_integer_seed_is_kept(self):
        model = closed_form_model()
        a = sample_path(model, horizon=5.0, seed=np.int64(4))
        assert a.seed == 4 and type(a.seed) is int
        assert a == sample_path(model, horizon=5.0, seed=4)
        assert sample_path(model, horizon=5.0, seed=np.random.default_rng(4)).seed is None

    def test_tuple_seed_draws_like_its_generator(self):
        # a tuple seeds a generator of its own, which is not rewound: same path
        model = closed_form_model()
        for entropy in ((7, 0), (7, 1), (3, 2**40)):
            path = sample_path(model, horizon=40.0, seed=entropy)
            assert path == sample_path(model, horizon=40.0, seed=np.random.default_rng(entropy))
            assert path.seed is None and len(path.arrival_times) > 64

    def test_repeat_tail_needs_bound(self):
        with pytest.raises(PreconditionError):
            sample_path(closed_form_model())

    def test_zero_tail_halts(self):
        model = ContinuousModel(
            RateSchedule((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), tail_mode="zero"),
            ChangePointLaw.exponential(1.0),
        )
        for seed in range(50):
            path = sample_path(model, seed=seed)
            assert len(path.arrival_times) <= 3

    def test_immediate_switch_is_pure_birth_post(self):
        # switch at (virtually) zero: first interarrival is exponential with
        # the post-change rate
        model = ContinuousModel(
            RateSchedule((0.1, 0.1), (2.0, 5.0)), ChangePointLaw.point_mass(1e-12)
        )
        rng = np.random.default_rng(21)
        firsts = []
        for _ in range(10_000):
            path = sample_path(model, horizon=50.0, seed=rng)
            if path.arrival_times:
                firsts.append(path.arrival_times[0])
        res = stats.kstest(firsts, lambda x: -np.expm1(-2.0 * np.asarray(x)))
        assert res.pvalue > 0.01

    def test_switch_beyond_horizon_is_pure_birth_pre(self):
        model = ContinuousModel(
            RateSchedule((1.5, 1.5), (9.0, 9.0)), ChangePointLaw.point_mass(1e9)
        )
        rng = np.random.default_rng(22)
        firsts = []
        for _ in range(10_000):
            path = sample_path(model, horizon=30.0, seed=rng)
            if path.arrival_times:
                firsts.append(path.arrival_times[0])
        res = stats.kstest(firsts, lambda x: -np.expm1(-1.5 * np.asarray(x)))
        assert res.pvalue > 0.01

    def test_rejection_estimate_matches_binned_posterior(self):
        # keep one-arrival paths whose arrival lands in a narrow bin and the
        # second arrival stays out; the survival frequency must match the
        # bin-averaged posterior computed by direct integration
        model = ContinuousModel(RateSchedule((0.8, 0.6), (2.4, 2.0)), ChangePointLaw.exponential(0.7))
        t, lo, hi = 1.2, 0.45, 0.6

        def no_change_mass(t1):
            h = History(t, (t1,))
            return model.law.sf(t) * math.exp(log_likelihood_given_changepoint(model, h, math.inf))

        def total_mass(t1):
            h = History(t, (t1,))
            p = posterior_survival(model, h)
            return no_change_mass(t1) / p

        num, _ = integrate.quad(no_change_mass, lo, hi)
        den, _ = integrate.quad(total_mass, lo, hi)
        reference = num / den

        rng = np.random.default_rng(31)
        kept = survived = 0
        for _ in range(40_000):
            path = sample_path(model, horizon=t, seed=rng)
            ts_in = path.arrival_times
            if len(ts_in) == 1 and lo <= ts_in[0] <= hi:
                kept += 1
                survived += path.change_time > t
        estimate = survived / kept
        sigma = math.sqrt(reference * (1 - reference) / kept)
        assert abs(estimate - reference) <= 3 * sigma


class TestDiscretize:
    def test_rates_divide(self):
        disc, _ = discretize(closed_form_model(), History(1.0), 10)
        assert disc.rates.pre(0) == pytest.approx(0.1)
        assert disc.rates.post(0) == pytest.approx(0.2)

    def test_exponential_cell_probability(self):
        disc, _ = discretize(closed_form_model(), History(1.0), 16)
        expected = -math.expm1(-1.0 / 16)
        for j in (1, 2, 50):
            assert disc.law.hazard(j) == pytest.approx(expected, rel=1e-14)

    def test_too_small_grid_rejected(self):
        with pytest.raises(PreconditionError, match="too small"):
            discretize(closed_form_model(), History(1.0), 2)

    # a float is refused even when whole, as a slot count is
    @pytest.mark.parametrize("m", [2.5, 16.0])
    def test_float_grid_factor_refused(self, m):
        with pytest.raises(PreconditionError, match=f"^grid factor must be an integer, got {m}$"):
            discretize(closed_form_model(), History(1.0, (0.5,)), m)

    def test_numpy_integer_grid_factor_accepted(self):
        model = ContinuousModel(RateSchedule((1.0,), (2.0,)), ChangePointLaw.weibull(1.3, 1.0))
        h = History(1.0, (0.5,))
        disc, snapped = discretize(model, h, np.int64(16))
        ref, ref_snapped = discretize(model, h, 16)
        assert snapped == ref_snapped
        assert disc.rates == ref.rates and disc.law.values == ref.law.values

    def test_non_memoryless_cells_tabulated_to_the_horizon(self):
        model = ContinuousModel(RateSchedule((1.0,), (2.0,)), ChangePointLaw.weibull(1.3, 1.0))
        disc, snapped = discretize(model, grid_history(32, 16), 16)
        assert snapped.horizon_slot == len(disc.law.values) == 32
        # tabulated cells must match the conditional mass of each cell
        law = model.law
        for j in (1, 7, 32):
            expected = (law.sf((j - 1) / 16) - law.sf(j / 16)) / law.sf((j - 1) / 16)
            assert disc.law.hazard(j) == pytest.approx(expected, rel=1e-12)

    def test_point_mass_not_representable(self):
        model = ContinuousModel(RateSchedule((1.0,), (2.0,)), ChangePointLaw.point_mass(0.5))
        with pytest.raises(PreconditionError):
            discretize(model, grid_history(16, 16), 16)

    def test_weibull_tail_cells_representable(self):
        # sf as 1 - cdf read 0.0 from u = 6.25 on, which refused cell 25
        # (u in (6, 6.25]) with switch probability 1.0
        model = ContinuousModel(RateSchedule((1.0,), (2.0,)), ChangePointLaw.weibull(2.0, 1.0))
        disc, _ = discretize(model, grid_history(40, 4), 4)
        assert disc.law.hazard(25) == pytest.approx(-math.expm1(-3.0625), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_weibull_power_past_float_range_refused_quietly(self):
        # 2**1000 is finite and refuses cell 2; 3**1000 overflows to inf and
        # inf - inf is nan from cell 4 on, both in the same block
        model = ContinuousModel(RateSchedule((0.1,), (0.2,)), ChangePointLaw.weibull(1000.0, 1.0))
        with pytest.raises(PreconditionError, match="^cell 2 has switch probability 1.0;"):
            discretize(model, grid_history(10, 1), 1)

    # each refused at its first bad cell, before any later block is tabulated
    @pytest.mark.parametrize("cfg, m, message", [
        # (1/m)**50 underflows to 0.0 here, so cell 1 has no mass, as 1 - sf read it
        ("weibull-steep.cfg", 2**22, "cell 1 has switch probability 0.0"),
        # cell 1's mass (1/16)**50 = 6e-61 is kept; 1 - sf read it as 0.0
        ("weibull-steep.cfg", 16, "cell 18 has switch probability 1.0"),
        ("weibull-steep.cfg", 1000, "cell 1146 has switch probability 1.0"),
        ("point-mass.cfg", 64, "cell 1 has switch probability 0.0"),
        ("table.cfg", 64, "cell 33 has switch probability 0.0"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_refused_law_stops_at_first_bad_cell(self, cfg, m, message):
        model = load_config(GOLDEN_CFG / cfg).continuous_model()
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError) as err:
                discretize(model, grid_history(10**9, m), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"{message}; law not representable on this grid"
        assert peak < 50e6


def per_cell_hazards(law, m, slots):
    """The per-cell loop that discretize ran before ``cell_hazards``: the
    cell hazards up to the first refused cell, with each cell's survival at
    its right edge, and the refusal as (cell, probability), or None."""
    cells, prev_sf = [], 1.0
    for j in range(1, slots + 1):
        sf = law.sf(j / m)
        haz = (prev_sf - sf) / prev_sf
        if not 0.0 < haz < 1.0:
            return cells, (j, haz)
        cells.append((haz, sf))
        prev_sf = sf
    return cells, None


@st.composite
def table_laws(draw):
    """Table laws of 1-5 knots, flat stretches included."""
    size = draw(st.integers(1, 5))
    times = np.cumsum(draw(st.lists(st.floats(0.05, 3.0), min_size=size, max_size=size)))
    levels = sorted(draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7]) | st.floats(0.0, 1.0),
                                  min_size=size - 1, max_size=size - 1))) + [1.0]
    return ChangePointLaw.table(tuple(zip(times.tolist(), levels)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(table_laws(), st.floats(0.01, 5.0).map(ChangePointLaw.point_mass)),
       st.integers(1, 64), st.integers(1, 300))
def test_mapped_cell_hazards_keep_the_loop_bits(law, m, slots):
    cells, refusal = per_cell_hazards(law, m, slots)
    model = ContinuousModel(RateSchedule((0.1,), (0.2,)), law)
    if refusal is None:
        disc, _ = discretize(model, grid_history(slots, m), m)
        assert disc.law.values == tuple(h for h, _ in cells)
    else:
        with pytest.raises(PreconditionError) as err:
            discretize(model, grid_history(slots, m), m)
        assert str(err.value).startswith(f"cell {refusal[0]} has switch probability {refusal[1]};")


@settings(max_examples=200, deadline=None)
@given(st.floats(0.3, 8.0), st.floats(0.1, 10.0), st.integers(1, 200), st.integers(1, 400))
@pytest.mark.filterwarnings("error")
def test_weibull_cell_hazards_match_the_loop(shape, scale, m, slots):
    # the loop's (prev_sf - sf) / prev_sf loses about 2e-16 / h of its
    # value to cancellation, and a subnormal sf most of its digits, so the
    # two agree to 1e-12 where h >= 1e-3 and sf is a normal float
    law = ChangePointLaw.weibull(shape, scale)
    cells, _ = per_cell_hazards(law, m, slots)
    hazards = law.cell_hazards(np.arange(slots + 1) / m)
    assert hazards.shape == (slots,)
    for got, (haz, sf) in zip(hazards.tolist(), cells):
        if haz >= 1e-3 and sf >= sys.float_info.min:
            assert got == pytest.approx(haz, rel=1e-12)


class TestSnapHistory:
    # rates below 1 and a memoryless law fit every grid, so only the snapping can refuse
    model = ContinuousModel(RateSchedule((0.1,), (0.2,)), ChangePointLaw.exponential(1.0))

    def snap(self, h, m):
        return discretize(self.model, h, m)[1]

    def test_floor_semantics(self):
        snapped = self.snap(History(1.0, (0.26, 0.51)), 4)
        assert snapped.horizon_slot == 4
        assert snapped.arrival_slots == (1, 2)

    def test_collision_rejected(self):
        with pytest.raises(PreconditionError, match="collapses two arrivals onto one slot"):
            self.snap(History(1.0, (0.26, 0.27)), 4)

    def test_slot_zero_rejected(self):
        with pytest.raises(PreconditionError, match="snaps an arrival to slot 0"):
            self.snap(History(1.0, (0.1,)), 4)

    def test_horizon_slot_zero_rejected(self):
        with pytest.raises(PreconditionError, match="snaps the horizon to slot 0"):
            self.snap(History(0.5), 1)

    @settings(max_examples=300, deadline=None)
    @given(
        horizon=st.floats(1e-3, 1e3),
        fractions=st.lists(st.floats(1e-9, 1.0), max_size=8, unique=True),
        m=st.integers(1, 10**6),
    )
    def test_arrival_slots_stay_within_horizon_slot(self, horizon, fractions, m):
        # fraction 1 puts an arrival exactly at the horizon
        h = History(horizon, tuple(sorted({horizon * f for f in (*fractions, 1.0)})))
        try:
            snapped = self.snap(h, m)
        except PreconditionError:
            return
        assert snapped.arrival_slots[-1] <= snapped.horizon_slot


class TestConvergence:
    def test_unit_window_approaches_half(self):
        rows = convergence_study(closed_form_model(), History(1.0), [32, 64, 128, 256])
        errors = [r.error for r in rows]
        assert all(r.admissible for r in rows)
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert rows[-1].discrete_value == pytest.approx(0.5, abs=5e-3)

    def test_equal_rates_prior_gap(self):
        model = ContinuousModel(RateSchedule((1.0,), (1.0,)), ChangePointLaw.exponential(0.9))
        rows = convergence_study(model, History(1.0, (0.5,)), [64, 256])
        for row in rows:
            # the only gap left is between the grid prior and the smooth one
            expected = abs(
                math.exp(row.m * math.log1p(math.expm1(-0.9 / row.m))) - math.exp(-0.9)
            )
            assert row.error == pytest.approx(expected, abs=1e-12)

    def test_inadmissible_resolution_reported(self):
        rows = convergence_study(closed_form_model(), History(1.0, (0.3, 0.4)), [4, 64])
        assert rows[0].admissible is False and rows[0].error is None
        assert rows[1].admissible is True

    @pytest.mark.parametrize("m", [0, -3])
    def test_factor_below_one_is_rejected(self, m):
        # no resolution at all, not an inadmissible row
        with pytest.raises(PreconditionError, match=f"^grid factor must be >= 1, got {m}$"):
            convergence_study(closed_form_model(), History(1.0, (0.5,)), [64, m])

    @pytest.mark.parametrize("m", [2.5, 16.0])
    def test_float_factor_is_rejected(self, m):
        # 2.5 is not truncated to a grid of 2
        with pytest.raises(PreconditionError, match=f"^grid factor must be an integer, got {m}$"):
            convergence_study(closed_form_model(), History(1.0, (0.5,)), [64, m])

    def test_numpy_integer_factor_accepted(self):
        model, h = closed_form_model(), History(1.0, (0.5,))
        rows = convergence_study(model, h, [np.int64(16)])
        assert rows == convergence_study(model, h, [16])
        assert type(rows[0].m) is int

    def test_snapped_discrete_matches_direct_evaluation(self):
        model = closed_form_model()
        h = History(1.0, (0.5,))
        m = 64
        disc, snapped = discretize(model, h, m)
        row = [r for r in convergence_study(model, h, [m])][0]
        assert row.discrete_value == pytest.approx(discrete_posterior(disc, snapped), rel=1e-14)
