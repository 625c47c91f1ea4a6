"""Core types: validation, the history order, conditions, shift operators."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpb.core import (
    ChangePointLaw,
    DiscreteHistory,
    History,
    IncomparableHistoriesError,
    InvalidScheduleError,
    RateSchedule,
    history_dominates,
    shift_chain,
    shift_operator,
    validate_rates,
)


# -- schedules -------------------------------------------------------------


class TestRateSchedule:
    def test_tail_repeat(self):
        r = RateSchedule((1.0, 2.0), (3.0, 4.0))
        assert r.pre(0) == 1.0
        assert r.pre(5) == 2.0
        assert r.post(17) == 4.0

    def test_tail_zero_halts(self):
        r = RateSchedule((1.0, 2.0), (3.0, 4.0), tail_mode="zero")
        assert r.pre(1) == 2.0
        assert r.pre(2) == 0.0
        assert r.post(2) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidScheduleError):
            RateSchedule((1.0, 0.0), (1.0, 1.0))
        with pytest.raises(InvalidScheduleError):
            RateSchedule((1.0,), (-2.0,))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidScheduleError):
            RateSchedule((1.0,), (1.0, 2.0))

    def test_scaled(self):
        r = RateSchedule((1.0, 2.0), (3.0, 4.0)).scaled(0.5)
        assert r.pre_change == (0.5, 1.0)
        assert r.post_change == (1.5, 2.0)


class TestChangePointLaw:
    def test_exponential_cdf_sf(self):
        law = ChangePointLaw.exponential(2.0)
        assert law.cdf(0.0) == 0.0
        assert law.sf(1.0) == pytest.approx(math.exp(-2.0))
        assert law.ppf(law.cdf(0.7)) == pytest.approx(0.7)

    def test_weibull_matches_exponential_at_shape_one(self):
        w = ChangePointLaw.weibull(1.0, 0.5)
        e = ChangePointLaw.exponential(2.0)
        for x in (0.1, 0.9, 3.0):
            assert w.cdf(x) == pytest.approx(e.cdf(x), rel=1e-14)

    def test_weibull_past_float_range(self):
        # (x / scale) ** shape leaves the float range: no survival is left
        w = ChangePointLaw.weibull(50.0, 1.0)
        assert w.log_sf(2e6) == -math.inf
        assert w.sf(2e6) == 0.0
        assert w.cdf(2e6) == 1.0
        assert w.log_sf(1.0) == -1.0

    def test_weibull_segment_past_float_range(self):
        # the integrand vanishes long before (u / scale) ** shape overflows:
        # a segment reaching that far carries the mass of its finite part,
        # and one starting beyond it carries none
        w = ChangePointLaw.weibull(50.0, 1.0)
        for a in (0.0, 0.5):
            far = w.segment_integral(a, 2e6, -3.0, None, -1.0)
            near = w.segment_integral(a, 3.0, -3.0, None, -1.0)
            assert far == pytest.approx(near, rel=1e-12, abs=1e-12)
        assert w.segment_integral(1e6, 2e6, -3.0, None, -1.0) == -math.inf

    def test_table_validation(self):
        with pytest.raises(ValueError):
            ChangePointLaw.table([(1.0, 0.5), (2.0, 0.4), (3.0, 1.0)])  # decreasing value
        with pytest.raises(ValueError):
            ChangePointLaw.table([(1.0, 0.5), (2.0, 0.9)])  # never reaches 1
        law = ChangePointLaw.table([(1.0, 0.25), (3.0, 1.0)])
        assert law.cdf(0.5) == pytest.approx(0.125)  # implicit (0, 0) start knot
        assert law.cdf(2.0) == pytest.approx(0.625)
        assert law.cdf(10.0) == 1.0

    def test_table_survival_exact_near_last_knot(self):
        # 1 - cdf cancels near the last knot; the survival must keep its digits
        rng = np.random.default_rng(0)
        for _ in range(500):
            s1 = float(rng.uniform(0.1, 5.0))
            s2 = s1 + float(rng.uniform(0.1, 5.0))
            g1 = float(rng.uniform(0.0, 1.0))
            x = s2 - s2 * 10.0 ** float(rng.uniform(-15.0, -1.0))
            if not s1 < x < s2:
                continue
            law = ChangePointLaw.table([(s1, g1), (s2, 1.0)])
            with mp.workdps(50):
                exact = (1 - mp.mpf(g1)) * (mp.mpf(s2) - mp.mpf(x)) / (mp.mpf(s2) - mp.mpf(s1))
                sf_err = float(abs(law.sf(x) - exact) / exact)
                log_err = float(abs(law.log_sf(x) - mp.log(exact)) / abs(mp.log(exact)))
            assert sf_err < 1e-14 and log_err < 1e-14

    def test_table_cdf_at_and_between_knots(self):
        knots = [(0.5, 0.1), (1.5, 0.1), (2.0, 0.6), (4.0, 1.0)]
        law = ChangePointLaw.table(knots)
        for (s0, g0), (s1, g1) in zip([(0.0, 0.0)] + knots, knots):
            assert law.cdf(s1) == pytest.approx(g1, abs=1e-15)
            assert law.cdf(0.5 * (s0 + s1)) == pytest.approx(0.5 * (g0 + g1), abs=1e-15)

    def test_table_ppf_round_trip(self):
        law = ChangePointLaw.table([(1.0, 0.25), (2.0, 0.25), (4.0, 1.0)])
        for q in (0.1, 0.25, 0.5, 0.99):
            assert law.cdf(law.ppf(q)) == pytest.approx(q, abs=1e-12)

    def test_discrete_hazard_mass_sums_to_one(self):
        law = ChangePointLaw.discrete_hazard((0.3, 0.2), tail=0.5)
        total = sum(law.hazard(j) * law.sf(j - 1) for j in range(1, 60))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_discrete_hazard_rejects_boundary(self):
        with pytest.raises(ValueError):
            ChangePointLaw.discrete_hazard((0.0,))
        with pytest.raises(ValueError):
            ChangePointLaw.discrete_hazard((0.5,), tail=1.0)

    def test_scaled_time(self):
        law = ChangePointLaw.exponential(1.0).scaled_time(2.0)
        assert law.rate == 0.5
        tab = ChangePointLaw.table([(1.0, 1.0)]).scaled_time(3.0)
        assert tab.knots[-1][0] == 3.0

    def test_kind_dispatch(self):
        with pytest.raises(ValueError):
            ChangePointLaw.exponential(1.0).hazard(1)
        with pytest.raises(ValueError):
            ChangePointLaw.discrete_hazard((0.1,)).cdf(1.0)


def weibull_first_stretch_oracle(shape, scale, b, la, slope):
    """log of the integral of exp(la + slope u) against the weibull law over
    u in (0, b], by mpmath at 30 digits in s = (u / scale)^shape, where the
    law is e^(-s) ds.  The range is split geometrically toward both ends (by
    64 per level: 20 levels toward 0, where switch mass can sit at a tiny
    fraction of s_b; 12 toward s_b, above the working precision).  Pieces
    are integrated in order of an upper bound, and once the bound falls 80
    nats below the running total the rest are skipped."""
    with mp.workdps(30):
        shape, scale, b, la, slope = (mp.mpf(v) for v in (shape, scale, b, la, slope))
        s_b = (b / scale) ** shape
        half = s_b / 2
        pts = sorted({mp.mpf(0), s_b} | {half / mp.mpf(64) ** i for i in range(21)}
                     | {s_b - half / mp.mpf(64) ** i for i in range(13)})
        rise = slope * scale

        def log_g(s):
            return rise * s ** (1 / shape) - s

        # both terms of log_g are monotone, which bounds it on each piece
        pieces = sorted(((rise * (q if rise > 0 else p) ** (1 / shape) - p + mp.log(q - p), p, q)
                         for p, q in zip(pts, pts[1:])), reverse=True)
        total = mp.mpf(0)
        for bound, p, q in pieces:
            if total and bound < mp.log(total) - 80:
                break
            c = max(log_g(p), log_g(q))
            total += mp.exp(c) * mp.quad(lambda s: mp.exp(log_g(s) - c), [p, q])
        return la + mp.log(total)


# (|slope|, b / scale, scale) of the first stretches (0, b]: a flat slope deep
# in the law's tail, a tiny stretch, and peaks far narrower than the stretch
FIRST_STRETCHES = [(1e-3, 30.0, 100.0), (1.0, 1e-3, 0.1), (30.0, 1.0, 2.5), (1e3, 30.0, 0.1)]


# at shape 0.1, where u^(shape - 1) is nearly 1/u, quad in u was off by
# 1.2e-8 in the log on the flat-slope stretch
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("shape", [0.1, 0.3, 0.5, 0.8, 1.0, 1.5, 2.5, 4.0, 8.0])
def test_weibull_first_stretch_matches_oracle(shape, sign):
    la = -3.0
    for magnitude, rel, scale in FIRST_STRETCHES:
        slope, b = sign * magnitude, rel * scale
        got = ChangePointLaw.weibull(shape, scale).segment_integral(0.0, b, la, la + slope * b, slope)
        exact = weibull_first_stretch_oracle(shape, scale, b, la, slope)
        assert abs(got - float(exact)) <= 1e-9, (magnitude, rel, scale)


def weibull_far_stretch_oracle(shape, scale, b, la, slope):
    """log of the integral of exp(la + slope u) against the weibull law over
    u in (0, b], for b far beyond the law's mass and slope * scale <= 1, by
    mpmath at 30 digits in s = (u / scale)^shape.  The pieces double out from
    the integrand's mode in s, or from s = 1 if that is further out, to 256
    times it; beyond, the integrand is below exp(-200) and is dropped."""
    with mp.workdps(30):
        shape, scale, b, la, slope = (mp.mpf(v) for v in (shape, scale, b, la, slope))
        rise = slope * scale
        mode = (rise / shape) ** (shape / (shape - 1)) if rise > 0 else mp.mpf(0)
        top = max(mode, mp.mpf(1))
        pts = [mp.mpf(0)] + [top * mp.mpf(2) ** i for i in range(-2, 9)]
        assert pts[-1] < (b / scale) ** shape
        return la + mp.log(mp.quad(lambda s: mp.exp(rise * s ** (1 / shape) - s), pts))


# A first stretch (0, b] with b / scale from 1e13 up: b * 1e-12, where the
# stretch's search for the top starts, lies beyond the mode, and past 1e38
# (shape 8) the power (b / scale)^shape leaves the float range
@pytest.mark.parametrize("slope", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("shape", [1.5, 2.0, 3.0, 5.0, 8.0])
def test_weibull_far_first_stretch_matches_oracle(shape, slope):
    la = -3.0
    for rel in (1e13, 1e30, 1e100):
        got = ChangePointLaw.weibull(shape, 1.0).segment_integral(0.0, rel, la, la + slope * rel, slope)
        exact = weibull_far_stretch_oracle(shape, 1.0, rel, la, slope)
        assert abs(got - float(exact)) <= 1e-12, rel


class TestHistories:
    def test_history_validation(self):
        History(5.0, (1.0, 2.0, 5.0))  # boundary arrival admitted
        with pytest.raises(ValueError):
            History(5.0, (2.0, 2.0))
        with pytest.raises(ValueError):
            History(5.0, (0.0, 1.0))
        with pytest.raises(ValueError):
            History(5.0, (1.0, 6.0))

    def test_discrete_history_validation(self):
        DiscreteHistory(6, (1, 3, 6))
        with pytest.raises(ValueError):
            DiscreteHistory(6, (0, 1))
        with pytest.raises(ValueError):
            DiscreteHistory(6, (3, 3))
        with pytest.raises(ValueError):
            DiscreteHistory(6, (7,))

    def test_discrete_history_from_numpy_integers(self):
        h = DiscreteHistory(np.int64(6), np.array([1, 3, 6], dtype=np.int32))
        assert h == DiscreteHistory(6, (1, 3, 6))
        assert all(type(s) is int for s in (h.horizon_slot, *h.arrival_slots))

    @pytest.mark.parametrize("slots, message", [
        ((0, 1), "arrival slots must strictly increase, got 0 at index 0"),
        ((2, 4, 4), "arrival slots must strictly increase, got 4 at index 2"),
        ((4, 2), "arrival slots must strictly increase, got 2 at index 1"),
        ((2, 7), "arrival slot 7 beyond horizon 6"),
        ((2, 7, 1), "arrival slot 7 beyond horizon 6"),
        ((3, 1, 9), "arrival slots must strictly increase, got 1 at index 1"),
    ])
    def test_discrete_history_message_names_first_fault(self, slots, message):
        with pytest.raises(ValueError) as err:
            DiscreteHistory(6, slots)
        assert str(err.value) == message

    # a slot or horizon that is no integer is refused, not truncated
    @pytest.mark.parametrize("horizon, slots, message", [
        (5, (2.7, 4.2), "arrival slots must be integers, got 2.7 at index 0"),
        (5, (1, 3, 4.5), "arrival slots must be integers, got 4.5 at index 2"),
        (5, (1, 2.0), "arrival slots must be integers, got 2.0 at index 1"),
        (5, np.array([1.5, 3.9]), f"arrival slots must be integers, got {np.float64(1.5)!r} at index 0"),
        (5, ("3",), "arrival slots must be integers, got '3' at index 0"),
        (5.9, (1,), "horizon slot must be an integer, got 5.9"),
        (6.0, (), "horizon slot must be an integer, got 6.0"),
        (5.9, (1.5,), "arrival slots must be integers, got 1.5 at index 0"),
    ])
    def test_discrete_history_refuses_non_integers(self, horizon, slots, message):
        with pytest.raises(ValueError) as err:
            DiscreteHistory(horizon, slots)
        assert str(err.value) == message

    def test_discrete_history_accepts_bools(self):
        h = DiscreteHistory(True, (True,))
        assert h == DiscreteHistory(1, (1,))
        assert all(type(s) is int for s in (h.horizon_slot, *h.arrival_slots))


# -- the domination order ---------------------------------------------------


class TestHistoryDominates:
    def test_reflexive(self):
        h = History(5.0, (1.0, 2.0, 3.0))
        assert history_dominates(h, h)

    def test_componentwise_later(self):
        assert history_dominates(History(5.0, (2.0, 3.0, 4.0)), History(5.0, (1.0, 2.0, 3.0)))

    def test_first_component_violates(self):
        assert not history_dominates(History(5.0, (1.0, 4.0)), History(5.0, (2.0, 3.0)))

    def test_incomparable_inputs(self):
        with pytest.raises(IncomparableHistoriesError):
            history_dominates(History(5.0, (1.0,)), History(4.0, (1.0,)))
        with pytest.raises(IncomparableHistoriesError):
            history_dominates(History(5.0, (1.0,)), History(5.0, (1.0, 2.0)))
        with pytest.raises(IncomparableHistoriesError):
            history_dominates(History(5.0, (1.0,)), DiscreteHistory(5, (1,)))

    def test_discrete_variant(self):
        assert history_dominates(DiscreteHistory(6, (2, 4)), DiscreteHistory(6, (1, 4)))


@st.composite
def comparable_discrete_histories(draw, n_max=20, k_max=8):
    n = draw(st.integers(2, n_max))
    k = draw(st.integers(0, min(k_max, n)))
    slots = tuple(sorted(draw(
        st.sets(st.integers(1, n), min_size=k, max_size=k)
    )))
    return DiscreteHistory(n, slots)


@settings(max_examples=150, deadline=None)
@given(comparable_discrete_histories(), st.data())
def test_partial_order_properties(h, data):
    """Reflexive, antisymmetric, transitive on histories with shared (n, k)."""
    n, k = h.horizon_slot, h.count
    others = [
        DiscreteHistory(n, tuple(sorted(data.draw(
            st.sets(st.integers(1, n), min_size=k, max_size=k)
        ))))
        for _ in range(2)
    ]
    a, b, c = h, others[0], others[1]
    assert history_dominates(a, a)
    if history_dominates(a, b) and history_dominates(b, a):
        assert a == b
    if history_dominates(a, b) and history_dominates(b, c):
        assert history_dominates(a, c)


# -- condition report --------------------------------------------------------


class TestValidateRates:
    def test_strictly_increasing_gaps(self):
        report = validate_rates(RateSchedule((1.0, 1.0), (2.0, 3.0)))
        assert report.assu_strict and report.assu_broad and report.catania

    def test_large_second_gap(self):
        report = validate_rates(RateSchedule((1.0, 1.0), (2.0, 100.0)))
        assert report.assu_strict and report.catania

    def test_survival_odds_condition_fails(self):
        # (0.8 * 0.98) / (0.95 * 0.9) = 0.9169... < 1
        report = validate_rates(RateSchedule((0.05, 0.02), (0.2, 0.1)))
        assert report.plo is True
        assert report.ser is False

    def test_survival_odds_value(self):
        ratio = (1 - 0.2) * (1 - 0.02) / ((1 - 0.05) * (1 - 0.1))
        assert ratio == pytest.approx(0.91696, abs=1e-4)

    def test_probability_conditions_undefined_for_large_rates(self):
        report = validate_rates(RateSchedule((1.0,), (2.0,)))
        assert report.plo is None and report.ser is None

    def test_strict_implies_broad(self):
        report = validate_rates(RateSchedule((0.1, 0.2), (0.3, 0.5)))
        assert not report.assu_strict or report.assu_broad

    def test_equality_is_broad_only(self):
        report = validate_rates(RateSchedule((1.0, 1.0), (1.0, 2.0)))
        assert not report.assu_strict
        assert report.assu_broad

    def test_tied_gaps_fail_catania(self):
        report = validate_rates(RateSchedule((1.0, 1.0), (2.0, 2.0)))
        assert not report.catania


def _flags(report):
    return report.assu_strict, report.assu_broad, report.catania, report.plo, report.ser


# a few levels, so that draws tie across regimes and counts and every flag
# comes out both ways
_levels = st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[st.lists(_levels, min_size=n, max_size=n)] * 2)))
def test_default_bound_covers_repeating_tail(lists):
    # past the listed counts a repeating tail ties every condition, so any
    # larger bound reports the same flags as the default size + 1
    rates = RateSchedule(tuple(lists[0]), tuple(lists[1]))
    default = _flags(validate_rates(rates))
    assert all(_flags(validate_rates(rates, bound=b)) == default for b in range(rates.size + 1, 31))


# -- shift operators ----------------------------------------------------------


class TestShiftOperator:
    def test_gap_allows_shift(self):
        assert shift_operator(DiscreteHistory(6, (1, 3, 5)), 1) == DiscreteHistory(6, (2, 3, 5))

    def test_adjacent_blocks_shift(self):
        h = DiscreteHistory(6, (1, 2, 5))
        assert shift_operator(h, 1) == h

    def test_horizon_blocks_last(self):
        h = DiscreteHistory(6, (1, 3, 6))
        assert shift_operator(h, 3) == h

    def test_last_moves_when_room(self):
        assert shift_operator(DiscreteHistory(6, (1, 3, 5)), 3) == DiscreteHistory(6, (1, 3, 6))

    def test_index_errors(self):
        with pytest.raises(IndexError):
            shift_operator(DiscreteHistory(6, (1,)), 0)
        with pytest.raises(IndexError):
            shift_operator(DiscreteHistory(6, (1,)), 2)


class TestShiftChain:
    def test_identity(self):
        assert shift_chain(DiscreteHistory(4, (1, 2)), DiscreteHistory(4, (1, 2))) == []

    def test_single_step(self):
        chain = shift_chain(DiscreteHistory(4, (1, 2)), DiscreteHistory(4, (1, 3)))
        assert chain == [2]

    def test_two_slot_walk(self):
        src, dst = DiscreteHistory(5, (1, 2)), DiscreteHistory(5, (3, 4))
        chain = shift_chain(src, dst)
        assert chain == [2, 2, 1, 1]

    def test_incomparable(self):
        with pytest.raises(IncomparableHistoriesError):
            shift_chain(DiscreteHistory(4, (2, 3)), DiscreteHistory(4, (1, 4)))


@settings(max_examples=200, deadline=None)
@given(comparable_discrete_histories(), st.data())
def test_shift_chain_replay(h_from, data):
    """Folding the chain through the shift operator reproduces the target."""
    k = h_from.count
    target = h_from
    if k:
        for _ in range(data.draw(st.integers(0, 15))):
            target = shift_operator(target, data.draw(st.integers(1, k)))
    assert history_dominates(target, h_from)

    current = h_from
    for idx in shift_chain(h_from, target):
        moved = shift_operator(current, idx)
        assert moved != current, "chain contained an inadmissible step"
        assert history_dominates(moved, current)
        current = moved
    assert current == target


@settings(max_examples=100, deadline=None)
@given(comparable_discrete_histories())
def test_shift_output_valid_and_dominates(h):
    for i in range(1, h.count + 1):
        out = shift_operator(h, i)
        assert history_dominates(out, h)
