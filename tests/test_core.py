"""Core types: validation, the history order, conditions, shift operators."""

import itertools
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpb.core import (
    LAWS,
    ChangePointLaw,
    DiscreteHistory,
    History,
    IncomparableHistoriesError,
    InvalidScheduleError,
    RateSchedule,
    history_dominates,
    shift_operator,
    validate_rates,
)


def columns(*stretches):
    """The columns a, b, la, lb, slope of the stretches, as float arrays."""
    return [np.array(column, dtype=float) for column in zip(*stretches)]


def segment(law, a, b, la, lb, slope):
    """The segment integral of one stretch, as a batch of one."""
    return law.segment_integrals(*columns((a, b, la, lb, slope))).tolist()[0]


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

    def test_exponential_sf_keeps_the_tail(self):
        # 1 - cdf read 0.0 at 40, and was 2e-8 off in relative terms at 20
        law = ChangePointLaw.exponential(1.0)
        assert law.sf(40.0) == pytest.approx(math.exp(-40.0), rel=1e-15)
        assert law.sf(20.0) == pytest.approx(math.exp(-20.0), rel=1e-15)
        assert law.sf(0.0) == law.sf(-1.0) == 1.0

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

    def test_weibull_sf_keeps_the_tail(self):
        # 1 - cdf read 0.0 here, and 7.28306e-14 against 7.28772e-14 at 5.5
        w = ChangePointLaw.weibull(2.0, 1.0)
        assert w.sf(7.0) == pytest.approx(math.exp(-49.0), rel=1e-15)
        assert w.sf(5.5) == pytest.approx(math.exp(-30.25), rel=1e-15)

    def test_weibull_segment_past_float_range(self):
        # the integrand vanishes long before (u / scale) ** shape overflows:
        # a segment reaching that far carries the mass of its finite part,
        # and one starting beyond it carries none
        w = ChangePointLaw.weibull(50.0, 1.0)
        for a in (0.0, 0.5):
            far = segment(w, a, 2e6, -3.0, None, -1.0)
            near = segment(w, a, 3.0, -3.0, None, -1.0)
            assert far == pytest.approx(near, rel=1e-12, abs=1e-12)
        assert segment(w, 1e6, 2e6, -3.0, None, -1.0) == -math.inf

    @pytest.mark.filterwarnings("error")
    def test_weibull_segment_without_likelihood(self):
        # no likelihood at a stretch's start means no mass in it, alone or
        # in a batch, as for the closed-form laws
        w = ChangePointLaw.weibull(1.5, 1.0)
        assert segment(w, 0.5, 1.0, -math.inf, -math.inf, 1.0) == -math.inf
        stretches = (0.0, 0.5, -1.0, 0.0, 1.0), (0.5, 1.0, -math.inf, 0.0, 1.0), (1.0, 2.0, -2.0, 0.0, 1.0)
        got = w.segment_integrals(*columns(*stretches)).tolist()
        assert got[1] == -math.inf
        assert got[::2] == [segment(w, 0.0, 0.5, -1.0, 0.0, 1.0), segment(w, 1.0, 2.0, -2.0, 0.0, 1.0)]

    @pytest.mark.parametrize("make, name", [
        (ChangePointLaw.exponential, "exponential rate"),
        (lambda v: ChangePointLaw.weibull(v, 2.0), "weibull shape"),
        (lambda v: ChangePointLaw.weibull(1.5, v), "weibull scale"),
        (ChangePointLaw.point_mass, "point-mass location"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_parameter_must_be_positive_and_finite(self, make, name, value):
        # a nan once gave nan posteriors, and an infinite weibull shape an
        # OverflowError deep in the segment integral
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            make(value)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            ChangePointLaw.table([(1.0, 0.5), (2.0, 0.4), (3.0, 1.0)])  # decreasing value
        with pytest.raises(ValueError):
            ChangePointLaw.table([(1.0, 0.5), (2.0, 0.9)])  # never reaches 1
        # a last knot at inf once gave a survival of nan past the first knot
        with pytest.raises(ValueError, match="^table times must be finite, got inf$"):
            ChangePointLaw.table([(1.0, 0.5), (math.inf, 1.0)])
        with pytest.raises(ValueError, match="^table times must strictly increase, got 1.0 then nan$"):
            ChangePointLaw.table([(1.0, 0.5), (math.nan, 1.0)])
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

    @pytest.mark.parametrize("values, tail, message", [
        ((0.2, 0.0, 0.3), None, "got 0.0 at 1"),
        ((0.2, 0.3, 1.0), None, "got 1.0 at 2"),
        ((0.2, math.nan), 0.5, "got nan at 1"),
        ((0.2, 0.3), 1.5, "got 1.5 at 2"),
        ((), None, "discrete hazard needs at least one entry"),
    ])
    def test_discrete_hazard_array_like_tuple(self, values, tail, message):
        # an array is checked in numpy, a tuple value by value: the same
        # law, or the same message naming the first value out of range
        outcomes = []
        for given in (np.array(values, dtype=float), values):
            with pytest.raises(ValueError) as err:
                ChangePointLaw.discrete_hazard(given, tail)
            outcomes.append(str(err.value))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0].endswith(message)
        law = ChangePointLaw.discrete_hazard(np.array([0.25, 0.5]))
        assert law == ChangePointLaw.discrete_hazard((0.25, 0.5))
        assert all(type(v) is float for v in (*law.values, law.tail))

    def test_scaled_time(self):
        law = ChangePointLaw.exponential(1.0).scaled_time(2.0)
        assert law.rate == 0.5
        tab = ChangePointLaw.table([(1.0, 1.0)]).scaled_time(3.0)
        assert tab.knots[-1][0] == 3.0
        assert ChangePointLaw.point_mass(1.5).scaled_time(2.0) == ChangePointLaw.point_mass(3.0)

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
@pytest.mark.filterwarnings("error")
def test_weibull_first_stretch_matches_oracle(shape, sign):
    la = -3.0
    for magnitude, rel, scale in FIRST_STRETCHES:
        slope, b = sign * magnitude, rel * scale
        got = segment(ChangePointLaw.weibull(shape, scale), 0.0, b, la, la + slope * b, slope)
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
@pytest.mark.filterwarnings("error")
def test_weibull_far_first_stretch_matches_oracle(shape, slope):
    la = -3.0
    for rel in (1e13, 1e30, 1e100):
        got = segment(ChangePointLaw.weibull(shape, 1.0), 0.0, rel, la, la + slope * rel, slope)
        exact = weibull_far_stretch_oracle(shape, 1.0, rel, la, slope)
        assert abs(got - float(exact)) <= 1e-12, rel


def batch_stretches(seed):
    """(a, b, la, slope) of mapped first stretches, bisected ones, ones in u,
    steep ones and a far one."""
    rng = np.random.default_rng(seed)
    a = np.concatenate(([0.0], np.sort(rng.uniform(0.01, 10.0, 40))))
    b = a + rng.uniform(0.05, 2.0, a.size)
    la, slope = rng.uniform(-5.0, 0.0, a.size), rng.uniform(-30.0, 30.0, a.size)
    # (a, b, la, slope) of the steep stretches and of the far one
    extra = [(1.0, 6.0, -1.0, -500.0), (2.0, 12.0, -1.0, -1000.0), (3.0, 8.0, -1.0, -500.0),
             (1.5, 21.5, -1.0, -200.0), (0.0, 1e13, -1.0, 0.0)]
    return [*zip(a.tolist(), b.tolist(), la.tolist(), slope.tolist()), *extra]


@pytest.mark.parametrize("shape", [0.7, 2.0])
def test_weibull_batch_rows_do_not_depend_on_the_batch(shape):
    # a stretch's integral comes out bit for bit the same alone and among
    # others: mapped first stretches, bisected ones, and ones in u.  The
    # last stretch reaches far past the law's mass, so its panels land far
    # above its first estimate and its running total moves; the steep ones
    # before it have panels a little above their own first estimates in
    # the same rounds, and their totals must stay where they are
    a, b, la, slope = zip(*batch_stretches(3))
    law = ChangePointLaw.weibull(shape, 3.0)
    rows = list(zip(a, b, la, la, slope))
    together = law.segment_integrals(*columns(*rows)).tolist()
    alone = [segment(law, *row) for row in rows]
    assert together == alone


def test_weibull_batch_rows_do_not_depend_on_the_laws_of_the_batch():
    # one batch mixes four laws in runs of shuffled length, as the forward
    # passes of many histories hand them over, and each stretch comes out
    # bit for bit as in its own law's batch of one.  The runs hold first
    # stretches past u_max = scale 2^(1000 / shape), whose end is clamped
    # there (shape 2: 5.6e150, shape 9: 5.6e33), and one that starts past it
    from cpb import _weibull

    laws = [(0.7, 3.0), (1.3, 0.5), (2.0, 1.7), (9.0, 2.0)]
    far = {2.0: [(0.0, 1e200, -1.0, 0.0)], 9.0: [(0.0, 1e40, -1.0, -2.0), (1e35, 1e40, -1.0, 0.0)]}
    rows = [(law, row) for seed, law in enumerate(laws)
            for row in batch_stretches(seed) + far.get(law[0], [])]
    np.random.default_rng(5).shuffle(rows)
    runs = [(*law, len(list(run))) for law, run in itertools.groupby(law for law, _ in rows)]
    assert 30 < len(runs) < len(rows)
    a, b, la, slope = zip(*(row for _, row in rows))
    together = _weibull.segment_integrals(runs, a, b, la, slope).tolist()
    alone = [segment(ChangePointLaw.weibull(*law), a_i, b_i, la_i, la_i, slope_i)
             for law, (a_i, b_i, la_i, slope_i) in rows]
    assert together == alone
    assert sum(value == -math.inf for value in together) == 1


# stretches pinned with their log integrals from a dense 30-digit mpmath
# split (tests/golden/weibull_dense.py writes them), three of them with a
# peak inside the stretch
DENSE = json.loads((Path(__file__).parent / "golden" / "weibull-dense.json").read_text())


@pytest.mark.filterwarnings("error")
def test_weibull_matches_dense_oracle():
    # the rule's own bound: an error estimate below 1e-11 of the stretch's
    # integral per panel, at most 200 panels, so 2e-9 relative, which is
    # the absolute error allowed in the log
    for row in DENSE:
        law = ChangePointLaw.weibull(row["shape"], row["scale"])
        a, b, la, slope = row["a"], row["b"], row["la"], row["slope"]
        got = segment(law, a, b, la, la + slope * (b - a), slope)
        assert abs(got - float(row["log_integral"])) <= 200 * 1e-11, row


def test_weibull_panel_cap_counts_the_first_bisection(monkeypatch):
    # a stretch without break points whose first panel fails is bisected
    # into two panels, and both count toward the cap: with a cap of 3 and a
    # tolerance no panel meets, the rounds hold 1 and 2 panels (not 1, 2, 4)
    from cpb import _weibull

    rounds, integrand = [], _weibull._weibull_log_integrand

    def counting_integrand(x, offset, mapped, k):
        rounds.append(x.shape[1])
        return integrand(x, offset, mapped, k)

    monkeypatch.setattr(_weibull, "_weibull_log_integrand", counting_integrand)
    monkeypatch.setattr(_weibull, "_GK_MAX_PANELS", 3)
    monkeypatch.setattr(_weibull, "_GK_REL_TOL", 0.0)
    assert _weibull._weibull_breaks(1.5, 1.0, 1.0, 1.5, 0.0) == []
    assert segment(ChangePointLaw.weibull(1.5, 1.0), 1.0, 1.5, 0.0, 0.0, 0.0) > -math.inf
    assert rounds == [1, 2]


CONTINUOUS_LAWS = [ChangePointLaw.exponential(0.7), ChangePointLaw.weibull(1.5, 2.0),
                   ChangePointLaw.point_mass(2.0), ChangePointLaw.table([(1.0, 0.25), (3.0, 1.0)])]


def passes_errstate():
    """The ``np.errstate`` that both forward passes put around a law's numpy."""
    return np.errstate(divide="ignore", over="ignore", invalid="ignore")


@pytest.mark.parametrize("law", CONTINUOUS_LAWS, ids=lambda law: law.family)
@pytest.mark.filterwarnings("error")
def test_segment_integrals_empty_or_unlikely_stretch_is_minus_inf(law):
    # an empty stretch (a == b, here at the point mass) and one with no
    # likelihood at its start carry no mass, alone and among others
    empty, unlikely = (2.0, 2.0, -1.0, -0.5, 1.0), (1.0, 2.0, -math.inf, -0.5, 1.0)
    plain = (0.5, 2.5, -1.0, 1.0, 1.0)
    with passes_errstate():
        assert segment(law, *empty) == segment(law, *unlikely) == -math.inf
        together = law.segment_integrals(*columns(empty, plain, unlikely)).tolist()
        assert together == [-math.inf, segment(law, *plain), -math.inf]
    assert together[1] > -math.inf


def loop_integrals(law, stretches):
    """The integrals that the loop pass takes for the stretches: the law's
    ``_segment`` on each, or one batch of the weibull rule."""
    if law.family == "weibull":
        from cpb import _weibull

        a, b, la, _, slope = zip(*stretches)
        return _weibull.segment_integrals([(law.shape, law.scale, len(a))], a, b, la, slope).tolist()
    return [law._segment(*stretch) for stretch in stretches]


def test_continuous_laws_cover_every_continuous_family():
    assert sorted(law.family for law in CONTINUOUS_LAWS) == sorted(
        family for family, cls in LAWS.items() if cls.kind == "continuous")
    # the base class only refuses: it writes neither stretch method
    assert ChangePointLaw.__dict__["segment_integrals"] is ChangePointLaw.__dict__["_other_kind"]
    assert ChangePointLaw.__dict__["_segment"] is ChangePointLaw.__dict__["_other_kind"]
    with pytest.raises(ValueError, match="discrete law"):
        ChangePointLaw.discrete_hazard([0.1]).segment_integrals(*columns((0.0, 1.0, 0.0, 0.0, 0.0)))


@pytest.mark.parametrize("law", CONTINUOUS_LAWS, ids=lambda law: law.family)
@pytest.mark.filterwarnings("error")
def test_segment_integrals_on_columns_match_the_loop(law):
    # each family writes its own columns method, which gives a float array
    # that agrees with the loop pass stretch by stretch: within the
    # rounding of numpy's logs, and -inf exactly where the loop's is.  The
    # stretches: a first one, an empty one, one with la = -inf, one that
    # ends at the point mass, one across the table's last knot and a
    # falling one past it
    assert "segment_integrals" in type(law).__dict__
    stretches = [(0.0, 0.5, -1.0, -0.6, 0.8), (0.5, 0.5, -0.6, -0.6, 0.8), (0.5, 1.5, -math.inf, -0.5, 1.0),
                 (1.5, 2.0, -2.0, -1.5, 1.0), (2.0, 3.5, -1.0, -1.75, -0.5), (3.5, 9.0, -1.5, -12.5, -2.0)]
    with passes_errstate():
        got = law.segment_integrals(*columns(*stretches))
        want = loop_integrals(law, stretches)
    assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == (len(stretches),)
    assert [value == -math.inf for value in got.tolist()] == [value == -math.inf for value in want]
    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert any(value > -math.inf for value in want)


class TestHistories:
    def test_history_validation(self):
        History(5.0, (1.0, 2.0, 5.0))  # boundary arrival admitted
        with pytest.raises(ValueError):
            History(5.0, (2.0, 2.0))
        with pytest.raises(ValueError):
            History(5.0, (0.0, 1.0))
        with pytest.raises(ValueError):
            History(5.0, (1.0, 6.0))

    @pytest.mark.parametrize("arrivals, message", [
        ((1.0, math.nan), "arrivals must be numbers, got nan at index 1"),
        ((math.nan,), "arrivals must be numbers, got nan at index 0"),
        ((1.0, math.inf), "arrival inf lies beyond the horizon 5.0"),
    ])
    def test_history_refuses_non_finite_arrivals(self, arrivals, message):
        # a nan compares false both ways, so it once passed the order checks
        with pytest.raises(ValueError, match=f"^{message}$"):
            History(5.0, arrivals)

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

    @pytest.mark.parametrize("slots", [(0, 1), (2, 4, 4), (4, 2), (2, 7), (2, 7, 1), (3, 1, 9)])
    def test_discrete_history_int64_array_names_first_fault(self, slots):
        # zero, duplicate, unordered and beyond-horizon slots: the tuple's message
        with pytest.raises(ValueError) as from_tuple:
            DiscreteHistory(6, slots)
        with pytest.raises(ValueError) as from_array:
            DiscreteHistory(6, np.array(slots, dtype=np.int64))
        assert str(from_array.value) == str(from_tuple.value)

    def test_discrete_history_int64_array_cannot_wrap(self):
        # 1 then -2**63: a difference of the two wraps around to a positive
        # int64, a comparison does not
        slots = np.array([1, -2**63], dtype=np.int64)
        with pytest.raises(ValueError, match="must strictly increase, got -9223372036854775808 at index 1"):
            DiscreteHistory(6, slots)


def history_or_message(n, slots):
    try:
        return DiscreteHistory(n, slots)
    except ValueError as exc:
        return str(exc)


@st.composite
def int64_slot_arrays(draw):
    """A horizon and an int64 slot array: half of them a valid history, the
    rest anything, with zeros, duplicates, disorder, slots past the horizon
    and the ends of the int64 range."""
    n = draw(st.integers(1, 300))
    if draw(st.booleans()):
        slots = sorted(draw(st.sets(st.integers(1, n), max_size=60)))
    else:
        slots = draw(st.lists(st.one_of(st.integers(-2, n + 2),
                                        st.sampled_from([-2**63, 2**63 - 1])), max_size=12))
    return n, np.array(slots, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(int64_slot_arrays())
def test_discrete_history_from_int64_array_matches_tuple(case):
    n, array = case
    from_array = history_or_message(n, array)
    from_tuple = history_or_message(n, tuple(array.tolist()))
    if isinstance(from_tuple, str):
        assert from_array == from_tuple
        return
    assert from_array == from_tuple
    assert hash(from_array) == hash(from_tuple)
    assert all(type(s) is int for s in (from_array.horizon_slot, *from_array.arrival_slots))
    # the history's copy is its own: changing the caller's array leaves it be
    array += 1
    assert from_array == from_tuple
    for h in (from_array, from_tuple):
        copy = h._slot_array()
        assert copy.dtype == np.intp and not copy.flags.writeable
        assert copy.tolist() == list(h.arrival_slots)


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


def shift_chain(h_from: DiscreteHistory, h_to: DiscreteHistory) -> list[int]:
    """A sequence of shift indices carrying h_from onto h_to.

    Requires h_to to dominate h_from.  Works right to left: the last
    arrival is walked to its target first, which guarantees each single
    shift stays admissible.  Replaying the returned indices through
    shift_operator reproduces h_to exactly.
    """
    if not history_dominates(h_to, h_from):
        raise IncomparableHistoriesError("target history does not dominate the source")
    chain: list[int] = []
    current = list(h_from.arrival_slots)
    target = h_to.arrival_slots
    for i in range(h_from.count, 0, -1):
        while current[i - 1] < target[i - 1]:
            current[i - 1] += 1
            chain.append(i)
    return chain


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
