"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Two criteria assert facts that do not hold for the parameters they
pin down; those tests are faithful to the stated form, marked as strict
expected failures, and each is paired with a passing companion showing the
sound variant.  The analysis lives with the test that observes it.
"""

import time

import numpy as np
import pytest
from scipy import stats

from cpb.core import (
    ChangePointLaw,
    DiscreteHistory,
    History,
    RateSchedule,
    SearchFailureError,
    shift_operator,
    validate_rates,
)
from cpb.continuous import (
    ContinuousModel,
    convergence_study,
    intensity,
    posterior_survival,
    sample_path,
)
from cpb.discrete import (
    DiscreteModel,
    brute_force_posterior,
    intensity as discrete_intensity,
    posterior_survival as discrete_survival,
    verify_shift_identities,
)
from cpb.timescale import TimeScale, regularizing_gammas, transform_path, transform_rates
from cpb.verify import SweepConfig, counterexample_added_arrival, added_arrival_search, theorem1_sweep


def report(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def random_discrete_model(rng, max_idx=2):
    pre = rng.uniform(0.05, 0.6, size=max_idx)
    post = np.clip(pre + rng.uniform(0.02, 0.35, size=max_idx), None, 0.95)
    hazards = tuple(rng.uniform(0.03, 0.5, size=int(rng.integers(1, 4))))
    return DiscreteModel(
        RateSchedule(tuple(pre), tuple(post)), ChangePointLaw.discrete_hazard(hazards)
    )


def test_criterion_1_oracle_equivalence():
    """Exact engine equals the enumeration oracle on 1000 random instances."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        model = random_discrete_model(rng)
        n = int(rng.integers(1, 11))
        k = int(rng.integers(0, min(5, n) + 1))
        slots = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
        h = DiscreteHistory(n, slots)
        diff = abs(discrete_survival(model, h) - brute_force_posterior(model, h))
        worst = max(worst, diff)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed <= 60.0
    report("1", ok, f"1000 instances, max |engine - oracle| = {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed <= 60.0


def test_criterion_2_discrete_sweep():
    """Zero monotonicity violations over 10^4 discrete pairs under plo and ser."""
    start = time.monotonic()
    rep = theorem1_sweep(SweepConfig(engine="discrete", instances=10_000, seed=2024,
                                     tolerance=1e-12))
    elapsed = time.monotonic() - start
    ok = rep.passed and elapsed <= 300.0
    report("2 (discrete)", ok,
           f"{rep.pairs} pairs, {len(rep.violations)} violations, "
           f"min margins {rep.min_posterior_margin:.2e}/{rep.min_intensity_margin:.2e}, "
           f"{elapsed:.1f}s")
    assert rep.passed
    assert elapsed <= 300.0


@pytest.mark.xfail(
    strict=True,
    reason="dominance alone does not imply the monotonicity: schedules whose "
    "early-count rate gap exceeds later ones reverse it (confirmed by "
    "high-precision quadrature and by rejection sampling); the increasing-gap "
    "variant below is the hypothesis set under which the sweep is clean",
)
def test_criterion_2_continuous_sweep_as_stated():
    """Zero violations over 10^4 continuous pairs under broad dominance alone."""
    rep = theorem1_sweep(SweepConfig(engine="continuous", instances=10_000, seed=2025,
                                     tolerance=1e-9))
    report("2 (continuous, dominance only)", rep.passed,
           f"{rep.pairs} pairs, {len(rep.violations)} violations, "
           f"worst margin {min(rep.min_posterior_margin, rep.min_intensity_margin):.3e}")
    assert rep.passed


def test_criterion_2_continuous_sweep_increasing_gaps():
    """Zero violations over 10^4 continuous pairs under dominance + increasing gaps."""
    start = time.monotonic()
    rep = theorem1_sweep(SweepConfig(engine="continuous", instances=10_000, seed=2025,
                                     tolerance=1e-9, require_catania=True))
    elapsed = time.monotonic() - start
    ok = rep.passed and elapsed <= 300.0
    report("2 (continuous, increasing gaps)", ok,
           f"{rep.pairs} pairs, {len(rep.violations)} violations, "
           f"min margins {rep.min_posterior_margin:.2e}/{rep.min_intensity_margin:.2e}, "
           f"{elapsed:.1f}s")
    assert rep.passed
    assert elapsed <= 300.0


def test_criterion_3_shift_identities_and_ratio_bound():
    """Weight ratios match predictions; the reweighted-ratio bound never fails."""
    rng = np.random.default_rng(301)
    worst = 0.0
    checked = 0
    while checked < 1000:
        model = random_discrete_model(rng, max_idx=3)
        n = int(rng.integers(4, 14))
        k = int(rng.integers(1, min(4, n) + 1))
        slots = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
        h = DiscreteHistory(n, slots)
        l = int(rng.integers(1, k + 1))
        if shift_operator(h, l) == h:
            continue
        rep = verify_shift_identities(model, h, l)
        worst = max(worst, rep.max_rel_error)
        checked += 1

    m = 1_000_000
    blocks = rng.exponential(1.0, size=(4, m)) + 1e-9
    gamma = rng.exponential(1.0, size=m) + 1e-9
    alpha = gamma * (1.0 + rng.exponential(0.7, size=m))
    delta = gamma * (1.0 + rng.exponential(0.7, size=m))
    A, B, C, D = blocks
    theta = C / (A + B + C + D)
    theta_prime = C * gamma / (A * alpha + B * gamma + C * gamma + D * delta)
    failures = int(np.sum(theta < theta_prime))

    ok = worst <= 1e-12 and failures == 0
    report("3", ok, f"1000 shifts max rel err {worst:.2e}; ratio bound failures {failures}/10^6")
    assert worst <= 1e-12
    assert failures == 0


def test_criterion_4_closed_form_case():
    """Unit-rate switch law, rates 1 and 2, silent unit window: exactly half."""
    model = ContinuousModel(RateSchedule((1.0,), (2.0,)), ChangePointLaw.exponential(1.0))
    res = intensity(model, History(1.0))
    ok = abs(res.prob_before - 0.5) <= 1e-10 and abs(res.intensity - 1.5) <= 1e-10
    report("4", ok, f"prob_before = {res.prob_before:.12f}, intensity = {res.intensity:.12f}")
    assert res.prob_before == pytest.approx(0.5, abs=1e-10)
    assert res.intensity == pytest.approx(1.5, abs=1e-10)


def test_criterion_5_grid_convergence():
    """First-order shrink of the grid error: halving ratios within [1.5, 2.5].

    Instances are drawn with horizons and arrivals on the 1/64 grid so the
    floor-snapping is exact at every tested resolution; off-grid arrivals
    would superimpose a sawtooth snapping error of the same order and the
    ratio of consecutive errors would no longer isolate the intrinsic rate.
    """
    rng = np.random.default_rng(501)
    all_ok = True
    worst_ratio = (2.0, 2.0)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        n64 = int(rng.integers(48, 112))
        slots = np.sort(rng.choice(np.arange(4, n64 - 2), size=k, replace=False))
        h = History(n64 / 64.0, tuple(s / 64.0 for s in slots))
        pre = rng.uniform(0.4, 1.5, size=3)
        post = pre + rng.uniform(0.2, 1.5, size=3)
        law = (
            ChangePointLaw.exponential(rng.uniform(0.4, 1.5))
            if rng.random() < 0.7
            else ChangePointLaw.weibull(rng.uniform(0.9, 1.8), rng.uniform(0.6, 1.5))
        )
        model = ContinuousModel(RateSchedule(tuple(pre), tuple(post)), law)
        rows = convergence_study(model, h, [64, 128, 256, 512])
        errors = [r.error for r in rows]
        assert all(r.admissible for r in rows)
        decreasing = all(b < a for a, b in zip(errors, errors[1:]))
        ratios = [errors[i] / errors[i + 1] for i in range(3)]
        inside = all(1.5 <= r <= 2.5 for r in ratios)
        all_ok &= decreasing and inside
        worst_ratio = (min(worst_ratio[0], *ratios), max(worst_ratio[1], *ratios))
    report("5", all_ok, f"10 instances, halving ratios within [{worst_ratio[0]:.2f}, {worst_ratio[1]:.2f}]")
    assert all_ok


@pytest.mark.xfail(
    strict=True,
    reason="no (t, t1) reversal exists for post-change levels (2, M): as M "
    "grows the one-arrival intensity tends to 1 + the switch hazard = 2 while "
    "the empty-window intensity stays below 2; grid minimum of the margin is "
    "+1/6.  The reversal does exist with the levels swapped, see the "
    "companion test",
)
def test_criterion_6_added_arrival_preset():
    """The stated two-level preset must yield an intensity drop (it cannot)."""
    start = time.monotonic()
    try:
        witness = counterexample_added_arrival(100.0)
    except SearchFailureError as exc:
        elapsed = time.monotonic() - start
        report("6", False, f"{exc} ({elapsed:.1f}s)")
        raise AssertionError(str(exc)) from None
    elapsed = time.monotonic() - start
    report("6", True, f"margin {witness.margin:.3e} at t={witness.history_high.horizon:.3f} "
                      f"({elapsed:.1f}s)")
    assert witness.margin < -1e-6
    assert elapsed <= 30.0


def test_criterion_6_companion_swapped_levels():
    """With post-change levels (M, 2) the added arrival does lower the intensity."""
    start = time.monotonic()
    model = ContinuousModel(RateSchedule((1.0, 1.0), (100.0, 2.0)),
                            ChangePointLaw.exponential(1.0))
    margin, t, t1, mu_one, mu_empty = added_arrival_search(model)
    elapsed = time.monotonic() - start
    ok = margin < -1e-6 and elapsed <= 30.0
    report("6 (companion, swapped levels)", ok,
           f"margin {margin:.4f} at t={t:.3f}, t1={t1:.3f}; "
           f"intensities {mu_one:.4f} < {mu_empty:.4f} ({elapsed:.1f}s)")
    assert margin < -1e-6
    # the pair is no counterexample to the comparable-history order: counts differ
    assert History(t, (t1,)).count != History(t).count
    assert elapsed <= 30.0


def test_criterion_7a_interarrival_scaling():
    """Transformed interarrivals equal speed times original on 10^4 paths."""
    model = ContinuousModel(RateSchedule((0.8, 1.2, 1.0), (1.6, 2.0, 2.4)),
                            ChangePointLaw.exponential(0.9))
    scale = TimeScale((0.5, 2.0, 1.25))
    rng = np.random.default_rng(701)
    worst = 0.0
    for _ in range(10_000):
        path = sample_path(model, horizon=3.0, seed=rng)
        mapped = transform_path(scale, path)
        a = np.diff(np.concatenate(([0.0], path.arrival_times)))
        expected = np.array([scale.gamma(i) * a[i] for i in range(len(a))])
        got = np.diff(np.concatenate(([0.0], mapped.arrival_times)))
        if len(a):
            span = 1.0 + (mapped.arrival_times[-1] if mapped.arrival_times else 0.0)
            worst = max(worst, float(np.max(np.abs(got - expected))) / span)
    ok = worst <= 1e-14
    report("7a", ok, f"10^4 paths, max |scaled - mapped| / span = {worst:.2e}")
    assert worst <= 1e-14


def test_criterion_7b_constant_speed_invariance():
    """Posterior unchanged under a one-speed clock on 10^3 random instances."""
    rng = np.random.default_rng(702)
    worst = 0.0
    for _ in range(1000):
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
        scaled_model = ContinuousModel(model.rates.scaled(1.0 / factor),
                                       law.scaled_time(factor))
        scaled_h = History(t * factor, tuple(x * factor for x in arr))
        worst = max(worst, abs(posterior_survival(scaled_model, scaled_h)
                               - posterior_survival(model, h)))
    ok = worst <= 1e-10
    report("7b", ok, f"10^3 instances, max posterior shift = {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_7c_degenerate_law_distributions():
    """KS at 1%: transformed interarrivals against their exponential targets."""
    scale = TimeScale((0.5, 2.0))
    rates = RateSchedule((0.7, 1.1), (1.9, 2.6))
    transformed = transform_rates(scale, rates)
    outcomes = []
    for location, schedule_side in ((1e-12, "post"), (1e12, "pre")):
        model = ContinuousModel(rates, ChangePointLaw.point_mass(location))
        rng = np.random.default_rng(703)
        firsts, seconds = [], []
        # capped at two arrivals with no horizon: no censoring, so the
        # interarrivals are exactly the exponentials being tested
        for _ in range(100_000):
            path = sample_path(model, max_arrivals=2, seed=rng)
            mapped = transform_path(scale, path)
            firsts.append(mapped.arrival_times[0])
            seconds.append(mapped.arrival_times[1] - mapped.arrival_times[0])
        pick = transformed.post if schedule_side == "post" else transformed.pre
        for k, sample_vals in ((0, firsts), (1, seconds)):
            rate = pick(k)
            res = stats.kstest(sample_vals, lambda x, r=rate: -np.expm1(-r * np.asarray(x)))
            outcomes.append((schedule_side, k, len(sample_vals), res.pvalue))
    ok = all(p > 0.01 for *_, p in outcomes)
    detail = "; ".join(f"{side}({k}): n={n}, p={p:.3f}" for side, k, n, p in outcomes)
    report("7c", ok, detail)
    assert ok


def test_criterion_7d_regularizing_speeds():
    """Derived clock speeds always make the transformed gaps strictly increase."""
    rng = np.random.default_rng(704)
    all_ok = True
    for _ in range(500):
        size = int(rng.integers(2, 7))
        pre = rng.uniform(0.2, 2.0, size=size)
        post = pre + rng.uniform(0.05, 2.0, size=size)
        rates = RateSchedule(tuple(pre), tuple(post))
        scale = regularizing_gammas(rates)
        all_ok &= validate_rates(transform_rates(scale, rates)).catania
    report("7d", all_ok, "500 random strictly dominating schedules, all transformed gaps increase")
    assert all_ok


def test_criterion_8_trivial_invariants():
    """Equal rates give the prior; one silent slot gives 1 - first hazard;
    the intensity is trapped between the two rates at the current count."""
    rng = np.random.default_rng(801)

    worst_cont = 0.0
    worst_disc = 0.0
    for _ in range(100):
        lam = rng.uniform(0.3, 2.0, size=2)
        law = ChangePointLaw.exponential(rng.uniform(0.4, 1.5))
        model = ContinuousModel(RateSchedule(tuple(lam), tuple(lam)), law)
        t = rng.uniform(0.5, 2.5)
        k = int(rng.integers(0, 3))
        arr = tuple(np.sort(rng.uniform(0.05, t - 0.05, size=k)))
        worst_cont = max(worst_cont, abs(posterior_survival(model, History(t, arr)) - law.sf(t)))

        p = rng.uniform(0.05, 0.6)
        dmodel = DiscreteModel(RateSchedule((p, p), (p, p)),
                               ChangePointLaw.discrete_hazard((rng.uniform(0.05, 0.6),)))
        n = int(rng.integers(1, 12))
        kk = int(rng.integers(0, min(4, n) + 1))
        slots = tuple(sorted(rng.choice(np.arange(1, n + 1), size=kk, replace=False).tolist()))
        prior = dmodel.law.sf(n)
        worst_disc = max(worst_disc,
                         abs(discrete_survival(dmodel, DiscreteHistory(n, slots)) - prior))

    nu = 0.2837
    dmodel = DiscreteModel(RateSchedule((0.31,), (0.62,)), ChangePointLaw.discrete_hazard((nu,)))
    one_slot = abs(discrete_survival(dmodel, DiscreteHistory(1, ())) - (1.0 - nu))

    bounded = True
    for _ in range(200):
        model = random_discrete_model(rng)
        n = int(rng.integers(1, 12))
        kk = int(rng.integers(0, min(4, n) + 1))
        slots = tuple(sorted(rng.choice(np.arange(1, n + 1), size=kk, replace=False).tolist()))
        h = DiscreteHistory(n, slots)
        mu = discrete_intensity(model, h).intensity
        lo = min(model.rates.pre(kk), model.rates.post(kk))
        hi = max(model.rates.pre(kk), model.rates.post(kk))
        bounded &= lo - 1e-15 <= mu <= hi + 1e-15

    ok = worst_cont <= 1e-12 and worst_disc <= 1e-12 and one_slot <= 5e-15 and bounded
    report("8", ok,
           f"equal-rate gaps {worst_cont:.2e}/{worst_disc:.2e}; one-slot gap {one_slot:.2e} "
           f"(machine rounding); intensity always inside the rate pair: {bounded}")
    assert worst_cont <= 1e-12
    assert worst_disc <= 1e-12
    assert one_slot <= 5e-15
    assert bounded
