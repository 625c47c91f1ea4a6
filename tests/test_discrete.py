"""Discrete engine: weights, posterior, intensity, shift identities, sampling.

The deep cross-check here is a full outcome-space enumeration written from
the slot dynamics alone (every switch slot times every arrival pattern),
kept deliberately free of the engine's factorisations.  Expected values
tagged as frozen below were computed with exact rational arithmetic
through that same enumeration.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpb.core import (
    CapacityError,
    ChangePointLaw,
    DiscreteHistory,
    PreconditionError,
    RateSchedule,
    shift_operator,
)
from cpb.discrete import (
    DiscreteModel,
    brute_force_posterior,
    intensity,
    joint_weight,
    posterior_survival,
    sample_discrete_path,
    shift_ratios,
    step_intensity,
    verify_shift_identities,
)


def make_model(nu=0.1, pre=0.2, post=0.5):
    return DiscreteModel(
        RateSchedule((pre, pre, pre), (post, post, post)),
        ChangePointLaw.discrete_hazard((nu,)),
    )


def enumerate_joint(model, n, pattern, j):
    """P(switch at slot j, exact arrival pattern) straight from the dynamics."""
    mass = model.law.hazard(j) if j is not None else 1.0
    for l in range(1, (j if j is not None else n + 1)):
        mass *= 1.0 - model.law.hazard(l)
    prob = mass
    count = 0
    for r, hit in enumerate(pattern, start=1):
        post_regime = j is not None and r > j
        rate = model.rates.post(count) if post_regime else model.rates.pre(count)
        prob *= rate if hit else 1.0 - rate
        count += hit
    return prob


def enumeration_posterior(model, h):
    """Posterior survival from the full (switch slot x pattern) enumeration."""
    n = h.horizon_slot
    pattern = tuple(1 if r in set(h.arrival_slots) else 0 for r in range(1, n + 1))
    change = sum(enumerate_joint(model, n, pattern, j) for j in range(1, n + 1))
    tail = enumerate_joint(model, n, pattern, None)
    return tail / (tail + change)


class TestJointWeight:
    def test_first_slot_is_pre_change(self):
        # switch at slot 1 leaves slot 1 itself in the pre-change regime
        model = make_model()
        h = DiscreteHistory(1, ())
        assert joint_weight(model, h, 1) == pytest.approx(0.1 * 0.8, rel=1e-14)

    def test_switch_after_horizon(self):
        model = make_model()
        h = DiscreteHistory(1, ())
        expected = 0.1 * 0.9 * 0.8  # hazard at 2 times survival through 1, pre-change slot
        assert joint_weight(model, h, 2) == pytest.approx(expected, rel=1e-14)

    def test_matches_enumeration_frozen(self):
        # frozen: exact rational enumeration gives 1/50
        model = make_model()
        h = DiscreteHistory(3, (2,))
        assert joint_weight(model, h, 1) == pytest.approx(0.02, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_matches_enumeration_random(self, n, data):
        rng_vals = data.draw(
            st.tuples(
                st.floats(0.05, 0.6), st.floats(0.05, 0.6), st.floats(0.05, 0.9)
            )
        )
        pre, gap, nu = rng_vals
        model = make_model(nu=nu, pre=pre, post=min(0.95, pre + gap))
        slots = tuple(sorted(data.draw(st.sets(st.integers(1, n), max_size=n))))
        h = DiscreteHistory(n, slots)
        pattern = tuple(1 if r in set(slots) else 0 for r in range(1, n + 1))
        for j in range(1, n + 2):
            assert joint_weight(model, h, j) == pytest.approx(
                enumerate_joint(model, n, pattern, j), rel=1e-12
            )

    def test_total_mass_over_all_patterns_is_one(self):
        # enumeration sanity: summing over every outcome must give 1
        model = make_model()
        n = 4
        total = 0.0
        for pattern in product((0, 1), repeat=n):
            for j in list(range(1, n + 1)) + [None]:
                total += enumerate_joint(model, n, pattern, j)
        assert total == pytest.approx(1.0, abs=1e-14)


class TestPosteriorSurvival:
    def test_single_empty_slot_returns_prior(self):
        # one silent slot cannot separate the regimes: slot 1 is pre-change
        # for every switch slot, so the posterior equals the prior
        model = make_model(nu=0.37, pre=0.123, post=0.779)
        p = posterior_survival(model, DiscreteHistory(1, ()))
        assert p == pytest.approx(1.0 - 0.37, rel=5e-15)

    def test_equal_regimes_return_prior(self):
        model = make_model(nu=0.2, pre=0.3, post=0.3)
        for h in (DiscreteHistory(6, ()), DiscreteHistory(6, (2, 5)), DiscreteHistory(6, (1, 2, 3))):
            assert posterior_survival(model, h) == pytest.approx(
                model.law.no_change_through(6), rel=1e-12
            )

    def test_frozen_enumeration_value(self):
        # frozen: exact rational enumeration gives 52488/72995
        model = make_model()
        p = posterior_survival(model, DiscreteHistory(4, (2,)))
        assert p == pytest.approx(52488 / 72995, rel=1e-13)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(0, min(5, n) + 1))
            slots = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
            pre = rng.uniform(0.05, 0.6, size=2)
            post = np.clip(pre + rng.uniform(0.05, 0.35, size=2), None, 0.95)
            model = DiscreteModel(
                RateSchedule(tuple(pre), tuple(post)),
                ChangePointLaw.discrete_hazard(tuple(rng.uniform(0.05, 0.5, size=2))),
            )
            h = DiscreteHistory(n, slots)
            assert posterior_survival(model, h) == pytest.approx(
                brute_force_posterior(model, h), abs=1e-12
            )

    def test_matches_enumeration_across_horizons(self):
        # one log-space pass serves every horizon; compare with the
        # plain-float enumeration well past 50 slots
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 61))
            k = int(rng.integers(0, min(6, n) + 1))
            slots = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
            model = make_model(
                nu=rng.uniform(0.05, 0.5),
                pre=rng.uniform(0.05, 0.5),
                post=rng.uniform(0.05, 0.9),
            )
            h = DiscreteHistory(n, slots)
            assert posterior_survival(model, h) == pytest.approx(
                enumeration_posterior(model, h), rel=1e-12
            )

    def test_long_horizon_log_path_consistent(self):
        model = make_model()
        h_long = DiscreteHistory(120, (5, 30, 77))
        # enumeration over switch slots, done in plain floats
        pattern = tuple(1 if r in (5, 30, 77) else 0 for r in range(1, 121))
        change = sum(enumerate_joint(model, 120, pattern, j) for j in range(1, 121))
        tail = enumerate_joint(model, 120, pattern, None)
        assert posterior_survival(model, h_long) == pytest.approx(
            tail / (tail + change), rel=1e-10
        )


class TestStepIntensity:
    def test_equal_regimes_give_flat_rate(self):
        model = make_model(pre=0.25, post=0.25)
        assert step_intensity(model, DiscreteHistory(5, (2,))) == pytest.approx(0.25, rel=1e-14)

    def test_certain_survival_uses_pre_rate(self):
        # hazard tail mass far beyond the horizon: switch cannot have happened yet
        model = DiscreteModel(
            RateSchedule((0.2,), (0.7,)),
            ChangePointLaw.discrete_hazard((1e-12,)),
        )
        mu = step_intensity(model, DiscreteHistory(4, (1,)))
        assert mu == pytest.approx(0.2, abs=1e-9)

    def test_frozen_value_and_next_slot_meaning(self):
        # frozen: 207511/729950 from the five-slot enumeration; equals the
        # posterior mixture 0.2 + 0.3 * (1 - survival)
        model = make_model()
        h = DiscreteHistory(4, (2,))
        mu = step_intensity(model, h)
        assert mu == pytest.approx(207511 / 729950, rel=1e-13)
        survival = posterior_survival(model, h)
        assert mu == pytest.approx(0.2 + 0.3 * (1.0 - survival), rel=1e-14)

    def test_intensity_result_matches_enumeration(self):
        model = make_model()
        h = DiscreteHistory(4, (2,))
        res = intensity(model, h)
        assert res.prob_before == pytest.approx(brute_force_posterior(model, h), rel=1e-13)
        assert res.prob_after == 1.0 - res.prob_before
        assert res.intensity == step_intensity(model, h)

    def test_bounded_by_rate_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pre = rng.uniform(0.05, 0.5)
            post = rng.uniform(0.05, 0.9)
            model = DiscreteModel(
                RateSchedule((pre,), (post,)),
                ChangePointLaw.discrete_hazard((rng.uniform(0.05, 0.8),)),
            )
            n = int(rng.integers(1, 9))
            k = int(rng.integers(0, n + 1))
            slots = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
            mu = step_intensity(model, DiscreteHistory(n, slots))
            assert min(pre, post) - 1e-15 <= mu <= max(pre, post) + 1e-15


    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5000),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.floats(1e-8, 1.0 - 1e-8), st.floats(1e-8, 1.0 - 1e-8)),
                 min_size=1, max_size=3),
        st.lists(st.floats(1e-8, 0.5), min_size=1, max_size=3),
    )
    def test_finite_and_bounded_at_extremes(self, n, density, seed, rate_pairs, hazards):
        pre_rates, post_rates = zip(*rate_pairs)
        model = DiscreteModel(
            RateSchedule(pre_rates, post_rates), ChangePointLaw.discrete_hazard(tuple(hazards))
        )
        hits = np.random.default_rng(seed).random(n) < density
        h = DiscreteHistory(n, tuple(int(r) for r in np.flatnonzero(hits) + 1))
        s = posterior_survival(model, h)
        assert math.isfinite(s) and 0.0 <= s <= 1.0
        pre, post = model.rates.pre(h.count), model.rates.post(h.count)
        mu = step_intensity(model, h)
        assert min(pre, post) * (1 - 1e-15) <= mu <= max(pre, post) * (1 + 1e-15)


class TestShiftRatios:
    def test_constant_rates_collapse(self):
        model = make_model(pre=0.3, post=0.6)
        r = shift_ratios(model, 1)
        assert r.alpha == pytest.approx(1.0)
        assert r.gamma == pytest.approx(1.0)
        assert r.delta == pytest.approx((0.7 * 0.6) / (0.3 * 0.4), rel=1e-14)

    def test_two_level_example(self):
        model = DiscreteModel(
            RateSchedule((0.05, 0.02), (0.2, 0.1)),
            ChangePointLaw.discrete_hazard((0.1,)),
        )
        r = shift_ratios(model, 1)
        assert r.alpha == pytest.approx(0.8 / 0.9, rel=1e-14)
        assert r.gamma == pytest.approx(0.95 / 0.98, rel=1e-14)
        assert r.delta == pytest.approx((0.95 * 0.2) / (0.05 * 0.9), rel=1e-14)

    def test_single_weight_ratio_matches_delta(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pre = rng.uniform(0.05, 0.5, size=3)
            post = np.clip(pre + rng.uniform(0.05, 0.4, size=3), None, 0.95)
            model = DiscreteModel(
                RateSchedule(tuple(pre), tuple(post)),
                ChangePointLaw.discrete_hazard((rng.uniform(0.05, 0.5),)),
            )
            n = 7
            h = DiscreteHistory(n, (2, 5))
            l = int(rng.integers(1, 3))
            shifted = shift_operator(h, l)
            assert shifted != h
            slot = h.arrival_slots[l - 1]
            measured = joint_weight(model, shifted, slot) / joint_weight(model, h, slot)
            assert measured == pytest.approx(shift_ratios(model, l).delta, rel=1e-12)


class TestShiftIdentities:
    def test_constant_rates_collapse_to_unit_and_delta(self):
        model = make_model(nu=0.15, pre=0.3, post=0.6)
        rep = verify_shift_identities(model, DiscreteHistory(7, (3, 6)), 1)
        delta = shift_ratios(model, 1).delta
        assert rep.expected.alpha == pytest.approx(1.0)
        assert rep.expected.gamma == pytest.approx(1.0)
        for measured in (rep.measured_alpha, rep.measured_gamma_mid, rep.measured_gamma_tail):
            assert measured == pytest.approx(1.0, rel=1e-12)
        assert rep.measured_delta == pytest.approx(delta, rel=1e-12)

    def test_report_on_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            pre = rng.uniform(0.05, 0.5, size=3)
            post = np.clip(pre + rng.uniform(0.02, 0.4, size=3), None, 0.95)
            model = DiscreteModel(
                RateSchedule(tuple(pre), tuple(post)),
                ChangePointLaw.discrete_hazard(tuple(rng.uniform(0.05, 0.5, size=2))),
            )
            h = DiscreteHistory(6, (2, 4))
            rep = verify_shift_identities(model, h, 1)
            assert rep.max_rel_error <= 1e-12

    def test_rel_errors_skip_empty_blocks(self):
        # an arrival in the first slot has no switch-slot block before it
        model = make_model(nu=0.15, pre=0.3, post=0.6)
        rep = verify_shift_identities(model, DiscreteHistory(7, (1, 5)), 1)
        assert rep.measured_alpha is None
        assert set(rep.rel_errors) == {"gamma_mid", "gamma_tail", "delta"}
        assert rep.rel_errors["delta"] == abs(rep.measured_delta / rep.expected.delta - 1.0)
        assert rep.max_rel_error == max(rep.rel_errors.values())

    def test_inadmissible_shift_rejected(self):
        model = make_model()
        with pytest.raises(PreconditionError):
            verify_shift_identities(model, DiscreteHistory(6, (1, 2)), 1)

    def test_shifted_posterior_never_larger(self):
        # the monotone direction under the dominance conditions
        rng = np.random.default_rng(23)
        for _ in range(150):
            pre = rng.uniform(0.05, 0.4, size=3)
            gaps = np.cumsum(rng.uniform(0.05, 0.25, size=3))
            s_pre = -np.log1p(-pre)
            post = -np.expm1(-(s_pre + gaps))
            model = DiscreteModel(
                RateSchedule(tuple(pre), tuple(post)),
                ChangePointLaw.discrete_hazard((rng.uniform(0.05, 0.5),)),
            )
            n = int(rng.integers(4, 12))
            k = int(rng.integers(1, min(4, n) + 1))
            slots = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
            h = DiscreteHistory(n, slots)
            l = int(rng.integers(1, k + 1))
            if shift_operator(h, l) == h:
                continue
            rep = verify_shift_identities(model, h, l)
            assert rep.posterior_shifted <= rep.posterior + 1e-12


class TestBruteForce:
    def test_capacity_guard(self):
        model = make_model()
        with pytest.raises(CapacityError):
            brute_force_posterior(model, DiscreteHistory(17, ()))

    def test_single_slot(self):
        model = make_model(nu=0.25)
        assert brute_force_posterior(model, DiscreteHistory(1, ())) == pytest.approx(0.75, rel=1e-14)

    def test_equal_regimes(self):
        model = make_model(nu=0.2, pre=0.4, post=0.4)
        h = DiscreteHistory(5, (2, 3))
        assert brute_force_posterior(model, h) == pytest.approx(
            model.law.no_change_through(5), rel=1e-13
        )

    def test_agrees_with_full_enumeration(self):
        model = make_model(nu=0.15, pre=0.3, post=0.65)
        h = DiscreteHistory(5, (1, 4))
        assert brute_force_posterior(model, h) == pytest.approx(
            enumeration_posterior(model, h), rel=1e-13
        )


class TestSampling:
    def test_reproducible(self):
        model = make_model()
        assert sample_discrete_path(model, 20, seed=42) == sample_discrete_path(model, 20, seed=42)
        assert sample_discrete_path(model, 20, seed=42) != sample_discrete_path(model, 20, seed=43)

    def test_high_hazard_switches_early(self):
        model = make_model(nu=0.999)
        switches = [sample_discrete_path(model, 10, seed=s)[0] for s in range(200)]
        assert all(sw == 1 for sw in switches)

    def test_first_slot_frequency(self):
        # slot 1 is always pre-change, so its arrival frequency estimates pre(0)
        model = make_model(pre=0.2, post=0.9)
        n_paths = 20_000
        rng = np.random.default_rng(7)
        hits = sum(
            1 in sample_discrete_path(model, 1, seed=rng)[1] for _ in range(n_paths)
        )
        phat = hits / n_paths
        sigma = math.sqrt(0.2 * 0.8 / n_paths)
        assert abs(phat - 0.2) <= 3 * sigma

    def test_rejection_estimate_matches_posterior(self):
        model = make_model(nu=0.2, pre=0.25, post=0.6)
        h = DiscreteHistory(4, (2,))
        target = h.arrival_slots
        rng = np.random.default_rng(99)
        kept = 0
        survived = 0
        for _ in range(60_000):
            switch, slots = sample_discrete_path(model, 4, seed=rng)
            if slots == target:
                kept += 1
                survived += switch is None
        estimate = survived / kept
        exact = posterior_survival(model, h)
        sigma = math.sqrt(exact * (1 - exact) / kept)
        assert abs(estimate - exact) <= 3 * sigma
