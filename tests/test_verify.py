"""Verification harness: sweeps, searches, ratio arithmetic, grid bridge."""

from dataclasses import fields

import numpy as np
import pytest

from cpb.core import (
    ChangePointLaw,
    History,
    PreconditionError,
    RateSchedule,
    SearchFailureError,
    history_dominates,
)
from cpb.continuous import ContinuousModel, intensity
from cpb.verify import (
    SweepConfig,
    SweepReport,
    Witness,
    added_arrival_search,
    catania_bridge_check,
    counterexample_added_arrival,
    interval_mismatch_examples,
    reevaluate,
    remark5_check,
    theorem1_sweep,
)


class TestRemark5:
    def test_equal_multipliers_give_equality(self):
        assert remark5_check(1.0, 2.0, 3.0, 4.0, alpha=2.0, gamma=2.0, delta=2.0)

    def test_worked_arithmetic(self):
        # alpha = 2 gamma, delta = 3 gamma, all blocks 1: 0.25 versus 1/7
        gamma = 0.5
        A = B = D = 1.0
        C = 1.0
        theta = C / (A + B + C + D)
        theta_prime = C * gamma / (A * 2 * gamma + B * gamma + C * gamma + D * 3 * gamma)
        assert theta == pytest.approx(0.25)
        assert theta_prime == pytest.approx(1.0 / 7.0)
        assert remark5_check(A, B, C, D, alpha=2 * gamma, gamma=gamma, delta=3 * gamma)

    def test_randomized_bulk(self):
        rng = np.random.default_rng(42)
        n = 200_000
        A, B, C, D = (rng.exponential(1.0, size=n) + 1e-9 for _ in range(4))
        gamma = rng.exponential(1.0, size=n) + 1e-9
        alpha = gamma * (1.0 + rng.exponential(0.5, size=n))
        delta = gamma * (1.0 + rng.exponential(0.5, size=n))
        theta = C / (A + B + C + D)
        theta_prime = C * gamma / (A * alpha + B * gamma + C * gamma + D * delta)
        assert np.all(theta >= theta_prime)

    def test_outside_precondition_no_guarantee(self):
        # alpha below gamma can push the reweighted ratio above the plain one
        assert not remark5_check(10.0, 0.1, 0.1, 0.1, alpha=0.1, gamma=1.0, delta=1.0)


class TestTheorem1Sweep:
    def test_discrete_small_sweep_clean(self):
        report = theorem1_sweep(SweepConfig(engine="discrete", instances=500, seed=3))
        assert report.passed
        assert report.pairs == 500
        assert report.min_posterior_margin >= -1e-12
        assert report.min_intensity_margin >= -1e-12

    def test_continuous_sweep_clean_with_increasing_gaps(self):
        report = theorem1_sweep(
            SweepConfig(
                engine="continuous", instances=200, seed=5, tolerance=1e-9,
                require_catania=True,
            )
        )
        assert report.passed

    def test_continuous_dominance_alone_is_not_enough(self):
        # schedules whose early-count gap dominates the later ones reverse the
        # monotonicity: a later arrival leaves more of the window in the most
        # informative count state.  Confirmed independently by high-precision
        # quadrature and by rejection-sampling on the worst draw of this seed.
        report = theorem1_sweep(
            SweepConfig(engine="continuous", instances=200, seed=5, tolerance=1e-9)
        )
        assert not report.passed
        for w in report.violations:
            assert history_dominates(w.history_high, w.history_low)
            again = reevaluate(w)
            assert again.posterior_high == pytest.approx(w.posterior_high, rel=1e-10)
            assert again.posterior_low == pytest.approx(w.posterior_low, rel=1e-10)

    def test_equal_rate_pairs_have_zero_margin(self):
        # histories equal by construction when no shift applies: margins 0
        cfg = SweepConfig(engine="discrete", instances=100, seed=11)
        report = theorem1_sweep(cfg)
        assert report.max_posterior_margin >= 0.0

    @pytest.mark.parametrize("engine", ["discrete", "continuous"])
    def test_process_pool_matches_serial(self, engine, monkeypatch):
        # every instance seeds its own generator, so the worker count must not
        # change the report; the continuous sampler without increasing gaps
        # yields violations, so witnesses cross the process boundary too
        cfg = SweepConfig(engine=engine, instances=300, seed=7, require_catania=False)
        monkeypatch.setenv("THREADS", "1")
        serial = theorem1_sweep(cfg)
        monkeypatch.setenv("THREADS", "2")
        pooled = theorem1_sweep(cfg)
        for f in fields(SweepReport):
            assert getattr(pooled, f.name) == getattr(serial, f.name), f.name
        if engine == "continuous":
            assert serial.violations

    def test_continuous_sweep_quadrature_evaluations(self, monkeypatch):
        # a deterministic cost guard on the weibull rule, counted in integrand
        # evaluations (21 nodes a panel, every round): the first stretch (0, b]
        # is integrated in a variable without the u^(shape - 1) endpoint
        # singularity, so it stays within 4 Gauss-Kronrod panels
        from cpb import _weibull

        batch, integrand, batches = _weibull._weibull_batch, _weibull._weibull_log_integrand, []

        def counting_batch(*args):
            # one batch per posterior: [first-stretch evaluations, all evaluations]
            batches.append([0, 0])
            return batch(*args)

        def counting_integrand(x, offset, mapped, k):
            # the panels of the first stretch are mapped and start from x = 0
            batches[-1][0] += x.shape[0] * int(np.count_nonzero(k[0, mapped] == 0.0))
            batches[-1][1] += x.size
            return integrand(x, offset, mapped, k)

        monkeypatch.setattr(_weibull, "_weibull_batch", counting_batch)
        monkeypatch.setattr(_weibull, "_weibull_log_integrand", counting_integrand)
        monkeypatch.setenv("THREADS", "1")
        theorem1_sweep(SweepConfig(engine="continuous", instances=200, seed=0))
        first = [n for n, _ in batches]
        assert first and max(first) <= 4 * 21
        assert sum(total for _, total in batches) < 12_000

    def test_exact_and_oracle_engines_agree_on_sweep_instances(self):
        # the instances the sweep draws must get the same verdict from the
        # factorised engine and from the enumeration oracle
        from cpb.discrete import brute_force_posterior, posterior_survival
        from cpb.verify import _sample_discrete_model, _sample_discrete_pair

        rng = np.random.default_rng(31)
        for _ in range(100):
            model = _sample_discrete_model(rng)
            h_low, h_high = _sample_discrete_pair(rng)
            for h in (h_low, h_high):
                assert posterior_survival(model, h) == pytest.approx(
                    brute_force_posterior(model, h), abs=1e-12
                )

    def test_witness_reevaluation_consistency(self):
        # fabricate a witness from a legitimate pair and re-run it
        model = ContinuousModel(RateSchedule((1.0,), (2.0,)), ChangePointLaw.exponential(1.0))
        h_low = History(2.0, (0.3,))
        h_high = History(2.0, (1.7,))
        w = Witness(
            engine="continuous", model=model, history_low=h_low, history_high=h_high,
            posterior_low=0.0, posterior_high=0.0, intensity_low=0.0, intensity_high=0.0,
            margin=0.0,
        )
        out = reevaluate(w)
        assert out.posterior_low == pytest.approx(
            intensity(model, h_low).prob_before, abs=1e-12
        )
        assert out.intensity_high == pytest.approx(
            intensity(model, h_high).intensity, abs=1e-12
        )


class TestAddedArrival:
    def test_stated_preset_has_no_reversal(self):
        # For pre-change rates pinned at 1 and post-change (2, M), the
        # one-arrival intensity never drops below the empty-window one: as
        # M grows it tends to 1 + (switch hazard) = 2, while the empty
        # window stays below 2.  The search must come back empty-handed.
        with pytest.raises(SearchFailureError):
            counterexample_added_arrival(100.0, t_max=3.0, step=0.1)

    def test_swapped_preset_has_reversal(self):
        # flipping the post-change levels to (M, 2) produces a clear drop
        model = ContinuousModel(
            RateSchedule((1.0, 1.0), (100.0, 2.0)), ChangePointLaw.exponential(1.0)
        )
        margin, t, t1, mu_one, mu_empty = added_arrival_search(model, t_max=3.0, step=0.1)
        assert margin < -0.3
        assert mu_one < mu_empty
        # the pair lies outside the comparable-history order: counts differ
        assert t1 < t

    def test_search_values_reproducible(self):
        model = ContinuousModel(
            RateSchedule((1.0, 1.0), (100.0, 2.0)), ChangePointLaw.exponential(1.0)
        )
        margin, t, t1, mu_one, mu_empty = added_arrival_search(model, t_max=2.0, step=0.1)
        assert intensity(model, History(t, (t1,))).intensity == pytest.approx(mu_one, rel=1e-12)
        assert intensity(model, History(t)).intensity == pytest.approx(mu_empty, rel=1e-12)

    def test_small_m_rejected(self):
        with pytest.raises(PreconditionError):
            counterexample_added_arrival(5.0)


class TestIntervalMismatch:
    def test_both_directions_witnessed(self):
        up, down = interval_mismatch_examples()
        assert up.posterior_low < up.posterior_high
        assert down.posterior_low > down.posterior_high
        # windows differ on purpose: the order does not apply across horizons
        assert up.history_low.horizon != up.history_high.horizon

    def test_witnesses_reevaluate(self):
        up, down = interval_mismatch_examples()
        for w in (up, down):
            out = reevaluate(w)
            assert out.posterior_low == pytest.approx(w.posterior_low, abs=1e-10)
            assert out.posterior_high == pytest.approx(w.posterior_high, abs=1e-10)

    def test_same_window_forces_equality(self):
        model = ContinuousModel(RateSchedule((1.0,), (1.2,)), ChangePointLaw.exponential(1.0))
        h = History(1.0)
        assert intensity(model, h).prob_before == intensity(model, h).prob_before


class TestCataniaBridge:
    def test_increasing_gaps_hold_for_large_grids(self):
        rates = RateSchedule((1.0, 1.0), (2.0, 3.0))
        report = catania_bridge_check(rates, [2, 4, 8, 16, 64, 256])
        assert report.catania_holds
        assert report.least_m is not None
        # once the condition holds it keeps holding on finer grids
        seen = [row.ser_holds for row in report.rows if row.admissible]
        first_true = seen.index(True)
        assert all(seen[first_true:])

    def test_tied_gaps_borderline(self):
        rates = RateSchedule((1.0, 1.0), (2.0, 2.0))  # equal gaps
        report = catania_bridge_check(rates, [8, 64, 512])
        assert not report.catania_holds
        for row in report.rows:
            if row.admissible:
                assert row.borderline
                assert abs(row.min_margin) <= (rates.max_rate() / row.m) ** 2

    def test_too_small_grid_inadmissible(self):
        rates = RateSchedule((1.0, 1.0), (2.0, 3.0))
        report = catania_bridge_check(rates, [1, 2, 16])
        assert report.rows[0].admissible is False
        assert report.rows[0].ser_holds is None

    def test_requires_strict_dominance(self):
        with pytest.raises(PreconditionError):
            catania_bridge_check(RateSchedule((1.0, 2.0), (2.0, 2.0)), [8])

    @pytest.mark.parametrize("m_list, bad", [([0, 4], 0), ([4, -2], -2)])
    def test_factor_below_one_refused_before_any_row(self, m_list, bad):
        rates = RateSchedule((1.0, 1.0), (2.0, 3.0))
        with pytest.raises(PreconditionError, match=f"^grid factor must be >= 1, got {bad}$"):
            catania_bridge_check(rates, m_list)

    @pytest.mark.parametrize("m", [2.5, 16.0])
    def test_float_factor_refused_before_any_row(self, m):
        # 2.5 is not truncated to a grid of 2
        rates = RateSchedule((1.0, 1.0), (2.0, 3.0))
        with pytest.raises(PreconditionError, match=f"^grid factor must be an integer, got {m}$"):
            catania_bridge_check(rates, [4, m])

    def test_numpy_integer_factor_accepted(self):
        rates = RateSchedule((1.0, 1.0), (2.0, 3.0))
        report = catania_bridge_check(rates, [np.int64(16)])
        assert report == catania_bridge_check(rates, [16])
        assert type(report.rows[0].m) is int
