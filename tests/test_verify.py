"""Verification harness: sweeps and searches."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpb import cli
from cpb.core import (
    ChangePointLaw,
    History,
    PreconditionError,
    RateSchedule,
    SearchFailureError,
    history_dominates,
    validate_rates,
)
from cpb.continuous import ContinuousModel, convergence_study, discretize, intensity
from cpb.verify import (
    SweepConfig,
    SweepReport,
    Witness,
    _evaluate_pair,
    _sample_chunk,
    _sweep_chunk,
    added_arrival_search,
    counterexample_added_arrival,
    reevaluate,
    theorem1_sweep,
)


class TestRemark5:
    def test_equal_multipliers_give_equality(self):
        A, B, C, D, gamma = 1.0, 2.0, 3.0, 4.0, 2.0
        assert C / (A + B + C + D) == C * gamma / (A * gamma + B * gamma + C * gamma + D * gamma)

    def test_worked_arithmetic(self):
        # alpha = 2 gamma, delta = 3 gamma, all blocks 1: 0.25 versus 1/7
        gamma = 0.5
        A = B = D = 1.0
        C = 1.0
        theta = C / (A + B + C + D)
        theta_prime = C * gamma / (A * 2 * gamma + B * gamma + C * gamma + D * 3 * gamma)
        assert theta == pytest.approx(0.25)
        assert theta_prime == pytest.approx(1.0 / 7.0)

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
        A, B, C, D, alpha, gamma, delta = 10.0, 0.1, 0.1, 0.1, 0.1, 1.0, 1.0
        assert C / (A + B + C + D) < C * gamma / (A * alpha + B * gamma + C * gamma + D * delta)


def chunk_instances(cfg):
    """Every (model, h_low, h_high) a sweep draws, chunk by chunk."""
    return [instance for start in range(0, cfg.instances, 64) for instance in _sample_chunk(cfg, start)]


def single_instance_report(cfg):
    """The SweepReport of a continuous sweep from the chunk sampler's
    instances, evaluated one at a time."""
    margins, violations = [], []
    for model, low, high in chunk_instances(cfg):
        values = _evaluate_pair("continuous", model, low, high)
        margin = (values["posterior_low"] - values["posterior_high"],
                  values["intensity_high"] - values["intensity_low"])
        margins.append(margin)
        if min(margin) < -cfg.tolerance:
            violations.append(Witness("continuous", model, low, high, margin=min(margin), **values))
    post, rise = zip(*margins)
    return SweepReport("continuous", cfg.instances, tuple(violations), min(post), min(rise))


class TestSamplersAdmissibleByConstruction:
    """The sweep's chunk sampler checks none of its draws: each model of a
    chunk must meet its engine's conditions by construction."""

    @staticmethod
    def chunk(seed, chunk, **kwargs):
        cfg = SweepConfig(instances=64 * (chunk + 1), seed=seed, **kwargs)
        return [validate_rates(model.rates) for model, _, _ in _sample_chunk(cfg, 64 * chunk)]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**63 - 1), st.integers(0, 10**4))
    def test_discrete_models_meet_plo_and_ser(self, seed, chunk):
        reports = self.chunk(seed, chunk, engine="discrete")
        assert len(reports) == 64
        assert all(report.plo and report.ser for report in reports)

    @pytest.mark.parametrize("require_catania", [False, True])
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), chunk=st.integers(0, 10**4))
    def test_continuous_models_dominate(self, require_catania, seed, chunk):
        reports = self.chunk(seed, chunk, engine="continuous", require_catania=require_catania)
        assert len(reports) == 64
        assert all(report.assu_broad for report in reports)
        assert all(report.catania for report in reports) or not require_catania


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

    @pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1e-9])
    def test_tolerance_must_be_positive(self, tolerance):
        # against a nan tolerance no margin could fail, so the sweep passed anything
        with pytest.raises(ValueError, match="tolerance must be positive"):
            SweepConfig(engine="continuous", tolerance=tolerance)

    def test_tolerance_must_be_finite(self):
        # no margin falls below -inf, so the sweep passed anything
        with pytest.raises(ValueError, match="^tolerance must be finite, got inf$"):
            SweepConfig(engine="continuous", tolerance=math.inf)

    def test_nan_tolerance_exits_before_any_row(self, tmp_path, capsys):
        cfg = Path(__file__).resolve().parent / "golden" / "cfg" / "readme.cfg"
        path = tmp_path / "nan-tolerance.cfg"
        path.write_text(cfg.read_text().replace("tolerance = 1e-9", "tolerance = nan"))
        assert cli.main(["verify", str(path), "--suite", "theorem1"]) == cli.EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "precondition error: tolerance must be positive, got nan\n"

    def test_equal_rate_pairs_have_zero_margin(self):
        # an instance whose shifts all leave its history in place (or that
        # has no arrival to shift) compares a history with itself: both of
        # its margins are exactly 0
        cfg = SweepConfig(engine="discrete", instances=100, seed=11)
        margins = [m for start in (0, 64) for m in _sweep_chunk(cfg, start)]
        equal = []
        for (_, low, high), (post_margin, int_margin, _) in zip(chunk_instances(cfg), margins):
            if low == high:
                equal.append(low)
                assert (post_margin, int_margin) == (0.0, 0.0)
        assert len(margins) == 100 and 0 < len(equal) < 100

    @pytest.mark.parametrize("engine", ["discrete", "continuous"])
    def test_instance_draws_do_not_depend_on_the_instance_count(self, engine):
        # a chunk always draws all 64 of its instances and keeps a prefix, so
        # instance i is the same in a sweep of 65 instances and one of 200
        short, long = (SweepConfig(engine=engine, instances=n, seed=7) for n in (65, 200))
        assert chunk_instances(short) == chunk_instances(long)[:65]
        margins = {cfg.instances: [m[:2] for start in range(0, cfg.instances, 64)
                                   for m in _sweep_chunk(cfg, start)] for cfg in (short, long)}
        assert margins[65] == margins[200][:65]

    @pytest.mark.parametrize("engine", ["discrete", "continuous"])
    def test_process_pool_matches_serial(self, engine, monkeypatch):
        # every chunk seeds its own generator, so the worker count must not
        # change the report; the continuous sampler without increasing gaps
        # yields violations, so witnesses cross the process boundary too
        cfg = SweepConfig(engine=engine, instances=300, seed=7, require_catania=False)
        monkeypatch.setenv("THREADS", "1")
        serial = theorem1_sweep(cfg)
        monkeypatch.setenv("THREADS", "2")
        pooled = theorem1_sweep(cfg)
        for name in SweepReport._fields:
            assert getattr(pooled, name) == getattr(serial, name), name
        if engine == "continuous":
            assert serial.violations

    @pytest.mark.parametrize("instances", [1, 63, 64, 65, 200])
    def test_chunks_match_single_instances(self, instances, monkeypatch):
        # the sweep draws and evaluates its instances in chunks of 64: each
        # instance's margins must be the ones that its own fields give when
        # evaluated alone, and the report the one those values make, with
        # one worker or two.  The sampler without increasing gaps yields
        # violations, and each witness's values are what the engines give
        # its own fields
        cfg = SweepConfig(engine="continuous", instances=instances, seed=7, require_catania=False)
        chunked = [margins[:2] for start in range(0, instances, 64) for margins in _sweep_chunk(cfg, start)]
        single = []
        for model, low, high in chunk_instances(cfg):
            values = _evaluate_pair("continuous", model, low, high)
            single.append((values["posterior_low"] - values["posterior_high"],
                           values["intensity_high"] - values["intensity_low"]))
        assert chunked == single
        monkeypatch.setenv("THREADS", "1")
        serial = theorem1_sweep(cfg)
        assert serial == single_instance_report(cfg)
        monkeypatch.setenv("THREADS", "2")
        assert theorem1_sweep(cfg) == serial
        assert serial.violations or instances == 1
        for w in serial.violations:
            assert reevaluate(w) == w

    @pytest.mark.parametrize("instances", [1, 50, 64])
    def test_one_chunk_starts_no_pool(self, instances, monkeypatch):
        # a sweep of one chunk has no work to share: it runs serially
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk sweep built a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("THREADS", "2")
        cfg = SweepConfig(engine="discrete", instances=instances, seed=3)
        assert theorem1_sweep(cfg).pairs == instances

    def test_continuous_sweep_quadrature_evaluations(self, monkeypatch):
        # a deterministic cost guard on the weibull rule, counted in integrand
        # evaluations (21 nodes a panel, every round): the first stretch (0, b]
        # is integrated in a variable without the u^(shape - 1) endpoint
        # singularity, so it stays within 4 Gauss-Kronrod panels.  A batch
        # holds the first stretches of a whole chunk of instances, so they are
        # told apart by their own column constants; identical first stretches
        # (two empty histories of one instance) are evaluated alike, so their
        # count is divided by how many of them the batch's first round holds
        from cpb import _weibull

        batch, integrand, batches, total = _weibull._weibull_batch, _weibull._weibull_log_integrand, [], [0]

        def counting_batch(*args):
            # per batch: {first-stretch column constants: [stretches, evaluations]}
            batches.append({})
            return batch(*args)

        def counting_integrand(x, offset, mapped, k):
            # a batch's first round holds one panel of each of its stretches,
            # and it is the round that finds its dictionary empty
            first_round, found = not batches[-1], batches[-1]
            # the panels of a first stretch are mapped and start from x = 0
            for column in np.flatnonzero(mapped & (k[0] == 0.0)).tolist():
                count = found.setdefault(tuple(k[:, column].tolist()), [0, 0])
                count[0] += first_round
                count[1] += x.shape[0]
            total[0] += x.size
            return integrand(x, offset, mapped, k)

        monkeypatch.setattr(_weibull, "_weibull_batch", counting_batch)
        monkeypatch.setattr(_weibull, "_weibull_log_integrand", counting_integrand)
        monkeypatch.setenv("THREADS", "1")
        theorem1_sweep(SweepConfig(engine="continuous", instances=200, seed=0))
        first = [evaluations / stretches for found in batches for stretches, evaluations in found.values()]
        assert first and max(first) <= 4 * 21
        assert total[0] < 12_000

    def test_exact_and_oracle_engines_agree_on_sweep_instances(self):
        # the instances the sweep draws must get the same verdict from the
        # factorised engine and from the enumeration oracle
        from cpb.discrete import brute_force_posterior, posterior_survival

        for model, h_low, h_high in chunk_instances(SweepConfig(engine="discrete", instances=100, seed=31)):
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
    @staticmethod
    def witnesses() -> list[Witness]:
        """Two no-arrival scenarios where window length pushes belief opposite ways.

        The first law concentrates early switch mass and pairs with a much
        larger post-change rate, so a longer silent window makes "no switch
        yet" more credible.  The second uses a memoryless law with nearly
        equal rates, so the silent evidence is weak and prior decay wins.
        """
        h_short, h_long = History(1.0), History(3.0)
        law_a = ChangePointLaw.table([(0.05, 0.0), (0.1, 0.5), (99.0, 0.5), (100.0, 1.0)])
        law_b = ChangePointLaw.exponential(1.0)
        witnesses = []
        for model in (ContinuousModel(RateSchedule((0.05,), (8.0,)), law_a),
                      ContinuousModel(RateSchedule((1.0,), (1.2,)), law_b)):
            values = _evaluate_pair("continuous", model, h_short, h_long)
            margin = values["posterior_high"] - values["posterior_low"]
            witnesses.append(Witness("continuous", model, h_short, h_long, margin=margin, **values))
        return witnesses

    def test_both_directions_witnessed(self):
        up, down = self.witnesses()
        assert up.posterior_low < up.posterior_high
        assert down.posterior_low > down.posterior_high
        # windows differ on purpose: the order does not apply across horizons
        assert up.history_low.horizon != up.history_high.horizon

    def test_witnesses_reevaluate(self):
        up, down = self.witnesses()
        for w in (up, down):
            out = reevaluate(w)
            assert out.posterior_low == pytest.approx(w.posterior_low, abs=1e-10)
            assert out.posterior_high == pytest.approx(w.posterior_high, abs=1e-10)

    def test_same_window_forces_equality(self):
        model = ContinuousModel(RateSchedule((1.0,), (1.2,)), ChangePointLaw.exponential(1.0))
        h = History(1.0)
        assert intensity(model, h).prob_before == intensity(model, h).prob_before


class TestCataniaBridge:
    """Strictly increasing rate gaps survive the slot grid: the survival-odds
    condition (``validate_rates(...).ser``) of the rates divided by the grid
    factor m holds for every m from some m0 on, and has no verdict while a
    scaled rate reaches 1.  A factor that is no grid is refused before any
    row."""

    @staticmethod
    def ser(rates, m_list):
        return [validate_rates(rates.scaled(1.0 / m)).ser for m in m_list]

    @staticmethod
    def grid_rows(rates, m_list):
        # the program's grid path: convergence_study snaps a continuous
        # model with these rates onto each grid factor in turn
        model = ContinuousModel(rates, ChangePointLaw.exponential(1.0))
        return convergence_study(model, History(1.0, (0.5,)), m_list)

    def test_increasing_gaps_hold_for_large_grids(self):
        rates = RateSchedule((1.0, 1.0), (2.0, 3.0))
        assert validate_rates(rates).catania
        assert self.ser(rates, [2, 4, 8, 16, 64, 256]) == [None] + [True] * 5

    def test_random_increasing_gaps_hold_from_some_grid_on(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            size = int(rng.integers(1, 6))
            pre = rng.uniform(0.2, 2.0, size=size)
            gaps = rng.uniform(0.02, 0.8, size=size).cumsum()
            rates = RateSchedule(pre.tolist(), (pre + gaps).tolist())
            seen = [s for s in self.ser(rates, [2 ** e for e in range(21)]) if s is not None]
            assert seen[-1] and all(seen[seen.index(True):])

    def test_tied_gaps_borderline(self):
        # not strictly increasing, and the condition holds with equality on
        # every grid: the two products it compares are the same floats
        rates = RateSchedule((1.0, 1.0), (2.0, 2.0))
        assert not validate_rates(rates).catania
        assert self.ser(rates, [8, 64, 512]) == [True] * 3

    def test_too_small_grid_inadmissible(self):
        rates = RateSchedule((1.0, 1.0), (2.0, 3.0))
        assert self.ser(rates, [1, 2, 16]) == [None, None, True]

    def test_requires_strict_dominance(self):
        # the gap shrinks from 1 to 0: the condition fails on every grid
        rates = RateSchedule((1.0, 2.0), (2.0, 2.0))
        assert not validate_rates(rates).assu_strict
        assert self.ser(rates, [8, 64, 512]) == [False] * 3

    @pytest.mark.parametrize("m_list, bad", [([0, 4], 0), ([4, -2], -2)])
    def test_factor_below_one_refused_before_any_row(self, m_list, bad):
        rates = RateSchedule((1.0, 1.0), (2.0, 3.0))
        with pytest.raises(PreconditionError, match=f"^grid factor must be >= 1, got {bad}$"):
            self.grid_rows(rates, m_list)

    @pytest.mark.parametrize("m", [2.5, 16.0])
    def test_float_factor_refused_before_any_row(self, m):
        # 2.5 is not truncated to a grid of 2
        rates = RateSchedule((1.0, 1.0), (2.0, 3.0))
        with pytest.raises(PreconditionError, match=f"^grid factor must be an integer, got {m}$"):
            self.grid_rows(rates, [4, m])

    def test_numpy_integer_factor_accepted(self):
        rates = RateSchedule((1.0, 1.0), (2.0, 3.0))
        rows = self.grid_rows(rates, [np.int64(16)])
        assert rows == self.grid_rows(rates, [16])
        assert type(rows[0].m) is int
        # the grid model carries the scaled rates whose condition the bridge reads
        model = ContinuousModel(rates, ChangePointLaw.exponential(1.0))
        disc, _ = discretize(model, History(1.0, (0.5,)), np.int64(16))
        assert validate_rates(disc.rates).ser is True
        assert self.ser(rates, [16]) == [True]
