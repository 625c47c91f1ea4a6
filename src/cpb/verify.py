"""Randomized property sweeps and counterexample searches.

The monotonicity sweeps draw admissible models, build comparable history
pairs by construction (never by rejection), and check that later arrivals
push the posterior survival down and the intensity up.  The searches
reproduce the boundary phenomena: what happens when an extra arrival is
added, and why windows of different lengths cannot be compared.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import continuous as cont
from . import discrete as disc
from .core import (
    ChangePointLaw,
    DiscreteHistory,
    History,
    PreconditionError,
    RateSchedule,
    SearchFailureError,
    shift_operator,
    validate_rates,
)

__all__ = [
    "SweepConfig",
    "Witness",
    "SweepReport",
    "CataniaBridgeRow",
    "CataniaBridgeReport",
    "theorem1_sweep",
    "counterexample_added_arrival",
    "added_arrival_witness",
    "added_arrival_search",
    "interval_mismatch_examples",
    "remark5_check",
    "catania_bridge_check",
    "reevaluate",
]


# Sweep sampler ranges: per-slot probabilities and slots (discrete engine),
# rates and horizons (continuous), listed counts, and the weibull share.
RATE_LOW, RATE_HIGH = 0.05, 0.5
SLOT_LOW, SLOT_HIGH = 4, 16
CONT_RATE_LOW, CONT_RATE_HIGH = 0.2, 2.0
HORIZON_LOW, HORIZON_HIGH = 0.5, 3.0
MAX_COUNT = 5
WEIBULL_SHARE = 0.25

# Added-arrival search: grid refinement factor around the best coarse cell,
# and the intensity drop a witness must exceed.
REFINE = 10
ADDED_ARRIVAL_MARGIN = 1e-6


@dataclass(frozen=True)
class SweepConfig:
    """Knobs for one randomized monotonicity sweep on ``engine``, "discrete" or "continuous"."""

    engine: str = "discrete"
    instances: int = 10_000
    seed: int = 0
    tolerance: float = 1e-12
    # continuous engine only: additionally require strictly increasing rate
    # gaps.  Dominance alone does NOT imply the monotonicity (schedules whose
    # early-count gap dwarfs later ones reverse it); the increasing-gap
    # sampler is the hypothesis set under which the sweep must stay clean.
    require_catania: bool = False

    def __post_init__(self):
        if self.engine not in ("discrete", "continuous"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class Witness:
    """A self-contained record of one evaluated pair of histories.

    Carries the model and both histories so the recorded values can be
    reproduced by re-running the engines on the fields alone.
    """

    engine: str
    model: object
    history_low: object
    history_high: object
    posterior_low: float
    posterior_high: float
    intensity_low: float
    intensity_high: float
    margin: float
    note: str = ""


@dataclass(frozen=True)
class SweepReport:
    engine: str
    pairs: int
    violations: tuple[Witness, ...]
    min_posterior_margin: float
    max_posterior_margin: float
    min_intensity_margin: float
    max_intensity_margin: float

    @property
    def passed(self) -> bool:
        return not self.violations


def _evaluate_pair(engine: str, model, h_low, h_high) -> dict[str, float]:
    """The four Witness value fields of a history pair in the requested engine."""
    intensity = disc.intensity if engine == "discrete" else cont.intensity
    low, high = intensity(model, h_low), intensity(model, h_high)
    return {"posterior_low": low.prob_before, "posterior_high": high.prob_before,
            "intensity_low": low.intensity, "intensity_high": high.intensity}


def _sample_discrete_model(cfg: SweepConfig, rng: np.random.Generator) -> disc.DiscreteModel:
    """Schedule guaranteed to satisfy the discrete monotonicity conditions.

    Works in log-survival units: the condition that the survival-odds
    ratios stay >= 1 is exactly "the gap between the regimes' log survival
    losses never shrinks as the count grows", so sampling a positive
    nondecreasing gap sequence satisfies it by construction.
    """
    for _ in range(100):
        size = int(rng.integers(2, MAX_COUNT + 2))
        s_pre = -np.log1p(-rng.uniform(RATE_LOW, RATE_HIGH, size=size))
        gap = rng.uniform(0.05, 0.4) + np.concatenate(
            ([0.0], np.cumsum(rng.uniform(0.0, 0.3, size=size - 1)))
        )
        s_post = s_pre + gap
        pre = tuple(-np.expm1(-s_pre))
        post = tuple(-np.expm1(-s_post))
        rates = RateSchedule(pre, post)
        hazards = tuple(rng.uniform(0.02, 0.4, size=int(rng.integers(1, 4))))
        model = disc.DiscreteModel(rates, ChangePointLaw.discrete_hazard(hazards))
        report = validate_rates(rates, bound=SLOT_HIGH + MAX_COUNT)
        if report.plo and report.ser:
            return model
    raise SearchFailureError("discrete model sampler kept producing inadmissible schedules")


def _sample_continuous_model(cfg: SweepConfig, rng: np.random.Generator) -> cont.ContinuousModel:
    """Schedule with post-change rates dominating at least broadly.

    With ``require_catania`` the gaps are strictly increasing cumulative
    sums; otherwise they are free draws (including exact ties, since
    dominance is only required broadly).
    """
    for _ in range(100):
        size = int(rng.integers(2, MAX_COUNT + 2))
        pre = rng.uniform(CONT_RATE_LOW, CONT_RATE_HIGH, size=size)
        if cfg.require_catania:
            gaps = np.cumsum(rng.uniform(0.02, 0.8, size=size))
        else:
            gaps = rng.uniform(0.0, CONT_RATE_HIGH, size=size)
            gaps[rng.random(size) < 0.15] = 0.0
        rates = RateSchedule(tuple(pre), tuple(pre + gaps))
        if rng.random() < WEIBULL_SHARE:
            law = ChangePointLaw.weibull(rng.uniform(0.8, 1.8), rng.uniform(0.5, 2.0))
        else:
            law = ChangePointLaw.exponential(rng.uniform(0.3, 1.5))
        report = validate_rates(rates)
        if report.assu_broad and (not cfg.require_catania or report.catania):
            return cont.ContinuousModel(rates, law)
    raise SearchFailureError("continuous model sampler kept producing inadmissible schedules")


def _sample_discrete_pair(cfg: SweepConfig, rng: np.random.Generator):
    n = int(rng.integers(SLOT_LOW, SLOT_HIGH + 1))
    k = int(rng.integers(0, min(MAX_COUNT, n) + 1))
    slots = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
    low = DiscreteHistory(n, slots)
    high = low
    for _ in range(int(rng.geometric(0.25))):
        if k == 0:
            break
        high = shift_operator(high, int(rng.integers(1, k + 1)))
    return low, high


def _sample_continuous_pair(cfg: SweepConfig, rng: np.random.Generator):
    t = rng.uniform(HORIZON_LOW, HORIZON_HIGH)
    k = int(rng.integers(0, MAX_COUNT + 1))
    a = np.sort(rng.uniform(0.0, t, size=k))
    b = np.sort(rng.uniform(0.0, t, size=k))
    low = History(t, tuple(np.minimum(a, b)))
    high = History(t, tuple(np.maximum(a, b)))
    return low, high


def _sweep_instance(cfg: SweepConfig, index: int):
    rng = np.random.default_rng((cfg.seed, index))
    if cfg.engine == "discrete":
        model = _sample_discrete_model(cfg, rng)
        h_low, h_high = _sample_discrete_pair(cfg, rng)
    else:
        model = _sample_continuous_model(cfg, rng)
        h_low, h_high = _sample_continuous_pair(cfg, rng)
    values = _evaluate_pair(cfg.engine, model, h_low, h_high)
    post_margin = values["posterior_low"] - values["posterior_high"]
    int_margin = values["intensity_high"] - values["intensity_low"]
    witness = None
    if post_margin < -cfg.tolerance or int_margin < -cfg.tolerance:
        witness = Witness(cfg.engine, model, h_low, h_high, margin=min(post_margin, int_margin),
                          note="monotonicity violated", **values)
    return post_margin, int_margin, witness


def _worker_count() -> int:
    raw = os.environ.get("THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def theorem1_sweep(cfg: SweepConfig) -> SweepReport:
    """Check monotonicity on randomly drawn comparable history pairs.

    Every instance derives its own generator from (seed, index), so the
    outcome is identical whether instances run serially or across the
    worker count set by the THREADS environment variable.
    """
    workers = _worker_count()
    indices = range(cfg.instances)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_instance, [cfg] * cfg.instances, indices, chunksize=64))
    else:
        results = [_sweep_instance(cfg, i) for i in indices]

    post_margins = [r[0] for r in results]
    int_margins = [r[1] for r in results]
    violations = tuple(r[2] for r in results if r[2] is not None)
    return SweepReport(
        engine=cfg.engine,
        pairs=cfg.instances,
        violations=violations,
        min_posterior_margin=min(post_margins),
        max_posterior_margin=max(post_margins),
        min_intensity_margin=min(int_margins),
        max_intensity_margin=max(int_margins),
    )


def reevaluate(witness: Witness) -> Witness:
    """Recompute a witness's values from its own model and histories."""
    return replace(witness, **_evaluate_pair(
        witness.engine, witness.model, witness.history_low, witness.history_high))


# -- added-arrival boundary search --------------------------------------------


def added_arrival_search(model: cont.ContinuousModel, t_max: float = 5.0, step: float = 0.05):
    """Scan (horizon, arrival instant) for an intensity drop after one arrival.

    Compares the intensity of a single-arrival history against the empty
    history on the same window and returns the most negative margin found,
    refining the grid once around the best coarse cell.

    Returns (margin, t, t1, intensity_one, intensity_empty).
    """

    def margin_at(t: float, t1: float, mu_empty: float):
        mu_one = cont.intensity(model, History(t, (t1,))).intensity
        return mu_one - mu_empty, mu_one

    best = (math.inf, 0.0, 0.0, 0.0, 0.0)
    ts = np.arange(step, t_max + step / 2, step)
    for t in ts:
        mu_empty = cont.intensity(model, History(t)).intensity
        for t1 in np.arange(step, t, step):
            if t1 >= t:
                continue
            m, mu_one = margin_at(t, t1, mu_empty)
            if m < best[0]:
                best = (m, float(t), float(t1), mu_one, mu_empty)
    # refine around the best coarse cell
    _, t0, t10, _, _ = best
    fine = step / REFINE
    for t in np.arange(max(fine, t0 - step), min(t_max, t0 + step) + fine / 2, fine):
        mu_empty = cont.intensity(model, History(t)).intensity
        for t1 in np.arange(max(fine, t10 - step), min(t - fine, t10 + step) + fine / 2, fine):
            if t1 >= t:
                continue
            m, mu_one = margin_at(float(t), float(t1), mu_empty)
            if m < best[0]:
                best = (m, float(t), float(t1), mu_one, mu_empty)
    return best


def counterexample_added_arrival(M: float, t_max: float = 5.0, step: float = 0.05) -> Witness:
    """Search the two-level preset for an added arrival that lowers intensity.

    The preset keeps the pre-change rate at 1 for both counts, sets the
    post-change rate to 2 for the first arrival and to M for the second,
    with a unit-rate exponential switch law.  Raises when no strict drop
    beyond the margin exists on the searched grid; see the companion
    search with the post-change levels swapped for a preset where the
    drop does occur.
    """
    if M < 10.0:
        raise PreconditionError(f"the search expects M >= 10, got {M}")
    model = cont.ContinuousModel(
        RateSchedule((1.0, 1.0), (2.0, float(M))), ChangePointLaw.exponential(1.0)
    )
    return added_arrival_witness(model, t_max=t_max, step=step)


def added_arrival_witness(model: cont.ContinuousModel, t_max: float = 5.0, step: float = 0.05) -> Witness:
    """The empty history and its one-arrival extension where intensity drops most.

    Runs added_arrival_search on the model and raises when no drop beyond
    ADDED_ARRIVAL_MARGIN exists on the searched grid.
    """
    found, t, t1, _, _ = added_arrival_search(model, t_max=t_max, step=step)
    if found >= -ADDED_ARRIVAL_MARGIN:
        raise SearchFailureError(
            f"no intensity drop found: min margin {found:.6g} at t={t:.4g}, t1={t1:.4g} "
            f"(the one-arrival intensity never falls below the empty-history one here)"
        )
    h_low, h_high = History(t), History(t, (t1,))
    return Witness(
        "continuous", model, h_low, h_high, margin=found,
        note="arrival counts differ (0 vs 1), so the comparable-history order does not apply",
        **_evaluate_pair("continuous", model, h_low, h_high),
    )


def interval_mismatch_examples() -> tuple[Witness, Witness]:
    """Two no-arrival scenarios where window length pushes belief opposite ways.

    The first law concentrates early switch mass and pairs with a much
    larger post-change rate, so a longer silent window makes "no switch
    yet" more credible.  The second uses a memoryless law with nearly
    equal rates, so the silent evidence is weak and prior decay wins.
    Both directions are verified strictly before being returned.
    """
    h_short, h_long = History(1.0), History(3.0)

    def witness(model, direction: float, note: str, failure: str) -> Witness:
        # direction +1: the longer window must raise survival; -1: lower it
        values = _evaluate_pair("continuous", model, h_short, h_long)
        margin = direction * (values["posterior_high"] - values["posterior_low"])
        if not margin > 0.0:
            raise SearchFailureError(failure)
        return Witness("continuous", model, h_short, h_long, margin=margin, note=note, **values)

    law_a = ChangePointLaw.table([(0.05, 0.0), (0.1, 0.5), (99.0, 0.5), (100.0, 1.0)])
    law_b = ChangePointLaw.exponential(1.0)
    return (
        witness(cont.ContinuousModel(RateSchedule((0.05,), (8.0,)), law_a), 1.0,
                "longer silence raises survival belief",
                "early-mass scenario did not raise survival belief"),
        witness(cont.ContinuousModel(RateSchedule((1.0,), (1.2,)), law_b), -1.0,
                "longer silence lowers survival belief",
                "slow-hazard scenario did not lower survival belief"),
    )


def remark5_check(
    A: float, B: float, C: float, D: float, alpha: float, gamma: float, delta: float
) -> bool:
    """Compare the plain ratio against its reweighted counterpart.

    With all constants positive and alpha/gamma >= 1, delta/gamma >= 1,
    C/(A+B+C+D) >= C*gamma/(A*alpha + B*gamma + C*gamma + D*delta) always
    holds; outside the precondition the returned comparison carries no
    guarantee.
    """
    theta = C / (A + B + C + D)
    theta_prime = C * gamma / (A * alpha + B * gamma + C * gamma + D * delta)
    return theta >= theta_prime


# -- grid bridge for the gap conditions ----------------------------------------


@dataclass(frozen=True)
class CataniaBridgeRow:
    m: int
    admissible: bool
    ser_holds: bool | None
    min_margin: float | None
    borderline: bool


@dataclass(frozen=True)
class CataniaBridgeReport:
    catania_holds: bool
    rows: tuple[CataniaBridgeRow, ...]

    @property
    def least_m(self) -> int | None:
        for row in self.rows:
            if row.admissible and row.ser_holds:
                return row.m
        return None


def catania_bridge_check(rates: RateSchedule, m_list) -> CataniaBridgeReport:
    """Check that strictly increasing rate gaps survive slot discretisation.

    For each grid factor, divides the rates by m and evaluates the
    survival-odds condition of the discrete engine; with strictly
    increasing gaps it must hold for every sufficiently large factor.  A
    row is flagged borderline when the worst margin is within one squared
    cell probability of zero, which is where schedules with tied gaps sit.
    """
    base = validate_rates(rates)
    if not base.assu_strict:
        raise PreconditionError("bridge check needs strictly dominating post-change rates")
    bound = rates.size + 1
    rows: list[CataniaBridgeRow] = []
    for m in sorted(int(m) for m in m_list):
        if rates.max_rate() / m >= 1.0:
            rows.append(
                CataniaBridgeRow(m=m, admissible=False, ser_holds=None, min_margin=None, borderline=False)
            )
            continue
        scaled = rates.scaled(1.0 / m)
        margins = []
        for k in range(1, bound + 1):
            num = (1.0 - scaled.post(k - 1)) * (1.0 - scaled.pre(k))
            den = (1.0 - scaled.pre(k - 1)) * (1.0 - scaled.post(k))
            margins.append(num / den - 1.0)
        min_margin = min(margins)
        cell = (rates.max_rate() / m) ** 2
        rows.append(
            CataniaBridgeRow(
                m=m,
                admissible=True,
                ser_holds=min_margin >= 0.0,
                min_margin=min_margin,
                borderline=abs(min_margin) <= cell,
            )
        )
    return CataniaBridgeReport(catania_holds=base.catania, rows=tuple(rows))
