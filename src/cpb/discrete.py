"""Exact discrete-time engine for the change-point birth process.

Time is divided into integer slots.  At most one arrival can land in each
slot; the arrival probability of slot r is the pre-change entry of the rate
schedule while r is at or before the switch slot, and the post-change entry
once r lies strictly beyond it, always indexed by the number of arrivals
already observed.  Everything here is exact: the infinite sum over switch
slots beyond the horizon collapses in closed form because those terms share
the all-pre-change likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChangePointLaw,
    DegenerateModelError,
    DiscreteHistory,
    CapacityError,
    InvalidScheduleError,
    PosteriorResult,
    PreconditionError,
    RateSchedule,
    shift_operator,
    survival_from_log_masses,
)

__all__ = [
    "DiscreteModel",
    "ShiftRatios",
    "ShiftIdentityReport",
    "joint_weight",
    "posterior_survival",
    "intensity",
    "step_intensity",
    "shift_ratios",
    "verify_shift_identities",
    "brute_force_posterior",
    "sample_discrete_path",
]

_ORACLE_SLOT_LIMIT = 16


@dataclass(frozen=True)
class DiscreteModel:
    """Per-slot arrival probabilities plus a slot-valued switch law."""

    rates: RateSchedule
    law: ChangePointLaw

    def __post_init__(self):
        if self.law.kind != "discrete":
            raise InvalidScheduleError("discrete model needs a slot-hazard switch law")
        if not self.rates.is_probability_schedule():
            raise InvalidScheduleError(
                "discrete model needs per-slot probabilities in (0, 1) with a repeating tail"
            )


@dataclass(frozen=True)
class ShiftRatios:
    """Multipliers picked up by the switch-slot weights under a single shift.

    Moving arrival l one slot later multiplies every weight with switch
    slot before the arrival by alpha, every weight with switch slot after
    it by gamma, and the weight with switch slot exactly at the arrival by
    delta.
    """

    alpha: float
    gamma: float
    delta: float


@dataclass(frozen=True)
class ShiftIdentityReport:
    """Measured versus predicted weight ratios for one admissible shift.

    ``rel_errors`` holds |measured / predicted - 1| per quantity, keyed
    alpha, gamma_mid, gamma_tail and delta; an empty block has no entry.
    """

    expected: ShiftRatios
    measured_alpha: float | None
    measured_gamma_mid: float | None
    measured_gamma_tail: float
    measured_delta: float
    rel_errors: dict[str, float]
    posterior: float
    posterior_shifted: float

    @property
    def max_rel_error(self) -> float:
        return max(self.rel_errors.values())


def _log_weights(model: DiscreteModel, h: DiscreteHistory) -> tuple[list[float], float]:
    """Log joint weights of the history with switch slots 1..n, plus the tail term.

    One pass over the slots carries three running sums: the log probability
    of no switch so far, and the log likelihood of the slots seen so far
    under the pre-change and under the post-change regime.  Switch slot j
    keeps slots up to j pre-change and the later ones post-change, so its
    weight is log hazard_j + keep_{j-1} + pre_j - post_j, plus the
    post-change total over all n slots.  Every switch slot beyond the
    horizon shares the all-pre-change likelihood, hence the tail term
    keep_n + pre_n.
    """
    rates, law = model.rates, model.law
    arrivals = set(h.arrival_slots)
    log_w = []
    log_keep = pre_sum = post_sum = 0.0
    count = 0
    for j in range(1, h.horizon_slot + 1):
        pre, post = rates.pre(count), rates.post(count)
        if j in arrivals:
            pre_sum += math.log(pre)
            post_sum += math.log(post)
            count += 1
        else:
            pre_sum += math.log1p(-pre)
            post_sum += math.log1p(-post)
        haz = law.hazard(j)
        log_w.append(math.log(haz) + log_keep + pre_sum - post_sum)
        log_keep += math.log1p(-haz)
    return [w + post_sum for w in log_w], log_keep + pre_sum


def _logsumexp(values: list[float]) -> float:
    m = max(values, default=-math.inf)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in values))


def log_joint_weight(model: DiscreteModel, h: DiscreteHistory, j: int) -> float:
    """Log joint probability of the history and switch slot j."""
    if j < 1:
        raise ValueError(f"switch slot must be >= 1, got {j}")
    n = h.horizon_slot
    log_w, log_tail = _log_weights(model, h)
    if j <= n:
        return log_w[j - 1]
    # beyond the horizon every slot is pre-change: narrow the tail's prior
    # mass P(switch > n) down to P(switch = j)
    law = model.law
    return (log_tail + math.log(law.hazard(j))
            + law.log_no_change_through(j - 1) - law.log_no_change_through(n))


def joint_weight(model: DiscreteModel, h: DiscreteHistory, j: int) -> float:
    """Probability of observing the history jointly with switch slot j."""
    return math.exp(log_joint_weight(model, h, j))


def posterior_survival(model: DiscreteModel, h: DiscreteHistory) -> float:
    """Posterior probability that the switch lies beyond the horizon slot."""
    log_w, log_tail = _log_weights(model, h)
    return survival_from_log_masses(_logsumexp(log_w), log_tail)


def intensity(model: DiscreteModel, h: DiscreteHistory) -> PosteriorResult:
    """Next-slot arrival probability: posterior mixture of the two per-slot rates."""
    return PosteriorResult.from_survival(model.rates, h.count, posterior_survival(model, h))


def step_intensity(model: DiscreteModel, h: DiscreteHistory) -> float:
    """Probability of an arrival in the next slot given the history."""
    return intensity(model, h).intensity


def shift_ratios(model: DiscreteModel, l: int) -> ShiftRatios:
    """Predicted weight multipliers for shifting arrival l one slot later."""
    if l < 1:
        raise IndexError(f"shift index must be >= 1, got {l}")
    post_prev = model.rates.post(l - 1)
    post_cur = model.rates.post(l)
    pre_prev = model.rates.pre(l - 1)
    pre_cur = model.rates.pre(l)
    alpha = (1.0 - post_prev) / (1.0 - post_cur)
    gamma = (1.0 - pre_prev) / (1.0 - pre_cur)
    delta = (1.0 - pre_prev) * post_prev / (pre_prev * (1.0 - post_cur))
    return ShiftRatios(alpha=alpha, gamma=gamma, delta=delta)


def verify_shift_identities(
    model: DiscreteModel, h: DiscreteHistory, l: int, rel_tol: float = 1e-12
) -> ShiftIdentityReport:
    """Measure the weight ratios produced by one admissible shift.

    Splits the switch-slot weights into the block before the shifted
    arrival, the block between it and the horizon, the beyond-horizon
    block, and the single weight at the arrival slot itself, and compares
    each measured ratio against the predicted multiplier.
    """
    shifted = shift_operator(h, l)
    if shifted == h:
        raise PreconditionError(f"shift of arrival {l} is not admissible for this history")

    expected = shift_ratios(model, l)
    slot = h.arrival_slots[l - 1]

    def blocks(hist: DiscreteHistory):
        log_w, log_tail = _log_weights(model, hist)
        before = _logsumexp(log_w[: slot - 1])
        at = log_w[slot - 1]
        mid = _logsumexp(log_w[slot:])
        return before, at, mid, log_tail

    a0, g0, b0, c0 = blocks(h)
    a1, g1, b1, c1 = blocks(shifted)

    # an empty block (arrival in the first or the last slot) has no ratio
    measured_alpha = math.exp(a1 - a0) if a0 > -math.inf else None
    measured_gamma_mid = math.exp(b1 - b0) if b0 > -math.inf else None
    measured_gamma_tail = math.exp(c1 - c0)
    measured_delta = math.exp(g1 - g0)

    pairs = {"alpha": (measured_alpha, expected.alpha),
             "gamma_mid": (measured_gamma_mid, expected.gamma),
             "gamma_tail": (measured_gamma_tail, expected.gamma),
             "delta": (measured_delta, expected.delta)}
    report = ShiftIdentityReport(
        expected=expected,
        measured_alpha=measured_alpha,
        measured_gamma_mid=measured_gamma_mid,
        measured_gamma_tail=measured_gamma_tail,
        measured_delta=measured_delta,
        rel_errors={name: abs(m / e - 1.0) for name, (m, e) in pairs.items() if m is not None},
        posterior=survival_from_log_masses(_logsumexp([a0, g0, b0]), c0),
        posterior_shifted=survival_from_log_masses(_logsumexp([a1, g1, b1]), c1),
    )
    if report.max_rel_error > rel_tol:
        raise AssertionError(
            f"shift identities violated: max relative error {report.max_rel_error:.3e} > {rel_tol:.1e}"
        )
    return report


def brute_force_posterior(model: DiscreteModel, h: DiscreteHistory) -> float:
    """Posterior survival by direct enumeration of the switch slot.

    Walks the slot dynamics once per candidate switch slot, multiplying the
    per-slot arrival / no-arrival probabilities as they come, with no
    factorisation tricks.  Serves as the independent cross-check for
    posterior_survival; capped at 16 slots.
    """
    n = h.horizon_slot
    if n > _ORACLE_SLOT_LIMIT:
        raise CapacityError(f"enumeration oracle handles at most {_ORACLE_SLOT_LIMIT} slots, got {n}")
    arrivals = set(h.arrival_slots)

    def walk(switch_slot: float) -> float:
        like = 1.0
        count = 0
        for r in range(1, n + 1):
            rate = model.rates.post(count) if r > switch_slot else model.rates.pre(count)
            if r in arrivals:
                like *= rate
                count += 1
            else:
                like *= 1.0 - rate
        return like

    change_total = 0.0
    keep = 1.0
    for j in range(1, n + 1):
        haz = model.law.hazard(j)
        change_total += keep * haz * walk(j)
        keep *= 1.0 - haz
    tail = keep * walk(math.inf)
    denom = change_total + tail
    if denom <= 0.0:
        raise DegenerateModelError("history has zero probability under this model")
    return tail / denom


def sample_discrete_path(
    model: DiscreteModel, horizon: int, seed: int | np.random.Generator = 0
) -> tuple[int | None, tuple[int, ...]]:
    """Simulate one path of slots 1..horizon.

    Draws the switch slot from its per-slot hazards first (None when it
    falls beyond the horizon, which is all later slots ever see), then
    flips one arrival coin per slot with the regime- and count-appropriate
    probability.  Reproducible for a fixed seed.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    switch: int | None = None
    for m in range(1, horizon + 1):
        if rng.random() < model.law.hazard(m):
            switch = m
            break

    slots: list[int] = []
    count = 0
    for r in range(1, horizon + 1):
        post = switch is not None and r > switch
        rate = model.rates.post(count) if post else model.rates.pre(count)
        if rng.random() < rate:
            slots.append(r)
            count += 1
    return switch, tuple(slots)
