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
    "step_intensity",
    "shift_ratios",
    "verify_shift_identities",
    "brute_force_posterior",
    "sample_discrete_path",
]

# Below this horizon plain products are exact enough and cheapest; past it
# the per-slot products can underflow, so sums move to log space.
_LINEAR_SLOT_LIMIT = 50

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
    """Measured versus predicted weight ratios for one admissible shift."""

    expected: ShiftRatios
    measured_alpha: float | None
    measured_gamma_mid: float | None
    measured_gamma_tail: float
    measured_delta: float
    max_rel_error: float
    posterior: float
    posterior_shifted: float


def _slot_log_factors(model: DiscreteModel, h: DiscreteHistory):
    """Per-slot log factors under each regime, for slots 1..n.

    Returns (log_pre, log_post) arrays where entry r-1 is the log
    probability of slot r's outcome (arrival or not) when the slot sits
    before respectively after the switch.
    """
    n = h.horizon_slot
    slots = np.arange(1, n + 1)
    arr = np.asarray(h.arrival_slots, dtype=np.int64)
    counts = np.searchsorted(arr, slots, side="left")  # arrivals strictly before slot r
    is_arrival = np.isin(slots, arr)
    pre = np.array([model.rates.pre(int(c)) for c in counts])
    post = np.array([model.rates.post(int(c)) for c in counts])
    log_pre = np.where(is_arrival, np.log(pre), np.log1p(-pre))
    log_post = np.where(is_arrival, np.log(post), np.log1p(-post))
    return log_pre, log_post


def _log_switch_masses(model: DiscreteModel, h: DiscreteHistory):
    """log P(switch = j) for j = 1..n and log P(switch > n)."""
    n = h.horizon_slot
    log_haz = np.array([math.log(model.law.hazard(j)) for j in range(1, n + 1)])
    log_keep = np.array([math.log1p(-model.law.hazard(j)) for j in range(1, n + 1)])
    log_surv_prefix = np.concatenate(([0.0], np.cumsum(log_keep)))
    log_mass = log_haz + log_surv_prefix[:-1]
    return log_mass, log_surv_prefix[n]


def _log_joint_weights(model: DiscreteModel, h: DiscreteHistory):
    """Log weights for switch slots 1..n plus the closed-form beyond-horizon term.

    The weight of switch slot j factorises slot by slot: slots up to j use
    pre-change factors, slots beyond it post-change ones, so prefix sums
    give all n weights in one pass.  Every switch slot beyond the horizon
    shares the all-pre-change likelihood, hence the tail term is the
    beyond-horizon prior mass times that single likelihood.
    """
    n = h.horizon_slot
    log_pre, log_post = _slot_log_factors(model, h)
    p0 = np.concatenate(([0.0], np.cumsum(log_pre)))
    p1 = np.concatenate(([0.0], np.cumsum(log_post)))
    log_mass, log_prior_tail = _log_switch_masses(model, h)
    js = np.arange(1, n + 1)
    log_w = log_mass + p0[js] + (p1[n] - p1[js])
    log_tail = log_prior_tail + p0[n]
    return log_w, log_tail


def log_joint_weight(model: DiscreteModel, h: DiscreteHistory, j: int) -> float:
    """Log joint probability of the history and switch slot j."""
    if j < 1:
        raise ValueError(f"switch slot must be >= 1, got {j}")
    n = h.horizon_slot
    if j <= n:
        log_w, _ = _log_joint_weights(model, h)
        return float(log_w[j - 1])
    # beyond the horizon every slot is pre-change
    log_pre, _ = _slot_log_factors(model, h)
    log_mass = math.log(model.law.hazard(j)) + model.law.log_no_change_through(j - 1)
    return log_mass + float(np.sum(log_pre))


def joint_weight(model: DiscreteModel, h: DiscreteHistory, j: int) -> float:
    """Probability of observing the history jointly with switch slot j."""
    return math.exp(log_joint_weight(model, h, j))


def _linear_weights(model: DiscreteModel, h: DiscreteHistory):
    """Plain-product weights for switch slots 1..n plus the tail term."""
    n = h.horizon_slot
    arr = set(h.arrival_slots)
    pre_f = np.empty(n)
    post_f = np.empty(n)
    count = 0
    for r in range(1, n + 1):
        hit = r in arr
        pre = model.rates.pre(count)
        post = model.rates.post(count)
        pre_f[r - 1] = pre if hit else 1.0 - pre
        post_f[r - 1] = post if hit else 1.0 - post
        if hit:
            count += 1
    pre_prefix = np.concatenate(([1.0], np.cumprod(pre_f)))
    post_suffix = np.concatenate((np.cumprod(post_f[::-1])[::-1], [1.0]))
    mass = np.empty(n)
    keep = 1.0
    for j in range(1, n + 1):
        haz = model.law.hazard(j)
        mass[j - 1] = keep * haz
        keep *= 1.0 - haz
    weights = mass * pre_prefix[1:] * post_suffix[1:]
    tail = keep * pre_prefix[n]
    return weights, tail


def posterior_survival(model: DiscreteModel, h: DiscreteHistory) -> float:
    """Posterior probability that the switch lies beyond the horizon slot."""
    n = h.horizon_slot
    if n + h.count <= _LINEAR_SLOT_LIMIT:
        weights, tail = _linear_weights(model, h)
        denom = tail + float(np.sum(weights))
        if denom <= 0.0:
            raise DegenerateModelError("history has zero probability under this model")
        return tail / denom
    log_w, log_tail = _log_joint_weights(model, h)
    return survival_from_log_masses(_logsumexp(log_w), log_tail)


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values)) if values.size else -math.inf
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.sum(np.exp(values - m))))


def step_intensity(model: DiscreteModel, h: DiscreteHistory) -> float:
    """Probability of an arrival in the next slot given the history.

    Equals the posterior mixture of the two per-slot rates at the current
    arrival count.
    """
    return PosteriorResult.from_survival(model.rates, h.count, posterior_survival(model, h)).intensity


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
        weights, tail = _linear_weights(model, hist)
        before = float(np.sum(weights[: slot - 1]))
        at = float(weights[slot - 1])
        mid = float(np.sum(weights[slot:]))
        return before, at, mid, tail

    a0, g0, b0, c0 = blocks(h)
    a1, g1, b1, c1 = blocks(shifted)

    measured_alpha = a1 / a0 if a0 > 0.0 else None
    measured_gamma_mid = b1 / b0 if b0 > 0.0 else None
    measured_gamma_tail = c1 / c0
    measured_delta = g1 / g0

    errors = [abs(measured_gamma_tail / expected.gamma - 1.0),
              abs(measured_delta / expected.delta - 1.0)]
    if measured_alpha is not None:
        errors.append(abs(measured_alpha / expected.alpha - 1.0))
    if measured_gamma_mid is not None:
        errors.append(abs(measured_gamma_mid / expected.gamma - 1.0))
    max_rel_error = max(errors)
    if max_rel_error > rel_tol:
        raise AssertionError(
            f"shift identities violated: max relative error {max_rel_error:.3e} > {rel_tol:.1e}"
        )

    denom0 = a0 + g0 + b0 + c0
    denom1 = a1 + g1 + b1 + c1
    return ShiftIdentityReport(
        expected=expected,
        measured_alpha=measured_alpha,
        measured_gamma_mid=measured_gamma_mid,
        measured_gamma_tail=measured_gamma_tail,
        measured_delta=measured_delta,
        max_rel_error=max_rel_error,
        posterior=c0 / denom0,
        posterior_shifted=c1 / denom1,
    )


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
