"""Exact discrete-time engine for the change-point birth process.

Time is divided into integer slots.  At most one arrival can land in each
slot; the arrival probability of slot r is the pre-change entry of the rate
schedule while r is at or before the switch slot, and the post-change entry
once r lies strictly beyond it, always indexed by the number of arrivals
already observed.  Everything here is exact: the infinite sum over switch
slots beyond the horizon collapses in closed form because those terms share
the all-pre-change likelihood.

Every quantity reads one pass over the slots, ``_log_weights``.  It logs
each count's rates and each listed hazard once, so the per-slot work is a
handful of float additions, made in one of two ways:

- below 128 slots (``_ARRAY_PASS_SLOTS``), a Python loop, with no fixed
  cost: a whole posterior takes 0.3-0.5 us per slot;
- from 128 slots on, numpy gathers the same addends per slot and runs the
  three running sums as cumulative sums, and the log-sum-exp hands
  ``math.exp`` only the weights whose exponential is not 0.0: about 30 us
  of fixed cost, then 0.08-0.15 us per slot for a whole posterior at 1e4
  to 1e5 slots with one listed hazard.

The array pass reads the arrival slots from the history's read-only intp
array (``DiscreteHistory._slot_array``): the config reader's int64 array,
copied once when the history is built, or, for a history built from a
tuple, made from it on first use.  The listed hazards' logs go into
arrays through ``np.fromiter`` over ``math.log`` and ``math.log1p``, whose
bits numpy's own logs do not keep.  Those two calls per listed hazard are
the one per-slot Python cost left, so a grid that lists a hazard per slot
(a ``discretize``d law that is not exponential) costs about 0.45-0.5 us per
slot.

Timed on a 2-core x86 VM under Python 3.11 and numpy 2.4, the two cross
between 96 and 128 slots, so the verify sweeps' histories of at most 16
slots keep the loop and long histories take the array pass.  Both add in
the order and with the addends of a slot-by-slot evaluation, so every
weight, tail term and posterior keeps its bits whichever pass made it.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

from .core import (
    ChangePointLaw,
    DegenerateModelError,
    DiscreteHistory,
    CapacityError,
    InvalidScheduleError,
    PosteriorResult,
    PreconditionError,
    RateSchedule,
    Value,
    shift_operator,
    survival_from_log_masses,
)

__all__ = [
    "DiscreteModel",
    "ShiftRatios",
    "ShiftIdentityReport",
    "log_joint_weight",
    "posterior_survival",
    "intensity",
    "shift_ratios",
    "verify_shift_identities",
    "brute_force_posterior",
    "sample_discrete_path",
]

if TYPE_CHECKING:
    import numpy as np

_ORACLE_SLOT_LIMIT = 16
# from this many slots on, _log_weights runs its sums in numpy (_array_pass)
_ARRAY_PASS_SLOTS = 128
# math.exp is exactly 0.0 below this, and adding 0.0 leaves a sum as it is
_EXP_ZERO_BELOW = -750.0


class DiscreteModel(Value):
    """Per-slot arrival probabilities plus a slot-valued switch law."""

    rates: RateSchedule
    law: ChangePointLaw

    def __init__(self, rates: RateSchedule, law: ChangePointLaw):
        if law.kind != "discrete":
            raise InvalidScheduleError("discrete model needs a slot-hazard switch law")
        if not rates.is_probability_schedule():
            raise InvalidScheduleError(
                "discrete model needs per-slot probabilities in (0, 1) with a repeating tail"
            )
        self.__dict__.update(rates=rates, law=law)


class ShiftRatios(Value):
    """Multipliers picked up by the switch-slot weights under a single shift.

    Moving arrival l one slot later multiplies every weight with switch
    slot before the arrival by alpha, every weight with switch slot after
    it by gamma, and the weight with switch slot exactly at the arrival by
    delta.
    """

    alpha: float
    gamma: float
    delta: float


class ShiftIdentityReport(Value):
    """Measured versus predicted weight ratios for one admissible shift.

    ``rel_errors`` holds |measured / predicted - 1| per quantity, keyed
    alpha, gamma_mid, gamma_tail and delta.  Only alpha can be missing: its
    block before the shifted arrival is empty when the arrival sits in slot 1.
    """

    expected: ShiftRatios
    measured_alpha: float | None
    measured_gamma_mid: float
    measured_gamma_tail: float
    measured_delta: float
    rel_errors: dict[str, float]
    posterior: float
    posterior_shifted: float

    @property
    def max_rel_error(self) -> float:
        return max(self.rel_errors.values())


def _log_weights(model: DiscreteModel, h: DiscreteHistory) -> tuple[list[float] | np.ndarray, float]:
    """Log joint weights of the history with switch slots 1..n, plus the tail term.

    One pass over the slots carries three running sums: the log probability
    of no switch so far, and the log likelihood of the slots seen so far
    under the pre-change and under the post-change regime.  Switch slot j
    keeps slots up to j pre-change and the later ones post-change, so its
    weight is log hazard_j + keep_{j-1} + pre_j - post_j, plus the
    post-change total over all n slots.  Every switch slot beyond the
    horizon shares the all-pre-change likelihood, hence the tail term
    keep_n + pre_n.

    No logarithm is taken per slot.  The four log factors of each count's
    rates (no arrival and arrival, pre- and post-change) are taken once, for
    counts 0..k up to the last listed entry, which repeats beyond it; the
    log hazard and log of no switch once per listed value and once for the
    hazard tail.  The pass then only adds, in the order and with the
    addends of a slot-by-slot evaluation, so every weight, the tail term
    and their logsumexp keep their bits.  From ``_ARRAY_PASS_SLOTS`` slots
    on, the weights come back as a numpy array built by ``_array_pass``.
    """
    rates, law = model.rates, model.law
    n, slots = h.horizon_slot, h.arrival_slots
    counts = min(len(slots) + 1, rates.size)
    factors = [(math.log1p(-p), math.log1p(-q), math.log(p), math.log(q))
               for p, q in zip(rates.pre_change[:counts], rates.post_change[:counts])]
    listed = law.values[:n]
    log_tail_haz, log_tail_stay = math.log(law.tail), math.log1p(-law.tail)
    if n >= _ARRAY_PASS_SLOTS:
        import numpy as np

        # math's logs, which numpy's do not match bit for bit, straight into arrays
        log_haz = np.fromiter(map(math.log, listed), float, len(listed))
        log_stay = np.fromiter(map(math.log1p, map(operator.neg, listed)), float, len(listed))
        return _array_pass(factors, (log_haz, log_tail_haz), (log_stay, log_tail_stay), n,
                           h._slot_array())
    log_haz = [math.log(v) for v in listed]
    log_stay = [math.log1p(-v) for v in listed]
    rest = n - len(listed)
    log_haz += [log_tail_haz] * rest
    log_stay += [log_tail_stay] * rest
    arrived = bytearray(n)
    for s in slots:
        arrived[s - 1] = 1

    log_w = []
    append = log_w.append
    log_keep = pre_sum = post_sum = 0.0
    count, last = 0, counts - 1
    pre_miss, post_miss, pre_hit, post_hit = factors[0]
    for lh, ls, hit in zip(log_haz, log_stay, arrived):
        if hit:
            pre_sum += pre_hit
            post_sum += post_hit
            if count < last:
                count += 1
                pre_miss, post_miss, pre_hit, post_hit = factors[count]
        else:
            pre_sum += pre_miss
            post_sum += post_miss
        append(lh + log_keep + pre_sum - post_sum)
        log_keep += ls
    return [w + post_sum for w in log_w], log_keep + pre_sum


def _array_pass(factors, log_haz, log_stay, n: int, slots: np.ndarray) -> tuple[np.ndarray, float]:
    """``_log_weights`` from its log tables, for many slots: the same addends
    gathered per slot by numpy, and the running sums as ``np.add.accumulate``.
    ``log_haz`` and ``log_stay`` each pair the listed values' array with the
    tail's value, and ``slots`` is the history's intp array of arrival slots.

    A 1-D accumulate adds in sequence, and each sum starts from 0.0 as the
    loop's does, so the sums, and the weights taken from them in the same
    order, keep the loop's bits.
    """
    import numpy as np

    hit = np.zeros(n, dtype=np.intp)
    hit[slots - 1] = 1
    # each slot's entry in the flat factor table: its count of earlier
    # arrivals, capped at the last listed one, picks the row, and no arrival
    # or arrival the column pair
    at = np.add.accumulate(hit)
    at -= hit
    np.minimum(at, len(factors) - 1, out=at)
    at *= 4
    at += 2 * hit
    table = np.array(factors).ravel()
    listed = len(log_haz[0])
    # rows: pre-change, post-change and no-switch running sums, from 0.0
    sums = np.zeros((3, n + 1))
    table.take(at, out=sums[0, 1:])
    at += 1
    table.take(at, out=sums[1, 1:])
    sums[2, 1:listed + 1], sums[2, listed + 1:] = log_stay
    pre, post, keep = np.add.accumulate(sums, axis=1, out=sums)
    log_w = np.empty(n)
    log_w[:listed], log_w[listed:] = log_haz
    log_w += keep[:-1]
    log_w += pre[1:]
    log_w -= post[1:]
    log_w += post[-1]
    return log_w, float(keep[-1] + pre[-1])


def _logsumexp(values: list[float] | np.ndarray) -> float:
    if not isinstance(values, list):
        m = float(values.max(initial=-math.inf))
        if m == -math.inf:
            return -math.inf
        shifted = values - m
        # math.exp and the builtin sum, not numpy's, which change bits; the
        # terms that math.exp takes to 0.0 add nothing and are left out
        return m + math.log(sum(map(math.exp, shifted[shifted >= _EXP_ZERO_BELOW].tolist())))
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
        return float(log_w[j - 1])
    # beyond the horizon every slot is pre-change: narrow the tail's prior
    # mass P(switch > n) down to P(switch = j)
    law = model.law
    return log_tail + math.log(law.hazard(j)) + law.log_sf(j - 1) - law.log_sf(n)


def posterior_survival(model: DiscreteModel, h: DiscreteHistory) -> float:
    """Posterior probability that the switch lies beyond the horizon slot."""
    log_w, log_tail = _log_weights(model, h)
    return survival_from_log_masses(_logsumexp(log_w), log_tail)


def intensity(model: DiscreteModel, h: DiscreteHistory) -> PosteriorResult:
    """Next-slot arrival probability: posterior mixture of the two per-slot rates."""
    return PosteriorResult.from_survival(model.rates, h.count, posterior_survival(model, h))


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


def verify_shift_identities(model: DiscreteModel, h: DiscreteHistory, l: int) -> ShiftIdentityReport:
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
        at = float(log_w[slot - 1])
        mid = _logsumexp(log_w[slot:])
        return before, at, mid, log_tail

    a0, g0, b0, c0 = blocks(h)
    a1, g1, b1, c1 = blocks(shifted)

    # the block before an arrival in slot 1 is empty and has no ratio; the one
    # after it never is, because an arrival in the last slot cannot shift
    measured_alpha = math.exp(a1 - a0) if a0 > -math.inf else None
    measured_gamma_mid = math.exp(b1 - b0)
    measured_gamma_tail = math.exp(c1 - c0)
    measured_delta = math.exp(g1 - g0)

    pairs = {"alpha": (measured_alpha, expected.alpha),
             "gamma_mid": (measured_gamma_mid, expected.gamma),
             "gamma_tail": (measured_gamma_tail, expected.gamma),
             "delta": (measured_delta, expected.delta)}
    return ShiftIdentityReport(
        expected=expected,
        measured_alpha=measured_alpha,
        measured_gamma_mid=measured_gamma_mid,
        measured_gamma_tail=measured_gamma_tail,
        measured_delta=measured_delta,
        rel_errors={name: abs(m / e - 1.0) for name, (m, e) in pairs.items() if m is not None},
        posterior=survival_from_log_masses(_logsumexp([a0, g0, b0]), c0),
        posterior_shifted=survival_from_log_masses(_logsumexp([a1, g1, b1]), c1),
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
    model: DiscreteModel, horizon: int, seed: int | tuple[int, ...] | np.random.Generator = 0
) -> tuple[int | None, tuple[int, ...]]:
    """Simulate one path of slots 1..horizon.

    Draws the switch slot from its per-slot hazards first (None when it
    falls beyond the horizon, which is all later slots ever see), then
    flips one arrival coin per slot with the regime- and count-appropriate
    probability.  Reproducible for a fixed seed.  The uniforms come in
    numpy blocks, in the order of one ``random()`` per hazard tried and
    per coin, and exactly as many are drawn.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    import numpy as np

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    law, rates = model.law, model.rates

    hazards = np.full(horizon, law.tail)
    listed = law.values[:horizon]
    hazards[:len(listed)] = listed
    draws = rng.random(horizon)
    below = draws < hazards
    first = int(below.argmax())
    switch = first + 1 if below[first] else None
    # the switch search used `cut` uniforms, and the coins follow them;
    # slots 1..cut have the pre-change rates
    cut = switch or horizon
    coins = np.concatenate((draws[cut:], rng.random(cut)))

    slots: list[int] = []
    # coins[lo:hi] belong to slots lo+1..hi; the rate follows the count up to
    # the last listed entry and repeats it from there
    for rate, lo, hi in ((rates.pre, 0, cut), (rates.post, cut, horizon)):
        while lo < hi:
            if len(slots) >= rates.size - 1:
                hits = np.flatnonzero(coins[lo:hi] < rate(len(slots))) + (lo + 1)
                slots += hits.tolist()
                break
            window = coins[lo:hi] < rate(len(slots))
            k = int(window.argmax())
            if not window[k]:
                break
            lo += k + 1
            slots.append(lo)
    return switch, tuple(slots)
