"""Continuous-time engine: likelihoods, posteriors, simulation, discretisation.

Given an observed history, the conditional likelihood of "the switch
happened at u" factorises into the active rate at each arrival instant
times the exponential of minus the integrated active rate over the window.
Between consecutive arrival instants the log likelihood is affine in u, so
the posterior reduces to per-stretch integrals against the switch law.
Each law class gives those of all the stretches of a history in one call,
``segment_integrals`` (-inf for an empty stretch and for one without
likelihood at its start): closed form for the exponential and table
families, exact evaluation for point masses, and for the weibull density
the adaptive Gauss-Kronrod rule described in ``cpb._weibull``.

The engine evaluates them in one forward pass over the arrivals, the
continuous form of Shiryaev's Bayesian change-point filter.  The pass
carries the log likelihood of "not yet switched" and the log mass of
"already switched"; at each arrival the switched mass picks up the
post-change factors and new mass enters through the stretch's integral,
which does not depend on the switched mass: one call evaluates them all.
A posterior costs O(k) in the arrival count k, and the same pass yields
the posterior and intensity at every arrival instant (``intensity_path``).
The pass runs in one of two ways:

- below 40 arrivals (``_ARRAY_PASS_ARRIVALS``), a Python loop with no
  numpy (but the weibull rule's): the passes of many histories run
  together (``_forward_paths``, on a chunk of theorem1 sweep instances),
  with one integral call for all their weibull stretches, so that the
  rule's fixed numpy cost is paid once;
- from 40 arrivals on, numpy columns: the stretches keep the loop's bits,
  each law evaluates its closed form on all of them at once
  (``array_segment_integrals``), and the fold runs as cumulative sums,
  re-based every 40 stretches.  About 40 us of fixed cost, then
  0.13-0.22 us per arrival for the closed-form laws, against 0.8-2.2 us
  for the loop.

The two cross at 40 arrivals on every family, timed on a 2-core x86 VM
under Python 3.11 and numpy 2.4, so the verify sweeps (at most 5
arrivals) and the golden configs (at most 4) keep the loop.
The direct likelihood ``log_likelihood_given_changepoint`` is O(k^2) per
switch time and is kept as a test oracle only.

``discretize(model, h, m)`` is the one step onto the slot grid of width
1/m, which the discrete engine runs on: it checks the grid factor,
floor-snaps the history, divides the rates by m and tabulates the switch
law's cell hazards up to the snapped horizon, and returns the discrete
model and history.  ``convergence_study`` and the CLI's grid commands go
through it.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING

from .core import (
    ChangePointLaw,
    DiscreteHistory,
    Exponential,
    History,
    InvalidScheduleError,
    PosteriorResult,
    PreconditionError,
    RateSchedule,
    TAIL_REPEAT,
    Value,
    Weibull,
    _log,
    _log_add,
    survival_from_log_masses,
)
from .discrete import DiscreteModel
from . import discrete as _discrete

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ContinuousModel",
    "PathSample",
    "ConvergenceRow",
    "log_likelihood_given_changepoint",
    "posterior_survival",
    "intensity",
    "intensity_path",
    "sample_path",
    "discretize",
    "convergence_study",
]

class ContinuousModel(Value):
    """Event-rate schedule plus a continuous switch-time law."""

    rates: RateSchedule
    law: ChangePointLaw

    def __init__(self, rates: RateSchedule, law: ChangePointLaw):
        if law.kind != "continuous":
            raise InvalidScheduleError("continuous model needs a continuous switch law")
        self.__dict__.update(rates=rates, law=law)


class PathSample(Value):
    """One simulated realisation: the switch time and the arrival instants."""

    change_time: float
    arrival_times: tuple[float, ...]
    seed: int | None = None

    def __init__(self, change_time: float, arrival_times: tuple[float, ...], seed: int | None = None):
        self.__dict__.update(change_time=change_time, arrival_times=arrival_times, seed=seed)


class ConvergenceRow(Value):
    """Discretisation quality at one grid resolution.

    ``reference`` is the continuous posterior survival the grid value is
    compared against; it is the same in every row of a study.
    """

    m: int
    admissible: bool
    discrete_value: float | None
    error: float | None
    reference: float


def log_likelihood_given_changepoint(model: ContinuousModel, h: History, u: float) -> float:
    """Log density-with-survival of the history given the switch time u.

    An arrival at or after u contributes the post-change rate at its
    arrival index, an earlier one the pre-change rate; the no-arrival
    stretches contribute minus the integral of the active rate, summed over
    the constant pieces cut by the arrivals and by u itself.  Passing
    math.inf (or any u beyond the horizon) yields the all-pre-change value.

    This is the direct O(k^2) evaluation, kept as an independent oracle for
    the forward pass; the posterior engine does not call it.
    """
    if u < 0.0:
        raise ValueError(f"switch time must be nonnegative, got {u}")
    t = h.horizon
    log_like = 0.0
    for j, arr in enumerate(h.arrivals):
        rate = model.rates.post(j) if arr >= u else model.rates.pre(j)
        if rate <= 0.0:
            return -math.inf
        log_like += math.log(rate)

    cuts = sorted({0.0, t, *h.arrivals, *( (u,) if 0.0 < u < t else () )})
    for a, b in zip(cuts, cuts[1:]):
        count = sum(1 for x in h.arrivals if x <= a)
        rate = model.rates.post(count) if a >= u else model.rates.pre(count)
        log_like -= rate * (b - a)
    return log_like


def _stretches(model: ContinuousModel, h: History):
    """The stretches (a, b, la, lb, slope) of a history's forward pass, and
    (instant, step, log_stay) at each arrival instant and at the horizon."""
    rates = model.rates
    pre_rates, post_rates, listed = rates.pre_change, rates.post_change, rates.size
    pre_tail, post_tail = rates.pre(listed), rates.post(listed)
    trail, stretches = [], []
    k = h.count
    log_stay = 0.0
    a = 0.0
    for i, b in enumerate((*h.arrivals, h.horizon)):
        pre = pre_rates[i] if i < listed else pre_tail
        post = post_rates[i] if i < listed else post_tail
        # the horizon closes the last stretch without an arrival
        log_pre, log_post = (_log(pre), _log(post)) if i < k else (0.0, 0.0)
        width = b - a
        step = log_post - post * width
        stretches.append((a, b, log_stay + step, log_stay + log_post - pre * width, post - pre))
        log_stay += log_pre - pre * width
        trail.append((b, step, log_stay))
        a = b
    return stretches, trail


# from this many arrivals on, a history's forward pass runs in numpy (_array_path)
_ARRAY_PASS_ARRIVALS = 40


def _forward_paths(pairs, whole: bool = True) -> list[list[tuple[float, float, float]]]:
    """The forward pass of each (model, history) pair: (instant, log_change,
    log_stay) at every arrival instant and at the horizon (or, unless
    whole, at least at the horizon).

    log_stay is the log likelihood of the history up to the instant when
    the switch has not happened by then, log_change the log of the
    likelihood integrated against the switch law over switch times up to
    the instant.  Between consecutive instants a and b, with i arrivals
    before b, the switched mass picks up the post-change factors of the
    stretch and of the arrival at b (step), and mass enters from the switch
    times in (a, b], where the log likelihood is affine in the switch time
    with slope post(i) - pre(i).  A switch exactly at an arrival instant
    puts that arrival on the post-change rate, so it belongs to the stretch
    that ends there.

    A stretch's integral does not depend on log_change, so the stretches of
    a history are built first, and a fold adds them up; an empty stretch
    (an arrival on the horizon) and one with no likelihood at its start add
    -inf, that is nothing.  Each step costs O(1) (O(log knots) for a table
    law), in one of two passes:

    - below ``_ARRAY_PASS_ARRIVALS`` arrivals, a Python loop: ``_stretches``
      builds the stretches of every pair, those of all the weibull pairs go
      to one ``cpb._weibull`` call, each with its own law, and those of any
      other law to one ``segment_integrals`` call per pair;
    - from ``_ARRAY_PASS_ARRIVALS`` arrivals on, ``_array_path`` builds one
      history's stretches as numpy columns and hands them to the law's
      ``array_segment_integrals``.

    A stretch's integral does not depend on the others of its call, so a
    pass has the same bits alone and among others.
    """
    looped = iter(_loop_paths([(model, h) for model, h in pairs if h.count < _ARRAY_PASS_ARRIVALS]))
    return [next(looped) if h.count < _ARRAY_PASS_ARRIVALS else _array_path(model, h, whole) for model, h in pairs]


def _loop_paths(pairs) -> list[list[tuple[float, float, float]]]:
    """``_forward_paths`` in a Python loop, for short histories."""
    built = [_stretches(model, h) for model, h in pairs]
    weibull = [(model.law, stretches) for (model, _), (stretches, _) in zip(pairs, built)
               if isinstance(model.law, Weibull)]
    if weibull:
        from . import _weibull

        a, b, la, _, slope = zip(*itertools.chain.from_iterable(stretches for _, stretches in weibull))
        laws = [(law.shape, law.scale, len(stretches)) for law, stretches in weibull]
        flat = iter(_weibull.segment_integrals(laws, a, b, la, slope))
    paths = []
    for (model, _), (stretches, trail) in zip(pairs, built):
        if isinstance(model.law, Weibull):
            mass = itertools.islice(flat, len(stretches))
        else:
            mass = model.law.segment_integrals(*zip(*stretches))
        log_change = -math.inf
        path = []
        for (b, step, log_stay), m in zip(trail, mass):
            log_change = _log_add(log_change + step, m)
            path.append((b, log_change, log_stay))
        paths.append(path)
    return paths


def _array_path(model: ContinuousModel, h: History, whole: bool = True) -> list[tuple[float, float, float]]:
    """``_forward_paths`` of one pair, on numpy columns: the stretches of
    ``_array_stretches``, the law's ``array_segment_integrals`` and the fold
    of ``_array_fold``; only its last entry unless whole.  A running sum
    that leaves the float range (a step of -inf, where a rate or its
    product with a width does) sends the pair to the loop's pass."""
    import numpy as np

    k = h.count
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, b, la, lb, slope, step, log_stay = _array_stretches(model, h)
        log_change = _array_fold(step, model.law.array_segment_integrals(a, b, la, lb, slope))
    last = float(log_change[k])
    if not last < math.inf:
        return _loop_paths([(model, h)])[0]
    if not whole:
        return [(h.horizon, last, float(log_stay[k + 1]))]
    return list(zip(b[:k + 1].tolist(), log_change[:k + 1].tolist(), log_stay[1:k + 2].tolist()))


def _array_stretches(model: ContinuousModel, h: History):
    """The columns a, b, la, lb, slope and step of ``_stretches``, and
    log_stay from 0.0 at time 0, with the loop's bits.

    The widths are b - a on the instants, as ``np.diff`` takes them; the
    rates and their logs, taken once per listed count with ``math`` (whose
    bits numpy's logs do not keep), are gathered by count; log_stay is a
    1-D ``np.add.accumulate``, which adds in sequence.  The columns run on to a
    whole number of ``_ARRAY_PASS_ARRIVALS``-stretch blocks with empty
    stretches at the horizon, whose step is 0 and whose mass is -inf.
    """
    import numpy as np

    rates, k = model.rates, h.count
    n = -(-(k + 1) // _ARRAY_PASS_ARRIVALS) * _ARRAY_PASS_ARRIVALS
    # rows pre, post and their logs; a column per count 0..k, the listed
    # ones and then the tail, and logs of 0 from the horizon's stretch on
    listed = min(rates.size, k + 1)
    pre_rates = (*rates.pre_change[:listed], rates.pre(rates.size))
    post_rates = (*rates.post_change[:listed], rates.post(rates.size))
    table = np.array((*pre_rates, *post_rates, *map(_log, pre_rates), *map(_log, post_rates)))
    columns = table.reshape(4, -1).repeat([1] * listed + [n - listed], axis=1)
    columns[2:, k:] = 0.0
    instants = np.fromiter(itertools.chain((0.0,), h.arrivals, itertools.repeat(h.horizon, n - k)), float, n + 1)
    a, b = instants[:-1], instants[1:]
    # rows: pre * width and post * width, then log_stay's increment and the step
    spent = columns[:2] * (b - a)
    gain = columns[2:] - spent
    log_stay = np.empty(n + 1)
    log_stay[0] = 0.0
    np.add.accumulate(gain[0], out=log_stay[1:])
    before = log_stay[:-1]
    lb = before + columns[3]
    lb -= spent[0]
    return a, b, before + gain[1], lb, columns[1] - columns[0], gain[1], log_stay


def _array_fold(step: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The loop's fold, log_change_i = log_add(log_change_(i-1) + step_i,
    mass_i), in closed form: with S the running sum of the steps,
    log_change_i = S_i + logaddexp.accumulate(mass - S)_i.

    The sum re-bases every ``_ARRAY_PASS_ARRIVALS`` stretches (the columns
    hold a whole number of such blocks): within a block the closed form
    runs on the block's own running sums, and a sequential fold carries
    log_change from block to block, so the error in the log stays about
    that many roundings of a step instead of growing with k.  A sum that
    leaves the float range makes every later entry nan or inf.
    """
    import numpy as np

    sums = np.empty((2, len(step) // _ARRAY_PASS_ARRIVALS, _ARRAY_PASS_ARRIVALS))
    total, inner = sums  # per block: S, and logaddexp.accumulate(mass - S)
    np.add.accumulate(step.reshape(total.shape), axis=1, out=total)
    np.subtract(mass.reshape(total.shape), total, out=inner)
    np.logaddexp.accumulate(inner, axis=1, out=inner)
    carry, start = -math.inf, []  # log_change before each block
    for t, m in zip(*sums[:, :, -1].tolist()):
        start.append(carry)
        carry = t + _log_add(carry, m)
    total += np.logaddexp(np.array(start)[:, None], inner, out=inner)
    return total.ravel()


def _survivals(pairs) -> list[float]:
    """``posterior_survival`` of each (model, history) pair, from one ``_forward_paths`` call."""
    return [survival_from_log_masses(path[-1][1], model.law.log_sf(h.horizon) + path[-1][2])
            for (model, h), path in zip(pairs, _forward_paths(pairs, whole=False))]


def intensity_path(model: ContinuousModel, h: History) -> list[PosteriorResult]:
    """Posterior and intensity along the history, from one forward pass.

    Entry i < k is the result for the prefix history that ends at the
    (i+1)-th arrival instant, with that arrival exactly at its horizon;
    the last entry is the result at the horizon of h.  Costs O(k) in all
    (O(k log knots) for a table law).
    """
    law, rates, k = model.law, model.rates, h.count
    return [
        PosteriorResult.from_survival(
            rates, min(i + 1, k), survival_from_log_masses(log_change, law.log_sf(instant) + log_stay)
        )
        for i, (instant, log_change, log_stay) in enumerate(_forward_paths([(model, h)])[0])
    ]


def posterior_survival(model: ContinuousModel, h: History) -> float:
    """Posterior probability that the switch lies beyond the horizon."""
    return _survivals([(model, h)])[0]


def intensity(model: ContinuousModel, h: History) -> PosteriorResult:
    """Arrival intensity at the horizon: posterior mixture of the two rates."""
    return PosteriorResult.from_survival(model.rates, h.count, posterior_survival(model, h))


_EXP_BLOCK = 64


def sample_path(
    model: ContinuousModel,
    horizon: float | None = None,
    max_arrivals: int | None = None,
    seed: int | tuple[int, ...] | np.random.Generator = 0,
) -> PathSample:
    """Simulate one path by inversion.

    The switch time comes from inverting its distribution function; each
    interarrival is then drawn exactly by inverting the piecewise-constant
    cumulative hazard, whose single breakpoint is the switch time.  A
    repeating-tail schedule never stops on its own, so it requires a
    horizon; a zero-tail schedule halts once its listed counts are used up.

    The exponentials come in numpy blocks.  Past the switch and the listed
    counts the rate is the constant post-change tail, so the rest of each
    block runs in a plain loop with no rate lookup, with the same sums in
    the same order as the full step.  ``seed`` is an int, a tuple of ints
    (numpy seed entropy) or a generator.  A generator passed in ends in the
    same state as after one ``exponential()`` per step; one made here from
    the seed is dropped with the path, so it is not rewound.
    """
    if horizon is None and model.rates.tail_mode == TAIL_REPEAT and max_arrivals is None:
        raise PreconditionError("a repeating-tail schedule needs a horizon or max_arrivals bound")
    import numpy as np

    shared = isinstance(seed, np.random.Generator)
    rng = seed if shared else np.random.default_rng(seed)
    seed_val = int(seed) if isinstance(seed, (int, np.integer)) else None
    rates = model.rates
    pre_rates, post_rates, listed = rates.pre_change, rates.post_change, rates.size
    pre_tail, post_tail = rates.pre(listed), rates.post(listed)
    limit = math.inf if max_arrivals is None else max_arrivals
    end = math.inf if horizon is None else horizon

    u = model.law.ppf(rng.random())
    times: list[float] = []
    now = 0.0
    count = 0
    # one unit exponential per step, drawn in blocks of doubling size
    block: list[float] = []
    used = 0
    while count < limit:
        if used == len(block):
            state = rng.bit_generator.state if shared else None
            block = rng.standard_exponential(2 * len(block) or _EXP_BLOCK).tolist()
            used = 0
        if now >= u and count >= listed and post_tail > 0.0:
            # past the switch and the listed counts the rate is the constant
            # post_tail: the block runs with no rate lookup, and the step that
            # passes the horizon falls through to the full step, which redoes it
            stop = min(len(block), used + limit - count)
            for target in block[used:stop]:
                nxt = now + target / post_tail
                if nxt > end:
                    break
                times.append(nxt)
                now = nxt
            used += len(times) - count
            count = len(times)
            if used == stop:
                continue
        target = block[used]
        used += 1
        pre = pre_rates[count] if count < listed else pre_tail
        post = post_rates[count] if count < listed else post_tail
        if now >= u:
            if post <= 0.0:
                break
            wait = target / post
        else:
            gap = u - now
            if target < pre * gap:
                wait = target / pre
            elif post <= 0.0:
                break
            else:
                wait = gap + (target - pre * gap) / post
        nxt = now + wait
        if nxt > end:
            break
        times.append(nxt)
        now = nxt
        count += 1
    if shared and used < len(block):
        # the ziggurat takes a variable number of words per value, so rewind
        # and draw again only the values used: a shared generator then ends
        # where one exponential() call per step would leave it
        rng.bit_generator.state = state
        rng.standard_exponential(used)
    return PathSample(change_time=u, arrival_times=tuple(times), seed=seed_val)


def _grid_factor(m) -> int:
    """A grid factor as an int: an integer (numpy's too, but no float) >= 1."""
    try:
        m = operator.index(m)
    except TypeError:
        raise PreconditionError(f"grid factor must be an integer, got {m!r}") from None
    if m < 1:
        raise PreconditionError(f"grid factor must be >= 1, got {m}")
    return m


def discretize(
    model: ContinuousModel, h: History, m: int
) -> tuple[DiscreteModel, DiscreteHistory]:
    """The model and history on the slot grid of width 1/m.

    The history is floor-snapped: arrival instants map to slot floor(t*m)
    and the horizon likewise, so no arrival slot passes the horizon slot.
    At coarse resolutions arrivals can collide, or an arrival or the
    horizon land on slot zero, which makes the snapped history unusable;
    that raises rather than perturbing the data.

    Rates divide by m and must all drop below 1.  The slot-hazard of the
    switch law is the conditional probability of switching within each
    width-1/m cell; for an exponential law one value repeats exactly,
    other laws are tabulated up to the snapped horizon.  Each cell must
    get a probability strictly between 0 and 1, or the law is not
    representable on the grid.

    The cells are tabulated in blocks of 64, 128, 256, ... cells, with one
    ``law.cell_hazards`` call per block (numpy on the log survival for a
    weibull law, ``sf`` per cell otherwise).  A block that holds a
    refused cell raises at once, so a grid of 1e9 cells whose law is
    refused early costs no more than its first few blocks.
    """
    m = _grid_factor(m)
    n = math.floor(h.horizon * m)
    arrival_slots = [math.floor(t * m) for t in h.arrivals]
    if any(s < 1 for s in arrival_slots):
        raise PreconditionError(f"grid factor {m} snaps an arrival to slot 0")
    if any(b <= a for a, b in zip(arrival_slots, arrival_slots[1:])):
        raise PreconditionError(f"grid factor {m} collapses two arrivals onto one slot")
    if n < 1:
        raise PreconditionError(f"grid factor {m} snaps the horizon to slot 0")
    snapped = DiscreteHistory(horizon_slot=n, arrival_slots=tuple(arrival_slots))
    if model.rates.max_rate() / m >= 1.0:
        raise PreconditionError(
            f"grid factor {m} too small: per-slot probability would reach "
            f"{model.rates.max_rate() / m:.3g}"
        )
    law = model.law
    if isinstance(law, Exponential):
        # memoryless: one cell value repeats exactly, any slot count is covered
        cell = -math.expm1(-law.rate / m)
        disc_law = ChangePointLaw.discrete_hazard((cell,), tail=cell)
    else:
        import numpy as np

        blocks = []
        lo, size = 0, 64
        while lo < n:
            hi = min(n, lo + size)
            # edges j / m for j = lo..hi: the floats that Python's j / m gives
            haz = law.cell_hazards(np.arange(lo, hi + 1) / m)
            refused = np.flatnonzero(~((haz > 0.0) & (haz < 1.0)))
            if refused.size:
                j = int(refused[0])
                raise PreconditionError(
                    f"cell {lo + j + 1} has switch probability {float(haz[j])}; "
                    "law not representable on this grid"
                )
            blocks.append(haz)
            lo, size = hi, 2 * size
        vals = np.concatenate(blocks)
        disc_law = ChangePointLaw.discrete_hazard(vals, tail=vals[-1])
    return DiscreteModel(rates=model.rates.scaled(1.0 / m), law=disc_law), snapped


def convergence_study(
    model: ContinuousModel, h: History, m_list
) -> list[ConvergenceRow]:
    """Compare grid posteriors against the continuous one across resolutions.

    Each admissible m snaps the history onto the grid, evaluates the
    discrete posterior survival, and records the absolute gap to the
    continuous value, which every row carries; resolutions whose snapping
    degenerates are reported as inadmissible instead of being silently
    adjusted.  A factor that is not an integer >= 1 is no resolution at
    all and raises PreconditionError before any row.
    """
    m_list = [_grid_factor(m) for m in m_list]
    reference = posterior_survival(model, h)
    rows: list[ConvergenceRow] = []
    for m in m_list:
        try:
            value = _discrete.posterior_survival(*discretize(model, h, m))
        except PreconditionError:
            value = None
        rows.append(ConvergenceRow(
            m=m, admissible=value is not None, discrete_value=value,
            error=None if value is None else abs(value - reference), reference=reference,
        ))
    return rows
