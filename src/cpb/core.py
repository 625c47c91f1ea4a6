"""Core domain types for change-point counting processes.

A process in this family behaves like a pure birth process whose per-count
birth rate switches from one schedule to another at an unobservable random
time.  This module holds the value types shared by every engine (rate
schedules, change-point laws, observed histories), the componentwise
"arrivals are more recent" partial order on histories, the admissibility
conditions on rate schedules, and the slot-shift operators that generate
the partial order in discrete time.
"""

from __future__ import annotations

import bisect
import math
import operator
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TAIL_REPEAT",
    "TAIL_ZERO",
    "InvalidScheduleError",
    "IncomparableHistoriesError",
    "PreconditionError",
    "CapacityError",
    "DegenerateModelError",
    "SearchFailureError",
    "Value",
    "RateSchedule",
    "ChangePointLaw",
    "Exponential", "Weibull", "PointMass", "Table", "Hazard", "LAWS",
    "History",
    "DiscreteHistory",
    "PosteriorResult",
    "ConditionReport",
    "history_dominates",
    "validate_rates",
    "shift_operator",
]

# Tail behaviour of a finite rate list: repeat the last entry forever, or
# drop to zero (no further arrivals possible) beyond the listed counts.
TAIL_REPEAT = "repeat"
TAIL_ZERO = "zero"


class InvalidScheduleError(ValueError):
    """A rate schedule violates positivity / probability constraints."""


class IncomparableHistoriesError(ValueError):
    """Histories cannot be ordered: horizons or arrival counts differ."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the inputs."""


class CapacityError(ValueError):
    """Input exceeds a documented size bound of an exhaustive method."""


class DegenerateModelError(ValueError):
    """All posterior mass vanished; the model cannot produce the history."""


class SearchFailureError(RuntimeError):
    """A grid search did not locate a configuration it was asked to find."""


def _as_float_tuple(values) -> tuple[float, ...]:
    return tuple(map(float, values))


class Value:
    """Base of the package's read-only value types.

    A class's fields are its annotations after its bases', less ``ClassVar``
    ones; ``_fields`` maps each to its declared type, as text, and a class
    value is a default.  Equality (same class), hash, repr, pickles and
    copies read the fields alone, so no cache travels.  ``__init__`` stores
    its arguments; a type that checks them writes its own, into __dict__.
    """

    _fields: ClassVar[dict[str, str]] = {}

    def __init_subclass__(cls):
        own = vars(cls).get("__annotations__", {})
        cls._fields = {**cls._fields, **{n: t for n, t in own.items() if not t.startswith("ClassVar")}}

    def __init__(self, *args, **kwargs):
        fields, d = self._fields, self.__dict__
        d.update(zip(fields, args), **kwargs)
        if len(d) != len(args) + len(kwargs) or not d.keys() <= fields.keys() or not all(
                n in d or hasattr(type(self), n) for n in fields):
            raise TypeError(f"{type(self).__name__} takes its fields {list(fields)}, each at most once")

    def __getstate__(self):
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        return self.__getstate__() == other.__getstate__() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self.__getstate__().values()))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in self.__getstate__().items())})"

    def _read_only(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: a {type(self).__name__} is read-only")

    __setattr__ = __delattr__ = _read_only


class RateSchedule(Value):
    """Birth rates before and after the change, indexed by arrival count.

    Attributes:
        pre_change: rates active while the change has not yet occurred,
            entry k applies when k arrivals have been observed.
        post_change: rates active once the change has occurred.
        tail_mode: ``"repeat"`` extends both lists by repeating their last
            entry; ``"zero"`` makes every rate beyond the listed counts 0,
            so the process halts after ``len(pre_change)`` arrivals (the
            finite-population / load-sharing case).

    Listed entries must be strictly positive and the two lists must have
    equal length.  In continuous time entries are rates (events per unit
    time); in discrete time they are per-slot arrival probabilities and
    must additionally lie below 1, which is enforced by the discrete model
    wrapper rather than here.
    """

    pre_change: tuple[float, ...]
    post_change: tuple[float, ...]
    tail_mode: str = TAIL_REPEAT

    def __init__(self, pre_change, post_change, tail_mode: str = TAIL_REPEAT):
        pre, post = _as_float_tuple(pre_change), _as_float_tuple(post_change)
        self.__dict__.update(pre_change=pre, post_change=post, tail_mode=tail_mode)
        if not pre or not post:
            raise InvalidScheduleError("rate schedule needs at least one entry per regime")
        if len(pre) != len(post):
            raise InvalidScheduleError(f"pre/post lists differ in length: {len(pre)} vs {len(post)}")
        if tail_mode not in (TAIL_REPEAT, TAIL_ZERO):
            raise InvalidScheduleError(f"unknown tail_mode {tail_mode!r}")
        rates = pre + post
        # a nan makes the sum nan, wherever it is; without one, min is exact
        if min(rates) > 0.0 and math.isfinite(sum(rates)):
            return
        # find the first entry out of range for the message (a sum that
        # overflows on finite rates finds none)
        for name, values in (("pre_change", pre), ("post_change", post)):
            for k, r in enumerate(values):
                if not math.isfinite(r) or r <= 0.0:
                    raise InvalidScheduleError(f"{name}[{k}] = {r} is not strictly positive")

    @property
    def size(self) -> int:
        """Number of listed counts."""
        return len(self.pre_change)

    def pre(self, k: int) -> float:
        """Pre-change rate when k arrivals have occurred (tail-extended)."""
        return self._rate(self.pre_change, k)

    def post(self, k: int) -> float:
        """Post-change rate when k arrivals have occurred (tail-extended)."""
        return self._rate(self.post_change, k)

    def _rate(self, rates: tuple[float, ...], k: int) -> float:
        if k < 0:
            raise IndexError(f"arrival count must be nonnegative, got {k}")
        if k < len(rates):
            return rates[k]
        return rates[-1] if self.tail_mode == TAIL_REPEAT else 0.0

    def max_rate(self) -> float:
        """Largest listed rate in either regime."""
        return max(max(self.pre_change), max(self.post_change))

    def is_probability_schedule(self) -> bool:
        """True when every listed rate lies in (0, 1) (usable per slot)."""
        return self.max_rate() < 1.0 and self.tail_mode == TAIL_REPEAT

    def scaled(self, factor: float) -> "RateSchedule":
        """Multiply every rate by a positive factor, keeping the tail mode."""
        if factor <= 0.0:
            raise InvalidScheduleError(f"scale factor must be positive, got {factor}")
        return RateSchedule(
            tuple(r * factor for r in self.pre_change),
            tuple(r * factor for r in self.post_change),
            self.tail_mode,
        )


class ChangePointLaw(Value):
    """Distribution of the unobservable switch time.

    One ``Value`` subclass per family.  Its fields are its parameters
    (``params()``, and the keys of a config file), and it checks them.
    The continuous families ``Exponential``, ``Weibull``, ``PointMass`` and
    ``Table`` give ``cdf``, ``sf``, ``log_sf``, ``ppf`` and ``scaled_time``;
    ``sf`` is ``exp(log_sf)`` and ``log_sf`` is the log of ``sf``, so a
    family writes one of the two.  Two stretch methods link a family to
    the forward passes of ``cpb.continuous``, on a stretch (a, b] with la
    and lb the log values at a and b of the integrand exp(la + slope (u - a))
    over the switch times u:

    - ``_segment(a, b, la, lb, slope)``: the log of the integral of that
      integrand against the law, for one stretch, in pure Python; the
      loop pass maps it over a short history's stretches;
    - ``segment_integrals(a, b, la, lb, slope)``: the same on numpy
      columns, one entry per stretch, as a float array; the array pass
      calls it on a long history's columns under ``np.errstate`` (a
      degenerate stretch may take the log of 0, or overflow).

    An empty stretch (a == b) and one with la = -inf give -inf.  ``Weibull``
    has no closed form and writes only ``segment_integrals``, the adaptive
    Gauss-Kronrod rule of ``cpb._weibull``; the loop pass sends the
    stretches of many weibull histories to that rule in one call.
    ``cell_hazards(edges)`` gives the probability of switching within each
    cell between consecutive edges, given no switch before it; by default
    it maps ``sf``, and ``Weibull`` replaces it with numpy on its log
    survival.  The discrete family ``Hazard`` gives ``hazard``, and
    ``sf``/``log_sf`` at an integer slot.  An operation of the other kind
    raises ValueError.

    A new family is one subclass plus its entry in ``LAWS``.  The
    constructors ``ChangePointLaw.exponential``, ``.weibull``,
    ``.point_mass``, ``.table`` and ``.discrete_hazard`` are the classes.
    """

    family: ClassVar[str]
    kind: ClassVar[str] = "continuous"

    def _set_positive(self, **params):
        # the default rule: every parameter is a positive finite number
        for name, value in params.items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"{self.family} {name} must be positive and finite, got {value}")
        self.__dict__.update(params)

    def params(self) -> dict:
        """The law's parameters by field name, in declaration order."""
        return self.__getstate__()

    def _other_kind(self, *args):
        raise ValueError(f"operation does not apply to a {self.kind} law ({self.family})")

    cdf = _ppf = _scaled_time = _segment = segment_integrals = hazard = _other_kind

    def cell_hazards(self, edges) -> np.ndarray:
        import numpy as np

        # a cell past a survival of 0 has no conditional probability: nan
        sf = list(map(self.sf, np.asarray(edges).tolist()))
        return np.array([(p - s) / p if p > 0.0 else math.nan for p, s in zip(sf, sf[1:])])

    def sf(self, x: float) -> float:
        """Probability that the switch happens strictly after x."""
        # from the log: 1 - cdf reads 0.0 in the tail, where the survival is not
        return math.exp(self.log_sf(x))

    def log_sf(self, x: float) -> float:
        return _log(self.sf(x))

    def ppf(self, q: float) -> float:
        """Quantile function; inverts the distribution function."""
        if not 0.0 <= q < 1.0:
            raise ValueError(f"quantile level must lie in [0, 1), got {q}")
        return self._ppf(q)

    def scaled_time(self, factor: float) -> "ChangePointLaw":
        """Law of the switch time multiplied by a positive constant."""
        if factor <= 0.0:
            raise ValueError(f"time scale factor must be positive, got {factor}")
        return self._scaled_time(factor)


class Exponential(ChangePointLaw):
    """Switch time with constant hazard ``rate``."""

    rate: float
    family = "exponential"

    def __init__(self, rate: float):
        self._set_positive(rate=rate)

    def cdf(self, x: float) -> float:
        return -math.expm1(-self.rate * x) if x > 0.0 else 0.0

    def log_sf(self, x: float) -> float:
        return -self.rate * x if x > 0.0 else 0.0

    def _ppf(self, q: float) -> float:
        return -math.log1p(-q) / self.rate

    def _scaled_time(self, factor: float) -> "Exponential":
        return Exponential(self.rate / factor)

    def _segment(self, a, b, la, lb, slope):
        rho, log_rho = self.rate, math.log(self.rate)
        return _log_integral_affine(la + log_rho - rho * a, lb + log_rho - rho * b, b - a)

    def segment_integrals(self, a, b, la, lb, slope):
        rho, log_rho = self.rate, math.log(self.rate)
        return _log_integral_affine_array(la + log_rho - rho * a, lb + log_rho - rho * b, b - a)


class Weibull(ChangePointLaw):
    """Switch time with survival exp(-(x / scale) ** shape)."""

    shape: float
    scale: float
    family = "weibull"

    def __init__(self, shape: float, scale: float):
        self._set_positive(shape=shape, scale=scale)

    def cdf(self, x: float) -> float:
        return -math.expm1(-_power(x / self.scale, self.shape)) if x > 0.0 else 0.0

    def log_sf(self, x: float) -> float:
        return -_power(x / self.scale, self.shape) if x > 0.0 else 0.0

    def _ppf(self, q: float) -> float:
        return self.scale * (-math.log1p(-q)) ** (1.0 / self.shape)

    def cell_hazards(self, edges) -> np.ndarray:
        # -expm1 of each cell's drop in log survival, which keeps a cell's
        # mass where (sf_prev - sf) / sf_prev rounds it to 0.0 or 1.0.  A
        # power past the float range is inf, as in log_sf, and its cell
        # gets 1.0; inf - inf gives nan only in later cells
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            return -np.expm1(-np.diff((np.asarray(edges) / self.scale) ** self.shape))

    def _scaled_time(self, factor: float) -> "Weibull":
        return Weibull(self.shape, self.scale * factor)

    def segment_integrals(self, a, b, la, lb, slope):
        from . import _weibull

        return _weibull.segment_integrals([(self.shape, self.scale, len(a))], a, b, la, slope)


class PointMass(ChangePointLaw):
    """Switch exactly at ``location``."""

    location: float
    family = "point-mass"

    def __init__(self, location: float):
        self._set_positive(location=location)

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.location else 0.0

    def sf(self, x: float) -> float:
        return 1.0 - self.cdf(x)  # exact: the cdf is 0 or 1

    def _ppf(self, q: float) -> float:
        return self.location

    def _scaled_time(self, factor: float) -> "PointMass":
        return PointMass(self.location * factor)

    def _segment(self, a, b, la, lb, slope):
        """Exact: a switch at b counts, one at a does not."""
        u0 = self.location
        if not (a < u0 <= b and la > -math.inf):
            return -math.inf
        return lb if u0 == b else la + slope * (u0 - a)

    def segment_integrals(self, a, b, la, lb, slope):
        import numpy as np

        out = np.full(len(a), -math.inf)
        # only a stretch around the location can hold it: one, in a forward pass
        for i in np.flatnonzero((a < self.location) & (self.location <= b)).tolist():
            out[i] = self._segment(*(float(column[i]) for column in (a, b, la, lb, slope)))
        return out


class Table(ChangePointLaw):
    """Piecewise-linear distribution function through (time, probability)
    knots, reaching 1 at the last; a knot (0, 0) is prepended if missing.
    The linear interpolation is part of the law's definition."""

    knots: tuple[tuple[float, float], ...]
    family = "table"

    def __init__(self, knots):
        pts = tuple((float(s), float(g)) for s, g in knots)
        if not pts:
            raise ValueError("table law needs at least one knot")
        if pts[0] != (0.0, 0.0):
            pts = ((0.0, 0.0),) + pts
        # from (0, 0), nondecreasing values that end at 1 stay within [0, 1]
        for (s0, g0), (s1, g1) in zip(pts, pts[1:]):
            if not s0 < s1:
                raise ValueError(f"table times must strictly increase, got {s0} then {s1}")
            if not g0 <= g1:
                raise ValueError(f"table values must be nondecreasing, got {g0} then {g1}")
        if pts[-1][1] != 1.0:
            raise ValueError("table law must reach probability 1 at its last knot")
        if pts[-1][0] == math.inf:
            raise ValueError("table times must be finite, got inf")
        self.__dict__["knots"] = pts

    def _piece(self, x: float):
        """The knots on either side of x, for 0 < x < the last knot time."""
        j = bisect.bisect_left(self.knots, (x,))  # first knot at or after x
        return self.knots[j - 1], self.knots[j]

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= self.knots[-1][0]:
            return 1.0
        (s0, g0), (s1, g1) = self._piece(x)
        return g0 + (g1 - g0) * (x - s0) / (s1 - s0)

    def sf(self, x: float) -> float:
        # from the right-hand knot: 1 - cdf loses every digit near the last
        if x <= 0.0:
            return 1.0
        if x >= self.knots[-1][0]:
            return 0.0
        (s0, g0), (s1, g1) = self._piece(x)
        return (1.0 - g1) + (g1 - g0) * (s1 - x) / (s1 - s0)

    def _ppf(self, q: float) -> float:
        if q <= 0.0:
            return 0.0
        # the first knot reaching q ends a rising interval
        j = bisect.bisect_left([g for _, g in self.knots], q)
        (s0, g0), (s1, g1) = self.knots[j - 1], self.knots[j]
        return s0 + (s1 - s0) * (q - g0) / (g1 - g0)

    def _scaled_time(self, factor: float) -> "Table":
        return Table(tuple((s * factor, g) for s, g in self.knots))

    def _segment(self, a, b, la, lb, slope):
        # closed form on each knot interval that (a, b) meets; with no
        # likelihood at a, slope * (hi - a) may overflow, and inf - inf is nan
        if la == -math.inf:
            return -math.inf
        knots = self.knots
        total = -math.inf
        j = bisect.bisect_right(knots, (a, math.inf))  # first knot after a
        while j < len(knots) and knots[j - 1][0] < b:
            (s0, g0), (s1, g1) = knots[j - 1], knots[j]
            lo, hi, dens = max(a, s0), min(b, s1), (g1 - g0) / (s1 - s0)
            if dens > 0.0:
                log_d = math.log(dens)
                total = _log_add(total, _log_integral_affine(
                    la + slope * (lo - a) + log_d, la + slope * (hi - a) + log_d, hi - lo))
            j += 1
        return total

    def segment_integrals(self, a, b, la, lb, slope):
        # _segment on numpy columns: each stretch split at the knots into one
        # piece per knot interval it meets, in order, and its pieces' closed
        # forms summed in log space
        import numpy as np

        knots = self.knots
        times = np.array([s for s, _ in knots])
        # the log density on each knot interval, -inf where it is flat
        log_d = np.array([_log((g1 - g0) / (s1 - s0)) for (s0, g0), (s1, g1) in zip(knots, knots[1:])])
        first = times.searchsorted(a, side="right") - 1  # the interval that a stretch starts in
        count = times.searchsorted(b)  # one past the last interval that it meets
        np.minimum(count, len(log_d), out=count)
        count -= first
        np.maximum(count, 0, out=count)
        out = np.full(len(a), -math.inf)
        if not np.count_nonzero(count):
            return out
        start = np.cumsum(count)
        start -= count
        stretch = np.repeat(np.arange(len(a)), count)
        q = np.repeat(first - start, count)
        q += np.arange(len(q))
        a_p, la_p, slope_p, ld = a[stretch], la[stretch], slope[stretch], log_d[q]
        lo, hi = np.maximum(a_p, times[q]), np.minimum(b[stretch], times[q + 1])
        piece = _log_integral_affine_array(
            la_p + slope_p * (lo - a_p) + ld, la_p + slope_p * (hi - a_p) + ld, hi - lo)
        # a flat interval adds nothing, nor a stretch without likelihood at a
        np.copyto(piece, -math.inf, where=(ld == -math.inf) | (la_p == -math.inf))
        met = count > 0
        out[met] = np.logaddexp.reduceat(piece, start[met])
        return out


class Hazard(ChangePointLaw):
    """Integer-slot switch time: entry m of ``values`` is the probability of
    switching at slot m given no switch before, and ``tail`` (default: the
    last value) repeats past them, so any horizon is covered.  ``values``
    is stored as a tuple of floats; a numpy array of them, as
    ``discretize`` tabulates, is range-checked in one numpy pass."""

    values: tuple[float, ...]
    tail: float | None = None
    family = "hazard"
    kind = "discrete"

    def __init__(self, values, tail: float | None = None):
        import numpy as np

        if isinstance(values, np.ndarray):
            values = values.astype(float, copy=False)
            vals = tuple(values.tolist())
            inside = bool(((values > 0.0) & (values < 1.0)).all())
        else:
            vals = _as_float_tuple(values)
            inside = all(0.0 < v < 1.0 for v in vals)
        if not vals:
            raise ValueError("discrete hazard needs at least one entry")
        t = float(tail) if tail is not None else vals[-1]
        if not (inside and 0.0 < t < 1.0):
            # find the first value out of range for the message
            for m, v in enumerate(vals + (t,)):
                if not 0.0 < v < 1.0:
                    raise ValueError(f"per-slot switch probability must lie in (0, 1), got {v} at {m}")
        self.__dict__.update(values=vals, tail=t)

    def hazard(self, m: int) -> float:
        """Per-slot switch probability at slot m (1-based, tail-extended)."""
        if m < 1:
            raise IndexError(f"slot index must be >= 1, got {m}")
        return self.values[m - 1] if m <= len(self.values) else self.tail

    def log_sf(self, n: int) -> float:
        """log P(switch slot > n): sum of log(1 - hazard) over slots 1..n."""
        if n < 0:
            raise IndexError(f"slot count must be nonnegative, got {n}")
        listed = self.values[:n]
        return sum(math.log1p(-v) for v in listed) + (n - len(listed)) * math.log1p(-self.tail)


LAWS = {cls.family: cls for cls in (Exponential, Weibull, PointMass, Table, Hazard)}
ChangePointLaw.exponential = Exponential
ChangePointLaw.weibull = Weibull
ChangePointLaw.point_mass = PointMass
ChangePointLaw.table = Table
ChangePointLaw.discrete_hazard = Hazard


def _power(x: float, p: float) -> float:
    """x ** p, or inf where that leaves the float range."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _log_add(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) without overflow."""
    if x < y:
        x, y = y, x
    if y == -math.inf:
        return x
    return x + math.log1p(math.exp(y - x))


def _log_integral_affine(log_a: float, log_b: float, width: float) -> float:
    """log of the integral of an exponential-of-affine function over a segment.

    Takes the log-integrand values at the two endpoints and the segment
    width; stable for any slope sign and for nearly flat integrands.
    """
    if width <= 0.0:
        return -math.inf
    if log_a == -math.inf and log_b == -math.inf:
        return -math.inf
    d = log_b - log_a
    if abs(d) < 1e-7:
        # flat piece: midpoint value, relative error below d^2/24
        return 0.5 * (log_a + log_b) + math.log(width)
    hi = max(log_a, log_b)
    return hi + math.log1p(-math.exp(-abs(d))) - math.log(abs(d)) + math.log(width)


def _log_integral_affine_array(log_a, log_b, width) -> np.ndarray:
    """``_log_integral_affine`` on numpy columns, with the same branches; the
    log of 0 and inf - inf in the branches it overwrites are left to the
    caller's ``np.errstate``."""
    import numpy as np

    d = np.abs(log_b - log_a)
    log_width = np.log(width)
    hi = np.maximum(log_a, log_b)
    out = np.log1p(-np.exp(-d))
    out += hi
    out -= np.log(d)
    out += log_width
    flat = d < 1e-7
    if np.count_nonzero(flat):
        np.copyto(out, 0.5 * (log_a + log_b) + log_width, where=flat)
    # hi is -inf where both ends are (and nan where either is)
    np.copyto(out, -math.inf, where=(width <= 0.0) | (hi == -math.inf))
    return out


class History(Value):
    """Observed arrivals on a continuous window.

    Encodes the event "arrivals happened exactly at these instants and the
    next one is still pending at the horizon".  Arrival instants must be
    strictly increasing, positive, and no later than the horizon; an
    arrival exactly at the horizon is admitted.
    """

    horizon: float
    arrivals: tuple[float, ...] = ()

    def __init__(self, horizon: float, arrivals=()):
        self.__dict__.update(horizon=float(horizon), arrivals=_as_float_tuple(arrivals))
        if not math.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        prev = 0.0
        for i, t in enumerate(self.arrivals):
            if not t > prev:
                if math.isnan(t):
                    raise ValueError(f"arrivals must be numbers, got {t} at index {i}")
                raise ValueError(f"arrivals must strictly increase from 0, got {t} at index {i}")
            if t > self.horizon:
                raise ValueError(f"arrival {t} lies beyond the horizon {self.horizon}")
            prev = t

    @property
    def count(self) -> int:
        return len(self.arrivals)


class DiscreteHistory(Value):
    """Observed arrivals on integer slots 1..horizon_slot.

    Slots and the horizon are integers: Python or numpy ints, or bools.  A
    float is refused, even a whole one, rather than truncated.  The slots
    are stored as a tuple of Python ints.  A 1-D numpy integer array of
    slots, such as the config reader's, is checked for order and bounds in
    one numpy pass, and the history keeps a read-only intp copy of it for
    the discrete engine's array pass (``_slot_array``); for other input
    that copy is built on first use.
    """

    horizon_slot: int
    arrival_slots: tuple[int, ...] = ()
    # not a field: neither compared, hashed, shown nor pickled
    _array = None

    def __init__(self, horizon_slot: int, arrival_slots=()):
        import numpy as np

        array = arrival_slots
        if not (isinstance(array, np.ndarray) and array.ndim == 1 and array.dtype.kind in "iu"
                and np.can_cast(array.dtype, np.intp)):
            array = None
        try:
            if array is None:
                slots = tuple(map(operator.index, arrival_slots))
            else:
                # a copy: the caller may change its array afterwards
                array = array.astype(np.intp)
                array.flags.writeable = False
                slots = tuple(array.tolist())
            horizon = operator.index(horizon_slot)
        except TypeError:
            # a value is no integer: find the first one for the message
            for i, s in enumerate(arrival_slots):
                try:
                    operator.index(s)
                except TypeError:
                    raise ValueError(f"arrival slots must be integers, got {s!r} at index {i}") from None
            raise ValueError(f"horizon slot must be an integer, got {horizon_slot!r}") from None
        self.__dict__.update(horizon_slot=horizon, arrival_slots=slots, _array=array)
        if self.horizon_slot < 1:
            raise ValueError(f"horizon slot must be >= 1, got {self.horizon_slot}")
        if not slots or (slots[0] >= 1 and slots[-1] <= self.horizon_slot and (
                all(map(operator.lt, slots, slots[1:])) if array is None
                # a comparison, unlike np.diff, cannot wrap around int64
                else bool((array[1:] > array[:-1]).all()))):
            return
        # the history is invalid: find the first offending slot for the message
        prev = 0
        for i, s in enumerate(slots):
            if s <= prev:
                raise ValueError(f"arrival slots must strictly increase, got {s} at index {i}")
            if s > self.horizon_slot:
                raise ValueError(f"arrival slot {s} beyond horizon {self.horizon_slot}")
            prev = s

    @property
    def count(self) -> int:
        return len(self.arrival_slots)

    def _slot_array(self) -> np.ndarray:
        """The arrival slots as a read-only intp array."""
        if self._array is None:
            import numpy as np

            array = np.array(self.arrival_slots, dtype=np.intp)
            array.flags.writeable = False
            self.__dict__["_array"] = array
        return self._array


class PosteriorResult(Value):
    """Posterior change mass, survival mass, and the resulting intensity.

    ``prob_after`` is the posterior probability that the switch already
    happened within the window; ``prob_before`` the complement.  The
    intensity is the posterior mixture of the two regime rates at the
    current arrival count, so it always lies between them.
    """

    prob_after: float
    prob_before: float
    intensity: float

    def __init__(self, prob_after: float, prob_before: float, intensity: float):
        self.__dict__.update(prob_after=prob_after, prob_before=prob_before, intensity=intensity)

    @classmethod
    def from_survival(cls, rates: RateSchedule, k: int, survival: float) -> "PosteriorResult":
        """Result for posterior survival ``survival`` after k arrivals."""
        value = rates.post(k) * (1.0 - survival) + rates.pre(k) * survival
        return cls(prob_after=1.0 - survival, prob_before=survival, intensity=value)


def survival_from_log_masses(log_change: float, log_no_change: float) -> float:
    """Posterior survival 1 / (1 + exp(log_change - log_no_change)).

    Shared by both engines.  Never takes exp of a positive argument, so it
    stays finite however decisive the evidence; raises when both masses
    vanish.
    """
    if log_change == -math.inf and log_no_change == -math.inf:
        raise DegenerateModelError("history has zero probability under this model")
    d = log_change - log_no_change
    if d > 0.0:
        e = math.exp(-d)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(d))


class ConditionReport(Value):
    """Which admissibility conditions a schedule satisfies up to a bound.

    Flags:
        assu_strict: post-change rate strictly above pre-change at every count.
        assu_broad: same with >= instead of >.
        catania: the gaps post - pre strictly increase across consecutive
            listed counts.  The repeating tail is excluded from this check
            because repeated entries tie by construction; a report over a
            single-entry schedule is vacuously true.
        plo: strict dominance, evaluated only when all rates are per-slot
            probabilities (None otherwise).
        ser: for every consecutive pair of counts, the survival-odds ratio
            (1-post(k-1))(1-pre(k)) / [(1-pre(k-1))(1-post(k))] is >= 1.
            None when rates are not per-slot probabilities.
    """

    assu_strict: bool
    assu_broad: bool
    catania: bool
    plo: bool | None
    ser: bool | None
    bound: int


def validate_rates(rates: RateSchedule, bound: int | None = None) -> ConditionReport:
    """Evaluate every admissibility condition for counts 0..bound.

    The default bound is the listed length plus one, which covers the point
    where the tail extension takes over; with a repeating tail all
    conditions are eventually periodic so nothing new appears beyond it.
    """
    if bound is None:
        bound = rates.size + 1
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")

    # the listed rates, then the tail value up to count `bound`
    tail = max(0, bound + 1 - rates.size)
    pre = list(rates.pre_change[: bound + 1]) + [rates.pre(rates.size)] * tail
    post = list(rates.post_change[: bound + 1]) + [rates.post(rates.size)] * tail

    assu_strict = all(p1 > p0 for p0, p1 in zip(pre, post))
    assu_broad = all(p1 >= p0 for p0, p1 in zip(pre, post))

    last_pair = min(bound, rates.size - 1)
    catania = all(
        post[k + 1] - pre[k + 1] > post[k] - pre[k] for k in range(last_pair)
    )

    probability_like = all(0.0 < r < 1.0 for r in pre + post)
    plo: bool | None = None
    ser: bool | None = None
    if probability_like:
        plo = assu_strict
        ser = all(
            (1.0 - post[k - 1]) * (1.0 - pre[k]) >= (1.0 - pre[k - 1]) * (1.0 - post[k])
            for k in range(1, bound + 1)
        )

    return ConditionReport(
        assu_strict=assu_strict,
        assu_broad=assu_broad,
        catania=catania,
        plo=plo,
        ser=ser,
        bound=bound,
    )


def history_dominates(h_a, h_b) -> bool:
    """True when every arrival in h_a is at least as late as in h_b.

    Only defined for two histories of the same kind with identical horizon
    and identical arrival count; anything else raises, because "more
    recent arrivals" is meaningless across different windows or counts.
    """
    if isinstance(h_a, History) != isinstance(h_b, History):
        raise IncomparableHistoriesError("cannot compare continuous and discrete histories")
    hor_a = h_a.horizon if isinstance(h_a, History) else h_a.horizon_slot
    hor_b = h_b.horizon if isinstance(h_b, History) else h_b.horizon_slot
    if hor_a != hor_b:
        raise IncomparableHistoriesError(f"horizons differ: {hor_a} vs {hor_b}")
    if h_a.count != h_b.count:
        raise IncomparableHistoriesError(f"arrival counts differ: {h_a.count} vs {h_b.count}")
    times_a = h_a.arrivals if isinstance(h_a, History) else h_a.arrival_slots
    times_b = h_b.arrivals if isinstance(h_b, History) else h_b.arrival_slots
    return all(a >= b for a, b in zip(times_a, times_b))


def shift_operator(h: DiscreteHistory, i: int) -> DiscreteHistory:
    """Move the i-th arrival (1-based) one slot later when admissible.

    The move is admissible when the next arrival leaves a gap (for inner
    indices) or the last arrival is not yet at the horizon; otherwise the
    history is returned unchanged.
    """
    if not 1 <= i <= h.count:
        raise IndexError(f"shift index {i} outside 1..{h.count}")
    slots = list(h.arrival_slots)
    return DiscreteHistory(h.horizon_slot, slots) if _shift_slots(slots, i, h.horizon_slot) else h


def _shift_slots(slots: list[int], i: int, horizon_slot: int) -> bool:
    """shift_operator on a list of slots, in place: whether the i-th moved."""
    moved = slots[i - 1] + 1 < (slots[i] if i < len(slots) else horizon_slot + 1)
    slots[i - 1] += moved
    return moved
