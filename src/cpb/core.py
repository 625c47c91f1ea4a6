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
from dataclasses import dataclass

__all__ = [
    "TAIL_REPEAT",
    "TAIL_ZERO",
    "InvalidScheduleError",
    "IncomparableHistoriesError",
    "PreconditionError",
    "CapacityError",
    "DegenerateModelError",
    "SearchFailureError",
    "RateSchedule",
    "ChangePointLaw",
    "History",
    "DiscreteHistory",
    "PosteriorResult",
    "ConditionReport",
    "history_dominates",
    "validate_rates",
    "shift_operator",
    "shift_chain",
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
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class RateSchedule:
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

    def __post_init__(self):
        object.__setattr__(self, "pre_change", _as_float_tuple(self.pre_change))
        object.__setattr__(self, "post_change", _as_float_tuple(self.post_change))
        if not self.pre_change or not self.post_change:
            raise InvalidScheduleError("rate schedule needs at least one entry per regime")
        if len(self.pre_change) != len(self.post_change):
            raise InvalidScheduleError(
                f"pre/post lists differ in length: {len(self.pre_change)} vs {len(self.post_change)}"
            )
        if self.tail_mode not in (TAIL_REPEAT, TAIL_ZERO):
            raise InvalidScheduleError(f"unknown tail_mode {self.tail_mode!r}")
        for name, rates in (("pre_change", self.pre_change), ("post_change", self.post_change)):
            for k, r in enumerate(rates):
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


@dataclass(frozen=True)
class ChangePointLaw:
    """Distribution of the unobservable switch time.

    Continuous families: ``exponential`` (rate), ``weibull`` (shape, scale),
    ``point-mass`` (all mass at one instant), ``table`` (a piecewise-linear
    distribution function through the given (time, probability) knots; the
    linear interpolation between knots is part of the law's definition).

    The discrete family ``hazard`` describes an integer-slot switch time
    through per-slot switch probabilities: entry m is the probability of
    switching at slot m given no switch before, and ``hazard_tail`` repeats
    past the listed slots so tail probabilities stay computable for any
    horizon.
    """

    family: str
    rate: float | None = None
    shape: float | None = None
    scale: float | None = None
    location: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None
    hazards: tuple[float, ...] | None = None
    hazard_tail: float | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def exponential(cls, rate: float) -> "ChangePointLaw":
        if rate <= 0.0:
            raise ValueError(f"exponential rate must be positive, got {rate}")
        return cls(family="exponential", rate=float(rate))

    @classmethod
    def weibull(cls, shape: float, scale: float) -> "ChangePointLaw":
        if shape <= 0.0 or scale <= 0.0:
            raise ValueError(f"weibull shape/scale must be positive, got {shape}, {scale}")
        return cls(family="weibull", shape=float(shape), scale=float(scale))

    @classmethod
    def point_mass(cls, location: float) -> "ChangePointLaw":
        if location <= 0.0:
            raise ValueError(f"point mass location must be positive, got {location}")
        return cls(family="point-mass", location=float(location))

    @classmethod
    def table(cls, knots) -> "ChangePointLaw":
        pts = tuple((float(s), float(g)) for s, g in knots)
        if not pts:
            raise ValueError("table law needs at least one knot")
        if pts[0] != (0.0, 0.0):
            pts = ((0.0, 0.0),) + pts
        for (s0, g0), (s1, g1) in zip(pts, pts[1:]):
            if s1 <= s0:
                raise ValueError(f"table times must strictly increase, got {s0} then {s1}")
            if g1 < g0:
                raise ValueError(f"table values must be nondecreasing, got {g0} then {g1}")
        for s, g in pts:
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"table value {g} outside [0, 1]")
        if pts[-1][1] != 1.0:
            raise ValueError("table law must reach probability 1 at its last knot")
        return cls(family="table", knots=pts)

    @classmethod
    def discrete_hazard(cls, values, tail: float | None = None) -> "ChangePointLaw":
        vals = _as_float_tuple(values)
        if not vals:
            raise ValueError("discrete hazard needs at least one entry")
        t = float(tail) if tail is not None else vals[-1]
        for m, v in enumerate(vals + (t,)):
            if not 0.0 < v < 1.0:
                raise ValueError(f"per-slot switch probability must lie in (0, 1), got {v} at {m}")
        return cls(family="hazard", hazards=vals, hazard_tail=t)

    # -- shared ----------------------------------------------------------

    @property
    def kind(self) -> str:
        return "discrete" if self.family == "hazard" else "continuous"

    def _require(self, kind: str):
        if self.kind != kind:
            raise ValueError(f"operation needs a {kind} law, this one is {self.kind}")

    # -- continuous interface ---------------------------------------------

    def cdf(self, x: float) -> float:
        """Probability that the switch happens at or before x."""
        self._require("continuous")
        if x <= 0.0:
            return 0.0
        if self.family == "exponential":
            return -math.expm1(-self.rate * x)
        if self.family == "weibull":
            return -math.expm1(-((x / self.scale) ** self.shape))
        if self.family == "point-mass":
            return 1.0 if x >= self.location else 0.0
        # table: linear interpolation, clamped at 1 beyond the last knot
        pts = self.knots
        if x >= pts[-1][0]:
            return 1.0
        j = bisect.bisect_left(pts, (x,))  # first knot at or after x
        (s0, g0), (s1, g1) = pts[j - 1], pts[j]
        return g0 + (g1 - g0) * (x - s0) / (s1 - s0)

    def sf(self, x: float) -> float:
        """Probability that the switch happens strictly after x."""
        return 1.0 - self.cdf(x)

    def log_sf(self, x: float) -> float:
        self._require("continuous")
        if x <= 0.0:
            return 0.0
        if self.family == "exponential":
            return -self.rate * x
        if self.family == "weibull":
            return -((x / self.scale) ** self.shape)
        s = self.sf(x)
        return math.log(s) if s > 0.0 else -math.inf

    def ppf(self, q: float) -> float:
        """Quantile function; inverts the distribution function."""
        self._require("continuous")
        if not 0.0 <= q < 1.0:
            raise ValueError(f"quantile level must lie in [0, 1), got {q}")
        if self.family == "exponential":
            return -math.log1p(-q) / self.rate
        if self.family == "weibull":
            return self.scale * (-math.log1p(-q)) ** (1.0 / self.shape)
        if self.family == "point-mass":
            return self.location
        pts = self.knots
        if q <= 0.0:
            return pts[0][0]
        for (s0, g0), (s1, g1) in zip(pts, pts[1:]):
            if q <= g1:
                if g1 == g0:
                    continue
                return s0 + (s1 - s0) * (q - g0) / (g1 - g0)
        return pts[-1][0]

    def scaled_time(self, factor: float) -> "ChangePointLaw":
        """Law of the switch time multiplied by a positive constant."""
        self._require("continuous")
        if factor <= 0.0:
            raise ValueError(f"time scale factor must be positive, got {factor}")
        if self.family == "exponential":
            return ChangePointLaw.exponential(self.rate / factor)
        if self.family == "weibull":
            return ChangePointLaw.weibull(self.shape, self.scale * factor)
        if self.family == "point-mass":
            return ChangePointLaw.point_mass(self.location * factor)
        return ChangePointLaw.table(tuple((s * factor, g) for s, g in self.knots))

    # -- discrete interface -------------------------------------------------

    def hazard(self, m: int) -> float:
        """Per-slot switch probability at slot m (1-based, tail-extended)."""
        self._require("discrete")
        if m < 1:
            raise IndexError(f"slot index must be >= 1, got {m}")
        if m <= len(self.hazards):
            return self.hazards[m - 1]
        return self.hazard_tail

    def log_no_change_through(self, n: int) -> float:
        """log P(switch slot > n): sum of log(1 - hazard) over slots 1..n."""
        self._require("discrete")
        if n < 0:
            raise IndexError(f"slot count must be nonnegative, got {n}")
        listed = self.hazards[: min(n, len(self.hazards))]
        total = sum(math.log1p(-v) for v in listed)
        extra = n - len(listed)
        if extra > 0:
            total += extra * math.log1p(-self.hazard_tail)
        return total

    def no_change_through(self, n: int) -> float:
        """P(switch slot > n)."""
        return math.exp(self.log_no_change_through(n))

    def change_mass(self, j: int) -> float:
        """P(switch happens exactly at slot j)."""
        return self.hazard(j) * self.no_change_through(j - 1)


@dataclass(frozen=True)
class History:
    """Observed arrivals on a continuous window.

    Encodes the event "arrivals happened exactly at these instants and the
    next one is still pending at the horizon".  Arrival instants must be
    strictly increasing, positive, and no later than the horizon; an
    arrival exactly at the horizon is admitted.
    """

    horizon: float
    arrivals: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "arrivals", _as_float_tuple(self.arrivals))
        if not math.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        prev = 0.0
        for i, t in enumerate(self.arrivals):
            if t <= prev:
                raise ValueError(f"arrivals must strictly increase from 0, got {t} at index {i}")
            if t > self.horizon:
                raise ValueError(f"arrival {t} lies beyond the horizon {self.horizon}")
            prev = t

    @property
    def count(self) -> int:
        return len(self.arrivals)


@dataclass(frozen=True)
class DiscreteHistory:
    """Observed arrivals on integer slots 1..horizon_slot."""

    horizon_slot: int
    arrival_slots: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "arrival_slots", tuple(int(s) for s in self.arrival_slots))
        object.__setattr__(self, "horizon_slot", int(self.horizon_slot))
        if self.horizon_slot < 1:
            raise ValueError(f"horizon slot must be >= 1, got {self.horizon_slot}")
        prev = 0
        for i, s in enumerate(self.arrival_slots):
            if s <= prev:
                raise ValueError(f"arrival slots must strictly increase, got {s} at index {i}")
            if s > self.horizon_slot:
                raise ValueError(f"arrival slot {s} beyond horizon {self.horizon_slot}")
            prev = s

    @property
    def count(self) -> int:
        return len(self.arrival_slots)


@dataclass(frozen=True)
class PosteriorResult:
    """Posterior change mass, survival mass, and the resulting intensity.

    ``prob_after`` is the posterior probability that the switch already
    happened within the window; ``prob_before`` the complement.  The
    intensity is the posterior mixture of the two regime rates at the
    current arrival count, so it always lies between them.
    """

    prob_after: float
    prob_before: float
    intensity: float

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


@dataclass(frozen=True)
class ConditionReport:
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

    pre = [rates.pre(k) for k in range(bound + 1)]
    post = [rates.post(k) for k in range(bound + 1)]

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
    k = h.count
    if not 1 <= i <= k:
        raise IndexError(f"shift index {i} outside 1..{k}")
    slots = list(h.arrival_slots)
    if i < k:
        if slots[i] > slots[i - 1] + 1:
            slots[i - 1] += 1
            return DiscreteHistory(h.horizon_slot, tuple(slots))
        return h
    if slots[k - 1] < h.horizon_slot:
        slots[k - 1] += 1
        return DiscreteHistory(h.horizon_slot, tuple(slots))
    return h


def shift_chain(h_from: DiscreteHistory, h_to: DiscreteHistory) -> list[int]:
    """A sequence of shift indices carrying h_from onto h_to.

    Requires h_to to dominate h_from.  Works right to left: the last
    arrival is walked to its target first, which guarantees each single
    shift stays admissible.  Replaying the returned indices through
    shift_operator reproduces h_to exactly.
    """
    if not history_dominates(h_to, h_from):
        raise IncomparableHistoriesError("target history does not dominate the source")
    chain: list[int] = []
    current = list(h_from.arrival_slots)
    target = h_to.arrival_slots
    for i in range(h_from.count, 0, -1):
        while current[i - 1] < target[i - 1]:
            current[i - 1] += 1
            chain.append(i)
    return chain
