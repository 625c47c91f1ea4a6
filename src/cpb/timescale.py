"""Count-driven rescaling of the clock.

The rescaled clock runs at speed gamma_k between the k-th and (k+1)-th
arrivals, so it is piecewise linear along each path and strictly
increasing; each call reads it off one knot table per history or path.
Mapping a path through it multiplies the k-th interarrival by
gamma_{k-1}, and the model stays in the same family with every rate
divided by the speed active at its count.  Choosing the speeds
proportional to the rate gaps makes the transformed gaps strictly
increasing, which is what the monotonicity machinery needs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

from .core import PreconditionError, RateSchedule, validate_rates
from .continuous import History, PathSample

__all__ = [
    "TimeScale",
    "time_map",
    "path_clock",
    "inverse_time_map",
    "transform_path",
    "transform_rates",
    "regularizing_gammas",
    "default_speed_profile",
]


@dataclass(frozen=True)
class TimeScale:
    """Clock speeds per arrival count, last entry repeating forever."""

    gammas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if not self.gammas:
            raise ValueError("time scale needs at least one speed")
        for k, g in enumerate(self.gammas):
            if not math.isfinite(g) or g <= 0.0:
                raise ValueError(f"speed {g} at count {k} is not strictly positive")

    def gamma(self, k: int) -> float:
        if k < 0:
            raise IndexError(f"count must be nonnegative, got {k}")
        return self.gammas[min(k, len(self.gammas) - 1)]

    def inverted(self) -> "TimeScale":
        return TimeScale(tuple(1.0 / g for g in self.gammas))


def _knots(scale: TimeScale, times) -> list[float]:
    """Rescaled clock readings [0, c1, ..., ck] at time 0 and at each arrival."""
    speeds = chain(scale.gammas, repeat(scale.gammas[-1]))
    steps = (g * (t - prev) for g, t, prev in zip(speeds, times, (0.0, *times)))
    return list(accumulate(steps, initial=0.0))


def _clock(scale: TimeScale, times: tuple[float, ...], knots: list[float], x: float) -> float:
    """Rescaled clock reading at original time x, read off the arrivals' knots."""
    count = bisect_right(times, x)
    prev = times[count - 1] if count else 0.0
    return knots[count] + scale.gamma(count) * (x - prev)


def time_map(scale: TimeScale, h: History, t: float) -> float:
    """Rescaled clock reading at time t of the observation window."""
    if not 0.0 <= t <= h.horizon:
        raise ValueError(f"time {t} outside [0, {h.horizon}]")
    return _clock(scale, h.arrivals, _knots(scale, h.arrivals), t)


def path_clock(scale: TimeScale, path: PathSample, t: float) -> float:
    """Rescaled clock reading at time t along a simulated path."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return _clock(scale, path.arrival_times, _knots(scale, path.arrival_times), t)


def inverse_time_map(scale: TimeScale, h: History, s: float) -> float:
    """Original time whose rescaled clock reading is s."""
    knots = _knots(scale, h.arrivals)
    top = _clock(scale, h.arrivals, knots, h.horizon)
    if not 0.0 <= s <= top:
        raise ValueError(f"clock value {s} outside [0, {top}]")
    idx = bisect_right(knots, s) - 1
    base_t = 0.0 if idx == 0 else h.arrivals[idx - 1]
    return base_t + (s - knots[idx]) / scale.gamma(idx)


def transform_path(scale: TimeScale, path: PathSample) -> PathSample:
    """Push a simulated path through the rescaled clock.

    The k-th interarrival gets multiplied by the speed at count k-1, and
    the switch time maps through the same clock, so the transformed path
    has exactly the original arrival counts at corresponding instants.
    """
    times = path.arrival_times
    knots = _knots(scale, times)
    new_change = _clock(scale, times, knots, path.change_time) if math.isfinite(path.change_time) else math.inf
    return PathSample(change_time=new_change, arrival_times=tuple(knots[1:]), seed=path.seed)


def transform_rates(scale: TimeScale, rates: RateSchedule) -> RateSchedule:
    """Divide each count's rates by the clock speed at that count."""
    pre = tuple(rates.pre(k) / scale.gamma(k) for k in range(rates.size))
    post = tuple(rates.post(k) / scale.gamma(k) for k in range(rates.size))
    return RateSchedule(pre, post, rates.tail_mode)


def default_speed_profile(length: int) -> tuple[float, ...]:
    """Strictly decreasing weights 1/(1 + k/(length+1)) with positive limit."""
    if length < 1:
        raise ValueError(f"profile length must be >= 1, got {length}")
    return tuple(1.0 / (1.0 + k / (length + 1)) for k in range(length))


def regularizing_gammas(rates: RateSchedule, c=None) -> TimeScale:
    """Clock speeds that make the transformed rate gaps strictly increase.

    Requires the post-change rate to dominate strictly at every listed
    count.  Speed k is c_k times the gap at count k over the gap at count
    zero; the transformed gap then equals gap(0)/c_k, strictly increasing
    whenever the weights c strictly decrease.  Weights must start at 1 and
    never increase; ties are accepted but leave the corresponding
    transformed gaps tied, which the condition report will flag.
    """
    report = validate_rates(rates)
    if not report.assu_strict:
        raise PreconditionError("regularising speeds need strictly dominating post-change rates")
    size = rates.size
    weights = tuple(float(x) for x in c) if c is not None else default_speed_profile(size)
    if len(weights) != size:
        raise ValueError(f"need {size} weights, got {len(weights)}")
    if weights[0] != 1.0:
        raise ValueError(f"first weight must be 1, got {weights[0]}")
    if any(w <= 0.0 for w in weights):
        raise ValueError("weights must stay strictly positive")
    if any(b > a for a, b in zip(weights, weights[1:])):
        raise ValueError("weights must never increase")
    gap0 = rates.post(0) - rates.pre(0)
    gammas = tuple(
        weights[k] * (rates.post(k) - rates.pre(k)) / gap0 for k in range(size)
    )
    return TimeScale(gammas)
