"""Count-driven rescaling of the clock.

The rescaled clock runs at speed gamma_k between the k-th and (k+1)-th
arrivals, so it is piecewise linear along each path and strictly
increasing; each call reads it off one knot table per history or path.
Mapping a path through it multiplies the k-th interarrival by
gamma_{k-1}, and the model stays in the same family with every rate
divided by the speed active at its count.  Choosing the speeds
proportional to the rate gaps, scaled by a strictly decreasing profile,
makes the transformed gaps strictly increasing, which is what the
monotonicity machinery needs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain, repeat

from .core import PreconditionError, RateSchedule, Value, validate_rates
from .continuous import History, PathSample

__all__ = [
    "TimeScale",
    "time_map",
    "path_clock",
    "transform_path",
    "transform_rates",
    "regularizing_gammas",
]


class TimeScale(Value):
    """Clock speeds per arrival count, last entry repeating forever."""

    gammas: tuple[float, ...]

    def __init__(self, gammas):
        self.__dict__["gammas"] = tuple(float(g) for g in gammas)
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


def regularizing_gammas(rates: RateSchedule) -> TimeScale:
    """Clock speeds that make the transformed rate gaps strictly increase.

    Requires the post-change rate to dominate strictly at every listed
    count.  Speed k is the gap at count k over the gap at count zero,
    times the profile 1/(1 + k/(size + 1)), which strictly decreases
    towards a positive limit; the transformed gap at count k is then
    gap(0) * (1 + k/(size + 1)), strictly increasing in k.
    """
    report = validate_rates(rates)
    if not report.assu_strict:
        raise PreconditionError("regularising speeds need strictly dominating post-change rates")
    size = rates.size
    gap0 = rates.post(0) - rates.pre(0)
    gammas = tuple(
        1.0 / (1.0 + k / (size + 1)) * (rates.post(k) - rates.pre(k)) / gap0 for k in range(size)
    )
    return TimeScale(gammas)
