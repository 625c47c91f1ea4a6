"""Randomized property sweeps and counterexample searches.

The monotonicity sweeps draw admissible models and comparable history
pairs by construction (never by rejection), 64 instances at a time from
one generator per (seed, chunk index), and check that later arrivals
push the posterior survival down and the intensity up.  The searches
reproduce a boundary phenomenon: an extra arrival can lower the intensity.
Why windows of different lengths cannot be compared is shown in the tests
(``TestIntervalMismatch`` in tests/test_verify.py).
"""

from __future__ import annotations

import itertools
import math
import os

from . import continuous as cont
from . import discrete as disc
from .core import (
    ChangePointLaw,
    DiscreteHistory,
    History,
    PosteriorResult,
    PreconditionError,
    RateSchedule,
    SearchFailureError,
    Value,
    _shift_slots,
)

__all__ = [
    "SweepConfig",
    "Witness",
    "SweepReport",
    "theorem1_sweep",
    "counterexample_added_arrival",
    "added_arrival_witness",
    "added_arrival_search",
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


class SweepConfig(Value):
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

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.engine not in ("discrete", "continuous"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        _check_tolerance(self.tolerance)


def _check_tolerance(tolerance: float) -> None:
    """Refuse a tolerance that is not finite and above 0: every comparison
    with nan is false, and no margin or error exceeds inf."""
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if tolerance == math.inf:
        raise ValueError("tolerance must be finite, got inf")


class Witness(Value):
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


class SweepReport(Value):
    engine: str
    pairs: int
    violations: tuple[Witness, ...]
    min_posterior_margin: float
    min_intensity_margin: float

    @property
    def passed(self) -> bool:
        return not self.violations


def _evaluate_pairs(engine: str, instances) -> list[dict[str, float]]:
    """The four Witness value fields of each (model, h_low, h_high) in the
    requested engine; the continuous one evaluates all their histories at once."""
    histories = [(model, h) for model, *pair in instances for h in pair]
    if engine == "discrete":
        results = [disc.intensity(model, h) for model, h in histories]
    else:
        results = [PosteriorResult.from_survival(model.rates, h.count, survival)
                   for (model, h), survival in zip(histories, cont._survivals(histories))]
    return [{"posterior_low": low.prob_before, "posterior_high": high.prob_before,
             "intensity_low": low.intensity, "intensity_high": high.intensity}
            for low, high in zip(results[::2], results[1::2])]


def _evaluate_pair(engine: str, model, h_low, h_high) -> dict[str, float]:
    """The four Witness value fields of a history pair in the requested engine."""
    return _evaluate_pairs(engine, [(model, h_low, h_high)])[0]


_CHUNK = 64  # the instances a sweep draws and evaluates together: one pool task


def _sample_chunk(cfg: SweepConfig, start: int) -> list:
    """(model, h_low, h_high) of the instances start, start + 1, ... of one chunk.

    One generator, derived from (seed, chunk index), draws each field of all
    64 instances of the chunk in one call, on rows padded to the largest
    size, and the chunk keeps its first instances up to cfg.instances; so an
    instance's draw depends on the seed and its index alone.

    Discrete schedules meet the discrete monotonicity conditions by
    construction.  In log-survival units, ``ser`` (survival-odds ratios >= 1)
    says exactly that the gap between the regimes' log survival losses never
    shrinks as the count grows.  So a positive gap gives ``plo`` and a
    nondecreasing one gives ``ser``, up to rounding on steps below about
    1e-15, which a U(0, 0.3) step draw hits with probability about 3e-15.
    The high history shifts the low one's arrivals a geometric number of times.

    Continuous schedules' post-change rates dominate at least broadly, by
    construction.  Nonnegative gaps give broad dominance.  With
    ``require_catania`` the gaps are cumulative sums of draws of at least
    0.02, so they strictly increase; otherwise they are free draws, exact
    ties included.  At each index the low history takes the earlier, the
    high one the later of two sorted uniform draws.
    """
    import numpy as np

    rng = np.random.default_rng((cfg.seed, start // _CHUNK))
    rows, width, keep = _CHUNK, MAX_COUNT + 1, range(min(_CHUNK, cfg.instances - start))
    sizes = rng.integers(2, width + 1, size=rows).tolist()
    if cfg.engine == "discrete":
        s_pre = -np.log1p(-rng.uniform(RATE_LOW, RATE_HIGH, size=(rows, width)))
        gaps = np.column_stack((rng.uniform(0.05, 0.4, size=rows),
                                rng.uniform(0.0, 0.3, size=(rows, width - 1)))).cumsum(axis=1)
        pre, post = (-np.expm1(-s_pre)).tolist(), (-np.expm1(-(s_pre + gaps))).tolist()
        hazard_counts = rng.integers(1, 4, size=rows).tolist()
        hazards = rng.uniform(0.02, 0.4, size=(rows, 3)).tolist()
        n = rng.integers(SLOT_LOW, SLOT_HIGH + 1, size=rows)
        k = rng.integers(0, np.minimum(MAX_COUNT, n) + 1)
        keys = rng.random((rows, SLOT_HIGH))
        keys[np.arange(SLOT_HIGH) >= n[:, None]] = 2.0  # slots past n sort last
        slots = (np.argsort(keys, axis=1)[:, :MAX_COUNT] + 1).tolist()
        # every shift count in full: one flat draw holds the indices of all of them
        shifts = np.where(k > 0, rng.geometric(0.25, size=rows), 0)
        indices = iter(rng.integers(1, np.repeat(k + 1, shifts)).tolist())
        n, k, shifts = n.tolist(), k.tolist(), shifts.tolist()
        out = []
        for i in keep:
            low = DiscreteHistory(n[i], sorted(slots[i][:k[i]]))
            high = list(low.arrival_slots)
            for index in itertools.islice(indices, shifts[i]):
                _shift_slots(high, index, n[i])
            law = ChangePointLaw.discrete_hazard(hazards[i][:hazard_counts[i]])
            out.append((disc.DiscreteModel(RateSchedule(pre[i][:sizes[i]], post[i][:sizes[i]]), law),
                        low, DiscreteHistory(n[i], high)))
        return out
    pre = rng.uniform(CONT_RATE_LOW, CONT_RATE_HIGH, size=(rows, width))
    if cfg.require_catania:
        gaps = rng.uniform(0.02, 0.8, size=(rows, width)).cumsum(axis=1)
    else:
        gaps = rng.uniform(0.0, CONT_RATE_HIGH, size=(rows, width))
        gaps[rng.random((rows, width)) < 0.15] = 0.0
    pre, post = pre.tolist(), (pre + gaps).tolist()
    weibull = (rng.random(rows) < WEIBULL_SHARE).tolist()
    shapes, scales = rng.uniform(0.8, 1.8, size=rows).tolist(), rng.uniform(0.5, 2.0, size=rows).tolist()
    law_rates = rng.uniform(0.3, 1.5, size=rows).tolist()
    t = rng.uniform(HORIZON_LOW, HORIZON_HIGH, size=rows)
    k = rng.integers(0, MAX_COUNT + 1, size=rows)
    arrivals = rng.uniform(0.0, t[:, None], size=(2, rows, MAX_COUNT))
    arrivals[:, np.arange(MAX_COUNT) >= k[:, None]] = np.inf  # past k: sorted last
    arrivals.sort(axis=2)
    lows, highs = arrivals.min(axis=0).tolist(), arrivals.max(axis=0).tolist()
    t, k = t.tolist(), k.tolist()
    laws = [ChangePointLaw.weibull(shapes[i], scales[i]) if weibull[i]
            else ChangePointLaw.exponential(law_rates[i]) for i in keep]
    return [(cont.ContinuousModel(RateSchedule(pre[i][:sizes[i]], post[i][:sizes[i]]), laws[i]),
             History(t[i], lows[i][:k[i]]), History(t[i], highs[i][:k[i]])) for i in keep]


def _sweep_chunk(cfg: SweepConfig, start: int):
    """(posterior margin, intensity margin, witness or None) of the instances
    start, start + 1, ... of one chunk, evaluated together."""
    drawn = _sample_chunk(cfg, start)
    out = []
    for (model, h_low, h_high), values in zip(drawn, _evaluate_pairs(cfg.engine, drawn)):
        post_margin = values["posterior_low"] - values["posterior_high"]
        int_margin = values["intensity_high"] - values["intensity_low"]
        witness = None
        if post_margin < -cfg.tolerance or int_margin < -cfg.tolerance:
            witness = Witness(cfg.engine, model, h_low, h_high, margin=min(post_margin, int_margin), **values)
        out.append((post_margin, int_margin, witness))
    return out


def theorem1_sweep(cfg: SweepConfig) -> SweepReport:
    """Check monotonicity on randomly drawn comparable history pairs.

    The instances come in chunks of 64.  A chunk draws all 64 from one
    generator derived from (seed, chunk index), keeps those below
    cfg.instances and evaluates them together, and no value depends on
    the chunk's other instances.  So instance i depends on the seed and i
    alone, whatever the instance count or the THREADS worker count.
    """
    starts = range(0, cfg.instances, _CHUNK)
    try:  # THREADS workers, but no more than there are chunks
        workers = min(int(os.environ.get("THREADS", "1")), len(starts))
    except ValueError:
        workers = 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial sweep never loads the pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_chunk, [cfg] * len(starts), starts))
    else:
        chunks = [_sweep_chunk(cfg, start) for start in starts]
    post_margins, int_margins, witnesses = zip(*(r for chunk in chunks for r in chunk))
    return SweepReport(
        engine=cfg.engine,
        pairs=cfg.instances,
        violations=tuple(w for w in witnesses if w is not None),
        min_posterior_margin=min(post_margins),
        min_intensity_margin=min(int_margins),
    )


def reevaluate(witness: Witness) -> Witness:
    """Recompute a witness's values from its own model and histories."""
    args = (witness.engine, witness.model, witness.history_low, witness.history_high)
    return Witness(*args, margin=witness.margin, **_evaluate_pair(*args))


# -- added-arrival boundary search --------------------------------------------


def added_arrival_search(model: cont.ContinuousModel, t_max: float = 5.0, step: float = 0.05):
    """Scan (horizon, arrival instant) for an intensity drop after one arrival.

    Compares the intensity of a single-arrival history against the empty
    history on the same window and returns the most negative margin found,
    refining the grid once around the best coarse cell.

    Returns (margin, t, t1, intensity_one, intensity_empty).
    """
    import numpy as np

    best = (math.inf, 0.0, 0.0, 0.0, 0.0)

    def scan(ts, t1_grid):
        # t1_grid(t): the arrival instants tried inside the window [0, t]
        nonlocal best
        for t in map(float, ts):
            mu_empty = cont.intensity(model, History(t)).intensity
            for t1 in map(float, t1_grid(t)):
                if t1 >= t:
                    continue
                mu_one = cont.intensity(model, History(t, (t1,))).intensity
                if mu_one - mu_empty < best[0]:
                    best = (mu_one - mu_empty, t, t1, mu_one, mu_empty)

    scan(np.arange(step, t_max + step / 2, step), lambda t: np.arange(step, t, step))
    # refine around the best coarse cell
    _, t0, t10, _, _ = best
    fine = step / REFINE
    scan(np.arange(max(fine, t0 - step), min(t_max, t0 + step) + fine / 2, fine),
         lambda t: np.arange(max(fine, t10 - step), min(t - fine, t10 + step) + fine / 2, fine))
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
        **_evaluate_pair("continuous", model, h_low, h_high),
    )
