"""Change-point counting processes with count-dependent birth rates.

The package computes the posterior probability that an unobserved rate
switch has happened given an observed arrival history, the resulting
arrival intensity, exact discrete-slot counterparts, path simulation, a
count-driven rescaling of the clock, and randomized verification sweeps
for the monotonicity properties that hold within this family.
"""

from .core import (
    CapacityError,
    ChangePointLaw,
    ConditionReport,
    DegenerateModelError,
    DiscreteHistory,
    History,
    IncomparableHistoriesError,
    InvalidScheduleError,
    PosteriorResult,
    PreconditionError,
    RateSchedule,
    SearchFailureError,
    history_dominates,
    shift_operator,
    validate_rates,
)
from .continuous import ContinuousModel, PathSample, intensity_path
from .discrete import DiscreteModel, ShiftRatios
from .timescale import TimeScale

__all__ = [
    "CapacityError",
    "ChangePointLaw",
    "ConditionReport",
    "ContinuousModel",
    "DegenerateModelError",
    "DiscreteHistory",
    "DiscreteModel",
    "History",
    "IncomparableHistoriesError",
    "InvalidScheduleError",
    "PathSample",
    "PosteriorResult",
    "PreconditionError",
    "RateSchedule",
    "SearchFailureError",
    "ShiftRatios",
    "TimeScale",
    "history_dominates",
    "intensity_path",
    "shift_operator",
    "validate_rates",
]

__version__ = "0.1.0"
