"""The value-type contract of cpb.core.Value, held by every value class.

Equal fields compare equal and hash alike; a value of another class with
the same fields does not compare equal; fields cannot be set or deleted;
pickles and copies compare equal; the repr names the fields.  The config
reader's keys come from the law classes' fields.
"""

import copy
import pickle

import numpy as np
import pytest

import cpb
from cpb import cli
from cpb import continuous as cont
from cpb import discrete as disc
from cpb import timescale as ts
from cpb import verify
from cpb.core import (
    ChangePointLaw,
    ConditionReport,
    DiscreteHistory,
    History,
    LAWS,
    PosteriorResult,
    RateSchedule,
    Value,
)


def _continuous_model():
    return cont.ContinuousModel(RateSchedule((1.0, 1.5), (2.0, 3.0)), ChangePointLaw.weibull(1.3, 0.8))


def _discrete_model():
    return disc.DiscreteModel(RateSchedule((0.1, 0.2), (0.3, 0.4)), ChangePointLaw.discrete_hazard((0.1, 0.2)))


def _witness():
    return verify.Witness("continuous", _continuous_model(), History(2.0, (0.5,)), History(2.0, (1.5,)),
                          0.4, 0.3, 1.2, 1.3, 0.1)


# one maker per value class: each call builds a new instance with the same fields
MAKERS = {
    RateSchedule: lambda: RateSchedule((1.0, 2.0), (3.0, 4.0), "zero"),
    ChangePointLaw.exponential: lambda: ChangePointLaw.exponential(0.7),
    ChangePointLaw.weibull: lambda: ChangePointLaw.weibull(1.3, 0.8),
    ChangePointLaw.point_mass: lambda: ChangePointLaw.point_mass(0.5),
    ChangePointLaw.table: lambda: ChangePointLaw.table(((1.0, 0.5), (2.0, 1.0))),
    ChangePointLaw.discrete_hazard: lambda: ChangePointLaw.discrete_hazard((0.1, 0.2), tail=0.3),
    History: lambda: History(2.0, (0.5, 1.5)),
    DiscreteHistory: lambda: DiscreteHistory(9, np.array([2, 4, 7])),
    PosteriorResult: lambda: PosteriorResult(0.25, 0.75, 1.5),
    ConditionReport: lambda: ConditionReport(True, True, False, None, None, 3),
    cont.ContinuousModel: _continuous_model,
    cont.PathSample: lambda: cont.PathSample(0.5, (0.25, 1.0), seed=4),
    cont.ConvergenceRow: lambda: cont.ConvergenceRow(16, True, 0.5, 1e-3, 0.501),
    disc.DiscreteModel: _discrete_model,
    disc.ShiftRatios: lambda: disc.ShiftRatios(alpha=1.1, gamma=0.9, delta=1.0),
    disc.ShiftIdentityReport: lambda: disc.ShiftIdentityReport(
        disc.ShiftRatios(1.1, 0.9, 1.0), None, 0.9, 0.9, 1.0, {"gamma_mid": 1e-16}, 0.6, 0.5),
    ts.TimeScale: lambda: ts.TimeScale((1.0, 0.5)),
    verify.SweepConfig: lambda: verify.SweepConfig(engine="continuous", instances=10, seed=3),
    verify.Witness: _witness,
    verify.SweepReport: lambda: verify.SweepReport("continuous", 10, (_witness(),), -0.1, 0.0),
    cli.ModelConfig: lambda: cli.ModelConfig("s", RateSchedule((1.0,), (2.0,)), ChangePointLaw.exponential(1.0),
                                             History(1.0, (0.5,))),
    cli.Table: lambda: cli.Table(("a", "b"), ((1, 2),), ok=False),
}
CLASSES = pytest.mark.parametrize("cls", MAKERS, ids=lambda cls: cls.__qualname__)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_is_covered():
    # the package's own subclasses, less the abstract law base
    package = {c for c in _subclasses(Value) if c.__module__.split(".")[0] == cpb.__name__}
    assert package - {ChangePointLaw} == set(MAKERS)


@CLASSES
def test_equal_fields_compare_and_hash_alike(cls):
    a, b = MAKERS[cls](), MAKERS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    try:
        hash(tuple(getattr(a, name) for name in cls._fields))
    except TypeError:
        # a dict or list field: unhashable, as the tuple of the fields is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@CLASSES
def test_another_class_with_the_same_fields_is_unequal(cls):
    a = MAKERS[cls]()
    twin_cls = type("Twin", (Value,), {"__annotations__": dict(cls._fields)})
    twin = twin_cls(**{name: getattr(a, name) for name in cls._fields})
    assert list(twin_cls._fields) == list(cls._fields)
    assert a != twin and twin != a and not a == twin


@CLASSES
def test_fields_cannot_be_set_or_deleted(cls):
    a = MAKERS[cls]()
    for name in [*cls._fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == MAKERS[cls]()


@CLASSES
@pytest.mark.parametrize("clone", [lambda a: pickle.loads(pickle.dumps(a)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_pickles_and_copies_compare_equal(cls, clone):
    a = MAKERS[cls]()
    b = clone(a)
    assert type(b) is cls and b == a


@CLASSES
def test_repr_names_the_fields(cls):
    a = MAKERS[cls]()
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls._fields)
    assert repr(a) == f"{cls.__qualname__}({shown})"


def test_generic_constructor_refuses_a_bad_binding():
    report = ConditionReport(True, True, False, None, None, 3)
    assert report == ConditionReport(assu_strict=True, assu_broad=True, catania=False, plo=None, ser=None, bound=3)
    assert cli.Table(["a"], []).ok is True  # a class-level default
    for args, kwargs in [((True,) * 7, {}), ((True,) * 6, {"bound": 3}), ((True,) * 5, {"bounds": 3}),
                         ((True,) * 5, {})]:
        with pytest.raises(TypeError):
            ConditionReport(*args, **kwargs)


def test_config_keys_come_from_the_law_fields():
    assert cli._KNOWN_KEYS == {
        "rates": {"pre", "post", "tail"},
        "changepoint": {"family", "rate", "shape", "scale", "location", "knots", "values", "tail"},
        "history": {"horizon", "arrivals"},
        "run": {"seed", "tolerance", "instances"},
    }
    optional = {(family, name) for family, law in LAWS.items() for name in law._fields if hasattr(law, name)}
    assert optional == {("hazard", "tail")}
    assert {family: list(law._fields.values()) for family, law in LAWS.items()} == {
        "exponential": ["float"], "weibull": ["float", "float"], "point-mass": ["float"],
        "table": ["tuple[tuple[float, float], ...]"], "hazard": ["tuple[float, ...]", "float | None"]}


@pytest.mark.parametrize("clone", [lambda a: pickle.loads(pickle.dumps(a)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("slots", [np.array([2, 4, 7]), (2, 4, 7)], ids=["array", "tuple"])
def test_slot_array_of_a_copy_stays_read_only(slots, clone):
    # a copy rebuilds the cache on first use instead of carrying it: an
    # unpickled array would be writeable, and a write would change what the
    # discrete engine reads but not arrival_slots
    h = DiscreteHistory(9, slots)
    h._slot_array()
    for _ in range(2):
        h = clone(h)
        array = h._slot_array()
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 9
        assert array.tolist() == [2, 4, 7] and h.arrival_slots == (2, 4, 7)
