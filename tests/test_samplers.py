"""Both samplers draw their randomness in numpy blocks; these tests hold them
to scalar oracles that take one draw per step.

The oracles draw one ``rng.random()`` for the switch, then one
``rng.exponential()`` per continuous step, or one ``rng.random()`` per
hazard tried and per slot coin.  A generator shared across many calls must
give the same paths and end in the same state, so a block that draws more
than it uses must hand the surplus back.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpb.continuous import ContinuousModel, PathSample, sample_path
from cpb.core import TAIL_REPEAT, TAIL_ZERO, ChangePointLaw, RateSchedule
from cpb.discrete import DiscreteModel, sample_discrete_path

CALLS = 20


def oracle_path(model, horizon, max_arrivals, rng):
    u = model.law.ppf(rng.random())
    times = []
    now = 0.0
    count = 0
    while True:
        if max_arrivals is not None and count >= max_arrivals:
            break
        pre = model.rates.pre(count)
        post = model.rates.post(count)
        target = rng.exponential()
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
        if horizon is not None and nxt > horizon:
            break
        times.append(nxt)
        now = nxt
        count += 1
    return PathSample(change_time=u, arrival_times=tuple(times))


def oracle_discrete_path(model, horizon, rng):
    switch = None
    for m in range(1, horizon + 1):
        if rng.random() < model.law.hazard(m):
            switch = m
            break
    slots = []
    count = 0
    for r in range(1, horizon + 1):
        post = switch is not None and r > switch
        rate = model.rates.post(count) if post else model.rates.pre(count)
        if rng.random() < rate:
            slots.append(r)
            count += 1
    return switch, tuple(slots)


def table_law(draw):
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4))
    levels = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(gaps) - 1,
                                  max_size=len(gaps) - 1)))
    times = np.cumsum(gaps).tolist()
    return ChangePointLaw.table(tuple(zip(times, levels + [1.0])))


@st.composite
def continuous_laws(draw):
    family = draw(st.sampled_from(["exponential", "weibull", "point-mass", "table"]))
    if family == "exponential":
        return ChangePointLaw.exponential(draw(st.floats(0.02, 5.0)))
    if family == "weibull":
        return ChangePointLaw.weibull(draw(st.floats(0.3, 4.0)), draw(st.floats(0.1, 10.0)))
    if family == "point-mass":
        return ChangePointLaw.point_mass(draw(st.floats(1e-6, 20.0)))
    return table_law(draw)


def rate_lists(draw, low, high):
    n = draw(st.integers(1, 4))
    rates = st.lists(st.floats(low, high), min_size=n, max_size=n)
    return tuple(draw(rates)), tuple(draw(rates))


# a switch at or near 0: nearly every step runs in the sampler's post-switch tail loop
EARLY_LAWS = st.sampled_from([ChangePointLaw.point_mass(1e-6), ChangePointLaw.exponential(50.0)])
# 63-65, 192-193 and 448 sit at the edges of the blocks of 64, 128 and 256 values
EDGES = st.sampled_from([63, 64, 65, 192, 193, 448])


@st.composite
def continuous_cases(draw):
    pre, post = rate_lists(draw, 0.05, 8.0)
    tail = draw(st.sampled_from([TAIL_REPEAT, TAIL_ZERO]))
    if draw(st.booleans()):
        law = draw(EARLY_LAWS)
        # 200-600 arrivals at the tail rate: past the block edges at 64, 192 and 448 draws
        horizon = draw(st.one_of(st.none(), st.floats(200.0, 600.0).map(lambda n: n / post[-1])))
        max_arrivals = draw(st.one_of(st.none(), EDGES))
    else:
        law = draw(continuous_laws())
        horizon = draw(st.one_of(st.none(), st.floats(0.01, 40.0)))
        max_arrivals = draw(st.one_of(st.none(), st.integers(0, 70), EDGES))
    assume(not (tail == TAIL_REPEAT and horizon is None and max_arrivals is None))
    return ContinuousModel(RateSchedule(pre, post, tail), law), horizon, max_arrivals


@st.composite
def discrete_cases(draw):
    pre, post = rate_lists(draw, 0.01, 0.95)
    horizon = draw(st.one_of(st.just(1), st.integers(1, 80)))
    # hazard lists both shorter and longer than the horizon, with or without a tail
    values = tuple(draw(st.lists(st.floats(1e-3, 0.6), min_size=1, max_size=100)))
    tail = draw(st.one_of(st.none(), st.floats(1e-3, 0.6)))
    return DiscreteModel(RateSchedule(pre, post), ChangePointLaw.discrete_hazard(values, tail)), horizon


def assert_continuous_matches_oracle(model, horizon, max_arrivals, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(CALLS):
        path = sample_path(model, horizon=horizon, max_arrivals=max_arrivals, seed=rng)
        assert path == oracle_path(model, horizon, max_arrivals, ref)
    assert rng.random() == ref.random()


@settings(max_examples=150, deadline=None)
@given(continuous_cases(), st.integers(0, 2**32 - 1))
def test_continuous_sampler_matches_one_draw_per_step(case, seed):
    assert_continuous_matches_oracle(*case, seed)


def early_model(tail=TAIL_REPEAT):
    return ContinuousModel(RateSchedule((1.0, 1.5), (2.0, 3.0), tail), ChangePointLaw.point_mass(1e-6))


@pytest.mark.parametrize("model, horizon, max_arrivals", [
    # the count bound met inside the tail loop, at and next to each block edge
    *[(early_model(), None, m) for m in (63, 64, 65, 192, 193, 448)],
    # the horizon met inside the tail loop, after about 100, 300 and 900 arrivals
    *[(early_model(), h, None) for h in (33.0, 100.0, 300.0)],
    # a zero tail: the post rate past the listed counts ends the path
    (early_model(TAIL_ZERO), 50.0, None),
    (early_model(TAIL_ZERO), None, None),
])
def test_tail_loop_edges_match_one_draw_per_step(model, horizon, max_arrivals):
    assert_continuous_matches_oracle(model, horizon, max_arrivals, 5)


@settings(max_examples=150, deadline=None)
@given(discrete_cases(), st.integers(0, 2**32 - 1))
def test_discrete_sampler_matches_one_draw_per_step(case, seed):
    model, horizon = case
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(CALLS):
        path = sample_discrete_path(model, horizon, seed=rng)
        assert path == oracle_discrete_path(model, horizon, ref)
        assert all(type(s) is int for s in path[1])
    assert rng.random() == ref.random()
