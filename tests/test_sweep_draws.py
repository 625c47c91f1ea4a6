"""The theorem1 sweep's draws, pinned: the first instances of each sampler mode.

A sweep with seed s draws its instances 64 at a time: chunk c draws the
models and history pairs of instances 64c, ..., 64c + 63 from one generator,
default_rng((s, c)).  The recorded draws live in
tests/golden/sweep-draws.json: integers (sizes, counts, slots, the number
of shifts applied) and the law family exactly, floats to 12 significant
digits, so a changed draw fails and a last-bit difference does not.  To
record them again from the cpb on the path:

    PYTHONPATH=src python tests/test_sweep_draws.py
"""

import json
import math
from pathlib import Path
from unittest import mock

import pytest

from cpb import verify
from cpb.core import DiscreteHistory, shift_operator

RECORDED = Path(__file__).resolve().parent / "golden" / "sweep-draws.json"
SEED, INSTANCES = 0, 200
# mode: (engine, require_catania)
MODES = {"discrete": ("discrete", False), "continuous": ("continuous", False),
         "continuous-catania": ("continuous", True)}


def _model_fields(model) -> dict:
    rates, law = model.rates, model.law
    return {"size": len(rates.pre_change), "pre": list(rates.pre_change),
            "post": list(rates.post_change), "family": law.family,
            "law": {name: list(v) if isinstance(v, tuple) else v for name, v in law.params().items()}}


def draws(mode: str) -> list[dict]:
    """The first INSTANCES draws of one sampler mode, made as the sweep makes them."""
    engine, require_catania = MODES[mode]
    cfg = verify.SweepConfig(engine=engine, instances=INSTANCES, seed=SEED, require_catania=require_catania)
    # shifts[i]: the shifts applied after the sampler builds instance i's low history
    shifts = []

    def low_history(*args):
        shifts.append(0)
        return DiscreteHistory(*args)

    def shift(history, index):
        shifts[-1] += 1
        return shift_operator(history, index)

    with mock.patch.object(verify, "DiscreteHistory", low_history), \
            mock.patch.object(verify, "shift_operator", shift):
        drawn = [instance for start in range(0, INSTANCES, verify._CHUNK)
                 for instance in verify._sample_chunk(cfg, start)]
    out = []
    for i, (model, low, high) in enumerate(drawn):
        fields = _model_fields(model)
        if engine == "discrete":
            fields.update(n=low.horizon_slot, k=low.count, low=list(low.arrival_slots),
                          high=list(high.arrival_slots), shifts=shifts[i])
        else:
            fields.update(horizon=low.horizon, k=low.count, low=list(low.arrivals),
                          high=list(high.arrivals))
        out.append(fields)
    return out


def mismatches(fresh, recorded, where="") -> list[str]:
    """Where fresh differs from recorded: a float by more than its 12 recorded
    significant digits allow, anything else at all."""
    if isinstance(recorded, float) and isinstance(fresh, float):
        return [] if math.isclose(fresh, recorded, rel_tol=1e-11) else [f"{where}: {fresh!r} != {recorded!r}"]
    if isinstance(recorded, dict) and isinstance(fresh, dict) and fresh.keys() == recorded.keys():
        return [m for key in recorded for m in mismatches(fresh[key], recorded[key], f"{where}.{key}")]
    if isinstance(recorded, list) and isinstance(fresh, list) and len(fresh) == len(recorded):
        return [m for i, (a, b) in enumerate(zip(fresh, recorded)) for m in mismatches(a, b, f"{where}[{i}]")]
    return [] if type(fresh) is type(recorded) and fresh == recorded else [f"{where}: {fresh!r} != {recorded!r}"]


@pytest.mark.parametrize("mode", list(MODES))
def test_draws_match_recording(mode):
    assert mismatches(draws(mode), json.loads(RECORDED.read_text())[mode], mode) == []


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _rounded(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def record() -> None:
    # one instance a line
    blocks = [f" {json.dumps(mode)}: [\n"
              + ",\n".join("  " + json.dumps(_rounded(fields)) for fields in draws(mode)) + "\n ]"
              for mode in MODES]
    RECORDED.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    record()
