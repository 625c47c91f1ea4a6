"""Byte-for-byte CLI outputs: exit code, stdout and stderr of fixed invocations.

The configs live in tests/golden/cfg and the recorded outputs in
tests/golden/cli.json.  To record them again from the cpb on the path:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cpb import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CFG = GOLDEN / "cfg"
RECORDED = GOLDEN / "cli.json"

# argv strings, each run with tests/golden/cfg as the working directory
CASES = [
    "posterior closed-form.cfg",
    "posterior equal-rates.cfg",
    "posterior readme.cfg",
    "posterior discrete.cfg --engine discrete",
    "posterior discrete.cfg --engine oracle",
    "posterior closed-form.cfg --engine discrete --m 128",
    "posterior readme.cfg --engine oracle --m 4",
    "posterior exponential.cfg",
    "posterior weibull.cfg",
    "posterior point-mass.cfg",
    "posterior table.cfg",
    "posterior hazard.cfg --engine discrete",
    "simulate closed-form.cfg --paths 20 --seed 7",
    "simulate weibull.cfg --paths 5",
    "simulate discrete.cfg --paths 10 --seed 2",
    "simulate closed-form.cfg --paths 0",
    "verify discrete.cfg --suite theorem1",
    "verify closed-form.cfg --suite theorem1",
    "verify closed-form.cfg --suite counterexample --M 100",
    "verify swapped-levels.cfg --suite counterexample",
    "verify discrete.cfg --suite identities",
    "verify closed-form.cfg --suite convergence --m-list 16,32,64,128",
    "verify point-mass.cfg --suite convergence --m-list 8,16",
    "verify closed-form.cfg --suite timescale",
    "verify readme.cfg --suite timescale",
    "transform readme.cfg --regularize",
    "transform closed-form.cfg --gammas 2.0",
    "converge closed-form.cfg --m-list 32,64,128",
    # argparse's own exits: help pages, an unknown choice and a missing
    # required option, each followed by good invocations in the same process
    "--help",
    "posterior --help",
    "verify --help",
    "verify discrete.cfg --suite nope",
    "transform readme.cfg",
    "posterior closed-form.cfg --engine discrete",
    # simulate streams its rows: a bad seed must still fail before the header
    "simulate closed-form.cfg --paths 3 --seed -1",
    "verify discrete.cfg --suite timescale",
    # one simulate case per sampler branch: every law family, and the zero tail's stop
    "simulate hazard.cfg --paths 30 --seed 5",
    "simulate point-mass.cfg --paths 20 --seed 3",
    "simulate table.cfg --paths 20 --seed 4",
    "simulate exponential.cfg --paths 20",
    "simulate zero-tail.cfg --paths 30 --seed 6",
    # paths of over 200 arrivals, past the sampler's block edges at 64 and 192 draws
    "simulate simulate-long.cfg --paths 2 --seed 11",
    "posterior long-discrete.cfg --engine discrete",
    # every "cannot run on this config" exit: a discrete config where a
    # continuous one is needed, and each command without a [history]
    "posterior discrete.cfg",
    "posterior no-history.cfg",
    "posterior no-history.cfg --engine discrete --m 8",
    "posterior no-history-discrete.cfg --engine discrete",
    "simulate no-history.cfg",
    "converge discrete.cfg",
    "converge no-history.cfg",
    "verify discrete.cfg --suite convergence",
    "verify discrete.cfg --suite counterexample",
    "verify no-history.cfg --suite timescale",
    "verify no-history-discrete.cfg --suite identities",
    "transform discrete.cfg --regularize",
    # grid factors below 1 and --m-list entries that are no integers: a bad
    # option, not a snapping failure or an inadmissible row
    "posterior readme.cfg --engine discrete --m 0",
    "posterior closed-form.cfg --engine discrete --m -3",
    "verify discrete.cfg --suite identities --m 0",
    # a grid factor that is no integer: --m refuses it as --m-list does
    "posterior readme.cfg --engine discrete --m 4.5",
    "verify readme.cfg --suite identities --m 4.5",
    # --m snaps a continuous config to a slot grid: on a discrete config, which
    # has its own slots, each command that takes it refuses it
    "posterior hazard.cfg --engine discrete --m 4",
    "posterior discrete.cfg --engine oracle --m 4",
    "verify discrete.cfg --suite identities --m 4",
    # a run refuses any option that it does not read: --m, read only by the
    # discrete and oracle engines and the identities suite, --M, read only by
    # the counterexample suite, and --m-list, read only by the convergence
    # suite.  The refusal comes before the config is read
    "posterior readme.cfg --m 4",
    "verify readme.cfg --suite theorem1 --m 4",
    "verify readme.cfg --suite counterexample --m 4",
    "verify readme.cfg --suite timescale --m 4",
    "verify closed-form.cfg --suite convergence --m 4",
    "verify readme.cfg --suite timescale --M 5",
    "verify closed-form.cfg --suite convergence --M 5",
    "verify discrete.cfg --suite theorem1 --M 5",
    "verify readme.cfg --suite timescale --m-list 4",
    "verify discrete.cfg --suite identities --m-list 3",
    "verify readme.cfg --suite counterexample --m-list 4",
    "verify missing.cfg --suite timescale --M 5",
    "converge readme.cfg --m-list 0,4",
    "converge readme.cfg --m-list 4,x",
    "converge readme.cfg --m-list ,",
    "verify closed-form.cfg --suite convergence --m-list 16,0",
    # slot list spellings: whole-number floats, signs, leading zeros, tabs,
    # doubled commas, tokens at and past the int64 range (also after a
    # float), a non-ASCII digit and a list of separators only
    "posterior slots-float.cfg --engine discrete",
    "posterior slots-spelling.cfg --engine discrete",
    "posterior slots-19-digits.cfg --engine discrete",
    "posterior slots-19-digits-int64.cfg --engine discrete",
    "posterior slots-mixed-19-digits.cfg --engine discrete",
    "posterior slots-non-ascii.cfg --engine discrete",
    "posterior slots-commas.cfg --engine discrete",
    # grids tabulated block by block: a weibull law in numpy, a table law
    # refused at a flat stretch, and a law refused at once on 3e7-5e8 cells
    "converge weibull.cfg --m-list 16,64,256",
    "converge table.cfg --m-list 16,64,256",
    "converge weibull-steep.cfg",
    # the timescale suite on paths of about 1000 arrivals: one knot table per path
    "verify timescale-long.cfg --suite timescale",
    # the identities suite refuses, before any row, when it can check no instance:
    # none asked for, or one slot, where no arrival can shift
    "verify identities-no-instances.cfg --suite identities",
    "verify one-slot.cfg --suite identities",
    # exit 3 for each documented exception the commands above do not reach:
    # a history the model gives zero probability, an oracle past its slot
    # limit, and a slot model whose rates are no probabilities
    "posterior zero-tail-overrun.cfg",
    "posterior hazard.cfg --engine oracle",
    "posterior post-above-one.cfg --engine discrete",
    # exit 2 for a law parameter or an arrival that is no finite number
    "posterior nan-rate.cfg",
    "posterior inf-shape.cfg",
    "posterior inf-location.cfg",
    "posterior inf-knot.cfg",
    "posterior nan-arrival.cfg",
    # exit 3 for a suite tolerance that is not finite and above 0: against nan
    # every error check fails, and against inf no margin can
    "verify nan-tolerance.cfg --suite identities",
    "verify inf-tolerance.cfg --suite identities",
    "verify inf-tolerance.cfg --suite theorem1",
]


def run(command: str) -> dict:
    """Exit code, stdout and stderr of one in-process cpb invocation; argparse
    ends help and usage errors with SystemExit, whose code is the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(command.split())
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("command", CASES)
def test_output_matches_recording(command, monkeypatch):
    monkeypatch.chdir(CFG)
    monkeypatch.setenv("THREADS", "1")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    assert run(command) == json.loads(RECORDED.read_text())[command]


def record() -> None:
    os.chdir(CFG)
    os.environ["THREADS"] = "1"
    os.environ["COLUMNS"] = "80"
    RECORDED.write_text(json.dumps({c: run(c) for c in CASES}, indent=1) + "\n")


if __name__ == "__main__":
    record()
