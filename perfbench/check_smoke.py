"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/check_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402


def _run(run_py: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), *args], capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    proc = _run(HERE / "run.py", "--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _result("sweep", 1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_checks_catch_wrong_posterior_output():
    cmd = workloads.Command("c", "cont", [], 1, workloads.check_posterior, {"rates_at_k": (1.0, 2.0)})
    header = "scenario,engine,prob_before,prob_after,intensity\n"
    _, errors = cmd.check(cmd, header + "s,continuous,0.25,0.75,1.75\n")
    assert errors == []
    _, errors = cmd.check(cmd, header + "s,continuous,0.25,0.5,2.5\n")
    assert len(errors) == 2  # probabilities do not sum to 1, intensity above the post rate


def test_checks_catch_inadmissible_fine_grid():
    cmd = workloads.Command("converge", "other", [], 5, workloads.check_converge)
    header = "scenario,m,admissible,discrete_posterior,continuous_posterior,abs_error\n"
    rows = "".join(f"s,{m},0,,,\n" for m in workloads.M_LIST)
    _, errors = cmd.check(cmd, header + rows)
    assert errors == [f"m={m}: row not admissible" for m in (64, 128, 256)]


SWEEP_HEADER = "scenario,engine,check,pairs,violations,min_posterior_margin,min_intensity_margin,status,detail\n"
FAILING_SWEEP = SWEEP_HEADER + "s,continuous,summary,10,1,-0.5,0.0,fail,\ns,continuous,violation,,,-0.5,,fail,w\n"


class FakeCli:
    """Stands in for cpb.cli: prints ``text`` and returns ``code``, or raises ``exc``."""

    def __init__(self, text="", code=0, exc=None):
        self.text, self.code, self.exc = text, code, exc

    def main(self, argv):
        if self.exc is not None:
            raise self.exc
        print(self.text, end="")
        return self.code


def _sweep_command():
    return workloads.Command("verify.continuous", "cont", [], 10, workloads.check_sweep)


def test_checks_catch_failing_sweep():
    _, errors = workloads.check_sweep(_sweep_command(), FAILING_SWEEP)
    assert errors == ["sweep did not pass: 1 violations"]


def test_failing_sweep_exit_code_fails_the_run():
    runner = run.Runner(FakeCli(FAILING_SWEEP, code=1), None)
    record = runner.execute("sweep", 0, _sweep_command())
    assert record.error.startswith("exit code 1")
    assert any("did not pass" in p for p in runner.problems)
    assert any("exit code 1" in p for p in runner.problems)


def _overflowing_command(may_raise):
    return workloads.Command("posterior.decisive", "disc", [], 1, workloads.check_posterior,
                             {"rates_at_k": (0.01, 0.9)}, may_raise=may_raise)


def test_known_overflow_counts_as_failed_only():
    golden = {"posterior.decisive": {"raises": "OverflowError"}}
    for known in (None, golden):
        runner = run.Runner(FakeCli(exc=OverflowError("math range error")), known)
        record = runner.execute("posterior-long", 0, _overflowing_command(("OverflowError",)))
        assert record.error.startswith("OverflowError")
        assert runner.problems == []


def test_unexpected_raise_fails_the_run():
    # an exception the command may not raise
    runner = run.Runner(FakeCli(exc=ZeroDivisionError("x")), None)
    runner.execute("posterior-long", 0, _overflowing_command(("OverflowError",)))
    assert len(runner.problems) == 1
    # an allowed exception where golden.json records values
    runner = run.Runner(FakeCli(exc=OverflowError("x")), {"posterior.decisive": [0.5, 0.5, 0.5]})
    runner.execute("posterior-long", 0, _overflowing_command(("OverflowError",)))
    assert len(runner.problems) == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path / "perfbench" / "run.py", "--workload", "sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_command_time_is_mean_at_reference_speed_after_warm_up_cycle():
    cmd = _sweep_command()
    nominal = run.REF_NOMINAL_S
    records = [run.Record("sweep", cycle, cmd, seconds, ref, "", 0, 0, False)
               for cycle, seconds, ref in ((0, 9.0, nominal), (1, 1.0, nominal), (2, 6.0, 2 * nominal))]
    assert run.typical(records)[cmd.id][0] == 2.0  # mean of 1.0 and 6.0 at half speed
    assert run.typical(records[:1])[cmd.id][0] == 9.0  # a single cycle is kept
