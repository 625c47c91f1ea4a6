"""Benchmark of cpb, run end to end through ``cpb.cli.main(argv)``.

    python3 perfbench/run.py --workload posterior-long --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it repeats the workload's command cycle for the given
seconds, one command at a time from one client, and reports the
end-to-end metrics.  With ``--trace 1`` it wraps the public functions of
each cpb module, runs the workload traced (plus one traced cycle of each
other workload) and reports the per-layer metrics.  Every command's output
is checked; a mismatch makes the run exit with code 1.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
SETUP_REPS = 7
# Every timing is scaled to the speed at which reference_seconds() takes
# REF_NOMINAL_S; see typical().
REF_NOMINAL_S = 0.005
REF_ROUNDS = 200
# golden values may move in the last digits when an engine's summation order
# changes; simulate CSVs and counts must stay exact
REL_TOL, ABS_TOL = 1e-9, 1e-15

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_cli():
    """Import cpb.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "cpb" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cpb sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import cpb
    import cpb.cli

    if Path(cpb.__file__).resolve().parent != SRC / "cpb":
        raise SystemExit(f"perfbench: imported cpb from {cpb.__file__}, not from {SRC}")
    return cpb.cli


def cold_import_seconds() -> float:
    """Time to import cpb.cli in a fresh interpreter, measured inside it."""
    code = "import time; t = time.perf_counter(); import cpb.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop (float math, sorting, repr), about
    5 ms; it gauges the speed of the shared machine next to each timing."""
    start = perf_counter()
    xs = [float(i) for i in range(200)]
    total = 0.0
    for _ in range(REF_ROUNDS):
        for x in xs:
            total += math.log(x + 1.0)
        xs.sort(reverse=True)
        total += len(repr(total))
    return perf_counter() - start


@dataclass
class Record:
    workload: str
    cycle: int
    command: workloads.Command
    seconds: float
    ref: float  # reference_seconds() around the command, mean of before and after
    error: str
    rows: int
    bytes: int
    traced: bool


class Runner:
    """Runs commands one at a time, times them and checks their output."""

    def __init__(self, cli, golden: dict | None):
        self.cli = cli
        self.golden = golden
        self.tracer: Tracer | None = None
        self.records: list[Record] = []
        self.problems: list[str] = []
        self.summaries: dict[str, object] = {}
        self._first: dict[str, tuple[str, int]] = {}

    def execute(self, workload: str, cycle: int, cmd: workloads.Command) -> Record:
        if self.tracer is not None:
            self.tracer.current_command = len(self.records)
        out, err = io.StringIO(), io.StringIO()
        code, raised = None, ""
        ref = reference_seconds()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(cmd.argv)
            error = "" if code == 0 else f"exit code {code}: {err.getvalue().strip()[:200]}"
        except Exception as exc:  # counted in failed, never filtered
            raised = type(exc).__name__
            error = f"{raised}: {exc}"[:200]
        seconds = perf_counter() - start
        ref = (ref + reference_seconds()) / 2
        rows = size = 0
        if raised:
            self._check_raised(cmd, raised)
        elif code == 0 or cmd.out is None:
            # a nonzero exit code is a wrong output; the check reports what
            # the command printed (a failing sweep's violations, say)
            rows, size = self._check(cmd, out.getvalue())
        if code not in (None, 0):
            self.problems.append(f"{cmd.id}: {error}")
        record = Record(workload, cycle, cmd, seconds, ref, error, rows, size, self.tracer is not None)
        self.records.append(record)
        return record

    def _check_raised(self, cmd: workloads.Command, raised: str):
        """A command may raise only what it raises at the baseline, and for the
        default seed only where golden.json records that it raises."""
        expected = (self.golden or {}).get(cmd.id)
        if raised not in cmd.may_raise:
            self.problems.append(f"{cmd.id}: raised {raised}, which it may not raise")
        elif self.golden is not None and expected != {"raises": raised}:
            self.problems.append(f"{cmd.id}: raised {raised}; golden expects {expected!r}")
        self.summaries[cmd.id] = {"raises": raised}

    def _check(self, cmd: workloads.Command, text: str) -> tuple[int, int]:
        if cmd.out is not None:
            digest, size, lines = workloads.file_digest(cmd.out)
        else:
            data = text.encode()
            digest, size, lines = hashlib.sha256(data).hexdigest(), len(data), data.count(b"\n")
        if cmd.id in self._first:
            if digest != self._first[cmd.id]:
                self.problems.append(f"{cmd.id}: output differs from its first repetition")
            return lines - 1, size
        summary, errors = cmd.check(cmd, cmd.out if cmd.out is not None else text)
        self.problems += [f"{cmd.id}: {e}" for e in errors]
        expected = (self.golden or {}).get(cmd.id)
        # a command golden.json records as raising has no values to match:
        # once it stops raising, the generic checks alone apply
        if expected is not None and "raises" not in expected and not _matches(summary, expected):
            self.problems.append(f"{cmd.id}: output {summary!r} differs from golden {expected!r}")
        self.summaries[cmd.id] = summary
        self._first[cmd.id] = digest
        return lines - 1, size  # CSV data rows, header excluded

    @contextmanager
    def tracing(self, tracer: Tracer):
        tracer.install()
        self.tracer = tracer
        try:
            yield
        finally:
            tracer.restore()
            self.tracer = None

    def alternate(self, tracer: Tracer, workload: str, commands, seconds: float):
        """Untraced and traced cycles in turn, at least one of each, so that
        both meet the same load; returns (untraced, traced) records."""
        start = perf_counter()
        done: tuple[list[Record], list[Record]] = ([], [])
        cycle = 0
        while cycle < 2 or perf_counter() - start < seconds:
            traced = cycle % 2 == 1
            with self.tracing(tracer) if traced else nullcontext():
                done[traced].extend(self.execute(workload, cycle, cmd) for cmd in commands)
            cycle += 1
        return done

    def loop(self, workload: str, commands, seconds: float) -> list[Record]:
        """Closed loop: whole cycles until the time is up, at least one."""
        start = perf_counter()
        cycle = 0
        done = []
        while cycle == 0 or perf_counter() - start < seconds:
            done += [self.execute(workload, cycle, cmd) for cmd in commands]
            cycle += 1
        return done


def _matches(actual, expected) -> bool:
    if isinstance(expected, dict) or isinstance(expected, int) or actual is None:
        return actual == expected
    if isinstance(expected, list):
        return len(actual) == len(expected) and all(map(_matches, actual, expected))
    return abs(actual - expected) <= REL_TOL * max(abs(actual), abs(expected)) + ABS_TOL


# -- metrics -------------------------------------------------------------------

def typical(records: list[Record]) -> dict[str, tuple[float, Record]]:
    """Each command's mean time over the run, at reference speed, with one
    of its records.

    Other tenants of a shared machine change its speed by up to 1.7 times,
    from second to second and for stretches of minutes, so wall times of
    the same code drift by as much from one run to the next.  Each
    repetition's wall time is therefore scaled by REF_NOMINAL_S over the
    reference loop's time measured right before and after it: the time the
    command would take where the loop takes REF_NOMINAL_S.  The first cycle
    warms up caches and lazy imports; once there is a second, it is left out.
    """
    first = min(r.cycle for r in records)
    timed = [r for r in records if r.cycle != first] or records
    times: dict[str, list[float]] = {}
    kept: dict[str, Record] = {}
    for r in timed:
        times.setdefault(r.command.id, []).append(r.seconds * REF_NOMINAL_S / r.ref)
        kept[r.command.id] = r
    return {cid: (statistics.fmean(ts), kept[cid]) for cid, ts in times.items()}


def end_to_end(records: list[Record], setup_s: float) -> dict[str, float]:
    best = typical(records)
    cycle_s = sum(t for t, _ in best.values())

    def rate(amount) -> float:
        """One cycle's work over the sum of its commands' mean times."""
        return sum(amount(r) for _, r in best.values()) / cycle_s

    def ms(group=None) -> list[float]:
        return [t * 1e3 for t, r in best.values() if group in (None, r.command.group)]

    return {
        "setup_s": setup_s,
        "queries_per_s": rate(lambda r: 1),
        "cont_query_p50_ms": statistics.median(ms("cont")),
        "disc_query_p50_ms": statistics.median(ms("disc")),
        "query_p90_ms": statistics.quantiles(ms(), n=10, method="inclusive")[-1],
        "instances_per_s": rate(lambda r: r.command.instances),
        "rows_per_s": rate(lambda r: r.rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def per_layer(tracer: Tracer, records: list[Record], sizes: workloads.Sizes,
              speedup: float, overhead: float) -> dict[str, float]:
    """Per-layer metrics, each from the traced commands of the workload it belongs to."""
    seconds, size = tracer.seconds, tracer.size
    own = tracer.self_seconds()
    index: dict[tuple[str, str], list[int]] = {}
    for i, command in enumerate(tracer.command):
        index.setdefault((records[command].workload, tracer.name(i)), []).append(i)

    def select(workload, name):
        return index.get((workload, name), [])

    def cycle_of(i):
        return records[tracer.command[i]].cycle

    def cycles(workload):
        return sorted({r.cycle for r in records if r.traced and r.workload == workload})

    def per_cycle(workload, name):
        """Median over the workload's traced cycles of the summed span time."""
        sums = dict.fromkeys(cycles(workload), 0.0)
        for i in select(workload, name):
            sums[cycle_of(i)] += seconds(i)
        return statistics.median(sums.values())

    def per_cycle_per_size(workload, name):
        """Median over traced cycles of summed span time over summed size."""
        sums = {c: [0.0, 0] for c in cycles(workload)}
        for i in select(workload, name):
            acc = sums[cycle_of(i)]
            acc[0] += seconds(i)
            acc[1] += size[i]
        return statistics.median(t / n for t, n in sums.values())

    def count_per_cycle(workload, name):
        return len(select(workload, name)) / len(cycles(workload))

    def median_by_size(workload, name, n, scale):
        return statistics.median(seconds(i) * scale for i in select(workload, name) if size[i] == n)

    pl, sw, sm = "posterior-long", "sweep", "simulate"
    metrics = {}
    for label, k in zip(("k30", "k100", "k300"), sizes.cont_k):
        metrics[f"continuous.intensity.ms.{label}"] = median_by_size(pl, "continuous.intensity", k, 1e3)
    metrics["continuous.intensity.k_exponent"] = _slope(
        sizes.cont_k, [metrics[f"continuous.intensity.ms.{label}"] for label in ("k30", "k100", "k300")])
    metrics["continuous.loglik_calls_per_posterior"] = (
        len(select(pl, "continuous.log_likelihood_given_changepoint"))
        / len(select(pl, "continuous.posterior_survival")))
    metrics["continuous.quad.calls"] = count_per_cycle(pl, "continuous.quad")
    metrics["continuous.quad.s"] = per_cycle(pl, "continuous.quad")
    metrics["continuous.sample_path.us_per_arrival"] = per_cycle_per_size(sm, "continuous.sample_path") * 1e6
    metrics["continuous.convergence_study.s"] = per_cycle(pl, "continuous.convergence_study")
    metrics["continuous.discretize.s"] = per_cycle(pl, "continuous.discretize")
    for label, n in zip(("n1e3", "n1e4", "n1e5"), sizes.disc_n):
        metrics[f"discrete.posterior_survival.ns_per_slot.{label}"] = median_by_size(
            pl, "discrete.posterior_survival", n, 1e9 / n)
    metrics["discrete.posterior_survival.us_per_call"] = statistics.median(
        seconds(i) * 1e6 for i in select(sw, "discrete.posterior_survival"))
    metrics["discrete.sample_discrete_path.us_per_slot"] = per_cycle_per_size(
        sm, "discrete.sample_discrete_path") * 1e6
    metrics["cli.load_config.s"] = per_cycle(pl, "cli.load_config")
    rows = {c: sum(r.rows for r in records if r.traced and r.workload == sm and r.cycle == c) for c in cycles(sm)}
    cmd_self = dict.fromkeys(rows, 0.0)
    for (workload, name), found in index.items():
        if workload == sm and name.startswith("cli.cmd_"):
            for i in found:
                cmd_self[cycle_of(i)] += own[i]
    metrics["cli.self.us_per_row"] = statistics.median(cmd_self[c] / rows[c] * 1e6 for c in rows)
    first = {w: cycles(w)[0] for w in {r.workload for r in records if r.traced}}
    metrics["cli.bytes_out"] = sum(r.bytes for r in records if r.traced and r.cycle == first[r.workload])
    sweeps = select(sw, "verify.theorem1_sweep")
    metrics["verify.self_us_per_instance"] = statistics.median(
        own[i] / records[tracer.command[i]].command.instances * 1e6 for i in sweeps)
    engine = dict.fromkeys(sweeps, 0.0)
    for i, parent in enumerate(tracer.parent):
        if parent in engine and tracer.name(i).startswith(("continuous.", "discrete.")):
            engine[parent] += seconds(i)
    metrics["verify.engine_share"] = statistics.median(engine[i] / seconds(i) for i in sweeps)
    metrics["core.validate_rates.calls"] = count_per_cycle(sw, "core.validate_rates")
    metrics["core.validate_rates.s"] = per_cycle(sw, "core.validate_rates")
    metrics["verify.speedup_2w"] = speedup
    metrics["trace.overhead_frac"] = overhead
    return metrics


def sweep_speedup(runner: Runner, commands) -> float:
    """Sweep cycle time with THREADS=1 over THREADS=2, alternating, two rounds each."""
    times = {"1": [], "2": []}
    try:
        for _ in range(2):
            for threads in times:
                os.environ["THREADS"] = threads
                times[threads].append(sum(runner.execute(f"sweep-threads{threads}", 0, cmd).seconds
                                          for cmd in commands))
    finally:
        os.environ["THREADS"] = "1"
    return statistics.median(times["1"]) / statistics.median(times["2"])


# -- driver --------------------------------------------------------------------


def stamp(args) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "THREADS": os.environ["THREADS"], "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace, "size": args.size}


def setup(names, seed: int, sizes: workloads.Sizes, workdir: Path):
    """Build the inputs SETUP_REPS times; setup_s is the median import + build.

    Unlike the command times it is not scaled by the reference loop: a cold
    import moves with disk and memory more than with the loop's speed, and
    scaling it doubled the spread of its samples.
    """
    samples = []
    for _ in range(SETUP_REPS):
        imported = cold_import_seconds()
        start = perf_counter()
        commands = {name: workloads.build(name, seed, sizes, workdir) for name in names}
        samples.append(imported + perf_counter() - start)
    return commands, statistics.median(samples)


def run(args) -> int:
    os.environ["THREADS"] = "1"  # one client, one sweep worker
    cli = import_cli()
    sizes = workloads.FULL if args.size == "full" else workloads.TINY
    golden = None
    if args.size == "full" and args.seed == GOLDEN_SEED and not args.record_golden:
        golden = json.loads(GOLDEN.read_text())["commands"]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    runner = Runner(cli, golden)
    try:
        names = list(workloads.WORKLOADS) if args.trace or args.record_golden else [args.workload]
        commands, setup_s = setup(names, args.seed, sizes, workdir)
        if args.record_golden:
            for name in names:
                runner.loop(name, commands[name], 0)
            GOLDEN.write_text(json.dumps({"seed": args.seed, "commands": runner.summaries}, indent=1) + "\n")
            print(f"wrote {GOLDEN}")
            return 0
        if args.trace:
            tracer = Tracer()
            untraced, traced = runner.alternate(tracer, args.workload, commands[args.workload],
                                                args.seconds * 1.25)
            with runner.tracing(tracer):
                for name in names:
                    if name != args.workload:
                        runner.loop(name, commands[name], 0)
            speedup = sweep_speedup(runner, commands["sweep"])
            overhead = (sum(t for t, _ in typical(traced).values())
                        / sum(t for t, _ in typical(untraced).values()) - 1)
            metrics = per_layer(tracer, runner.records, sizes, speedup, overhead)
            tracer.write(OUT_DIR / f"spans-{args.workload}.csv.gz")
        else:
            measured = runner.loop(args.workload, commands[args.workload], args.seconds)
            metrics = end_to_end(measured, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    failed = sum(1 for r in records if r.error)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    errors = Counter(f"{r.command.id}: {r.error}" for r in records if r.error)
    env = stamp(args)
    failed_frac = failed / len(records)
    (OUT_DIR / f"run-{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {"stamp": env, "metrics": metrics, "units": units, "attempted": len(records), "failed": failed,
         "failed_frac": failed_frac, "errors": errors, "problems": runner.problems,
         "commands": [[r.workload, r.cycle, r.command.id, r.seconds, r.ref, r.error] for r in records]},
        indent=1))

    print("stamp " + json.dumps(env))
    refs = [r.ref for r in records]
    print(f"reference loop: mean {statistics.fmean(refs) * 1e3:.3f} ms around {len(refs)} commands; "
          f"times below are scaled to {REF_NOMINAL_S * 1e3:g} ms")
    for key, count in sorted(errors.items()):
        print(f"failed {count}x {key}")
    for problem, count in list(Counter(runner.problems).items())[:20]:
        print(f"CHECK FAILED {count}x {problem}")
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':45s} {failed_frac:14.6g} ratio  ({failed} of {len(records)} commands)")
    print(json.dumps({
        "correct": not runner.problems, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not runner.problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), default="posterior-long")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smallest inputs, for the harness smoke test")
    parser.add_argument("--record-golden", action="store_true",
                        help="run one cycle of every workload and rewrite golden.json")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
