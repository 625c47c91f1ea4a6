"""Inputs, command lists and output checks of the three benchmark workloads.

Every history and config is generated here with numpy from the workload
seed.  The continuous and discrete histories come from the benchmark's own
samplers, never from ``cpb.sample_path`` or ``cpb.sample_discrete_path``,
so a change to the program's samplers cannot change the inputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Continuous model: a 3-count schedule whose post-change rates dominate.
CONT_PRE = (0.8, 1.0, 1.2)
CONT_POST = (2.0, 2.6, 3.2)
# Switch laws with a median switch time of about 20 to 25 time units, so short
# histories (k = 30) are mostly undecided and long ones (k = 300) decisive.
TABLE_KNOTS = ((0.0, 0.0), (5.0, 0.1), (20.0, 0.4), (60.0, 0.8), (400.0, 1.0))
LAWS = {
    "exponential": (["family = exponential", "rate = 0.04"],
                    lambda q: -math.log1p(-q) / 0.04),
    "weibull": (["family = weibull", "shape = 1.5", "scale = 30.0"],
                lambda q: 30.0 * (-math.log1p(-q)) ** (1.0 / 1.5)),
    "table": (["family = table",
               "knots = " + ", ".join(f"{s!r}:{g!r}" for s, g in TABLE_KNOTS[1:])],
              lambda q: float(np.interp(q, [g for _, g in TABLE_KNOTS], [s for s, _ in TABLE_KNOTS]))),
    "point-mass": (["family = point-mass", "location = 25.0"], lambda q: 25.0),
}

# Discrete model: per-slot arrival probabilities and a per-slot switch hazard
# of 1e-3, so the switch lands near slot 1000.
DISC_PRE = (0.1, 0.15, 0.2)
DISC_POST = (0.3, 0.4, 0.5)
DISC_HAZARD = 1e-3
DISC_LAW = ["family = hazard", f"values = {DISC_HAZARD!r}"]
# ROADMAP item 4's decisive discrete case: 1900 arrivals in 2000 slots.
DECISIVE_PRE, DECISIVE_POST, DECISIVE_HAZARD = (0.01,), (0.9,), 0.5
DECISIVE_SLOTS, DECISIVE_ARRIVALS = 2000, 1900
# ROADMAP item 4's known defect: the discrete engine overflows on long
# histories (n >= 1e4 and the decisive case; none of 300 seeds overflows at
# n = 1e3).  Such a command counts as failed; any other exception, or an
# overflow at n = 1e3, is a wrong output.
DISC_KNOWN_ERRORS = ("OverflowError",)

M_LIST = (16, 32, 64, 128, 256)  # cpb converge's default --m-list
# The converge history keeps its arrivals in distinct nonzero slots of the
# width-1/64 grid, and so of every finer one: the rows from m = 64 up are
# admissible, and discretize and the grid posteriors run on every seed.
CONVERGE_GRID = 64


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY the harness smoke test."""

    cont_k: tuple[int, int, int]
    disc_n: tuple[int, int, int]
    sweep_instances: int
    sim_paths: int
    sim_horizon: float
    disc_sim_paths: int
    disc_sim_horizon: int


FULL = Sizes((30, 100, 300), (1_000, 10_000, 100_000), 2000, 4000, 41.0, 200, 1000)
TINY = Sizes((3, 5, 8), (20, 40, 80), 10, 10, 5.0, 5, 50)


@dataclass
class Command:
    """One cpb invocation of a workload cycle.

    ``group`` is "cont" or "disc" for the commands that feed the per-engine
    latency medians, "other" otherwise.  ``instances`` counts the items the
    command is asked for: one history per posterior, one grid resolution
    per converge row, one history pair per sweep instance, one path per
    simulated path.  ``may_raise`` names the exceptions the command may
    raise at this baseline; they count as failed commands.  Any other
    exception, and any exit code other than 0, is a wrong output.
    """

    id: str
    group: str
    argv: list[str]
    instances: int
    check: object
    info: dict = field(default_factory=dict)
    out: Path | None = None
    may_raise: tuple[str, ...] = ()


def _rate(rates, count):
    return rates[min(count, len(rates) - 1)]


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def continuous_history(rng: np.random.Generator, ppf, k: int):
    """Exactly k arrivals from the continuous model, by inversion.

    The horizon falls uniformly between the k-th and the (k+1)-th arrival,
    so the history is a prefix of one sampled path.
    """
    u = ppf(rng.random())
    waits = rng.exponential(size=k + 1)
    now = 0.0
    times = []
    for count, target in enumerate(waits):
        pre, post = _rate(CONT_PRE, count), _rate(CONT_POST, count)
        if now >= u:
            now += target / post
        elif target < pre * (u - now):
            now += target / pre
        else:
            now = u + (target - pre * (u - now)) / post
        times.append(now)
    horizon = times[k - 1] + rng.random() * (times[k] - times[k - 1])
    return float(horizon), [float(t) for t in times[:k]]


def separated_history(rng: np.random.Generator, ppf, k: int, m: int):
    """A continuous history whose arrivals keep distinct nonzero slots on the
    width-1/m grid, drawn again until they do."""
    while True:
        horizon, arrivals = continuous_history(rng, ppf, k)
        slots = [math.floor(t * m) for t in arrivals]
        if slots[0] >= 1 and all(a < b for a, b in zip(slots, slots[1:])):
            return horizon, arrivals


def discrete_history(rng: np.random.Generator, n: int) -> list[int]:
    """Arrival slots of one n-slot path of the discrete model."""
    switch = int(rng.geometric(DISC_HAZARD))
    coins = rng.random(n)
    slots = []
    for r in range(1, n + 1):
        rates = DISC_POST if r > switch else DISC_PRE
        if coins[r - 1] < _rate(rates, len(slots)):
            slots.append(r)
    return slots


def _config(rates, law_lines, history=None, run=None) -> str:
    lines = ["[rates]", f"pre = {_floats(rates[0])}", f"post = {_floats(rates[1])}",
             "", "[changepoint]", *law_lines]
    if history is not None:
        horizon, arrivals = history
        lines += ["", "[history]", f"horizon = {horizon!r}",
                  "arrivals = " + ", ".join(repr(a) for a in arrivals)]
    if run is not None:
        lines += ["", "[run]"] + [f"{key} = {value}" for key, value in run.items()]
    return "\n".join(lines) + "\n"


# -- output checks ----------------------------------------------------------
#
# A check takes (command, stdout text), or (command, path) for a command that
# writes a file, and returns (summary, errors).  The summary is what
# golden.json records for the default seed.  Files are read in a stream, so
# the checks add little to the benchmark's peak memory.

CHUNK = 1 << 20


def file_digest(path: Path) -> tuple[str, int, int]:
    """sha256, size in bytes and number of lines of a file, read in chunks."""
    digest, size, lines = hashlib.sha256(), 0, 0
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(CHUNK), b""):
            digest.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), size, lines


def _rows(text: str):
    return list(csv.reader(io.StringIO(text)))


def _in_unit(x: float) -> bool:
    return 0.0 <= x <= 1.0


def check_posterior(cmd: Command, text: str):
    rows = _rows(text)
    if len(rows) != 2 or rows[0] != ["scenario", "engine", "prob_before", "prob_after", "intensity"]:
        return None, [f"unexpected posterior output {rows[:2]!r}"]
    before, after, mu = (float(v) for v in rows[1][2:5])
    errors = []
    if not (_in_unit(before) and _in_unit(after)):
        errors.append(f"probabilities {before}, {after} outside [0, 1]")
    if abs(before + after - 1.0) > 1e-12:
        errors.append(f"probabilities {before} + {after} do not sum to 1")
    lo, hi = sorted(cmd.info["rates_at_k"])
    if not lo * (1 - 1e-12) <= mu <= hi * (1 + 1e-12):
        errors.append(f"intensity {mu} outside [{lo}, {hi}]")
    return [before, after, mu], errors


def check_converge(cmd: Command, text: str):
    rows = _rows(text)
    header = ["scenario", "m", "admissible", "discrete_posterior", "continuous_posterior", "abs_error"]
    if not rows or rows[0] != header or len(rows) != len(M_LIST) + 1:
        return None, [f"unexpected converge output {rows[:2]!r}"]
    summary, errors = [], []
    for row in rows[1:]:
        m, admissible = int(row[1]), int(row[2])
        summary += [m, admissible]
        if not admissible:
            if m >= CONVERGE_GRID:
                errors.append(f"m={m}: row not admissible")
            continue
        disc, cont, err = float(row[3]), float(row[4]), float(row[5])
        summary += [disc, cont, err]
        if not (_in_unit(disc) and _in_unit(cont)):
            errors.append(f"m={m}: posterior {disc} or {cont} outside [0, 1]")
        if err != abs(disc - cont):
            errors.append(f"m={m}: abs_error {err} is not |{disc} - {cont}|")
    return summary, errors


def check_sweep(cmd: Command, text: str):
    rows = _rows(text)
    if len(rows) < 2 or rows[0][:3] != ["scenario", "engine", "check"] or rows[1][2] != "summary":
        return None, [f"unexpected verify output {rows[:2]!r}"]
    pairs, violations = int(rows[1][3]), int(rows[1][4])
    post_margin, int_margin = float(rows[1][5]), float(rows[1][6])
    errors = []
    if pairs != cmd.instances:
        errors.append(f"sweep reports {pairs} pairs for {cmd.instances} instances")
    if violations or rows[1][7] != "pass":
        errors.append(f"sweep did not pass: {violations} violations")
    return [pairs, violations, post_margin, int_margin], errors


def check_simulate(cmd: Command, path: Path):
    """Structure of a simulate CSV: one index-0 row per path, then its arrivals."""
    with open(path, newline="") as stream:
        errors = _simulate_errors(cmd, csv.reader(stream))
    digest, _, lines = file_digest(path)
    return {"sha256": digest, "rows": lines - 1}, errors


def _simulate_errors(cmd: Command, rows) -> list[str]:
    header = next(rows, None)
    if header != ["path_id", "change_time", "arrival_index", "arrival_time"]:
        return [f"unexpected simulate header {header!r}"]
    horizon, discrete = cmd.info["horizon"], cmd.info["discrete"]
    errors = []
    expect_path, expect_index, last = -1, 0, 0.0
    for row in rows:
        pid, change, index, when = int(row[0]), row[1], int(row[2]), row[3]
        if index == 0:
            expect_path += 1
            if pid != expect_path or when != "":
                errors.append(f"bad path header row {row}")
                break
            path_change, expect_index, last = change, 1, 0.0
            continue
        value = int(when) if discrete else float(when)
        if pid != expect_path or index != expect_index or change != path_change \
                or not last < value <= horizon:
            errors.append(f"bad arrival row {row}")
            break
        expect_index, last = index + 1, value
    if not errors and expect_path + 1 != cmd.instances:
        errors.append(f"{expect_path + 1} paths written, {cmd.instances} asked for")
    return errors


# -- workloads -----------------------------------------------------------------


def posterior_long(rng: np.random.Generator, sizes: Sizes, workdir: Path) -> list[Command]:
    """Continuous posteriors at three k, discrete posteriors at three n, converge.

    The middle continuous size and the middle discrete size get two
    histories each, so each engine's latency median lies inside one size
    class instead of on the edge between two.
    """
    cont_rates = (CONT_PRE, CONT_POST)
    commands: list[Command] = []
    k_small, k_mid, k_large = sizes.cont_k
    for family, (law_lines, ppf) in LAWS.items():
        for label, k in (("a", k_small), ("a", k_mid), ("b", k_mid), ("a", k_large)):
            history = continuous_history(rng, ppf, k)
            cid = f"posterior.{family}.k{k}{label}"
            path = workdir / f"{cid}.cfg"
            path.write_text(_config(cont_rates, law_lines, history))
            commands.append(Command(cid, "cont", ["posterior", str(path)], 1, check_posterior,
                                    {"rates_at_k": (_rate(CONT_PRE, k), _rate(CONT_POST, k))}))
    n_small, n_mid, n_large = sizes.disc_n
    for label, n in (("a", n_small), ("a", n_mid), ("b", n_mid), ("a", n_large)):
        slots = discrete_history(rng, n)
        cid = f"posterior.discrete.n{n}{label}"
        path = workdir / f"{cid}.cfg"
        path.write_text(_config((DISC_PRE, DISC_POST), DISC_LAW, (n, slots)))
        commands.append(Command(cid, "disc", ["posterior", str(path), "--engine", "discrete"], 1,
                                check_posterior,
                                {"rates_at_k": (_rate(DISC_PRE, len(slots)), _rate(DISC_POST, len(slots)))},
                                may_raise=DISC_KNOWN_ERRORS if n != n_small else ()))
    slots = np.sort(rng.choice(np.arange(1, DECISIVE_SLOTS + 1), DECISIVE_ARRIVALS, replace=False))
    path = workdir / "posterior.decisive.cfg"
    path.write_text(_config((DECISIVE_PRE, DECISIVE_POST),
                            ["family = hazard", f"values = {DECISIVE_HAZARD!r}"],
                            (DECISIVE_SLOTS, slots.tolist())))
    commands.append(Command("posterior.decisive", "disc", ["posterior", str(path), "--engine", "discrete"],
                            1, check_posterior, {"rates_at_k": (DECISIVE_PRE[0], DECISIVE_POST[0])},
                            may_raise=DISC_KNOWN_ERRORS))
    converge_path = workdir / "converge.weibull.cfg"
    converge_history = separated_history(rng, LAWS["weibull"][1], k_small, CONVERGE_GRID)
    converge_path.write_text(_config(cont_rates, LAWS["weibull"][0], converge_history))
    commands.append(Command("converge.weibull", "other", ["converge", str(converge_path)],
                            len(M_LIST), check_converge))
    return commands


def sweep(rng: np.random.Generator, sizes: Sizes, workdir: Path) -> list[Command]:
    """cpb verify --suite theorem1 on one continuous and one discrete config."""
    commands = []
    for group, law_lines, rates in (
        ("cont", LAWS["exponential"][0], (CONT_PRE, CONT_POST)),
        ("disc", DISC_LAW, (DISC_PRE, DISC_POST)),
    ):
        run = {"seed": int(rng.integers(0, 2**31)), "instances": sizes.sweep_instances}
        cid = f"verify.{'continuous' if group == 'cont' else 'discrete'}"
        path = workdir / f"{cid}.cfg"
        path.write_text(_config(rates, law_lines, run=run))
        commands.append(Command(cid, group, ["verify", str(path), "--suite", "theorem1"],
                                sizes.sweep_instances, check_sweep))
    return commands


def simulate(rng: np.random.Generator, sizes: Sizes, workdir: Path) -> list[Command]:
    """cpb simulate --out on a continuous and a discrete config."""
    commands = []
    for group, law_lines, rates, horizon, paths in (
        ("cont", LAWS["point-mass"][0], (CONT_PRE, CONT_POST), sizes.sim_horizon, sizes.sim_paths),
        ("disc", DISC_LAW, (DISC_PRE, DISC_POST), sizes.disc_sim_horizon, sizes.disc_sim_paths),
    ):
        cid = f"simulate.{'continuous' if group == 'cont' else 'discrete'}"
        path = workdir / f"{cid}.cfg"
        path.write_text(_config(rates, law_lines, (horizon, [])))
        out = workdir / f"{cid}.csv"
        seed = int(rng.integers(0, 2**31))
        commands.append(Command(
            cid, group,
            ["simulate", str(path), "--paths", str(paths), "--seed", str(seed), "--out", str(out)],
            paths, check_simulate, {"horizon": horizon, "discrete": group == "disc"}, out))
    return commands


WORKLOADS = {"posterior-long": posterior_long, "sweep": sweep, "simulate": simulate}


def build(name: str, seed: int, sizes: Sizes, workdir: Path) -> list[Command]:
    """The command cycle of one workload; the same seed gives the same files."""
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng((seed, index))
    return WORKLOADS[name](rng, sizes, workdir)
