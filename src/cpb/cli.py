"""Command line front end: config files in, CSV out.

Subcommands: posterior, simulate, verify, transform, converge.  Inputs are
flat sectioned key=value files.  A discrete slot list of ASCII digits,
commas, blanks and tabs is read in one numpy pass; any other list (6.0,
1e3, +5, junk) token by token, which also writes the error messages.
``main`` refuses an option that the run does not read (``_READS``), reads
the config, then runs the subcommand on it; each subcommand returns one
``Table``, and ``main`` writes it as CSV to stdout (or the file named by
--out) with 17 significant digits, so values round-trip losslessly.
``simulate`` yields one block of CSV text per path while it samples, so
its memory does not grow with --paths.  ``transform --out`` names the
rewritten config file; its table always goes to stdout.  Exit codes: 0
success, 1 a verify suite's verdict failed, 2 config parse error, 3
precondition violation, 4 I/O error.  ``main(argv)`` can be called
repeatedly in one process: it builds its argparse parser once, on the
first call, and reuses it.  Importing this module loads no numpy: each
function that needs it imports it where it runs, so exponential, table and
point-mass posteriors and ``transform`` never load it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import math
import numbers
import sys
from bisect import bisect_right
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING

from . import continuous as cont
from . import discrete as disc
from . import timescale as ts
from . import verify
from .core import (
    ChangePointLaw,
    DiscreteHistory,
    History,
    InvalidScheduleError,
    LAWS,
    PosteriorResult,
    PreconditionError,
    RateSchedule,
    SearchFailureError,
    Value,
    shift_operator,
    validate_rates,
)

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4


class ConfigError(ValueError):
    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


class ModelConfig(Value):
    scenario: str
    rates: RateSchedule
    law: ChangePointLaw
    history: History | DiscreteHistory | None
    seed: int = 0
    tolerance: float = 1e-9
    instances: int = 1000

    @property
    def kind(self) -> str:
        return self.law.kind

    def continuous_model(self) -> cont.ContinuousModel:
        return cont.ContinuousModel(self.rates, self.law)

    def discrete_model(self) -> disc.DiscreteModel:
        return disc.DiscreteModel(self.rates, self.law)


_KNOWN_KEYS = {
    "rates": {"pre", "post", "tail"},
    "changepoint": {"family"} | {name for law in LAWS.values() for name in law._fields},
    "history": {"horizon", "arrivals"},
    "run": {"seed", "tolerance", "instances"},
}


_PLAIN_SEPARATORS = ", \t"
_PLAIN_SLOT_BYTES = b"0123456789" + _PLAIN_SEPARATORS.encode()
_INT64_MAX = 2**63 - 1


def _split_list(raw: str) -> list[str]:
    return raw.replace(",", " ").split()


def _parse_param(raw: str, declared: str):
    """A law parameter from its config text, by the field's declared type:
    a float, a list of floats, or a list of time:probability pairs."""
    if not declared.startswith("tuple["):
        return float(raw)
    if not declared.startswith("tuple[tuple["):
        return tuple(float(p) for p in _split_list(raw))
    pairs = [item.partition(":") for item in _split_list(raw)]
    for s, sep, _ in pairs:
        if not sep:
            raise ValueError(f"knot {s!r} must look like time:probability")
    return tuple((float(s), float(g)) for s, _, g in pairs)


def _param_text(value, sep: str) -> str:
    """A law parameter as text: list items joined by sep, pairs by ':'."""
    if isinstance(value, tuple):
        return sep.join(_param_text(v, ":") for v in value)
    return _fmt(value)


def parse_config(text: str, source: str = "<config>") -> ModelConfig:
    """Parse a sectioned key=value document into a model configuration."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _KNOWN_KEYS:
                raise ConfigError(source, lineno, f"unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(source, lineno, "expected key = value")
        if current is None:
            raise ConfigError(source, lineno, "key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _KNOWN_KEYS[current]:
            raise ConfigError(source, lineno, f"unknown key {key!r} in [{current}]")
        sections[current][key] = (value, lineno)

    def need(section: str, key: str) -> tuple[str, int]:
        if section not in sections:
            raise ConfigError(source, 0, f"missing section [{section}]")
        if key not in sections[section]:
            raise ConfigError(source, 0, f"missing key {key!r} in [{section}]")
        return sections[section][key]

    def get(section: str, key: str, default=None):
        return sections.get(section, {}).get(key, (default, 0))

    def floats(raw: str, lineno: int, what: str) -> tuple[float, ...]:
        try:
            return tuple(map(float, _split_list(raw)))
        except ValueError as exc:
            raise ConfigError(source, lineno, f"bad {what}: {exc}") from None

    def slots(raw: str, lineno: int, what: str) -> tuple[int, ...] | np.ndarray:
        # a plain list (ASCII digits, commas, blanks and tabs, at least one
        # digit) in one numpy pass, kept as the int64 array that
        # DiscreteHistory checks in numpy; strtoll saturates an overlong
        # token at the int64 maximum, so such a list goes on to the token
        # reader below
        if (raw.isascii() and raw.strip(_PLAIN_SEPARATORS)
                and not raw.encode().translate(None, _PLAIN_SLOT_BYTES)):
            import numpy as np

            values = np.fromstring(raw.replace(",", " "), dtype=np.int64, sep=" ")
            if values.max() < _INT64_MAX:
                return values
        tokens = _split_list(raw)
        try:
            return tuple(map(int, tokens))
        except ValueError:
            pass
        # a whole number written as a float, such as 6.0 or 1e3.  From 2^53
        # on a float skips integers, so there a token that int() reads keeps
        # its exact value
        values = list(floats(raw, lineno, what))
        for i, v in enumerate(values):
            if not abs(v) < 2.0 ** 53:
                try:
                    values[i] = int(tokens[i])
                except ValueError:
                    pass
        if not all(isinstance(v, int) or v.is_integer() for v in values):
            raise ConfigError(source, lineno, f"bad {what}: slots are whole numbers, got {raw!r}")
        return tuple(map(int, values))

    # rates
    pre_raw, pre_line = need("rates", "pre")
    post_raw, post_line = need("rates", "post")
    tail_raw, tail_line = get("rates", "tail", "repeat")
    if tail_raw not in ("repeat", "zero"):
        raise ConfigError(source, tail_line, f"tail must be 'repeat' or 'zero', got {tail_raw!r}")
    try:
        rates = RateSchedule(floats(pre_raw, pre_line, "pre rates"),
                             floats(post_raw, post_line, "post rates"), tail_raw)
    except InvalidScheduleError as exc:
        raise ConfigError(source, pre_line, str(exc)) from None

    # changepoint
    family_raw, family_line = need("changepoint", "family")
    law_cls = LAWS.get(family_raw.lower().replace("_", "-"))
    if law_cls is None:
        raise ConfigError(source, family_line, f"unknown changepoint family {family_raw!r}")
    params = {}
    for name, declared in law_cls._fields.items():
        if hasattr(law_cls, name) and name not in sections["changepoint"]:
            continue
        raw, line = need("changepoint", name)
        try:
            params[name] = _parse_param(raw, declared)
        except ValueError as exc:
            raise ConfigError(source, line, f"bad {name}: {exc}") from None
    try:
        law = law_cls(**params)
    except ValueError as exc:
        raise ConfigError(source, family_line, str(exc)) from None

    # history
    history: History | DiscreteHistory | None = None
    if "history" in sections:
        horizon_raw, hor_line = need("history", "horizon")
        arrivals_raw, arr_line = get("history", "arrivals", "")
        kind, read = (DiscreteHistory, slots) if law.kind == "discrete" else (History, floats)
        horizon = read(horizon_raw, hor_line, "horizon")
        arrivals = read(arrivals_raw or "", arr_line, "arrivals")
        # the horizon alone first, so that a fault in the arrivals cites their line
        try:
            if len(horizon) != 1:
                raise ValueError(f"horizon must be one number, got {horizon_raw!r}")
            kind(horizon[0])
        except ValueError as exc:
            raise ConfigError(source, hor_line, str(exc)) from None
        try:
            history = kind(horizon[0], arrivals)
        except ValueError as exc:
            raise ConfigError(source, arr_line, str(exc)) from None

    # run
    def run_value(key: str, cast, default: str):
        raw, lineno = get("run", key, default)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(source, lineno, f"bad {key}: {exc}") from None

    seed = run_value("seed", int, "0")
    tolerance = run_value("tolerance", float, "1e-9")
    instances = run_value("instances", int, "1000")

    scenario = Path(source).stem if source not in ("<config>", "-") else "config"
    return ModelConfig(
        scenario=scenario,
        rates=rates,
        law=law,
        history=history,
        seed=seed,
        tolerance=tolerance,
        instances=instances,
    )


def load_config(path: str) -> ModelConfig:
    text = Path(path).read_text()
    return parse_config(text, source=path)


def emit_config(config: ModelConfig) -> str:
    """Render a configuration back to the sectioned text format."""
    rates, law, h = config.rates, config.law, config.history
    lines = ["[rates]", "pre = " + ", ".join(_fmt(r) for r in rates.pre_change),
             "post = " + ", ".join(_fmt(r) for r in rates.post_change), f"tail = {rates.tail_mode}",
             "", "[changepoint]", f"family = {law.family}",
             *(f"{name} = {_param_text(value, ', ')}" for name, value in law.params().items())]
    if h is not None:
        continuous = config.kind == "continuous"
        lines += ["", "[history]", f"horizon = {_fmt(h.horizon if continuous else h.horizon_slot)}",
                  "arrivals = " + ", ".join(map(_fmt, h.arrivals if continuous else h.arrival_slots))]
    lines += ["", "[run]", f"seed = {config.seed}", f"tolerance = {_fmt(config.tolerance)}",
              f"instances = {config.instances}", ""]
    return "\n".join(lines)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, numbers.Integral):
        return str(int(x))
    return format(float(x), ".17g")


class Table(Value):
    """One subcommand's output: the CSV header, the rows (any iterable, read
    once while writing; a str item is CSV text written as it stands) and the
    verdict that main turns into the exit code."""

    header: list[str]
    rows: Iterable
    ok: bool = True


def _write_table(out: str | None, table: Table) -> None:
    with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(table.header)
        for row in table.rows:
            if isinstance(row, str):
                stream.write(row)
            else:
                writer.writerow(map(_fmt, row))


def _status(good: bool) -> str:
    return "pass" if good else "fail"


# -- subcommands ----------------------------------------------------------------


def _continuous(config: ModelConfig, what: str):
    """The continuous model and history for the command or suite named what."""
    if config.kind != "continuous" or config.history is None:
        raise PreconditionError(f"{what} needs a continuous config with a history")
    return config.continuous_model(), config.history


def _grid_factors(m_list: str | None) -> list:
    """The grid factors of --m-list, 16 to 256 when it is not given, each an
    int where it is written as one: convergence_study checks them."""
    if m_list is None:
        return [16, 32, 64, 128, 256]
    tokens = _split_list(m_list)
    if not tokens:
        raise PreconditionError(f"--m-list needs at least one grid factor, got {m_list!r}")
    return [int(v) if v.isdecimal() or v[0] in "+-" and v[1:].isdecimal() else v for v in tokens]


def _as_discrete(config: ModelConfig, what: str, m: int | None):
    """The slot-grid model and history for the command or suite named what: a
    discrete config's own, or a continuous one's snapped to grid factor m."""
    if m is not None:
        cont._grid_factor(m)
        if config.kind == "discrete":
            raise PreconditionError(
                "--m applies only to a continuous config: a discrete config has its own slots")
    if config.kind == "continuous" and m is None:
        raise PreconditionError("a continuous config needs --m to run on the slot grid")
    if config.history is None:
        raise PreconditionError(f"{what} needs a [history] section")
    if config.kind == "discrete":
        return config.discrete_model(), config.history
    return cont.discretize(config.continuous_model(), config.history, m)


def cmd_posterior(config: ModelConfig, args) -> Table:
    engine = args.engine
    if engine == "continuous":
        result = cont.intensity(*_continuous(config, "posterior"))
    else:
        model, history = _as_discrete(config, "posterior", args.m)
        if engine == "oracle":
            # the independent check: enumeration, not the engine's own pass
            result = PosteriorResult.from_survival(
                model.rates, history.count, disc.brute_force_posterior(model, history))
        else:
            result = disc.intensity(model, history)
    return Table(["scenario", "engine", "prob_before", "prob_after", "intensity"],
                 [[config.scenario, engine, result.prob_before, result.prob_after, result.intensity]])


def cmd_simulate(config: ModelConfig, args) -> Table:
    import numpy as np

    seed = args.seed if args.seed is not None else config.seed
    np.random.SeedSequence(seed)  # a bad seed fails here, before any row is written
    if args.paths < 0:
        raise PreconditionError(f"path count must be >= 0, got {args.paths}")
    # the config's kind fixes the history type, so a history is the only requirement
    if config.history is None:
        raise PreconditionError("simulate needs a [history] section with a horizon")
    if config.kind == "continuous":
        model, horizon, spec = config.continuous_model(), config.history.horizon, "%.17g"

        def sample(entropy):
            path = cont.sample_path(model, horizon=horizon, seed=entropy)
            return path.change_time, path.arrival_times
    else:
        model, horizon, spec = config.discrete_model(), config.history.horizon_slot, "%d"
        sample = functools.partial(disc.sample_discrete_path, model, horizon)

    def blocks():
        # one CSV text block per path, formatted by one % operation on a row
        # template repeated per arrival; every cell is a number, so none needs quoting.
        # The sampler seeds a generator of its own from (seed, pid): none is rewound
        for pid in range(args.paths):
            change, arrivals = sample((seed, pid))
            prefix = f"{pid},{_fmt(change)},"
            k = len(arrivals)
            cells = tuple(itertools.chain.from_iterable(zip(range(1, k + 1), arrivals)))
            yield prefix + "0,\n" + (f"{prefix}%d,{spec}\n" * k) % cells

    return Table(["path_id", "change_time", "arrival_index", "arrival_time"], blocks())


def cmd_verify(config: ModelConfig, args) -> Table:
    return globals()[f"_verify_{args.suite}"](config, args)


def _describe_witness(w: verify.Witness) -> str:
    model, law = w.model, w.model.law
    law_repr = f"{law.family}(" + ";".join(_param_text(v, " ") for v in law.params().values()) + ")"
    def side(h):
        if isinstance(h, History):
            return f"t={_fmt(h.horizon)} arr=" + ";".join(_fmt(x) for x in h.arrivals)
        return f"n={h.horizon_slot} arr=" + ";".join(str(s) for s in h.arrival_slots)
    return (
        "pre=" + ";".join(_fmt(r) for r in model.rates.pre_change)
        + " post=" + ";".join(_fmt(r) for r in model.rates.post_change)
        + f" law={law_repr} low[{side(w.history_low)}] high[{side(w.history_high)}]"
        + f" posterior={_fmt(w.posterior_low)}/{_fmt(w.posterior_high)}"
        + f" intensity={_fmt(w.intensity_low)}/{_fmt(w.intensity_high)}"
    )


def _verify_theorem1(config: ModelConfig, args) -> Table:
    # the continuous sampler enforces increasing rate gaps: dominance alone
    # does not guarantee the monotonicity this suite asserts
    cfg = verify.SweepConfig(
        engine=config.kind,
        instances=config.instances,
        seed=config.seed,
        tolerance=config.tolerance,
        require_catania=(config.kind == "continuous"),
    )
    report = verify.theorem1_sweep(cfg)
    rows = [[config.scenario, report.engine, "summary", report.pairs, len(report.violations),
             report.min_posterior_margin, report.min_intensity_margin, _status(report.passed), ""]]
    rows += [[config.scenario, w.engine, "violation", "", "", w.margin, "", _status(False),
              _describe_witness(w)] for w in report.violations[:20]]
    return Table(["scenario", "engine", "check", "pairs", "violations",
                  "min_posterior_margin", "min_intensity_margin", "status", "detail"],
                 rows, report.passed)


def _verify_counterexample(config: ModelConfig, args) -> Table:
    try:
        if args.M is not None:
            w = verify.counterexample_added_arrival(args.M)
        else:
            w = verify.added_arrival_witness(config.continuous_model())
        found = [w.history_high.horizon, w.history_high.arrivals[0],
                 w.intensity_high, w.intensity_low, w.margin]
    except SearchFailureError as exc:
        print(str(exc), file=sys.stderr)
        found = []
    m_value = args.M if args.M is not None else config.rates.post(1)
    return Table(["scenario", "engine", "M", "t", "t1",
                  "intensity_with_arrival", "intensity_empty", "margin", "status"],
                 [[config.scenario, "continuous", m_value, *(found or [""] * 5), _status(bool(found))]],
                 bool(found))


def _verify_identities(config: ModelConfig, args) -> Table:
    model, history = _as_discrete(config, "identities suite", args.m)
    if config.instances < 1:
        raise PreconditionError("instances must be >= 1")
    verify._check_tolerance(config.tolerance)
    if history.horizon_slot < 2:
        raise PreconditionError(f"identities suite needs a horizon of at least 2 slots to shift "
                                f"an arrival, got {history.horizon_slot}")
    import numpy as np

    rng = np.random.default_rng(config.seed)
    worst = dict.fromkeys(("alpha", "gamma_mid", "gamma_tail", "delta"), 0.0)
    checked = 0
    attempts = 0
    while checked < config.instances and attempts < config.instances * 20:
        attempts += 1
        n = history.horizon_slot
        k = int(rng.integers(1, max(2, min(5, n))))
        slots = tuple(sorted(rng.choice(np.arange(1, n + 1), size=min(k, n), replace=False).tolist()))
        h = DiscreteHistory(n, slots)
        l = int(rng.integers(1, h.count + 1))
        if shift_operator(h, l) == h:
            continue
        rep = disc.verify_shift_identities(model, h, l)
        checked += 1
        for name, err in rep.rel_errors.items():
            worst[name] = max(worst[name], err)
    tol = max(config.tolerance, 1e-12)
    return Table(["scenario", "engine", "quantity", "max_rel_error", "status"],
                 [[config.scenario, "discrete", name, err, _status(err <= tol)]
                  for name, err in worst.items()],
                 all(err <= tol for err in worst.values()) and checked > 0)


def _convergence_table(config: ModelConfig, m_list: str, what: str):
    """Convergence study rows, each with its CSV cells: scenario, m, admissible,
    discrete_posterior, continuous_posterior, abs_error."""
    study = cont.convergence_study(*_continuous(config, what), _grid_factors(m_list))
    return [(row, [config.scenario, row.m, int(row.admissible), row.discrete_value,
                   row.reference, row.error]) for row in study]


def _verify_convergence(config: ModelConfig, args) -> Table:
    table = _convergence_table(config, args.m_list, "convergence suite")
    errors = [row.error for row, _ in table if row.admissible]
    return Table(["scenario", "engine", "m", "admissible", "discrete_posterior",
                  "continuous_posterior", "abs_error", "status"],
                 [[cells[0], "discrete", *cells[1:], "ok" if row.admissible else "inadmissible"]
                  for row, cells in table],
                 len(errors) >= 2 and all(b < a for a, b in zip(errors, errors[1:])))


def _verify_timescale(config: ModelConfig, args) -> Table:
    model, history = _continuous(config, "timescale suite")
    horizon = history.horizon
    import numpy as np

    rng = np.random.default_rng(config.seed)
    rows = []

    def check(name: str, value, good: bool) -> None:
        rows.append([config.scenario, "timescale", name, value, _status(good)])

    # rates transform round trip
    gammas = ts.TimeScale(tuple(rng.uniform(0.3, 3.0, size=model.rates.size)))
    back = ts.transform_rates(gammas.inverted(), ts.transform_rates(gammas, model.rates))
    err = max(
        max(abs(a - b) / abs(a) for a, b in zip(back.pre_change, model.rates.pre_change)),
        max(abs(a - b) / abs(a) for a, b in zip(back.post_change, model.rates.post_change)),
    )
    check("rate_round_trip", err, err <= 1e-14)

    # arrival-count closure along simulated paths
    mismatches = 0
    for pid in range(200):
        path_rng = np.random.default_rng((config.seed, pid))
        path = cont.sample_path(model, horizon=horizon, seed=path_rng)
        times, mapped = path.arrival_times, ts.transform_path(gammas, path).arrival_times
        # at an arrival the clock reads its mapped instant, exactly as
        # path_clock would; path_clock itself is read at a random instant
        ends = (float(path_rng.uniform(0.0, horizon)), horizon)
        for t, g_t in zip((*times, *ends), (*mapped, *(ts.path_clock(gammas, path, x) for x in ends))):
            mismatches += bisect_right(times, t) != bisect_right(mapped, g_t * (1 + 1e-12))
    check("count_closure", mismatches, mismatches == 0)

    # constant-speed posterior invariance
    factor = float(rng.uniform(0.5, 2.0))
    scaled_model = cont.ContinuousModel(
        model.rates.scaled(1.0 / factor), model.law.scaled_time(factor)
    )
    scaled_history = History(horizon * factor, tuple(t * factor for t in history.arrivals))
    diff = abs(
        cont.posterior_survival(model, history)
        - cont.posterior_survival(scaled_model, scaled_history)
    )
    check("constant_scale_invariance", diff, diff <= 1e-10)

    # regularising speeds produce strictly increasing gaps
    report = validate_rates(model.rates)
    if report.assu_strict and model.rates.size >= 2:
        scale = ts.regularizing_gammas(model.rates)
        good = validate_rates(ts.transform_rates(scale, model.rates)).catania
        check("regularized_catania", int(good), good)
    else:
        rows.append([config.scenario, "timescale", "regularized_catania", "", "skipped"])

    return Table(["scenario", "engine", "check", "value", "status"], rows,
                 all(row[-1] != "fail" for row in rows))


def cmd_transform(config: ModelConfig, args) -> Table:
    if config.kind != "continuous":
        raise PreconditionError("transform works on continuous configs")
    if args.gammas is not None:
        scale = ts.TimeScale(tuple(float(v) for v in _split_list(args.gammas)))
    else:
        scale = ts.regularizing_gammas(config.rates)
    new_rates = ts.transform_rates(scale, config.rates)

    rows = [["gamma", k, g, g] for k, g in enumerate(scale.gammas)]
    for k in range(config.rates.size):
        rows.append(["pre_rate", k, config.rates.pre_change[k], new_rates.pre_change[k]])
        rows.append(["post_rate", k, config.rates.post_change[k], new_rates.post_change[k]])

    new_history = h = config.history
    if h is not None:
        # the clock at each arrival, read off one pass over the arrivals
        mapped = ts.transform_path(scale, cont.PathSample(math.inf, h.arrivals)).arrival_times
        for i, (orig, new) in enumerate(zip(h.arrivals, mapped), start=1):
            rows.append(["arrival", i, orig, new])
        new_horizon = ts.time_map(scale, h, h.horizon)
        rows.append(["horizon", 0, h.horizon, new_horizon])

    if args.config_out:
        if h is not None:
            # arrivals an ulp apart can round onto one instant on the new clock
            try:
                new_history = History(new_horizon, mapped)
            except ValueError as exc:
                raise PreconditionError(f"the transformed history is not a valid history: {exc}") from None
        Path(args.config_out).write_text(emit_config(ModelConfig(
            config.scenario, new_rates, config.law, new_history, config.seed, config.tolerance, config.instances)))
    return Table(["record", "index", "value_in", "value_out"], rows)


def cmd_converge(config: ModelConfig, args) -> Table:
    return Table(["scenario", "m", "admissible", "discrete_posterior", "continuous_posterior", "abs_error"],
                 [cells for _, cells in _convergence_table(config, args.m_list, "converge")])


# The options each run reads: per command, the option that picks the run (None
# if it has one kind of run) and the options read under each of its values.
# main refuses any other option before it reads the config, and the --help
# line of an option that only some runs read names them.
_READS = {
    "posterior": ("--engine", {"continuous": ["--out"], "discrete": ["--m", "--out"], "oracle": ["--m", "--out"]}),
    "simulate": (None, {None: ["--paths", "--seed", "--out"]}),
    "verify": ("--suite", {"theorem1": ["--out"], "counterexample": ["--M", "--out"], "identities": ["--m", "--out"],
                           "convergence": ["--m-list", "--out"], "timescale": ["--out"]}),
    "transform": (None, {None: ["--gammas", "--regularize", "--out"]}),
    "converge": (None, {None: ["--m-list", "--out"]}),
}


def _applies(command: str, option: str) -> str:
    """The runs of command that read option: "applies only to: verify --suite identities"."""
    selector, runs = _READS[command]
    return f"applies only to: {command} {selector} " + "|".join(v for v, reads in runs.items() if option in reads)


def _refuse_unread(args) -> None:
    """Refuse an option given to a run that does not read it: such an option defaults to None."""
    selector, runs = _READS[args.command]
    reads = runs[getattr(args, selector[2:]) if selector else None]
    for option in itertools.chain(*runs.values()):
        if option not in reads and getattr(args, option[2:].replace("-", "_")) is not None:
            raise PreconditionError(f"{option} {_applies(args.command, option)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpb",
        description="Change-point birth process toolkit: posteriors, simulation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("posterior", help="posterior switch probabilities and intensity")
    p.add_argument("config")
    p.add_argument("--engine", choices=list(_READS["posterior"][1]), default="continuous")
    p.add_argument("--m", type=int, default=None, help="slot grid factor; " + _applies("posterior", "--m"))
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="sample paths to CSV")
    p.add_argument("config")
    p.add_argument("--paths", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("config")
    p.add_argument("--suite", required=True, choices=list(_READS["verify"][1]))
    p.add_argument("--M", type=float, default=None,
                   help="the built-in two-level preset with this M; " + _applies("verify", "--M"))
    p.add_argument("--m", type=int, default=None, help="slot grid factor; " + _applies("verify", "--m"))
    p.add_argument("--m-list", default=None, help="grid factors; " + _applies("verify", "--m-list"))
    p.add_argument("--out", default=None)

    p = sub.add_parser("transform", help="rescale the clock and rewrite the config")
    p.add_argument("config")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gammas", default=None, help="comma-separated clock speeds")
    group.add_argument("--regularize", action="store_true",
                       help="derive speeds that make the transformed rate gaps increase")
    p.add_argument("--out", dest="config_out", metavar="OUT", default=None,
                   help="write the transformed config here")
    p.set_defaults(out=None)

    p = sub.add_parser("converge", help="discretisation error table")
    p.add_argument("config")
    p.add_argument("--m-list", default=None)
    p.add_argument("--out", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _refuse_unread(args)
        config = load_config(args.config)
        # looked up at call time, so a replaced cmd_* attribute is the one that runs
        table = globals()[f"cmd_{args.command}"](config, args)
        _write_table(args.out, table)
        return EXIT_OK if table.ok else EXIT_SUITE_FAILURE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ValueError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
