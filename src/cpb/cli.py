"""Command line front end: config files in, CSV out.

Subcommands: posterior, simulate, verify, transform, converge.  Inputs are
flat sectioned key=value files; outputs are CSV on stdout (or a file via
--out) with 17 significant digits so values round-trip losslessly.  Exit
codes: 0 success, 1 suite failure, 2 config parse error, 3 precondition
violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import continuous as cont
from . import discrete as disc
from . import timescale as ts
from . import verify
from .core import (
    CapacityError,
    ChangePointLaw,
    DegenerateModelError,
    DiscreteHistory,
    History,
    IncomparableHistoriesError,
    InvalidScheduleError,
    LAWS,
    PosteriorResult,
    PreconditionError,
    RateSchedule,
    SearchFailureError,
    shift_operator,
    validate_rates,
)

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


@dataclass(frozen=True)
class ModelConfig:
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
    "changepoint": {"family"} | {f.name for law in LAWS.values() for f in fields(law)},
    "history": {"horizon", "arrivals"},
    "run": {"seed", "tolerance", "instances"},
}


def _split_list(raw: str) -> list[str]:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    return [p for p in parts if p]


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
            return tuple(float(p) for p in _split_list(raw))
        except ValueError as exc:
            raise ConfigError(source, lineno, f"bad {what}: {exc}") from None

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
    for f in fields(law_cls):
        if f.default is not MISSING and f.name not in sections["changepoint"]:
            continue
        raw, line = need("changepoint", f.name)
        try:
            params[f.name] = _parse_param(raw, f.type)
        except ValueError as exc:
            raise ConfigError(source, line, f"bad {f.name}: {exc}") from None
    try:
        law = law_cls(**params)
    except ValueError as exc:
        raise ConfigError(source, family_line, str(exc)) from None

    # history
    history: History | DiscreteHistory | None = None
    if "history" in sections:
        horizon_raw, hor_line = need("history", "horizon")
        arrivals_raw, arr_line = get("history", "arrivals", "")
        try:
            if law.kind == "discrete":
                history = DiscreteHistory(
                    int(float(horizon_raw)),
                    tuple(int(float(p)) for p in _split_list(arrivals_raw or "")),
                )
            else:
                history = History(float(horizon_raw), floats(arrivals_raw or "", arr_line, "arrivals"))
        except ValueError as exc:
            raise ConfigError(source, hor_line, str(exc)) from None

    # run
    seed_raw, seed_line = get("run", "seed", "0")
    tol_raw, tol_line = get("run", "tolerance", "1e-9")
    inst_raw, inst_line = get("run", "instances", "1000")
    try:
        seed = int(seed_raw)
        tolerance = float(tol_raw)
        instances = int(inst_raw)
    except ValueError as exc:
        raise ConfigError(source, max(seed_line, tol_line, inst_line), str(exc)) from None

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
    lines = ["[rates]"]
    lines.append("pre = " + ", ".join(_fmt(r) for r in config.rates.pre_change))
    lines.append("post = " + ", ".join(_fmt(r) for r in config.rates.post_change))
    lines.append(f"tail = {config.rates.tail_mode}")
    lines.append("")
    lines.append("[changepoint]")
    lines.append(f"family = {config.law.family}")
    for name, value in config.law.params().items():
        lines.append(f"{name} = {_param_text(value, ', ')}")
    if config.history is not None:
        lines.append("")
        lines.append("[history]")
        if isinstance(config.history, History):
            lines.append(f"horizon = {_fmt(config.history.horizon)}")
            lines.append("arrivals = " + ", ".join(_fmt(t) for t in config.history.arrivals))
        else:
            lines.append(f"horizon = {config.history.horizon_slot}")
            lines.append("arrivals = " + ", ".join(str(s) for s in config.history.arrival_slots))
    lines.append("")
    lines.append("[run]")
    lines.append(f"seed = {config.seed}")
    lines.append(f"tolerance = {_fmt(config.tolerance)}")
    lines.append(f"instances = {config.instances}")
    lines.append("")
    return "\n".join(lines)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _open_out(out: str | None):
    if out is None:
        return sys.stdout, False
    return open(out, "w", newline=""), True


def _write_rows(out: str | None, header: list[str], rows: list[list]) -> None:
    stream, close = _open_out(out)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, (int, float, np.floating, np.integer)) or v is None else v for v in row])
    finally:
        if close:
            stream.close()


# -- subcommands ----------------------------------------------------------------


def cmd_posterior(args) -> int:
    config = load_config(args.config)
    engine = args.engine
    if engine == "continuous":
        if config.kind != "continuous":
            raise PreconditionError("continuous engine needs a continuous changepoint law")
        if not isinstance(config.history, History):
            raise PreconditionError("posterior needs a [history] section")
        result = cont.intensity(config.continuous_model(), config.history)
    else:
        model, history = _as_discrete(config, args.m)
        if engine == "oracle":
            # the independent check: enumeration, not the engine's own pass
            result = PosteriorResult.from_survival(
                model.rates, history.count, disc.brute_force_posterior(model, history))
        else:
            result = disc.intensity(model, history)
    row = [config.scenario, engine, result.prob_before, result.prob_after, result.intensity]
    _write_rows(args.out, ["scenario", "engine", "prob_before", "prob_after", "intensity"], [row])
    return EXIT_OK


def _as_discrete(config: ModelConfig, m: int | None):
    if config.kind == "discrete":
        if not isinstance(config.history, DiscreteHistory):
            raise PreconditionError("posterior needs a [history] section")
        return config.discrete_model(), config.history
    if m is None:
        raise PreconditionError("a continuous config needs --m to run on the slot grid")
    if not isinstance(config.history, History):
        raise PreconditionError("posterior needs a [history] section")
    snapped = cont.snap_history(config.history, m)
    model = cont.discretize(config.continuous_model(), m, slots=snapped.horizon_slot)
    return model, snapped


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.seed
    # the config's kind fixes the history type, so a history is the only requirement
    if config.history is None:
        raise PreconditionError("simulate needs a [history] section with a horizon")
    if config.kind == "continuous":
        model, horizon = config.continuous_model(), config.history.horizon

        def sample(rng):
            path = cont.sample_path(model, horizon=horizon, seed=rng)
            return path.change_time, path.arrival_times
    else:
        model, horizon = config.discrete_model(), config.history.horizon_slot

        def sample(rng):
            return disc.sample_discrete_path(model, horizon, seed=rng)

    rows: list[list] = []
    for pid in range(args.paths):
        change, arrivals = sample(np.random.default_rng((seed, pid)))
        rows.append([pid, change, 0, ""])
        rows.extend([pid, change, idx, t] for idx, t in enumerate(arrivals, start=1))
    _write_rows(args.out, ["path_id", "change_time", "arrival_index", "arrival_time"], rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    config = load_config(args.config)
    return _SUITES[args.suite](config, args)


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


def _verify_theorem1(config: ModelConfig, args) -> int:
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
    status = "pass" if report.passed else "fail"
    rows = [[config.scenario, report.engine, "summary", report.pairs, len(report.violations),
             report.min_posterior_margin, report.min_intensity_margin, status, ""]]
    for w in report.violations[:20]:
        rows.append([config.scenario, w.engine, "violation", "", "", w.margin, "", "fail",
                     _describe_witness(w)])
    _write_rows(args.out, ["scenario", "engine", "check", "pairs", "violations",
                           "min_posterior_margin", "min_intensity_margin", "status", "detail"],
                rows)
    return EXIT_OK if report.passed else EXIT_SUITE_FAILURE


def _verify_counterexample(config: ModelConfig, args) -> int:
    header = ["scenario", "engine", "M", "t", "t1",
              "intensity_with_arrival", "intensity_empty", "margin", "status"]
    try:
        if args.M is not None:
            witness = verify.counterexample_added_arrival(args.M)
            m_value = args.M
        else:
            witness = verify.added_arrival_witness(config.continuous_model())
            m_value = config.rates.post(1)
    except SearchFailureError as exc:
        print(str(exc), file=sys.stderr)
        _write_rows(args.out, header,
                    [[config.scenario, "continuous", args.M if args.M is not None else config.rates.post(1),
                      "", "", "", "", "", "fail"]])
        return EXIT_SUITE_FAILURE
    _write_rows(args.out, header,
                [[config.scenario, witness.engine, m_value,
                  witness.history_high.horizon, witness.history_high.arrivals[0],
                  witness.intensity_high, witness.intensity_low, witness.margin, "pass"]])
    return EXIT_OK


def _verify_identities(config: ModelConfig, args) -> int:
    model, history = _as_discrete(config, args.m)
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
        # the rows below judge each quantity; the function's own check would raise first
        rep = disc.verify_shift_identities(model, h, l, rel_tol=math.inf)
        checked += 1
        for name, err in rep.rel_errors.items():
            worst[name] = max(worst[name], err)
    tol = max(config.tolerance, 1e-12)
    rows = [[config.scenario, "discrete", name, err, "pass" if err <= tol else "fail"]
            for name, err in worst.items()]
    ok = all(err <= tol for err in worst.values()) and checked > 0
    _write_rows(args.out, ["scenario", "engine", "quantity", "max_rel_error", "status"], rows)
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


def _convergence_table(config: ModelConfig, m_list: str, what: str):
    """Convergence study rows, each with its CSV cells: scenario, m, admissible,
    discrete_posterior, continuous_posterior, abs_error."""
    if config.kind != "continuous" or not isinstance(config.history, History):
        raise PreconditionError(f"{what} needs a continuous config with a history")
    study = cont.convergence_study(
        config.continuous_model(), config.history, [int(v) for v in _split_list(m_list)]
    )
    return [(row, [config.scenario, row.m, int(row.admissible), row.discrete_value,
                   row.reference, row.error]) for row in study]


def _verify_convergence(config: ModelConfig, args) -> int:
    table = _convergence_table(config, args.m_list, "convergence suite")
    rows = [[cells[0], "discrete", *cells[1:], "ok" if row.admissible else "inadmissible"]
            for row, cells in table]
    errors = [row.error for row, _ in table if row.admissible]
    shrinking = len(errors) >= 2 and all(b < a for a, b in zip(errors, errors[1:]))
    _write_rows(args.out, ["scenario", "engine", "m", "admissible", "discrete_posterior",
                           "continuous_posterior", "abs_error", "status"], rows)
    return EXIT_OK if shrinking else EXIT_SUITE_FAILURE


def _verify_timescale(config: ModelConfig, args) -> int:
    if config.kind != "continuous" or not isinstance(config.history, History):
        raise PreconditionError("timescale suite needs a continuous config with a history")
    model = config.continuous_model()
    horizon = config.history.horizon
    rng = np.random.default_rng(config.seed)
    rows = []
    ok = True

    # rates transform round trip
    gammas = ts.TimeScale(tuple(rng.uniform(0.3, 3.0, size=model.rates.size)))
    back = ts.transform_rates(gammas.inverted(), ts.transform_rates(gammas, model.rates))
    err = max(
        max(abs(a - b) / abs(a) for a, b in zip(back.pre_change, model.rates.pre_change)),
        max(abs(a - b) / abs(a) for a, b in zip(back.post_change, model.rates.post_change)),
    )
    good = err <= 1e-14
    ok &= good
    rows.append([config.scenario, "timescale", "rate_round_trip", err, "pass" if good else "fail"])

    # arrival-count closure along simulated paths
    mismatches = 0
    for pid in range(200):
        path = cont.sample_path(model, horizon=horizon, seed=np.random.default_rng((config.seed, pid)))
        mapped = ts.transform_path(gammas, path)
        for t in list(path.arrival_times) + [horizon * 0.5, horizon]:
            g_t = ts.path_clock(gammas, path, t)
            n_orig = sum(1 for x in path.arrival_times if x <= t)
            n_mapped = sum(1 for x in mapped.arrival_times if x <= g_t * (1 + 1e-12))
            mismatches += n_orig != n_mapped
    good = mismatches == 0
    ok &= good
    rows.append([config.scenario, "timescale", "count_closure", mismatches, "pass" if good else "fail"])

    # constant-speed posterior invariance
    factor = float(rng.uniform(0.5, 2.0))
    scaled_model = cont.ContinuousModel(
        model.rates.scaled(1.0 / factor), model.law.scaled_time(factor)
    )
    scaled_history = History(horizon * factor, tuple(t * factor for t in config.history.arrivals))
    diff = abs(
        cont.posterior_survival(model, config.history)
        - cont.posterior_survival(scaled_model, scaled_history)
    )
    good = diff <= 1e-10
    ok &= good
    rows.append([config.scenario, "timescale", "constant_scale_invariance", diff, "pass" if good else "fail"])

    # regularising speeds produce strictly increasing gaps
    report = validate_rates(model.rates)
    if report.assu_strict and model.rates.size >= 2:
        scale = ts.regularizing_gammas(model.rates)
        transformed = ts.transform_rates(scale, model.rates)
        good = validate_rates(transformed).catania
        ok &= good
        rows.append([config.scenario, "timescale", "regularized_catania",
                     int(good), "pass" if good else "fail"])
    else:
        rows.append([config.scenario, "timescale", "regularized_catania", "", "skipped"])

    _write_rows(args.out, ["scenario", "engine", "check", "value", "status"], rows)
    return EXIT_OK if ok else EXIT_SUITE_FAILURE


_SUITES = {
    "theorem1": _verify_theorem1,
    "counterexample": _verify_counterexample,
    "identities": _verify_identities,
    "convergence": _verify_convergence,
    "timescale": _verify_timescale,
}


def cmd_transform(args) -> int:
    config = load_config(args.config)
    if config.kind != "continuous":
        raise PreconditionError("transform works on continuous configs")
    if args.gammas is not None:
        scale = ts.TimeScale(tuple(float(v) for v in _split_list(args.gammas)))
    else:
        scale = ts.regularizing_gammas(config.rates)
    new_rates = ts.transform_rates(scale, config.rates)

    rows: list[list] = []
    for k in range(len(scale.gammas)):
        rows.append(["gamma", k, scale.gammas[k], scale.gammas[k]])
    for k in range(config.rates.size):
        rows.append(["pre_rate", k, config.rates.pre_change[k], new_rates.pre_change[k]])
        rows.append(["post_rate", k, config.rates.post_change[k], new_rates.post_change[k]])

    new_history = config.history
    if isinstance(config.history, History):
        h = config.history
        mapped = [ts.time_map(scale, h, t) for t in h.arrivals]
        for i, (orig, new) in enumerate(zip(h.arrivals, mapped), start=1):
            rows.append(["arrival", i, orig, new])
        new_horizon = ts.time_map(scale, h, h.horizon)
        rows.append(["horizon", 0, h.horizon, new_horizon])
        new_history = History(new_horizon, tuple(mapped))

    _write_rows(None, ["record", "index", "value_in", "value_out"], rows)

    if args.out:
        new_config = ModelConfig(
            scenario=config.scenario,
            rates=new_rates,
            law=config.law,
            history=new_history,
            seed=config.seed,
            tolerance=config.tolerance,
            instances=config.instances,
        )
        Path(args.out).write_text(emit_config(new_config))
    return EXIT_OK


def cmd_converge(args) -> int:
    config = load_config(args.config)
    rows = [cells for _, cells in _convergence_table(config, args.m_list, "converge")]
    _write_rows(args.out, ["scenario", "m", "admissible", "discrete_posterior",
                           "continuous_posterior", "abs_error"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpb",
        description="Change-point birth process toolkit: posteriors, simulation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("posterior", help="posterior switch probabilities and intensity")
    p.add_argument("config")
    p.add_argument("--engine", choices=["continuous", "discrete", "oracle"], default="continuous")
    p.add_argument("--m", type=int, default=None, help="slot grid factor for discrete engines")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("simulate", help="sample paths to CSV")
    p.add_argument("config")
    p.add_argument("--paths", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("config")
    p.add_argument("--suite", required=True, choices=list(_SUITES))
    p.add_argument("--M", type=float, default=None,
                   help="counterexample suite: use the built-in two-level preset with this M")
    p.add_argument("--m", type=int, default=None, help="slot grid factor where needed")
    p.add_argument("--m-list", default="16,32,64,128,256")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transform", help="rescale the clock and rewrite the config")
    p.add_argument("config")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gammas", default=None, help="comma-separated clock speeds")
    group.add_argument("--regularize", action="store_true",
                       help="derive speeds that make the transformed rate gaps increase")
    p.add_argument("--out", default=None, help="write the transformed config here")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("converge", help="discretisation error table")
    p.add_argument("config")
    p.add_argument("--m-list", default="16,32,64,128,256")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (PreconditionError, InvalidScheduleError, CapacityError,
            DegenerateModelError, IncomparableHistoriesError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SearchFailureError as exc:
        print(f"suite failure: {exc}", file=sys.stderr)
        return EXIT_SUITE_FAILURE
    except ValueError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
