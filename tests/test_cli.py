"""Command line contract: configs, CSV shapes, exit codes, determinism."""

import argparse
import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpb import cli
from cpb import continuous as cont
from cpb import discrete as disc
from cpb import timescale as ts
from cpb.core import ChangePointLaw, DiscreteHistory, History, PosteriorResult, RateSchedule
from cpb.timescale import TimeScale, time_map


# The config fixtures, shared with the byte-for-byte outputs in test_cli_golden.py.
CFG = Path(__file__).resolve().parent / "golden" / "cfg"
CLOSED_FORM, EQUAL_RATES, DISCRETE, SWAPPED_LEVELS = (
    (CFG / f"{name}.cfg").read_text()
    for name in ("closed-form", "equal-rates", "discrete", "swapped-levels"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(output):
    return list(csv.DictReader(io.StringIO(output)))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_unknown_key_cites_line(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("[rates]\npre = 1\npost = 2\nwat = 3\n", source="x.cfg")
        assert "x.cfg:4" in str(err.value)

    def test_bad_value_cites_line(self):
        text = "[rates]\npre = 1.0\npost = oops\n"
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(text, source="x.cfg")
        assert "x.cfg" in str(err.value)

    def test_key_outside_section(self):
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config("pre = 1.0\n")
        assert ":1:" in str(err.value)

    def test_round_trip_through_emitter(self):
        config = cli.parse_config(DISCRETE, source="d.cfg")
        again = cli.parse_config(cli.emit_config(config), source="d2.cfg")
        assert again.rates == config.rates
        assert again.law == config.law
        assert again.history == config.history

    def test_knot_without_colon_cites_line(self):
        text = CLOSED_FORM.replace("family = exponential\nrate = 1.0",
                                   "family = table\nknots = 1:0.5, 2")
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(text, source="x.cfg")
        assert "x.cfg:7:" in str(err.value) and "'2'" in str(err.value)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "broken.cfg", "[rates]\npre = \n")
        code, _, err = run_cli(capsys, "posterior", path)
        assert code == cli.EXIT_PARSE_ERROR
        assert "config error" in err

    def test_repeated_arrival_slot_cites_arrivals_line(self, tmp_path, capsys):
        text = "\n".join(["[rates]", "pre = 0.2, 0.25", "post = 0.5, 0.6", "[changepoint]",
                          "family = hazard", "values = 0.1", "[history]", "horizon = 6",
                          "arrivals = 2, 2"]) + "\n"
        path = write(tmp_path, "dup.cfg", text)
        code, out, err = run_cli(capsys, "posterior", path, "--engine", "discrete")
        assert code == cli.EXIT_PARSE_ERROR == 2
        assert out == ""
        assert f"{path}:9: arrival slots must strictly increase" in err

    def test_integral_float_slots_accepted(self):
        text = (DISCRETE.replace("horizon = 6", "horizon = 6.0")
                .replace("arrivals = 2, 4", "arrivals = 2.0, 4e0"))
        assert cli.parse_config(text).history == cli.parse_config(DISCRETE).history

    @pytest.mark.parametrize("horizon, arrivals, expected", [
        ("1e1", "2,\t4 ,6.0  7", DiscreteHistory(10, (2, 4, 6, 7))),
        ("6", "1,2\t3,,4", DiscreteHistory(6, (1, 2, 3, 4))),
        ("6", "", DiscreteHistory(6, ())),
        # a token that int() reads keeps its exact value beside a float one
        ("9007199254740993", "2.0, 9007199254740993", DiscreteHistory(2**53 + 1, (2, 2**53 + 1))),
    ])
    def test_slot_list_spellings(self, horizon, arrivals, expected):
        text = (DISCRETE.replace("horizon = 6", f"horizon = {horizon}")
                .replace("arrivals = 2, 4", f"arrivals = {arrivals}"))
        history = cli.parse_config(text).history
        assert history == expected
        assert all(type(s) is int for s in (history.horizon_slot, *history.arrival_slots))


# Faulty discrete slot lists: the discrete fixture with one line replaced,
# the line the message must cite, and the message after it.
SLOT_ERRORS = {
    "fractional": (DISCRETE.replace("arrivals = 2, 4", "arrivals = 2, 6.9"), 12,
                   "bad arrivals: slots are whole numbers, got '2, 6.9'"),
    "word": (DISCRETE.replace("arrivals = 2, 4", "arrivals = 2, abc"), 12,
             "bad arrivals: could not convert string to float: 'abc'"),
    "repeated": (DISCRETE.replace("arrivals = 2, 4", "arrivals = 2, 4, 4"), 12,
                 "arrival slots must strictly increase, got 4 at index 2"),
    "decreasing": (DISCRETE.replace("arrivals = 2, 4", "arrivals = 4, 2"), 12,
                   "arrival slots must strictly increase, got 2 at index 1"),
    "zero": (DISCRETE.replace("arrivals = 2, 4", "arrivals = 0, 4"), 12,
             "arrival slots must strictly increase, got 0 at index 0"),
    "beyond-horizon": (DISCRETE.replace("arrivals = 2, 4", "arrivals = 2, 4, 7"), 12,
                       "arrival slot 7 beyond horizon 6"),
    "horizon-word": (DISCRETE.replace("horizon = 6", "horizon = six"), 11,
                     "bad horizon: could not convert string to float: 'six'"),
    "horizon-zero": (DISCRETE.replace("horizon = 6", "horizon = 0"), 11, "horizon slot must be >= 1, got 0"),
}


@pytest.mark.parametrize("name", sorted(SLOT_ERRORS))
def test_slot_error_exit_line_and_message(name, tmp_path, capsys):
    text, line, message = SLOT_ERRORS[name]
    path = write(tmp_path, "bad.cfg", text)
    code, out, err = run_cli(capsys, "posterior", path, "--engine", "discrete")
    assert code == cli.EXIT_PARSE_ERROR == 2
    assert out == ""
    assert err == f"config error: {path}:{line}: {message}\n"


# The slot reader against an oracle: a reader without the numpy pass, which
# splits the list and reads each token with int(), or else float(), by itself.
def oracle_slots(raw, source, lineno, what):
    values = []
    for token in raw.replace(",", " ").split():
        try:
            values.append(int(token))
            continue
        except ValueError:
            pass
        try:
            values.append(float(token))
        except ValueError as exc:
            raise cli.ConfigError(source, lineno, f"bad {what}: {exc}") from None
    if not all(isinstance(v, int) or v.is_integer() for v in values):
        raise cli.ConfigError(source, lineno, f"bad {what}: slots are whole numbers, got {raw!r}")
    return tuple(int(v) for v in values)


def oracle_history(horizon_raw, arrivals_raw, source):
    """The history parse_config reads from the discrete fixture's horizon
    (line 11) and arrivals (line 12), or the ConfigError it raises."""
    horizon = oracle_slots(horizon_raw, source, 11, "horizon")
    arrivals = oracle_slots(arrivals_raw, source, 12, "arrivals")
    try:
        if len(horizon) != 1:
            raise ValueError(f"horizon must be one number, got {horizon_raw!r}")
        DiscreteHistory(horizon[0])
    except ValueError as exc:
        raise cli.ConfigError(source, 11, str(exc)) from None
    try:
        return DiscreteHistory(horizon[0], arrivals)
    except ValueError as exc:
        raise cli.ConfigError(source, 12, str(exc)) from None


SLOT_VALUES = st.one_of(st.integers(0, 60), st.integers(0, 10**20),
                        st.sampled_from([10**17, 10**18, 2**63 - 1, 2**63, 10**19, 10**20 - 1]))
PLAIN_SPELLINGS = ["{}", "00{}"]
OTHER_SPELLINGS = ["+{}", "-{}", "{}.0", "{}.5", "{}e0", "1_{}", "{}x"]
JUNK = ["٣", "3٣", ".", "e", "_", "+", "-", "1e3", "6.0"]


@st.composite
def slot_token(draw, plain=False):
    """One list item: a whole number in one of its spellings, or else junk."""
    spelling = draw(st.sampled_from(PLAIN_SPELLINGS if plain else PLAIN_SPELLINGS + OTHER_SPELLINGS))
    token = spelling.format(draw(SLOT_VALUES))
    return token if plain else draw(st.one_of(st.just(token), st.sampled_from(JUNK)))


@st.composite
def slot_list(draw):
    """Tokens with runs of commas, blanks and tabs around and between them;
    half the lists hold plain tokens only, half of those sorted by value."""
    plain = draw(st.booleans())
    tokens = draw(st.lists(slot_token(plain), max_size=6))
    if plain and draw(st.booleans()):
        tokens.sort(key=int)
    separator = st.text(alphabet=", \t", max_size=3)
    return draw(separator) + "".join(t + draw(separator.filter(bool)) for t in tokens)


@settings(max_examples=400, deadline=None)
@given(horizon=st.one_of(st.just(str(10**20)), slot_token(), slot_list()), arrivals=slot_list())
def test_slot_reader_matches_oracle(horizon, arrivals):
    text = (DISCRETE.replace("horizon = 6", f"horizon = {horizon}")
            .replace("arrivals = 2, 4", f"arrivals = {arrivals}"))
    source = "slots.cfg"
    try:
        base = cli.parse_config(DISCRETE, source)
        expected = cli.ModelConfig(base.scenario, base.rates, base.law,
                                   oracle_history(horizon.strip(), arrivals.strip(), source),
                                   base.seed, base.tolerance, base.instances)
    except cli.ConfigError as exc:
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(text, source)
        assert str(err.value) == str(exc)
    else:
        config = cli.parse_config(text, source)
        assert config == expected
        assert all(type(s) is int for s in (config.history.horizon_slot, *config.history.arrival_slots))


def test_long_slot_list_ending_in_junk(tmp_path, capsys):
    # a guard that backtracks over the whole line would take minutes here
    arrivals = ", ".join(map(str, range(1, 100_000))) + ", x"
    path = write(tmp_path, "junk.cfg", DISCRETE.replace("horizon = 6", "horizon = 100000")
                 .replace("arrivals = 2, 4", f"arrivals = {arrivals}"))
    code, out, err = run_cli(capsys, "posterior", path, "--engine", "discrete")
    assert (code, out) == (cli.EXIT_PARSE_ERROR, "")
    assert err == f"config error: {path}:12: bad arrivals: could not convert string to float: 'x'\n"


@pytest.mark.filterwarnings("error")
def test_steep_weibull_past_float_range(capsys):
    # (horizon / scale) ** shape = (2e6) ** 50 is beyond the largest double:
    # the switch has surely happened, and no power may overflow on the way
    code, out, err = run_cli(capsys, "posterior", str(CFG / "weibull-steep.cfg"))
    assert code == 0, err
    (row,) = rows_of(out)
    assert (row["prob_before"], row["prob_after"], row["intensity"]) == ("0", "1", "2")


@pytest.mark.filterwarnings("error")
def test_weibull_mode_far_below_horizon(capsys):
    # the law's mass sits near its mode, about 0.87, thirteen orders of
    # magnitude below the horizon: the first stretch must still find it
    code, out, err = run_cli(capsys, "posterior", str(CFG / "weibull-far-horizon.cfg"))
    assert code == 0, err
    (row,) = rows_of(out)
    survival = weibull_survival_oracle(1.0, 2.0, 3.0, 1.0, 1e13, ())
    assert float(row["prob_before"]) == pytest.approx(float(survival), rel=1e-9, abs=1e-300)
    assert float(row["prob_after"]) == pytest.approx(float(1 - survival), rel=1e-9)


# One case per error branch of parse_config: the config text (a fixture
# with one line replaced, or cut) and the line the message must cite; 0
# means "no line", for a section that is missing altogether.
CONFIG_ERRORS = {
    "unknown-section": (CLOSED_FORM.replace("[run]", "[runs]"), 13),
    "no-equals-sign": (CLOSED_FORM.replace("seed = 3", "seed 3"), 14),
    "missing-section": (CLOSED_FORM.replace("[changepoint]\nfamily = exponential\nrate = 1.0\n", ""), 0),
    "bad-tail": (CLOSED_FORM.replace("post = 2.0", "post = 2.0\ntail = forever"), 4),
    "invalid-schedule": (CLOSED_FORM.replace("pre = 1.0", "pre = 1.0, 2.0"), 2),
    "unknown-family": (CLOSED_FORM.replace("family = exponential", "family = gamma"), 6),
    "unparsable-law-parameter": (CLOSED_FORM.replace("rate = 1.0", "rate = fast"), 7),
    "invalid-law-parameter": (CLOSED_FORM.replace("rate = 1.0", "rate = -1.0"), 6),
    "arrival-beyond-horizon": (CLOSED_FORM.replace("arrivals =", "arrivals = 2.0"), 11),
    "bad-horizon": (CLOSED_FORM.replace("horizon = 1.0", "horizon = -1.0"), 10),
    "unparsable-arrival": (CLOSED_FORM.replace("arrivals =", "arrivals = 0.5, x"), 11),
    "bad-seed": (CLOSED_FORM.replace("seed = 3", "seed = abc"), 14),
    "bad-tolerance": (CLOSED_FORM.replace("tolerance = 1e-9", "tolerance = tight"), 15),
    # a discrete slot is a whole number; 6.0 is one, 6.9 is not truncated to 6
    "fractional-horizon-slot": (DISCRETE.replace("horizon = 6", "horizon = 6.9"), 11),
    "fractional-arrival-slot": (DISCRETE.replace("arrivals = 2, 4", "arrivals = 2.5, 4"), 12),
}


@pytest.mark.parametrize("name", sorted(CONFIG_ERRORS))
def test_config_error_exit_and_line(name, tmp_path, capsys):
    text, line = CONFIG_ERRORS[name]
    path = write(tmp_path, "bad.cfg", text)
    code, out, err = run_cli(capsys, "posterior", path)
    assert code == cli.EXIT_PARSE_ERROR
    assert out == ""
    assert err.startswith(f"config error: {path}:{line}: ")


class TestPosterior:
    def test_closed_form_row(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, out, _ = run_cli(capsys, "posterior", path)
        assert code == 0
        (row,) = rows_of(out)
        assert row["engine"] == "continuous"
        assert float(row["prob_before"]) == pytest.approx(0.5, abs=1e-10)
        assert float(row["prob_after"]) == pytest.approx(0.5, abs=1e-10)
        assert float(row["intensity"]) == pytest.approx(1.5, abs=1e-10)

    def test_equal_rates_prior(self, tmp_path, capsys):
        path = write(tmp_path, "equal.cfg", EQUAL_RATES)
        code, out, _ = run_cli(capsys, "posterior", path)
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["prob_before"]) == pytest.approx(math.exp(-0.8 * 1.5), rel=1e-9)

    def test_discrete_engine_on_discrete_config(self, tmp_path, capsys):
        path = write(tmp_path, "disc.cfg", DISCRETE)
        code, out, _ = run_cli(capsys, "posterior", path, "--engine", "discrete")
        assert code == 0
        (row,) = rows_of(out)
        assert 0.0 < float(row["prob_before"]) < 1.0

    def test_oracle_agrees_with_discrete(self, tmp_path, capsys):
        path = write(tmp_path, "disc.cfg", DISCRETE)
        _, out_d, _ = run_cli(capsys, "posterior", path, "--engine", "discrete")
        _, out_o, _ = run_cli(capsys, "posterior", path, "--engine", "oracle")
        val_d = float(rows_of(out_d)[0]["prob_before"])
        val_o = float(rows_of(out_o)[0]["prob_before"])
        assert val_o == pytest.approx(val_d, abs=1e-12)

    def test_oracle_capacity_exit(self, tmp_path, capsys):
        big = DISCRETE.replace("horizon = 6", "horizon = 40")
        path = write(tmp_path, "big.cfg", big)
        code, _, err = run_cli(capsys, "posterior", path, "--engine", "oracle")
        assert code == cli.EXIT_PRECONDITION
        assert "16" in err

    def test_grid_engine_on_continuous_config(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, out, _ = run_cli(capsys, "posterior", path, "--engine", "discrete", "--m", "128")
        assert code == 0
        (row,) = rows_of(out)
        assert float(row["prob_before"]) == pytest.approx(0.5, abs=5e-3)

    def test_grid_engine_needs_m(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, _, _ = run_cli(capsys, "posterior", path, "--engine", "discrete")
        assert code == cli.EXIT_PRECONDITION


def history_config(pre, post, law_lines, horizon, arrivals):
    return "\n".join([
        "[rates]", f"pre = {pre!r}", f"post = {post!r}", "", "[changepoint]", *law_lines, "",
        "[history]", f"horizon = {horizon!r}", "arrivals = " + ", ".join(repr(a) for a in arrivals),
    ]) + "\n"


# Histories whose log-odds for "switched" lie far past the float exponent
# range: name -> (config, extra argv, (pre rate, post rate)).
DECISIVE = {
    "discrete-1900-of-2000": (
        history_config(0.01, 0.9, ["family = hazard", "values = 0.5"], 2000,
                       np.sort(np.random.default_rng(0).choice(np.arange(1, 2001), 1900,
                                                               replace=False)).tolist()),
        ["--engine", "discrete"], (0.01, 0.9)),
    "exponential-k900": (
        history_config(0.1, 10.0, ["family = exponential", "rate = 1.0"], 100.0,
                       [100.0 * i / 900 for i in range(1, 901)]),
        [], (0.1, 10.0)),
    "weibull-k300": (
        history_config(0.1, 10.0, ["family = weibull", "shape = 1.5", "scale = 1.0"], 30.0,
                       [30.0 * i / 300 for i in range(1, 301)]),
        [], (0.1, 10.0)),
}


class TestDecisiveEvidence:
    @pytest.mark.parametrize("name", sorted(DECISIVE))
    def test_posterior_stays_finite(self, name, tmp_path, capsys):
        text, extra, (pre, post) = DECISIVE[name]
        code, out, err = run_cli(capsys, "posterior", write(tmp_path, "decisive.cfg", text), *extra)
        assert code == 0, err
        (row,) = rows_of(out)
        before, after, mu = (float(row[c]) for c in ("prob_before", "prob_after", "intensity"))
        assert all(math.isfinite(v) for v in (before, after, mu))
        assert 0.0 <= before <= 1e-300 and after == 1.0
        assert mu == pytest.approx(post, rel=1e-12) and pre <= mu <= post


def weibull_survival_oracle(pre, post, shape, scale, horizon, arrivals):
    """Posterior survival under constant pre/post rates and a weibull switch
    law, by mpmath at 30 digits.  Each stretch between arrivals is split
    geometrically toward both of its ends, 20 levels deep, so that a peak
    narrower than the stretch at either end is resolved."""
    with mp.workdps(30):
        pre, post, shape, scale, t = (mp.mpf(x) for x in (pre, post, shape, scale, horizon))
        arr = [mp.mpf(x) for x in arrivals]

        def log_like(u):
            # an arrival at or after the switch u has the post-change rate
            v = min(u, t)
            return sum(mp.log(post if x >= u else pre) for x in arr) - pre * v - post * (t - v)

        def log_pdf(u):
            return mp.log(shape / scale) + (shape - 1) * mp.log(u / scale) - (u / scale) ** shape

        change = mp.mpf(0)
        cuts = [mp.mpf(0), *arr] + ([t] if not arr or t > arr[-1] else [])
        for a, b in zip(cuts, cuts[1:]):
            half = (b - a) / 2
            pts = sorted({a, b} | {p for i in range(21) for p in (a + half / 2**i, b - half / 2**i)})
            change += mp.quad(lambda u: mp.exp(log_like(u) + log_pdf(u)), pts)
        stay = mp.exp(log_like(mp.inf) - (t / scale) ** shape)
        return stay / (stay + change)


def test_weibull_fixture_matches_oracle(capsys):
    # the golden weibull posterior, against the 30-digit oracle
    code, out, err = run_cli(capsys, "posterior", str(CFG / "weibull.cfg"))
    assert code == 0, err
    (row,) = rows_of(out)
    survival = weibull_survival_oracle(0.8, 2.0, 1.5, 2.5, 4.1, (0.3, 1.2, 2.9, 3.3))
    assert float(row["prob_before"]) == pytest.approx(float(survival), rel=1e-12)


# Far-tail weibull histories: the switch mass sits where the density
# exp(-(u/scale)^shape) is far below the smallest double, so the segment
# integral must be shifted by the peak of the whole log integrand, and the
# peak can be far narrower than its stretch.
# name -> (pre, post, shape, scale, horizon, arrivals)
FAR_TAIL = {
    "shape-2": (0.01, 100.0, 2.0, 1.0, 40.0, (39.01, 39.5, 39.9)),
    "shape-0.7": (0.01, 100.0, 0.7, 1.0, 20000.0, (19999.9, 19999.95, 19999.99)),
    "shape-3": (0.01, 1000.0, 3.0, 1.0, 15.0, (14.9, 14.95, 14.99)),
    # decisive: the first stretch peaks near u = 10, thousands of nats
    # above both of its ends
    "shape-3-inner-peak": (0.01, 300.0, 3.0, 1.0, 40.0, (39.9, 39.95, 39.99)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(FAR_TAIL))
def test_weibull_far_tail_matches_oracle(name, tmp_path, capsys):
    pre, post, shape, scale, horizon, arrivals = FAR_TAIL[name]
    text = history_config(pre, post, ["family = weibull", f"shape = {shape!r}", f"scale = {scale!r}"],
                          horizon, arrivals)
    code, out, err = run_cli(capsys, "posterior", write(tmp_path, "far.cfg", text))
    assert code == 0, err
    (row,) = rows_of(out)
    survival = weibull_survival_oracle(pre, post, shape, scale, horizon, arrivals)
    assert float(row["prob_before"]) == pytest.approx(float(survival), rel=1e-9)
    assert float(row["prob_after"]) == pytest.approx(float(1 - survival), rel=1e-9)


class TestSimulate:
    def test_zero_paths_header_only(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, out, _ = run_cli(capsys, "simulate", path, "--paths", "0")
        assert code == 0
        assert out.strip() == "path_id,change_time,arrival_index,arrival_time"

    def test_negative_paths_exit_before_header(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, out, err = run_cli(capsys, "simulate", path, "--paths", "-2")
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert "path count" in err

    def test_stdout_and_out_file_bytes_agree(self, tmp_path, capsys):
        for name, text in (("closed.cfg", CLOSED_FORM), ("disc.cfg", DISCRETE)):
            path = write(tmp_path, name, text)
            target = tmp_path / f"{name}.csv"
            _, out, _ = run_cli(capsys, "simulate", path, "--paths", "30", "--seed", "7")
            assert run_cli(capsys, "simulate", path, "--paths", "30", "--seed", "7",
                           "--out", str(target))[0] == 0
            assert target.read_bytes() == out.encode()

    def test_fixed_seed_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli(capsys, "simulate", path, "--paths", "40", "--seed", "7",
                       "--out", str(out_a))[0] == 0
        assert run_cli(capsys, "simulate", path, "--paths", "40", "--seed", "7",
                       "--out", str(out_b))[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_different_seed_differs(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        _, out_a, _ = run_cli(capsys, "simulate", path, "--paths", "40", "--seed", "7")
        _, out_b, _ = run_cli(capsys, "simulate", path, "--paths", "40", "--seed", "8")
        assert out_a != out_b

    def test_immediate_switch_mean_interarrival(self, tmp_path, capsys):
        text = """
[rates]
pre = 0.5
post = 2.0

[changepoint]
family = point-mass
location = 1e-9

[history]
horizon = 40.0
"""
        path = write(tmp_path, "pm.cfg", text)
        code, out, _ = run_cli(capsys, "simulate", path, "--paths", "4000", "--seed", "5")
        assert code == 0
        firsts = [float(r["arrival_time"]) for r in rows_of(out) if r["arrival_index"] == "1"]
        mean = np.mean(firsts)
        sigma = (1.0 / 2.0) / math.sqrt(len(firsts))
        assert abs(mean - 0.5) <= 3 * sigma

    def test_discrete_simulation(self, tmp_path, capsys):
        path = write(tmp_path, "disc.cfg", DISCRETE)
        code, out, _ = run_cli(capsys, "simulate", path, "--paths", "5", "--seed", "2")
        assert code == 0
        for row in rows_of(out):
            if row["arrival_index"] != "0":
                assert 1 <= int(row["arrival_time"]) <= 6


class TestVerifySuites:
    def test_theorem1_discrete(self, tmp_path, capsys):
        path = write(tmp_path, "disc.cfg", DISCRETE)
        code, out, _ = run_cli(capsys, "verify", path, "--suite", "theorem1")
        assert code == 0
        rows = rows_of(out)
        assert rows[0]["status"] == "pass"
        assert float(rows[0]["min_posterior_margin"]) >= -1e-12

    def test_theorem1_continuous(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, out, _ = run_cli(capsys, "verify", path, "--suite", "theorem1")
        assert code == 0

    def test_counterexample_preset_fails_honestly(self, tmp_path, capsys):
        # the two-level preset has no reversal; the suite must say so
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, out, err = run_cli(capsys, "verify", path, "--suite", "counterexample",
                                 "--M", "100")
        assert code == cli.EXIT_SUITE_FAILURE
        assert rows_of(out)[0]["status"] == "fail"
        assert "no intensity drop" in err

    def test_counterexample_config_model_found(self, tmp_path, capsys):
        path = write(tmp_path, "swapped.cfg", SWAPPED_LEVELS)
        code, out, _ = run_cli(capsys, "verify", path, "--suite", "counterexample")
        assert code == 0
        (row,) = rows_of(out)
        assert row["status"] == "pass"
        assert float(row["margin"]) < -1e-6
        # round trip: the row alone reproduces the recorded intensities
        from cpb.core import History, RateSchedule, ChangePointLaw
        from cpb.continuous import ContinuousModel, intensity
        model = ContinuousModel(RateSchedule((1.0, 1.0), (100.0, 2.0)),
                                ChangePointLaw.exponential(1.0))
        t, t1 = float(row["t"]), float(row["t1"])
        assert intensity(model, History(t, (t1,))).intensity == pytest.approx(
            float(row["intensity_with_arrival"]), rel=1e-10
        )
        assert intensity(model, History(t)).intensity == pytest.approx(
            float(row["intensity_empty"]), rel=1e-10
        )

    def test_identities_suite(self, tmp_path, capsys):
        path = write(tmp_path, "disc.cfg", DISCRETE)
        code, out, _ = run_cli(capsys, "verify", path, "--suite", "identities")
        assert code == 0
        rows = rows_of(out)
        assert {r["quantity"] for r in rows} == {"alpha", "gamma_mid", "gamma_tail", "delta"}
        assert all(float(r["max_rel_error"]) <= 1e-12 for r in rows)

    def test_identities_suite_long_horizon(self, tmp_path, capsys):
        # 3000 slots: the plain products of the weights underflow to zero
        path = write(tmp_path, "disc.cfg", DISCRETE.replace("horizon = 6", "horizon = 3000"))
        code, out, _ = run_cli(capsys, "verify", path, "--suite", "identities")
        assert code == 0
        rows = rows_of(out)
        assert [r["status"] for r in rows] == ["pass"] * 4
        assert all(float(r["max_rel_error"]) <= 1e-12 for r in rows)

    def test_identities_suite_reports_failure_rows(self, tmp_path, capsys, monkeypatch):
        from cpb import discrete

        true_ratios = discrete.shift_ratios

        def skewed(model, l):
            r = true_ratios(model, l)
            return discrete.ShiftRatios(r.alpha, r.gamma, r.delta * 1.01)

        monkeypatch.setattr(discrete, "shift_ratios", skewed)
        path = write(tmp_path, "disc.cfg", DISCRETE)
        code, out, err = run_cli(capsys, "verify", path, "--suite", "identities")
        assert code == cli.EXIT_SUITE_FAILURE
        status = {r["quantity"]: r["status"] for r in rows_of(out)}
        assert status == {"alpha": "pass", "gamma_mid": "pass", "gamma_tail": "pass", "delta": "fail"}
        assert "Traceback" not in err

    def test_convergence_suite(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, out, _ = run_cli(capsys, "verify", path, "--suite", "convergence",
                               "--m-list", "16,32,64,128")
        assert code == 0
        errors = [float(r["abs_error"]) for r in rows_of(out) if r["status"] == "ok"]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_timescale_suite(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, out, _ = run_cli(capsys, "verify", path, "--suite", "timescale")
        assert code == 0
        rows = rows_of(out)
        assert all(r["status"] in ("pass", "skipped") for r in rows)

    def test_timescale_suite_clock_work_is_linear_in_the_arrivals(self, tmp_path, monkeypatch, capsys):
        # each path's knot table is built a bounded number of times, so the knot
        # steps grow with the arrivals sampled, not with their square
        sampled, steps, knots, sample = [], [], ts._knots, cont.sample_path

        def counting_sample(*args, **kwargs):
            path = sample(*args, **kwargs)
            sampled.append(len(path.arrival_times))
            return path

        def counting_knots(scale, times):
            steps.append(len(times))
            return knots(scale, times)

        monkeypatch.setattr(cont, "sample_path", counting_sample)
        monkeypatch.setattr(ts, "_knots", counting_knots)
        text = (CFG / "timescale-long.cfg").read_text().replace("horizon = 100", "horizon = 20")
        code, out, _ = run_cli(capsys, "verify", write(tmp_path, "ts.cfg", text), "--suite", "timescale")
        assert code == 0
        assert len(sampled) == 200 and sum(sampled) > 200 * 100
        assert len(steps) <= 3 * len(sampled)
        assert sum(steps) <= 3 * sum(sampled)

    def test_timescale_suite_catches_a_clock_right_only_at_mid_and_end(self, monkeypatch, capsys):
        # a clock that is exact at h / 2 and h but stuck at its h / 2 reading
        # in between passed a suite that read path_clock only there
        clock, horizon = ts.path_clock, 2.0

        def stuck_clock(scale, path, t):
            return clock(scale, path, t if t >= horizon else 0.5 * horizon)

        monkeypatch.setattr(ts, "path_clock", stuck_clock)
        code, out, _ = run_cli(capsys, "verify", str(CFG / "readme.cfg"), "--suite", "timescale")
        row = next(r for r in rows_of(out) if r["check"] == "count_closure")
        assert code == 1
        assert row["status"] == "fail" and int(row["value"]) > 0


class TestTransform:
    def test_identity_speeds(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, out, _ = run_cli(capsys, "transform", path, "--gammas", "1.0")
        assert code == 0
        for row in rows_of(out):
            if row["record"] in ("pre_rate", "post_rate", "arrival"):
                assert float(row["value_in"]) == pytest.approx(float(row["value_out"]))

    def test_regularize_enforces_increasing_gaps(self, tmp_path, capsys):
        text = CLOSED_FORM.replace("pre = 1.0", "pre = 1.0, 1.0").replace(
            "post = 2.0", "post = 2.0, 100.0"
        )
        path = write(tmp_path, "two.cfg", text)
        out_cfg = tmp_path / "transformed.cfg"
        code, out, _ = run_cli(capsys, "transform", path, "--regularize", "--out", str(out_cfg))
        assert code == 0
        gamma_rows = [r for r in rows_of(out) if r["record"] == "gamma"]
        assert len(gamma_rows) == 2
        from cpb.core import validate_rates
        transformed = cli.parse_config(out_cfg.read_text(), source=str(out_cfg))
        assert validate_rates(transformed.rates).catania

    def test_round_trip_restores_rates(self, tmp_path, capsys):
        text = CLOSED_FORM.replace("pre = 1.0", "pre = 1.0, 1.5").replace(
            "post = 2.0", "post = 2.0, 3.0"
        )
        path = write(tmp_path, "two.cfg", text)
        first = tmp_path / "fwd.cfg"
        second = tmp_path / "back.cfg"
        assert run_cli(capsys, "transform", path, "--gammas", "2.0,0.5",
                       "--out", str(first))[0] == 0
        assert run_cli(capsys, "transform", str(first), "--gammas", "0.5,2.0",
                       "--out", str(second))[0] == 0
        original = cli.parse_config(text, source="orig")
        restored = cli.parse_config(second.read_text(), source="back")
        for k in range(2):
            assert restored.rates.pre(k) == pytest.approx(original.rates.pre(k), rel=1e-14)
            assert restored.rates.post(k) == pytest.approx(original.rates.post(k), rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        horizon=st.floats(1e-3, 1e3),
        fractions=st.lists(st.floats(1e-9, 1.0), max_size=12, unique=True),
        gammas=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=14),
    )
    def test_arrival_rows_match_time_map(self, horizon, fractions, gammas):
        h = History(horizon, tuple(sorted({horizon * f for f in fractions})))
        config = cli.ModelConfig("h", RateSchedule((1.0,), (2.0,)), ChangePointLaw.exponential(1.0), h)
        args = argparse.Namespace(gammas=",".join(map(repr, gammas)), config_out=None)
        scale = TimeScale(tuple(gammas))
        rows = [r for r in cli.cmd_transform(config, args).rows if r[0] in ("arrival", "horizon")]
        assert [(r[2], r[3]) for r in rows] == [(t, time_map(scale, h, t)) for t in (*h.arrivals, horizon)]

    def test_arrivals_that_round_together_block_only_the_config_out(self, tmp_path, capsys):
        # 3 * 0.9999999999999999 + 1 * 1.1e-16 rounds back to 3 * 0.9999999999999999
        text = CLOSED_FORM.replace("arrivals =", "arrivals = 0.9999999999999999, 1.0")
        path = write(tmp_path, "close.cfg", text)
        code, out, _ = run_cli(capsys, "transform", path, "--gammas", "3,1")
        assert code == 0
        assert len([r for r in rows_of(out) if r["record"] == "arrival"]) == 2
        out_cfg = tmp_path / "close-out.cfg"
        code, _, err = run_cli(capsys, "transform", path, "--gammas", "3,1", "--out", str(out_cfg))
        assert code == cli.EXIT_PRECONDITION
        assert "transformed history" in err
        assert not out_cfg.exists()

    def test_one_command_builds_the_clock_at_most_twice(self, monkeypatch, capsys):
        built, original = [], ts._knots

        def counting_knots(scale, times):
            built.append(len(times))
            return original(scale, times)

        monkeypatch.setattr(ts, "_knots", counting_knots)
        assert run_cli(capsys, "transform", str(CFG / "exponential.cfg"), "--gammas", "2,1,0.5")[0] == 0
        assert len(built) <= 2

    def test_regularize_needs_strict_dominance(self, tmp_path, capsys):
        path = write(tmp_path, "equal.cfg", EQUAL_RATES)
        code, _, err = run_cli(capsys, "transform", path, "--regularize")
        assert code == cli.EXIT_PRECONDITION


# One config per switch-law family (and the point_mass spelling): config
# lines and the same law built by the library.
FAMILIES = {
    "exponential": (["family = exponential", "rate = 0.4"], ChangePointLaw.exponential(0.4)),
    "weibull": (["family = weibull", "shape = 1.5", "scale = 2.5"],
                ChangePointLaw.weibull(1.5, 2.5)),
    "point-mass": (["family = point-mass", "location = 1.7"], ChangePointLaw.point_mass(1.7)),
    "point_mass": (["family = point_mass", "location = 1.7"], ChangePointLaw.point_mass(1.7)),
    "table": (["family = table", "knots = 0.5:0.1, 1.5:0.1, 3:0.7, 4.5:1"],
              ChangePointLaw.table([(0.5, 0.1), (1.5, 0.1), (3.0, 0.7), (4.5, 1.0)])),
    "hazard": (["family = hazard", "values = 0.05, 0.1", "tail = 0.2"],
               ChangePointLaw.discrete_hazard((0.05, 0.1), tail=0.2)),
}


class TestLawFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_round_trip_and_posterior(self, family, tmp_path, capsys):
        law_lines, law = FAMILIES[family]
        if law.kind == "discrete":
            pre, post, history = 0.1, 0.3, DiscreteHistory(40, (3, 9, 17, 30))
            text = history_config(pre, post, law_lines, 40, list(history.arrival_slots))
        else:
            pre, post, history = 0.8, 2.0, History(4.1, (0.3, 1.2, 2.9, 3.3))
            text = history_config(pre, post, law_lines, 4.1, list(history.arrivals))
        rates = RateSchedule((pre,), (post,))
        config = cli.parse_config(text, source="f.cfg")
        assert config.law == law
        again = cli.parse_config(cli.emit_config(config), source="g.cfg")
        assert (again.law, again.rates, again.history) == (law, rates, history)

        if law.kind == "discrete":
            model = disc.DiscreteModel(rates, law)
            expected = PosteriorResult.from_survival(
                rates, history.count, disc.posterior_survival(model, history))
            argv = ["--engine", "discrete"]
        else:
            expected = cont.intensity(cont.ContinuousModel(rates, law), history)
            argv = []
        code, out, err = run_cli(capsys, "posterior", write(tmp_path, "f.cfg", text), *argv)
        assert code == 0, err
        (row,) = rows_of(out)
        assert float(row["prob_before"]) == expected.prob_before
        assert float(row["intensity"]) == expected.intensity


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy and numpy are most of the start-up time: no import of the
        # package loads them.  The process pool is loaded only by a sweep that
        # runs on more than one worker.  The value types are no dataclasses,
        # whose import loads inspect (and with it ast, dis and tokenize)
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import cpb.cli; "
                "print('scipy' in sys.modules, 'concurrent.futures.process' in sys.modules, "
                "'numpy' in sys.modules, 'dataclasses' in sys.modules, 'inspect' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                                check=True, timeout=120)
        assert result.stdout.strip() == "False False False False False"

    def test_weibull_posterior_leaves_scipy_unloaded(self):
        # the weibull segment integral is the package's own rule
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from cpb import cli; "
                "code = cli.main(['posterior', sys.argv[2]]); print(code, 'scipy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code, src, str(CFG / "weibull.cfg")],
                                capture_output=True, text=True, check=True, timeout=120)
        assert result.stdout.splitlines()[-1] == "0 False"

    @staticmethod
    def run_fresh(body: str) -> list[str]:
        """The stdout lines of body, run in a new interpreter in tests/golden/cfg
        after `from cpb import cli`, with its output rows sent to a buffer."""
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import io, sys; from contextlib import redirect_stdout; sys.path.insert(0, sys.argv[1]); "
                "from cpb import cli\n" + body)
        result = subprocess.run([sys.executable, "-c", code, src], cwd=CFG, capture_output=True,
                                text=True, check=True, timeout=120)
        return result.stdout.splitlines()

    def test_closed_form_commands_leave_numpy_unloaded(self):
        # exponential, table and point-mass posteriors and the clock transform
        # are pure Python: their processes never pay for numpy's import
        runs = [["posterior", c] for c in ("readme.cfg", "table.cfg", "point-mass.cfg")]
        runs.append(["transform", "readme.cfg", "--regularize"])
        body = (f"for argv in {runs!r}:\n"
                "    with redirect_stdout(io.StringIO()):\n"
                "        code = cli.main(argv)\n"
                "    print(code, 'numpy' in sys.modules)")
        assert self.run_fresh(body) == ["0 False"] * len(runs)

    @pytest.mark.parametrize("command", ["posterior weibull.cfg", "posterior hazard.cfg --engine discrete"])
    def test_numpy_commands_load_it_at_first_use(self, command):
        # the weibull rule and the discrete engine import numpy when they
        # run, and print their recorded bytes
        body = ("out = io.StringIO()\n"
                "with redirect_stdout(out):\n"
                f"    code = cli.main({command.split()!r})\n"
                "print(code, 'numpy' in sys.modules)\n"
                "print(out.getvalue(), end='')")
        status, *rows = self.run_fresh(body)
        assert status == "0 True"
        recorded = json.loads((CFG.parent / "cli.json").read_text())[command]
        assert rows == recorded["stdout"].splitlines()


class TestWitnessSerialization:
    def test_description_is_self_contained(self):
        from cpb.core import ChangePointLaw, History, RateSchedule
        from cpb.continuous import ContinuousModel
        from cpb.verify import Witness

        model = ContinuousModel(RateSchedule((1.0, 2.0), (3.0, 4.0)),
                                ChangePointLaw.exponential(0.75))
        w = Witness(engine="continuous", model=model,
                    history_low=History(2.0, (0.5,)), history_high=History(2.0, (1.5,)),
                    posterior_low=0.4, posterior_high=0.3,
                    intensity_low=1.1, intensity_high=1.9, margin=0.1)
        text = cli._describe_witness(w)
        for fragment in ("pre=1;2", "post=3;4", "exponential(0.75)",
                         "low[t=2 arr=0.5]", "high[t=2 arr=1.5]"):
            assert fragment in text

    @pytest.mark.parametrize("law, fragment", [
        (ChangePointLaw.weibull(1.5, 2.0), " law=weibull(1.5;2) "),
        (ChangePointLaw.table([(1.0, 0.25), (3.0, 1.0)]), " law=table(0:0 1:0.25 3:1) "),
        (ChangePointLaw.point_mass(1.5), " law=point-mass(1.5) "),
        (ChangePointLaw.discrete_hazard((0.125, 0.25), tail=0.375), " law=hazard(0.125 0.25;0.375) "),
    ])
    def test_description_carries_every_law_parameter(self, law, fragment):
        from cpb.verify import Witness

        if law.kind == "discrete":
            model = disc.DiscreteModel(RateSchedule((0.25,), (0.5,)), law)
            low, high = DiscreteHistory(5, (2,)), DiscreteHistory(5, (4,))
        else:
            model = cont.ContinuousModel(RateSchedule((1.0,), (3.0,)), law)
            low, high = History(2.0, (0.5,)), History(2.0, (1.5,))
        w = Witness(engine=law.kind, model=model, history_low=low, history_high=high,
                    posterior_low=0.4, posterior_high=0.3,
                    intensity_low=1.1, intensity_high=1.9, margin=0.1)
        assert fragment in cli._describe_witness(w)


class TestErrorPaths:
    def test_unwritable_output_exits_io(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, _, err = run_cli(capsys, "simulate", path, "--paths", "1",
                               "--out", "/nonexistent-dir/out.csv")
        assert code == cli.EXIT_IO
        assert "i/o error" in err

    def test_unwritable_transform_config_exits_io_before_table(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, out, err = run_cli(capsys, "transform", path, "--gammas", "2.0",
                                 "--out", "/nonexistent-dir/x.cfg")
        assert code == cli.EXIT_IO
        assert out == ""
        assert "i/o error" in err

    def test_missing_config_exits_io(self, capsys):
        code, _, _ = run_cli(capsys, "posterior", "/no/such/file.cfg")
        assert code == cli.EXIT_IO


class TestInProcessCalls:
    def test_two_calls_build_one_parser(self, monkeypatch, capsys):
        built, original = [], cli.build_parser

        def counting_build_parser():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        path = str(CFG / "closed-form.cfg")
        assert [run_cli(capsys, "posterior", path)[0] for _ in range(2)] == [0, 0]
        assert len(built) == 1

    def test_replaced_subcommand_runs_after_first_call(self, monkeypatch, capsys):
        path = str(CFG / "closed-form.cfg")
        assert run_cli(capsys, "posterior", path)[0] == 0
        seen = []

        def fake_posterior(config, args):
            seen.append(args.config)
            return cli.Table(["x"], [[1]])

        monkeypatch.setattr(cli, "cmd_posterior", fake_posterior)
        assert run_cli(capsys, "posterior", path) == (0, "x\n1\n", "")
        assert seen == [path]


# Every option of every subcommand, by its parser, and a value for each.
SUBPARSERS = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
OPTION_VALUES = {"--m": ["4"], "--M": ["100"], "--m-list": ["4"], "--out": ["out.csv"],
                 "--paths": ["3"], "--seed": ["1"], "--gammas": ["2"], "--regularize": []}


def options_of(command: str) -> list[str]:
    """The options of a subcommand's parser, but for --help and the one that picks the run."""
    selector = cli._READS[command][0]
    return [a.option_strings[-1] for a in SUBPARSERS[command]._actions
            if a.option_strings and a.option_strings[-1] not in ("--help", selector)]


RUN_OPTIONS = [(command, value, option)
               for command, (_, runs) in cli._READS.items() for value in runs
               for option in options_of(command)]


@pytest.mark.parametrize("command", list(cli._READS))
def test_table_lists_only_options_of_the_command(command):
    runs = cli._READS[command][1]
    assert {o for reads in runs.values() for o in reads} == set(options_of(command))


@pytest.mark.parametrize("command, value, option", RUN_OPTIONS)
def test_option_accepted_exactly_when_its_run_reads_it(command, value, option, tmp_path, monkeypatch, capsys):
    # the check comes before the config is read: on a missing config an
    # option the run reads gets to the i/o error, and any other exits 3
    monkeypatch.chdir(tmp_path)
    selector, runs = cli._READS[command]
    argv = [command, "missing.cfg", *([selector, value] if selector else []), option, *OPTION_VALUES[option]]
    if command == "transform" and option == "--out":
        argv.append("--regularize")  # the clock speeds are one of two required options
    code, out, err = run_cli(capsys, *argv)
    if option in runs[value]:
        assert code == cli.EXIT_IO, err
    else:
        readers = "|".join(v for v, reads in runs.items() if option in reads)
        assert (code, out) == (cli.EXIT_PRECONDITION, "")
        assert err == f"precondition error: {option} applies only to: {command} {selector} {readers}\n"


# a window shorter than the coarsest grid slots, with no arrivals
SHORT_EMPTY = """[rates]
pre = 1, 1.2
post = 2, 3.5

[changepoint]
family = exponential
rate = 1

[history]
horizon = 0.5
"""


class TestConverge:
    def test_horizon_on_slot_zero_is_inadmissible(self, tmp_path, capsys):
        path = write(tmp_path, "short.cfg", SHORT_EMPTY)
        code, out, _ = run_cli(capsys, "converge", path, "--m-list", "1,2,4,8")
        assert code == cli.EXIT_OK
        assert [(int(r["m"]), r["admissible"]) for r in rows_of(out)] == [
            (1, "0"), (2, "0"), (4, "1"), (8, "1")]

    def test_discrete_engine_on_horizon_slot_zero(self, tmp_path, capsys):
        path = write(tmp_path, "short.cfg", SHORT_EMPTY)
        code, out, err = run_cli(capsys, "posterior", path, "--engine", "discrete", "--m", "1")
        assert (code, out) == (cli.EXIT_PRECONDITION, "")
        assert err == "precondition error: grid factor 1 snaps the horizon to slot 0\n"

    def test_table_shape(self, tmp_path, capsys):
        path = write(tmp_path, "closed.cfg", CLOSED_FORM)
        code, out, _ = run_cli(capsys, "converge", path, "--m-list", "32,64,128")
        assert code == 0
        rows = rows_of(out)
        assert [int(r["m"]) for r in rows] == [32, 64, 128]
        assert all(float(r["continuous_posterior"]) == pytest.approx(0.5, abs=1e-10)
                   for r in rows)
