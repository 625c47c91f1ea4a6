"""The README's examples run as written: the python quickstart and the CLI lines."""

import re
from pathlib import Path

import pytest

from cpb import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def test_python_quickstart_runs(capsys):
    (block,) = fenced("python")
    exec(compile(block, "README.md", "exec"), {})
    prob_before, prob_after, mu = (float(v) for v in capsys.readouterr().out.split())
    assert prob_before + prob_after == pytest.approx(1.0)
    assert 1.2 <= mu <= 3.5


@pytest.mark.parametrize("command", [
    "posterior model.cfg",
    "posterior model.cfg --engine discrete --m 128",
    "converge model.cfg --m-list 32,64,128,256",
    "transform model.cfg --regularize --out transformed.cfg",
    "verify model.cfg --suite timescale",
])
def test_cli_examples_run(command, tmp_path, monkeypatch, capsys):
    (config,) = fenced("ini")
    shell = next(block for block in fenced("bash") if "cpb " in block)
    if "--suite" not in command:
        assert f"cpb {command}" in shell
    (tmp_path / "model.cfg").write_text(config)
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("\n") >= 2
    if "--out" in command:
        assert cli.load_config("transformed.cfg").rates.size == 2


def test_option_table_matches_the_cli():
    # the README's table of the options each run reads is the one main checks
    documented = {}
    for line in re.findall(r"^\| `.*\|$", README, flags=re.M):
        run, options = (re.findall(r"`([^`]*)`", cell) for cell in line.strip("|").split("|"))
        command, *picked = run[0].split()
        for value in picked[1:] + run[1:] or [None]:
            documented[command, value] = set(options)
    assert documented == {(command, value): set(reads) for command, (_, runs) in cli._READS.items()
                          for value, reads in runs.items()}
