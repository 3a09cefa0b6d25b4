"""The README's examples run as written."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from thermomap import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _code_block(heading: str) -> str:
    """The first fenced block after the given section heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in _code_block("## Command line").splitlines()
            if line.startswith("thermomap ")]


def test_library_tour_values():
    # run the block statement by statement, keeping each bare expression's
    # value: those are the lines whose comments state what they print
    ns: dict = {}
    shown = []
    for node in ast.parse(_code_block("## Library tour")).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README", "eval"), ns))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), ns)
    tower = ns["tower"]
    assert (len(tower.nodes), len(tower.edges), tower.complete) == (2, 3, True)
    bracket, (entropy, lyap, tau_mean), mu_a = shown
    assert bracket.width <= 1e-9
    assert entropy == pytest.approx(0.477386, abs=1e-6)
    assert lyap == pytest.approx(0.477386, abs=1e-6)
    assert tau_mean == pytest.approx(4 / 3, abs=1e-9)
    assert mu_a == pytest.approx(0.75, abs=1e-9)


def test_command_lines_listed():
    assert [c.split()[1] for c in COMMANDS] == [
        "tower", "induce", "pressure", "scan", "oracle", "diagnose"]


@pytest.mark.parametrize("line", COMMANDS, ids=lambda c: c.split()[1])
def test_command_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.run(shlex.split(line)[1:]) == 0
