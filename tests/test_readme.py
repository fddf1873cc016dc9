"""The examples in README.md work as written."""

import re
import shlex
from pathlib import Path

import pytest

from walgebra.algebra import load_spec
from walgebra.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def test_spec_example_loads():
    (text,) = _blocks("json")
    spec = load_spec(text)
    assert [g.symbol for g in spec.generators] == ["T", "W1"]


CLI_LINES = [line for block in _blocks("") for line in block.splitlines()
             if line.startswith("walgebra ")]


def test_cli_block_is_found():
    assert len(CLI_LINES) == 9


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""
