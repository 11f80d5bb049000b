"""The README's examples run as written: its library session through
doctest, and each `germinv ...` line of its CLI block through main()."""

import argparse
import doctest
import json
import re
import shlex
from pathlib import Path

import pytest

from germinv.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"
CLI_SECTION = re.search(r"^## CLI$(.*?)^## ", README.read_text(encoding="utf-8"),
                        re.M | re.S).group(1)
CLI_BLOCK = re.search(r"^```sh$(.*?)^```$", CLI_SECTION, re.M | re.S).group(1)
CLI_LINES = [line for line in CLI_BLOCK.splitlines() if line.startswith("germinv ")]

# minimal inputs for the CLI lines that name a file
STRATA = [{"m": 2, "chi": 1}, {"m": 3, "chi": 1}, {"m": 6, "chi": -1}]
FAMILY = {"vars": ["x", "y"], "pieces": [{"poly": "x^3 + y^3", "tpower": 0},
                                         {"poly": "x*y", "tpower": 1}]}


def test_readme_library_session():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0


def test_readme_cli_options_exist():
    parser = build_parser()
    options = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= set(sub._option_string_actions)
    named = set(re.findall(r"`(--[A-Za-z][\w-]*)", CLI_SECTION))
    assert "--method" in named
    assert named <= options, sorted(named - options)


def test_readme_cli_block_is_found():
    assert len(CLI_LINES) >= 10


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_exits_0(line, tmp_path, monkeypatch, capsys):
    (tmp_path / "strata.json").write_text(json.dumps(STRATA))
    (tmp_path / "family.json").write_text(json.dumps(FAMILY))
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err
