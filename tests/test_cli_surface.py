"""A fence around the command line: every subcommand and flag has a row.

``docs/cli.md`` is the census of ``python -m repro``: one row per
subcommand and per flag, with who calls it (CI, SKILL.md, docs, examples,
tests, or nobody). This test walks :func:`repro.cli.build_parser` and
fails when a subcommand or flag has no row there, or when a live row
names one that no longer exists. A row whose last cell starts with
``**`` records something deleted or folded away; it must not be live.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

CENSUS = Path(__file__).resolve().parents[1] / "docs" / "cli.md"


def _parser_surface() -> set[tuple[str, frozenset]]:
    """``(command, option strings)``; a subcommand's own entry has none."""
    surface = set()

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    surface.add((" ".join(path + [name]), frozenset()))
                    walk(sub, path + [name])
            elif action.option_strings and not isinstance(
                    action, argparse._HelpAction):
                surface.add((" ".join(path), frozenset(action.option_strings)))

    walk(build_parser(), [])
    return surface


def _census() -> tuple[set, set]:
    """The live rows and the deleted/folded rows of ``docs/cli.md``."""
    live, gone = set(), set()
    for line in CENSUS.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `"):
            continue
        command, flag, _callers, now = (
            cell.strip() for cell in line.strip("|").split("|"))
        key = (command.strip("`"), frozenset(re.findall(r"`(-[^`]+)`", flag)))
        (gone if now.startswith("**") else live).add(key)
    return live, gone


def test_every_subcommand_and_flag_has_a_census_row():
    live, _gone = _census()
    missing = _parser_surface() - live
    assert not missing, f"add rows to docs/cli.md for: {sorted(missing)}"


def test_every_live_census_row_names_something_that_exists():
    live, _gone = _census()
    stale = live - _parser_surface()
    assert not stale, f"docs/cli.md lists what is gone: {sorted(stale)}"


def test_a_deleted_row_is_not_live():
    _live, gone = _census()
    assert gone and not gone & _parser_surface()


def test_one_command_per_experiment():
    """No alias of a folded command survives."""
    commands = {command for command, flags in _parser_surface() if not flags}
    assert not {"sweep", "profile", "faults"} & commands
    assert len({c for c in commands if " " not in c}) == 18


def test_a_prefix_of_a_flag_is_not_that_flag(capsys):
    """Only whole option names parse: the deleted ``serve --heartbeat``
    is an error, not ``--heartbeat-timeout``, in every parser."""
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["serve", "--heartbeat", "0.5"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --heartbeat 0.5" in capsys.readouterr().err

    def parsers(parser):
        yield parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from parsers(sub)

    assert not [parser.prog for parser in parsers(build_parser())
                if parser.allow_abbrev]
