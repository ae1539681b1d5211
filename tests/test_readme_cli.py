"""The README's command-line section names exactly the CLI's subcommands,
and only options some subcommand accepts."""

import argparse
import pathlib
import re

from flagzeta.cli import _build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent

# A subcommand table row: | `name ARGS...` | what it prints |
ROW = re.compile(r"^\|\s*`([a-z]+)[ `]")
OPTION = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def _command_line_section():
    text = (ROOT / "README.md").read_text()
    start = text.index("\n## Command line\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def _subcommands():
    """{name: subparser} for every subcommand of the CLI parser."""
    [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_readme_subcommand_table_names_every_subcommand():
    rows = [m.group(1) for line in _command_line_section().splitlines()
            if (m := ROW.match(line))]
    assert len(rows) == len(set(rows))
    assert sorted(rows) == sorted(_subcommands())
    assert len(rows) == 9


def test_readme_options_are_accepted_by_some_subcommand():
    accepted = {
        option
        for parser in _subcommands().values()
        for action in parser._actions
        for option in action.option_strings
    }
    named = set(OPTION.findall(_command_line_section()))
    assert {"--k", "--order", "--prime-bound", "--eval-at", "--max-d"} <= named  # not vacuous
    assert named <= accepted, sorted(named - accepted)
