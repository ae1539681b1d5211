"""The README's command-line section names exactly the CLI's subcommands,
and only options some subcommand accepts; its grammar and the parser's
docstring name exactly the grammar's constructors."""

import argparse
import pathlib
import re

import flagzeta.parse
from flagzeta.cli import _build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent

# A subcommand table row: | `name ARGS...` | what it prints |
ROW = re.compile(r"^\|\s*`([a-z]+)[ `]")
OPTION = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
# A constructor alternative of the grammar, as README writes it,
# "| affine(expr, d)", and as parse.py's docstring does,
# "| 'affine' '(' expr ',' INT ')'": its keyword and its arguments.
README_CTOR = re.compile(r"^\s*\|\s*([a-z]+)\((.*)\)\s", re.M)
DOC_CTOR = re.compile(r"^\s*(?:ctor\s*:=|\|)\s*'([a-z]+)'\s*'\('(.*)'\)'\s*$", re.M)
# a repeated group of a docstring alternative, "('+' INT)*"
DOC_GROUP = re.compile(r"\(([^()]*)\)\*")


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


def test_grammar_texts_name_each_constructor_with_its_arguments():
    # (keyword, number of arguments, whether the last repeats), as the
    # parser reads each constructor's syntax row
    table = sorted(
        (keyword, len(cls.syntax) - 1, cls.syntax[-1].endswith(","))
        for keyword, cls in flagzeta.parse._CTORS.items()
    )
    section = _command_line_section()
    start = section.index("```\n") + 4
    readme = []
    for keyword, args in README_CTOR.findall(section[start:section.index("```", start)]):
        items = args.split(", ")
        repeats = items[-1] == "..."
        readme.append((keyword, len(items) - repeats, repeats))
    doc = [
        (keyword, DOC_GROUP.sub("", body).count("','") + 1,
         any("','" in group for group in DOC_GROUP.findall(body)))
        for keyword, body in DOC_CTOR.findall(flagzeta.parse.__doc__)
    ]
    assert len(table) == 5 and ("union", 1, True) in table  # not vacuous
    assert sorted(readme) == table
    assert sorted(doc) == table
