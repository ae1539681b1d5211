"""Golden output of the command-line interface.

Every subcommand runs in process in each output format, plus one case per
error exit code; exit code, stdout and stderr must match ``cli_golden.json``
byte for byte, run alone and run again after every other case.  Cases run
in this directory, so the field catalogue ``golden_fields.json`` is named
by a relative path.  After a deliberate change of output, regenerate the
file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from flagzeta.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

COMMANDS = (
    ("ranks", "proj(Q(sqrt -1), 1)", "--k=-4..1"),
    ("cells", "union(flag(Q, 1+2), affine(F(4), 1))"),
    ("chi", "grass(Q(sqrt 2), 1, 3)", "--k=-4..2"),
    ("ord", "union(proj(Q, 1), affine(F(3), 2))", "--k=-3..2"),
    ("lfun", "proj(Q(sqrt 5), 1)", "--eval-at=3.5", "--prime-bound=50"),
    ("zeta", "flag(F(3), 1+1)", "--order=5"),
    ("special", "proj(Q, 2)", "--at=-1"),
    ("special", "proj(Q, 1)", "--at=1"),
    ("special", "proj(Q, 1)", "--at=3"),
    ("special", "Q(sqrt 5)", "--at=-1"),
    ("special", "Q", "--at=4"),
    ("verify", "flag(Q(sqrt -3), 1+1)", "--k=-3..2"),
    ("sweep", "--family", "proj", "--fields", "Q,F(2)", "--max-d", "1", "--k=-2..1"),
    ("sweep", "--family", "flags", "--fields", "Q(sqrt -1)", "--max-n", "2", "--k=-3..1"),
    ("sweep", "--family", "affine", "--fields", "Q,F(3)", "--max-d", "2", "--k=-2..2"),
    ("verify", "union(proj(K, 1), Q)", "--k=-4..2", "--field-config=golden_fields.json"),
    ("lfun", "proj(C, 1)", "--eval-at=3.5", "--prime-bound=7", "--field-config=golden_fields.json"),
)
ERRORS = (
    ("verify", "proj(Q, "),  # exit 2: syntax error
    ("chi", "Q", "--k=2..1"),  # exit 3: empty range
    ("special", "proj(F(2), 1)", "--at=0"),  # exit 4: finite base
)
CASES = [
    [*command, "--format", fmt]
    for command in COMMANDS
    for fmt in ("plain", "json", "csv")
] + [list(error) for error in ERRORS]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(entry["argv"]): entry for entry in entries}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(GOLDEN.parent)
    assert run(argv) == _golden()[tuple(argv)]


def test_golden_commands_repeat_in_one_process(monkeypatch):
    # no call may leave state that changes a later one (scheme nodes keep
    # their built class): every golden command twice in one process,
    # forward and then in reverse order
    monkeypatch.chdir(GOLDEN.parent)
    entries = list(_golden().values())
    for entry in entries + entries[::-1]:
        assert run(entry["argv"]) == entry


if __name__ == "__main__":
    os.chdir(GOLDEN.parent)
    GOLDEN.write_text(
        json.dumps([run(argv) for argv in CASES], indent=1) + "\n", encoding="utf-8"
    )
