"""The README's command-line examples and its library quick tour run."""

import contextlib
import io
import json
import pathlib
import re
import shlex

import pytest

from flagzeta.cli import main
from flagzeta.parse import load_field_registry, parse_scheme
from flagzeta.verify import check_soule

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first fenced ``lang`` block after the line ``after``."""
    start = README.index(f"\n{after}\n")
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


EXAMPLES = [line for line in _block("Examples:", "sh").splitlines() if line.strip()]


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 5
    assert all(line.startswith("flagzeta ") for line in EXAMPLES)


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_example_exits_0(line):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(line)[1:])
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue()


def test_library_quick_tour_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("## Library quick tour", "python"), {})
    assert out.getvalue() == (
        "1\n"
        "L(Q(sqrt -1), s) * L(Q(sqrt -1), s-1) * L(Q(sqrt -1), s-2)\n"
        "3\n"
        "-1\n"
    )


def test_field_registry_example_loads_and_its_error_is_quoted(tmp_path):
    config = tmp_path / "fields.json"
    config.write_text(_block("### Field registry JSON", "json"))
    registry = load_field_registry(config)
    assert check_soule(parse_scheme("proj(K6, 1)", registry)).ok
    record = json.loads(config.read_text())
    record["fields"][0]["splitting"] = {"2": 5}
    config.write_text(json.dumps(record))
    quoted = re.search(r"`(error: field 'K6'[^`]*)`", README).group(1)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["cells", "K6", "--field-config", str(config)])
    assert (code, err.getvalue()) == (3, quoted + "\n")
