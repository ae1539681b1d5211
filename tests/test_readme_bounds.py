"""The README's table of work bounds lists exactly the package's bounds."""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flagzeta"

# A table row: | value | `module.MAX_NAME` | what it refuses |
ROW = re.compile(r"^\s*\|\s*([0-9][0-9 ^]*?)\s*\|\s*`(\w+)\.(MAX_\w+)`\s*\|")


def _constants():
    """{(module, name): value} for every module-level MAX_* assignment."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"flagzeta.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                    out[(path.stem, target.id)] = getattr(module, target.id)
    return out


def _table():
    """{(module, name): value} for every row of the README bounds table."""
    out = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        m = ROW.match(line)
        if m:
            text = m.group(1).replace(" ", "")
            base, _, exp = text.partition("^")
            out[(m.group(2), m.group(3))] = int(base) ** int(exp) if exp else int(base)
    return out


def test_readme_bounds_table_matches_the_code():
    constants, table = _constants(), _table()
    assert len(constants) >= 9  # the scan finds the bounds, so a pass is not vacuous
    assert table == constants
