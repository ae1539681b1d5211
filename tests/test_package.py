"""The package root exports exactly the library modules' public names,
and no package module reads the test references."""

import ast
import importlib
import pkgutil
from pathlib import Path

import flagzeta

LIBRARY = [
    importlib.import_module(info.name)
    for info in pkgutil.iter_modules(flagzeta.__path__, prefix="flagzeta.")
    if info.name != "flagzeta.cli"
]


def test_root_exports_the_union_of_the_modules_all():
    assert len(LIBRARY) >= 7  # the scan finds the modules, so a pass is not vacuous
    names = [name for module in LIBRARY for name in module.__all__]
    assert len(names) == len(set(names)), "a name is public in two modules"
    assert sorted(flagzeta.__all__) == sorted(names)
    star: dict = {}
    exec("from flagzeta import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(flagzeta, name) is getattr(module, name), (module, name)


def test_no_package_module_imports_the_test_references():
    # tests/oracles.py holds the references the package is checked
    # against; code that read them would check itself
    sources = sorted(Path(flagzeta.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not {"tests", "oracles"} & {n.split(".")[0] for n in names}, (path.name, names)


KINDS = {"FiniteField", "NumberField"}


def _names(node: ast.AST) -> set:
    """Every name, attribute or imported name anywhere inside ``node``."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names


def _calls(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _kind_tests(tree: ast.AST) -> list:
    """The lines of each ``isinstance`` call, and each comparison with a
    ``type(...)`` call, that names a base kind."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            _calls(node, "isinstance")
            or isinstance(node, ast.Compare)
            and any(_calls(side, "type") for side in (node.left, *node.comparators))
        )
        and KINDS & _names(node)
    ]


def test_the_kind_guard_finds_each_form_of_kind_test():
    for text in (
        "isinstance(b, FiniteField)",
        "not isinstance(b, (int, fields.NumberField))",
        "type(b) is FiniteField",
        "NumberField is not type(b)",
        "x = 1 if type(b) == FiniteField else 2",
    ):
        assert _kind_tests(ast.parse(text)) == [1], text
    assert _kind_tests(ast.parse("isinstance(b, int) or type(b) is list or b.q is None")) == []


def test_no_package_module_asks_which_kind_a_base_is():
    # a base kind is one row per side, its class in fields.py and its
    # entry in weights.py; a kind test anywhere would be one more place a
    # new kind must edit, and besides the rows only the registry loader
    # names a kind
    sources = sorted(Path(flagzeta.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        assert _kind_tests(tree) == [], path.name
        if path.name not in ("fields.py", "weights.py", "parse.py"):
            assert not KINDS & _names(tree), path.name
