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
