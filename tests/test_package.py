"""The package root exports exactly the library modules' public names."""

import importlib
import pkgutil

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
