"""Every docstring example in the package runs and gives its printed result."""

import doctest
import importlib
import pkgutil

import pytest

import flagzeta

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(flagzeta.__path__, prefix="flagzeta.")
)


def test_every_module_is_collected():
    assert {"flagzeta.cells", "flagzeta.series", "flagzeta.lfuncs"} <= set(MODULES)
    # the series kernel's examples are found, so a pass is not vacuous
    assert doctest.testmod(importlib.import_module("flagzeta.series")).attempted > 0


@pytest.mark.parametrize("name", ["flagzeta", *MODULES])
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} doctests failed in {name}"
