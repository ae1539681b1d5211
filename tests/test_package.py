"""The package root exports exactly the library modules' public names,
no package module reads the test references, none asks which base kind
or which constructor it holds, and every kind has both of its rows."""

import ast
import importlib
import pkgutil
import typing
from pathlib import Path

import flagzeta
import flagzeta.cells
import flagzeta.fields
import flagzeta.weights

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
# every constructor class and the classes it shares its rule through;
# the leaf BasePoint is not one, so validating a leaf stays allowed
CONSTRUCTORS = {
    c.__name__
    for cls in flagzeta.cells._CONSTRUCTORS
    for c in cls.__mro__[:cls.__mro__.index(flagzeta.cells.SchemeExpr)]
}


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


def _kind_tests(tree: ast.AST, kinds: set = KINDS) -> list:
    """The lines of each ``isinstance`` call, and each comparison with a
    ``type(...)`` call, that names one of ``kinds``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            _calls(node, "isinstance")
            or isinstance(node, ast.Compare)
            and any(_calls(side, "type") for side in (node.left, *node.comparators))
        )
        and kinds & _names(node)
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
    assert {"Affine", "ProjBundle", "_Bundle", "DisjointUnion"} <= CONSTRUCTORS
    for text in ("isinstance(x, (cells.ProjBundle, Grassmannian))", "type(x) is _Bundle"):
        assert _kind_tests(ast.parse(text), CONSTRUCTORS) == [1], text
    assert _kind_tests(ast.parse("isinstance(x, BasePoint)"), CONSTRUCTORS) == []


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


def test_no_package_module_asks_which_constructor_a_node_is():
    # a constructor is one class in cells.py, its grammar and its cell
    # rule on the class; the parser builds its table from those classes,
    # so it names none of them and spells no keyword
    sources = sorted(Path(flagzeta.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    keywords = {cls.syntax[0] for cls in flagzeta.cells._CONSTRUCTORS}
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        assert _kind_tests(tree, CONSTRUCTORS) == [], path.name
        if path.name == "parse.py":
            assert not CONSTRUCTORS & _names(tree)
            constants = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
            assert not keywords & constants


def _probes(tree: ast.AST) -> list:
    """The lines of each ``hasattr`` call and each ``getattr`` with a default."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if _calls(node, "hasattr") or _calls(node, "getattr") and len(node.args) == 3
    ]


def test_no_package_module_probes_a_base_for_an_attribute():
    # a probe with a fallback is a kind test the isinstance guard misses:
    # what a kind has is an entry of its row, which every kind defines
    assert _probes(ast.parse("hasattr(b, 'q') or getattr(b, 'degree', None)")) == [1, 1]
    assert _probes(ast.parse("getattr(b, name)")) == []
    sources = sorted(Path(flagzeta.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        assert _probes(ast.parse(path.read_text(), str(path))) == [], path.name


def test_lfuncs_reads_the_rows_not_the_per_base_functions():
    path = Path(flagzeta.__file__).with_name("lfuncs.py")
    names = _names(ast.parse(path.read_text(), str(path)))
    assert "_check_euler_work" in names  # the scan sees its imports
    assert not {"ord_at_integer", "zeta_partial_eval", "zeta_value_at"} & names


L_ROW = ("orders", "euler_values", "euler_work", "zeta_value", "sort_key", "q")


def test_every_kind_has_an_l_side_row_and_a_k_side_row():
    kinds = typing.get_args(flagzeta.fields.BaseField)
    assert {kind.__name__ for kind in kinds} == KINDS
    for kind in kinds:
        assert [e for e in L_ROW if e not in dir(kind)] == [], kind.__name__
        assert kind in flagzeta.weights._K_ROWS, kind.__name__
