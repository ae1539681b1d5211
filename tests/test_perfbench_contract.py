"""The package names that the benchmark's tracer binds must still resolve.

``perfbench/tracer.py`` wraps package functions, methods and caches by name
and rebinds functions by identity; a rename it does not follow would fail
every benchmark run, so it fails here instead.  ``Tracer.install`` is never
called: it rebinds the package's globals for the rest of the process.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import flagzeta.weights
from flagzeta.cells import BasePoint, CellDecomposition, ProjBundle, cells_of
from flagzeta.fields import quadratic_field, rationals
from flagzeta.lfuncs import RationalZeta
from flagzeta.parse import parse_scheme
from flagzeta.series import TruncSeries
from flagzeta.verify import check_soule
from flagzeta.weights import weight_table_of

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


def _function(module: str, attr: str):
    return getattr(importlib.import_module(f"flagzeta.{module}"), attr)


def test_traced_functions_resolve_to_distinct_functions():
    bound = [
        _function(module, attr)
        for _, module, attr, *_ in tracer.FUNCTIONS + tracer.COUNTED_FUNCTIONS
    ]
    assert all(callable(fn) for fn in bound)
    # rebinding by identity would merge the spans of two names for one object
    assert len({id(fn) for fn in bound}) == len(bound)


def test_traced_methods_are_defined_on_their_classes():
    for _, cls, attr in tracer.METHODS + tracer.COUNTED_METHODS:
        assert callable(vars(cls)[attr])


def test_size_counters_read_their_results():
    x = ProjBundle(parse_scheme("Q(sqrt -1)"), 2)
    for _, module, attr, counter, size in tracer.FUNCTIONS:
        if counter is None:
            continue
        r = _function(module, attr)(x)
        assert size(r) > 0
        if counter in ("cells.strata_out", "lfuncs.factors_out"):
            # one per term of the class, whatever type the view holds
            assert size(r) == sum(len(poly) for _, poly in r.polys)


def test_table_entries_counts_the_stored_ranks():
    (table_entries,) = [
        size for _, _, _, counter, size in tracer.FUNCTIONS
        if counter == "weights.table_entries"
    ]
    cancelling = cells_of(BasePoint(rationals())) / cells_of(BasePoint(quadratic_field(-1)))
    for x in (ProjBundle(parse_scheme("Q(sqrt -1)"), 2), cancelling):
        table = weight_table_of(x, -10, 4)
        assert table_entries(table) == sum(len(col) for col in table.columns.values())
        assert all(dim != 0 for col in table.columns.values() for _, dim in col)


def test_traced_caches_report_cache_info():
    for _, cache in tracer.CACHES:
        info = cache.cache_info()
        assert info.hits >= 0 and info.misses >= 0


def test_one_check_soule_is_one_chi_and_one_ord_window(monkeypatch):
    # The per-layer rows read weights.chi as the K-side share of a check,
    # and the rest of check_soule's own time as the L-side's: each check
    # must call each side once.  chi is rebound by identity in every
    # package module, as the tracer rebinds it.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    chi = flagzeta.weights.chi
    for name, module in list(sys.modules.items()):
        if name.startswith("flagzeta."):
            for key, value in list(vars(module).items()):
                if value is chi:
                    monkeypatch.setattr(module, key, counted("chi", chi))
    monkeypatch.setattr(
        CellDecomposition, "ord_window", counted("ord_window", CellDecomposition.ord_window)
    )
    x = parse_scheme("union(grass(proj(Q(sqrt -1), 3), 2, 4), affine(F(3), 2))")
    report = check_soule(x, (-6, 4))
    assert report.ok
    assert calls == {"chi": 1, "ord_window": 1}


def test_one_zeta_op_is_one_exp_one_log_and_one_expand(monkeypatch):
    # The zeta_series rows read the spans of these three methods, which the
    # tracer replaces on their classes: an op whose path bypassed one (the
    # point counts solved without exp, say) would lose that layer's row.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for cls, attr in ((TruncSeries, "exp"), (TruncSeries, "log"), (RationalZeta, "expand")):
        monkeypatch.setattr(cls, attr, counted(attr, vars(cls)[attr]))
    workloads = _load("workloads")
    ok, _ = workloads.zeta_run(workloads.zeta_check_set(True)[0], False)
    assert ok
    assert calls == {"exp": 1, "log": 1, "expand": 1}
