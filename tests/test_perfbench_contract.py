"""The package names that the benchmark's tracer binds must still resolve.

``perfbench/tracer.py`` wraps package functions, methods and caches by name
and rebinds functions by identity; a rename it does not follow would fail
every benchmark run, so it fails here instead.  ``Tracer.install`` is never
called: it rebinds the package's globals for the rest of the process.
"""

import importlib
import importlib.util
from pathlib import Path

from flagzeta.cells import BasePoint, ProjBundle, cells_of
from flagzeta.fields import quadratic_field, rationals
from flagzeta.parse import parse_scheme
from flagzeta.weights import weight_table_of

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


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
