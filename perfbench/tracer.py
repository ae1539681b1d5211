"""Span tracing of the package's public entry points, installed from outside.

Tracing rebinds names: every module attribute in the ``flagzeta`` package
that refers to a traced function (the defining module, the modules that
imported it, the package root) is pointed at a wrapper, and traced methods
are replaced on their classes.  Nothing under ``src/`` is edited and no
private name is touched.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples and
written out when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover; each op is itself a root
span named ``bench.op``, whose self time is the op time no layer span
covers, so the self times of one op add up to its wall time exactly.  A
call that re-enters the function of the span directly around it (the
recursion inside ``cells_of``, ``__pow__`` calling itself on the inverse)
is folded into that span.  High-frequency kernels are counted, not spanned.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

import flagzeta.cells
import flagzeta.lfuncs
import flagzeta.series

ROOT = "bench.op"

# (span name, module, attribute, size counter, size of the result)
FUNCTIONS = (
    ("cli.main", "cli", "main", None, None),
    ("parse.parse_scheme", "parse", "parse_scheme", None, None),
    ("cells.cells_of", "cells", "cells_of", "cells.strata_out", lambda r: len(r.strata)),
    ("cells.point_count", "cells", "point_count", None, None),
    ("cells.brute_force_flag_count", "cells", "brute_force_flag_count", None, None),
    ("weights.weight_table_of", "weights", "weight_table_of", "weights.table_entries", lambda r: len(r.items())),
    ("weights.chi", "weights", "chi", None, None),
    ("verify.check_soule", "verify", "check_soule", None, None),
    ("verify.sweep", "verify", "sweep", None, None),
    ("lfuncs.lfactorization_of", "lfuncs", "lfactorization_of", "lfuncs.factors_out", lambda r: len(r.factors)),
    ("lfuncs.weil_zeta_series", "lfuncs", "weil_zeta_series", None, None),
    ("lfuncs.weil_zeta_rational", "lfuncs", "weil_zeta_rational", None, None),
    ("lfuncs.lfun_partial_eval", "lfuncs", "lfun_partial_eval", None, None),
    ("lfuncs.special_value_product", "lfuncs", "special_value_product", None, None),
    ("fields.zeta_partial_eval", "fields", "zeta_partial_eval", None, None),
)
METHODS = (
    ("lfuncs.LFactorization.ord_at", flagzeta.lfuncs.LFactorization, "ord_at"),
    ("lfuncs.RationalZeta.expand", flagzeta.lfuncs.RationalZeta, "expand"),
    ("series.TruncSeries.exp", flagzeta.series.TruncSeries, "exp"),
    ("series.TruncSeries.log", flagzeta.series.TruncSeries, "log"),
    ("series.TruncSeries.inverse", flagzeta.series.TruncSeries, "inverse"),
    ("series.TruncSeries.__pow__", flagzeta.series.TruncSeries, "__pow__"),
)
# Called thousands of times per op: counted only.
COUNTED_FUNCTIONS = (("fields.ord_at_integer.calls", "fields", "ord_at_integer"),)
COUNTED_METHODS = (("series.TruncSeries.mul.calls", flagzeta.series.TruncSeries, "__mul__"),)
SIZE_COUNTERS = ("cells.strata_out", "weights.table_entries", "lfuncs.factors_out")
CACHES = (
    ("cells.gaussian_binomial.hit_ratio", flagzeta.cells.gaussian_binomial),
    ("series.bernoulli.hit_ratio", flagzeta.series.bernoulli),
)
SPAN_NAMES = (ROOT, *(f[0] for f in FUNCTIONS), *(m[0] for m in METHODS))


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self) -> None:
        self.spans: list = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list = []  # [name, span index, time covered by children, parent index]
        self._op = None
        self._sizes: list = []  # (counter, size function, result) of the current op
        self._cache_start = None

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else None
        frame = [name, len(self.spans), 0.0, parent]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        name, index, covered, parent = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        self.spans[index] = (name, start, end, parent, self._op)

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span."""
        self._op = op_id
        frame = self._enter(ROOT)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(frame, start, perf_counter())
            # Sizes are taken after the op's clock stops, so measuring them
            # adds to the tracing overhead but to no layer's self time.
            for counter, size, result in self._sizes:
                self.counts[counter] += size(result)
            self._sizes.clear()

    def _span(self, name: str, fn, size_counter=None, size=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start, perf_counter())
            if size_counter is not None:
                self._sizes.append((size_counter, size, result))
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _rebind_everywhere(self, module: str, attr: str, make) -> None:
        original = getattr(sys.modules[f"flagzeta.{module}"], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "flagzeta" and not name.startswith("flagzeta."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Trace from now on.  Meant for a process that is thrown away after
        the traced phase: nothing is ever unwrapped."""
        for name, module, attr, counter, size in FUNCTIONS:
            self._rebind_everywhere(
                module, attr, lambda fn, n=name, c=counter, s=size: self._span(n, fn, c, s)
            )
        for name, module, attr in COUNTED_FUNCTIONS:
            self._rebind_everywhere(module, attr, lambda fn, n=name: self._counted(n, fn))
        for name, cls, attr in METHODS:
            setattr(cls, attr, self._span(name, vars(cls)[attr]))
        for name, cls, attr in COUNTED_METHODS:
            setattr(cls, attr, self._counted(name, vars(cls)[attr]))
        self._cache_start = [cache.cache_info() for _, cache in CACHES]

    def finish(self) -> None:
        """Record the cache lookups made since ``install``."""
        for (name, cache), before in zip(CACHES, self._cache_start):
            after = cache.cache_info()
            self.counts[f"{name}.hits"] += after.hits - before.hits
            self.counts[f"{name}.misses"] += after.misses - before.misses

    # -- results ------------------------------------------------------------------

    def state(self) -> dict:
        """Everything measured, as plain data (sent back from a forked pass)."""
        return {
            "spans": self.spans,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge(self, state: dict, op_offset: int) -> None:
        base = len(self.spans)
        for name, start, end, parent, op in state["spans"]:
            parent = None if parent is None else parent + base
            self.spans.append((name, start, end, parent, op + op_offset))
        self.self_s.update(state["self_s"])
        self.calls.update(state["calls"])
        self.counts.update(state["counts"])

    def metrics(self, ops: int) -> dict:
        """Per-op means of every layer metric."""
        out = {}
        for name in SPAN_NAMES:
            if name != ROOT:
                out[f"{name}.calls"] = (self.calls[name] / ops, "1/op")
            out[f"{name}.self_s"] = (self.self_s[name] / ops, "s/op")
        out[f"{ROOT}.wall_s"] = (
            sum(end - start for name, start, end, _, _ in self.spans if name == ROOT) / ops,
            "s/op",
        )
        for name, _, _ in COUNTED_FUNCTIONS + COUNTED_METHODS:
            out[name] = (self.counts[name] / ops, "1/op")
        for name in SIZE_COUNTERS:
            out[name] = (self.counts[name] / ops, "1/op")
        for name, _ in CACHES:
            hits, misses = self.counts[f"{name}.hits"], self.counts[f"{name}.misses"]
            out[name] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op"), span))))
                handle.write("\n")
