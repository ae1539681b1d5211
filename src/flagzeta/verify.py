"""Cross-checks between K-theory Euler characteristics and L-function orders.

For a scheme X assembled from cells over rings of integers (or finite
fields), two entirely separate computations are available at each
integer k:

* the Euler characteristic chi(X, k) of the weight-k part of the
  rational K-theory of X, read off the weight table;
* the vanishing order ord_{s=k} L(X, s), read off the same cell class
  as a product of shifted base zeta functions.

``check_soule`` reads the cell decomposition once, hands it to the
two independent pipelines, and compares the resulting integers exactly
over a k-range; the reports it returns are plain frozen data, rendered
identically on every run.  Each side reads the whole window off the
class, one polynomial per base, in one head-and-tail convolution per
base (``cells._window_sums``), O(terms up to the walk's top + span ∩
window) in Python plus O(width) in C, each with its own rule:
``chi`` the rank entries of the base's K-side row in ``weights``,
``ord_window`` the ``orders`` of its L-side row in ``fields``.  A report
carries the weight table it read, whose window is the report's k-range;
``to_dict`` renders the support in each weight from it: the degrees
where the ranks of the scheme live, read off the table's column at that
weight, the only step that builds the columns, which
``to_dict(support=False)`` leaves out (the CLI prints the support only
as JSON).

``sweep`` runs the check across a family of schemes and aggregates, so a
single exit status can certify, say, every flag bundle of rank <= 5 over
a list of fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .cells import (
    Affine,
    BasePoint,
    CellsOrScheme,
    FlagBundle,
    ProjBundle,
    SchemeExpr,
    _as_cells,
)
from .fields import BaseField
from .weights import DEFAULT_K_RANGE, WeightTable, chi, weight_table_of

__all__ = [
    "SouleRow",
    "VerificationReport",
    "SweepReport",
    "check_soule",
    "sweep",
    "compositions",
    "flag_family",
    "proj_family",
    "affine_family",
]


class SouleRow(NamedTuple):
    """One weight k of a report: chi(X, k) beside ord_{s=k} L(X, s)."""

    k: int
    chi: int
    ord: int

    @property
    def match(self) -> bool:
        return self.chi == self.ord


@dataclass(frozen=True)
class VerificationReport:
    scheme: str
    table: WeightTable
    rows: tuple[SouleRow, ...]

    @cached_property
    def mismatches(self) -> tuple[SouleRow, ...]:
        return tuple(r for r in self.rows if r.chi != r.ord)

    @property
    def matched(self) -> int:
        return len(self.rows) - self.mismatched

    @property
    def mismatched(self) -> int:
        return len(self.mismatches)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self, support: bool = True) -> dict:
        """The report as JSON-ready data; ``support=False`` leaves out the
        support rows, the one part that builds the table's columns."""
        table = self.table
        out = {
            "scheme": self.scheme,
            "k_min": table.j_min,
            "k_max": table.j_max,
            "rows": [
                {"k": r.k, "chi": r.chi, "ord": r.ord, "match": r.match}
                for r in self.rows
            ],
            "matched": self.matched,
            "mismatched": self.mismatched,
            "ok": self.ok,
        }
        if support:
            cols = ((j, table.support_at(j)) for j in range(table.j_min, table.j_max + 1))
            out["support"] = [
                {"j": j, "degrees": [m for m, _ in col], "total_dim": sum(d for _, d in col)}
                for j, col in cols
            ]
        return out


def check_soule(
    x: CellsOrScheme, k_range: tuple[int, int] = DEFAULT_K_RANGE
) -> VerificationReport:
    """Compare chi(X, k) with ord_{s=k} L(X, s) for each k in the range.

    ``x`` is a scheme or a signed cell class.  A scheme's class is the one
    ``cells_of`` keeps on the node, built by its first call; everything
    after that point is two disjoint exact computations, ``chi`` of its
    weight table and its ``ord_window``, each O(terms up to the walk's
    top + span ∩ window) in Python plus O(width) in C per base, and
    neither building the table's columns.  The report is named
    ``str(x)``: the expression for a scheme, and for a class the product
    of its L-factors, printed from its polynomials.
    """
    k_min, k_max = k_range
    if k_min > k_max:
        raise ValueError(f"empty k-range [{k_min}, {k_max}]")
    cells = _as_cells(x)
    table = weight_table_of(cells, k_min, k_max)
    chis = chi(table)
    ords = cells.ord_window(k_min, k_max)
    rows = tuple(map(SouleRow, chis, chis.values(), ords.values()))
    return VerificationReport(str(x), table, rows)


@dataclass(frozen=True)
class SweepReport:
    reports: tuple[VerificationReport, ...]

    @property
    def schemes(self) -> int:
        return len(self.reports)

    @property
    def total_rows(self) -> int:
        return sum(len(r.rows) for r in self.reports)

    @property
    def mismatched(self) -> int:
        return sum(r.mismatched for r in self.reports)

    @property
    def ok(self) -> bool:
        return self.mismatched == 0

    @property
    def rows_nonzero(self) -> int:
        return sum(
            1 for r in self.reports for row in r.rows if row.chi != 0
        )

    @property
    def rows_pole(self) -> int:
        """Rows whose order is negative: honest poles in the family."""
        return sum(1 for r in self.reports for row in r.rows if row.ord <= -1)

    @property
    def rows_zero(self) -> int:
        """Rows with positive order: honest zeros in the family."""
        return sum(1 for r in self.reports for row in r.rows if row.ord >= 1)

    @property
    def max_chi(self) -> int:
        return max(row.chi for r in self.reports for row in r.rows)

    @property
    def min_chi(self) -> int:
        return min(row.chi for r in self.reports for row in r.rows)

    def to_dict(self, support: bool = True) -> dict:
        table = self.reports[0].table  # every report shares the sweep's window
        return {
            "k_min": table.j_min,
            "k_max": table.j_max,
            "schemes": self.schemes,
            "total_rows": self.total_rows,
            "mismatched": self.mismatched,
            "ok": self.ok,
            "rows_nonzero": self.rows_nonzero,
            "rows_pole": self.rows_pole,
            "rows_zero": self.rows_zero,
            "min_chi": self.min_chi,
            "max_chi": self.max_chi,
            "reports": [r.to_dict(support) for r in self.reports],
        }


def sweep(
    schemes: Sequence[SchemeExpr], k_range: tuple[int, int] = DEFAULT_K_RANGE
) -> SweepReport:
    """check_soule across a family, in the family's given order.  A member
    whose class is already built, as the CLI's window check builds it,
    reads it back from the node."""
    if not schemes:
        raise ValueError("empty family")
    return SweepReport(tuple(check_soule(x, k_range) for x in schemes))


# -- family builders --------------------------------------------------------------


def compositions(n: int) -> Iterable[tuple[int, ...]]:
    """Ordered tuples of positive integers summing to n, lexicographically."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def flag_family(bases: Sequence[BaseField], max_n: int) -> list[SchemeExpr]:
    """Every flag bundle of every type of rank 1..max_n over each base."""
    out = []
    for b in bases:
        for n in range(1, max_n + 1):
            for parts in compositions(n):
                out.append(FlagBundle(BasePoint(b), parts))
    return out


def proj_family(bases: Sequence[BaseField], max_d: int) -> list[SchemeExpr]:
    return [ProjBundle(BasePoint(b), d) for b in bases for d in range(max_d + 1)]


def affine_family(bases: Sequence[BaseField], max_d: int) -> list[SchemeExpr]:
    return [Affine(BasePoint(b), d) for b in bases for d in range(max_d + 1)]
