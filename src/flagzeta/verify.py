"""Cross-checks between K-theory Euler characteristics and L-function orders.

For a scheme X assembled from cells over rings of integers (or finite
fields), two entirely separate computations are available at each
integer k:

* the Euler characteristic chi(X, k) of the weight-k part of the
  rational K-theory of X, read off the weight table;
* the vanishing order ord_{s=k} L(X, s), read off the same cell class
  as a product of shifted base zeta functions.

``check_soule`` computes the cell decomposition once, hands it to the
two independent pipelines, and compares the resulting integers exactly
over a k-range; the reports it returns are plain frozen data, rendered
identically on every run.  The same report carries the weight-table
support in each weight: the degrees where the ranks of the scheme live,
read off the table's column at that weight.

``sweep`` runs the check across a family of schemes and aggregates, so a
single exit status can certify, say, every flag bundle of rank <= 5 over
a list of fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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
from .lfuncs import lfactorization_of
from .weights import chi, weight_table_of

__all__ = [
    "SouleRow",
    "SupportRow",
    "VerificationReport",
    "SweepReport",
    "check_soule",
    "sweep",
    "compositions",
    "flag_family",
    "proj_family",
    "affine_family",
]

DEFAULT_K_RANGE = (-10, 2)


@dataclass(frozen=True)
class SouleRow:
    k: int
    chi: int
    ord: int

    @property
    def match(self) -> bool:
        return self.chi == self.ord


@dataclass(frozen=True)
class SupportRow:
    """Degrees carrying nonzero rank at one weight."""

    j: int
    degrees: tuple[int, ...]
    total_dim: int


@dataclass(frozen=True)
class VerificationReport:
    scheme: str
    k_min: int
    k_max: int
    rows: tuple[SouleRow, ...]
    support: tuple[SupportRow, ...]

    @cached_property
    def _mismatches(self) -> tuple[SouleRow, ...]:
        return tuple(r for r in self.rows if not r.match)

    @property
    def matched(self) -> int:
        return len(self.rows) - self.mismatched

    @property
    def mismatched(self) -> int:
        return len(self._mismatches)

    @property
    def ok(self) -> bool:
        return not self._mismatches

    def mismatches(self) -> tuple[SouleRow, ...]:
        return self._mismatches

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "rows": [
                {"k": r.k, "chi": r.chi, "ord": r.ord, "match": r.match}
                for r in self.rows
            ],
            "support": [
                {"j": s.j, "degrees": list(s.degrees), "total_dim": s.total_dim}
                for s in self.support
            ],
            "matched": self.matched,
            "mismatched": self.mismatched,
            "ok": self.ok,
        }


def _k_range(k_range: tuple[int, int]) -> tuple[int, int]:
    k_min, k_max = k_range
    if k_min > k_max:
        raise ValueError(f"empty k-range [{k_min}, {k_max}]")
    return k_min, k_max


def check_soule(
    x: CellsOrScheme, k_range: tuple[int, int] = DEFAULT_K_RANGE
) -> VerificationReport:
    """Compare chi(X, k) with ord_{s=k} L(X, s) for each k in the range.

    ``x`` is a scheme or a signed cell class.  The cell decomposition is
    computed once and shared; everything after that point is two disjoint
    exact computations.
    """
    k_min, k_max = _k_range(k_range)
    cells = _as_cells(x)
    table = weight_table_of(cells, k_min, k_max)
    chi_fn = chi(table)
    lfun = lfactorization_of(cells)
    rows = tuple(
        SouleRow(k, chi_fn.value(k), lfun.ord_at(k)) for k in range(k_min, k_max + 1)
    )
    support = []
    for j in range(k_min, k_max + 1):
        pairs = table.support_at(j)
        degrees = tuple(m for m, _ in pairs)
        support.append(SupportRow(j, degrees, sum(d for _, d in pairs)))
    return VerificationReport(str(x), k_min, k_max, rows, tuple(support))


@dataclass(frozen=True)
class SweepReport:
    reports: tuple[VerificationReport, ...]
    k_min: int
    k_max: int

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
        return sum(1 for r in self.reports for row in r.rows if row.chi <= -1)

    @property
    def rows_zero(self) -> int:
        """Rows with positive order: honest zeros in the family."""
        return sum(1 for r in self.reports for row in r.rows if row.chi >= 1)

    @property
    def max_chi(self) -> int:
        return max(row.chi for r in self.reports for row in r.rows)

    @property
    def min_chi(self) -> int:
        return min(row.chi for r in self.reports for row in r.rows)

    def to_dict(self) -> dict:
        return {
            "k_min": self.k_min,
            "k_max": self.k_max,
            "schemes": self.schemes,
            "total_rows": self.total_rows,
            "mismatched": self.mismatched,
            "ok": self.ok,
            "rows_nonzero": self.rows_nonzero,
            "rows_pole": self.rows_pole,
            "rows_zero": self.rows_zero,
            "min_chi": self.min_chi,
            "max_chi": self.max_chi,
            "reports": [r.to_dict() for r in self.reports],
        }


def sweep(
    schemes: Sequence[SchemeExpr], k_range: tuple[int, int] = DEFAULT_K_RANGE
) -> SweepReport:
    """check_soule across a family, in the family's given order."""
    if not schemes:
        raise ValueError("empty family")
    k_min, k_max = _k_range(k_range)
    reports = tuple(check_soule(x, (k_min, k_max)) for x in schemes)
    return SweepReport(reports, k_min, k_max)


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
