"""Rational K-theory ranks of cellular schemes, graded by weight.

The table for Spec of the ring of integers of a number field F with
signature (r1, r2) follows Borel's rank computation together with
Dirichlet's unit theorem, regraded so that the weight of a class equals
the Krull dimension of the base (one) minus its Adams eigenvalue:

    degree m = 0:      rank 1       at weight 1,
    degree m = 1:      rank r1+r2-1 at weight 0   (units mod torsion),
    degree m = 2i-1:   rank r1+r2   at weight 1-i for odd  i >= 3,
                       rank r2      at weight 1-i for even i >= 2,
    all even degrees m >= 2 and all negative degrees: rank 0.

(The odd/even split is pinned down by degree mod 4: ranks r1+r2 occur in
degrees 1 mod 4, ranks r2 in degrees 3 mod 4.)  Spec of a finite field
contributes a single rank-1 entry in degree 0 and weight 0.  Each kind's
table is one row of ``_K_ROWS``, written apart from its L-side row in
``fields``.  A cell of dimension d over a base simply shifts the base
table up by d in weight, and tables of signed cell classes add with the
multiplicities, so they hold virtual ranks (negative for an excised
cell) and ``chi`` is linear on classes, as ``ord_at`` is; that is all
the cell calculus needs.

A table covers an explicit weight window [j_min, j_max], because the
full table has entries at every sufficiently negative weight; inside
the window every query is exact and complete.  A table holds the cell
class, one integer polynomial per base, and its window.  ``chi`` reads
the class directly: a base's signed column sums vanish above weight 1
and are 2-periodic below weight -1, so ``cells._window_sums`` gives chi
on the window in O(terms up to the walk's top + span ∩ window) in
Python plus O(width) in C per base, however large a shift.  The
ranks, one column of nonzero (m, rank) pairs sorted by m per weight, are
built only when read (``items``, ``dim``, ``support_at``), in one pass
over the polynomials.

The Euler characteristic of a table at weight k is
chi(k) = sum_m (-1)^(m+1) dim(m, k), the sign chosen so that
chi(Spec Z, 1) = -1 matches the pole of the zeta function at s = 1.
``chi(table)`` returns the plain dict {k: chi(k)} for every k in the
table's window, so a weight outside it is simply absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .cells import CellDecomposition, CellsOrScheme, _as_cells, _window_sums
from .fields import BaseField, FiniteField, NumberField

__all__ = [
    "WeightTable",
    "weight_table_of",
    "chi",
]


@dataclass(frozen=True)
class WeightTable:
    """Ranks dim_Q of K-groups by (degree m, weight j), on a weight window.

    The table is the cell class ``cells`` read on [j_min, j_max].  Ranks
    of a signed cell class are virtual and may be negative.  They are
    kept by weight: ``columns[j]`` is the tuple of (m, rank) pairs with a
    nonzero rank at weight j, sorted by m, and a weight whose ranks are
    all zero has no column.  The columns are built on first read; ``chi``
    never reads them.  Queries inside the window return 0 for absent
    entries and queries outside the window are refused, since the table
    holds no information there.
    """

    cells: CellDecomposition
    j_min: int
    j_max: int

    def __post_init__(self) -> None:
        if self.j_min > self.j_max:
            raise ValueError("empty weight window")

    @cached_property
    def columns(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """The signed sum over each base's terms of the base entries
        shifted up by the term's shift, in one pass, by weight."""
        j_min, j_max = self.j_min, self.j_max
        acc: dict[int, dict[int, int]] = {}
        for base, poly in self.cells.polys:
            for shift, mult in poly:
                for (m, j), dim in _base_entries(base, j_min - shift, j_max - shift):
                    col = acc.setdefault(j + shift, {})
                    col[m] = col.get(m, 0) + dim * mult
        columns = {}
        for j in sorted(acc):
            col = tuple(sorted((m, dim) for m, dim in acc[j].items() if dim))
            if col:
                columns[j] = col
        return columns

    def _check_window(self, j: int) -> None:
        if not self.j_min <= j <= self.j_max:
            raise ValueError(
                f"weight {j} outside table window [{self.j_min}, {self.j_max}]"
            )

    def dim(self, m: int, j: int) -> int:
        return dict(self.support_at(j)).get(m, 0)

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(
            ((m, j), dim) for j, col in self.columns.items() for m, dim in col
        )

    def support_at(self, j: int) -> tuple[tuple[int, int], ...]:
        """All (m, dim) pairs with a nonzero rank at weight j, sorted by m."""
        self._check_window(j)
        return self.columns.get(j, ())


# The one default weight window: of weight_table_of, verify and --k.
DEFAULT_K_RANGE = (-10, 2)


# Each kind's K-side row, read off a base: its (m, rank) entries at
# weights 1 and 0, then its rank in degree m = 2i - 1 at weight 1 - i for
# odd and for even Adams eigenvalue i >= 2.  Borel and Dirichlet give a
# number field's; a finite field has only its rank-1 K_0.
_K_ROWS = {
    NumberField: lambda b: (((0, 1),), ((1, b.r1 + b.r2 - 1),), b.r1 + b.r2, b.r2),
    FiniteField: lambda b: ((), ((0, 1),), 0, 0),
}


def _base_entries(
    base: BaseField, j_min: int, j_max: int
) -> Iterator[tuple[tuple[int, int], int]]:
    """The nonzero ((m, j), rank) entries of a base's table on [j_min, j_max],
    read off its kind's row in ``_K_ROWS``."""
    at_one, at_zero, odd, even = _K_ROWS[type(base)](base)
    for j, entries in ((1, at_one), (0, at_zero)):
        if j_min <= j <= j_max:
            yield from (((m, j), dim) for m, dim in entries if dim)
    for j in range(j_min, min(j_max, -1) + 1):
        i = 1 - j  # Adams eigenvalue, >= 2 here
        if dim := odd if i % 2 else even:
            yield (2 * i - 1, j), dim


def weight_table_of(
    x: CellsOrScheme, j_min: int = DEFAULT_K_RANGE[0], j_max: int = DEFAULT_K_RANGE[1]
) -> WeightTable:
    """Weight table of a scheme or signed cell class on [j_min, j_max]: the
    signed sum over its cells of the base entries shifted up by the cell
    dimension."""
    return WeightTable(_as_cells(x), j_min, j_max)


def _base_chi(base: BaseField) -> tuple[int, int, int, int]:
    """The base's chi at weights 1, 0, -1, -2: its signed column sums."""
    out = dict.fromkeys((1, 0, -1, -2), 0)
    for (m, j), dim in _base_entries(base, -2, 1):
        out[j] += dim if m % 2 else -dim
    return tuple(out.values())


def chi(table: WeightTable) -> dict[int, int]:
    """{k: chi(k)} for every weight k of the table's window, where
    chi(k) = sum_m (-1)^(m+1) dim(m, k) is the signed sum of the column
    at weight k, summed over the cells by ``cells._window_sums``."""
    return _window_sums(table.cells, table.j_min, table.j_max, _base_chi)
