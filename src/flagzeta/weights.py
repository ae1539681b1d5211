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
contributes a single rank-1 entry in degree 0 and weight 0.  A cell of
dimension d over a base simply shifts the base table up by d in weight,
and tables of signed cell classes add with the multiplicities, so they
hold virtual ranks (negative for an excised cell) and ``chi`` is linear
on classes, as ``ord_at`` is; that is all the cell calculus needs.

Tables are materialized over an explicit weight window [j_min, j_max]
because the full table has entries at every sufficiently negative
weight; inside the window every query is exact and complete.  A table
is built in one pass over the cells and kept by weight, so the support
and chi at one weight each read a single column.

The Euler characteristic of a table at weight k is
chi(k) = sum_m (-1)^(m+1) dim(m, k), the sign chosen so that
chi(Spec Z, 1) = -1 matches the pole of the zeta function at s = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from .cells import CellsOrScheme, _as_cells
from .fields import BaseField, FiniteField

__all__ = [
    "WeightTable",
    "ChiFunction",
    "borel_weight_table",
    "finite_field_weight_table",
    "weight_table_of",
    "chi",
]


class WeightTable:
    """Ranks dim_Q of K-groups by (degree m, weight j), on a weight window.

    Ranks of a signed cell class are virtual and may be negative.  They
    are kept by weight, as one column {m: rank} per weight.  Zero
    entries are not stored; queries inside the window return 0 for absent
    entries and queries outside the window are refused, since the table
    holds no information there.
    """

    __slots__ = ("_columns", "_j_min", "_j_max")

    def __init__(
        self, entries: Mapping[tuple[int, int], int], j_min: int, j_max: int
    ) -> None:
        if j_min > j_max:
            raise ValueError("empty weight window")
        columns: dict[int, dict[int, int]] = {}
        for (m, j), dim in entries.items():
            if dim == 0:
                continue
            if not j_min <= j <= j_max:
                raise ValueError(f"entry at weight {j} outside window [{j_min}, {j_max}]")
            columns.setdefault(j, {})[m] = dim
        self._columns = columns
        self._j_min = j_min
        self._j_max = j_max

    @property
    def j_min(self) -> int:
        return self._j_min

    @property
    def j_max(self) -> int:
        return self._j_max

    def _check_window(self, j: int) -> None:
        if not self._j_min <= j <= self._j_max:
            raise ValueError(
                f"weight {j} outside table window [{self._j_min}, {self._j_max}]"
            )

    def dim(self, m: int, j: int) -> int:
        self._check_window(j)
        return self._columns.get(j, {}).get(m, 0)

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(
            ((m, j), dim) for j, col in self._columns.items() for m, dim in col.items()
        )

    def support_at(self, j: int) -> tuple[tuple[int, int], ...]:
        """All (m, dim) pairs with a nonzero rank at weight j, sorted by m."""
        self._check_window(j)
        return tuple(sorted(self._columns.get(j, {}).items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightTable):
            return NotImplemented
        return (
            self._columns == other._columns
            and (self._j_min, self._j_max) == (other._j_min, other._j_max)
        )

    def __repr__(self) -> str:
        return (
            f"WeightTable({dict(self.items())!r}, j_min={self._j_min}, "
            f"j_max={self._j_max})"
        )


DEFAULT_J_MIN = -32
DEFAULT_J_MAX = 8


def _base_entries(
    base: BaseField, j_min: int, j_max: int
) -> Iterator[tuple[tuple[int, int], int]]:
    """The nonzero ((m, j), rank) entries of a base's table on [j_min, j_max]."""
    if isinstance(base, FiniteField):
        if j_min <= 0 <= j_max:
            yield (0, 0), 1
        return
    if j_min <= 1 <= j_max:
        yield (0, 1), 1
    units = base.r1 + base.r2 - 1
    if units > 0 and j_min <= 0 <= j_max:
        yield (1, 0), units
    for j in range(j_min, min(j_max, -1) + 1):
        i = 1 - j  # Adams eigenvalue, >= 2 here
        dim = base.r1 + base.r2 if i % 2 == 1 else base.r2
        if dim:
            yield (2 * i - 1, j), dim


def borel_weight_table(
    field: BaseField, j_min: int = DEFAULT_J_MIN, j_max: int = DEFAULT_J_MAX
) -> WeightTable:
    """The weight table of Spec of a base: Borel/Dirichlet for the ring of
    integers of a number field, rationally just the class of the point
    (degree 0, weight 0) for a finite field."""
    return WeightTable(dict(_base_entries(field, j_min, j_max)), j_min, j_max)


# One rule serves both kinds of base; this name reads it over F_q.
finite_field_weight_table = borel_weight_table


def weight_table_of(
    x: CellsOrScheme, j_min: int = DEFAULT_J_MIN, j_max: int = DEFAULT_J_MAX
) -> WeightTable:
    """Weight table of a scheme or signed cell class: the signed sum over
    its cells of the base entries shifted up by the cell dimension."""
    entries: dict[tuple[int, int], int] = {}
    for s in _as_cells(x):
        for (m, j), dim in _base_entries(s.base, j_min - s.shift, j_max - s.shift):
            key = (m, j + s.shift)
            entries[key] = entries.get(key, 0) + dim * s.multiplicity
    return WeightTable(entries, j_min, j_max)


@dataclass(frozen=True)
class ChiFunction:
    """Euler characteristics by weight, valid on an explicit window.

    Stored sparsely as sorted (weight, value) pairs with nonzero values;
    a query outside the window is refused, since the table it came from
    holds no information there.
    """

    values: tuple[tuple[int, int], ...]
    j_min: int
    j_max: int

    def value(self, k: int) -> int:
        if not self.j_min <= k <= self.j_max:
            raise ValueError(
                f"weight {k} outside window [{self.j_min}, {self.j_max}]"
            )
        return self._by_weight.get(k, 0)

    @cached_property
    def _by_weight(self) -> dict[int, int]:
        return dict(self.values)


def chi(table: WeightTable) -> ChiFunction:
    """chi(k) = sum_m (-1)^(m+1) dim(m, k) on the table's window: the
    signed sum of the column at weight k."""
    values = []
    for j, col in sorted(table._columns.items()):
        v = sum(dim if m % 2 else -dim for m, dim in col.items())
        if v:
            values.append((j, v))
    return ChiFunction(tuple(values), table.j_min, table.j_max)
