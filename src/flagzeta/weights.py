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
weight; inside the window every query is exact and complete.

The Euler characteristic of a table at weight k is
chi(k) = sum_m (-1)^(m+1) dim(m, k), the sign chosen so that
chi(Spec Z, 1) = -1 matches the pole of the zeta function at s = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .cells import CellsOrScheme, _as_cells
from .fields import BaseField, FiniteField, NumberField

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

    Ranks of a signed cell class are virtual and may be negative.  Zero
    entries are not stored; queries inside the window return 0 for
    absent entries and queries outside the window are refused, since
    the table holds no information there.
    """

    __slots__ = ("_entries", "_j_min", "_j_max")

    def __init__(
        self, entries: Mapping[tuple[int, int], int], j_min: int, j_max: int
    ) -> None:
        if j_min > j_max:
            raise ValueError("empty weight window")
        clean: dict[tuple[int, int], int] = {}
        for (m, j), dim in entries.items():
            if dim == 0:
                continue
            if not j_min <= j <= j_max:
                raise ValueError(f"entry at weight {j} outside window [{j_min}, {j_max}]")
            clean[(m, j)] = clean.get((m, j), 0) + dim
        self._entries = clean
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
        return self._entries.get((m, j), 0)

    def items(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self._entries.items())

    def support_at(self, j: int) -> tuple[tuple[int, int], ...]:
        """All (m, dim) pairs with a nonzero rank at weight j, sorted by m."""
        self._check_window(j)
        return tuple(
            sorted((m, d) for (m, jj), d in self._entries.items() if jj == j)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightTable):
            return NotImplemented
        return (
            self._entries == other._entries
            and (self._j_min, self._j_max) == (other._j_min, other._j_max)
        )

    def __repr__(self) -> str:
        return (
            f"WeightTable({self._entries!r}, j_min={self._j_min}, "
            f"j_max={self._j_max})"
        )


DEFAULT_J_MIN = -32
DEFAULT_J_MAX = 8


def borel_weight_table(
    field: NumberField, j_min: int = DEFAULT_J_MIN, j_max: int = DEFAULT_J_MAX
) -> WeightTable:
    """The weight table of Spec of the ring of integers of a number field."""
    entries: dict[tuple[int, int], int] = {}
    if j_min <= 1 <= j_max:
        entries[(0, 1)] = 1
    units = field.r1 + field.r2 - 1
    if units > 0 and j_min <= 0 <= j_max:
        entries[(1, 0)] = units
    for j in range(j_min, min(j_max, -1) + 1):
        i = 1 - j  # Adams eigenvalue, >= 2 here
        dim = field.r1 + field.r2 if i % 2 == 1 else field.r2
        if dim:
            entries[(2 * i - 1, j)] = dim
    return WeightTable(entries, j_min, j_max)


def finite_field_weight_table(
    field: FiniteField, j_min: int = DEFAULT_J_MIN, j_max: int = DEFAULT_J_MAX
) -> WeightTable:
    """Spec F_q: rationally just the class of the point, degree 0, weight 0."""
    entries: dict[tuple[int, int], int] = {}
    if j_min <= 0 <= j_max:
        entries[(0, 0)] = 1
    return WeightTable(entries, j_min, j_max)


def _base_weight_table(base: BaseField, j_min: int, j_max: int) -> WeightTable:
    if isinstance(base, NumberField):
        return borel_weight_table(base, j_min, j_max)
    return finite_field_weight_table(base, j_min, j_max)


def weight_table_of(
    x: CellsOrScheme, j_min: int = DEFAULT_J_MIN, j_max: int = DEFAULT_J_MAX
) -> WeightTable:
    """Weight table of a scheme or signed cell class: the signed sum over
    its cells of the base table shifted up by the cell dimension."""
    entries: dict[tuple[int, int], int] = {}
    for s in _as_cells(x):
        base = _base_weight_table(s.base, j_min - s.shift, j_max - s.shift)
        for (m, j), dim in base.items():
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
    """chi(k) = sum_m (-1)^(m+1) dim(m, k) on the table's window."""
    acc: dict[int, int] = {}
    for (m, j), dim in table.items():
        acc[j] = acc.get(j, 0) + ((-1) ** (m + 1)) * dim
    values = tuple((j, v) for j, v in sorted(acc.items()) if v)
    return ChiFunction(values, table.j_min, table.j_max)
