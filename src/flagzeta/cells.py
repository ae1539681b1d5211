"""Scheme expressions, Gaussian q-multinomials, and cell decompositions.

A scheme here is a tree built from base points by affine-space shifts,
projective-space bundles, Grassmannian bundles, flag bundles, and
disjoint unions.  The one leaf, ``BasePoint``, takes any kind of base
(Spec of a ring of integers or of a finite field); the rules that depend
on the kind live in ``fields`` (L-side) and ``weights`` (ranks).  Every
node admits a decomposition into affine cells over its base, and that
decomposition is the single piece of data both the K-theory side and the
L-function side consume: a signed multiset of (base, dimension shift)
pairs, ``CellDecomposition``.  Read as a product of shifted base zeta
functions it is also the L-function of the scheme, with its vanishing
order at each integer.

The number of d-dimensional cells of a flag bundle of type
N = (n_1, ..., n_l) is the coefficient of q^d in the Gaussian
multinomial [n; n_1, ..., n_l]_q, which this module computes exactly and
cross-checks against literal enumeration of nested subspaces of F_q^n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

from .fields import (
    BaseField,
    FiniteField,
    base_sort_key,
    finite_field,
    ord_at_integer,
)

__all__ = [
    "QPolynomial",
    "gaussian_binomial",
    "gaussian_multinomial",
    "SchemeExpr",
    "BasePoint",
    "Affine",
    "ProjBundle",
    "Grassmannian",
    "FlagBundle",
    "DisjointUnion",
    "Stratum",
    "CellDecomposition",
    "cells_of",
    "point_count",
    "brute_force_flag_count",
    "flag_as_grassmannian_tower",
]


# Size bounds, checked before any polynomial or stratum list is built:
# the degree of one proj/grass/flag node's cell polynomial, and the strata
# one convolution may produce before they are merged.
MAX_CELL_DEGREE = 4096
MAX_CONVOLUTION_STRATA = 250_000


# -- polynomials in q ------------------------------------------------------


@dataclass(frozen=True)
class QPolynomial:
    """A polynomial in q with non-negative integer coefficients.

    Trailing zeros are stripped so equal polynomials compare equal.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        cs = tuple(self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        if any(c < 0 for c in cs):
            raise ValueError("cell counts cannot be negative")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not self.coeffs or not other.coeffs:
            return QPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(tuple(out))

    def __call__(self, q: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * q + c
        return out

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("q" if c == 1 else f"{c}*q")
            else:
                parts.append(f"q^{i}" if c == 1 else f"{c}*q^{i}")
        return " + ".join(parts) if parts else "0"


ONE = QPolynomial((1,))


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> QPolynomial:
    """The Gaussian binomial [n choose k]_q via the q-Pascal recurrence

        [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q,

    which stays in integer coefficients (no polynomial division).  The
    triangle is built row by row, so the depth of the computation does
    not grow with n.
    """
    if k < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if k > n:
        return QPolynomial(())
    k = min(k, n - k)  # [n k]_q = [n n-k]_q: the shorter rows
    # row[j] holds the coefficients of [i+j choose j]_q, starting at i = 0
    row = [[1]] * (k + 1)
    for _ in range(n - k):
        new = [[1]]
        for j in range(1, k + 1):
            out = new[j - 1] + [0] * (j + len(row[j]) - len(new[j - 1]))
            for e, c in enumerate(row[j], j):
                out[e] += c
            new.append(out)
        row = new
    return QPolynomial(tuple(row[k]))


def gaussian_multinomial(n: int, parts: Sequence[int]) -> QPolynomial:
    """[n; n_1, ..., n_l]_q as the telescoping product of Gaussian binomials

        prod_i [n - n_1 - ... - n_{i-1} choose n_i]_q.

    The coefficient of q^d counts the d-dimensional cells of the variety
    of flags of type (n_1, ..., n_l); the total degree is
    (n^2 - sum n_i^2) / 2 and the coefficient sequence is palindromic.
    """
    parts = tuple(parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("flag type must be a non-empty tuple of positive parts")
    if sum(parts) != n:
        raise ValueError(f"flag type {parts} does not sum to {n}")
    out = ONE
    remaining = n
    for p in parts:
        out = out * gaussian_binomial(remaining, p)
        remaining -= p
    return out


# -- scheme expressions -----------------------------------------------------


class SchemeExpr:
    """Base class for scheme expressions; all nodes are frozen dataclasses."""

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError


@dataclass(frozen=True)
class BasePoint(SchemeExpr):
    """Spec of a base: the ring of integers of a number field, or a finite field."""

    field: BaseField

    def __str__(self) -> str:
        return self.field.label


@dataclass(frozen=True)
class Affine(SchemeExpr):
    """Affine space of relative dimension d over the child."""

    child: SchemeExpr
    d: int

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError("affine dimension must be >= 0")

    def __str__(self) -> str:
        return f"affine({self.child}, {self.d})"


@dataclass(frozen=True)
class ProjBundle(SchemeExpr):
    """Projective space of relative dimension d (a rank d+1 bundle) over the child."""

    child: SchemeExpr
    d: int

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError("projective dimension must be >= 0")

    def __str__(self) -> str:
        return f"proj({self.child}, {self.d})"


@dataclass(frozen=True)
class Grassmannian(SchemeExpr):
    """Grassmannian bundle of k-planes in a rank-n bundle over the child."""

    child: SchemeExpr
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.k < 0:
            raise ValueError("Grassmannian indices must be >= 0")
        if self.k > self.n:
            raise ValueError(
                f"cannot take {self.k}-planes inside rank {self.n}"
            )

    def __str__(self) -> str:
        return f"grass({self.child}, {self.k}, {self.n})"


@dataclass(frozen=True)
class FlagBundle(SchemeExpr):
    """Flag bundle of type (n_1, ..., n_l) in a bundle of rank sum(n_i)."""

    child: SchemeExpr
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError("flag type must list positive block sizes")

    @property
    def rank(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return f"flag({self.child}, {'+'.join(str(p) for p in self.parts)})"


@dataclass(frozen=True)
class DisjointUnion(SchemeExpr):
    children: tuple[SchemeExpr, ...]

    def __post_init__(self) -> None:
        children = tuple(self.children)
        object.__setattr__(self, "children", children)
        if len(children) < 2:
            raise ValueError("a union needs at least two components")

    def __str__(self) -> str:
        return f"union({', '.join(str(c) for c in self.children)})"


# -- cell decompositions ------------------------------------------------------


@dataclass(frozen=True)
class Stratum:
    """multiplicity copies of an affine cell of dimension shift over base.

    The multiplicity is any nonzero integer: a negative one subtracts the
    cell, as open covers and excision do.
    """

    base: BaseField
    shift: int
    multiplicity: int

    def __post_init__(self) -> None:
        if self.shift < 0:
            raise ValueError("cell dimension must be >= 0")
        if self.multiplicity == 0:
            raise ValueError("multiplicity must be nonzero")

    def __str__(self) -> str:
        """The cell's L-factor L_base(s - shift)^multiplicity."""
        arg = f"s-{self.shift}" if self.shift else "s"
        body = f"L({self.base.label}, {arg})"
        return body if self.multiplicity == 1 else f"{body}^{self.multiplicity}"


@dataclass(frozen=True)
class CellDecomposition:
    """A class in the Grothendieck group spanned by the cells [base x A^d].

    The constructor puts the strata in canonical form: sorted by base
    then shift, multiplicities merged, zero sums dropped; so equal
    classes compare equal however they were built.

    A cell of dimension d over a base contributes L_base(s - d) to the
    L-function, so the same class is the finite product

        L(X, s) = prod L_base(s - shift)^multiplicity,

    and it is spelled multiplicatively: ``*`` adds classes (multiplies
    L-functions), ``/`` and ``inverse`` subtract them, ``one`` is the
    empty class, ``ord_at`` is the vanishing order of the product and
    ``str`` prints it.
    """

    strata: tuple[Stratum, ...]

    def __post_init__(self) -> None:
        strata = tuple(self.strata)
        keys = [(base_sort_key(s.base), s.shift) for s in strata]
        # Strictly increasing keys are already canonical: one linear pass.
        if any(a >= b for a, b in zip(keys, keys[1:])):
            counts: dict[tuple, int] = {}
            bases: dict[tuple, BaseField] = {}
            for key, s in zip(keys, strata):
                counts[key] = counts.get(key, 0) + s.multiplicity
                bases[key] = s.base
            strata = tuple(
                Stratum(bases[key], key[1], counts[key])
                for key in sorted(counts)
                if counts[key]
            )
        object.__setattr__(self, "strata", strata)

    @classmethod
    def build(cls, raw: Iterable[Stratum]) -> "CellDecomposition":
        return cls(tuple(raw))

    @classmethod
    def one(cls) -> "CellDecomposition":
        return cls(())

    @classmethod
    def from_cover(
        cls, parts: Mapping[Iterable[int], "CellsOrScheme"]
    ) -> "CellDecomposition":
        """The class of X = U_1 u ... u U_s by inclusion-exclusion.

        ``parts`` maps each non-empty subset I of {1, ..., s} to the class
        (or scheme) of the intersection U_I of the U_i, i in I; the result
        is the sum over I of (-1)^(|I|+1) [U_I].  Every subset must be
        present (intersections may repeat, e.g. equal opens).
        """
        normalized: dict[frozenset[int], CellDecomposition] = {}
        for key, part in parts.items():
            idx = frozenset(int(i) for i in key)
            if not idx:
                raise ValueError("cover subsets must be non-empty")
            if idx in normalized:
                raise ValueError(f"duplicate cover subset {sorted(idx)}")
            normalized[idx] = _as_cells(part)
        indices = sorted(set().union(*normalized))
        if indices != list(range(1, len(indices) + 1)):
            raise ValueError("cover opens must be numbered 1..s")
        result = cls.one()
        for size in range(1, len(indices) + 1):
            for combo in itertools.combinations(indices, size):
                key = frozenset(combo)
                if key not in normalized:
                    raise ValueError(f"missing intersection for subset {sorted(key)}")
                part = normalized[key]
                result = result * part if size % 2 == 1 else result / part
        return result

    @property
    def factors(self) -> tuple[Stratum, ...]:
        """The strata read as the factors of L(X, s)."""
        return self.strata

    def __mul__(self, other: "CellDecomposition") -> "CellDecomposition":
        return CellDecomposition.build(self.strata + other.strata)

    def inverse(self) -> "CellDecomposition":
        return CellDecomposition(
            tuple(Stratum(s.base, s.shift, -s.multiplicity) for s in self.strata)
        )

    def __truediv__(self, other: "CellDecomposition") -> "CellDecomposition":
        return self * other.inverse()

    def ord_at(self, k: int) -> int:
        """Exact vanishing order of L(X, s) at s = k (negative at a pole):
        the signed sum of the base orders at k - shift."""
        total = 0
        for s in self.strata:
            total += s.multiplicity * ord_at_integer(s.base, k - s.shift)
        return total

    def shifted(self, d: int) -> "CellDecomposition":
        return CellDecomposition(
            tuple(Stratum(s.base, s.shift + d, s.multiplicity) for s in self.strata)
        )

    def convolved(self, poly: QPolynomial) -> "CellDecomposition":
        """Multiply by a cell-count polynomial: each coefficient c_e adds
        c_e copies of every stratum shifted by e."""
        size = len(self.strata) * sum(1 for c in poly.coeffs if c)
        if size > MAX_CONVOLUTION_STRATA:
            raise ValueError(
                f"a convolution of {size} strata is above the bound "
                f"MAX_CONVOLUTION_STRATA = {MAX_CONVOLUTION_STRATA}"
            )
        out = []
        for e, c in enumerate(poly.coeffs):
            if c == 0:
                continue
            for s in self.strata:
                out.append(Stratum(s.base, s.shift + e, s.multiplicity * c))
        return CellDecomposition.build(out)

    @property
    def total_multiplicity(self) -> int:
        return sum(s.multiplicity for s in self.strata)

    def max_shift(self) -> int:
        return max((s.shift for s in self.strata), default=0)

    def __iter__(self):
        return iter(self.strata)

    def __str__(self) -> str:
        return " * ".join(str(s) for s in self.strata) or "1"


def cells_of(x: SchemeExpr) -> CellDecomposition:
    """The canonical cell decomposition of a scheme expression.

    Composition rules: an affine shift raises every cell dimension by d; a
    projective bundle of dimension d replaces each cell by d+1 copies at
    shifts 0..d; Grassmannian and flag bundles convolve with the Gaussian
    binomial/multinomial coefficient polynomial; a union concatenates.
    """
    if isinstance(x, BasePoint):
        return CellDecomposition((Stratum(x.field, 0, 1),))
    if isinstance(x, Affine):
        return cells_of(x.child).shifted(x.d)
    if isinstance(x, ProjBundle):
        _check_cell_degree("proj", x.d)
        return cells_of(x.child).convolved(QPolynomial((1,) * (x.d + 1)))
    if isinstance(x, Grassmannian):
        _check_cell_degree("grass", x.k * (x.n - x.k))
        return cells_of(x.child).convolved(gaussian_binomial(x.n, x.k))
    if isinstance(x, FlagBundle):
        _check_cell_degree("flag", (x.rank**2 - sum(p * p for p in x.parts)) // 2)
        return cells_of(x.child).convolved(
            gaussian_multinomial(x.rank, x.parts)
        )
    if isinstance(x, DisjointUnion):
        out: list[Stratum] = []
        for c in x.children:
            out.extend(cells_of(c).strata)
        return CellDecomposition.build(out)
    raise TypeError(f"not a scheme expression: {x!r}")


def _check_cell_degree(kind: str, degree: int) -> None:
    if degree > MAX_CELL_DEGREE:
        raise ValueError(
            f"{kind} node: cell polynomial degree {degree} is above the bound "
            f"MAX_CELL_DEGREE = {MAX_CELL_DEGREE}"
        )


CellsOrScheme = Union[CellDecomposition, SchemeExpr]


def _as_cells(x: CellsOrScheme) -> CellDecomposition:
    return x if isinstance(x, CellDecomposition) else cells_of(x)


def flag_as_grassmannian_tower(child: SchemeExpr, parts: Sequence[int]) -> SchemeExpr:
    """The flag bundle rebuilt as an iterated Grassmannian tower.

    Choosing the flag one step at a time, W_1 inside the full bundle, then
    the next block inside the quotient, multiplies the cell polynomials;
    this is kept as an independent construction path for cross-checking
    cells_of.
    """
    parts = FlagBundle(child, parts).parts  # validates the flag type
    expr = child
    remaining = sum(parts)
    for p in parts[:-1]:
        expr = Grassmannian(expr, p, remaining)
        remaining -= p
    return expr


def point_count(x: CellsOrScheme, r: int) -> int:
    """Number of points of x over the degree-r extension of each cell's base.

    Each cell of dimension d over F_q contributes (q^r)^d.  Any number
    field base makes the count meaningless and is rejected.
    """
    if r < 1:
        raise ValueError("extension degree r must be >= 1")
    total = 0
    for s in _as_cells(x):
        if not isinstance(s.base, FiniteField):
            raise ValueError(
                f"point counting needs finite-field bases, found {s.base}"
            )
        total += s.multiplicity * (s.base.q**r) ** s.shift
    return total


# -- brute-force flag enumeration over small finite fields ---------------------


@lru_cache(maxsize=None)
def _gf_tables(q: int) -> tuple[tuple, tuple, tuple[int, ...], tuple[int, ...]]:
    """(add, mul, inv, neg) tables for F_q, elements encoded as 0..q-1.

    Prime q is modular arithmetic.  For q = p^f the element i encodes the
    base-p digit vector of a polynomial over F_p, reduced modulo a monic
    irreducible of degree f found by search (degree 2 and 3 polynomials
    are irreducible exactly when they have no roots).
    """
    field = finite_field(q)
    p, f = field.p, field.f
    if f == 1:
        add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
        mul = tuple(tuple((a * b) % q for b in range(q)) for a in range(q))
    else:
        if f > 3:
            raise ValueError("finite fields beyond cubic extensions not needed here")

        def digits(x: int) -> list[int]:
            out = []
            for _ in range(f + 1):
                out.append(x % p)
                x //= p
            return out

        def undigits(ds: Sequence[int]) -> int:
            out = 0
            for d in reversed(ds):
                out = out * p + d
            return out

        def poly_eval(ds: Sequence[int], x: int) -> int:
            out = 0
            for d in reversed(ds):
                out = (out * x + d) % p
            return out

        # monic x^f + lower, no roots in F_p => irreducible for f in {2, 3}
        modulus = None
        for lower in range(p**f):
            ds = digits(lower)[:f] + [1]
            if all(poly_eval(ds, x) != 0 for x in range(p)):
                modulus = ds
                break
        assert modulus is not None

        def reduce_poly(ds: list[int]) -> list[int]:
            ds = ds[:]
            for i in range(len(ds) - 1, f - 1, -1):
                c = ds[i]
                if c:
                    ds[i] = 0
                    for j in range(f + 1):
                        ds[i - f + j] = (ds[i - f + j] - c * modulus[j]) % p
            return ds[:f]

        def mul_elems(a: int, b: int) -> int:
            da, db = digits(a)[:f], digits(b)[:f]
            prod = [0] * (2 * f)
            for i, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
            return undigits(reduce_poly(prod))

        add = tuple(
            tuple(
                undigits([(x + y) % p for x, y in zip(digits(a)[:f], digits(b)[:f])])
                for b in range(q)
            )
            for a in range(q)
        )
        mul = tuple(tuple(mul_elems(a, b) for b in range(q)) for a in range(q))
    inv = [0] * q
    for a in range(1, q):
        inv[a] = next(b for b in range(1, q) if mul[a][b] == 1)
    neg = tuple(add[a].index(0) for a in range(q))
    return add, mul, tuple(inv), neg


def _rref(rows: Sequence[Sequence[int]], q: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon form over F_q; zero rows dropped."""
    add, mul, inv, neg = _gf_tables(q)
    mat = [list(r) for r in rows]
    n = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(n):
        sel = next(
            (r for r in range(pivot_row, len(mat)) if mat[r][col] != 0), None
        )
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        scale = inv[mat[pivot_row][col]]
        if scale != 1:
            mat[pivot_row] = [mul[scale][x] for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                minus_c = neg[mat[r][col]]
                mat[r] = [
                    add[x][mul[minus_c][y]] for x, y in zip(mat[r], mat[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))


@lru_cache(maxsize=None)
def _all_subspaces(q: int, n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every k-dimensional subspace of F_q^n, as its unique RREF basis.

    Enumeration is by pivot-column pattern: row i has a 1 in its pivot,
    zeros under and left of it and in the pivot columns of later rows,
    and arbitrary field entries elsewhere.
    """
    if k == 0:
        return ((),)
    out = []
    for pivots in itertools.combinations(range(n), k):
        free_cells = []
        for i, pc in enumerate(pivots):
            for col in range(pc + 1, n):
                if col not in pivots:
                    free_cells.append((i, col))
        base = [[0] * n for _ in range(k)]
        for i, pc in enumerate(pivots):
            base[i][pc] = 1
        for values in itertools.product(range(q), repeat=len(free_cells)):
            rows = [row[:] for row in base]
            for (i, col), v in zip(free_cells, values):
                rows[i][col] = v
            out.append(tuple(tuple(r) for r in rows))
    return tuple(out)


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], q: int):
    add, mul, _, _ = _gf_tables(q)
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                mx = mul[x]
                acc = [add[t][mx[y]] for t, y in zip(acc, brow)]
        out.append(acc)
    return out


@lru_cache(maxsize=None)
def _chain_counts(q: int, n: int, dims: tuple[int, ...]):
    """dict: subspace (RREF rows) of dim dims[-1] -> number of chains
    0 < W_1 < ... ending at it with the given dimension profile."""
    if len(dims) == 1:
        return {w: 1 for w in _all_subspaces(q, n, dims[0])}
    prev = _chain_counts(q, n, dims[:-1])
    a, b = dims[-2], dims[-1]
    inner = _all_subspaces(q, b, a)
    out = {}
    for w in _all_subspaces(q, n, b):
        total = 0
        for m in inner:
            sub = _rref(_mat_mul(m, w, q), q)
            total += prev[sub]
        out[w] = total
    return out


def brute_force_flag_count(parts: Sequence[int], q: int, n: int) -> int:
    """Count flags of type (n_1, ..., n_l) in F_q^n by explicit enumeration.

    Subspaces are listed as reduced row-echelon bases and nested chains
    are counted directly, with no appeal to the product formula.  Refused
    when q^n exceeds 3000, the point at which enumeration stops being a
    sensible oracle.
    """
    parts = tuple(parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("flag type must list positive block sizes")
    if sum(parts) != n:
        raise ValueError(f"flag type {parts} does not sum to {n}")
    if q**n > 3000:
        raise ValueError(
            f"enumeration bound exceeded: q^n = {q**n} > 3000"
        )
    _gf_tables(q)  # validates q is a prime power we can handle
    dims = tuple(itertools.accumulate(parts))[:-1]
    if not dims:
        return 1
    return sum(_chain_counts(q, n, dims).values())
