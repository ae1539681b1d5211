"""Scheme expressions, Gaussian q-multinomials, and cell decompositions.

A scheme here is a tree built from base points by affine-space shifts,
projective-space bundles, Grassmannian bundles, flag bundles, and
disjoint unions.  The one leaf, ``BasePoint``, takes any kind of base
(Spec of a ring of integers or of a finite field); the rules that depend
on the kind live in ``fields`` (L-side) and ``weights`` (ranks).  Each
constructor is one class, listed in ``_CONSTRUCTORS``: its ``syntax``
row is its grammar, which the parser and ``str`` read, and its
``cell_rule`` builds its class from its children's, which ``cells_of``
calls.  Every node admits a decomposition into affine cells over its
base, and that decomposition is the single piece of data both the
K-theory side and the L-function side consume: ``CellDecomposition``,
one integer polynomial per base counting its signed cells by dimension.
Read as a product of shifted base zeta functions it is also the
L-function of the scheme, with its vanishing order at each integer.

The number of d-dimensional cells of a flag bundle of type
N = (n_1, ..., n_l) is the coefficient of q^d in the Gaussian
multinomial [n; n_1, ..., n_l]_q; a projective bundle is the flag type
(1, d) and a Grassmannian bundle (k, n - k).  This module builds that
polynomial exactly as a product of quotients (1 - q^a) / (1 - q^b) of
integer polynomials, and cross-checks it against literal enumeration of
nested subspaces of F_q^n.

The enumerator, ``brute_force_flag_count``, never reads that polynomial.
It lists every subspace of F_q^n, q = p^f, as its RREF basis, one int
per row: the f base-p digits of each entry sit in slots of s + 1 bits,
s = (2p - 2).bit_length(), so two vectors add slot by slot in one
integer addition, and one biased shift and mask reduce every slot mod p
at once (``_packing``).  The a-subspaces of a b-subspace W are the
products M·W over the RREF a x b matrices M.  Each distinct row of the
M's is its parent plus one F_p-basis vector x^d w_col of W's span, so
per W it costs one packed addition; the M's are stored as columns of
row indices (``_row_plan``), so the products are gathered by ``zip`` and
``map``, with no Python-level loop per product.  Each step a < b is
formed once per (q, n), as the positions of every W's a-subspaces
(``_incidence``), and every flag type through that step sums its chain
counts over them.

Every operation on a class goes from canonical polynomials to canonical
polynomials.  A shift or a sign flip maps each term in place; a union or
a product adds per base, and only a base that two operands share has its
terms merged; a bundle convolves.  No operation reads the class back
term by term: ``CellDecomposition.strata``, its (base, shift,
multiplicity) triples, is built only when read.

A bundle node multiplies each base's polynomial by its cell polynomial
P by Kronecker substitution (``CellDecomposition.convolved``), one
big-integer product per base: the terms are cut into runs wherever a
gap exceeds deg P, and the runs are laid out with room for their
products, so the products never overlap.  The layout and P are
evaluated at q = 2^(8 width), one signed coefficient per slot of width
bytes, and multiplied; the product's slots, biased by 2^(8 width - 1)
so negative coefficients decode exactly, are read back in shift order
with nothing left to merge.  A ``QPolynomial`` is its own slots, at the
narrowest width that holds its coefficients, and widens to the
product's width with zero bytes.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .fields import BaseField, base_sort_key, finite_field

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
    "CellDecomposition",
    "cells_of",
    "point_count",
    "brute_force_flag_count",
]


# Size bounds, checked before any polynomial or stratum list is built:
# the degree of one cell polynomial (a proj/grass/flag node's, or a
# Gaussian binomial's or multinomial's), and the terms (base, shift) of
# a class times the degree + 1 of the polynomial it is convolved with,
# which bounds the slots of the product.  A cell polynomial has no zero
# coefficient up to its degree, so that count is the terms its
# convolution produces before they are merged.
MAX_CELL_DEGREE = 4096
MAX_CONVOLUTION_STRATA = 250_000


# -- polynomials in q ------------------------------------------------------


@dataclass(frozen=True, init=False, repr=False)
class QPolynomial:
    """A polynomial in q with non-negative integer coefficients.

    It is kept as its Kronecker slots: ``raw`` holds the coefficients,
    lowest first and trailing zeros stripped, as little-endian signed
    slots of ``width`` bytes, the narrowest power of two whose slots hold
    the largest (``_slots``, ``_slot_width``).  Equal polynomials have
    equal fields, so they compare and hash equal.  Negative coefficients
    are refused: cell counts are never negative, and ``packed_in`` widens
    a slot with zero bytes, which is exact only for a non-negative one.
    """

    raw: bytes
    width: int

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if cs and min(cs) < 0:
            raise ValueError("cell counts cannot be negative")
        width = _slot_width(max(cs, default=0))
        object.__setattr__(self, "raw", _slots(cs, width))
        object.__setattr__(self, "width", width)

    @property
    def degree(self) -> int:
        """The top exponent, -1 for the zero polynomial."""
        return len(self.raw) // self.width - 1

    @cached_property
    def total(self) -> int:
        """The sum of the coefficients, the value at q = 1."""
        return sum(_unslots(self.raw, self.width))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(_unslots(self.raw, self.width))

    def packed_in(self, width: int) -> int:
        """The value at q = 2^(8 width), for a width of at least
        ``self.width``: ``raw`` as an integer, each slot widened by zero
        bytes, since no coefficient is negative."""
        raw, own = self.raw, self.width
        if width > own:
            out = bytearray(width * (len(raw) // own))
            for j in range(own):
                out[j::width] = raw[j::own]
            raw = out
        return int.from_bytes(raw, "little")

    def __repr__(self) -> str:
        return f"QPolynomial({self.coeffs!r})"

    def __call__(self, q: int) -> int:
        out = 0
        for c in reversed(_unslots(self.raw, self.width)):
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


@lru_cache(maxsize=None)
def _cell_polynomial(parts: tuple[int, ...]) -> QPolynomial:
    """[n; n_1, ..., n_l]_q for n = sum n_i; blocks of size 0 are allowed.

    A degree (n^2 - sum n_i^2) / 2 above MAX_CELL_DEGREE is refused
    before any work.  The blocks are split off the rank m still left in
    turn, each contributing

        [m choose k]_q = prod_{i=1}^{k} (1 - q^(m-k+i)) / (1 - q^i),

    with k = min(p, m - p) for a block of size p.  Each factor is one
    integer pass that multiplies by 1 - q^(m-k+i) and one that divides by
    1 - q^i, a running sum along every residue class mod i.  Each partial
    product is a product of Gaussian binomials, so every division is exact.
    """
    n = sum(parts)
    degree = (n * n - sum(p * p for p in parts)) // 2
    if degree > MAX_CELL_DEGREE:
        raise ValueError(
            f"flag type {parts}: cell polynomial degree {degree} is above "
            f"the bound MAX_CELL_DEGREE = {MAX_CELL_DEGREE}"
        )
    cs = [1]
    m = n
    for p in parts:
        k = min(p, m - p)
        for i in range(1, k + 1):
            pad = [0] * (m - k + i)
            cs = [x - y for x, y in zip(cs + pad, pad + cs)]
            for r in range(i):
                cs[r::i] = itertools.accumulate(cs[r::i])
            del cs[len(cs) - i:]  # the quotient's top, all zeros
        m -= p
    return QPolynomial(cs)


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> QPolynomial:
    """The Gaussian binomial [n choose k]_q, the cell polynomial of flag
    type (k, n - k); zero when k > n."""
    if k < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if k > n:
        return QPolynomial(())
    return _cell_polynomial((k, n - k))


def _flag_type(parts: Sequence[int], n: Optional[int] = None) -> tuple[int, ...]:
    """The flag type as a tuple, refused unless its blocks are positive and,
    when n is given, sum to n."""
    parts = tuple(parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"flag type {parts} must list positive block sizes")
    if n is not None and sum(parts) != n:
        raise ValueError(f"flag type {parts} does not sum to {n}")
    return parts


def gaussian_multinomial(n: int, parts: Sequence[int]) -> QPolynomial:
    """[n; n_1, ..., n_l]_q, the cell polynomial of the flag type.

    The coefficient of q^d counts the d-dimensional cells of the variety
    of flags of type (n_1, ..., n_l); the total degree is
    (n^2 - sum n_i^2) / 2 and the coefficient sequence is palindromic.
    """
    return _cell_polynomial(_flag_type(parts, n))


# -- scheme expressions -----------------------------------------------------


class SchemeExpr:
    """Base class for scheme expressions; all nodes are frozen dataclasses.

    A constructor node is one class.  Its grammar is its ``syntax`` row:
    the keyword, then one argument kind per dataclass field declared on
    the class itself, in order.
    "expr" is a scheme expression, "int" an integer, and a kind followed
    by a separator ("int+", "expr,") one or more of that kind joined by
    it, held as one tuple.  The parser reads the row (``parse._CTORS``),
    and so does ``str``, which re-emits the grammar.  Its cell rule is
    ``cell_rule``, the node's class built from its children's, which
    ``cells_of`` calls once per node.  ``syntax`` is a plain class
    attribute, not a field, so ``==``, ``hash`` and ``repr`` never read
    it.  A new constructor is one such class, listed in ``_CONSTRUCTORS``.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        # read the row once per class: each field's name, and the string
        # that ``str`` joins its items with if it is a repeated argument
        super().__init_subclass__(**kwargs)
        if "syntax" in vars(cls):
            seps = [_SPELLED_SEPARATORS.get(kind[-1]) for kind in cls.syntax[1:]]
            cls._spelling = tuple(zip(cls.__annotations__, seps))

    def __str__(self) -> str:
        args = []
        for name, sep in self._spelling:
            value = getattr(self, name)
            args.append(sep.join(map(str, value)) if sep else str(value))
        return f"{self.syntax[0]}({', '.join(args)})"


# how ``str`` spells each separator of a repeated argument
_SPELLED_SEPARATORS = {"+": "+", ",": ", "}


@dataclass(frozen=True)
class BasePoint(SchemeExpr):
    """Spec of a base: the ring of integers of a number field, or a finite field."""

    field: BaseField

    def __str__(self) -> str:
        return self.field.label

    def cell_rule(self) -> "CellDecomposition":
        """One cell of dimension 0 over the base."""
        return CellDecomposition._canonical(((self.field, ((0, 1),)),))


@dataclass(frozen=True)
class Affine(SchemeExpr):
    """Affine space of relative dimension d over the child."""

    child: SchemeExpr
    d: int
    syntax = ("affine", "expr", "int")

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError("affine dimension must be >= 0")

    def cell_rule(self) -> "CellDecomposition":
        """Every cell dimension raised by d."""
        return cells_of(self.child).shifted(self.d)


class _Bundle(SchemeExpr):
    """A node read as a flag bundle of type ``parts`` over its child."""

    def cell_rule(self) -> "CellDecomposition":
        """Each base's polynomial times the Gaussian multinomial of ``parts``."""
        return cells_of(self.child).convolved(_cell_polynomial(self.parts))


@dataclass(frozen=True)
class ProjBundle(_Bundle):
    """Projective space of relative dimension d (a rank d+1 bundle) over the child."""

    child: SchemeExpr
    d: int
    syntax = ("proj", "expr", "int")

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError("projective dimension must be >= 0")

    @property
    def parts(self) -> tuple[int, int]:
        """Read as the flag bundle of lines in rank d+1."""
        return (1, self.d)


@dataclass(frozen=True)
class Grassmannian(_Bundle):
    """Grassmannian bundle of k-planes in a rank-n bundle over the child."""

    child: SchemeExpr
    k: int
    n: int
    syntax = ("grass", "expr", "int", "int")

    def __post_init__(self) -> None:
        if self.n < 0 or self.k < 0:
            raise ValueError("Grassmannian indices must be >= 0")
        if self.k > self.n:
            raise ValueError(
                f"cannot take {self.k}-planes inside rank {self.n}"
            )

    @property
    def parts(self) -> tuple[int, int]:
        """Read as the flag bundle of type (k, n - k)."""
        return (self.k, self.n - self.k)


@dataclass(frozen=True)
class FlagBundle(_Bundle):
    """Flag bundle of type (n_1, ..., n_l) in a bundle of rank sum(n_i)."""

    child: SchemeExpr
    parts: tuple[int, ...]
    syntax = ("flag", "expr", "int+")

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", _flag_type(self.parts))


@dataclass(frozen=True)
class DisjointUnion(SchemeExpr):
    children: tuple[SchemeExpr, ...]
    syntax = ("union", "expr,")

    def __post_init__(self) -> None:
        children = tuple(self.children)
        object.__setattr__(self, "children", children)
        if len(children) < 2:
            raise ValueError("a union needs at least two components")

    def cell_rule(self) -> "CellDecomposition":
        """The sum of the children's classes."""
        return CellDecomposition._of(p for c in self.children for p in cells_of(c).polys)


# the grammar's constructors, whose syntax rows the parser's table is built from
_CONSTRUCTORS = (Affine, ProjBundle, Grassmannian, FlagBundle, DisjointUnion)


# -- Kronecker slots: integers read as signed fixed-width digits ----------------

_SWAP = sys.byteorder == "big"  # slots are little-endian whatever the machine
_SLOT_FORMATS = {array(f).itemsize: f for f in "bhiq"}  # signed machine ints


def _slot_width(bound: int) -> int:
    """The narrowest power-of-two byte width whose signed slots hold every
    integer of absolute value at most bound."""
    width = 1
    while 8 * width <= bound.bit_length():
        width *= 2
    return width


def _slots(values: Sequence[int], width: int) -> bytes:
    """values as little-endian two's-complement slots of width bytes,
    lowest first."""
    if fmt := _SLOT_FORMATS.get(width):
        out = array(fmt, values)
        if _SWAP:
            out.byteswap()
        return out.tobytes()
    return b"".join([v.to_bytes(width, "little", signed=True) for v in values])


def _unslots(raw: bytes, width: int) -> Sequence[int]:
    """The little-endian two's-complement slots of width bytes in raw,
    lowest first."""
    if fmt := _SLOT_FORMATS.get(width):
        if not _SWAP:
            return memoryview(raw).cast(fmt)
        out = array(fmt, raw)
        out.byteswap()
        return out
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, len(raw), width)]


# -- cell decompositions ------------------------------------------------------


def _factor(base: BaseField, shift: int, multiplicity: int) -> str:
    """A cell's L-factor L_base(s - shift)^multiplicity."""
    arg = f"s-{shift}" if shift else "s"
    body = f"L({base.label}, {arg})"
    return body if multiplicity == 1 else f"{body}^{multiplicity}"


@dataclass(frozen=True, init=False)
class CellDecomposition:
    """A class in the Grothendieck group spanned by the cells [base x A^d].

    It is one sparse integer polynomial per base: ``polys`` holds pairs
    (base, ((shift, multiplicity), ...)), each base once in
    ``fields.base_sort_key`` order, shifts increasing, no zero terms, so
    equal classes compare equal.  Each operation keeps that form: it
    builds its result through ``_canonical`` when it already is canonical
    (``shifted``, ``inverse``, ``convolved``), or through ``_of``, which
    merges only the bases its operands share (``*``, union,
    ``from_cover``).  The constructor takes (base, shift, multiplicity)
    triples in any order, a shift >= 0 and a nonzero multiplicity each,
    which may repeat and cancel; ``strata`` gives the terms back as such
    triples, so ``CellDecomposition(c.strata) == c``.

    A cell of dimension d over a base contributes L_base(s - d) to the
    L-function, so the same class is the finite product

        L(X, s) = prod L_base(s - shift)^multiplicity,

    and it is spelled multiplicatively: ``*`` adds classes (multiplies
    L-functions), ``/`` and ``inverse`` subtract them, ``one`` is the
    empty class, ``ord_at`` is the vanishing order of the product and
    ``str`` prints it.
    """

    polys: tuple[tuple[BaseField, tuple[tuple[int, int], ...]], ...]

    def __init__(self, strata: Iterable[tuple[BaseField, int, int]] = ()) -> None:
        pairs = []
        for base, shift, multiplicity in strata:
            if shift < 0:
                raise ValueError("cell dimension must be >= 0")
            if multiplicity == 0:
                raise ValueError("multiplicity must be nonzero")
            pairs.append((base, ((shift, multiplicity),)))
        object.__setattr__(self, "polys", self._of(pairs).polys)

    @classmethod
    def _of(cls, pairs) -> "CellDecomposition":
        """The sum of (base, terms) pairs, the bases in any order.

        Precondition: each pair's terms are already canonical, a tuple of
        (shift, multiplicity) with shifts strictly increasing and no zero
        multiplicity.  A base that one pair alone holds keeps that tuple
        as it is; only a base held by two or more pairs has its terms
        added by shift, sorted and its zero sums dropped.
        """
        by_base: dict[BaseField, list] = {}
        for base, terms in pairs:
            by_base.setdefault(base, []).append(terms)
        polys = []
        for base in sorted(by_base, key=base_sort_key):
            poly, *more = by_base[base]
            if more:
                acc = dict(poly)
                for terms in more:
                    for d, m in terms:
                        acc[d] = acc.get(d, 0) + m
                poly = tuple([term for term in sorted(acc.items()) if term[1]])
            if poly:
                polys.append((base, poly))
        return cls._canonical(polys)

    @classmethod
    def _canonical(cls, polys) -> "CellDecomposition":
        """The class whose ``polys`` are given, already in canonical form."""
        out = cls.__new__(cls)
        object.__setattr__(out, "polys", tuple(polys))
        return out

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
        pairs = []
        for size in range(1, len(indices) + 1):
            for combo in itertools.combinations(indices, size):
                key = frozenset(combo)
                if key not in normalized:
                    raise ValueError(f"missing intersection for subset {sorted(key)}")
                part = normalized[key]
                pairs += (part if size % 2 == 1 else part.inverse()).polys
        return cls._of(pairs)

    @cached_property
    def strata(self) -> tuple[tuple[BaseField, int, int], ...]:
        """One (base, shift, multiplicity) triple per term, sorted by base
        then shift."""
        return tuple((b, d, m) for b, poly in self.polys for d, m in poly)

    @property
    def factors(self) -> tuple[tuple[BaseField, int, int], ...]:
        """The strata read as the factors of L(X, s)."""
        return self.strata

    def __mul__(self, other: "CellDecomposition") -> "CellDecomposition":
        return self._of(self.polys + other.polys)

    def inverse(self) -> "CellDecomposition":
        return self._canonical(
            (b, tuple([(d, -m) for d, m in poly])) for b, poly in self.polys
        )

    def __truediv__(self, other: "CellDecomposition") -> "CellDecomposition":
        return self * other.inverse()

    def ord_at(self, k: int) -> int:
        """Exact vanishing order of L(X, s) at s = k (negative at a pole):
        the signed sum of the base orders at k - shift."""
        return self.ord_window(k, k)[k]

    def ord_window(self, lo: int, hi: int) -> dict[int, int]:
        """{k: ord_at(k)} for k = lo..hi, in O(terms + width) per base:
        ``_window_sums`` over each base's ``orders`` at t = 1, 0, -1, -2."""
        return _window_sums(self, lo, hi, attrgetter("orders"))

    def shifted(self, d: int) -> "CellDecomposition":
        if any(poly[0][0] + d < 0 for _, poly in self.polys):
            raise ValueError("cell dimension must be >= 0")
        return self._canonical(
            (b, tuple([(e + d, m) for e, m in poly])) for b, poly in self.polys
        )

    def convolved(self, poly: QPolynomial) -> "CellDecomposition":
        """Multiply each base's polynomial by a cell-count polynomial P: each
        coefficient c_e adds c_e copies of every term shifted by e.

        The product is one big-integer multiply per base, by Kronecker
        substitution.  The terms are cut into runs: two neighbours share a
        run when their gap is at most deg P, the only case in which their
        products can overlap.  Each run is laid out over its shifts plus
        deg P zero slots, room for its product, so the runs' products stay
        apart and in order.  The layout and P are read at q = 2^(8 width)
        as integers, one coefficient per slot of width bytes, multiplied
        once, and the product read back slot by slot, run by run.  No
        coefficient exceeds max|m| * P(1), and width is the narrowest power
        of two whose signed slots hold that bound.  A slot holds a signed
        coefficient as two's complement; with bias the integer that puts
        2^(8 width - 1) in every slot, each biased slot is non-negative and
        XOR with bias maps biased slots to two's complement and back, so
        (T ^ bias) - bias reads the signed slots T and (N + bias) ^ bias
        writes the product N.  A run of r terms fills at most
        r * (deg P + 1) slots, the count MAX_CONVOLUTION_STRATA bounds.
        """
        size = sum(len(own) for _, own in self.polys) * (poly.degree + 1)
        if size > MAX_CONVOLUTION_STRATA:
            raise ValueError(
                f"a convolution of {size} strata is above the bound "
                f"MAX_CONVOLUTION_STRATA = {MAX_CONVOLUTION_STRATA}"
            )
        if not poly.raw:
            return self.one()
        degree = poly.degree
        polys = []
        for base, own in self.polys:
            width = _slot_width(max(abs(m) for _, m in own) * poly.total)
            cuts = [i for i in range(1, len(own)) if own[i][0] - own[i - 1][0] > degree]
            layout, shifts = [], []  # shifts: per run, the shifts of its slots
            for lo, hi in zip([0, *cuts], [*cuts, len(own)]):
                first = own[lo][0]
                run = [0] * (own[hi - 1][0] - first + 1 + degree)
                for d, m in own[lo:hi]:
                    run[d - first] = m
                layout += run
                shifts.append(range(first, first + len(run)))
            slot = (1 << 8 * width - 1).to_bytes(width, "little")
            bias = int.from_bytes(slot * len(layout), "little")
            a = (int.from_bytes(_slots(layout, width), "little") ^ bias) - bias
            product = (a * poly.packed_in(width) + bias) ^ bias
            out = _unslots(product.to_bytes(width * len(layout), "little"), width)
            terms = zip(itertools.chain.from_iterable(shifts), out)
            polys.append((base, tuple([t for t in terms if t[1]])))
        return self._canonical(polys)

    def max_shift(self) -> int:
        return max((poly[-1][0] for _, poly in self.polys), default=0)

    def __str__(self) -> str:
        """The product of the terms' L-factors, read off ``polys``."""
        return " * ".join(_factor(b, d, m) for b, poly in self.polys for d, m in poly) or "1"


def cells_of(x: SchemeExpr) -> CellDecomposition:
    """The canonical cell decomposition of a scheme expression.

    Each node builds its class by its own ``cell_rule`` from its
    children's: an affine shift raises every cell dimension by d; a
    projective, Grassmannian or flag bundle, read as a flag type,
    multiplies each base's polynomial by its Gaussian multinomial; a union
    adds them.

    The class is built once per node.  A node is frozen, so its class
    never changes: it is kept in the node's ``__dict__``, outside the
    dataclass fields that ``==``, ``hash`` and ``repr`` read, and every
    later call on the node, or on a tree that holds it, is a lookup.  It
    lives as long as the node.  A build refused by a size bound keeps
    nothing, so the node is refused again.
    """
    if not isinstance(x, SchemeExpr):
        raise TypeError(f"not a scheme expression: {x!r}")
    memo = vars(x)
    if (cells := memo.get("_cells")) is None:
        cells = memo["_cells"] = x.cell_rule()
    return cells


CellsOrScheme = Union[CellDecomposition, SchemeExpr]


def _as_cells(x: CellsOrScheme) -> CellDecomposition:
    """x itself if it is a class, else the class ``cells_of`` built once
    for the node."""
    return x if isinstance(x, CellDecomposition) else cells_of(x)


def _window_sums(
    cells: CellDecomposition,
    lo: int,
    hi: int,
    rule: Callable[[BaseField], tuple[int, int, int, int]],
) -> dict[int, int]:
    """{k: sum of multiplicity * f(k - shift) over the terms} for k = lo..hi.

    f is a per-base function of t = k - shift that vanishes for t >= 2,
    has a head at t = 1 and t = 0, and below that a 2-periodic tail,
    f(t) = f(t - 2) for t <= -1; ``rule(base)`` gives its four values
    f(1), f(0), f(-1), f(-2).  Both sides of the identity have this shape.
    Each base's polynomial is read once: a term above hi enters one of
    two tail sums, split by the parity of its distance from hi, and a term
    inside the window is kept at its shift.  The walk then goes from
    k = hi down to lo: at each step down the two parities swap and the
    term at the old k joins the odd sum.  The cost is O(terms + width)
    per base, whatever the size of a shift.
    """
    width = hi - lo + 1
    out = [0] * width
    for base, poly in cells.polys:
        head1, head0, odd_tail, even_tail = rule(base)
        at = [0] * (width + 1)  # at[i]: the multiplicity at shift lo - 1 + i
        above = [0, 0]  # terms above hi, by the parity of shift - hi
        for shift, mult in poly:
            if shift > hi:
                above[(shift - hi) % 2] += mult
            elif shift >= lo - 1:
                at[shift - lo + 1] = mult
        even, odd = above
        for i in range(width, 0, -1):  # k = lo - 1 + i
            here = at[i]
            out[i - 1] += head1 * at[i - 1] + head0 * here + odd_tail * odd + even_tail * even
            even, odd = odd, even + here
    return dict(zip(range(lo, hi + 1), out))


def point_count(x: CellsOrScheme, r: int) -> int:
    """Number of points of x over the degree-r extension of each cell's base.

    Each cell of dimension d over F_q contributes (q^r)^d, so a base adds
    its cell polynomial evaluated at q^r: one power q^r per base, then
    Horner's rule over the terms from the top shift down, which raises
    q^r only to the gaps between shifts.  A base without a ``q``, a number
    field, makes the count meaningless and is rejected.  A scheme's class
    is built by its first ``cells_of`` call; a count for another r reads
    it back from the node.
    """
    if r < 1:
        raise ValueError("extension degree r must be >= 1")
    total = 0
    for base, poly in _as_cells(x).polys:
        if base.q is None:
            raise ValueError(f"point counting needs finite-field bases, found {base}")
        power = base.q**r
        value, shift = 0, poly[-1][0]
        for d, m in reversed(poly):
            value = value * power ** (shift - d) + m
            shift = d
        total += value * power**shift
    return total


# -- brute-force flag enumeration over small finite fields ---------------------


@lru_cache(maxsize=None)
def _packing(q: int, n: int) -> tuple[int, int, int, int, int]:
    """(p, f, s, bias, lows): how a vector of F_q^n, q = p^f, packs into
    one int.

    Entry c of the vector is f base-p digits, its element encoding (see
    ``_x_powers``), and digit j goes to slot c f + j, lowest first.  A
    slot is s + 1 bits with s = (2p - 2).bit_length(), so the sum of two
    digits, at most 2p - 2, fits in its low s bits.  ``lows`` has a 1 at
    the bottom of each of the n f slots and ``bias`` = (2^s - p) lows.  In
    t = u + v every slot holds a digit sum t_j <= 2p - 2; adding bias
    lifts it to t_j + 2^s - p < 2^(s + 1), with bit s set exactly when
    t_j >= p and no carry into the next slot, so

        t - (((t + bias) >> s) & lows) * p

    is u + v, reduced mod p slot by slot.  The same code serves p = 2.
    """
    field = finite_field(q)
    p, f = field.p, field.f
    s = (2 * p - 2).bit_length()
    lows = sum(1 << i * (s + 1) for i in range(n * f))
    return p, f, s, ((1 << s) - p) * lows, lows


def _pack(entries: Sequence[int], q: int) -> int:
    """The packed form of a vector of F_q^n given by its element codes."""
    p, f, s, _, _ = _packing(q, len(entries))
    out = 0
    for i, x in enumerate(entries):
        for j in range(i * f, i * f + f):
            out |= x % p << j * (s + 1)
            x //= p
    return out


@lru_cache(maxsize=None)
def _all_subspaces(q: int, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Every k-dimensional subspace of F_q^n, as its unique RREF basis,
    each row packed into one int by ``_packing``.

    Enumeration is by pivot-column pattern: row i has a 1 in its pivot,
    zeros under and left of it and in the pivot columns of later rows,
    and arbitrary field entries elsewhere.  Each row's choices are listed
    as packed ints, one sum per free entry, and a pattern's bases are
    their product.
    """
    if k == 0:
        return ((),)
    _, f, s, _, _ = _packing(q, n)
    entry_bits = f * (s + 1)
    entries = [_pack((x,), q) for x in range(q)]  # each at column 0
    out = []
    for pivots in itertools.combinations(range(n), k):
        rows = []
        for pc in pivots:
            row = [1 << pc * entry_bits]
            for col in range(pc + 1, n):
                if col not in pivots:
                    at_col = [e << col * entry_bits for e in entries]
                    row = [r + e for r in row for e in at_col]
            rows.append(row)
        out += itertools.product(*rows)
    return tuple(out)


@lru_cache(maxsize=None)
def _row_plan(q: int, b: int, a: int):
    """The RREF a x b matrices over F_q, written over their distinct rows.

    Returns (steps, columns).  Row 0 is the zero row; row j > 0 is
    steps[j - 1] = (parent, k), where k is the slot of the row's top
    nonzero digit: digit d = k mod f of its last nonzero entry, in column
    k div f.  The parent is the row with that digit lowered by one, so it
    always comes first, and as a vector over F_q the row is its parent
    plus x^d (the element p^d) in that column: basis vector k of
    ``_basis``.  ``columns`` holds the matrices transposed, one tuple per
    row position: columns[i] lists row i of every matrix, as indices, in
    ``_all_subspaces(q, b, a)`` order.  The matrices of one (q, b, a)
    share few distinct rows.
    """
    slot = _packing(q, b)[2] + 1
    index = {0: 0}
    steps = []

    def row_index(row: int) -> int:
        j = index.get(row)
        if j is None:
            k = (row.bit_length() - 1) // slot
            parent = row_index(row - (1 << k * slot))
            j = index[row] = len(index)
            steps.append((parent, k))
        return j

    columns = tuple(
        tuple(map(row_index, rows)) for rows in zip(*_all_subspaces(q, b, a))
    )
    return tuple(steps), columns


@lru_cache(maxsize=None)
def _x_powers(q: int) -> tuple[dict[int, int], ...]:
    """For each d < f, the map from a packed entry to x^d times it, both
    packed at column 0 (``_packing``).

    F_q is F_p[x] / (x^f + low(x)), where low is the first element, in
    the encoding order, for which x^f + low(x) has no root in F_p.  For
    f <= 3 that makes it irreducible: a factorisation would need a factor
    of degree 1, that is a root.  (Every x + c has a root; for f = 1 low
    is 0 and the one map is the identity.)  x times an entry shifts its f
    digits up one place and brings the top digit t back as -t low(x).
    """
    p, f, s, _, _ = _packing(q, 1)
    digits = [[i // p**j % p for j in range(f)] for i in range(q)]  # element i's digits
    low = next((c for c in digits
                if all((x**f + sum(a * x**j for j, a in enumerate(c))) % p for x in range(p))),
               digits[0])
    images = []  # images[d][i]: x^d times element i, packed
    for _ in range(f):
        images.append([sum(a << j * (s + 1) for j, a in enumerate(c)) for c in digits])
        digits = [[(a - c[-1] * b) % p for a, b in zip([0, *c], low)] for c in digits]
    return tuple(dict(zip(images[0], image)) for image in images)


def _basis(w: tuple[int, ...], q: int, n: int):
    """The F_p-basis of the span of W's rows w_col, packed: x^d w_col at
    index col f + d, so that ``_row_plan``'s slot k picks basis vector k.
    For prime q that is W's rows themselves."""
    _, f, s, _, _ = _packing(q, n)
    if f == 1:
        return w
    entry_bits = f * (s + 1)
    mask = (1 << entry_bits) - 1
    shifts = range(0, n * entry_bits, entry_bits)
    return [
        sum([times[row >> i & mask] << i for i in shifts])
        for row in w for times in _x_powers(q)
    ]


def _products(w: tuple[int, ...], a: int, q: int, n: int):
    """The products M·W over the RREF a x b matrices M, each a tuple of
    packed rows, in ``_all_subspaces(q, b, a)`` order; an iterator.

    Each distinct row of the M's is combined with W once, as its parent's
    combination plus one ``_basis`` vector, by one packed addition.  The
    products are then gathered column by column, with no Python-level
    loop per product.
    """
    p, _, s, bias, lows = _packing(q, n)
    steps, columns = _row_plan(q, len(w), a)
    basis = _basis(w, q, n)
    combos = [0]  # the zero row
    for parent, k in steps:
        t = combos[parent] + basis[k]
        combos.append(t - ((t + bias) >> s & lows) * p)
    if not columns:
        return iter([()])  # a = 0: the one empty matrix
    get = combos.__getitem__
    return zip(*[list(map(get, col)) for col in columns])


@lru_cache(maxsize=None)
def _incidence(q: int, n: int, a: int, b: int) -> list[list[int]]:
    """For each b-subspace W of F_q^n, in ``_all_subspaces(q, n, b)``
    order, the positions in ``_all_subspaces(q, n, a)`` of its
    a-subspaces M·W.

    M and W are RREF of full rank, so M·W is already the RREF basis of
    its span: row i leads with a 1 in W's pivot column at M's pivot i,
    and in W's pivot columns M·W equals M, so each of its own pivot
    columns is zero outside its row.  A product that was not canonical
    would miss the lookup and raise KeyError, not miscount.
    """
    position = {m: i for i, m in enumerate(_all_subspaces(q, n, a))}.__getitem__
    return [list(map(position, _products(w, a, q, n))) for w in _all_subspaces(q, n, b)]


@lru_cache(maxsize=None)
def _chain_counts(q: int, n: int, dims: tuple[int, ...]) -> list[int]:
    """For each subspace of dim dims[-1], in ``_all_subspaces`` order, the
    number of chains 0 < W_1 < ... ending at it with the given dimension
    profile."""
    if len(dims) == 1:
        return [1] * len(_all_subspaces(q, n, dims[0]))
    prev = _chain_counts(q, n, dims[:-1]).__getitem__
    return [sum(map(prev, sub)) for sub in _incidence(q, n, dims[-2], dims[-1])]


def brute_force_flag_count(parts: Sequence[int], q: int, n: int) -> int:
    """Count flags of type (n_1, ..., n_l) in F_q^n by explicit enumeration.

    Subspaces are listed as reduced row-echelon bases, each row one int
    holding the base-p digits of its entries in fixed-width slots
    (``_packing``), so adding two vectors mod p is a few integer
    operations and a basis is a tuple of small ints.  The a-subspaces of
    a b-subspace W are the products M·W over the RREF a x b matrices M,
    and each product is already the RREF basis of its span, so it is
    found among the a-subspaces by one dictionary lookup, with no row
    reduction and no appeal to the product formula.  Each step a < b of
    the dimension profile is such an incidence, built once per (q, n)
    and shared by every flag type through it (``_incidence``); the chains
    ending at each b-subspace are the sum, over its a-subspaces, of the
    chains ending there (``_chain_counts``).  Refused when q^n exceeds
    3000, the point at which enumeration stops being a sensible oracle;
    as q >= 2, any n >= 12 is refused without forming the power.
    """
    parts = _flag_type(parts, n)
    if q > 1 and (n >= 12 or q**n > 3000):
        raise ValueError(
            f"enumeration bound exceeded: q^n > 3000 for q = {q}, n = {n}"
        )
    if finite_field(q).f > 3:  # finite_field refuses a q that is not a prime power
        raise ValueError("finite fields beyond cubic extensions not needed here")
    dims = tuple(itertools.accumulate(parts))[:-1]
    if not dims:
        return 1
    return sum(_chain_counts(q, n, dims))
