"""L-functions of cellular schemes: factorizations, orders, zeta series.

A cell of dimension d over a base contributes the shifted base zeta
function L_base(s - d) to the L-function of the total scheme, so the
L-function of any scheme expression here is a finite product

    L(X, s) = prod_i L_{base_i}(s - d_i)^(e_i)

over the cells, and the cell class ``cells.CellDecomposition`` (also
named ``LFactorization`` here) is that product, one integer polynomial
per base whose coefficient of q^d is the exponent of L_base(s - d): no
second multiset is built.  Exponents are the signed cell multiplicities,
so quotients from open covers and excision are exact.  The vanishing
order at an integer k is the exact integer sum of the factor orders, a
numeric value is the product of the factor values and an exact value the
product of their closed forms, each read off its base's L-side row in
``fields``: its ``orders``, its ``euler_values`` and its ``zeta_value``.
This module reads the rows directly and imports no per-base function.

Over a finite field the same cell data also gives the zeta function as a
rational function of t = q^(-s), prod (1 - q^d t)^(-l); this module
both expands that closed form and rebuilds the series transcendentally
as exp(sum_r N_r t^r / r) from point counts, so the two can be compared
coefficient by coefficient.  The closed form N(t) / P(t) is expanded by
multiplying out N and P once as integer polynomials, then reading the
series off P c = N one coefficient at a time with the series kernel's own
recurrence solver, ``series._solve``; the point counts all read the one
class that ``cells.cells_of`` built for the scheme's node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cells import (
    CellDecomposition,
    CellsOrScheme,
    _as_cells,
    _factor,
    point_count,
)
from .fields import (
    SpecialValue,
    UnsupportedFieldError,
    _check_euler_work,
)
from .series import TruncSeries, _solve

__all__ = [
    "LFactorization",
    "RationalZeta",
    "lfactorization_of",
    "weil_zeta_series",
    "weil_zeta_rational",
    "lfun_partial_eval",
    "special_value_product",
]


# The cell class is the L-function; this name reads it as one.
LFactorization = CellDecomposition

# Size bounds on a zeta series to t^n, checked before any coefficient is
# computed: the order n, and the digits of the t^n coefficient, about
# n x top = n x (largest cell dimension) x log10 q.
MAX_SERIES_ORDER = 500
MAX_SERIES_DIGITS = 1000


def _check_series_size(order: int, top: int, q: int) -> None:
    if order > MAX_SERIES_ORDER:
        raise ValueError(
            f"series order {order} is above MAX_SERIES_ORDER = {MAX_SERIES_ORDER}"
        )
    # exact in integers, so a top beyond a float's range is refused, not
    # an OverflowError
    num, den = math.log10(q).as_integer_ratio()
    if order * top * num > MAX_SERIES_DIGITS * den:
        digits = round(Fraction(order * top * num, den))
        raise ValueError(
            f"series coefficients to order {order} have about {digits} digits, "
            f"above MAX_SERIES_DIGITS = {MAX_SERIES_DIGITS}"
        )


def lfactorization_of(x: CellsOrScheme) -> CellDecomposition:
    """L(X, s) = prod over cells of L_base(s - dimension)^multiplicity:
    the cell decomposition of x itself."""
    return _as_cells(x)


# -- zeta functions over finite fields ----------------------------------------


@dataclass(frozen=True)
class RationalZeta:
    """Z(X, t) = prod (1 - q^d t)^m over numer, / prod over denom.

    The constructor makes the record canonical: it nets the exponents of
    each d, keeps numerator and denominator disjoint and sorts both, so
    equal functions compare equal.  For cellular schemes the numerator is
    empty.
    """

    q: int
    numer: tuple[tuple[int, int], ...] = ()
    denom: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        net: dict[int, int] = {}
        for d, m in self.numer:
            net[d] = net.get(d, 0) + m
        for d, m in self.denom:
            net[d] = net.get(d, 0) - m
        pairs = sorted(net.items())
        object.__setattr__(self, "numer", tuple((d, m) for d, m in pairs if m > 0))
        object.__setattr__(self, "denom", tuple((d, -m) for d, m in pairs if m < 0))

    def expand(self, order: int) -> TruncSeries:
        """The power series of Z(X, t) = N(t) / P(t) to t^order, in exact
        integers.

        N and P are the products over numer and over denom of
        (1 - q^d t)^m, each multiplied out once as an integer polynomial
        (``_side``) and cut at t^min(order, sum m), so P is as long as
        the denominator and never padded to the order.  Since P_0 = 1,
        P c = N gives each coefficient from the ones before it:
        c_i = N_i - sum_{j>=1} P_j c_{i-j}, the recurrence that
        ``series._solve`` solves, here on its integer path throughout.  No
        log, exp or point count is used, so equality with
        ``weil_zeta_series`` compares two derivations that share only that
        solver, fed another operand and step; the tests check the solver
        against schoolbook sums and this expansion against a factor-by-factor
        binomial product.
        """
        top = max((d for d, _ in (*self.numer, *self.denom)), default=0)
        _check_series_size(order, top, self.q)
        numer = self._side(self.numer, order)
        numer += [0] * (order + 1 - len(numer))
        denom = self._side(self.denom, order)
        out, ones = _solve(
            denom, [1] * len(denom), (numer[0], 1), order,
            lambda i, tail, _: (numer[i] - tail, 1),
        )
        return TruncSeries._of(order, out, ones)

    def _side(self, factors: tuple[tuple[int, int], ...], order: int) -> list[int]:
        """prod (1 - q^d t)^m over factors, to t^order.  Each factor is
        sum_j C(m, j) (-q^d)^j by the finite binomial theorem, each term
        the one before times (m - j + 1) (-q^d) / j, an exact division."""
        out = [1]
        for d, m in factors:
            a = -(self.q**d)
            binom = [1]
            for j in range(1, min(m, order) + 1):
                binom.append(binom[-1] * (m - j + 1) * a // j)
            product = [0] * min(len(out) + len(binom) - 1, order + 1)
            for j, b in enumerate(binom):
                for i, c in enumerate(out[:len(product) - j]):
                    product[i + j] += b * c
            out = product
        return out

    def __str__(self) -> str:
        def side(factors: tuple[tuple[int, int], ...]) -> str:
            parts = []
            for d, m in factors:
                f = f"(1 - {self.q ** d}*t)" if d else "(1 - t)"
                parts.append(f if m == 1 else f + f"^{m}")
            return "".join(parts)

        top = side(self.numer) or "1"
        if not self.denom:
            return top
        return f"{top} / ({side(self.denom)})"


def _single_q(cells: CellDecomposition) -> int:
    """The order q of the one finite field under every cell of a zeta class."""
    if not cells.polys:
        raise ValueError("no cells")
    for base, _ in cells.polys:
        if base.q is None:
            raise ValueError(f"zeta over finite fields only, found {base}")
    if len(cells.polys) > 1:  # each base once, by q
        raise ValueError(f"mixed finite bases {[b.q for b, _ in cells.polys]}; no single q")
    return cells.polys[0][0].q


def weil_zeta_series(x: CellsOrScheme, order: int) -> TruncSeries:
    """exp(sum_{r=1}^{order} N_r t^r / r) with N_r the point counts of x.

    This is the transcendental route to the zeta function; it never looks
    at the rational form, so agreement with ``weil_zeta_rational`` is a
    genuine consistency check.  It refuses the classes the rational form
    refuses, with the same messages.  Each N_r is one ``point_count`` of
    the class, one power q^r and a Horner pass over the cell polynomial,
    and enters the series as the pair N_r / r in lowest terms, with no
    Fraction built.  ``exp`` reads r (N_r / r) = N_r back as an integer,
    so the whole series is solved on its integer path.
    """
    if order < 1:
        raise ValueError("series order must be >= 1")
    cells = _as_cells(x)
    _check_series_size(order, cells.max_shift(), _single_q(cells))
    nums, dens = [0], [1]
    for r in range(1, order + 1):
        count = point_count(cells, r)
        common = math.gcd(count, r)
        nums.append(count // common)
        dens.append(r // common)
    return TruncSeries._of(order, nums, dens).exp()


def weil_zeta_rational(x: CellsOrScheme) -> RationalZeta:
    """The closed rational form prod (1 - q^d t)^(-mult) from the cells.

    All cells must live over one and the same finite field.
    """
    cells = _as_cells(x)
    return RationalZeta(
        _single_q(cells), denom=[term for _, poly in cells.polys for term in poly]
    )


# -- numeric and special values -------------------------------------------------


def lfun_partial_eval(
    f: CellDecomposition, s: float, prime_bound: int
) -> float:
    """The product of every factor's Euler product at real s, read off
    its base's ``euler_values`` row.

    Requires a finite s with s - shift > 1 for each factor and a prime
    bound in [2, fields.MAX_PRIME_BOUND]; these checks are the only ones
    on the path, and all are made before any row is read.  The factors
    of a base, its polynomial's terms, are evaluated together: one sieve
    per number-field base, one splitting per residue class mod 4|disc|
    (per prime for a table field), one table entry per base and prime, and
    one local value per factor and prime.  That work, priced once for all
    bases by ``fields``, is refused above ``fields.MAX_EULER_WORK``.  A
    product beyond a float (overflowing, or underflowing to 0) raises
    ``ValueError``.
    """
    if not math.isfinite(s):
        raise ValueError(f"s = {s} is not a finite real number")
    # shift >= s first: a shift beyond a float's range never meets s - shift
    terms = ((b, d, m) for b, poly in f.polys for d, m in poly if d >= s or s - d <= 1)
    if bad := next(terms, None):
        raise ValueError(
            f"s = {s} puts factor {_factor(*bad)} outside the convergence "
            f"region s - {bad[1]} > 1"
        )
    _check_euler_work(prime_bound, [(b, len(poly)) for b, poly in f.polys])
    out = 1.0
    for base, poly in f.polys:
        values = base.euler_values([s - shift for shift, _ in poly], prime_bound)
        for (_, m), v in zip(poly, values):
            try:
                out *= v**m
            except OverflowError:
                out = math.inf
    if not 0 < out < math.inf:
        raise ValueError(
            f"the Euler product at s = {s} over primes <= {prime_bound} "
            "is beyond a float"
        )
    return out


def special_value_product(f: CellDecomposition, m: int) -> SpecialValue:
    """The value of the factorization at s = m, as exactly as possible.

    If the total vanishing order at m is positive the value is exactly 0
    (order reported); a negative total order is a pole and the result
    stays symbolic with the order attached.  Otherwise the product is
    folded factor by factor: each factor's closed form, its base row's
    ``zeta_value``, multiplies into rational * pi^k, and a factor
    with none (an odd positive point over Q, another base, or a factor
    that vanishes or has a pole on its own, cancelled in the total) is
    kept as a symbolic (label, point, exponent) triple.  Finite-field
    factors have no special-value convention here and are rejected.  Like
    all class-level code, it reads the rows and asks no base its kind.
    """
    if other := next((b for b, _ in f.polys if b.q is not None), None):
        raise UnsupportedFieldError(f"special values need number-field bases, found {other}")
    order = f.ord_at(m)
    if order > 0:
        return SpecialValue(Fraction(0), order=order)
    if order < 0:
        return SpecialValue(
            Fraction(1),
            factors=tuple((b.label, m - d, e) for b, poly in f.polys for d, e in poly),
            order=order,
        )
    rational, pi_power, symbolic = Fraction(1), 0, []
    for base, poly in f.polys:
        for shift, e in poly:
            value = base.zeta_value(m - shift)
            if value is None:
                symbolic.append((base.label, m - shift, e))
            else:
                rational *= value.rational**e
                pi_power += value.pi_power * e
    return SpecialValue(rational, pi_power, tuple(symbolic))
