"""L-functions of cellular schemes: factorizations, orders, zeta series.

A cell of dimension d over a base contributes the shifted base zeta
function L_base(s - d) to the L-function of the total scheme, so the
L-function of any scheme expression here is a finite product

    L(X, s) = prod_i L_{base_i}(s - d_i)^(e_i)

over the cells, and the cell class ``cells.CellDecomposition`` (also
named ``LFactorization`` here) is that product: no second multiset is
built.  Exponents are the signed cell multiplicities, so quotients from
open covers and excision are exact.  The vanishing order at an integer k
is the exact integer sum of the factor orders and a numeric value is the
product of the factor values, each read off ``fields.ord_at_integer`` or
``fields.zeta_partial_eval``, which hold the rules of every base kind.

Over a finite field the same cell data also gives the zeta function as a
rational function of t = q^(-s), prod (1 - q^d t)^(-l); this module
both expands that closed form and rebuilds the series transcendentally
as exp(sum_r N_r t^r / r) from point counts, so the two can be compared
coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .cells import (
    CellDecomposition,
    CellsOrScheme,
    _as_cells,
    point_count,
)
from .fields import (
    FiniteField,
    NumberField,
    SpecialValue,
    UnsupportedFieldError,
    ord_at_integer,
    special_value_even,
    special_value_rational,
    zeta_partial_eval,
)
from .series import TruncSeries

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


def _check_series_size(order: int, top: float) -> None:
    if order > MAX_SERIES_ORDER:
        raise ValueError(
            f"series order {order} is above MAX_SERIES_ORDER = {MAX_SERIES_ORDER}"
        )
    digits = order * top
    if digits > MAX_SERIES_DIGITS:
        raise ValueError(
            f"series coefficients to order {order} have about {digits:.0f} digits, "
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

    Kept with numerator and denominator factor lists disjoint (no shared
    (d, m) content); for cellular schemes the numerator is empty.
    """

    q: int
    numer: tuple[tuple[int, int], ...]
    denom: tuple[tuple[int, int], ...]

    @classmethod
    def build(
        cls,
        q: int,
        numer: Iterable[tuple[int, int]] = (),
        denom: Iterable[tuple[int, int]] = (),
    ) -> "RationalZeta":
        top: dict[int, int] = {}
        for d, m in numer:
            top[d] = top.get(d, 0) + m
        for d, m in denom:
            top[d] = top.get(d, 0) - m
        numer_out = tuple(sorted((d, m) for d, m in top.items() if m > 0))
        denom_out = tuple(sorted((d, -m) for d, m in top.items() if m < 0))
        return cls(q, numer_out, denom_out)

    def expand(self, order: int) -> TruncSeries:
        """The power series of Z(X, t) to t^order, in exact integers.

        Each factor (1 - a t)^e expands by the generalized binomial
        theorem, c_0 = 1 and c_j = c_{j-1} (e - j + 1) (-a) / j, where the
        division is exact because c_j = C(e, j) (-a)^j; the factors are
        then convolved.  No log, exp or point count is used, so equality
        with ``weil_zeta_series`` compares two independent derivations.
        """
        top = max((d for d, _ in (*self.numer, *self.denom)), default=0)
        _check_series_size(order, top * math.log10(self.q))
        out = [1] + [0] * order
        for d, e in [*self.numer, *((d, -m) for d, m in self.denom)]:
            a = self.q**d
            binom = [1]
            for j in range(1, order + 1):
                c = binom[-1] * (e - j + 1) * -a // j
                if not c:
                    break
                binom.append(c)
            out = [
                sum(binom[j] * out[i - j] for j in range(min(i, len(binom) - 1) + 1))
                for i in range(order + 1)
            ]
        return TruncSeries(order, out)

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


def weil_zeta_series(x: CellsOrScheme, order: int) -> TruncSeries:
    """exp(sum_{r=1}^{order} N_r t^r / r) with N_r the point counts of x.

    This is the transcendental route to the zeta function; it never looks
    at the rational form, so agreement with ``weil_zeta_rational`` is a
    genuine consistency check.
    """
    if order < 1:
        raise ValueError("series order must be >= 1")
    cells = _as_cells(x)
    # number-field bases are skipped here and refused by point_count
    top = max((s.shift * math.log10(s.base.q) for s in cells
               if isinstance(s.base, FiniteField)), default=0)
    _check_series_size(order, top)
    u = TruncSeries(
        order, [0] + [Fraction(point_count(cells, r), r) for r in range(1, order + 1)]
    )
    return u.exp()


def weil_zeta_rational(x: CellsOrScheme) -> RationalZeta:
    """The closed rational form prod (1 - q^d t)^(-mult) from the cells.

    All cells must live over one and the same finite field.
    """
    cells = _as_cells(x)
    if not cells.strata:
        raise ValueError("no cells")
    qs = set()
    for s in cells:
        if not isinstance(s.base, FiniteField):
            raise ValueError(f"zeta over finite fields only, found {s.base}")
        qs.add(s.base.q)
    if len(qs) != 1:
        raise ValueError(f"mixed finite bases {sorted(qs)}; no single q")
    return RationalZeta.build(
        qs.pop(), denom=[(s.shift, s.multiplicity) for s in cells]
    )


# -- numeric and special values -------------------------------------------------


def lfun_partial_eval(
    f: CellDecomposition, s: float, prime_bound: int
) -> float:
    """The product of every factor's ``zeta_partial_eval`` at real s.

    Requires s - shift > 1 for each factor so all the partial products
    sit in the convergence region.
    """
    if not math.isfinite(s):
        raise ValueError(f"s = {s} is not a finite real number")
    for factor in f:
        if s - factor.shift <= 1:
            raise ValueError(
                f"s = {s} puts factor {factor} outside the convergence "
                f"region s - {factor.shift} > 1"
            )
    out = 1.0
    for factor in f:
        v = zeta_partial_eval(factor.base, s - factor.shift, prime_bound)
        out *= v**factor.multiplicity
    return out


def _zeta_q_value_at(point: int) -> SpecialValue | None:
    """Exact value of the Riemann zeta function at an integer, when classical.

    Known exactly at integers <= 0 and at positive even integers; odd
    integers >= 3 (and the pole at 1) return None and stay symbolic.
    """
    if point <= -1:
        return special_value_rational(1 - point)
    if point == 0:
        return SpecialValue("exact-rational", rational=Fraction(-1, 2))
    if point >= 2 and point % 2 == 0:
        return special_value_even(point // 2)
    return None


def special_value_product(f: CellDecomposition, m: int) -> SpecialValue:
    """The value of the factorization at s = m, as exactly as possible.

    If the total vanishing order at m is positive the value is exactly 0
    (order reported); a negative total order is a pole and the result
    stays symbolic with the order attached.  Otherwise factors over Q at
    evaluable points multiply into rational * pi^k and anything else
    (odd positive points, non-rational base fields) is kept as a
    symbolic (label, point, exponent) triple, the whole product being
    well defined modulo nonzero rationals.  Finite-field factors have no
    special-value convention here and are rejected.
    """
    for factor in f:
        if not isinstance(factor.base, NumberField):
            raise UnsupportedFieldError(
                f"special values need number-field bases, found {factor.base}"
            )
    total_order = f.ord_at(m)
    if total_order > 0:
        return SpecialValue("exact-rational", rational=Fraction(0), order=total_order)
    if total_order < 0:
        return SpecialValue(
            "symbolic-product",
            rational=Fraction(1),
            factors=tuple(
                (fc.base.label, m - fc.shift, fc.multiplicity) for fc in f
            ),
            order=total_order,
        )
    symbolic: list[tuple[str, int, int]] = []
    rational = Fraction(1)
    pi_power = 0
    for factor in f:
        point = m - factor.shift
        value = None
        if factor.base.degree == 1 and ord_at_integer(factor.base, point) == 0:
            value = _zeta_q_value_at(point)  # the Riemann zeta function itself
        if value is None:
            # not over Q, an odd positive point, or a factor that vanishes or
            # has a pole on its own (cancelled in the total): its finite
            # value is beyond this table
            symbolic.append((factor.base.label, point, factor.multiplicity))
            continue
        rational *= value.rational**factor.multiplicity
        pi_power += value.pi_power * factor.multiplicity
    if symbolic or pi_power < 0:
        return SpecialValue(
            "symbolic-product",
            rational=rational,
            pi_power=pi_power,
            factors=tuple(symbolic),
        )
    if pi_power > 0:
        return SpecialValue(
            "rational-times-pi-power", rational=rational, pi_power=pi_power
        )
    return SpecialValue("exact-rational", rational=rational)
