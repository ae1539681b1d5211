"""Reference constructions that tests check the package against."""

from fractions import Fraction
from math import comb
from typing import Sequence

from flagzeta.cells import CellDecomposition, FlagBundle, Grassmannian, SchemeExpr
from flagzeta.lfuncs import RationalZeta
from flagzeta.series import TruncSeries


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


def reference_expand(rz: RationalZeta, order: int) -> TruncSeries:
    """Z(X, t) to t^order, one factor (1 - a t)^e at a time.

    Each factor expands by the generalized binomial theorem, c_0 = 1 and
    c_j = c_{j-1} (e - j + 1) (-a) / j, where the division is exact
    because c_j = C(e, j) (-a)^j, a series for e < 0; the running product
    is then convolved with it to t^order.  ``RationalZeta.expand`` instead
    divides the numerator polynomial by the denominator polynomial, so
    this is a second, independent reference for it.
    """
    out = [1] + [0] * order
    for d, e in [*rz.numer, *((d, -m) for d, m in rz.denom)]:
        a = rz.q**d
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


def bernoulli_by_recurrence(n: int) -> list[Fraction]:
    """B_0, ..., B_n (B_1 = -1/2) from sum_{j=0}^{k} C(k+1, j) B_j = 0,
    solved for B_k one k at a time in Fractions: about n^3 work, but the
    defining identity, independent of the tangent numbers."""
    out = [Fraction(1)]
    for k in range(1, n + 1):
        out.append(-sum(comb(k + 1, j) * b for j, b in enumerate(out)) / (k + 1))
    return out


def reference_point_count(cells: CellDecomposition, r: int) -> int:
    """N_r = sum m (q^r)^d over the class's (base, d, m) triples, one
    big power per term, as the definition reads."""
    return sum(m * (base.q**r) ** d for base, d, m in cells.strata)
