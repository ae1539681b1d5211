"""Exact truncated power series over the rationals, plus Bernoulli numbers.

Everything here lives in the quotient ring Q[t]/(t^(n+1)) for a fixed
truncation order n, with ``fractions.Fraction`` coefficients throughout:
no floating point ever enters.  The ring carries the mutually inverse
log/exp pair

    log(g) = sum_{k>=1} (-1)^(k-1) (g-1)^k / k        (g with constant term 1),
    exp(u) = sum_{k>=0} u^k / k!                      (u with zero constant term),

so that log turns products of one-units into sums; this is what lets a
zeta function of a variety over a finite field be checked coefficient by
coefficient against its rational form.

Summing those powers takes O(n) full products, O(n^3) coefficient work.
The code instead solves the derivative identities a' = u' a (for
a = exp(u)) and g' = l' g (for l = log(g), g_0 = 1) coefficient by
coefficient, which is O(n^2):

    m a_m = sum_{k=1}^{m} k u_k a_{m-k},                  a_0 = 1,
    m l_m = m g_m - sum_{k=1}^{m-1} k l_k g_{m-k},        l_0 = 0

(Brent & Kung, "Fast algorithms for manipulating formal power series",
JACM 1978; Knuth, TAOCP vol. 2, section 4.7).  The arithmetic is exact,
so the coefficients equal those of the power sums.

The four O(n^2) loops (the product, the inverse and those two
recurrences) build no Fraction inside an inner sum; each reads its
operands' numerators and denominators once, as lists of ints.  The
inverse, log and exp are one recurrence, y_m = step(m, sum_{k=1}^{m}
x_k y_{m-k}) for a fixed operand x, solved by ``_solve``.  While x and
every y so far are integers, that sum is one integer dot product.
Otherwise, as in every coefficient of a product, ``_dot`` scales the
term products to the lcm of their denominators and sums the integers.
Either way each output coefficient is built as one Fraction, which
reduces it.  A Fraction per term would pay a gcd and a normalisation per
term, most of the cost of a series operation; the coefficients are the
same either way, since a rational has one form in lowest terms.  The
series of a zeta function over F_q are integral (its expansion, and k
times the k-th coefficient of its log), so they never leave the integer
path.

>>> g = TruncSeries(4, [1, -1])          # 1 - t
>>> print(g.log())
-t - 1/2*t^2 - 1/3*t^3 - 1/4*t^4
>>> g.log().exp() == g
True

Bernoulli numbers use the B_1 = -1/2 convention; the even ones are read
off the integer tangent numbers (Brent & Harvey, "Fast computation of
Bernoulli, tangent and secant numbers", 2013).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

__all__ = ["TruncSeries", "bernoulli"]

# B_k costs about (k/2)^2 integer operations on tangent numbers; larger
# indices are refused.
MAX_BERNOULLI_INDEX = 500

_ZERO = Fraction(0)


def _is_scalar(c: object) -> bool:
    """An int (not a bool) or a Fraction: a scalar that enters the ring exactly."""
    return isinstance(c, (int, Fraction)) and not isinstance(c, bool)


def _split(cs: Sequence[Fraction]) -> tuple[list[int], list[int]]:
    """The numerators and the denominators of a list of Fractions."""
    return [c.numerator for c in cs], [c.denominator for c in cs]


def _dot(
    xn: list[int], xd: list[int], ks: list[int], yn: list[int], yd: list[int], m: int
) -> tuple[int, int]:
    """sum_{k in ks, k <= m} x_k y_{m-k} as an integer numerator and denominator.

    x and y are given as numerator and denominator lists, and ``ks`` lists
    in ascending order the indices where x is nonzero; terms with
    y_{m-k} = 0 are skipped.  Each product is scaled to the lcm of the
    term denominators and the integers are summed, so no Fraction is built:
    the caller builds one from the result, which reduces it.
    """
    nums, dens = [], []
    for k in ks:
        if k > m:
            break
        b = yn[m - k]
        if b:
            nums.append(xn[k] * b)
            dens.append(xd[k] * yd[m - k])
    den = lcm(*dens)
    return sum([n * (den // d) for n, d in zip(nums, dens)]), den


def _solve(
    xn: list[int], xd: list[int], y0: Fraction, n: int, step: Callable
) -> list[Fraction | int]:
    """y_0, ..., y_n with y_m = step(m, num, den), where num / den is
    sum_{k=1}^{m} x_k y_{m-k} and x is given as numerator and denominator
    lists.  ``step`` returns a Fraction, or an int for an integral y.

    While every x_k and every y so far has denominator 1, the sum is one
    integer dot product over den = 1; the first y that is not an integer
    hands the rest of the recurrence to ``_dot``.
    """
    ks = [k for k, c in enumerate(xn) if c and k]
    tail = xn[1:]  # map stops at reversed(yn), so x_k meets y_{m-k} up to k = m
    yn, yd = [y0.numerator], [y0.denominator]
    out = [y0]
    integral = y0.denominator == 1 and all(d == 1 for d in xd)
    for m in range(1, n + 1):
        if integral:
            y = step(m, sum(map(mul, tail, reversed(yn))), 1)
            integral = y.denominator == 1
        else:
            y = step(m, *_dot(xn, xd, ks, yn, yd, m))
        out.append(y)
        yn.append(y.numerator)
        yd.append(y.denominator)
    return out


@dataclass(frozen=True, slots=True)
class TruncSeries:
    """An element of Q[t]/(t^(order+1)), held as exact rational coefficients.

    A frozen record of exactly order + 1 Fractions: the constructor takes
    any iterable of ints and Fractions, reduces it mod t^(order+1) and pads
    it with zeros; any other scalar (a float, a string, a bool) is refused
    with ``TypeError``, since it would enter the ring inexactly or by a
    parse.  Binary operations insist that both operands share the same
    truncation order; mixing orders raises ``ValueError`` rather than
    silently coercing, since a coerced result would carry fewer
    trustworthy coefficients than its order claims.

    >>> a = TruncSeries(3, [1, -1])          # 1 - t
    >>> b = TruncSeries(3, [1, -2])          # 1 - 2t
    >>> print((a * b).inverse())
    1 + 3*t + 7*t^2 + 15*t^3
    """

    order: int
    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("truncation order must be non-negative")
        cs = []
        for c in self.coeffs:
            if type(c) is not Fraction:
                if type(c) is not int and not _is_scalar(c):
                    raise TypeError(
                        f"series coefficients are ints or Fractions, not {type(c).__name__}"
                    )
                c = Fraction(c)
            cs.append(c)
        # Constructing from a longer list is reduction mod t^(order+1).
        del cs[self.order + 1 :]
        cs.extend([_ZERO] * (self.order + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic structure ------------------------------------------------

    def __getitem__(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside 0..{self.order}")
        return self.coeffs[i]

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls(order, [1])

    def _same_order(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    # -- ring operations ------------------------------------------------

    def __add__(self, other: object) -> "TruncSeries":
        if _is_scalar(other):
            cs = list(self.coeffs)
            cs[0] += other
            return TruncSeries(self.order, cs)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._same_order(other)
        return TruncSeries(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, [-a for a in self.coeffs])

    def __sub__(self, other: object) -> "TruncSeries":
        if not (_is_scalar(other) or isinstance(other, TruncSeries)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "TruncSeries":
        if _is_scalar(other):
            return TruncSeries(self.order, [a * other for a in self.coeffs])
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._same_order(other)
        an, ad = _split(self.coeffs)
        bn, bd = _split(other.coeffs)
        ks = [k for k, a in enumerate(an) if a]
        return TruncSeries(
            self.order,
            [Fraction(*_dot(an, ad, ks, bn, bd, m)) for m in range(self.order + 1)],
        )

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "TruncSeries":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = TruncSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        Uses the triangular recurrence b_0 = 1/a_0,
        b_m = -(1/a_0) * sum_{k=1}^{m} a_k b_{m-k}.
        """
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ValueError("series with zero constant term is not invertible")
        an, ad = _split(self.coeffs)
        out = _solve(
            an, ad, 1 / a0, self.order,
            lambda m, num, den: Fraction(-num * ad[0], den * an[0]),
        )
        return TruncSeries(self.order, out)

    def log(self) -> "TruncSeries":
        """log of a one-unit: requires constant term exactly 1.

        Solves g' = l' g for l = log(g), with y_k = k l_k:
        y_m = m g_m - sum_{k=1}^{m} g_k y_{m-k}, y_0 = 0.
        """
        g = self.coeffs
        if g[0] != 1:
            raise ValueError("log requires constant term 1")
        n = self.order
        gn, gd = _split(g)

        def step(m: int, num: int, den: int) -> int | Fraction:
            top, bottom = m * gn[m] * den - num * gd[m], gd[m] * den
            return top if bottom == 1 else Fraction(top, bottom)

        ys = _solve(gn, gd, _ZERO, n, step)
        ls = [Fraction(y.numerator, y.denominator * m) for m, y in enumerate(ys[1:], 1)]
        return TruncSeries(n, [_ZERO, *ls])

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term.

        Solves a' = u' a for a = exp(u):
        m a_m = sum_{k=1}^{m} k u_k a_{m-k}, a_0 = 1.
        """
        u = self.coeffs
        if u[0] != 0:
            raise ValueError("exp requires constant term 0")
        n = self.order
        kun, kud = [0] * (n + 1), [1] * (n + 1)  # k u_k in lowest terms
        for k in range(1, n + 1):
            common = gcd(k, u[k].denominator)
            kun[k] = k // common * u[k].numerator
            kud[k] = u[k].denominator // common
        out = _solve(kun, kud, Fraction(1), n, lambda m, num, den: Fraction(num, den * m))
        return TruncSeries(n, out)

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
                continue
            mag = abs(c)
            var = "t" if i == 1 else f"t^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


# T_0 (a placeholder), T_1, ..., T_n: the one row of tangent numbers
# computed so far, which ``_tangent_number`` grows.
_TANGENTS = [0, 1]


def _tangent_number(m: int) -> int:
    """T_m, with tan x = sum_{m>=1} T_m x^(2m-1) / (2m-1)!, for m >= 1.

    Read off the row ``_TANGENTS``.  An m past its end T_l rebuilds it to
    n = max(m, min(2 l, MAX_BERNOULLI_INDEX / 2)) by
    Brent & Harvey's recurrence on T_1..T_n in place: start from
    T_j = (j-1)!, then for each k = 2..n set
    T_j = (j-k) T_{j-1} + (j-k+2) T_j for j = k..n in turn: O(n^2)
    integer operations and no division, so indices asked in increasing
    order cost O(n^2) in all, and a first one no more than itself.
    """
    if m >= len(_TANGENTS):
        n = max(m, min(2 * (len(_TANGENTS) - 1), MAX_BERNOULLI_INDEX // 2))
        t = [0, 1]
        for j in range(2, n + 1):
            t.append((j - 1) * t[-1])
        for k in range(2, n + 1):
            for j in range(k, n + 1):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        _TANGENTS.extend(t[len(_TANGENTS):])
    return _TANGENTS[m]


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """The k-th Bernoulli number, convention B_1 = -1/2.

    B_0 = 1, B_1 = -1/2, B_k = 0 for odd k > 1, and for k = 2m the
    tangent number gives B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)).
    Exact for all k; values are cached.

    >>> bernoulli(2), bernoulli(3), bernoulli(4)
    (Fraction(1, 6), Fraction(0, 1), Fraction(-1, 30))
    """
    if k < 0:
        raise ValueError("Bernoulli numbers are indexed by k >= 0")
    if k > MAX_BERNOULLI_INDEX:
        raise ValueError(
            f"Bernoulli index {k} is above MAX_BERNOULLI_INDEX = {MAX_BERNOULLI_INDEX}"
        )
    if k < 2:
        return Fraction(1) if k == 0 else Fraction(-1, 2)
    if k % 2:
        return _ZERO
    m = k // 2
    four = 4**m
    return Fraction((-1) ** (m - 1) * k * _tangent_number(m), four * (four - 1))
