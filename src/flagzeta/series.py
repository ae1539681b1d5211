"""Exact truncated power series over the rationals, plus Bernoulli numbers.

Everything here lives in the quotient ring Q[t]/(t^(n+1)) for a fixed
truncation order n.  A series holds its coefficients as two lists of
ints, the numerators and the denominators, each coefficient in lowest
terms: no floating point ever enters, and ``fractions.Fraction`` appears
only at the edges, as an input and when a coefficient is read.  The ring
carries the mutually inverse log/exp pair

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
recurrences) read and write those numerator and denominator lists
directly and build no Fraction.  The inverse, log and exp are one
recurrence, y_m = step(m, sum_{k=1}^{m} x_k y_{m-k}) for a fixed operand
x, solved by ``_solve``.  While x and every y so far are integers, that
sum is one integer dot product.  Otherwise, as in every coefficient of a
product, ``_dot`` scales the term products to the lcm of their
denominators and sums the integers.  Either way each output coefficient
is reduced once, by one gcd.  A gcd per term would be most of the cost of
a series operation; the coefficients are the same either way, since a
rational has one form in lowest terms.  The series of a zeta function
over F_q are integral (its expansion, and k times the k-th coefficient
of its log), so they never leave the integer path.

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
from typing import Callable, Iterable, Sequence

__all__ = ["TruncSeries", "bernoulli"]

# B_k costs about (k/2)^2 integer operations on tangent numbers; larger
# indices are refused.
MAX_BERNOULLI_INDEX = 500

_ZERO = Fraction(0)


def _is_scalar(c: object) -> bool:
    """An int (not a bool) or a Fraction: a scalar that enters the ring exactly."""
    return isinstance(c, (int, Fraction)) and not isinstance(c, bool)


def _pair(c: object) -> tuple[int, int]:
    """A scalar's numerator and denominator in lowest terms; anything but
    an int or a Fraction is refused with ``TypeError``."""
    if type(c) is int:
        return c, 1
    if not _is_scalar(c):
        raise TypeError(f"series coefficients are ints or Fractions, not {type(c).__name__}")
    return int(c.numerator), int(c.denominator)


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num / den, den nonzero, in lowest terms with a positive denominator."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _dot(
    xn: Sequence[int], xd: Sequence[int], ks: list[int],
    yn: Sequence[int], yd: Sequence[int], m: int,
) -> tuple[int, int]:
    """sum_{k in ks, k <= m} x_k y_{m-k} as an integer numerator and denominator.

    x and y are given as numerator and denominator lists, and ``ks`` lists
    in ascending order the indices where x is nonzero; terms with
    y_{m-k} = 0 are skipped.  Each product is scaled to the lcm of the
    term denominators and the integers are summed, so no gcd is paid per
    term: the caller reduces the result once.
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
    xn: Sequence[int], xd: Sequence[int], y0: tuple[int, int], n: int, step: Callable
) -> tuple[list[int], list[int]]:
    """The numerators and denominators of y_0, ..., y_n, with
    y_m = step(m, num, den), where num / den is sum_{k=1}^{m} x_k y_{m-k},
    x is given as numerator and denominator lists (possibly shorter than
    n + 1, its missing terms zero) and ``step`` returns y_m as a pair in
    lowest terms.

    While every x_k and every y so far has denominator 1, the sum is one
    integer dot product over den = 1; the first y that is not an integer
    hands the rest of the recurrence to ``_dot``.
    """
    ks = [k for k, c in enumerate(xn) if c and k]
    tail = xn[1:]  # map stops at reversed(yn), so x_k meets y_{m-k} up to k = m
    yn, yd = [y0[0]], [y0[1]]
    integral = y0[1] == 1 and xd.count(1) == len(xd)
    for m in range(1, n + 1):
        if integral:
            num, den = step(m, sum(map(mul, tail, reversed(yn))), 1)
            integral = den == 1
        else:
            num, den = step(m, *_dot(xn, xd, ks, yn, yd, m))
        yn.append(num)
        yd.append(den)
    return yn, yd


@dataclass(frozen=True, init=False, repr=False)
class TruncSeries:
    """An element of Q[t]/(t^(order+1)), held as exact rational coefficients.

    A frozen record of order + 1 coefficients kept as two int tuples,
    ``nums`` and ``dens``: each coefficient in lowest terms with a positive
    denominator, zero as 0/1, so equal series have equal fields and
    compare and hash equal.  The constructor takes any iterable of ints
    and Fractions, reduces it mod t^(order+1) and pads it with zeros; any
    other scalar (a float, a string, a bool) is refused with ``TypeError``,
    since it would enter the ring inexactly or by a parse.  ``coeffs`` and
    ``s[i]`` read the coefficients back as Fractions.  Binary operations
    insist that both operands share the same truncation order; mixing
    orders raises ``ValueError`` rather than silently coercing, since a
    coerced result would carry fewer trustworthy coefficients than its
    order claims.

    >>> a = TruncSeries(3, [1, -1])          # 1 - t
    >>> b = TruncSeries(3, [1, -2])          # 1 - 2t
    >>> print((a * b).inverse())
    1 + 3*t + 7*t^2 + 15*t^3
    """

    __slots__ = ("order", "nums", "dens")
    order: int
    nums: tuple[int, ...]
    dens: tuple[int, ...]

    def __init__(self, order: int, coeffs: Iterable[int | Fraction] = ()) -> None:
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        pairs = [_pair(c) for c in coeffs]
        # Constructing from a longer list is reduction mod t^(order+1).
        del pairs[order + 1 :]
        pairs += [(0, 1)] * (order + 1 - len(pairs))
        self._set(order, *zip(*pairs))

    def _set(self, order: int, nums: Sequence[int], dens: Sequence[int]) -> None:
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "dens", tuple(dens))

    @classmethod
    def _of(cls, order: int, nums: Sequence[int], dens: Sequence[int]) -> "TruncSeries":
        """The series of order + 1 coefficients nums[i] / dens[i], already
        in lowest terms with positive denominators."""
        out = object.__new__(cls)
        out._set(order, nums, dens)
        return out

    # -- basic structure ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.nums, self.dens))

    def __getitem__(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside 0..{self.order}")
        return Fraction(self.nums[i], self.dens[i])

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, coeffs={self.coeffs!r})"

    def __reduce__(self) -> tuple:
        # a frozen record: pickle and copy rebuild it, never set its fields
        return TruncSeries, (self.order, self.coeffs)

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
            other = TruncSeries(self.order, [other])
        elif not isinstance(other, TruncSeries):
            return NotImplemented
        self._same_order(other)
        sums = [
            _lowest(a * d + c * b, b * d)
            for a, b, c, d in zip(self.nums, self.dens, other.nums, other.dens)
        ]
        return TruncSeries._of(self.order, *zip(*sums))

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries._of(self.order, [-a for a in self.nums], self.dens)

    def __sub__(self, other: object) -> "TruncSeries":
        if not (_is_scalar(other) or isinstance(other, TruncSeries)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object) -> "TruncSeries":
        if _is_scalar(other):
            c, d = _pair(other)
            out = [_lowest(a * c, b * d) for a, b in zip(self.nums, self.dens)]
            return TruncSeries._of(self.order, *zip(*out))
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._same_order(other)
        an, ad, bn, bd = self.nums, self.dens, other.nums, other.dens
        ks = [k for k, a in enumerate(an) if a]
        out = [_lowest(*_dot(an, ad, ks, bn, bd, m)) for m in range(self.order + 1)]
        return TruncSeries._of(self.order, *zip(*out))

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
        an, ad = self.nums, self.dens
        if not an[0]:
            raise ValueError("series with zero constant term is not invertible")
        a0n, a0d = an[0], ad[0]
        out = _solve(
            an, ad, _lowest(a0d, a0n), self.order,
            lambda m, num, den: _lowest(-num * a0d, den * a0n),
        )
        return TruncSeries._of(self.order, *out)

    def log(self) -> "TruncSeries":
        """log of a one-unit: requires constant term exactly 1.

        Solves g' = l' g for l = log(g), with y_k = k l_k:
        y_m = m g_m - sum_{k=1}^{m} g_k y_{m-k}, y_0 = 0.
        """
        gn, gd = self.nums, self.dens
        if (gn[0], gd[0]) != (1, 1):
            raise ValueError("log requires constant term 1")
        n = self.order

        def step(m: int, num: int, den: int) -> tuple[int, int]:
            top, bottom = m * gn[m] * den - num * gd[m], gd[m] * den
            return (top, 1) if bottom == 1 else _lowest(top, bottom)

        yn, yd = _solve(gn, gd, (0, 1), n, step)
        ls = [(0, 1)] + [_lowest(yn[m], yd[m] * m) for m in range(1, n + 1)]
        return TruncSeries._of(n, *zip(*ls))

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term.

        Solves a' = u' a for a = exp(u):
        m a_m = sum_{k=1}^{m} k u_k a_{m-k}, a_0 = 1.
        """
        un, ud = self.nums, self.dens
        if un[0]:
            raise ValueError("exp requires constant term 0")
        n = self.order
        kun, kud = [0] * (n + 1), [1] * (n + 1)  # k u_k in lowest terms
        for k in range(1, n + 1):
            common = gcd(k, ud[k])
            kun[k] = k // common * un[k]
            kud[k] = ud[k] // common
        out = _solve(kun, kud, (1, 1), n, lambda m, num, den: _lowest(num, den * m))
        return TruncSeries._of(n, *out)

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
