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

>>> g = TruncSeries(4, [1, -1])          # 1 - t
>>> print(g.log())
-t - 1/2*t^2 - 1/3*t^3 - 1/4*t^4
>>> g.log().exp() == g
True

Bernoulli numbers use the B_1 = -1/2 convention and are defined by the
recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0 for k >= 1 with B_0 = 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Union

__all__ = ["TruncSeries", "bernoulli"]

Scalar = Union[int, Fraction]

# B_k sums k fractions that grow with k; larger indices are refused.
MAX_BERNOULLI_INDEX = 500


class TruncSeries:
    """An element of Q[t]/(t^(order+1)), held as exact rational coefficients.

    Instances are immutable.  Binary operations insist that both operands
    share the same truncation order; mixing orders raises ``ValueError``
    rather than silently coercing, since a coerced result would carry
    fewer trustworthy coefficients than its order claims.

    >>> a = TruncSeries(3, [1, -1])          # 1 - t
    >>> b = TruncSeries(3, [1, -2])          # 1 - 2t
    >>> print((a * b).inverse())
    1 + 3*t + 7*t^2 + 15*t^3
    """

    __slots__ = ("_coeffs",)

    def __init__(self, order: int, coeffs: Iterable[Scalar] = ()) -> None:
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > order + 1:
            # Constructing from a longer list is reduction mod t^(order+1).
            cs = cs[: order + 1]
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncSeries is immutable")

    # -- basic structure ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside 0..{self.order}")
        return self._coeffs[i]

    @property
    def constant(self) -> Fraction:
        return self._coeffs[0]

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls(order, [1])

    @classmethod
    def var(cls, order: int) -> "TruncSeries":
        """The coordinate t itself."""
        return cls(order, [0, 1])

    def _same_order(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    # -- ring operations ------------------------------------------------

    def __add__(self, other: object) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            cs = list(self._coeffs)
            cs[0] += other
            return TruncSeries(self.order, cs)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._same_order(other)
        return TruncSeries(
            self.order, [a + b for a, b in zip(self._coeffs, other._coeffs)]
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, [-a for a in self._coeffs])

    def __sub__(self, other: object) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other: object) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            return TruncSeries(self.order, [a * other for a in self._coeffs])
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._same_order(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self._coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other._coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncSeries(n, out)

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
        a0 = self._coeffs[0]
        if a0 == 0:
            raise ValueError("series with zero constant term is not invertible")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = 1 / a0
        for m in range(1, n + 1):
            acc = Fraction(0)
            for k in range(1, m + 1):
                if self._coeffs[k]:
                    acc += self._coeffs[k] * out[m - k]
            out[m] = -acc / a0
        return TruncSeries(n, out)

    def log(self) -> "TruncSeries":
        """log of a one-unit: requires constant term exactly 1.

        Solves g' = l' g for l = log(g):
        m l_m = m g_m - sum_{k=1}^{m-1} k l_k g_{m-k}.
        """
        g = self._coeffs
        if g[0] != 1:
            raise ValueError("log requires constant term 1")
        n = self.order
        kl = [Fraction(0)] * (n + 1)  # kl[k] = k * l_k
        for m in range(1, n + 1):
            acc = m * g[m]
            for k in range(1, m):
                if kl[k] and g[m - k]:
                    acc -= kl[k] * g[m - k]
            kl[m] = acc
        return TruncSeries(n, [0] + [kl[m] / m for m in range(1, n + 1)])

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term.

        Solves a' = u' a for a = exp(u):
        m a_m = sum_{k=1}^{m} k u_k a_{m-k}, a_0 = 1.
        """
        u = self._coeffs
        if u[0] != 0:
            raise ValueError("exp requires constant term 0")
        n = self.order
        ku = [k * c for k, c in enumerate(u)]
        a = [Fraction(1)] + [Fraction(0)] * n
        for m in range(1, n + 1):
            acc = Fraction(0)
            for k in range(1, m + 1):
                if ku[k] and a[m - k]:
                    acc += ku[k] * a[m - k]
            a[m] = acc / m
        return TruncSeries(n, a)

    # -- comparison / display --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncSeries({self.order}, {[str(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self._coeffs):
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


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """The k-th Bernoulli number, convention B_1 = -1/2.

    Defined by B_0 = 1 and the recurrence
    sum_{j=0}^{k} C(k+1, j) B_j = 0 for k >= 1,
    solved for B_k.  Exact for all k; values are cached.

    >>> bernoulli(2), bernoulli(3), bernoulli(4)
    (Fraction(1, 6), Fraction(0, 1), Fraction(-1, 30))
    """
    if k < 0:
        raise ValueError("Bernoulli numbers are indexed by k >= 0")
    if k > MAX_BERNOULLI_INDEX:
        raise ValueError(
            f"Bernoulli index {k} is above MAX_BERNOULLI_INDEX = {MAX_BERNOULLI_INDEX}"
        )
    if k == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(k):
        acc += comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)
