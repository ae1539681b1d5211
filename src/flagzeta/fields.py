"""Number fields and finite fields as L-function bases.

A ``NumberField`` is the data the Dedekind zeta function and the rank
bookkeeping actually consume: degree, real and complex place counts
(r1, r2 with r1 + 2*r2 = degree), a discriminant when local factors are
wanted, and optionally an explicit prime-splitting table for fields of
degree above two.  A ``FiniteField`` is a prime power q = p^f.

The module owns the L-side rules of every base kind, so the cell
calculus never asks which kind a base is (a new kind adds a branch to
the first two functions below, to ``base_sort_key`` and to the rank rule
``weights._base_entries``):

* ``ord_at_integer`` is the vanishing order of the base zeta function at
  each integer, a simple pole counting as -1;
* ``zeta_partial_eval`` evaluates it at real s > 1, for floating-point
  sanity checks only: a finite Euler product over primes up to a bound,
  or over F_q the closed form;
* ``special_value_rational`` and ``special_value_even`` return the exact
  classical values zeta(1-k) = -B_k/k (k >= 2) and
  zeta(2m) = (-1)^(m-1) (2 pi)^(2m) B_{2m} / (2 (2m)!).
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Union

from .series import bernoulli

__all__ = [
    "FiniteField",
    "NumberField",
    "SpecialValue",
    "UnsupportedFieldError",
    "EulerFactor",
    "rationals",
    "quadratic_field",
    "make_number_field",
    "euler_factor",
    "zeta_partial_eval",
    "ord_at_integer",
    "special_value_rational",
    "special_value_even",
    "primes_upto",
]


class UnsupportedFieldError(Exception):
    """Raised when an operation needs splitting data the field does not carry."""


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a plain sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


# Integers are factored by trial division up to their square root, so
# larger ones (field sizes, radicands, discriminants, splitting keys) are
# refused rather than left to run for minutes.  An Euler product sieves
# every prime up to its bound, so that bound is capped too.
MAX_FACTORED = 10**12
MAX_PRIME_BOUND = 2_000_000


def _smallest_prime_factor(n: int) -> int:
    """The smallest prime dividing n >= 2, by trial division up to sqrt(n)."""
    if n > MAX_FACTORED:
        raise ValueError(
            f"{n} is above the factoring bound MAX_FACTORED = {MAX_FACTORED}"
        )
    if n % 2 == 0:
        return 2
    for p in range(3, math.isqrt(n) + 1, 2):
        if n % p == 0:
            return p
    return n


def _is_prime(n: int) -> bool:
    return n >= 2 and _smallest_prime_factor(n) == n


def _squarefree_part(n: int) -> int:
    """The squarefree integer d with n = d * (square)."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    d = 1
    while n > 1:
        p = _smallest_prime_factor(n)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2 == 1:
            d *= p
    return sign * d


@dataclass(frozen=True)
class FiniteField:
    """The finite field with q = p^f elements."""

    p: int
    f: int = 1

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.f < 1:
            raise ValueError("extension degree must be >= 1")

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def label(self) -> str:
        return f"F({self.q})"

    def __str__(self) -> str:
        return self.label


def finite_field(q: int) -> FiniteField:
    """FiniteField from a prime power written multiplicatively, e.g. 9 = 3^2."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = _smallest_prime_factor(q)
    f = 0
    m = q
    while m % p == 0:
        m //= p
        f += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return FiniteField(p, f)


@dataclass(frozen=True)
class NumberField:
    """A number field described by its archimedean and (optional) local data.

    ``splitting`` maps a rational prime p to the tuple of residue degrees
    of the primes above p (ramification is implicit in the sum falling
    short of the degree); it is only consulted for degree >= 3, where the
    discriminant alone does not determine the local factors.
    """

    label: str
    degree: int
    r1: int
    r2: int
    disc: Optional[int] = None
    splitting: tuple[tuple[int, tuple[int, ...]], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("r1 and r2 must be non-negative")
        if self.r1 + 2 * self.r2 != self.degree:
            raise ValueError(
                f"r1 + 2*r2 = {self.r1 + 2 * self.r2} does not match degree {self.degree}"
            )
        if self.degree == 2 and self.disc is not None:
            if (self.disc > 0) != (self.r1 == 2):
                raise ValueError(
                    "quadratic discriminant sign must match the signature: "
                    "disc > 0 iff r1 = 2"
                )
        for p, fs in self.splitting:
            if not _is_prime(p):
                raise ValueError(f"splitting table key {p} is not prime")
            if not fs or any(f < 1 for f in fs):
                raise ValueError(f"splitting entry for p={p} must list degrees >= 1")
            if sum(fs) > self.degree:
                raise ValueError(
                    f"residue degrees above p={p} sum past the field degree"
                )

    def __str__(self) -> str:
        return self.label


@lru_cache(maxsize=1)
def rationals() -> NumberField:
    """The field Q: degree 1, one real place, discriminant 1."""
    return NumberField("Q", 1, 1, 0, disc=1)


def quadratic_field(d: int, label: Optional[str] = None) -> NumberField:
    """Q(sqrt d) for squarefree d not in {0, 1}.

    The fundamental discriminant is d when d = 1 mod 4 and 4d otherwise;
    the signature is (2, 0) for real fields and (0, 1) for imaginary ones.
    """
    if d in (0, 1):
        raise ValueError("d must be a squarefree integer other than 0 and 1")
    if _squarefree_part(d) != d:
        raise ValueError(f"{d} is not squarefree")
    disc = d if d % 4 == 1 else 4 * d
    r1, r2 = (2, 0) if d > 0 else (0, 1)
    return NumberField(label or f"Q(sqrt {d})", 2, r1, r2, disc=disc)


def make_number_field(record: Mapping[str, object]) -> NumberField:
    """Build a validated NumberField from a plain configuration record.

    Expected keys: label, degree, r1, r2; disc is required for quadratic
    fields and optional above that; splitting is an optional mapping from
    prime to list of residue degrees.  A non-fundamental quadratic
    discriminant is normalized to the fundamental one with a warning.
    """
    try:
        label = str(record["label"])
        degree = int(record["degree"])  # type: ignore[arg-type]
        r1 = int(record["r1"])  # type: ignore[arg-type]
        r2 = int(record["r2"])  # type: ignore[arg-type]
    except KeyError as exc:
        raise ValueError(f"field record is missing key {exc.args[0]!r}") from None
    disc = record.get("disc")
    disc = int(disc) if disc is not None else None  # type: ignore[arg-type]
    if degree == 2:
        if disc is None:
            raise ValueError(f"field {label!r}: quadratic records must carry disc")
        d = _squarefree_part(disc)
        if d in (0, 1):
            raise ValueError(f"field {label!r}: disc {disc} is degenerate")
        fixed = d if d % 4 == 1 else 4 * d  # the discriminant of Q(sqrt d)
        if fixed != disc:
            warnings.warn(
                f"field {label!r}: discriminant {disc} is not fundamental; "
                f"using {fixed}",
                stacklevel=2,
            )
            disc = fixed
    splitting_raw = record.get("splitting") or {}
    if not isinstance(splitting_raw, Mapping):
        raise ValueError(f"field {label!r}: splitting must map primes to degree lists")
    splitting = []
    for p, fs in splitting_raw.items():
        try:
            splitting.append((int(p), tuple(int(f) for f in fs)))
        except (TypeError, ValueError):
            raise ValueError(
                f"field {label!r}: splitting entry {p!r}: {fs!r} is not an "
                "integer prime and a list of integer degrees"
            ) from None
    splitting.sort()
    return NumberField(label, degree, r1, r2, disc=disc, splitting=tuple(splitting))


# -- Euler factors -------------------------------------------------------


@dataclass(frozen=True)
class EulerFactor:
    """The shape of the local factor of a Dedekind zeta function at p.

    ``primes`` lists (residue degree f, multiplicity g) pairs, one pair
    per residue degree occurring among the primes above p; the local
    factor is prod (1 - p^(-f s))^(-g).
    """

    p: int
    primes: tuple[tuple[int, int], ...]

    def value(self, s: float) -> float:
        out = 1.0
        for f, g in self.primes:
            out *= (1.0 - self.p ** (-f * s)) ** (-g)
        return out


def euler_factor(fld: NumberField, p: int) -> EulerFactor:
    """Residue-degree data of the primes above p.

    Degree 1 is immediate; quadratic fields read the answer off the
    Kronecker symbol of the discriminant; anything larger must carry an
    explicit splitting entry for p or the call is refused.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _euler_factor(fld, p)


def _euler_factor(fld: NumberField, p: int) -> EulerFactor:
    if fld.degree == 1:
        return EulerFactor(p, ((1, 1),))
    table = dict(fld.splitting)
    if p in table:
        return EulerFactor(p, tuple(sorted(Counter(table[p]).items())))
    if fld.degree == 2:
        if fld.disc is None:
            raise UnsupportedFieldError(
                f"field {fld.label!r} has no discriminant; cannot split p={p}"
            )
        disc = fld.disc
        if disc % p == 0:
            return EulerFactor(p, ((1, 1),))  # ramified: one prime, f = 1
        if p == 2:
            split = disc % 8 == 1
        else:
            split = pow(disc % p, (p - 1) // 2, p) == 1
        return EulerFactor(p, ((1, 2),) if split else ((2, 1),))
    raise UnsupportedFieldError(
        f"field {fld.label!r} has degree {fld.degree} and no splitting entry "
        f"for p={p}"
    )


def zeta_partial_eval(fld: BaseField, s: float, prime_bound: int) -> float:
    """The zeta function of the base at real s > 1, as a float.

    For a number field, the finite Euler product prod_{p <= bound} of
    local factors: monotone increasing in the bound, a diagnostic only.
    F_q has the one local factor 1/(1 - q^(-s)), returned exactly.
    """
    if s <= 1:
        raise ValueError("the Euler product only converges for s > 1")
    if prime_bound > MAX_PRIME_BOUND:
        raise ValueError(
            f"prime bound {prime_bound} is above MAX_PRIME_BOUND = {MAX_PRIME_BOUND}"
        )
    if isinstance(fld, FiniteField):
        return 1.0 / (1.0 - fld.q ** (-s))
    out = 1.0
    for p in primes_upto(prime_bound):
        out *= _euler_factor(fld, p).value(s)
    return out


# -- integer orders and special values ------------------------------------


def ord_at_integer(fld: BaseField, k: int) -> int:
    """Vanishing order of the zeta function of the base at s = k.

    For a number field, by the functional equation: 0 for k >= 2, -1 at
    the simple pole k = 1, r1 + r2 - 1 at k = 0, and at k = -n (n >= 1)
    the order is r2 for odd n and r1 + r2 for even n.  For F_q,
    1/(1 - q^(-s)) has its only integer pole at k = 0: -1 there, else 0.
    """
    if k >= 2:
        return 0
    if type(fld) is FiniteField:  # after the common k >= 2 exit: this is hot
        return -1 if k == 0 else 0
    if k == 1:
        return -1
    if k == 0:
        return fld.r1 + fld.r2 - 1
    n = -k
    return fld.r2 if n % 2 == 1 else fld.r1 + fld.r2


@dataclass(frozen=True)
class SpecialValue:
    """An exact (or deliberately symbolic) zeta or L value at an integer.

    kind: "exact-rational" | "rational-times-pi-power" | "symbolic-product".
    For the first two kinds the value is rational * pi^pi_power.  A
    symbolic product keeps unevaluated (field label, point, exponent)
    triples next to whatever rational prefactor was evaluable.  ``order``
    is the vanishing order at the point (negative at a pole); whenever
    order != 0 the value itself is 0 or undefined and the order is the
    informative part.
    """

    kind: str
    rational: Fraction = Fraction(0)
    pi_power: int = 0
    factors: tuple[tuple[str, int, int], ...] = ()
    order: int = 0

    def approx(self) -> float:
        if self.kind == "exact-rational":
            return float(self.rational)
        if self.kind == "rational-times-pi-power":
            return float(self.rational) * math.pi**self.pi_power
        raise ValueError(f"no numeric value for kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "exact-rational":
            if self.rational == 0 and self.order:
                return f"0 (order {self.order})"
            return str(self.rational)
        if self.kind == "rational-times-pi-power":
            return f"{self.rational} * pi^{self.pi_power}"
        parts = " * ".join(
            f"L({label}, s at {point})^{e}" if e != 1 else f"L({label}, s at {point})"
            for label, point, e in self.factors
        )
        prefix = ""
        if self.rational != 1 or self.pi_power:
            prefix = f"{self.rational}"
            if self.pi_power:
                prefix += f" * pi^{self.pi_power}"
            prefix += " * "
        body = f"{prefix}{parts}" if parts else prefix.rstrip(" *")
        if self.order:
            body += f" (order {self.order})"
        return body


def special_value_rational(k: int) -> SpecialValue:
    """zeta(1 - k) = -B_k / k for integer k >= 2, as an exact rational.

    Zero exactly when k is odd (trivial zeros, simple), reported with
    order 1 in that case.
    """
    if k < 2:
        raise ValueError("defined for k >= 2 only")
    value = -bernoulli(k) / k
    return SpecialValue(
        "exact-rational", rational=value, order=1 if value == 0 else 0
    )


def special_value_even(m: int) -> SpecialValue:
    """zeta(2m) = (-1)^(m-1) (2 pi)^(2m) B_{2m} / (2 (2m)!), m >= 1.

    Returned as (exact rational) * pi^(2m); for example zeta(2) = pi^2/6.
    """
    if m < 1:
        raise ValueError("defined for m >= 1 only")
    rational = (
        Fraction((-1) ** (m - 1) * 2 ** (2 * m - 1), math.factorial(2 * m))
        * bernoulli(2 * m)
    )
    return SpecialValue("rational-times-pi-power", rational=rational, pi_power=2 * m)


BaseField = Union[NumberField, FiniteField]


def base_sort_key(base: BaseField) -> tuple:
    """Deterministic ordering key for mixed number-field/finite-field bases."""
    if isinstance(base, NumberField):
        return (0, base.label, base.degree, base.r1, base.r2, base.disc or 0)
    return (1, base.q, base.label)
