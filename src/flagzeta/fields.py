"""Number fields and finite fields as L-function bases.

A ``NumberField`` is the data the Dedekind zeta function and the rank
bookkeeping actually consume: degree, real and complex place counts
(r1, r2 with r1 + 2*r2 = degree), a discriminant when local factors are
wanted, and optionally an explicit prime-splitting table for fields of
degree above two.  A ``FiniteField`` is a prime power q = p^f.

A new kind is one L-side row here, a class with six entries, and one
K-side row in ``weights``; nothing else in the package asks which kind a
base is.  The L-side entries are

* ``orders``, the vanishing orders of its zeta function at s = 1, 0, -1,
  -2, a simple pole counting as -1;
* ``euler_values``, that function at real points s > 1 for
  floating-point sanity checks only: a finite Euler product over primes
  up to a bound, one sieve and one table of splittings for all the points
  asked of a base, or over F_q the closed form;
* ``euler_work``, that product's work per prime;
* ``zeta_value``, its exact value at an integer as a ``SpecialValue``
  (rational * pi^a) where that value is finite, nonzero and known in
  closed form, and None elsewhere: today the Riemann zeta function's,
  from the classical formulas ``special_value_rational``,
  zeta(1-k) = -B_k/k (k >= 2), and ``special_value_even``,
  zeta(2m) = (-1)^(m-1) (2 pi)^(2m) B_{2m} / (2 (2m)!);
* ``sort_key`` and ``q`` (None for a number field).

Class-level code, ``lfuncs`` and ``cells``, reads the rows directly.  The
functions below read them for one base: ``ord_at_integer`` is the order
at any integer, and ``zeta_partial_eval`` the Euler product at one point,
refusing all but finite s > 1 and bounds in [2, MAX_PRIME_BOUND] and
capping its work at MAX_EULER_WORK.

A kind's order, and its K-side chi, must vanish at t >= 2 and satisfy
f(t) = f(t - 2) for t <= -1: ``cells._window_sums`` reads a whole window
from f(1), f(0), f(-1) and f(-2) alone, which for the order is the row's
``orders``.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence, Union

from .series import bernoulli

__all__ = [
    "FiniteField",
    "NumberField",
    "SpecialValue",
    "UnsupportedFieldError",
    "rationals",
    "quadratic_field",
    "finite_field",
    "make_number_field",
    "zeta_partial_eval",
    "ord_at_integer",
    "special_value_rational",
    "special_value_even",
    "primes_upto",
]


class UnsupportedFieldError(Exception):
    """Raised when an operation needs splitting data the field does not carry."""


def primes_upto(n: int) -> list[int]:
    """All primes <= n, by a sieve of Eratosthenes over the odd numbers."""
    if n < 2:
        return []
    size = (n + 1) // 2  # odd[i] stands for 2i + 1
    odd = bytearray([1]) * size
    odd[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            p, start = 2 * i + 1, 2 * i * (i + 1)  # p * p = 2 start + 1
            odd[start::p] = bytes(len(range(start, size, p)))
    return [2, *compress(range(1, n + 1, 2), odd)]


# Integers are factored by trial division up to their square root, so
# larger ones (field sizes, radicands, discriminants, splitting keys) are
# refused rather than left to run for minutes.  An Euler product sieves
# every prime up to its bound, so that bound is capped too; over a number
# field it then builds one table entry per base and prime (a quadratic
# field splits once per residue class mod 4|disc|, a table field once per
# prime) and computes one local value per point and prime, so
# (bases + points) x bound is capped as well.
MAX_FACTORED = 10**12
MAX_PRIME_BOUND = 2_000_000
MAX_EULER_WORK = 10_000_000
MAX_INT_DIGITS = 1000  # of integer text (grammar, --k, options, catalogue), before int()


def _digits_refusal(text: str) -> Optional[str]:
    """Why an integer's text is refused before int() reads it, or None."""
    if (digits := len(text) - text.startswith("-")) > MAX_INT_DIGITS:
        return f"an integer of {digits} digits is above MAX_INT_DIGITS = {MAX_INT_DIGITS}"
    return None


def _read_int(text: str) -> int:
    """int(text), refused by ``_digits_refusal`` before int() reads it."""
    if why := _digits_refusal(text):
        raise ValueError(why)
    return int(text)


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
    """The finite field with q = p^f elements.

    Its zeta function 1/(1 - q^(-s)) is its one local factor, so its
    Euler product is that closed form at no cost per prime; it has no
    zero at an integer and one pole, at s = 0.
    """

    p: int
    f: int = 1

    orders = (0, -1, 0, 0)  # at s = 1, 0, -1, -2

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

    @property
    def sort_key(self) -> tuple:
        return (1, self.q, self.label)

    def euler_values(self, points: Sequence[float], prime_bound: int) -> list[float]:
        return [1.0 / (1.0 - self.q ** (-x)) for x in points]

    def euler_work(self, points: int) -> int:
        return 0

    def zeta_value(self, k: int) -> Optional[SpecialValue]:
        return None

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
    short of the degree).  It is only for degree >= 3, where the
    discriminant alone does not determine the local factors, and lists
    each prime once; a table on a smaller degree, or one naming a prime
    twice, is refused.  It is stored sorted by p, each entry's degrees
    sorted, so equal fields compare equal whatever order they were given in.

    Its Euler product up to a bound costs one sieve, one splitting per
    residue class of p mod 4|disc| (one in all over Q, one per prime for a
    table), one table entry per prime, and one local value per prime and
    point.
    """

    label: str
    degree: int
    r1: int
    r2: int
    disc: Optional[int] = None
    splitting: tuple[tuple[int, tuple[int, ...]], ...] = field(default=())

    q = None  # no residue field; unannotated, so not a dataclass field

    def __post_init__(self) -> None:
        where = f"field {self.label!r}:"
        if self.degree < 1:
            raise ValueError(f"{where} degree must be >= 1")
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError(f"{where} r1 and r2 must be non-negative")
        if self.r1 + 2 * self.r2 != self.degree:
            raise ValueError(
                f"{where} r1 + 2*r2 = {self.r1 + 2 * self.r2} "
                f"does not match degree {self.degree}"
            )
        if self.degree == 2 and self.disc is not None:
            if (self.disc > 0) != (self.r1 == 2):
                raise ValueError(
                    f"{where} quadratic discriminant sign must match the signature: "
                    "disc > 0 iff r1 = 2"
                )
            if self.disc % 4 > 1 or math.isqrt(max(self.disc, 0)) ** 2 == self.disc:
                raise ValueError(
                    f"{where} {self.disc} is no quadratic field's discriminant: "
                    "that is 0 or 1 mod 4 and not a square"
                )
        if self.splitting and self.degree <= 2:
            raise ValueError(
                f"{where} degree {self.degree} splits by its discriminant, not a table"
            )
        seen = set()
        for p, fs in self.splitting:
            if p in seen:
                raise ValueError(f"{where} splitting table lists p={p} twice")
            seen.add(p)
            if not _is_prime(p):
                raise ValueError(f"{where} splitting table key {p} is not prime")
            if not fs or any(f < 1 for f in fs):
                raise ValueError(f"{where} splitting entry for p={p} needs degrees >= 1")
            if sum(fs) > self.degree:
                raise ValueError(
                    f"{where} residue degrees above p={p} sum past the field degree"
                )
        canonical = tuple(sorted((p, tuple(sorted(fs))) for p, fs in self.splitting))
        object.__setattr__(self, "splitting", canonical)

    @property
    def orders(self) -> tuple[int, int, int, int]:
        """The orders at s = 1, 0, -1, -2, by the functional equation: the
        simple pole, r1 + r2 - 1 at s = 0, then r2 at odd s = -n and
        r1 + r2 at even s = -n."""
        return (-1, self.r1 + self.r2 - 1, self.r2, self.r1 + self.r2)

    @property
    def sort_key(self) -> tuple:
        # every field of the dataclass, so equal keys mean equal bases
        return (
            0, self.label, self.degree, self.r1, self.r2,
            self.disc is None, self.disc or 0, self.splitting,
        )

    def euler_values(self, points: Sequence[float], prime_bound: int) -> list[float]:
        table = _splitting_table(self, primes_upto(prime_bound))
        values = []
        for x in points:
            # ascending p, each local factor whole before it multiplies the
            # value: the order a per-prime reference product reproduces bit
            # for bit
            value = 1.0
            for p, degrees in table:
                local = 1.0
                for f, g in degrees:
                    local *= (1.0 - p ** (-f * x)) ** (-g)
                value *= local
            values.append(value)
        return values

    def euler_work(self, points: int) -> int:
        return 1 + points

    def zeta_value(self, k: int) -> Optional[SpecialValue]:
        """The zeta function at s = k in closed form, or None.

        Only finite, nonzero values are returned, and only the Riemann
        zeta function, that of a field of degree 1, has them here:
        -B_(1-k) / (1-k) at odd k <= -1, -1/2 at 0, and rational * pi^k
        at even k >= 2.  Every field of higher degree, the odd k >= 3,
        the pole and the trivial zeros give None.

        >>> print(rationals().zeta_value(-1))
        -1/12
        >>> print(rationals().zeta_value(2))
        1/6 * pi^2
        >>> print(rationals().zeta_value(3))
        None
        """
        if self.degree != 1 or ord_at_integer(self, k):
            return None
        if k <= -1:
            return special_value_rational(1 - k)
        if k == 0:
            return SpecialValue(Fraction(-1, 2))
        return special_value_even(k // 2) if k % 2 == 0 else None

    def __str__(self) -> str:
        return self.label


@lru_cache(maxsize=1)
def rationals() -> NumberField:
    """The field Q: degree 1, one real place, discriminant 1."""
    return NumberField("Q", 1, 1, 0, disc=1)


def _fundamental_discriminant(d: int) -> int:
    """The discriminant of Q(sqrt d) for squarefree d: d when d = 1 mod 4,
    and 4d otherwise."""
    return d if d % 4 == 1 else 4 * d


def quadratic_field(d: int) -> NumberField:
    """Q(sqrt d) for squarefree d not in {0, 1}, with its fundamental
    discriminant; the signature is (2, 0) for real fields and (0, 1) for
    imaginary ones.
    """
    if d in (0, 1):
        raise ValueError("d must be a squarefree integer other than 0 and 1")
    if _squarefree_part(d) != d:
        raise ValueError(f"{d} is not squarefree")
    r1, r2 = (2, 0) if d > 0 else (0, 1)
    return NumberField(f"Q(sqrt {d})", 2, r1, r2, disc=_fundamental_discriminant(d))


def _is_int(value: object) -> bool:
    """A true integer: JSON's true and false are not, nor is 1.5."""
    return isinstance(value, int) and not isinstance(value, bool)


def make_number_field(record: Mapping[str, object]) -> NumberField:
    """Build a validated NumberField from a plain configuration record.

    Expected keys: label, degree, r1, r2; disc is required for quadratic
    fields and optional above that; splitting is an optional mapping from
    prime (an ``int``, or ASCII digits as JSON writes it) to list of
    residue degrees, for degree >= 3 only, each prime listed once
    (``NumberField`` refuses anything else and sorts the table).  Every
    integer must be an ``int`` (not a bool); a wrong type is refused,
    naming the field and the key.  A non-fundamental quadratic
    discriminant is normalized to the fundamental one with a warning.
    """
    if not isinstance(record, Mapping):
        raise ValueError(f"field record {record!r} is not an object")
    for key in ("label", "degree", "r1", "r2"):
        if key not in record:
            raise ValueError(f"field record is missing key {key!r}")
    label = str(record["label"])
    ints = {key: record.get(key) for key in ("degree", "r1", "r2", "disc")}
    for key, value in ints.items():
        if not (_is_int(value) or (key == "disc" and value is None)):
            raise ValueError(f"field {label!r}: {key!r} must be an integer, got {value!r}")
    degree, r1, r2, disc = ints.values()
    if degree == 2:
        if disc is None:
            raise ValueError(f"field {label!r}: quadratic records must carry disc")
        d = _squarefree_part(disc)
        if d in (0, 1):
            raise ValueError(f"field {label!r}: disc {disc} is degenerate")
        fixed = _fundamental_discriminant(d)
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
        key_ok = _is_int(p) or (isinstance(p, str) and p.isascii() and p.isdigit())
        if not key_ok or not isinstance(fs, (list, tuple)) or not all(map(_is_int, fs)):
            raise ValueError(
                f"field {label!r}: splitting entry {p!r}: {fs!r} is not an "
                "integer prime and a list of integer degrees"
            )
        splitting.append((_read_int(p) if isinstance(p, str) else p, tuple(fs)))
    return NumberField(label, degree, r1, r2, disc=disc, splitting=tuple(splitting))


# -- Euler products ------------------------------------------------------


def _residue_degrees(fld: NumberField, p: int) -> tuple[tuple[int, int], ...]:
    """The primes above p as (residue degree f, count g) pairs, the local
    factor being prod (1 - p^(-f s))^(-g): one pair over Q, the Kronecker
    symbol of the discriminant for a quadratic field, and above that the
    splitting table, which must list p or the call is refused."""
    if fld.degree == 1:
        return ((1, 1),)
    if fld.degree == 2:
        if fld.disc is None:
            raise UnsupportedFieldError(
                f"field {fld.label!r} has no discriminant; cannot split p={p}"
            )
        disc = fld.disc
        if disc % p == 0:
            return ((1, 1),)  # ramified: one prime, f = 1
        if p == 2:
            split = disc % 8 == 1
        else:
            split = pow(disc % p, (p - 1) // 2, p) == 1
        return ((1, 2),) if split else ((2, 1),)
    table = fld.splitting  # sorted by p
    i = bisect_left(table, p, key=itemgetter(0))
    if i == len(table) or table[i][0] != p:
        raise UnsupportedFieldError(
            f"field {fld.label!r} has degree {fld.degree} and no splitting entry "
            f"for p={p}"
        )
    return tuple(sorted(Counter(table[i][1]).items()))


def _splitting_table(
    fld: NumberField, primes: Iterable[int]
) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """(p, ``_residue_degrees(fld, p)``) for each p in ``primes``.

    Over Q the degrees are one constant pair.  Over a quadratic field they
    are a function of p mod 4|disc|, a period of the Kronecker symbol of
    disc, so they are computed once per residue class: a class holding 2
    or a ramified p holds no other prime.  A table field is read once per
    prime, refused at the first p it does not list.
    """
    if fld.degree >= 3 or (fld.degree == 2 and fld.disc is None):
        return [(p, _residue_degrees(fld, p)) for p in primes]
    period = 4 * abs(fld.disc) if fld.degree == 2 else 1
    classes: dict[int, tuple[tuple[int, int], ...]] = {}
    table = []
    for p in primes:
        if (r := p % period) not in classes:
            classes[r] = _residue_degrees(fld, p)
        table.append((p, classes[r]))
    return table


def _check_euler_work(prime_bound: int, bases: Iterable[tuple[BaseField, int]]) -> None:
    """Refuse a prime bound outside [2, MAX_PRIME_BOUND], then an Euler
    product over ``bases``, (base, number of points) pairs, whose work per
    prime times the bound is above MAX_EULER_WORK.  The work per prime is
    each base's ``euler_work`` for its points."""
    work = sum(base.euler_work(n) for base, n in bases)
    if prime_bound < 2:
        raise ValueError(f"prime bound {prime_bound} is below 2: an empty product")
    if prime_bound > MAX_PRIME_BOUND:
        raise ValueError(
            f"prime bound {prime_bound} is above MAX_PRIME_BOUND = {MAX_PRIME_BOUND}"
        )
    if work * prime_bound > MAX_EULER_WORK:
        raise ValueError(
            f"Euler product of (bases + points) x prime bound = {work} x "
            f"{prime_bound} is above MAX_EULER_WORK = {MAX_EULER_WORK}"
        )


def zeta_partial_eval(fld: BaseField, s: float, prime_bound: int) -> float:
    """The zeta function of one base at real s > 1, as a float: its row's
    ``euler_values`` at the one point.  Class-level code reads the rows
    itself; ``lfuncs.lfun_partial_eval`` checks a whole class once.

    For a number field, the finite Euler product prod_{p <= bound} of
    local factors: monotone increasing in the bound, a diagnostic only.
    F_q has the one local factor 1/(1 - q^(-s)), returned exactly.
    An s that is not a finite real > 1, a bound outside
    [2, MAX_PRIME_BOUND], and a number field whose 2 x bound is above
    MAX_EULER_WORK are refused before any work.  A number field costs one
    sieve, one splitting per residue class mod 4|disc| (per prime for a
    table field), and one table entry and one local value per prime.
    """
    if not 1 < s < math.inf:  # nan too
        raise ValueError(f"s = {s}: an Euler product needs a finite s > 1")
    _check_euler_work(prime_bound, [(fld, 1)])
    return fld.euler_values((s,), prime_bound)[0]


# -- integer orders and special values ------------------------------------


def ord_at_integer(fld: BaseField, k: int) -> int:
    """Vanishing order of the zeta function of the base at s = k, a
    simple pole counting as -1: 0 for k >= 2, and below that the base's
    ``orders`` at s = 1, 0, -1, -2, repeated with period 2 from s = -1 down.
    """
    return 0 if k >= 2 else fld.orders[1 - k if k >= 0 else 3 - k % 2]


@dataclass(frozen=True)
class SpecialValue:
    """An exact zeta or L value at an integer: the monomial

        rational * pi^pi_power * prod L(label, s at point)^exponent

    over the (label, point, exponent) triples in ``factors``, the values
    kept unevaluated, together with ``order``, the vanishing order at the
    integer (negative at a pole).  Whenever order != 0 the value itself is
    0 or undefined and the order is the informative part.
    """

    rational: Fraction
    pi_power: int = 0
    factors: tuple[tuple[str, int, int], ...] = ()
    order: int = 0

    @property
    def kind(self) -> str:
        """Read off the data: "symbolic-product" if a factor is kept
        unevaluated, else "rational-times-pi-power" or "exact-rational"."""
        if self.factors:
            return "symbolic-product"
        return "rational-times-pi-power" if self.pi_power else "exact-rational"

    def approx(self) -> Optional[float]:
        """The value as a float; None if it is symbolic or beyond a float."""
        if self.factors:
            return None
        r = self.rational
        if not r:
            return 0.0
        try:
            value = float(r) * math.pi**self.pi_power
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
        # the rational, pi^a or their float product overflows: use logarithms
        log = math.log(abs(r.numerator)) - math.log(r.denominator)
        try:
            value = math.exp(log + self.pi_power * math.log(math.pi))
        except OverflowError:
            return None
        return -value if r < 0 else value

    def __str__(self) -> str:
        parts = []
        if self.rational != 1 or self.pi_power or not self.factors:
            parts.append(str(self.rational))
        if self.pi_power:
            parts.append(f"pi^{self.pi_power}")
        for label, point, e in self.factors:
            parts.append(f"L({label}, s at {point})" + (f"^{e}" if e != 1 else ""))
        body = " * ".join(parts)
        return f"{body} (order {self.order})" if self.order else body


def special_value_rational(k: int) -> SpecialValue:
    """zeta(1 - k) = -B_k / k for integer k >= 2, as an exact rational.

    Zero exactly when k is odd (trivial zeros, simple), reported with
    order 1 in that case.
    """
    if k < 2:
        raise ValueError("defined for k >= 2 only")
    value = -bernoulli(k) / k
    return SpecialValue(value, order=1 if value == 0 else 0)


def special_value_even(m: int) -> SpecialValue:
    """zeta(2m) = (-1)^(m-1) (2 pi)^(2m) B_{2m} / (2 (2m)!), m >= 1.

    Returned as (exact rational) * pi^(2m); for example zeta(2) = pi^2/6.
    """
    if m < 1:
        raise ValueError("defined for m >= 1 only")
    b = bernoulli(2 * m)  # first, so its bound refuses a large m before any work
    rational = Fraction((-1) ** (m - 1) * 2 ** (2 * m - 1), math.factorial(2 * m)) * b
    return SpecialValue(rational, pi_power=2 * m)


BaseField = Union[NumberField, FiniteField]


def base_sort_key(base: BaseField) -> tuple:
    """Deterministic ordering key for bases of every kind: the row's
    ``sort_key``, whose first entry orders the kinds."""
    return base.sort_key
