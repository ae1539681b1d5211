"""Reference constructions that tests check the package against."""

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

from flagzeta.cells import CellDecomposition, FlagBundle, Grassmannian, SchemeExpr, _all_subspaces
from flagzeta.fields import finite_field
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


@lru_cache(maxsize=None)
def primes_by_trial_division(n: int) -> tuple[int, ...]:
    """The primes <= n, each m >= 2 kept when no smaller prime up to
    sqrt(m) divides it: no sieve, so a reference for ``primes_upto``."""
    primes: list[int] = []
    for m in range(2, n + 1):
        for p in primes:
            if p * p > m:
                primes.append(m)
                break
            if m % p == 0:
                break
        else:
            primes.append(m)
    return tuple(primes)


def quadratic_root_count(disc: int, p: int) -> int:
    """Roots mod p of the minimal polynomial of a generator of the integers
    of the quadratic field of discriminant disc: x^2 - x - (disc - 1)/4
    when disc = 1 mod 4, and x^2 - disc/4 when disc = 0 mod 4."""
    if disc % 4 == 1:
        return sum((x * x - x - (disc - 1) // 4) % p == 0 for x in range(p))
    if disc % 4:
        raise ValueError(f"{disc} is not a quadratic discriminant")
    return sum((x * x - disc // 4) % p == 0 for x in range(p))


@lru_cache(maxsize=None)
def quadratic_splitting(disc: int, p: int) -> tuple[tuple[int, int], ...]:
    """The primes above p in the quadratic field of discriminant disc, as
    (residue degree, count) pairs, by Dedekind-Kummer: a p dividing disc
    ramifies, ((1, 1),); any other p splits, ((1, 2),), when the minimal
    polynomial has a root mod p, and stays inert, ((2, 1),), when it has
    none.  The package reads the Kronecker symbol instead."""
    if disc % p == 0:
        return ((1, 1),)
    return ((1, 2),) if quadratic_root_count(disc, p) else ((2, 1),)


@lru_cache(maxsize=None)
def gf_tables(q: int) -> tuple[tuple, tuple]:
    """(add, mul) tables for F_q, q = p^f with f <= 3, elements encoded as 0..q-1.

    Element i is the polynomial of degree < f over F_p whose coefficient of
    x^j is the j-th base-p digit of i, so addition is digitwise mod p.
    Products are reduced by x^f = -low(x), where x^f + low(x) is the first
    monic polynomial, in the encoding order of low, with no root in F_p.
    For f <= 3 that makes it irreducible: a factorisation would need a
    factor of degree 1, that is a root.  (Every x + c has a root; for f = 1
    nothing is reduced and the modulus x serves.)  Row a of mul follows
    Horner's rule over the digits of b: a*b = b_0*a + x*(a*(b div p)).
    """
    field = finite_field(q)
    p, f = field.p, field.f
    if f > 3:
        raise ValueError("finite fields beyond cubic extensions not needed here")
    digits = [(i % p, i // p % p, i // p // p) for i in range(q)]  # 0 from x^f on
    add = tuple(
        tuple((a + x) % p + (b + y) % p * p + (c + z) % p * p * p for x, y, z in digits)
        for a, b, c in digits
    )
    scale = [  # scale[s][a] = s*a for s in F_p
        [s * a % p + s * b % p * p + s * c % p * p * p for a, b, c in digits]
        for s in range(p)
    ]
    low = next((i for i, (a, b, c) in enumerate(digits)
                if all((x**f + a + b * x + c * x * x) % p for x in range(p))), 0)
    top = q // p  # x * c shifts c's digits up; its top digit c // top wraps to -low
    times_x = [add[c % top * p][scale[-(c // top) % p][low]] for c in range(q)]
    mul = []
    for a in range(q):
        row = [0] * q
        for b in range(1, q):
            row[b] = add[times_x[row[b // p]]][scale[b % p][a]]
        mul.append(tuple(row))
    return add, tuple(mul)


def mat_mul(m, w, q):
    """The matrix product m·w over F_q, one entry at a time, in the
    reference tables."""
    add, mul = gf_tables(q)
    out = []
    for mrow in m:
        entries = []
        for c in range(len(w[0])):
            total = 0
            for x, wrow in zip(mrow, w):
                total = add[total][mul[x][wrow[c]]]
            entries.append(total)
        out.append(tuple(entries))
    return tuple(out)


def row_reduce(rows, q):
    """The reduced row-echelon basis of the span of rows over F_q, by
    Gauss-Jordan elimination in the reference tables: column by column,
    the first remaining row with a nonzero entry there is scaled to lead
    with 1 and cleared from every other row."""
    add, mul = gf_tables(q)
    inverse = [mul[x].index(1) if x else 0 for x in range(q)]
    negative = [row.index(0) for row in add]
    rows = [list(row) for row in rows]
    done = []
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[c]), None)
        if pivot is None:
            continue
        rows = [row for row in rows if row is not pivot]
        pivot = [mul[inverse[pivot[c]]][x] for x in pivot]
        for row in rows + done:
            if row[c]:
                scale = negative[row[c]]
                row[:] = [add[x][mul[scale][y]] for x, y in zip(row, pivot)]
        done.append(pivot)
    return tuple(map(tuple, done))


def unpack_subspace(key, q, n):
    """A packed RREF basis of F_q^n, q = p^f, as a tuple of element-code
    rows, read from the layout ``flagzeta.cells`` documents: digit j of
    entry c sits in slot c f + j, lowest first, of s + 1 bits with
    s = (2p - 2).bit_length()."""
    field = finite_field(q)
    p, f = field.p, field.f
    bits = (2 * p - 2).bit_length() + 1
    return tuple(
        tuple(
            sum((row >> (c * f + j) * bits & (1 << bits) - 1) * p**j for j in range(f))
            for c in range(n)
        )
        for row in key
    )


def reference_incidence(q, n, a, b):
    """For each RREF a x b matrix M, in ``_all_subspaces(q, b, a)`` order,
    the positions in ``_all_subspaces(q, n, a)`` of the spans of M·W over
    the b-subspaces W of F_q^n in ``_all_subspaces(q, n, b)`` order.

    Each product is multiplied out and row-reduced entry by entry in the
    reference tables, so the positions rest neither on the packed
    arithmetic nor on a product of RREF bases being RREF already; the
    package's lists of subspaces only fix the order."""
    position = {unpack_subspace(u, q, n): i for i, u in enumerate(_all_subspaces(q, n, a))}
    ws = [unpack_subspace(w, q, n) for w in _all_subspaces(q, n, b)]
    ms = [unpack_subspace(m, q, b) for m in _all_subspaces(q, b, a)]
    return [[position[row_reduce(mat_mul(m, w, q), q)] for w in ws] for m in ms]
