"""Tests for q-multinomials, cell decompositions, and flag enumeration."""

import dataclasses
import itertools
import random
from array import array
from functools import lru_cache
from math import factorial, prod

import pytest

import flagzeta.cells
from flagzeta.cells import (
    MAX_CELL_DEGREE,
    MAX_CONVOLUTION_STRATA,
    Affine,
    BasePoint,
    CellDecomposition,
    DisjointUnion,
    FlagBundle,
    Grassmannian,
    ProjBundle,
    QPolynomial,
    brute_force_flag_count,
    cells_of,
    gaussian_binomial,
    gaussian_multinomial,
    point_count,
)
from flagzeta.fields import FiniteField, finite_field, quadratic_field, rationals
from flagzeta.lfuncs import weil_zeta_rational, weil_zeta_series
from flagzeta.parse import parse_scheme
from flagzeta.verify import check_soule
from oracles import (
    flag_as_grassmannian_tower,
    gf_tables,
    mat_mul,
    reference_incidence,
    reference_point_count,
    unpack_subspace,
)

Q = rationals()
QI = quadratic_field(-1)
F2 = FiniteField(2)
F3 = FiniteField(3)


def compositions(n):
    """All ordered tuples of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


# -- Gaussian binomials and multinomials -------------------------------------


def test_gaussian_binomial_small():
    assert gaussian_binomial(2, 1) == QPolynomial((1, 1))
    assert gaussian_binomial(4, 2) == QPolynomial((1, 1, 2, 1, 1))
    assert gaussian_binomial(4, 2)(2) == 35
    assert gaussian_binomial(3, 5) == QPolynomial(())


@lru_cache(maxsize=None)
def recursive_gaussian_binomial(n, k):
    """The q-Pascal recursion on n, kept as the reference for small n."""
    if k > n:
        return ()
    if k == 0 or k == n:
        return (1,)
    left = recursive_gaussian_binomial(n - 1, k - 1)
    shifted = (0,) * k + recursive_gaussian_binomial(n - 1, k)
    out = [0] * max(len(left), len(shifted))
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(shifted):
        out[i] += c
    return tuple(out)


def test_gaussian_binomial_matches_recursion():
    for n in range(41):
        for k in range(n + 2):
            assert gaussian_binomial(n, k).coeffs == recursive_gaussian_binomial(n, k)


def telescoping_gaussian_multinomial(n, parts):
    """prod_i [n - n_1 - ... - n_{i-1} choose n_i]_q, each factor from the
    recursion, multiplied out term by term: the reference for small n."""
    out = (1,)
    for p in parts:
        factor = recursive_gaussian_binomial(n, p)
        product = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        out = tuple(product)
        n -= p
    return out


def test_gaussian_multinomial_matches_telescoping_product():
    for n in range(1, 11):
        for parts in compositions(n):
            assert gaussian_multinomial(n, parts).coeffs == (
                telescoping_gaussian_multinomial(n, parts)
            ), parts


def test_gaussian_binomial_has_no_recursion_depth_limit():
    # P^1199 as the Grassmannian of lines in rank 1200
    assert cells_of(Grassmannian(BasePoint(Q), 1, 1200)) == cells_of(
        ProjBundle(BasePoint(Q), 1199)
    )
    assert gaussian_binomial(995, 2)(1) == 995 * 994 // 2


def test_degree_zero_nodes_answer_at_once():
    # [n 0]_q = [n n]_q = 1: degree 0, so no factor to multiply out
    n = 10**24
    assert gaussian_binomial(n, 0) == QPolynomial((1,))
    assert gaussian_binomial(n, n) == QPolynomial((1,))
    for x in (
        Grassmannian(BasePoint(Q), 0, n),
        Grassmannian(BasePoint(Q), n, n),
        FlagBundle(BasePoint(Q), (n,)),
    ):
        assert cells_of(x).strata == ((Q, 0, 1),)


def test_cell_polynomial_degree_is_bounded():
    assert cells_of(ProjBundle(BasePoint(Q), MAX_CELL_DEGREE)).max_shift() == 4096
    for x in (
        ProjBundle(BasePoint(Q), MAX_CELL_DEGREE + 1),
        Grassmannian(BasePoint(Q), 64, 129),  # degree 64 * 65
        FlagBundle(BasePoint(Q), (64, 65)),
        FlagBundle(BasePoint(Q), (1,) * 92),  # degree 92 * 91 / 2
    ):
        with pytest.raises(ValueError, match="MAX_CELL_DEGREE = 4096"):
            cells_of(x)


def test_convolution_size_is_bounded():
    child = cells_of(ProjBundle(BasePoint(Q), 499))  # 500 strata
    bound = f"MAX_CONVOLUTION_STRATA = {MAX_CONVOLUTION_STRATA}"
    with pytest.raises(ValueError, match=bound):
        child.convolved(QPolynomial((1,) * 501))
    # a polynomial with zero coefficients is counted by its degree, which
    # sets the slots of the product: 500 x 502
    with pytest.raises(ValueError, match="251000 strata"):
        child.convolved(QPolynomial((1,) + (0,) * 500 + (1,)))
    with pytest.raises(ValueError, match="250500 strata"):
        cells_of(ProjBundle(ProjBundle(BasePoint(Q), 499), 500))


def test_public_gaussian_polynomials_are_bounded():
    bound = "MAX_CELL_DEGREE = 4096"
    for n in (5000, 10**24):
        with pytest.raises(ValueError, match=bound):
            gaussian_binomial(n, 1)
    with pytest.raises(ValueError, match=bound):
        gaussian_multinomial(5000, (1, 4999))


# Large flag types of five shapes, with their degrees; 91 ones is the largest
# complete flag under MAX_CELL_DEGREE.
BIG_FLAG_TYPES = {
    "91 ones": ((1,) * 91, 4095),
    "nine blocks of 10": ((10,) * 9, 3600),
    "1 to 12": (tuple(range(1, 13)), 2717),
    "30+31+30": ((30, 31, 30), 2760),
    "45+45": ((45, 45), 2025),
}


@pytest.mark.parametrize("parts, degree", BIG_FLAG_TYPES.values(), ids=BIG_FLAG_TYPES)
def test_big_flag_types_match_closed_forms(parts, degree):
    n = sum(parts)
    poly = gaussian_multinomial(n, parts)
    cs = poly.coeffs
    assert len(cs) - 1 == degree == (n * n - sum(p * p for p in parts)) // 2
    assert cs == tuple(reversed(cs)) and cs[0] == 1
    assert poly(1) == factorial(n) // prod(map(factorial, parts))

    def q_factorial(m, q):
        return prod(q**i - 1 for i in range(1, m + 1))

    for q in (2, 3):
        flags, rest = divmod(q_factorial(n, q), prod(q_factorial(p, q) for p in parts))
        assert rest == 0 and poly(q) == flags, q


def test_gaussian_multinomial_complete_flag():
    m = gaussian_multinomial(3, (1, 1, 1))
    assert m == QPolynomial((1, 2, 2, 1))
    assert m(2) == 21
    assert str(m) == "1 + 2*q + 2*q^2 + q^3"


def test_multinomial_at_one_is_multinomial_coefficient():
    for n in range(1, 6):
        for parts in compositions(n):
            expected = factorial(n)
            for p in parts:
                expected //= factorial(p)
            assert gaussian_multinomial(n, parts)(1) == expected


def test_multinomial_is_monic_palindromic_with_known_degree():
    for n in range(1, 6):
        for parts in compositions(n):
            poly = gaussian_multinomial(n, parts)
            cs = poly.coeffs
            assert cs[0] == 1 and cs[-1] == 1
            assert cs == tuple(reversed(cs))
            assert len(cs) - 1 == (n * n - sum(p * p for p in parts)) // 2


def test_multinomial_rejects_bad_type():
    with pytest.raises(ValueError):
        gaussian_multinomial(4, (2, 3))
    with pytest.raises(ValueError):
        gaussian_multinomial(3, ())
    with pytest.raises(ValueError):
        gaussian_multinomial(3, (0, 3))


# -- brute-force flag enumeration ---------------------------------------------


def test_brute_force_small_counts():
    assert brute_force_flag_count((1, 2), 2, 3) == 7  # lines in F_2^3
    assert brute_force_flag_count((2, 2), 2, 4) == 35
    assert brute_force_flag_count((1, 1, 1), 2, 3) == 21
    assert brute_force_flag_count((1, 1), 3, 2) == 4  # P^1(F_3)
    assert brute_force_flag_count((1, 1), 4, 2) == 5  # needs GF(4) arithmetic
    assert brute_force_flag_count((3,), 2, 3) == 1


def test_brute_force_refuses_large_spaces():
    with pytest.raises(ValueError, match="enumeration bound"):
        brute_force_flag_count((1, 1, 1, 1, 1), 5, 5)
    # refused without forming q^n, whose digits alone would not print
    with pytest.raises(ValueError, match="enumeration bound.* q = 2, n = 1000000"):
        brute_force_flag_count((10**6,), 2, 10**6)


# the flag oracle's fields: every prime power q <= 53 of degree f <= 3 over F_p
ORACLE_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49, 53)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_gf_tables_are_a_field(q):
    add, mul = gf_tables(q)
    elements, nonzero = range(q), range(1, q)
    for a in elements:
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        assert all(add[a][b] == add[b][a] and mul[a][b] == mul[b][a] for b in elements)
        assert 0 in add[a]  # additive inverse
    assert all(1 in mul[a] for a in nonzero)  # inverses
    assert all(mul[a][b] for a in nonzero for b in nonzero)  # no zero divisors
    p = finite_field(q).p
    sums = [0]  # 1 added p times is the first 0
    for _ in range(p):
        sums.append(add[sums[-1]][1])
    assert sums.index(0, 1) == p
    if q == p:
        return
    for a, b, c in itertools.product(elements, repeat=3):
        assert add[add[a][b]][c] == add[a][add[b][c]], (a, b, c)
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]], (a, b, c)
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]], (a, b, c)


def test_gf_tables_refuse_beyond_cubic_extensions():
    # the reference tables and the enumerator refuse alike
    for refuse in (gf_tables, lambda q: brute_force_flag_count((1,), q, 1)):
        with pytest.raises(ValueError, match="beyond cubic extensions"):
            refuse(81)
        with pytest.raises(ValueError, match="not a prime power"):
            refuse(6)


def test_gaussian_matches_enumeration_everywhere_feasible():
    for q in ORACLE_QS:
        for n in range(1, 6):
            if q**n > 3000:
                continue
            for parts in compositions(n):
                assert gaussian_multinomial(n, parts)(q) == brute_force_flag_count(
                    parts, q, n
                ), (q, n, parts)


def clear_caches():
    """Empty every cache of the cells module, found rather than listed, so
    that no enumerator cache is left warm; the set of them."""
    caches = {f for f in vars(flagzeta.cells).values() if hasattr(f, "cache_clear")}
    for cache in caches:
        cache.cache_clear()
    return caches


def test_enumeration_does_not_use_the_product_formula(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the oracle called a Gaussian polynomial")

    cells = flagzeta.cells
    assert {cells._chain_counts, cells._x_powers, cells._incidence} <= clear_caches()
    monkeypatch.setattr(cells, "gaussian_binomial", forbidden)
    monkeypatch.setattr(cells, "gaussian_multinomial", forbidden)
    monkeypatch.setattr(cells, "_cell_polynomial", forbidden)
    # a line of F_3^4 (40 choices), then a plane in the 3-dim quotient (13)
    assert brute_force_flag_count((1, 2, 1), 3, 4) == 40 * 13
    # over F_9 the F_3-basis of a plane needs x times its rows
    assert brute_force_flag_count((1, 1, 1), 9, 3) == 91 * 10


def test_each_incidence_is_built_once_per_field():
    # every flag type of F_2^5 reads the step a < b from one incidence:
    # one build for each pair 1 <= a < b <= 4
    cells = flagzeta.cells
    clear_caches()
    for parts in compositions(5):
        assert brute_force_flag_count(parts, 2, 5) == gaussian_multinomial(5, parts)(2)
    assert cells._incidence.cache_info().misses == 6


def test_a_product_that_is_not_rref_raises(monkeypatch):
    # the enumerator looks a product up as it stands: with rows 0 and 1 of
    # one plane M swapped in the row plan, no product M·W is a key, and
    # the count is refused, not wrong
    cells = flagzeta.cells
    clear_caches()
    row_plan = cells._row_plan
    swapped = []

    def swapping(q, b, a):
        steps, columns = row_plan(q, b, a)
        if a < 2 or swapped:
            return steps, columns
        swapped.append((q, b, a))
        first, second = list(columns[0]), list(columns[1])
        first[0], second[0] = second[0], first[0]
        return steps, (tuple(first), tuple(second), *columns[2:])

    monkeypatch.setattr(cells, "_row_plan", swapping)
    with pytest.raises(KeyError):
        brute_force_flag_count((2, 1, 1), 2, 4)
    assert swapped == [(2, 3, 2)]


def test_the_flag_enumeration_is_bounded_before_it_lists(monkeypatch):
    # the subspaces a flag type forms are counted from the pivot patterns
    # before any is listed, and a type over the bound is refused unlisted
    cells = flagzeta.cells
    clear_caches()

    def forbidden(*args):
        raise AssertionError("a subspace was listed")

    monkeypatch.setattr(cells, "_all_subspaces", forbidden)
    for parts in ((1,) * 9, (2, 5, 2), (4, 1, 1, 2)):
        with pytest.raises(ValueError, match="above MAX_FLAG_SUBSPACES = 2500000$"):
            brute_force_flag_count(parts, 2, sum(parts))
    monkeypatch.undo()
    clear_caches()
    # the count is the lists and products the enumerator makes: 2^3 has
    # 7 lines and 7 planes, and each plane holds 3 lines
    assert cells._enumeration_size(2, 3, (1, 2)) == 7 + 7 + 7 * 3
    assert all(
        cells._subspace_count(q, n, k) == len(cells._all_subspaces(q, n, k))
        for q, top in ((2, 7), (3, 5), (4, 4), (9, 3))
        for n in range(top + 1)
        for k in range(n + 1)
    )
    # the same space answers a type inside the bound, and the largest
    # space of every test grid answers every type
    assert brute_force_flag_count((1, 8), 2, 9) == 511
    assert max(
        cells._enumeration_size(4, 5, tuple(itertools.accumulate(parts))[:-1])
        for parts in compositions(5)
        if len(parts) > 1
    ) <= cells.MAX_FLAG_SUBSPACES


def test_every_packed_vector_fits_its_lane():
    # _incidence gives each b-subspace one lane of a big int: every
    # vector the enumerator accepts fits it, and lanes add and reduce
    # side by side as one vector does alone
    cells = flagzeta.cells
    bits = 8 * array(cells._LANE).itemsize
    widest = 0
    for q in range(2, 3001):
        try:
            if finite_field(q).f > 3:
                continue
        except ValueError:
            continue  # not a prime power
        for n in itertools.takewhile(lambda n: q**n <= 3000, itertools.count(1)):
            p, f, s, bias, lows = cells._packing(q, n)
            widest = max(widest, n * f * (s + 1))
            assert widest <= bits, (q, n)
            top = cells._pack([q - 1] * n, q)  # every digit p - 1
            side = [top, 0, top, cells._pack([1] * n, q)]
            t = cells._lanes(side) + cells._lanes(side[::-1])
            reduced = t - ((t + cells._lanes([bias] * 4)) >> s & cells._lanes([lows] * 4)) * p
            want = [packed_sum(u, v, q, n) for u, v in zip(side, side[::-1])]
            assert reduced == cells._lanes(want), (q, n)
    assert widest == 33  # F_2^11: 11 slots of 3 bits


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_incidence_matches_row_reduction(q):
    # every step 1 <= a < b <= n of every F_q^n with q^n <= 100, against
    # products multiplied out and row-reduced in the reference tables
    cells = flagzeta.cells
    steps = 0
    for n in itertools.takewhile(lambda n: q**n <= 100, itertools.count(2)):
        for b in range(2, n + 1):
            for a in range(1, b):
                assert cells._incidence(q, n, a, b) == reference_incidence(q, n, a, b)
                steps += 1
    assert steps


def is_rref(rows):
    """Each row leads with a 1, right of the row above's, and no other row
    has a nonzero entry in that column."""
    leads = [next((c for c, x in enumerate(row) if x), None) for row in rows]
    return (
        None not in leads
        and leads == sorted(set(leads))
        and all(row[c] == 1 for row, c in zip(rows, leads))
        and all(sum(1 for row in rows if row[c]) == 1 for c in leads)
    )


def unpack(v, q, n):
    """The element codes of the packed vector v of F_q^n: entry c is
    read from its f slots of s + 1 bits, top digit first."""
    p, f, s, _, _ = flagzeta.cells._packing(q, n)
    out = []
    for c in range(n):
        x = 0
        for j in reversed(range(c * f, c * f + f)):
            x = x * p + (v >> j * (s + 1) & (1 << s + 1) - 1)
        out.append(x)
    return tuple(out)


def packed_sum(u, v, q, n):
    """u + v by the reduction ``_packing`` documents."""
    p, _, s, bias, lows = flagzeta.cells._packing(q, n)
    t = u + v
    return t - (((t + bias) >> s) & lows) * p


@pytest.mark.parametrize("q", ORACLE_QS)
def test_packed_vectors(q):
    cells = flagzeta.cells
    add, mul = gf_tables(q)
    p, f = finite_field(q).p, finite_field(q).f
    for n in range(1, 4):
        if q**n > 3000:
            break
        vectors = list(itertools.product(range(q), repeat=n))
        packed = [cells._pack(v, q) for v in vectors]
        assert len(set(packed)) == len(vectors), (q, n)  # injective
        assert [unpack(v, q, n) for v in packed] == vectors, (q, n)
    # every pair of digits meets in every slot of a 3-vector, next to
    # slots that hold other sums, so a carry between slots would show
    for x, y in itertools.product(range(q), repeat=2):
        u, v = (x, y, x), (y, x, y)
        total = packed_sum(cells._pack(u, q), cells._pack(v, q), q, 3)
        assert unpack(total, q, 3) == tuple(add[a][b] for a, b in zip(u, v)), (q, u, v)
        w = (cells._pack(u, q), cells._pack(v, q))
        basis = cells._basis(w, q, 3)
        assert len(basis) == 2 * f
        for col, d in itertools.product(range(2), range(f)):
            want = tuple(mul[p**d][e] for e in unpack(w[col], q, 3))
            assert unpack(basis[col * f + d], q, 3) == want, (q, w, col, d)


def test_packed_slots_hold_the_largest_digit_sum():
    # p = 53, the widest digits of the oracle: 52 + 52 = 104 stays inside
    # its slot, below the bit that flags a sum of at least p
    cells = flagzeta.cells
    _, _, s, _, _ = cells._packing(53, 3)
    top = cells._pack((52, 52, 52), 53)
    raw = top + top
    assert [raw >> i * (s + 1) & (1 << s + 1) - 1 for i in range(3)] == [104] * 3
    assert 104 < 1 << s
    assert packed_sum(top, top, 53, 3) == cells._pack((51, 51, 51), 53)


@pytest.mark.parametrize("q, max_n", [(2, 5), (3, 4), (4, 4), (8, 3), (9, 3)])
def test_products_of_rref_bases_are_rref(q, max_n):
    # The oracle looks up M·W as it stands: for RREF M (a x b) and W (b x n)
    # of full rank, the products over all M are RREF keys of the a-subspaces
    # of F_q^n, one for each a-subspace of W.  _incidence forms them for
    # every W at once, in lanes; decoded, the keys at each M's positions
    # must equal the plain matrix products.
    cells = flagzeta.cells
    for n in range(1, max_n + 1):
        keys = {}
        for a in range(n + 1):
            keys[a] = [unpack_subspace(key, q, n) for key in cells._all_subspaces(q, n, a)]
            assert len(set(keys[a])) == len(keys[a]), (q, n, a)
            assert all(is_rref(key) for key in keys[a]), (q, n, a)
        for b in range(1, n + 1):
            ws = keys[b]
            for a in range(1, b + 1):
                inner = [unpack_subspace(m, q, b) for m in cells._all_subspaces(q, b, a)]
                incidence = cells._incidence(q, n, a, b)
                assert len(incidence) == len(inner), (q, n, a, b)
                for m, col in zip(inner, incidence):
                    products = [keys[a][i] for i in col]
                    assert products == [mat_mul(m, w, q) for w in ws], (q, n, a, b, m)
                for w, subs in zip(ws, zip(*incidence)):
                    assert len(set(subs)) == len(inner), (q, n, a, b, w)


# -- cell decompositions --------------------------------------------------------


def test_cells_of_projective_line():
    assert cells_of(ProjBundle(BasePoint(Q), 1)) == CellDecomposition(
        ((Q, 0, 1), (Q, 1, 1))
    )


def test_cells_of_affine_space():
    assert cells_of(Affine(BasePoint(QI), 3)) == CellDecomposition(
        ((QI, 3, 1),)
    )


def test_cells_of_flag_bundle():
    cells = cells_of(FlagBundle(BasePoint(Q), (2, 2)))
    assert cells == CellDecomposition(
        (
            (Q, 0, 1),
            (Q, 1, 1),
            (Q, 2, 2),
            (Q, 3, 1),
            (Q, 4, 1),
        )
    )
    assert sum(m for _, _, m in cells.strata) == 6
    assert cells.max_shift() == 4


def test_union_merges_equal_cells():
    cells = cells_of(DisjointUnion((BasePoint(Q), BasePoint(Q))))
    assert cells == CellDecomposition(((Q, 0, 2),))


def test_union_keeps_distinct_bases_sorted():
    cells = cells_of(DisjointUnion((BasePoint(F3), BasePoint(Q), BasePoint(F2))))
    assert [base for base, _, _ in cells.strata] == [Q, F2, F3]


def test_canonicalization_is_idempotent():
    raw = [(Q, 1, 1), (Q, 0, 1), (Q, 1, 2)]
    once = CellDecomposition(raw)
    again = CellDecomposition(once.strata)
    assert once == again
    assert once.strata == ((Q, 0, 1), (Q, 1, 3))


def test_constructor_puts_strata_in_canonical_form():
    hand = CellDecomposition(((Q, 1, 1), (Q, 0, 1), (Q, 0, 1)))
    assert hand == CellDecomposition(hand.strata)
    assert hand.strata == ((Q, 0, 2), (Q, 1, 1))
    assert str(hand) == "L(Q, s)^2 * L(Q, s-1)"
    # cancelling multiplicities drop out, leaving the empty class
    assert CellDecomposition([(F2, 3, 2), (F2, 3, -2)]) == CellDecomposition.one()


def test_constructor_refuses_a_negative_shift_or_a_zero_multiplicity():
    with pytest.raises(ValueError, match="cell dimension must be >= 0"):
        CellDecomposition([(Q, -1, 1)])
    with pytest.raises(ValueError, match="multiplicity must be nonzero"):
        CellDecomposition([(Q, 0, 0)])


_SQUAREFREE = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30, 31)


def _twenty_fields():
    """A union of 20 distinct imaginary quadratic fields: 41 nodes, 20
    bases and 4020 terms.  Built afresh per test, since a node keeps the
    class built for it."""
    return DisjointUnion(
        tuple(ProjBundle(BasePoint(quadratic_field(-d)), 200) for d in _SQUAREFREE)
    )


def test_cells_of_sorts_bases_per_node_not_per_term(monkeypatch):
    calls = []
    key = flagzeta.cells.base_sort_key
    monkeypatch.setattr(flagzeta.cells, "base_sort_key", lambda b: calls.append(b) or key(b))
    cells = cells_of(_twenty_fields())
    bases, nodes = 20, 41
    assert len(calls) <= bases * nodes
    assert len(cells.strata) == 20 * 201


def test_convolution_merges_nothing_and_builds_no_records(monkeypatch):
    # each run's product comes out of one multiply sorted and merged: no
    # _of pass and no per-term view, not even for the leaf
    merged, read = [], []
    of = CellDecomposition._of.__func__
    counted = classmethod(lambda cls, pairs: merged.append(1) or of(cls, pairs))
    monkeypatch.setattr(CellDecomposition, "_of", counted)
    strata = vars(CellDecomposition)["strata"].func
    monkeypatch.setattr(CellDecomposition, "strata", property(lambda c: read.append(c) or strata(c)))
    cells = cells_of(Grassmannian(ProjBundle(BasePoint(QI), 400), 8, 16))
    assert merged == [] and read == []
    [(base, poly)] = cells.polys
    assert base == QI and [d for d, _ in poly] == list(range(400 + 8 * 8 + 1))


def test_class_operations_keep_canonical_polynomials(monkeypatch):
    # a base that one operand alone holds keeps its term tuple itself, and
    # a shift or a sign flip maps the terms with no _of pass
    children = (ProjBundle(BasePoint(Q), 3), Grassmannian(Affine(BasePoint(F2), 1), 2, 4))
    built = {}
    inner = flagzeta.cells.cells_of
    monkeypatch.setattr(flagzeta.cells, "cells_of", lambda x: built.setdefault(x, inner(x)))
    union = flagzeta.cells.cells_of(DisjointUnion(children))
    for got in (union, built[children[0]] * built[children[1]]):
        terms = dict(got.polys)
        assert len(terms) == 2
        assert all(terms[b] is poly for c in children for b, poly in built[c].polys)
    expected = CellDecomposition((b, d + 3, -m) for b, d, m in union.strata)
    merged = []
    of = CellDecomposition._of.__func__
    counted = classmethod(lambda cls, pairs: merged.append(1) or of(cls, pairs))
    monkeypatch.setattr(CellDecomposition, "_of", counted)
    assert union.shifted(3).inverse() == expected
    assert union.inverse().shifted(3) == expected
    assert merged == []


def test_check_soule_reads_no_per_term_view(monkeypatch):
    # the class is read as polynomials; its strata are never built
    read = []
    strata = vars(CellDecomposition)["strata"].func
    monkeypatch.setattr(CellDecomposition, "strata", property(lambda c: read.append(c) or strata(c)))
    assert check_soule(_twenty_fields(), (-6, 2)).ok
    assert read == []


def test_flag_tower_gives_same_cells():
    for base in (BasePoint(Q), BasePoint(F2)):
        for n in range(1, 6):
            for parts in compositions(n):
                direct = cells_of(FlagBundle(base, parts))
                tower = cells_of(flag_as_grassmannian_tower(base, parts))
                assert direct == tower, (base, parts)


def test_nested_bundles_compose():
    # P^1 over P^1: four cells in dimensions 0,1,1,2
    x = ProjBundle(ProjBundle(BasePoint(Q), 1), 1)
    assert cells_of(x) == CellDecomposition(
        ((Q, 0, 1), (Q, 1, 2), (Q, 2, 1))
    )


# -- one class per node -------------------------------------------------------------


def test_cells_of_builds_a_node_once():
    x = FlagBundle(ProjBundle(BasePoint(F2), 2), (1, 1, 1))
    assert cells_of(x) is cells_of(x)
    assert cells_of(x.child) is cells_of(x.child)


def test_zeta_calls_convolve_once_per_bundle_node(monkeypatch):
    # the series, the rational form and 32 point counts all read the one
    # class built for the tree: one convolution per bundle node
    x = FlagBundle(Affine(ProjBundle(BasePoint(F2), 2), 1), (1, 2))
    calls = []
    convolved = CellDecomposition.convolved
    monkeypatch.setattr(
        CellDecomposition, "convolved", lambda c, p: calls.append(p) or convolved(c, p)
    )
    weil_zeta_series(x, 32)
    weil_zeta_rational(x)
    counts = [point_count(x, r) for r in range(1, 33)]
    assert len(calls) == 2
    assert counts == [point_count(cells_of(parse_scheme(str(x))), r) for r in range(1, 33)]


def test_a_built_node_is_still_the_node_it_was():
    text = "union(flag(affine(F(3), 1), 1+2), grass(proj(F(3), 2), 1, 3))"
    x = parse_scheme(text)
    cells = cells_of(x)
    fresh = parse_scheme(text)
    assert x == fresh and hash(x) == hash(fresh)
    assert repr(x) == repr(fresh) and str(x) == str(fresh) == text
    assert dataclasses.fields(x) == dataclasses.fields(fresh)
    assert cells_of(fresh) == cells and cells_of(fresh) is not cells


def test_a_refused_node_is_refused_again(monkeypatch):
    x = ProjBundle(ProjBundle(BasePoint(Q), 9), 9)  # 10 terms times 10
    monkeypatch.setattr(flagzeta.cells, "MAX_CONVOLUTION_STRATA", 99)
    for _ in range(2):
        with pytest.raises(ValueError, match="MAX_CONVOLUTION_STRATA = 99"):
            cells_of(x)
    monkeypatch.setattr(flagzeta.cells, "MAX_CONVOLUTION_STRATA", 100)
    assert len(cells_of(x).polys[0][1]) == 19


def test_cells_of_refuses_what_is_not_a_node():
    for bad in ("proj(Q, 1)", None, cells_of(BasePoint(Q))):
        with pytest.raises(TypeError, match="not a scheme expression"):
            cells_of(bad)


# -- point counting ---------------------------------------------------------------


def test_point_count_projective_line():
    x = ProjBundle(BasePoint(F2), 1)
    assert [point_count(x, r) for r in (1, 2, 3)] == [3, 5, 9]


def test_point_count_grassmannian_matches_enumeration():
    x = Grassmannian(BasePoint(F2), 2, 4)
    assert point_count(x, 1) == 35 == brute_force_flag_count((2, 2), 2, 4)


def test_point_count_rejects_number_field_bases():
    with pytest.raises(ValueError, match="point counting needs finite-field bases, found Q"):
        point_count(ProjBundle(BasePoint(Q), 1), 1)
    for r in (0, -1):
        with pytest.raises(ValueError, match="extension degree r must be >= 1"):
            point_count(BasePoint(F2), r)


def random_gappy_class(rng: random.Random, bases) -> CellDecomposition:
    """Terms at a shift-0 cell and at shifts up to 60 apart, over every base."""
    return CellDecomposition(
        [(base, 0, rng.randint(1, 3)) for base in bases]
        + [
            (rng.choice(bases), rng.choice((rng.randint(1, 4), rng.randint(20, 60))),
             rng.randint(1, 5))
            for _ in range(rng.randint(1, 6))
        ]
    )


def test_point_count_matches_the_term_by_term_sum():
    rng = random.Random(29)
    bases = [F2, finite_field(9)]
    terms = set()
    for _ in range(40):
        numer = random_gappy_class(rng, rng.sample(bases, rng.randint(1, 2)))
        denom = random_gappy_class(rng, rng.sample(bases, rng.randint(1, 2)))
        for c in (numer, numer / denom, denom / numer):
            terms.update((base, d == 0, m < 0) for base, d, m in c.strata)
            for r in range(1, 41):
                assert point_count(c, r) == reference_point_count(c, r)
    assert terms == {(b, zero, negative) for b in bases for zero in (0, 1) for negative in (0, 1)}


# -- expression validation ----------------------------------------------------------


def test_expression_validation():
    with pytest.raises(ValueError, match="cannot take"):
        Grassmannian(BasePoint(F2), 5, 4)
    with pytest.raises(ValueError):
        FlagBundle(BasePoint(Q), ())
    with pytest.raises(ValueError):
        Affine(BasePoint(Q), -1)
    with pytest.raises(ValueError):
        DisjointUnion((BasePoint(Q),))


def test_expression_rendering():
    x = FlagBundle(Affine(BasePoint(QI), 2), (1, 1, 1))
    assert str(x) == "flag(affine(Q(sqrt -1), 2), 1+1+1)"
    assert str(Grassmannian(BasePoint(F2), 2, 4)) == "grass(F(2), 2, 4)"
