"""Tests for q-multinomials, cell decompositions, and flag enumeration."""

import itertools
from functools import lru_cache
from math import factorial

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
    Stratum,
    brute_force_flag_count,
    cells_of,
    flag_as_grassmannian_tower,
    gaussian_binomial,
    gaussian_multinomial,
    point_count,
)
from flagzeta.fields import FiniteField, quadratic_field, rationals

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


def test_gaussian_binomial_has_no_recursion_depth_limit():
    # P^1199 as the Grassmannian of lines in rank 1200
    assert cells_of(Grassmannian(BasePoint(Q), 1, 1200)) == cells_of(
        ProjBundle(BasePoint(Q), 1199)
    )
    assert gaussian_binomial(995, 2)(1) == 995 * 994 // 2


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
    with pytest.raises(ValueError, match="250500 strata"):
        cells_of(ProjBundle(ProjBundle(BasePoint(Q), 499), 500))


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
            assert poly.degree == (n * n - sum(p * p for p in parts)) // 2


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


def test_gaussian_matches_enumeration_everywhere_feasible():
    for q in (2, 3, 4, 5):
        for n in range(1, 6):
            if q**n > 3000:
                continue
            for parts in compositions(n):
                assert gaussian_multinomial(n, parts)(q) == brute_force_flag_count(
                    parts, q, n
                ), (q, n, parts)


def test_enumeration_does_not_use_the_product_formula(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the oracle called a Gaussian polynomial")

    cells = flagzeta.cells
    monkeypatch.setattr(cells, "gaussian_binomial", forbidden)
    monkeypatch.setattr(cells, "gaussian_multinomial", forbidden)
    for cache in (cells._gf_tables, cells._all_subspaces, cells._chain_counts):
        cache.cache_clear()
    # a line of F_3^4 (40 choices), then a plane in the 3-dim quotient (13)
    assert brute_force_flag_count((1, 2, 1), 3, 4) == 40 * 13


# -- cell decompositions --------------------------------------------------------


def test_cells_of_projective_line():
    assert cells_of(ProjBundle(BasePoint(Q), 1)) == CellDecomposition(
        (Stratum(Q, 0, 1), Stratum(Q, 1, 1))
    )


def test_cells_of_affine_space():
    assert cells_of(Affine(BasePoint(QI), 3)) == CellDecomposition(
        (Stratum(QI, 3, 1),)
    )


def test_cells_of_flag_bundle():
    cells = cells_of(FlagBundle(BasePoint(Q), (2, 2)))
    assert cells == CellDecomposition(
        (
            Stratum(Q, 0, 1),
            Stratum(Q, 1, 1),
            Stratum(Q, 2, 2),
            Stratum(Q, 3, 1),
            Stratum(Q, 4, 1),
        )
    )
    assert cells.total_multiplicity == 6
    assert cells.max_shift() == 4


def test_union_merges_equal_cells():
    cells = cells_of(DisjointUnion((BasePoint(Q), BasePoint(Q))))
    assert cells == CellDecomposition((Stratum(Q, 0, 2),))


def test_union_keeps_distinct_bases_sorted():
    cells = cells_of(DisjointUnion((BasePoint(F3), BasePoint(Q), BasePoint(F2))))
    assert [s.base for s in cells] == [Q, F2, F3]


def test_canonicalization_is_idempotent():
    raw = [Stratum(Q, 1, 1), Stratum(Q, 0, 1), Stratum(Q, 1, 2)]
    once = CellDecomposition.build(raw)
    again = CellDecomposition.build(once.strata)
    assert once == again
    assert once.strata == (Stratum(Q, 0, 1), Stratum(Q, 1, 3))


def test_constructor_puts_strata_in_canonical_form():
    hand = CellDecomposition((Stratum(Q, 1, 1), Stratum(Q, 0, 1), Stratum(Q, 0, 1)))
    assert hand == CellDecomposition.build(hand.strata)
    assert hand.strata == (Stratum(Q, 0, 2), Stratum(Q, 1, 1))
    assert str(hand) == "L(Q, s)^2 * L(Q, s-1)"
    # cancelling multiplicities drop out, leaving the empty class
    assert CellDecomposition([Stratum(F2, 3, 2), Stratum(F2, 3, -2)]) == CellDecomposition.one()


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
        (Stratum(Q, 0, 1), Stratum(Q, 1, 2), Stratum(Q, 2, 1))
    )


# -- point counting ---------------------------------------------------------------


def test_point_count_projective_line():
    x = ProjBundle(BasePoint(F2), 1)
    assert [point_count(x, r) for r in (1, 2, 3)] == [3, 5, 9]


def test_point_count_grassmannian_matches_enumeration():
    x = Grassmannian(BasePoint(F2), 2, 4)
    assert point_count(x, 1) == 35 == brute_force_flag_count((2, 2), 2, 4)


def test_point_count_rejects_number_field_bases():
    with pytest.raises(ValueError, match="finite-field"):
        point_count(ProjBundle(BasePoint(Q), 1), 1)
    with pytest.raises(ValueError):
        point_count(BasePoint(F2), 0)


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
