"""Tests for L-function factorizations, orders, and zeta series."""

import math
from fractions import Fraction
from random import Random

import pytest

from flagzeta.cells import (
    Affine,
    BasePoint,
    DisjointUnion,
    FlagBundle,
    ProjBundle,
    Stratum,
    cells_of,
)
from flagzeta.fields import (
    FiniteField,
    UnsupportedFieldError,
    quadratic_field,
    rationals,
    zeta_partial_eval,
)
from flagzeta.lfuncs import (
    MAX_SERIES_DIGITS,
    MAX_SERIES_ORDER,
    LFactorization,
    RationalZeta,
    lfactorization_of,
    lfun_partial_eval,
    special_value_product,
    weil_zeta_rational,
    weil_zeta_series,
)
from flagzeta.series import TruncSeries

Q = rationals()
QI = quadratic_field(-1)
F2 = FiniteField(2)
F3 = FiniteField(3)

POINT = lfactorization_of(BasePoint(Q))
P1 = lfactorization_of(ProjBundle(BasePoint(Q), 1))


# -- factorizations -----------------------------------------------------------


def test_projective_space_factors_into_shifted_zetas():
    for d in range(4):
        f = lfactorization_of(ProjBundle(BasePoint(Q), d))
        assert f.factors == tuple(Stratum(Q, i, 1) for i in range(d + 1))
    assert str(P1) == "L(Q, s) * L(Q, s-1)"


def test_flag_bundle_factor_multiplicities():
    f = lfactorization_of(FlagBundle(BasePoint(Q), (1, 1, 1)))
    assert f.factors == (
        Stratum(Q, 0, 1),
        Stratum(Q, 1, 2),
        Stratum(Q, 2, 2),
        Stratum(Q, 3, 1),
    )


def test_factorization_group_structure():
    f = P1
    g = lfactorization_of(Affine(BasePoint(Q), 2))
    assert (f * g) / g == f
    assert f / f == LFactorization.one()
    for k in range(-8, 3):
        assert (f * g).ord_at(k) == f.ord_at(k) + g.ord_at(k)
        assert f.inverse().ord_at(k) == -f.ord_at(k)


def test_identical_cells_give_identical_factorizations():
    assert lfactorization_of(ProjBundle(BasePoint(F2), 1)) == lfactorization_of(
        FlagBundle(BasePoint(F2), (1, 1))
    )


def test_cover_quotient_reproduces_projective_line():
    affine = lfactorization_of(Affine(BasePoint(Q), 1))
    point = lfactorization_of(BasePoint(Q))
    punctured = affine / point
    assert (affine * affine) / punctured == P1


# -- orders at integers ----------------------------------------------------------


def test_projective_line_orders():
    assert P1.ord_at(1) == -1  # the pole of zeta(s); zeta(0) is finite
    assert P1.ord_at(2) == -1  # the pole of zeta(s-1)
    assert P1.ord_at(0) == 0
    assert P1.ord_at(-1) == 1  # zeta(-2) = 0 simple, zeta(-1) nonzero... via s-1
    assert P1.ord_at(-2) == 1


def test_finite_field_factor_orders():
    f = lfactorization_of(Affine(BasePoint(F2), 3))
    assert f.ord_at(3) == -1
    assert all(f.ord_at(k) == 0 for k in range(-5, 6) if k != 3)


def test_orders_vanish_far_right():
    f = lfactorization_of(FlagBundle(BasePoint(QI), (2, 2)))
    for k in range(6, 20):
        assert f.ord_at(k) == 0


# -- zeta functions over finite fields ----------------------------------------------


def test_weil_series_projective_line():
    z = weil_zeta_series(ProjBundle(BasePoint(F2), 1), 4)
    assert z == TruncSeries(4, [1, 3, 7, 15, 31])


def test_rational_form_matches_series():
    x = ProjBundle(BasePoint(F2), 1)
    rz = weil_zeta_rational(x)
    assert rz == RationalZeta.build(2, denom=[(0, 1), (1, 1)])
    assert rz.expand(4) == weil_zeta_series(x, 4)
    assert str(rz) == "1 / ((1 - t)(1 - 2*t))"


def test_rational_form_of_complete_flag():
    rz = weil_zeta_rational(FlagBundle(BasePoint(F3), (1, 1, 1)))
    assert rz.denom == ((0, 1), (1, 2), (2, 2), (3, 1))
    assert rz.expand(6) == weil_zeta_series(
        FlagBundle(BasePoint(F3), (1, 1, 1)), 6
    )


def test_union_multiplies_zeta_series():
    x = BasePoint(F2)
    y = Affine(BasePoint(F2), 1)
    both = DisjointUnion((x, y))
    n = 5
    assert weil_zeta_series(both, n) == weil_zeta_series(x, n) * weil_zeta_series(
        y, n
    )


def test_expand_matches_product_of_truncated_powers():
    # the closed-form binomial expansion against (1 - q^d t)^(+-m) built
    # from the series ring's own products, inverse and powers
    rng = Random(31)
    for _ in range(60):
        q = rng.choice((2, 3, 4, 5, 7, 8, 9))
        numer = [(rng.randint(0, 4), rng.randint(1, 5)) for _ in range(rng.randint(0, 2))]
        denom = [(rng.randint(0, 4), rng.randint(1, 5)) for _ in range(rng.randint(0, 3))]
        rz = RationalZeta.build(q, numer, denom)
        order = rng.randint(0, 20)
        expected = TruncSeries.one(order)
        for d, m in rz.numer:
            expected = expected * TruncSeries(order, [1, -(q**d)]) ** m
        for d, m in rz.denom:
            expected = expected * TruncSeries(order, [1, -(q**d)]) ** (-m)
        assert rz.expand(order) == expected


def test_expand_of_polynomial_numerator_terminates():
    # (1 - t)^2 (1 - 3t) = 1 - 5t + 7t^2 - 3t^3, then zeros
    rz = RationalZeta.build(3, numer=[(0, 2), (1, 1)])
    assert rz.expand(5) == TruncSeries(5, [1, -5, 7, -3])
    assert rz.expand(0) == TruncSeries.one(0)


def test_weil_series_accepts_cells():
    x = FlagBundle(BasePoint(F2), (2, 1))
    assert weil_zeta_series(cells_of(x), 7) == weil_zeta_series(x, 7)


def test_weil_rejects_bad_bases():
    with pytest.raises(ValueError, match="finite fields only"):
        weil_zeta_rational(BasePoint(Q))
    with pytest.raises(ValueError, match="mixed finite bases"):
        weil_zeta_rational(DisjointUnion((BasePoint(F2), BasePoint(F3))))
    with pytest.raises(ValueError, match="order"):
        weil_zeta_series(BasePoint(F2), 0)


def test_series_size_bounds_refuse_before_work():
    point, big = BasePoint(F2), ProjBundle(BasePoint(F2), 200)
    for order, x, bound in [
        (MAX_SERIES_ORDER + 1, point, "MAX_SERIES_ORDER"),
        (200, big, "MAX_SERIES_DIGITS"),
    ]:
        with pytest.raises(ValueError, match=bound):
            weil_zeta_series(x, order)
        with pytest.raises(ValueError, match=bound):
            weil_zeta_rational(x).expand(order)
    # the digits bound reads the largest cell: order x shift x log10 q
    shift = int(MAX_SERIES_DIGITS / (10 * math.log10(2)))
    assert weil_zeta_rational(Affine(point, shift)).expand(10)[10] == 2 ** (10 * shift)
    with pytest.raises(ValueError, match="MAX_SERIES_DIGITS"):
        weil_zeta_rational(Affine(point, shift + 1)).expand(10)


# -- numeric evaluation ---------------------------------------------------------------


def test_partial_eval_of_projective_line():
    # zeta(4) * zeta(3); the second factor is summed directly as a series
    zeta3 = sum(1.0 / n**3 for n in range(1, 200_000))
    target = (math.pi**4 / 90) * zeta3
    value = lfun_partial_eval(P1, 4.0, 10_000)
    assert abs(value - target) < 1e-3


def test_partial_eval_respects_convergence_region():
    with pytest.raises(ValueError, match="convergence"):
        lfun_partial_eval(P1, 2.0, 100)  # zeta(s-1) at s=2 diverges


def test_partial_eval_finite_field_factor_exact():
    f = lfactorization_of(BasePoint(F2))
    assert lfun_partial_eval(f, 3.0, 10) == pytest.approx(1 / (1 - 2**-3))


def test_partial_eval_is_the_same_float_as_the_per_kind_product():
    # reference: the per-kind product, with each finite-field factor's
    # closed form written at its shift, 1/(1 - q^(shift - s))
    x = DisjointUnion((ProjBundle(BasePoint(QI), 2), Affine(BasePoint(F3), 4)))
    f = lfactorization_of(x) / lfactorization_of(Affine(BasePoint(F2), 1))
    for s in (5.5, 6.125, 7.0, 9.3):
        expected = 1.0
        for factor in f:
            if isinstance(factor.base, FiniteField):
                v = 1.0 / (1.0 - factor.base.q ** (factor.shift - s))
            else:
                v = zeta_partial_eval(factor.base, s - factor.shift, 500)
            expected *= v**factor.multiplicity
        assert lfun_partial_eval(f, s, 500) == expected


# -- special values --------------------------------------------------------------------


def test_special_value_of_point():
    v = special_value_product(POINT, -1)
    assert (v.kind, v.rational) == ("exact-rational", Fraction(-1, 12))
    v = special_value_product(POINT, -3)
    assert v.rational == Fraction(1, 120)
    v = special_value_product(POINT, 0)
    assert v.rational == Fraction(-1, 2)
    v = special_value_product(POINT, 2)
    assert (v.kind, v.rational, v.pi_power) == (
        "rational-times-pi-power",
        Fraction(1, 6),
        2,
    )


def test_special_value_trivial_zero_reports_order():
    v = special_value_product(P1, -1)  # zeta(-1) * zeta(-2)
    assert v.kind == "exact-rational"
    assert v.rational == 0
    assert v.order == 1


def test_special_value_at_pole_is_symbolic():
    v = special_value_product(P1, 2)  # zeta(2) * zeta(1)
    assert v.kind == "symbolic-product"
    assert v.order == -1


def test_special_value_with_odd_zeta_stays_symbolic():
    v = special_value_product(P1, 3)  # zeta(3) * zeta(2)
    assert v.kind == "symbolic-product"
    assert v.rational == Fraction(1, 6)
    assert v.pi_power == 2
    assert v.factors == (("Q", 3, 1),)


def test_special_value_over_other_fields_stays_symbolic():
    f = lfactorization_of(BasePoint(QI))
    v = special_value_product(f, 2)
    assert v.kind == "symbolic-product"
    assert v.factors == (("Q(sqrt -1)", 2, 1),)


def test_special_value_empty_product_is_one():
    v = special_value_product(LFactorization.one(), 5)
    assert (v.kind, v.rational) == ("exact-rational", Fraction(1))


def test_special_value_rejects_finite_fields():
    with pytest.raises(UnsupportedFieldError, match="number-field"):
        special_value_product(lfactorization_of(BasePoint(F2)), 0)


def test_special_value_cancelling_orders_stays_symbolic():
    f = LFactorization.build([Stratum(Q, 0, 1), Stratum(Q, 2, -1)])
    v = special_value_product(f, -2)  # zeta(-2) over zeta(-4): 0/0 overall
    assert f.ord_at(-2) == 0
    assert v.kind == "symbolic-product"
    assert set(v.factors) == {("Q", -2, 1), ("Q", -4, -1)}
