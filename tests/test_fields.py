"""Tests for number-field data, Euler factors, and zeta special values."""

import math
from fractions import Fraction

import pytest

from flagzeta.cells import BasePoint
from flagzeta.fields import (
    MAX_FACTORED,
    MAX_PRIME_BOUND,
    EulerFactor,
    FiniteField,
    NumberField,
    UnsupportedFieldError,
    euler_factor,
    finite_field,
    make_number_field,
    ord_at_integer,
    primes_upto,
    quadratic_field,
    rationals,
    special_value_even,
    special_value_rational,
    zeta_partial_eval,
    _is_prime,
    _smallest_prime_factor,
    _squarefree_part,
)
from flagzeta.lfuncs import lfactorization_of, special_value_product

Q = rationals()
QI = quadratic_field(-1)
Q5 = quadratic_field(5)
QM5 = quadratic_field(-5)
Q2 = quadratic_field(2)


# -- construction and validation ------------------------------------------


def test_rationals():
    assert (Q.degree, Q.r1, Q.r2, Q.disc) == (1, 1, 0, 1)
    assert str(Q) == "Q"


def test_quadratic_discriminants():
    assert (QI.r1, QI.r2, QI.disc) == (0, 1, -4)
    assert (Q5.r1, Q5.r2, Q5.disc) == (2, 0, 5)
    assert (QM5.r1, QM5.r2, QM5.disc) == (0, 1, -20)
    assert (Q2.r1, Q2.r2, Q2.disc) == (2, 0, 8)
    assert QI.label == "Q(sqrt -1)"


def test_quadratic_rejects_bad_d():
    for d in (0, 1, 4, 12, -8):
        with pytest.raises(ValueError):
            quadratic_field(d)


def test_signature_must_match_degree():
    with pytest.raises(ValueError, match="does not match degree"):
        NumberField("bad", 3, 2, 2)
    with pytest.raises(ValueError, match="sign"):
        NumberField("bad", 2, 2, 0, disc=-4)


def test_make_number_field_roundtrip():
    rec = {"label": "K", "degree": 2, "r1": 0, "r2": 1, "disc": -20}
    assert make_number_field(rec) == quadratic_field(-5, label="K")


def test_make_number_field_normalizes_discriminant():
    rec = {"label": "K", "degree": 2, "r1": 0, "r2": 1, "disc": -45}
    with pytest.warns(UserWarning, match="not fundamental"):
        fld = make_number_field(rec)
    assert fld.disc == -20


def test_make_number_field_missing_key():
    with pytest.raises(ValueError, match="missing key"):
        make_number_field({"label": "K", "degree": 2, "r1": 0})


def test_finite_field_parsing():
    assert finite_field(9) == FiniteField(3, 2)
    assert finite_field(9).q == 9
    assert finite_field(2).label == "F(2)"
    with pytest.raises(ValueError):
        finite_field(12)
    with pytest.raises(ValueError):
        FiniteField(4, 1)


def test_trial_division_helpers_match_naive_factoring():
    for n in range(2, 2000):
        assert _smallest_prime_factor(n) == min(d for d in range(2, n + 1) if n % d == 0)
        assert _is_prime(n) == (_smallest_prime_factor(n) == n)
    for n in range(-500, 501):
        if n:
            d = _squarefree_part(n)
            assert n % d == 0 and math.isqrt(n // d) ** 2 == n // d
            assert all(d % (p * p) for p in range(2, 23))
    assert _is_prime(2**31 - 1)
    assert finite_field(2**31 - 1) == FiniteField(2**31 - 1)
    assert finite_field(3**25) == FiniteField(3, 25)


def test_integers_above_the_factoring_bound_are_refused():
    big = MAX_FACTORED + 39  # prime
    for call in (
        lambda: finite_field(big),
        lambda: FiniteField(big),
        lambda: quadratic_field(big),
        lambda: quadratic_field(-big),
        lambda: make_number_field(
            {"label": "K", "degree": 2, "r1": 2, "r2": 0, "disc": big}
        ),
        lambda: make_number_field(
            {"label": "K", "degree": 3, "r1": 3, "r2": 0, "splitting": {big: [3]}}
        ),
    ):
        with pytest.raises(ValueError, match="factoring bound"):
            call()


def test_primes_upto():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []


# -- Euler factors ---------------------------------------------------------


def test_euler_factor_rationals():
    assert euler_factor(Q, 7) == EulerFactor(7, ((1, 1),))


def test_euler_factor_gaussian_integers():
    # p splits in Q(sqrt -1) iff p = 1 mod 4; 2 ramifies.
    assert euler_factor(QI, 5).primes == ((1, 2),)
    assert euler_factor(QI, 3).primes == ((2, 1),)
    assert euler_factor(QI, 2).primes == ((1, 1),)


def test_euler_factor_trichotomy_matches_square_search():
    # Independent oracle: for odd p not dividing disc, the splitting is
    # decided by whether disc is a square mod p, found by brute search.
    for fld in (QI, QM5, Q2, Q5):
        disc = fld.disc
        for p in primes_upto(500):
            ef = euler_factor(fld, p)
            total = sum(f * g for f, g in ef.primes)
            if disc % p == 0:
                assert ef.primes == ((1, 1),)
                continue
            assert total == 2
            if p == 2:
                is_square = disc % 8 == 1
            else:
                is_square = any((x * x - disc) % p == 0 for x in range(p))
            assert ef.primes == (((1, 2),) if is_square else ((2, 1),))


def test_euler_factor_from_splitting_table():
    cubic = make_number_field(
        {
            "label": "C",
            "degree": 3,
            "r1": 1,
            "r2": 1,
            "splitting": {"2": [1, 2], "5": [3]},
        }
    )
    assert euler_factor(cubic, 2).primes == ((1, 1), (2, 1))
    assert euler_factor(cubic, 5).primes == ((3, 1),)
    with pytest.raises(UnsupportedFieldError):
        euler_factor(cubic, 7)


def test_partial_zeta_of_q_matches_basel():
    approx = zeta_partial_eval(Q, 2.0, 10_000)
    assert abs(approx - math.pi**2 / 6) < 1e-3
    # monotone in the bound
    assert zeta_partial_eval(Q, 2.0, 100) < approx <= math.pi**2 / 6 + 1e-12


def test_partial_zeta_of_gaussian_field():
    # zeta_{Q(i)}(2) = zeta(2) * L(2, chi_-4); the Dirichlet factor is
    # Catalan's constant, summed here directly as its alternating series.
    catalan = sum(Fraction((-1) ** k, (2 * k + 1) ** 2) for k in range(8000))
    target = (math.pi**2 / 6) * float(catalan)
    assert abs(zeta_partial_eval(QI, 2.0, 10_000) - target) < 1e-3


def test_partial_zeta_rejects_divergent_s():
    with pytest.raises(ValueError, match="s > 1"):
        zeta_partial_eval(Q, 1.0, 100)


def test_partial_zeta_of_finite_field_is_the_closed_form():
    for q in (2, 9, 49):
        for s in (1.5, 2.0, 3.25):
            expected = 1.0 / (1.0 - q ** (-s))
            for bound in (0, 10, MAX_PRIME_BOUND):
                assert zeta_partial_eval(finite_field(q), s, bound) == expected
    with pytest.raises(ValueError, match="s > 1"):
        zeta_partial_eval(finite_field(2), 1.0, 100)


def test_partial_zeta_refuses_large_prime_bounds():
    for fld in (Q, finite_field(2)):
        with pytest.raises(ValueError, match="MAX_PRIME_BOUND"):
            zeta_partial_eval(fld, 2.0, MAX_PRIME_BOUND + 1)


# -- integer orders ----------------------------------------------------------


def test_ord_at_integer_rationals():
    assert [ord_at_integer(Q, k) for k in range(2, 5)] == [0, 0, 0]
    assert ord_at_integer(Q, 1) == -1
    assert ord_at_integer(Q, 0) == 0
    assert [ord_at_integer(Q, -n) for n in range(1, 7)] == [0, 1, 0, 1, 0, 1]


def test_ord_at_integer_quadratic():
    assert ord_at_integer(QI, 0) == 0
    assert [ord_at_integer(QI, -n) for n in range(1, 5)] == [1, 1, 1, 1]
    assert ord_at_integer(Q2, 0) == 1
    assert [ord_at_integer(Q2, -n) for n in range(1, 5)] == [0, 2, 0, 2]
    assert ord_at_integer(Q2, 1) == -1


def test_ord_at_integer_finite_field():
    # 1/(1 - q^(-s)) has its only integer pole at s = 0 and no zeros
    for q in (2, 4, 7):
        assert [ord_at_integer(finite_field(q), k) for k in range(-30, 10)] == [
            -1 if k == 0 else 0 for k in range(-30, 10)
        ]


def test_pole_is_the_only_negative_order():
    for fld in (Q, QI, Q2, QM5, Q5):
        for k in range(-30, 10):
            o = ord_at_integer(fld, k)
            assert (o < 0) == (k == 1)
            assert o >= -1


# -- special values -----------------------------------------------------------


def test_special_values_at_negative_integers():
    assert special_value_rational(2).rational == Fraction(-1, 12)  # zeta(-1)
    assert special_value_rational(4).rational == Fraction(1, 120)  # zeta(-3)
    v = special_value_rational(3)  # zeta(-2)
    assert v.rational == 0 and v.order == 1
    assert str(v) == "0 (order 1)"
    with pytest.raises(ValueError):
        special_value_rational(1)


def test_special_values_at_even_positive_integers():
    assert special_value_even(1).rational == Fraction(1, 6)
    assert special_value_even(2).rational == Fraction(1, 90)
    assert special_value_even(3).rational == Fraction(1, 945)
    assert special_value_even(1).pi_power == 2
    assert abs(special_value_even(2).approx() - math.pi**4 / 90) < 1e-12
    assert str(special_value_even(1)) == "1/6 * pi^2"


def test_zeta_at_zero():
    value = special_value_product(lfactorization_of(BasePoint(Q)), 0)
    assert value.rational == Fraction(-1, 2)
