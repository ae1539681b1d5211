"""Tests for the exact truncated-series kernel and Bernoulli numbers."""

from fractions import Fraction
from math import comb
from random import Random

import pytest

from flagzeta.series import MAX_BERNOULLI_INDEX, TruncSeries, bernoulli


def rand_unit(rng: Random, order: int) -> TruncSeries:
    """A random series with constant term 1 and small rational coefficients."""
    coeffs = [Fraction(1)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)
    ]
    return TruncSeries(order, coeffs)


def rand_positive_valuation(rng: Random, order: int) -> TruncSeries:
    coeffs = [Fraction(0)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)
    ]
    return TruncSeries(order, coeffs)


def rand_gappy(rng: Random, order: int, constant: int) -> TruncSeries:
    """A random series with the given constant term and runs of zero
    coefficients, so the kernels' zero skipping is exercised."""
    coeffs = [Fraction(constant)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.5 else Fraction(0)
        for _ in range(order)
    ]
    return TruncSeries(order, coeffs)


# -- reference oracles: the defining power sums ---------------------------


def log_by_power_sum(g: TruncSeries) -> TruncSeries:
    """log(g) = sum_{k=1}^{n} (-1)^(k-1) (g-1)^k / k, summed literally."""
    n = g.order
    u = g - 1
    acc = TruncSeries.zero(n)
    power = TruncSeries.one(n)
    for k in range(1, n + 1):
        power = power * u
        acc = acc + power * Fraction((-1) ** (k - 1), k)
    return acc


def exp_by_power_sum(u: TruncSeries) -> TruncSeries:
    """exp(u) = sum_{k=0}^{n} u^k / k!, summed literally."""
    n = u.order
    acc = TruncSeries.one(n)
    power = TruncSeries.one(n)
    kfact = 1
    for k in range(1, n + 1):
        power = power * u
        kfact *= k
        acc = acc + power * Fraction(1, kfact)
    return acc


@pytest.mark.parametrize("order", range(33))
def test_log_exp_match_power_sums(order):
    rng = Random(1000 + order)
    for _ in range(2):
        for g in (rand_unit(rng, order), rand_gappy(rng, order, 1)):
            assert g.log().coeffs == log_by_power_sum(g).coeffs
        for u in (rand_positive_valuation(rng, order), rand_gappy(rng, order, 0)):
            assert u.exp().coeffs == exp_by_power_sum(u).coeffs


def test_log_exp_of_sparse_series_match_power_sums():
    # a single monomial: every coefficient between its powers is zero
    n = 24
    for i in (1, 5, 24):
        mono = TruncSeries(n, [0] * i + [Fraction(-3, 2)])
        assert (1 + mono).log() == log_by_power_sum(1 + mono)
        assert mono.exp() == exp_by_power_sum(mono)


# -- worked examples ----------------------------------------------------


def test_mul_difference_of_squares():
    a = TruncSeries(4, [1, 1])
    b = TruncSeries(4, [1, -1])
    assert a * b == TruncSeries(4, [1, 0, -1])


def test_inverse_of_quadratic_is_geometric_mix():
    # 1/((1-t)(1-2t)) has coefficients 2^(k+1) - 1: the convolution of the
    # two geometric series 1 + t + t^2 + ... and 1 + 2t + 4t^2 + ...
    prod = TruncSeries(3, [1, -1]) * TruncSeries(3, [1, -2])
    expected = TruncSeries(3, [2 ** (k + 1) - 1 for k in range(4)])
    assert prod.inverse() == expected


def test_log_of_one_minus_t():
    n = 6
    g = TruncSeries(n, [1, -1])
    expected = TruncSeries(n, [0] + [Fraction(-1, k) for k in range(1, n + 1)])
    assert g.log() == expected


def test_exp_recovers_counting_series():
    # exp(sum_r (2^r + 1) t^r / r) = 1/((1-t)(1-2t)): the left side
    # exponentiates the point counts 2^r + 1, the right side is checked
    # through its independently known coefficients 2^(k+1) - 1.
    n = 4
    u = TruncSeries(n, [0] + [Fraction(2**r + 1, r) for r in range(1, n + 1)])
    expected = TruncSeries(n, [2 ** (k + 1) - 1 for k in range(n + 1)])
    assert u.exp() == expected


def test_str_rendering():
    assert str(TruncSeries(3, [1, 3, 7, 15])) == "1 + 3*t + 7*t^2 + 15*t^3"
    assert str(TruncSeries(2, [0, Fraction(-1, 2)])) == "-1/2*t"
    assert str(TruncSeries(2)) == "0"


# -- invariants ----------------------------------------------------------


def test_log_is_additive_on_products():
    rng = Random(20260815)
    n = 16
    for _ in range(100):
        f = rand_unit(rng, n)
        g = rand_unit(rng, n)
        assert (f * g).log() == f.log() + g.log()


def test_log_power_rule():
    rng = Random(4)
    n = 16
    for k in range(1, 11):
        u = rand_positive_valuation(rng, n)
        g = TruncSeries.one(n) - u
        assert (g**k).log() == k * g.log()


@pytest.mark.parametrize("order", [1, 2, 5, 16, 32])
def test_exp_log_are_mutually_inverse(order):
    rng = Random(order)
    for _ in range(20):
        g = rand_unit(rng, order)
        assert g.log().exp() == g
        u = rand_positive_valuation(rng, order)
        assert u.exp().log() == u


def test_inverse_is_two_sided():
    rng = Random(7)
    n = 12
    for _ in range(50):
        a = rand_unit(rng, n) * Fraction(rng.randint(1, 5), rng.randint(1, 5))
        assert a * a.inverse() == TruncSeries.one(n)
        assert a.inverse() * a == TruncSeries.one(n)


def test_order_mismatch_rejected():
    a = TruncSeries(3, [1])
    b = TruncSeries(4, [1])
    for op in (lambda: a + b, lambda: a * b, lambda: a - b):
        with pytest.raises(ValueError, match="order mismatch"):
            op()


def test_non_unit_has_no_inverse_or_log():
    s = TruncSeries.var(5)
    with pytest.raises(ValueError):
        s.inverse()
    with pytest.raises(ValueError):
        s.log()
    with pytest.raises(ValueError):
        TruncSeries.one(5).exp()


def test_constructor_reduces_long_input():
    assert TruncSeries(2, [1, 2, 3, 4, 5]) == TruncSeries(2, [1, 2, 3])


# -- Bernoulli numbers ---------------------------------------------------


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_defining_recurrence():
    for k in range(1, 41):
        total = sum(comb(k + 1, j) * bernoulli(j) for j in range(k + 1))
        assert total == 0


def test_bernoulli_index_is_bounded():
    with pytest.raises(ValueError, match="MAX_BERNOULLI_INDEX"):
        bernoulli(MAX_BERNOULLI_INDEX + 1)


def test_bernoulli_odd_vanishing():
    for k in range(1, 20):
        assert bernoulli(2 * k + 1) == 0
