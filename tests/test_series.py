"""Tests for the exact truncated-series kernel and Bernoulli numbers."""

import copy
import operator
import pickle
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import comb, gcd
from random import Random

import pytest

import flagzeta.series
from flagzeta.cells import CellDecomposition, point_count
from flagzeta.fields import finite_field
from flagzeta.series import MAX_BERNOULLI_INDEX, TruncSeries, bernoulli
from oracles import bernoulli_by_recurrence


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
    acc = TruncSeries(n)
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


# -- reference oracles for * and inverse: schoolbook Fraction sums ---------


def mul_by_schoolbook(a: TruncSeries, b: TruncSeries) -> list[Fraction]:
    """The truncated Cauchy product, one Fraction operation per term."""
    n = a.order
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    return out


def inverse_by_schoolbook(a: TruncSeries) -> list[Fraction]:
    """b_0 = 1/a_0, b_m = -(1/a_0) sum_{k=1}^{m} a_k b_{m-k}, in Fractions."""
    a0 = a.coeffs[0]
    out = [1 / a0]
    for m in range(1, a.order + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            acc += a.coeffs[k] * out[m - k]
        out.append(-acc / a0)
    return out


def coprime_denominators(rng: Random, count: int) -> list[int]:
    """``count`` pairwise coprime integers between 10^9 and 10^12."""
    out: list[int] = []
    while len(out) < count:
        d = rng.randint(10**9, 10**12)
        if all(gcd(d, e) == 1 for e in out):
            out.append(d)
    return out


def coefficient_families(rng: Random, order: int) -> dict[str, list[Fraction]]:
    """One coefficient list per kind of input the kernel meets, each of
    length order + 1 with a nonzero constant term."""

    def nonzero(lo: int, hi: int) -> int:
        return rng.randint(lo, hi) or hi

    smooth = [2**a * 3**b for a in range(20) for b in range(13) if 2**a * 3**b <= 10**6]
    coprime = coprime_denominators(rng, order + 1)
    return {
        "rational": [Fraction(nonzero(-9, 9), rng.randint(1, 9))]
        + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)],
        "smooth": [
            Fraction(nonzero(-(10**6), 10**6), rng.choice(smooth)) for _ in range(order + 1)
        ],
        "coprime": [Fraction(nonzero(-(10**6), 10**6), d) for d in coprime],
        "integer": [Fraction(rng.choice((1, -1)))]
        + [Fraction(rng.randint(-(10**12), 10**12)) for _ in range(order)],
        "gappy": list(rand_gappy(rng, order, nonzero(-3, 3)).coeffs),
    }


def assert_lowest_terms(s: TruncSeries) -> None:
    for c in s.coeffs:
        assert type(c) is Fraction
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 16])
def test_mul_and_inverse_match_schoolbook(order):
    rng = Random(3000 + order)
    for _ in range(2):
        families = coefficient_families(rng, order)
        for (name_a, ca), (name_b, cb) in product(families.items(), repeat=2):
            a, b = TruncSeries(order, ca), TruncSeries(order, cb)
            shifted = b - b[0]  # zero constant term: a product of positive valuation
            for right in (b, shifted):
                prod = a * right
                assert list(prod.coeffs) == mul_by_schoolbook(a, right), (name_a, name_b)
                assert_lowest_terms(prod)
        for name, ca in families.items():
            a = TruncSeries(order, ca)
            inv = a.inverse()
            assert list(inv.coeffs) == inverse_by_schoolbook(a), name
            unit = a * (1 / a[0])
            for result in (inv, unit.log(), (a - a[0]).exp()):
                assert_lowest_terms(result)


# -- the integer path: integral operands against the same references ------


def random_signed_class(rng: Random, q: int) -> CellDecomposition:
    """A class over F(q) with gaps between shifts and negative multiplicities."""

    def terms():
        return [(finite_field(q), rng.randint(0, 4), rng.randint(1, 3)) for _ in range(3)]

    return CellDecomposition(terms()) / CellDecomposition(terms())


@pytest.mark.parametrize("q", [2, 3, 4, 7])
def test_exp_of_point_counts_matches_power_sum(q):
    rng = Random(q)
    n = 10
    for _ in range(3):
        cells = random_signed_class(rng, q)
        u = TruncSeries(n, [0] + [Fraction(point_count(cells, r), r) for r in range(1, n + 1)])
        zeta = u.exp()
        assert zeta == exp_by_power_sum(u)
        assert all(c.denominator == 1 for c in zeta.coeffs)  # stayed on the integer path
        assert_lowest_terms(zeta)


def test_log_and_inverse_of_integral_units_match_references():
    rng = Random(29)
    for n in (1, 2, 5, 12):
        for _ in range(4):
            a = TruncSeries(n, [1] + [rng.randint(-50, 50) for _ in range(n)])
            log = a.log()
            assert log == log_by_power_sum(a)
            assert all((k * c).denominator == 1 for k, c in enumerate(log.coeffs))
            for unit in (a, -a):
                assert list(unit.inverse().coeffs) == inverse_by_schoolbook(unit)
            for result in (log, a.inverse(), -a.inverse()):
                assert_lowest_terms(result)


@pytest.mark.parametrize("j", [2, 3, 4, 7, 11])
def test_exp_leaves_the_integer_path_at_the_first_rational_coefficient(j):
    # exp(sum_k N_k t^k / k) with N_k = 1 is 1/(1 - t), all ones; N_j = 2
    # adds t^j / j, so a_0..a_(j-1) are integers and a_j is not.  The
    # operand k u_k = N_k is integral throughout.
    n = j + 4
    u = TruncSeries(n, [0] + [Fraction(2 if k == j else 1, k) for k in range(1, n + 1)])
    a = u.exp()
    assert [c.denominator for c in a.coeffs[:j]] == [1] * j and a[j].denominator > 1
    assert a == exp_by_power_sum(u)
    assert_lowest_terms(a)
    # the same recurrence with the roles read back: log(a) = u
    assert a.log() == u


@pytest.mark.parametrize("reflected", [False, True], ids=["series_op_bool", "bool_op_series"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("flag", [True, False])
def test_scalar_arithmetic_refuses_bool(flag, op, reflected):
    # like the constructor: a bool is not a coefficient
    s = TruncSeries(2, [1, 2])
    with pytest.raises(TypeError):
        op(flag, s) if reflected else op(s, flag)


def test_results_hold_fractions_only():
    s = TruncSeries(3, [1, 2, Fraction(1, 2)])
    unit = TruncSeries(3, [1, 2, 3])
    for result in (
        s + 1, 1 + s, s - 1, s * 3, 3 * s, s * Fraction(1, 3), -s, s * s, s + s,
        unit.log(), unit.inverse(), (unit - 1).exp(), unit**3, unit**-2,
    ):
        assert_lowest_terms(result)


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
    s = TruncSeries(5, [0, 1])
    with pytest.raises(ValueError):
        s.inverse()
    with pytest.raises(ValueError):
        s.log()
    with pytest.raises(ValueError):
        TruncSeries.one(5).exp()


def test_constructor_reduces_long_input():
    long, short = TruncSeries(2, [1, 2, 3, 4]), TruncSeries(2, [1, 2, 3])
    assert long == short
    assert hash(long) == hash(short)
    assert len({long, short}) == 1


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/3", True, Decimal("0.5"), None])
def test_constructor_refuses_inexact_scalars(bad):
    # a float would enter as its binary expansion, a string by a parse
    with pytest.raises(TypeError, match="ints or Fractions"):
        TruncSeries(2, [1, bad])


def test_negative_order_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        TruncSeries(-1)


def test_index_outside_the_order_is_refused():
    s = TruncSeries(3, [1, 2])
    for i in (-1, s.order + 1):
        with pytest.raises(IndexError):
            s[i]


def test_series_is_frozen():
    s = TruncSeries(2, [1, 2])
    with pytest.raises(AttributeError):
        s.coeffs = (Fraction(0),) * 3


# -- the representation: numerator and denominator tuples -----------------


def assert_canonical_pairs(s: TruncSeries) -> None:
    """Two int tuples of order + 1 entries, each coefficient in lowest
    terms with a positive denominator, zero as 0/1."""
    assert len(s.nums) == len(s.dens) == s.order + 1
    for n, d in zip(s.nums, s.dens):
        assert type(n) is int and type(d) is int
        assert d > 0 and gcd(n, d) == 1
        assert n or d == 1


@pytest.mark.parametrize("order", [0, 1, 3, 8])
def test_every_result_holds_canonical_pairs(order):
    rng = Random(5000 + order)
    families = coefficient_families(rng, order)
    for ca, cb in product(families.values(), repeat=2):
        a, b = TruncSeries(order, ca), TruncSeries(order, cb)
        unit, shifted = a * (1 / a[0]), b - b[0]
        for result in (
            a + b, a - b, a - a, -a, a * b, a * shifted, a * 0, a + Fraction(1, 3),
            a.inverse(), unit.log(), shifted.exp(), a**3, a**-2,
        ):
            assert_canonical_pairs(result)
            assert result.coeffs == tuple(map(Fraction, result.nums, result.dens))


def test_equal_series_from_different_inputs_compare_and_hash_equal():
    for left, right in [
        ([Fraction(2, 4)], [Fraction(1, 2)]),
        ([2], [Fraction(4, 2)]),
        ([0, Fraction(-3, 6), 5], [Fraction(0, 7), Fraction(1, -2), Fraction(10, 2)]),
        ([1, 0, 0], [1]),
    ]:
        a, b = TruncSeries(3, left), TruncSeries(3, right)
        assert a == b and hash(a) == hash(b)
        assert (a.nums, a.dens) == (b.nums, b.dens)
    assert TruncSeries(3, [1]) != TruncSeries(2, [1])


def test_coefficients_read_back_as_fractions():
    s = TruncSeries(3, [1, Fraction(-2, 6), 0, 7])
    assert s.nums == (1, -1, 0, 7) and s.dens == (1, 3, 1, 1)
    assert s.coeffs == (1, Fraction(-1, 3), 0, 7)
    assert all(type(c) is Fraction for c in s.coeffs)
    assert [s[i] for i in range(4)] == list(s.coeffs)
    assert all(type(s[i]) is Fraction for i in range(4))


@pytest.mark.parametrize("field", ["order", "nums", "dens", "coeffs"])
def test_no_field_of_a_series_can_be_set(field):
    s = TruncSeries(2, [1, 2])
    with pytest.raises(AttributeError):
        setattr(s, field, getattr(s, field))
    assert s == TruncSeries(2, [1, 2])


def test_series_survives_pickle_and_deepcopy():
    s = TruncSeries(3, [1, Fraction(-2, 6), 0, 7])
    for back in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert back == s and (back.nums, back.dens) == (s.nums, s.dens)


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
    with pytest.raises(ValueError, match="Bernoulli index 501 is above MAX_BERNOULLI_INDEX = 500"):
        bernoulli(MAX_BERNOULLI_INDEX + 1)
    with pytest.raises(ValueError, match="indexed by k >= 0"):
        bernoulli(-1)


def test_bernoulli_odd_vanishing():
    for k in range(1, 20):
        assert bernoulli(2 * k + 1) == 0


def test_bernoulli_matches_the_defining_recurrence_up_to_the_bound():
    assert [bernoulli(k) for k in range(MAX_BERNOULLI_INDEX + 1)] == bernoulli_by_recurrence(
        MAX_BERNOULLI_INDEX
    )


def test_the_tangent_row_grows_geometrically_from_the_first_index_asked(monkeypatch):
    # T_1..T_10 (OEIS A000182); a cold index builds the row to itself only,
    # and one past the end at least doubles it
    tangents = [1, 2, 16, 272, 7936, 353792, 22368256, 1903757312, 209865342976, 29088885112832]
    row = [0, 1]
    monkeypatch.setattr(flagzeta.series, "_TANGENTS", row)
    assert flagzeta.series._tangent_number(3) == 16 and len(row) == 4
    assert flagzeta.series._tangent_number(2) == 2 and len(row) == 4
    assert flagzeta.series._tangent_number(4) == 272 and len(row) == 7
    assert flagzeta.series._tangent_number(10) == tangents[-1] and len(row) == 13
    assert row[1:11] == tangents
    monkeypatch.setattr(flagzeta.series, "_TANGENTS", [0, 1])
    assert flagzeta.series._tangent_number(MAX_BERNOULLI_INDEX // 2 - 1) > 0
    flagzeta.series._tangent_number(MAX_BERNOULLI_INDEX // 2)
    assert len(flagzeta.series._TANGENTS) == MAX_BERNOULLI_INDEX // 2 + 1  # capped at the bound
