"""Tests for number-field data, residue degrees, and zeta special values."""

import dataclasses
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest

import flagzeta.fields
from flagzeta.cells import BasePoint, DisjointUnion, cells_of
from flagzeta.fields import (
    MAX_FACTORED,
    MAX_PRIME_BOUND,
    FiniteField,
    NumberField,
    SpecialValue,
    UnsupportedFieldError,
    base_sort_key,
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
    _residue_degrees,
    _smallest_prime_factor,
    _squarefree_part,
)
from flagzeta.lfuncs import lfactorization_of, lfun_partial_eval, special_value_product
from oracles import primes_by_trial_division, quadratic_root_count

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


@pytest.mark.parametrize("disc", [0, 1, 4, 9, 100, -1, 2, 3, -2, 6, -6, 7])
def test_a_quadratic_field_refuses_what_no_quadratic_field_has(disc):
    # a quadratic discriminant is 0 or 1 mod 4 and not a square
    r1, r2 = (2, 0) if disc > 0 else (0, 1)
    message = f"^field 'K': {disc} is no quadratic field's discriminant"
    with pytest.raises(ValueError, match=message):
        NumberField("K", 2, r1, r2, disc=disc)


def test_make_number_field_roundtrip():
    rec = {"label": "K", "degree": 2, "r1": 0, "r2": 1, "disc": -20}
    assert make_number_field(rec) == dataclasses.replace(quadratic_field(-5), label="K")


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


def test_primes_upto_is_trial_division():
    # the odd-only sieve's edges: n just below, at and just above p^2,
    # the first multiple that p crosses off
    reference = primes_by_trial_division(997**2 + 1)
    edges = [p * p + e for p in (2, 3, 5, 7, 97, 997) for e in (-1, 0, 1)]
    for n in [*range(601), *edges]:
        assert primes_upto(n) == list(reference[: bisect_right(reference, n)]), n
    assert len(primes_upto(2_000_000)) == 148_933


# -- residue degrees ------------------------------------------------------


def test_residue_degrees_rationals():
    assert _residue_degrees(Q, 7) == ((1, 1),)


def test_residue_degrees_gaussian_integers():
    # p splits in Q(sqrt -1) iff p = 1 mod 4; 2 ramifies.
    assert _residue_degrees(QI, 5) == ((1, 2),)
    assert _residue_degrees(QI, 3) == ((2, 1),)
    assert _residue_degrees(QI, 2) == ((1, 1),)


def test_residue_degrees_trichotomy_matches_root_counting():
    # Independent oracle, p = 2 included (Dedekind-Kummer): p ramifies iff
    # it divides the discriminant, else it splits iff the minimal
    # polynomial has two roots mod p and is inert iff it has none.
    # -7, 17 and -15 are 1 mod 8, so 2 splits in their fields.
    at_two = set()
    for d in (-1, -5, 2, 5, -7, 17, -15):
        fld = quadratic_field(d)
        for p in primes_upto(500):
            degrees = _residue_degrees(fld, p)
            if fld.disc % p == 0:
                assert degrees == ((1, 1),)
            else:
                roots = quadratic_root_count(fld.disc, p)
                assert roots in (0, 2)
                assert degrees == (((1, 2),) if roots == 2 else ((2, 1),))
        at_two.add(_residue_degrees(fld, 2))
    assert len(at_two) == 3  # 2 ramifies, splits and stays inert among them


def test_residue_degrees_from_splitting_table():
    cubic = make_number_field(
        {
            "label": "C",
            "degree": 3,
            "r1": 1,
            "r2": 1,
            "splitting": {"2": [1, 2], "5": [3]},
        }
    )
    assert _residue_degrees(cubic, 2) == ((1, 1), (2, 1))
    assert _residue_degrees(cubic, 5) == ((3, 1),)
    with pytest.raises(UnsupportedFieldError):
        _residue_degrees(cubic, 7)


def test_residue_degrees_read_each_entry_of_a_long_table():
    # every prime to 2000 but each fifth (2 among them) is listed, with
    # entries of every shape; a listed p reads its own entry, any other p is
    # refused by name, below, inside and beyond the listed range alike
    primes = primes_upto(2000)
    shapes = ([1, 1, 1], [1, 2], [3], [2, 1], [1, 1, 1])
    listed = {p: shapes[i % 5] for i, p in enumerate(primes) if i % 5}
    cubic = make_number_field(
        {"label": "C", "degree": 3, "r1": 1, "r2": 1,
         "splitting": {str(p): fs for p, fs in reversed(listed.items())}}
    )
    for p in primes:
        if p in listed:
            expected = tuple(sorted(Counter(listed[p]).items()))
            assert _residue_degrees(cubic, p) == expected, p
        else:
            message = rf"^field 'C' has degree 3 and no splitting entry for p={p}$"
            with pytest.raises(UnsupportedFieldError, match=message):
                _residue_degrees(cubic, p)
    assert 2 not in listed and 3 in listed
    with pytest.raises(UnsupportedFieldError, match="no splitting entry for p=2003$"):
        _residue_degrees(cubic, 2003)


def test_a_quadratic_field_splits_by_its_discriminant_alone():
    # the discriminant, not a table, splits a field of degree <= 2
    record = {"label": "K", "degree": 2, "r1": 0, "r2": 1, "disc": -4,
              "splitting": {"5": [2], "3": [1, 1]}}
    with pytest.raises(ValueError, match="field 'K': degree 2 splits by its disc"):
        make_number_field(record)
    with pytest.raises(ValueError, match="field 'Q': degree 1 splits"):
        NumberField("Q", 1, 1, 0, disc=1, splitting=((2, (1,)),))
    with pytest.raises(UnsupportedFieldError, match="no discriminant"):
        _residue_degrees(NumberField("K", 2, 0, 1), 3)


def _per_prime_product(fld, x, bound):
    value = 1.0
    for p in primes_upto(bound):
        local = 1.0
        for f, g in _residue_degrees(fld, p):
            local *= (1.0 - p ** (-f * x)) ** (-g)
        value *= local
    return value


@pytest.mark.parametrize("disc", [-4, 8, -8, 12, -28, 5])
def test_a_quadratic_euler_product_splits_once_per_class_mod_4_disc(disc):
    # direct fields, the discriminant taken as given: -28 is not
    # fundamental, and 2 ramifies in every field here but Q(sqrt 5)
    r1, r2 = (2, 0) if disc > 0 else (0, 1)
    fld = NumberField("K", 2, r1, r2, disc=disc)
    points = (2.5, 3.0, 4.25)
    for bound in (2, 3, 97, 1000, 3000):
        expected = [_per_prime_product(fld, x, bound) for x in points]
        assert fld.euler_values(points, bound) == expected, bound


def test_an_euler_product_without_splitting_data_is_refused():
    message = "^field 'K' has no discriminant; cannot split p=2$"
    with pytest.raises(UnsupportedFieldError, match=message):
        NumberField("K", 2, 0, 1).euler_values((3.0,), 100)
    # a cubic listing every prime to 100 but 11 answers below 11 only
    cubic = NumberField(
        "C", 3, 1, 1, splitting=tuple((p, (3,)) for p in primes_upto(100) if p != 11)
    )
    assert cubic.euler_values((3.0,), 7) == [_per_prime_product(cubic, 3.0, 7)]
    message = "^field 'C' has degree 3 and no splitting entry for p=11$"
    with pytest.raises(UnsupportedFieldError, match=message):
        cubic.euler_values((3.0,), 100)


def test_a_splitting_table_lists_each_prime_once():
    record = {"label": "K", "degree": 3, "r1": 1, "r2": 1,
              "splitting": {"2": [3], "02": [1, 2], "002": [1, 1, 1]}}
    with pytest.raises(ValueError, match="field 'K': splitting table lists p=2 twice"):
        make_number_field(record)


def test_a_splitting_table_is_stored_in_one_order():
    a = NumberField("K", 3, 1, 1, splitting=((2, (3,)), (5, (1, 2))))
    b = NumberField("K", 3, 1, 1, splitting=((5, (2, 1)), (2, (3,))))
    assert a == b and a.splitting == ((2, (3,)), (5, (1, 2)))
    union = cells_of(DisjointUnion((BasePoint(a), BasePoint(b))))
    assert [(base, mult) for base, _, mult in union.strata] == [(a, 2)]


def test_bases_that_differ_only_in_data_stay_apart():
    # same label and signature, different splitting at 2 (inert vs 1 + 2)
    a = NumberField("K", 3, 1, 1, splitting=((2, (3,)),))
    b = NumberField("K", 3, 1, 1, splitting=((2, (1, 2)),))
    cells = cells_of(DisjointUnion((BasePoint(a), BasePoint(b))))
    assert len(cells.strata) == 2
    assert lfun_partial_eval(cells, 3, 2) == zeta_partial_eval(a, 3, 2) * zeta_partial_eval(b, 3, 2)
    # a missing discriminant is not disc = 0
    c, d = NumberField("K", 3, 1, 1), NumberField("K", 3, 1, 1, disc=0)
    assert base_sort_key(c) != base_sort_key(d)
    assert len(cells_of(DisjointUnion((BasePoint(c), BasePoint(d)))).strata) == 2


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
            for bound in (2, 10, MAX_PRIME_BOUND):
                assert zeta_partial_eval(finite_field(q), s, bound) == expected
    with pytest.raises(ValueError, match="s > 1"):
        zeta_partial_eval(finite_field(2), 1.0, 100)


@pytest.mark.parametrize("fld", [Q, finite_field(4)], ids=str)
@pytest.mark.parametrize(
    "s, bound, message",
    [
        (2.0, 0, "below 2"),
        (2.0, 1, "below 2"),
        (2.0, -5, "below 2"),
        (math.nan, 100, "finite s > 1"),
        (math.inf, 100, "finite s > 1"),
        (-math.inf, 100, "finite s > 1"),
    ],
)
def test_partial_zeta_refuses_before_any_sieve(monkeypatch, fld, s, bound, message):
    def no_sieve(n):
        raise AssertionError("sieved before refusing")

    monkeypatch.setattr(flagzeta.fields, "primes_upto", no_sieve)
    with pytest.raises(ValueError, match=message):
        zeta_partial_eval(fld, s, bound)


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


def test_zeta_value_at_is_the_finite_nonzero_closed_form_over_q():
    for k in range(-12, 13):
        value = Q.zeta_value(k)
        if k == 1 or (k < 0 and k % 2 == 0) or (k >= 3 and k % 2 == 1):
            assert value is None, k  # the pole, a trivial zero, or zeta(odd)
        elif k <= 0:
            expected = special_value_rational(1 - k) if k else SpecialValue(Fraction(-1, 2))
            assert value == expected and value.kind == "exact-rational"
        else:
            assert value == special_value_even(k // 2)
            assert value.kind == "rational-times-pi-power"


def test_a_finite_field_has_no_closed_form_whatever_its_degree():
    # the row entry answers, not a probe of the base: a degree does not
    # give F_p the closed form zeta(1 - k) = -B_k / k
    class FiniteFieldOfDegree1(FiniteField):
        degree = 1

    assert all(FiniteFieldOfDegree1(2).zeta_value(k) is None for k in range(-12, 13))


def test_every_degree_1_field_has_qs_closed_form_and_no_other_base_has_one():
    # the rule the row entry keeps: a number field of degree 1 is Q, whatever
    # its label; the cubic is the one of golden_fields.json
    qq = NumberField("QQ", 1, 1, 0, disc=1)
    assert [qq.zeta_value(k) for k in range(-12, 13)] == [Q.zeta_value(k) for k in range(-12, 13)]
    assert special_value_product(cells_of(BasePoint(qq)), -1) == SpecialValue(Fraction(-1, 12))
    golden_cubic = NumberField("K", 3, 1, 1)
    for fld in (QI, Q5, golden_cubic, finite_field(2)):
        assert all(fld.zeta_value(k) is None for k in range(-12, 13)), fld


def test_special_value_kind_is_read_off_its_data():
    assert SpecialValue(Fraction(3, 2)).kind == "exact-rational"
    assert SpecialValue(Fraction(6), pi_power=-2).kind == "rational-times-pi-power"
    symbolic = SpecialValue(Fraction(1), 2, (("Q", 3, 1), ("K", 0, -2)))
    assert symbolic.kind == "symbolic-product"
    assert symbolic.approx() is None
    assert str(symbolic) == "1 * pi^2 * L(Q, s at 3) * L(K, s at 0)^-2"
    assert str(SpecialValue(Fraction(1), factors=(("Q", 3, 1),), order=-1)) == (
        "L(Q, s at 3) (order -1)"
    )
    assert str(SpecialValue(Fraction(0), order=2)) == "0 (order 2)"
    assert SpecialValue(Fraction(10**400)).approx() is None  # beyond a float
