"""Tests for weight tables and Euler characteristics by weight."""

from pathlib import Path

import pytest

from flagzeta.cells import (
    Affine,
    BasePoint,
    CellDecomposition,
    DisjointUnion,
    ProjBundle,
    cells_of,
)
from flagzeta.fields import (
    FiniteField,
    finite_field,
    ord_at_integer,
    quadratic_field,
    rationals,
)
from flagzeta.lfuncs import lfactorization_of
from flagzeta.parse import load_field_registry
from flagzeta.weights import _K_ROWS, WeightTable, _base_entries, chi, weight_table_of

Q = rationals()
QI = quadratic_field(-1)
Q2 = quadratic_field(2)
QM5 = quadratic_field(-5)
CUBIC = load_field_registry(Path(__file__).with_name("golden_fields.json"))["C"]
SAMPLE_BASES = [Q, Q2, QI, CUBIC, finite_field(4)]


# -- base tables -------------------------------------------------------------


def test_borel_table_rationals():
    t = weight_table_of(BasePoint(Q), -6, 2)
    assert t.items() == [((0, 1), 1), ((5, -2), 1), ((9, -4), 1), ((13, -6), 1)]
    assert t.dim(1, 0) == 0  # rank of the units of Z is zero
    assert t.dim(3, -1) == 0  # even Adams eigenvalue, r2 = 0


def test_borel_table_gaussian_field():
    t = weight_table_of(BasePoint(QI), -4, 2)
    assert t.items() == [
        ((0, 1), 1),
        ((3, -1), 1),
        ((5, -2), 1),
        ((7, -3), 1),
        ((9, -4), 1),
    ]


def test_borel_table_real_quadratic():
    t = weight_table_of(BasePoint(Q2), -3, 1)
    # units have rank 1; odd Adams eigenvalues give rank 2, even give 0
    assert t.items() == [((0, 1), 1), ((1, 0), 1), ((5, -2), 2)]


def test_borel_table_ranks_by_degree_mod_four():
    # degrees 1 mod 4 carry rank r1+r2, degrees 3 mod 4 carry rank r2
    t = weight_table_of(BasePoint(QM5), -10, 1)
    for j in range(-10, 0):
        i = 1 - j
        m = 2 * i - 1
        expected = (QM5.r1 + QM5.r2) if m % 4 == 1 else QM5.r2
        assert t.dim(m, j) == expected


def test_finite_field_table():
    t = weight_table_of(BasePoint(FiniteField(3, 2)), -2, 2)
    assert t.items() == [((0, 0), 1)]


def test_window_is_enforced():
    t = weight_table_of(BasePoint(Q), -4, 2)
    with pytest.raises(ValueError, match="outside table window"):
        t.dim(0, 5)
    with pytest.raises(ValueError, match="outside table window"):
        t.support_at(-9)


def test_an_empty_window_is_refused():
    with pytest.raises(ValueError, match="empty weight window"):
        weight_table_of(BasePoint(Q), 2, 1)


def test_a_column_outside_the_window_is_refused():
    # the table holds a class, whose rank in degree 0 sits at weight 4: the
    # columns it builds stay inside the window, and one outside is refused
    t = WeightTable(cells_of(Affine(BasePoint(Q), 3)), -4, 2)
    assert t.columns == {-3: ((13, 1),), -1: ((9, 1),), 1: ((5, 1),)}
    with pytest.raises(ValueError, match=r"weight 5 outside table window \[-4, 2\]"):
        t.support_at(5)


@pytest.mark.parametrize("base", SAMPLE_BASES, ids=lambda b: b.label)
@pytest.mark.parametrize("window", [(-3, 3), (0, 2), (-1, 1), (-2, 0), (2, 6), (-9, -2)])
def test_base_entries_stay_inside_their_window(base, window):
    # weight_table_of relies on this instead of re-checking each entry
    lo, hi = window
    entries = sorted(_base_entries(base, lo, hi))
    assert all(lo <= j <= hi for (_, j), _ in entries)
    assert entries == weight_table_of(BasePoint(base), lo, hi).items()


def _base_chi(base, t):
    """The base's chi at weight t alone: its signed column sum there."""
    return sum(dim if m % 2 else -dim for (m, _), dim in _base_entries(base, t, t))


@pytest.mark.parametrize("base", SAMPLE_BASES, ids=lambda b: b.label)
def test_each_side_is_a_head_and_a_two_periodic_tail(base):
    # The lemma the window kernel rests on: a base's order and its chi
    # vanish from t = 2 on and repeat with period 2 from t = -1 down, so
    # f(1), f(0), f(-1) and f(-2) determine them everywhere.  Every kind
    # with a K-side row has a sample here, so a new kind without one fails.
    assert set(_K_ROWS) <= {type(b) for b in SAMPLE_BASES}
    for f in (lambda t: ord_at_integer(base, t), lambda t: _base_chi(base, t)):
        assert [f(t) for t in range(2, 21)] == [0] * 19
        for t in range(-1, -501, -1):
            assert f(t) == f(t - 2), t


# -- tables of cellular schemes ------------------------------------------------


def test_projective_line_table():
    t = weight_table_of(ProjBundle(BasePoint(Q), 1), -4, 3)
    assert t.items() == [
        ((0, 1), 1),
        ((0, 2), 1),
        ((5, -2), 1),
        ((5, -1), 1),
        ((9, -4), 1),
        ((9, -3), 1),
    ]


def test_affine_shift_is_weight_translation():
    for d in range(11):
        base = weight_table_of(BasePoint(QI), -15 - d, 2 - d)
        shifted = weight_table_of(Affine(BasePoint(QI), d), -15, 2)
        assert shifted.items() == [
            ((m, j + d), dim) for (m, j), dim in base.items()
        ]


def test_union_adds_tables():
    x = DisjointUnion((BasePoint(Q), BasePoint(Q)))
    t = weight_table_of(x, -4, 2)
    single = weight_table_of(BasePoint(Q), -4, 2)
    assert t.items() == [(key, 2 * dim) for key, dim in single.items()]


def test_signed_class_has_virtual_ranks():
    # A^1 minus its origin: the shifted table of Z minus the table of Z
    c = cells_of(Affine(BasePoint(Q), 1)) / cells_of(BasePoint(Q))
    t = weight_table_of(c, -4, 2)
    assert t.items() == [
        ((0, 1), -1),
        ((0, 2), 1),
        ((5, -2), -1),
        ((5, -1), 1),
        ((9, -4), -1),
        ((9, -3), 1),
    ]
    assert [chi(t)[k] for k in range(-4, 3)] == [-1, 1, -1, 1, 0, 1, -1]


def test_cancelling_ranks_leave_no_column():
    # Z[i] and Z share the rank-1 entries in degrees 1 mod 4 and in degree 0
    c = cells_of(BasePoint(Q)) / cells_of(BasePoint(QI))
    t = weight_table_of(c, -3, 2)
    assert t.items() == [((3, -1), -1), ((7, -3), -1)]
    assert t.support_at(1) == ()
    assert t.support_at(-2) == ()
    assert chi(t) == {-3: -1, -2: 0, -1: -1, 0: 0, 1: 0, 2: 0}
    lf = lfactorization_of(c)
    assert chi(t) == {k: lf.ord_at(k) for k in range(-3, 3)}


def test_table_accepts_cells_or_expression():
    x = ProjBundle(BasePoint(QI), 2)
    assert weight_table_of(x, -5, 3) == weight_table_of(cells_of(x), -5, 3)


# -- chi ---------------------------------------------------------------------


def test_chi_of_rationals():
    c = chi(weight_table_of(BasePoint(Q), -6, 2))
    assert c[1] == -1
    assert c[0] == 0
    assert [c[-n] for n in range(1, 7)] == [0, 1, 0, 1, 0, 1]


def test_chi_of_real_quadratic():
    c = chi(weight_table_of(BasePoint(Q2), -4, 2))
    assert c[1] == -1
    assert c[0] == 1
    assert c[-1] == 0
    assert c[-2] == 2


def test_chi_of_finite_field():
    c = chi(weight_table_of(BasePoint(FiniteField(5)), -2, 2))
    assert c[0] == -1
    assert c[1] == 0


def test_chi_of_projective_bundle_is_shifted_sum():
    for d in range(6):
        x = ProjBundle(BasePoint(QM5), d)
        c = chi(weight_table_of(x, -10, 2))
        base = chi(weight_table_of(BasePoint(QM5), -10 - d, 2))
        for k in range(-10, 3):
            assert c[k] == sum(base[k - i] for i in range(d + 1))


def test_from_cover_two_charts_of_projective_line():
    # P^1 = A^1 union A^1 with intersection the punctured line, the class
    # of A^1 with the origin excised.
    window = (-10, 2)
    affine = cells_of(Affine(BasePoint(Q), 1))
    punctured = affine / cells_of(BasePoint(Q))
    covered = CellDecomposition.from_cover(
        {(1,): affine, (2,): affine, (1, 2): punctured}
    )
    direct = ProjBundle(BasePoint(Q), 1)
    assert covered == cells_of(direct)
    assert chi(weight_table_of(covered, *window)) == chi(weight_table_of(direct, *window))


def test_from_cover_degenerate_equal_opens():
    # U_1 = U_2 = U_3 = X: all intersections equal X and the alternating
    # sum (3 - 3 + 1) [X] collapses to [X].
    x = cells_of(ProjBundle(BasePoint(QI), 2))
    parts = {
        (1,): x, (2,): x, (3,): x,
        (1, 2): x, (1, 3): x, (2, 3): x,
        (1, 2, 3): x,
    }
    assert CellDecomposition.from_cover(parts) == x


def test_from_cover_rejects_gaps():
    x = cells_of(BasePoint(Q))
    with pytest.raises(ValueError, match="missing intersection"):
        CellDecomposition.from_cover({(1,): x, (2,): x})


# -- Beilinson-Soule style support checks -----------------------------------------


def test_support_is_finite_and_located():
    t = weight_table_of(ProjBundle(BasePoint(QM5), 3), -6, 2)
    support = t.support_at(-4)
    # weights -4..-7 of the base shifted by 0..3: degrees 9, 11, 13, 15
    assert support == ((9, 1), (11, 1), (13, 1), (15, 1))


def test_support_empty_beyond_shifts():
    t = weight_table_of(ProjBundle(BasePoint(Q), 3), -2, 10)
    assert t.support_at(10) == ()
