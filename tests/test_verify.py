"""Tests for the chi-versus-order verification and family sweeps."""

import json
from dataclasses import dataclass
from fractions import Fraction

import pytest

import flagzeta.weights
from flagzeta.cells import (
    Affine,
    BasePoint,
    CellDecomposition,
    DisjointUnion,
    FlagBundle,
    ProjBundle,
    cells_of,
)
from flagzeta.fields import FiniteField, quadratic_field, rationals
from flagzeta.lfuncs import special_value_product
from flagzeta.verify import (
    SouleRow,
    affine_family,
    check_soule,
    compositions,
    flag_family,
    proj_family,
    sweep,
)
from flagzeta.weights import WeightTable, weight_table_of

Q = rationals()
QI = quadratic_field(-1)
Q2 = quadratic_field(2)
QM5 = quadratic_field(-5)
Q5 = quadratic_field(5)
F2 = FiniteField(2)
F3 = FiniteField(3)

FIELDS = [Q, QI, QM5, Q2, Q5]


def test_base_points_verify():
    for fld in FIELDS:
        report = check_soule(BasePoint(fld), (-20, 2))
        assert report.ok, report.mismatches
        assert report.matched == 23


def test_projective_line_report_values():
    report = check_soule(ProjBundle(BasePoint(Q), 1), (-5, 2))
    by_k = {r.k: (r.chi, r.ord) for r in report.rows}
    assert by_k[1] == (-1, -1)
    assert by_k[2] == (-1, -1)
    assert by_k[0] == (0, 0)
    assert by_k[-1] == (1, 1)
    assert report.ok


def test_a_row_is_frozen_k_chi_ord_with_its_match():
    report = check_soule(ProjBundle(BasePoint(QI), 1), (-3, 2))
    row = report.rows[0]
    assert SouleRow._fields == ("k", "chi", "ord")
    assert (row.k, row.chi, row.ord, row.match) == (-3, 2, 2, True)
    assert SouleRow(0, 1, 2).match is False and SouleRow(0, 2, 2).match is True
    for name in ("k", "chi", "ord", "match", "extra"):
        with pytest.raises(AttributeError):
            setattr(row, name, 0)
    # the JSON form of a report is the one it had before rows were tuples
    assert report.to_dict(support=False) == {
        "scheme": "proj(Q(sqrt -1), 1)", "k_min": -3, "k_max": 2,
        "rows": [
            {"k": -3, "chi": 2, "ord": 2, "match": True},
            {"k": -2, "chi": 2, "ord": 2, "match": True},
            {"k": -1, "chi": 2, "ord": 2, "match": True},
            {"k": 0, "chi": 1, "ord": 1, "match": True},
            {"k": 1, "chi": -1, "ord": -1, "match": True},
            {"k": 2, "chi": -1, "ord": -1, "match": True},
        ],
        "matched": 6, "mismatched": 0, "ok": True,
    }


def test_finite_field_base_verifies():
    report = check_soule(BasePoint(F2), (-3, 3))
    by_k = {r.k: (r.chi, r.ord) for r in report.rows}
    assert by_k[0] == (-1, -1)
    assert all(v == (0, 0) for k, v in by_k.items() if k != 0)
    assert report.ok


def test_mixed_union_verifies():
    x = DisjointUnion((BasePoint(QI), Affine(BasePoint(F2), 2)))
    report = check_soule(x, (-6, 3))
    assert report.ok


def test_signed_class_verifies():
    # the punctured line: A^1 with its origin excised, not a scheme here
    c = cells_of(Affine(BasePoint(Q), 1)) / cells_of(BasePoint(Q))
    report = check_soule(c, (-10, 2))
    assert report.ok
    assert {r.k: r.chi for r in report.rows}[1] == 1
    assert report.scheme == "L(Q, s)^-1 * L(Q, s-1)"


def test_report_support_scan():
    report = check_soule(ProjBundle(BasePoint(QM5), 3), (-6, 2))
    support = {row["j"]: row["degrees"] for row in report.to_dict()["support"]}
    assert support[-4] == [9, 11, 13, 15]
    # weight 2 sees the rank class of the shift-1 stratum and K_3 of the
    # shift-3 stratum (its weight -1 entry, rank r2 = 1)
    assert support[2] == [0, 3]


@pytest.mark.parametrize(
    "x, window",
    [
        (ProjBundle(BasePoint(QM5), 3), (-6, 2)),
        (FlagBundle(BasePoint(Q2), (1, 2, 1)), (-15, 5)),
        (DisjointUnion((ProjBundle(BasePoint(QI), 2), Affine(BasePoint(F3), 1))), (-9, 4)),
        (ProjBundle(BasePoint(Q), 3), (6, 10)),
    ],
)
def test_support_rows_match_per_weight_support_at(x, window):
    lo, hi = window
    table = weight_table_of(cells_of(x), lo, hi)
    report = check_soule(x, window)
    assert report.table == table
    expected = [
        {
            "j": j,
            "degrees": [m for m, _ in table.support_at(j)],
            "total_dim": sum(d for _, d in table.support_at(j)),
        }
        for j in range(lo, hi + 1)
    ]
    out = report.to_dict()
    assert (out["k_min"], out["k_max"]) == window
    assert out["support"] == expected


def test_support_at_far_weight_is_empty():
    rows = check_soule(ProjBundle(BasePoint(Q), 3), (6, 10)).to_dict()["support"]
    assert [row["j"] for row in rows] == [6, 7, 8, 9, 10]
    assert all(row["degrees"] == [] and row["total_dim"] == 0 for row in rows)


def test_check_soule_reads_no_support(monkeypatch):
    # the support is rendered by to_dict alone, so a caller reading .ok
    # pays for no per-weight scan
    calls = []
    support_at = WeightTable.support_at

    def counted(table, j):
        calls.append(j)
        return support_at(table, j)

    monkeypatch.setattr(WeightTable, "support_at", counted)
    report = check_soule(ProjBundle(BasePoint(QM5), 3), (-6, 2))
    assert report.ok
    assert calls == []
    report.to_dict()
    assert calls == list(range(-6, 3))


def test_check_soule_builds_no_columns(monkeypatch):
    # chi and the orders are read off the class, so the per-weight columns
    # are built only when the support is rendered
    built = []
    columns = vars(WeightTable)["columns"].func

    monkeypatch.setattr(WeightTable, "columns", property(lambda t: built.append(t) or columns(t)))
    report = check_soule(ProjBundle(BasePoint(QM5), 3), (-6, 2))
    assert report.ok
    assert built == []
    report.to_dict()
    assert built


def test_unnamed_report_over_a_class_builds_no_records(monkeypatch):
    # the report is named str(class), read off the polynomials
    expected = " * ".join(
        ["L(Q(sqrt -1), s)"] + [f"L(Q(sqrt -1), s-{d})" for d in range(1, 4001)]
    )
    cells = cells_of(ProjBundle(BasePoint(QI), 4000))
    read = []
    strata = vars(CellDecomposition)["strata"].func
    monkeypatch.setattr(CellDecomposition, "strata", property(lambda c: read.append(c) or strata(c)))
    report = check_soule(cells, (-3, 1))
    assert report.ok
    assert read == []
    assert report.scheme == expected


def test_empty_k_range_rejected():
    with pytest.raises(ValueError, match="empty k-range"):
        check_soule(BasePoint(Q), (3, -3))


def test_report_serialization_is_deterministic():
    x = FlagBundle(BasePoint(QI), (2, 1))
    a = json.dumps(check_soule(x, (-8, 2)).to_dict(), sort_keys=True)
    b = json.dumps(check_soule(x, (-8, 2)).to_dict(), sort_keys=True)
    assert a == b


# -- sweeps ------------------------------------------------------------------


def test_compositions():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert sum(1 for _ in compositions(5)) == 16


def test_flag_family_sweep_matches_everywhere():
    family = flag_family(FIELDS, 5)
    assert len(family) == 5 * 31
    report = sweep(family, (-15, 6))
    assert report.ok
    assert report.rows_nonzero >= 1
    assert report.min_chi <= -1
    assert report.max_chi >= 2


def test_proj_and_affine_family_sweeps():
    report = sweep(proj_family(FIELDS, 5), (-15, 8))
    assert report.ok
    report = sweep(affine_family([Q, QI, FiniteField(3)], 5), (-15, 8))
    assert report.ok
    assert report.rows_pole >= 1 and report.rows_zero >= 1


def test_sweep_rejects_empty_family():
    with pytest.raises(ValueError, match="empty family"):
        sweep([], (-5, 2))


def test_sweep_serialization_is_deterministic():
    family = proj_family([Q, QI], 2)
    a = json.dumps(sweep(family, (-6, 2)).to_dict(), sort_keys=True)
    b = json.dumps(sweep(family, (-6, 2)).to_dict(), sort_keys=True)
    assert a == b


# -- a kind is one row per side ------------------------------------------------


@dataclass(frozen=True)
class ToyCurve:
    """A test-local base kind, shaped like a curve over a finite field:
    its L-side row is these fields, and its K-side row is set per test."""

    label: str
    orders: tuple = (-1, -1, 0, 0)  # at s = 1, 0, -1, -2
    q = None

    @property
    def sort_key(self) -> tuple:
        return (2, self.label)

    def zeta_value(self, k: int) -> None:
        return None


@pytest.fixture
def toy_k_row(monkeypatch):
    # K_0 of rank 1 at weights 1 and 0, nothing below: chi = -1 at t = 1, 0
    monkeypatch.setitem(flagzeta.weights._K_ROWS, ToyCurve, lambda b: (((0, 1),), ((0, 1),), 0, 0))


def test_a_new_kind_verifies_from_its_two_rows_alone(toy_k_row):
    e = ToyCurve("E")
    signed = CellDecomposition([(e, 0, 1), (e, 3, -2), (Q, 1, 1), (QI, 0, 1)])
    report = check_soule(signed, (-9, 6))
    assert report.ok and report.matched == 16
    assert report.scheme == "L(Q, s-1) * L(Q(sqrt -1), s) * L(E, s) * L(E, s-3)^-2"
    # by hand: E's pole at t = 1, 0, from each of its terms, plus Q(sqrt -1)'s at 1
    assert [r.ord for r in report.rows if r.k >= 0] == [-1, -2, -1, 2, 2, 0, 0]
    bundle = cells_of(ProjBundle(BasePoint(e), 2)) / cells_of(Affine(BasePoint(Q), 1))
    assert check_soule(bundle, (-9, 6)).ok


def test_a_kind_whose_rows_disagree_at_one_weight_fails_there_only(toy_k_row):
    # the L-side row says no pole at t = 0; the K-side row has chi(0) = -1
    bad = ToyCurve("E'", orders=(-1, 0, 0, 0))
    report = check_soule(CellDecomposition([(bad, 2, 1), (Q, 0, 1)]), (-9, 6))
    assert [(r.k, r.chi, r.ord) for r in report.mismatches] == [(2, -1, 0)]


def test_a_kind_without_a_closed_form_keeps_its_value_symbolic():
    # the toy kind's row has no closed form: zeta(-3) = 1/120 is Q's, E's factor stays
    e = ToyCurve("E")
    value = special_value_product(CellDecomposition([(e, 0, 1)]), -3)
    assert (value.rational, value.factors, value.order) == (1, (("E", -3, 1),), 0)
    value = special_value_product(CellDecomposition([(e, 0, 1), (Q, 0, 1)]), -3)
    assert (value.rational, value.factors) == (Fraction(1, 120), (("E", -3, 1),))
