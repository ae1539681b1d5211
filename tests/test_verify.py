"""Tests for the chi-versus-order verification and family sweeps."""

import json

import pytest

from flagzeta.cells import (
    Affine,
    BasePoint,
    DisjointUnion,
    FlagBundle,
    ProjBundle,
    cells_of,
)
from flagzeta.fields import FiniteField, quadratic_field, rationals
from flagzeta.verify import (
    SupportRow,
    affine_family,
    check_soule,
    compositions,
    flag_family,
    proj_family,
    sweep,
)
from flagzeta.weights import weight_table_of

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
        assert report.ok, report.mismatches()
        assert report.matched == 23


def test_projective_line_report_values():
    report = check_soule(ProjBundle(BasePoint(Q), 1), (-5, 2))
    by_k = {r.k: (r.chi, r.ord) for r in report.rows}
    assert by_k[1] == (-1, -1)
    assert by_k[2] == (-1, -1)
    assert by_k[0] == (0, 0)
    assert by_k[-1] == (1, 1)
    assert report.ok


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
    support = {row.j: row.degrees for row in report.support}
    assert support[-4] == (9, 11, 13, 15)
    # weight 2 sees the rank class of the shift-1 stratum and K_3 of the
    # shift-3 stratum (its weight -1 entry, rank r2 = 1)
    assert support[2] == (0, 3)


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
    expected = tuple(
        SupportRow(
            j,
            tuple(m for m, _ in table.support_at(j)),
            sum(d for _, d in table.support_at(j)),
        )
        for j in range(lo, hi + 1)
    )
    assert check_soule(x, window).support == expected


def test_support_at_far_weight_is_empty():
    rows = check_soule(ProjBundle(BasePoint(Q), 3), (6, 10)).support
    assert all(row.degrees == () for row in rows)


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
