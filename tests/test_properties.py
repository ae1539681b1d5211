"""Property tests over random scheme expressions of the cell grammar.

Each expression is a small tree of affine, projective, Grassmannian, flag
and union nodes over a handful of number-field and finite-field bases.
"""

from hypothesis import given
from hypothesis import strategies as st

from flagzeta.cells import (
    Affine,
    BasePoint,
    CellDecomposition,
    DisjointUnion,
    FlagBundle,
    Grassmannian,
    ProjBundle,
    Stratum,
    cells_of,
    flag_as_grassmannian_tower,
)
from flagzeta.fields import (
    NumberField,
    finite_field,
    ord_at_integer,
    quadratic_field,
    rationals,
)
from flagzeta.parse import parse_scheme
from flagzeta.verify import SupportRow, check_soule
from flagzeta.weights import (
    WeightTable,
    borel_weight_table,
    chi,
    finite_field_weight_table,
    weight_table_of,
)

WINDOW = (-12, 4)
NUMBER_FIELDS = [rationals()] + [quadratic_field(d) for d in (-1, 2, -5, 5)]
FINITE_FIELDS = [finite_field(q) for q in (2, 3, 4)]

bases = st.one_of(
    st.sampled_from(NUMBER_FIELDS).map(BasePoint),
    st.sampled_from(FINITE_FIELDS).map(BasePoint),
)


def _nodes(children):
    small = st.integers(0, 2)
    return st.one_of(
        st.builds(Affine, children, small),
        st.builds(ProjBundle, children, small),
        st.integers(0, 4).flatmap(
            lambda n: st.builds(Grassmannian, children, st.integers(0, n), st.just(n))
        ),
        st.builds(
            FlagBundle, children, st.lists(st.integers(1, 2), min_size=1, max_size=3).map(tuple)
        ),
        st.builds(DisjointUnion, st.lists(children, min_size=2, max_size=3).map(tuple)),
    )


schemes = st.recursive(bases, _nodes, max_leaves=4)


def _chi(x):
    return chi(weight_table_of(x, *WINDOW))


@given(schemes)
def test_schemes_have_nonnegative_ranks(x):
    # zero entries are not stored, so every stored rank is positive
    assert all(dim > 0 for _, dim in weight_table_of(x, *WINDOW).items())


@given(schemes, schemes)
def test_chi_is_linear_on_signed_classes(a, b):
    difference = _chi(cells_of(a) / cells_of(b))
    chi_a, chi_b = _chi(a), _chi(b)
    for k in range(WINDOW[0], WINDOW[1] + 1):
        assert difference.value(k) == chi_a.value(k) - chi_b.value(k)


@given(schemes, schemes)
def test_signed_classes_verify(a, b):
    report = check_soule(cells_of(a) / cells_of(b), WINDOW)
    assert report.ok, report.mismatches()


@given(schemes, schemes, schemes)
def test_two_set_cover_is_inclusion_exclusion(a, b, c):
    covered = CellDecomposition.from_cover({(1,): a, (2,): b, (1, 2): c})
    assert covered == cells_of(a) * cells_of(b) / cells_of(c)


def per_cell_weight_table(cells, j_min, j_max):
    """The reference construction: one base table per cell, shifted by the
    cell dimension, scaled by its multiplicity and summed."""
    entries = {}
    for s in cells:
        lo, hi = j_min - s.shift, j_max - s.shift
        if isinstance(s.base, NumberField):
            table = borel_weight_table(s.base, lo, hi)
        else:
            table = finite_field_weight_table(s.base, lo, hi)
        for (m, j), dim in table.items():
            key = (m, j + s.shift)
            entries[key] = entries.get(key, 0) + dim * s.multiplicity
    return WeightTable(entries, j_min, j_max)


def _signed_classes():
    return st.one_of(
        schemes.map(cells_of),
        st.tuples(schemes, schemes).map(lambda ab: cells_of(ab[0]) / cells_of(ab[1])),
    )


@given(_signed_classes())
def test_one_pass_table_matches_per_cell_tables(c):
    lo, hi = WINDOW
    reference = per_cell_weight_table(c, lo, hi)
    table = weight_table_of(c, lo, hi)
    assert table == reference
    assert table.items() == reference.items()
    chi_fn = chi(table)
    for k in range(lo, hi + 1):
        expected = sum((-1) ** (m + 1) * d for (m, j), d in reference.items() if j == k)
        assert chi_fn.value(k) == expected
    support = tuple(
        SupportRow(
            j,
            tuple(m for (m, jj), _ in reference.items() if jj == j),
            sum(d for (_, jj), d in reference.items() if jj == j),
        )
        for j in range(lo, hi + 1)
    )
    assert check_soule(c, WINDOW).support == support


def per_kind_ord_at(cells, k):
    """The reference order: number-field strata read the functional-equation
    table, and a finite-field stratum has its one pole at k == shift."""
    total = 0
    for s in cells:
        if isinstance(s.base, NumberField):
            total += s.multiplicity * ord_at_integer(s.base, k - s.shift)
        elif k == s.shift:
            total -= s.multiplicity
    return total


@given(
    _signed_classes(), st.sampled_from(FINITE_FIELDS), st.integers(0, 3), st.integers(-2, 2)
)
def test_ord_at_matches_per_kind_orders(c, fq, shift, mult):
    # a nonzero mult adds an F_q cell, signed, to the drawn class
    c = c * CellDecomposition((Stratum(fq, shift, mult),)) if mult else c
    for k in range(WINDOW[0], WINDOW[1] + 1):
        assert c.ord_at(k) == per_kind_ord_at(c, k)


@given(schemes, st.lists(st.integers(1, 3), min_size=1, max_size=3))
def test_flag_bundle_is_its_grassmannian_tower(x, parts):
    assert cells_of(FlagBundle(x, tuple(parts))) == cells_of(
        flag_as_grassmannian_tower(x, parts)
    )


@given(schemes)
def test_parse_inverts_str(x):
    assert parse_scheme(str(x)) == x
