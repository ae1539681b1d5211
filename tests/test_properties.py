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
    FiniteBase,
    FlagBundle,
    Grassmannian,
    ProjBundle,
    cells_of,
)
from flagzeta.fields import finite_field, quadratic_field, rationals
from flagzeta.parse import parse_scheme
from flagzeta.verify import check_soule
from flagzeta.weights import chi, weight_table_of

WINDOW = (-12, 4)
NUMBER_FIELDS = [rationals()] + [quadratic_field(d) for d in (-1, 2, -5, 5)]
FINITE_FIELDS = [finite_field(q) for q in (2, 3, 4)]

bases = st.one_of(
    st.sampled_from(NUMBER_FIELDS).map(BasePoint),
    st.sampled_from(FINITE_FIELDS).map(FiniteBase),
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


@given(schemes)
def test_parse_inverts_str(x):
    assert parse_scheme(str(x)) == x
