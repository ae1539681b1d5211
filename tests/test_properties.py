"""Property tests over random scheme expressions of the cell grammar.

Each expression is a small tree of affine, projective, Grassmannian, flag
and union nodes over a handful of number-field and finite-field bases.
"""

import contextlib
import io
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flagzeta.cells import (
    Affine,
    BasePoint,
    CellDecomposition,
    DisjointUnion,
    FlagBundle,
    Grassmannian,
    ProjBundle,
    QPolynomial,
    cells_of,
)
from flagzeta.fields import (
    NumberField,
    base_sort_key,
    finite_field,
    ord_at_integer,
    quadratic_field,
    rationals,
)
from flagzeta.cli import main
from flagzeta.lfuncs import (
    lfun_partial_eval,
    special_value_product,
    weil_zeta_rational,
    weil_zeta_series,
)
from flagzeta.parse import MAX_DEPTH, parse_scheme
from flagzeta.verify import SouleRow, check_soule
from flagzeta.weights import chi, weight_table_of
from oracles import flag_as_grassmannian_tower, primes_by_trial_division, quadratic_splitting

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
        assert difference[k] == chi_a[k] - chi_b[k]


@given(schemes, schemes)
def test_signed_classes_verify(a, b):
    report = check_soule(cells_of(a) / cells_of(b), WINDOW)
    assert report.ok, report.mismatches


@given(schemes, schemes, schemes)
def test_two_set_cover_is_inclusion_exclusion(a, b, c):
    covered = CellDecomposition.from_cover({(1,): a, (2,): b, (1, 2): c})
    assert covered == cells_of(a) * cells_of(b) / cells_of(c)


def per_cell_weight_table(cells, j_min, j_max):
    """The reference construction: one base table per cell, shifted by the
    cell dimension, scaled by its multiplicity and summed; its sorted
    nonzero ((m, j), rank) items."""
    entries = {}
    for base, shift, mult in cells.strata:
        lo, hi = j_min - shift, j_max - shift
        for (m, j), dim in weight_table_of(BasePoint(base), lo, hi).items():
            key = (m, j + shift)
            entries[key] = entries.get(key, 0) + dim * mult
    return sorted((key, dim) for key, dim in entries.items() if dim)


def _signed_classes():
    return st.one_of(
        schemes.map(cells_of),
        st.tuples(schemes, schemes).map(lambda ab: cells_of(ab[0]) / cells_of(ab[1])),
    )


@given(_signed_classes())
def test_strata_are_plain_triples_that_rebuild_the_class(c):
    assert all(type(t) is tuple and len(t) == 3 for t in c.strata)
    assert CellDecomposition(c.strata) == c


@given(_signed_classes())
def test_one_pass_table_matches_per_cell_tables(c):
    lo, hi = WINDOW
    reference = per_cell_weight_table(c, lo, hi)
    table = weight_table_of(c, lo, hi)
    assert table.items() == reference
    chi_fn = chi(table)
    for k in range(lo, hi + 1):
        expected = sum((-1) ** (m + 1) * d for (m, j), d in reference if j == k)
        assert chi_fn[k] == expected
    support = [
        {
            "j": j,
            "degrees": [m for (m, jj), _ in reference if jj == j],
            "total_dim": sum(d for (_, jj), d in reference if jj == j),
        }
        for j in range(lo, hi + 1)
    ]
    assert check_soule(c, WINDOW).to_dict()["support"] == support


def reference_canonical(strata):
    """The former constructor: strata keyed by (base_sort_key, shift),
    multiplicities merged, zero sums dropped, sorted by key."""
    counts, bases = {}, {}
    for base, shift, mult in strata:
        key = (base_sort_key(base), shift)
        counts[key] = counts.get(key, 0) + mult
        bases[key] = base
    return tuple((bases[key], key[1], counts[key]) for key in sorted(counts) if counts[key])


def reference_convolved(strata, poly):
    """The former per-stratum convolution: c_e copies of every stratum
    shifted by e, then sorted and merged."""
    return reference_canonical(
        (base, shift + e, mult * c)
        for e, c in enumerate(poly.coeffs) if c for base, shift, mult in strata
    )


def assert_canonical(c):
    keys = [base_sort_key(base) for base, _ in c.polys]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for _, poly in c.polys:
        assert all(d < e for (d, _), (e, _) in zip(poly, poly[1:]))
        assert poly and all(m != 0 for _, m in poly)


_raw_strata = st.lists(
    st.tuples(
        st.sampled_from(FINITE_FIELDS + NUMBER_FIELDS),
        st.one_of(st.integers(0, 8), st.just(10**21)),
        st.integers(-3, 3).filter(bool),
    ),
    max_size=10,
)
_HUGE_STRATA = [(rationals(), 10**21, 2), (finite_field(2), 3, -1)]


@example(_HUGE_STRATA, _HUGE_STRATA[::-1], 1, QPolynomial((1, 0, 2)), [BasePoint(rationals())] * 2)
# union children that share a base (Q), and children over disjoint bases
@example(
    _HUGE_STRATA, [], 2, QPolynomial((1, 1)),
    [
        ProjBundle(BasePoint(rationals()), 2),
        BasePoint(finite_field(2)),
        Affine(BasePoint(rationals()), 1),
    ],
)
@example(
    [], _HUGE_STRATA, 0, QPolynomial(()),
    [ProjBundle(BasePoint(quadratic_field(-1)), 2), Affine(BasePoint(finite_field(3)), 1)],
)
@given(
    _raw_strata,
    _raw_strata,
    st.integers(0, 3),
    st.lists(st.integers(-3, 3), max_size=6).map(QPolynomial),
    st.lists(schemes, min_size=2, max_size=3),
)
def test_class_operations_match_the_per_stratum_references(a, b, d, poly, children):
    c, other = CellDecomposition(a), CellDecomposition(b)
    negated = [(base, shift, -mult) for base, shift, mult in b]
    # every split is nonzero: m = 2m + (-m)
    split = [(base, shift, k * mult) for base, shift, mult in a for k in (2, -1)]
    cases = [
        (c, reference_canonical(a)),
        (CellDecomposition(split[::-1]), reference_canonical(a)),
        (c.shifted(d), reference_canonical((base, shift + d, mult) for base, shift, mult in a)),
        (c.convolved(poly), reference_convolved(a, poly)),
        (c * other, reference_canonical(a + b)),
        (c / other, reference_canonical(a + negated)),
        (other.inverse(), reference_canonical(negated)),
        (
            c.inverse().shifted(d),
            reference_canonical(
                (base, shift + d, -mult) for base, shift, mult in a
            ),
        ),
        (c * c.inverse(), CellDecomposition.one().strata),
        (
            cells_of(DisjointUnion(tuple(children))),
            reference_canonical(s for x in children for s in cells_of(x).strata),
        ),
    ]
    for got, expected in cases:
        assert got.strata == expected
        assert_canonical(got)


_Q, _F2 = rationals(), finite_field(2)


def _slot_edge(bits, sign=1):
    """Terms 0 and 1 of multiplicity sign 2^(bits - 2) and 2^(bits - 2)
    times 1 + sign q: the middle coefficient is 2^(bits - 1), one past
    what a signed slot of that many bits holds."""
    return [(_Q, 0, sign * 2 ** (bits - 2)), (_Q, 1, 2 ** (bits - 2))], (1, sign)


KERNEL_CASES = {
    # multiplicities beyond 2^64, so slots wider than 8 bytes
    "above 2^64": (
        [(_Q, 0, 2**70), (_Q, 1, -(2**70) - 5), (_Q, 3, 2**64 + 1),
         (_F2, 2, -(2**80))],
        (1, 2, 1),
    ),
    # the middle coefficient is the bound max|m| * mass, at each slot width
    **{f"coefficient 2^{b - 1}": _slot_edge(b) for b in (8, 16, 32, 64, 128)},
    # the same bound reached through P's negative coefficient
    **{f"coefficient 2^{b - 1}, P signed": _slot_edge(b, -1) for b in (8, 16, 32, 64, 128)},
    "coefficient -2^63": ([(_Q, 0, -(2**62)), (_Q, 1, -(2**62))], (1, 1)),
    # P's own slots are 16 bytes, widened to the product's 32
    "cell coefficient above 2^64": (
        [(_Q, 0, 2**60), (_Q, 1, -(2**60) + 3), (_F2, 2, -(2**60))],
        (1, 2**70, 1),
    ),
    # its signed twin: each negative slot of P is sign-extended from 16 bytes to 32
    "signed cell coefficient above 2^64": (
        [(_Q, 0, 2**60), (_Q, 1, -(2**60) + 3), (_F2, 2, -(2**60))],
        (3, -(2**70), -1),
    ),
    # [GL_2] = q - q^2 - q^3 + q^4 on two bases: overlapping products on
    # both, and on Q a gap above deg P that starts a second run
    "signed polynomial on two bases": (
        [(_Q, 0, 1), (_Q, 2, -3), (_Q, 9, 2), (_F2, 1, 5), (_F2, 3, 1)],
        (0, 1, -1, -1, 1),
    ),
    # P's top coefficient is negative, so the product's slots past the
    # layout are negative though the last run ends positive
    "negative top coefficient": (
        [(_Q, 0, 2), (_Q, 1, 3), (_F2, 4, 1)],
        (1, 2, -1),
    ),
    # gap 2 = deg P overlaps at shift 2; gap 3 = deg P + 1 only touches
    "gap equal to degree": ([(_Q, 0, 1), (_Q, 2, -4)], (1, 1, 1)),
    "gap degree plus one": ([(_Q, 0, 1), (_Q, 3, -4)], (1, 1, 1)),
    "gap equal to degree, three runs": (
        [(_Q, 0, 5), (_Q, 3, -2), (_Q, 7, 1), (_Q, 10, -3)],
        (2, 0, 1, 4),
    ),
    "constant": ([(_Q, 0, 3), (_Q, 1, -1), (_F2, 4, 2)], (5,)),
    "one": ([(_Q, 0, -3), (_Q, 2, 1)], (1,)),
    "zero polynomial": ([(_Q, 0, 3)], ()),
    # (1 - q)(1 + q + q^2) = 1 - q^3: the products at 1 and 2 cancel
    "cancelling run": ([(_Q, 0, 1), (_Q, 1, -1)], (1, 1, 1)),
    "cancelling run, negative first": ([(_F2, 5, -7), (_F2, 6, 7)], (3, 3, 3, 3)),
    # every gap above deg P: a hundred runs of one term each
    "many short runs": ([(_Q, 3 * i, (-1) ** i * (i + 1)) for i in range(100)], (1, 1)),
    # one term: its layout is one slot, and the product deg P + 1 more
    "one term times a high-degree polynomial": ([(_F2, 3, -7)], tuple(range(1, 65))),
    # each base's last run ends in a negative multiplicity, so the product's
    # top slots, past the packed layout, are negative
    "last run ends negative": (
        [(_Q, 0, 2), (_Q, 1, -3), (_F2, 0, 1), (_F2, 6, 4), (_F2, 7, -5)],
        (1, 2, 1),
    ),
    "huge shift beside small ones": (
        [(_Q, 0, 1), (_Q, 2, -3), (_Q, 10**21, 5),
         (_Q, 10**21 + 1, -2), (_F2, 10**21, 1)],
        (1, 3, 3, 1),
    ),
}


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_convolution_kernel_matches_the_per_stratum_reference(name):
    strata, coeffs = KERNEL_CASES[name]
    poly = QPolynomial(coeffs)
    got = CellDecomposition(strata).convolved(poly)
    assert got.strata == reference_convolved(strata, poly)
    assert_canonical(got)


@pytest.mark.parametrize(
    "top, width",
    [(0, 1), (2**7 - 1, 1), (2**7, 2), (2**15, 4), (2**31, 8),
     (2**63, 16), (2**64, 16), (2**127, 32),
     (-1, 1), (-(2**7) + 1, 1), (-(2**7), 2), (-(2**15), 4), (-(2**63), 16),
     (-(2**127), 32)],
)
def test_cell_polynomial_reads_back_its_coefficients_at_every_width(top, width):
    coeffs = (top, 0, 1, top) if top else ()
    poly = QPolynomial(coeffs + (0, 0))
    assert (poly.coeffs, poly.degree, poly.width) == (coeffs, len(coeffs) - 1, width)
    assert poly.mass == sum(map(abs, coeffs))
    assert poly(3) == sum(c * 3**i for i, c in enumerate(coeffs))
    apart = QPolynomial(iter(list(coeffs)))
    assert apart == poly and hash(apart) == hash(poly)
    assert QPolynomial(coeffs + (1,)) != poly
    assert QPolynomial((-1,)) != QPolynomial((255,))


def per_kind_ord_at(cells, k):
    """The reference order: number-field strata read the functional-equation
    table, and a finite-field stratum has its one pole at k == shift."""
    total = 0
    for base, shift, mult in cells.strata:
        if isinstance(base, NumberField):
            total += mult * ord_at_integer(base, k - shift)
        elif k == shift:
            total -= mult
    return total


@given(
    _signed_classes(), st.sampled_from(FINITE_FIELDS), st.integers(0, 3), st.integers(-2, 2)
)
def test_ord_at_matches_per_kind_orders(c, fq, shift, mult):
    # a nonzero mult adds an F_q cell, signed, to the drawn class
    c = c * CellDecomposition(((fq, shift, mult),)) if mult else c
    for k in range(WINDOW[0], WINDOW[1] + 1):
        assert c.ord_at(k) == per_kind_ord_at(c, k)


def _reference_chi_ord(c, k):
    """chi and ord of a class at k, read off the per-stratum references."""
    reference = per_cell_weight_table(c, k, k)
    return sum((-1) ** (m + 1) * d for (m, _), d in reference), per_kind_ord_at(c, k)


@given(_signed_classes())
def test_each_class_vanishes_above_its_shifts_and_is_two_periodic_below(c):
    # The lemma on a whole class, read through the per-stratum references
    # alone, so it holds apart from ``_window_sums``, which rests on it:
    # chi and ord are 0 from k = top shift + 2 on, and from the lowest
    # shift - 1 down each repeats with period 2, far below too.
    top = c.max_shift()
    bottom = min((d for _, d, _ in c.strata), default=0)
    for k in range(top + 2, top + 6):
        assert _reference_chi_ord(c, k) == (0, 0), k
    near = {k % 2: _reference_chi_ord(c, k) for k in (bottom - 1, bottom - 2)}
    for k in (bottom - 3, bottom - 4, bottom - 37, bottom - 38, -499, -500):
        assert _reference_chi_ord(c, k) == near[k % 2], k


@st.composite
def _class_and_window(draw):
    """A signed class with number-field and F_q cells, and a window of one
    of five shapes: width 1, wholly above the largest shift, wholly
    negative, straddling the shifts, or strictly inside them."""
    c = draw(_signed_classes())
    for base in (draw(st.sampled_from(FINITE_FIELDS)), draw(st.sampled_from(NUMBER_FIELDS))):
        mult = draw(st.integers(-2, 2).filter(bool))
        c = c * CellDecomposition(((base, draw(st.integers(0, 6)), mult),))
    top = c.max_shift()
    shape = draw(st.sampled_from(("width 1", "above", "negative", "straddling", "interior")))
    if shape == "interior":
        # a cell two above the top shift, over a base with a lower one,
        # leaves room strictly inside that base's shifts: the window's edges
        # fall between its terms, where bisection cuts its walk
        firsts = [(base, poly[0][0]) for base, poly in c.polys]
        base, first = draw(st.sampled_from(firsts or [(NUMBER_FIELDS[0], top)]))
        c = c * CellDecomposition(((base, top + 2, draw(st.integers(-2, 2).filter(bool))),))
        lo = draw(st.integers(first + 1, top + 1))
        hi = draw(st.integers(lo, top + 1))
    elif shape == "width 1":
        lo = hi = draw(st.integers(-30, top + 3))
    elif shape == "above":
        lo = draw(st.integers(top + 1, top + 3))
        hi = lo + draw(st.integers(0, 20))
    elif shape == "negative":
        hi = draw(st.integers(-30, -1))
        lo = hi - draw(st.integers(0, 30))
    else:
        lo, hi = draw(st.integers(-30, 0)), draw(st.integers(top, top + 3))
    return c, lo, hi


_HUGE = cells_of(parse_scheme("union(affine(proj(Q(sqrt -1), 3), 1" + "0" * 21 + "), F(2))"))
_HUGE = _HUGE / cells_of(parse_scheme("affine(F(3), 1)"))


# two bases far apart: the window holds the periodic part of the upper
# one, a number field's, and the zero part of the lower one
_TWO_SPANS = cells_of(
    parse_scheme("union(proj(Q(sqrt -1), 3), affine(proj(Q(sqrt 2), 2), 100))")
) / cells_of(parse_scheme("affine(Q(sqrt -1), 1)"))


# one base cut by the window on both sides, the walk's top once even and
# once odd, with terms above it that differ between the two parities
_CUT = CellDecomposition([(_Q, 0, 1), (_Q, 1, -1), (_Q, 3, 2), (_Q, 6, 1), (_Q, 7, -3)])


@example((_HUGE, -3, 1))
@example((_HUGE, 10**21 - 3, 10**21 + 5))
@example((_TWO_SPANS, 20, 60))
@example((_CUT, 2, 2))
@example((_CUT, 1, 5))
@given(_class_and_window())
def test_window_sums_match_the_per_stratum_references(case):
    c, lo, hi = case
    window = list(range(lo, hi + 1))
    reference = per_cell_weight_table(c, lo, hi)
    expected = [sum((-1) ** (m + 1) * d for (m, j), d in reference if j == k) for k in window]
    assert list(chi(weight_table_of(c, lo, hi)).items()) == list(zip(window, expected))
    orders = [per_kind_ord_at(c, k) for k in window]
    assert list(c.ord_window(lo, hi).items()) == list(zip(window, orders))


@given(_class_and_window())
def test_check_soule_rows_are_the_two_layers_side_by_side(case):
    # a report's rows are chi and ord_window, read apart, row by row
    c, lo, hi = case
    chis, ords = chi(weight_table_of(c, lo, hi)), c.ord_window(lo, hi)
    rows = check_soule(c, (lo, hi)).rows
    assert all(type(r) is SouleRow for r in rows)
    assert rows == tuple(SouleRow(k, chis[k], ords[k]) for k in range(lo, hi + 1))


def per_factor_euler_product(cells, s, bound):
    """The reference value, factor by factor: a number field's factor is
    the product of its local factors prod (1 - p^(-f x))^(-g) over the
    primes up to the bound, an F_q factor its closed form
    1/(1 - q^-(s - shift)).  Primes come by trial division and the pairs
    (f, g) by root counting, so no code is shared with the package."""
    out = 1.0
    for base, shift, mult in cells.factors:
        x = s - shift
        if isinstance(base, NumberField):
            v = 1.0
            for p in primes_by_trial_division(bound):
                local = 1.0
                degrees = ((1, 1),) if base.degree == 1 else quadratic_splitting(base.disc, p)
                for f, g in degrees:
                    local *= (1 - p ** (-f * x)) ** (-g)
                v *= local
        else:
            v = 1.0 / (1.0 - base.q ** (-x))
        out *= v**mult
    return out


# largest convergence edge s = 5
_MIXED = cells_of(parse_scheme("union(proj(Q(sqrt -1), 2), affine(F(3), 4))")) / cells_of(
    parse_scheme("affine(F(2), 1)")
)


@example(_MIXED, 0.5, 500)
@example(_MIXED, 1.125, 500)
@example(_MIXED, 2.0, 500)
@example(_MIXED, 4.3, 500)
@given(_signed_classes(), st.floats(0.001, 1.0), st.integers(2, 3000))
def test_partial_eval_is_the_same_float_as_the_per_factor_product(c, margin, bound):
    # s lies just past the largest convergence edge, max shift + 1
    s = c.max_shift() + 1 + margin
    assert lfun_partial_eval(c, s, bound) == per_factor_euler_product(c, s, bound)


def _one_q_classes():
    """Classes over one F_q: a tree, or a signed quotient of two trees,
    whose negative cells are numerator factors of the zeta function."""
    def over(q):
        trees = st.recursive(st.just(BasePoint(finite_field(q))), _nodes, max_leaves=4)
        return st.one_of(
            trees.map(cells_of),
            st.tuples(trees, trees).map(lambda ab: cells_of(ab[0]) / cells_of(ab[1])),
        )

    return st.one_of(*(over(q) for q in (2, 3, 4, 5, 7, 8, 9)))


@given(_one_q_classes(), st.integers(1, 12))
def test_weil_zeta_series_is_the_rational_form_expanded(c, order):
    if not c.strata:  # a quotient of equal trees
        for zeta in (weil_zeta_rational, lambda c: weil_zeta_series(c, order)):
            with pytest.raises(ValueError, match="no cells"):
                zeta(c)
        return
    assert weil_zeta_series(c, order) == weil_zeta_rational(c).expand(order)


@given(schemes, st.lists(st.integers(1, 3), min_size=1, max_size=3))
def test_flag_bundle_is_its_grassmannian_tower(x, parts):
    assert cells_of(FlagBundle(x, tuple(parts))) == cells_of(
        flag_as_grassmannian_tower(x, parts)
    )


@given(schemes)
def test_parse_inverts_str(x):
    assert parse_scheme(str(x)) == x


# -- special values ------------------------------------------------------------

_SPECIAL_TREES = st.recursive(
    st.sampled_from([rationals(), quadratic_field(-1), quadratic_field(5)]).map(BasePoint),
    _nodes,
    max_leaves=3,
)


@st.composite
def _finite_pairs(draw):
    """Trees a, b and a point m in -12..12 where neither vanishes nor has a pole."""
    a, b = draw(_SPECIAL_TREES), draw(_SPECIAL_TREES)
    points = [m for m in range(-12, 13) if cells_of(a).ord_at(m) == cells_of(b).ord_at(m) == 0]
    assume(points)
    return a, b, draw(st.sampled_from(points))


def _exponents(factors):
    """{(label, point): exponent}, summed over repeated symbols."""
    out = Counter()
    for label, point, e in factors:
        out[label, point] += e
    return out


_QQ = BasePoint(rationals())


@example((ProjBundle(_QQ, 1), _QQ, 0))  # zeta(0) zeta(-1) times zeta(0)
@example((Affine(_QQ, 2), _QQ, 4))  # zeta(2) times zeta(4)
@given(_finite_pairs())
def test_special_value_of_a_union_is_the_product_of_its_parts(pair):
    a, b, m = pair
    va, vb = (special_value_product(cells_of(x), m) for x in (a, b))
    v = special_value_product(cells_of(DisjointUnion((a, b))), m)
    assert v.order == 0
    assert v.rational == va.rational * vb.rational
    assert v.pi_power == va.pi_power + vb.pi_power
    assert _exponents(v.factors) == _exponents(va.factors + vb.factors)
    if va.factors or vb.factors:
        assert v.kind == "symbolic-product" and v.approx() is None
    else:
        assert v.kind == ("rational-times-pi-power" if v.pi_power else "exact-rational")
        assert v.approx() == pytest.approx(va.approx() * vb.approx(), rel=1e-12)


def test_special_value_of_one_over_zeta_2():
    v = special_value_product(CellDecomposition(((rationals(), 0, -1),)), 2)
    assert (v.kind, v.rational, v.pi_power, v.factors) == (
        "rational-times-pi-power", Fraction(6), -2, ()
    )
    assert v.approx() == pytest.approx(6 / math.pi**2, rel=1e-15)
    assert str(v) == "6 * pi^-2"


# -- random command lines ------------------------------------------------------

# Edge values sit next to ordinary ones: an inverted or huge --k, a zero
# order or prime bound, non-finite points, families past their bounds.
_COMMON = {
    "--k": ["-3..1", "0..0", "-6..2", "2..1", "-100000000..2", "x"],
    "--order": ["0", "-1", "1", "6", "100000"],
    "--prime-bound": ["0", "1", "-5", "2", "50", "30000000"],
    "--format": ["plain", "json", "csv"],
}
_EXTRA = {
    "lfun": {"--eval-at": ["0.5", "2.5", "6", "nan", "inf"]},
    "special": {"--at": ["-3", "0", "1", "2", "-100000"]},
    "sweep": {
        "--family": ["flags", "proj", "affine"],
        "--max-n": ["-1", "0", "2", "100000000"],
        "--max-d": ["-1", "0", "2", "100000000"],
    },
}
_LABELS = [str(BasePoint(f)) for f in NUMBER_FIELDS + FINITE_FIELDS] + ["K9", "proj(Q, 1)"]
_COMMANDS = ["ranks", "cells", "chi", "ord", "lfun", "zeta", "special", "verify", "sweep"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(_COMMANDS))
    argv = [command]
    if command == "sweep":
        labels = draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=2))
        argv.append("--fields=" + ",".join(labels))
    elif draw(st.integers(0, 4)):
        argv.append(str(draw(schemes)))
    else:
        argv.append(draw(st.sampled_from(["K9", "proj(Q, 2"])))
    required = ("--family", "--at")
    for name, values in {**_COMMON, **_EXTRA.get(command, {})}.items():
        if name in required or draw(st.booleans()):
            argv.append(f"{name}={draw(st.sampled_from(values))}")
    return argv


def _nested(depth):
    return "proj(" * depth + "Q" + ", 1)" * depth


@settings(max_examples=150)
@example(["cells", _nested(5000)])
@example(["verify", _nested(MAX_DEPTH + 1)])
@example(["lfun", "union(" + ", ".join(["Q"] * 300) + ")", "--eval-at=1.001"])
@given(_argv())
def test_cli_exits_with_a_documented_code(argv):
    # No input here can hold a real chi/ord mismatch, so exit 1 never fits,
    # and exit 5 would be a fault in flagzeta itself.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
