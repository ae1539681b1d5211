"""Acceptance suite: one test (and one printed pass line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
line of every criterion; each test is exact (no tolerances) unless a
numeric tolerance is stated in the test itself.
"""

import json
import math
import time
from fractions import Fraction
from random import Random

from flagzeta.cells import (
    Affine,
    BasePoint,
    CellDecomposition,
    FlagBundle,
    ProjBundle,
    brute_force_flag_count,
    cells_of,
    gaussian_multinomial,
    point_count,
)
from flagzeta.cli import main
from flagzeta.fields import (
    FiniteField,
    quadratic_field,
    rationals,
    special_value_even,
    special_value_rational,
    zeta_partial_eval,
)
from flagzeta.lfuncs import (
    lfactorization_of,
    weil_zeta_rational,
    weil_zeta_series,
)
from flagzeta.series import TruncSeries
from flagzeta.verify import check_soule, compositions, flag_family, sweep
from flagzeta.weights import chi, weight_table_of

Q = rationals()
QI = quadratic_field(-1)
QM5 = quadratic_field(-5)
Q2 = quadratic_field(2)
Q5 = quadratic_field(5)
FIELDS = [Q, QI, QM5, Q2, Q5]


def test_criterion_1_base_cases():
    """chi(Spec O_F, k) = ord_{s=k} zeta_F(s) for the five base fields."""
    start = time.perf_counter()
    for fld in FIELDS:
        report = check_soule(BasePoint(fld), (-20, 2))
        assert report.ok, (fld.label, report.mismatches)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"\nPASS criterion 1: base cases over {len(FIELDS)} fields, "
          f"k in [-20, 2], exact, {elapsed:.3f}s")


def test_criterion_2_flag_bundles():
    """Every flag type of rank <= 5 over the five fields verifies."""
    start = time.perf_counter()
    family = flag_family(FIELDS, 5)
    report = sweep(family, (-15, 6))
    assert report.ok, report.mismatched
    assert report.min_chi <= -1
    assert report.max_chi >= 2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    print(f"PASS criterion 2: {report.schemes} flag bundles, "
          f"{report.total_rows} rows, chi range [{report.min_chi}, "
          f"{report.max_chi}], {elapsed:.3f}s")


def test_criterion_3_projective_and_affine_shift_laws():
    """P^d and A^d obey the shift laws as table identities and verify."""
    checked = 0
    for fld in FIELDS:
        for d in range(6):
            base_chi = chi(weight_table_of(BasePoint(fld), -15 - d, 8))
            base_lf = lfactorization_of(BasePoint(fld))

            proj = ProjBundle(BasePoint(fld), d)
            proj_chi = chi(weight_table_of(cells_of(proj), -15, 8))
            proj_lf = lfactorization_of(cells_of(proj))
            aff = Affine(BasePoint(fld), d)
            aff_chi = chi(weight_table_of(cells_of(aff), -15, 8))
            aff_lf = lfactorization_of(cells_of(aff))
            for k in range(-15, 9):
                assert proj_chi[k] == sum(
                    base_chi[k - i] for i in range(d + 1)
                )
                assert proj_lf.ord_at(k) == sum(
                    base_lf.ord_at(k - i) for i in range(d + 1)
                )
                assert aff_chi[k] == base_chi[k - d]
                assert aff_lf.ord_at(k) == base_lf.ord_at(k - d)
            assert check_soule(proj, (-15, 8)).ok
            assert check_soule(aff, (-15, 8)).ok
            checked += 2
    print(f"PASS criterion 3: shift laws for {checked} bundles "
          f"(d <= 5, {len(FIELDS)} fields), k in [-15, 8], exact")


def test_criterion_4_open_covers():
    """Two-chart cover of P^1 and a degenerate triple cover, chi and ord."""
    window = (-10, 2)
    ks = range(window[0], window[1] + 1)
    affine = cells_of(Affine(BasePoint(Q), 1))
    punctured = affine / cells_of(BasePoint(Q))
    p1 = ProjBundle(BasePoint(Q), 1)
    # degenerate cover U_1 = U_2 = U_3 = X: alternating sum collapses
    x = ProjBundle(BasePoint(QI), 1)
    subsets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    covers = [
        ({(1,): affine, (2,): affine, (1, 2): punctured}, p1),
        ({s: x for s in subsets}, x),
    ]
    for parts, scheme in covers:
        covered = CellDecomposition.from_cover(parts)
        direct = cells_of(scheme)
        assert covered == direct
        covered_chi = chi(weight_table_of(covered, *window))
        assert covered_chi == chi(weight_table_of(direct, *window))
        for k in ks:
            assert covered_chi[k] == covered.ord_at(k) == direct.ord_at(k)

    # the punctured line is a signed class, not a scheme: chi and ord agree
    punctured_chi = chi(weight_table_of(punctured, *window))
    assert [punctured_chi[k] for k in ks] == [punctured.ord_at(k) for k in ks]
    assert check_soule(punctured, window).ok
    print("PASS criterion 4: two-chart P^1 cover and degenerate triple "
          "cover reproduce cellular chi and ord, and the punctured line "
          "verifies as a signed class, k in [-10, 2], exact")


def test_criterion_5_weil_zeta():
    """Series-vs-rational zeta agreement and brute-force point counts."""
    order = 8
    for q in (2, 3):
        base = BasePoint(FiniteField(q))
        for n in range(1, 5):
            for parts in compositions(n):
                x = FlagBundle(base, parts)
                series = weil_zeta_series(x, order)
                rational = weil_zeta_rational(cells_of(x))
                assert rational.expand(order) == series, (q, parts)
                assert point_count(x, 1) == brute_force_flag_count(parts, q, n)
    assert gaussian_multinomial(4, (2, 2))(2) == 35
    assert brute_force_flag_count((2, 2), 2, 4) == 35
    assert brute_force_flag_count((1, 1, 1), 2, 3) == 21
    print("PASS criterion 5: Weil zeta series = rational expansion to "
          f"order {order} for all flag types n <= 4, q in (2, 3); "
          "N_1 matches enumeration (35 planes, 21 complete flags)")


def test_criterion_6_series_kernel():
    """log is a homomorphism, powers scale, exp/log invert; order 32."""
    order = 32
    rng = Random(123)

    def unit():
        return TruncSeries(
            order,
            [Fraction(1)]
            + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order)],
        )

    for _ in range(100):
        f, g = unit(), unit()
        assert (f * g).log() == f.log() + g.log()
        k = rng.randint(1, 10)
        assert (f**k).log() == k * f.log()
        assert f.log().exp() == f
        u = f - 1
        assert u.exp().log() == u
    print("PASS criterion 6: log homomorphism, k-th power rule, and "
          "exp/log inversion, order 32, 100 randomized exact trials")


def test_criterion_7_projective_bundle_blocks():
    """Odd-degree rank blocks of P^e sit at consecutive Adams eigenvalues.

    In degree 4a+1 the block covers eigenvalues 2a+1 .. 2a+1+e with rank
    r1+r2 (for a = 0 the unit rank r1+r2-1 replaces it); in degree 4a+3
    it covers 2a+2 .. 2a+2+e with rank r2; even positive degrees carry
    nothing and degree 0 covers eigenvalues 0..e with rank 1.
    """
    for fld in (QI, Q2):
        r1r2 = fld.r1 + fld.r2
        units = r1r2 - 1
        for e in range(5):
            D = e + 1  # Krull dimension of the bundle over Spec O_F
            table = weight_table_of(cells_of(ProjBundle(BasePoint(fld), e)), -24, 8)
            by_degree: dict[int, dict[int, int]] = {}
            for (m, j), dim in table.items():
                by_degree.setdefault(m, {})[D - j] = dim
            for a in range(4):
                m = 4 * a + 1
                dim = r1r2 if a >= 1 else units
                expected = (
                    {i: dim for i in range(2 * a + 1, 2 * a + 2 + e)} if dim else {}
                )
                assert by_degree.get(m, {}) == expected, (fld.label, e, m)
                m = 4 * a + 3
                expected = (
                    {i: fld.r2 for i in range(2 * a + 2, 2 * a + 3 + e)}
                    if fld.r2
                    else {}
                )
                assert by_degree.get(m, {}) == expected, (fld.label, e, m)
            assert by_degree.get(0) == {i: 1 for i in range(e + 1)}
            for m in range(2, 18, 2):
                assert m not in by_degree, (fld.label, e, m)
    print("PASS criterion 7: rank blocks of P^e (e <= 4, a <= 3) over "
          "Q(sqrt -1) and Q(sqrt 2) sit exactly at eigenvalues "
          "2a+1..2a+1+e and 2a+2..2a+2+e with ranks r1+r2 and r2")


def test_criterion_8_special_values():
    """Exact zeta special values, and the Euler product approximation."""
    assert special_value_rational(2).rational == Fraction(-1, 12)   # zeta(-1)
    assert special_value_rational(4).rational == Fraction(1, 120)   # zeta(-3)
    assert special_value_rational(3).rational == 0                  # zeta(-2)
    assert special_value_even(1).rational == Fraction(1, 6)
    assert special_value_even(2).rational == Fraction(1, 90)
    assert special_value_even(3).rational == Fraction(1, 945)
    start = time.perf_counter()
    for s, closed in ((2.0, math.pi**2 / 6), (4.0, math.pi**4 / 90)):
        approx = zeta_partial_eval(Q, s, 100_000)
        assert abs(approx - closed) < 1e-4, (s, approx, closed)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 8: zeta(-1) = -1/12, zeta(-3) = 1/120, "
          f"zeta(-2) = 0, zeta(2m)/pi^2m in (1/6, 1/90, 1/945); Euler "
          f"products at bound 10^5 within 1e-4, {elapsed:.2f}s")


def test_criterion_9_determinism(capsys):
    """Machine-readable outputs are byte-identical across runs."""
    outputs = []
    for _ in range(2):
        main(["verify", "flag(Q(sqrt -5), 2+1)", "--k=-12..2", "--format", "json"])
        verify_out = capsys.readouterr().out
        main(["sweep", "--family", "flags", "--fields", "Q,Q(sqrt 2),F(3)",
              "--max-n", "3", "--k=-8..2", "--format", "csv"])
        sweep_out = capsys.readouterr().out
        main(["zeta", "grass(F(2), 2, 4)", "--order", "6", "--format", "json"])
        zeta_out = capsys.readouterr().out
        outputs.append((verify_out, sweep_out, zeta_out))
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0][0])
    assert payload["ok"] is True
    with capsys.disabled():
        print("\nPASS criterion 9: verify/sweep/zeta outputs byte-identical "
              "across repeated runs")
