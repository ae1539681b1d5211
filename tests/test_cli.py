"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import flagzeta.cells
import flagzeta.cli
import flagzeta.fields
import flagzeta.verify
import flagzeta.weights
from flagzeta.cells import CellDecomposition
from flagzeta.cli import main
from flagzeta.parse import MAX_DEPTH
from flagzeta.series import TruncSeries
from oracles import primes_by_trial_division


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi_csv(capsys):
    code, out, err = run(
        capsys, "chi", "proj(Q, 1)", "--k=-5..2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,chi"
    rows = dict(tuple(map(int, line.split(","))) for line in lines[1:])
    assert rows[1] == -1 and rows[2] == -1 and rows[-1] == 1


def test_ord_matches_chi_through_cli(capsys):
    _, chi_out, _ = run(capsys, "chi", "flag(Q(sqrt -1), 2+1)", "--k=-8..2",
                        "--format", "csv")
    _, ord_out, _ = run(capsys, "ord", "flag(Q(sqrt -1), 2+1)", "--k=-8..2",
                        "--format", "csv")
    chi_vals = [line.split(",")[1] for line in chi_out.strip().splitlines()[1:]]
    ord_vals = [line.split(",")[1] for line in ord_out.strip().splitlines()[1:]]
    assert chi_vals == ord_vals


def test_ranks_json(capsys):
    code, out, _ = run(capsys, "ranks", "Q", "--k=-6..2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = {(r["m"], r["j"]): r["dim"] for r in payload["rows"]}
    assert rows == {(0, 1): 1, (5, -2): 1, (9, -4): 1, (13, -6): 1}


def test_cells_plain(capsys):
    code, out, _ = run(capsys, "cells", "union(Q, Q)")
    assert code == 0
    assert "Q" in out and "2" in out


def test_verify_ok(capsys):
    code, out, err = run(capsys, "verify", "flag(Q(sqrt 2), 1+1+1)",
                         "--k=-12..2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["mismatched"] == 0
    assert err == ""


def test_verify_plain_summary(capsys):
    code, out, _ = run(capsys, "verify", "Q", "--k=-4..2")
    assert code == 0
    assert "summary: 7 matched, 0 mismatched" in out


def test_zeta_projective_line(capsys):
    code, out, _ = run(capsys, "zeta", "proj(F(2), 1)", "--order", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rational"] == "1 / ((1 - t)(1 - 2*t))"
    assert payload["coefficients"] == ["1", "3", "7", "15", "31"]
    assert payload["agrees"] is True


def test_zeta_plain_output(capsys):
    code, out, _ = run(capsys, "zeta", "flag(F(3), 1+1)", "--order", "3")
    assert code == 0
    assert "rational: 1 / ((1 - t)(1 - 3*t))" in out
    assert "agreement to order 3: yes" in out


def test_zeta_rejects_number_fields(capsys):
    code, _, err = run(capsys, "zeta", "proj(Q, 1)")
    assert code == 3
    assert "finite fields only" in err


def test_special_values(capsys):
    code, out, _ = run(capsys, "special", "Q", "--at=2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rational"] == "1/6" and payload["pi_power"] == 2

    code, out, _ = run(capsys, "special", "proj(Q, 1)", "--at=-1",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["rational"] == "0" and payload["order"] == 1


def test_lfun_display_and_eval(capsys):
    code, out, _ = run(capsys, "lfun", "proj(Q, 3)")
    assert code == 0
    assert "product: L(Q, s) * L(Q, s-1) * L(Q, s-2) * L(Q, s-3)" in out
    code, out, _ = run(capsys, "lfun", "Q", "--eval-at", "2.0",
                       "--prime-bound", "1000", "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.6449) < 1e-3


def test_lfun_eval_outside_convergence(capsys):
    code, _, err = run(capsys, "lfun", "proj(Q, 1)", "--eval-at", "2.0")
    assert code == 3
    assert "convergence" in err


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
def test_lfun_eval_at_non_finite_s_is_rejected(capsys, s):
    code, out, err = run(capsys, "lfun", "Q", f"--eval-at={s}")
    assert code == 3
    assert out == ""
    assert "not a finite real number" in err


def test_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "verify", "proj(Q, 1")
    assert code == 2
    assert "syntax error" in err
    code, _, err = run(capsys, "chi", "proj(R, 1)")
    assert code == 2
    # a non-ASCII digit is not an integer, so F(U+0663) is not F(3)
    code, out, err = run(capsys, "cells", "F(\u0663)")
    assert (code, out) == (2, "")
    assert err == "syntax error: unexpected character '\u0663' (column 3)\n"


def test_validation_error_exit_code(capsys):
    code, _, err = run(capsys, "cells", "grass(F(2), 5, 4)")
    assert code == 3
    assert "cannot take" in err


@pytest.mark.parametrize(
    "scheme, bound",
    [
        ("grass(Q,1000,2000)", "MAX_CELL_DEGREE = 4096"),
        ("proj(Q, 100000000)", "MAX_CELL_DEGREE = 4096"),
        ("proj(proj(Q, 5000), 5000)", "MAX_CELL_DEGREE = 4096"),
        ("Q(sqrt 1000000000000000003)", "MAX_FACTORED = 1000000000000"),
    ],
)
def test_oversized_inputs_exit_3_quickly(capsys, scheme, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, "cells", scheme)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert bound in err


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["zeta", "proj(F(2),200)", "--order", "200"], "MAX_SERIES_DIGITS = 1000"),
        (["zeta", "F(2)", "--order", "3000"], "MAX_SERIES_ORDER = 500"),
        (["zeta", "proj(F(2),40)", "--order", "1000"], "MAX_SERIES_ORDER = 500"),
        (["zeta", "proj(F(101),1)", "--order", "500"], "MAX_SERIES_DIGITS = 1000"),
        # a shift of 10^400 is beyond a float: compared exactly, never converted
        (["zeta", "affine(F(2), 1" + "0" * 400 + ")", "--order=1"],
         "MAX_SERIES_DIGITS = 1000"),
        (["lfun", "affine(Q, 1" + "0" * 400 + ")", "--eval-at=5"],
         "outside the convergence region"),
        (["special", "Q", "--at=-1201"], "MAX_BERNOULLI_INDEX = 500"),
        (["special", "Q", "--at=3000"], "MAX_BERNOULLI_INDEX = 500"),
        (["special", "Q", "--at=10000000"], "MAX_BERNOULLI_INDEX = 500"),
        (["lfun", "Q", "--eval-at", "3", "--prime-bound", "30000000"],
         "MAX_PRIME_BOUND = 2000000"),
        (["lfun", "proj(Q, 400)", "--eval-at=405", "--prime-bound=2000000"],
         "MAX_EULER_WORK = 10000000"),
        (["verify", "Q", "--k=-100000..2"], "MAX_WINDOW_WORK = 25000"),
        (["verify", "proj(Q(sqrt -1), 20)", "--k=-100000..2"], "MAX_WINDOW_WORK = 25000"),
        (["chi", "Q(sqrt -1)", "--k=-1000000..2"], "MAX_WINDOW_WORK = 25000"),
        (["chi", "Q", "--k=-100000000..2"], "MAX_WINDOW_WORK = 25000"),
        (["ord", "Q", "--k=-100000000..2"], "MAX_WINDOW_WORK = 25000"),
        (["ranks", "proj(Q, 400)", "--k=-100..2"], "MAX_WINDOW_WORK = 25000"),
        (["sweep", "--family", "flags", "--fields", "Q", "--max-n", "11"],
         "MAX_WINDOW_WORK = 25000"),
        (["sweep", "--family", "flags", "--fields", "Q", "--max-n", "12"],
         "MAX_SWEEP_SCHEMES = 4000"),
        (["sweep", "--family", "proj", "--fields", "Q", "--max-d", "3000"],
         "MAX_WINDOW_WORK = 25000"),
        (["sweep", "--family", "flags", "--fields", "Q", "--max-n", "14"],
         "MAX_SWEEP_SCHEMES = 4000"),
        (["sweep", "--family", "proj", "--fields", "Q", "--max-d", "100000000"],
         "MAX_SWEEP_SCHEMES = 4000"),
        (["sweep", "--family", "flags", "--fields", "Q", "--max-n", "100000000"],
         "MAX_SWEEP_SCHEMES = 4000"),
    ],
)
def test_oversized_numeric_work_exits_3_quickly(capsys, argv, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert bound in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["cells", "affine(Q, 1" + "0" * 5000 + ")"], 3),
        (["verify", "Q", "--k=-1" + "0" * 5000 + "..2"], 3),
        (["zeta", "F(2)", "--order=1" + "0" * 5000], 2),  # an option: a usage error
    ],
)
def test_an_integer_of_too_many_digits_is_refused_by_name(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert "an integer of 5001 digits is above MAX_INT_DIGITS = 1000" in err


@pytest.mark.parametrize(
    "tail",
    ['"r2": 1' + "0" * 5000, '"r2": 1, "splitting": {"1' + "0" * 5000 + '": [3]}'],
    ids=["r2", "splitting-prime"],
)
def test_a_catalogue_integer_of_too_many_digits_is_refused_by_name(capsys, tmp_path, tail):
    # written by hand: json.dumps cannot print a 5001-digit int either
    config = tmp_path / "fields.json"
    config.write_text('{"fields": [{"label": "C", "degree": 3, "r1": 1, ' + tail + "}]}")
    code, out, err = run(capsys, "cells", "C", "--field-config", str(config))
    assert (code, out) == (3, "")
    assert "an integer of 5001 digits is above MAX_INT_DIGITS = 1000" in err


def test_an_integer_of_max_int_digits_is_read(capsys):
    nines = "9" * 1000
    code, out, _ = run(capsys, "cells", f"affine(Q, {nines})", "--format=csv")
    assert (code, out) == (0, f"base,shift,multiplicity\nQ,{nines},1\n")
    code, _, err = run(capsys, "ord", "Q", f"--k=-{nines}..2")
    assert code == 3 and "MAX_WINDOW_WORK" in err


def test_window_work_bound_is_strata_plus_or_times_width(capsys):
    # chi, ord and plain or CSV verify read the window sums alone, priced
    # at strata + bases x width, an upper bound on their work: one
    # stratum and 24 999 weights answer, one more weight is refused
    assert run(capsys, "ord", "Q", "--k=-24996..2")[0] == 0
    code, _, err = run(capsys, "ord", "Q", "--k=-24997..2")
    assert code == 3 and "strata + bases x window is above MAX_WINDOW_WORK = 25000" in err
    # proj(Q, 9) has 10 strata on one base: 24 990 weights
    for argv in (["chi"], ["verify"], ["verify", "--format=csv"]):
        assert run(capsys, *argv, "proj(Q, 9)", "--k=-24987..2")[0] == 0, argv
        assert run(capsys, *argv, "proj(Q, 9)", "--k=-24988..2")[0] == 3, argv
    # a union of 10 prime fields has 10 strata on 10 bases: 2 499 weights,
    # and a wide window is refused, though strata + width would be small
    primes = "union(" + ", ".join(f"F({p})" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)) + ")"
    for argv in (["chi"], ["ord"], ["verify"], ["verify", "--format=csv"]):
        assert run(capsys, *argv, primes, "--k=-2496..2")[0] == 0, argv
        code, _, err = run(capsys, *argv, primes, "--k=-2497..2")
        assert code == 3 and "10 strata on 10 bases" in err, argv
        assert run(capsys, *argv, primes, "--k=-23990..2")[0] == 3, argv
    # a class at MAX_CELL_DEGREE verifies on the default window
    assert run(capsys, "verify", "proj(Q, 4096)")[0] == 0
    assert run(capsys, "ord", "proj(Q, 2000)")[0] == 0
    # ranks and JSON verify print an entry per stratum and weight, priced at
    # strata x width: proj(Q, 9) allows a tenth of 25 000 weights
    for argv in (["ranks"], ["verify", "--format=json"]):
        assert run(capsys, *argv, "proj(Q, 9)", "--k=-2497..2")[0] == 0, argv
        code, _, err = run(capsys, *argv, "proj(Q, 9)", "--k=-2498..2")
        assert code == 3 and "strata x window is above" in err, argv
    # a sweep sums over its family: affine(Q, 0..4) is 5 strata on 5 bases,
    # 4 999 weights in plain or CSV, and 5 000 in JSON, which prints support
    sweep = ("sweep", "--family", "affine", "--fields", "Q", "--max-d", "4")
    for fmt in ("plain", "csv"):
        assert run(capsys, *sweep, "--k=-4996..2", f"--format={fmt}")[0] == 0, fmt
        code, _, err = run(capsys, *sweep, "--k=-4997..2", f"--format={fmt}")
        assert code == 3 and "at least 5 strata on 5 bases" in err, fmt
    assert run(capsys, *sweep, "--k=-4997..2", "--format=json")[0] == 0
    code, _, err = run(capsys, *sweep, "--k=-4998..2", "--format=json")
    assert code == 3 and "strata x window is above" in err
    # flags of rank <= 8 over Q: 1 948 strata on 255 bases over 13 weights
    flags = ("sweep", "--family", "flags", "--fields", "Q", "--max-n", "8")
    for fmt in ("plain", "csv"):
        assert run(capsys, *flags, f"--format={fmt}")[0] == 0, fmt
    code, _, err = run(capsys, *flags, "--format=json")
    assert code == 3 and "at least 1948 strata" in err


def test_euler_work_bound_is_bases_plus_points_times_prime_bound(capsys, monkeypatch):
    monkeypatch.setattr(flagzeta.fields, "MAX_EULER_WORK", 600)
    lfun = ("lfun", "--eval-at=4", "--format=json")
    # proj(Q, 1): one base and two points; a finite field costs nothing
    for scheme, bound in [("proj(Q, 1)", 200), ("union(proj(Q, 1), F(2))", 200),
                          ("union(proj(Q, 1), Q(sqrt -1))", 120)]:
        assert run(capsys, *lfun, scheme, f"--prime-bound={bound}")[0] == 0
        code, _, err = run(capsys, *lfun, scheme, f"--prime-bound={bound + 1}")
        assert code == 3 and "MAX_EULER_WORK = 600" in err


def test_sweep_family_bound_counts_schemes_before_building(capsys, monkeypatch):
    monkeypatch.setattr(flagzeta.cli, "MAX_SWEEP_SCHEMES", 6)
    built = []
    build = flagzeta.cli.flag_family
    monkeypatch.setattr(flagzeta.cli, "flag_family", lambda *a: built.append(a) or build(*a))
    # flags of rank <= 2 are 3 types per base
    argv = ("sweep", "--family", "flags", "--max-n", "2", "--format", "json")
    code, _, err = run(capsys, *argv, "--fields", "Q,F(2),F(3)")
    assert (code, built) == (3, [])
    assert "a family of at least 9 schemes is above MAX_SWEEP_SCHEMES = 6" in err
    code, out, _ = run(capsys, *argv, "--fields", "Q,F(2)")
    assert (code, len(built), json.loads(out)["schemes"]) == (0, 1, 6)


@pytest.mark.parametrize("scheme", ["Q", "F(2)"])
@pytest.mark.parametrize("bound", ["0", "1", "-5"])
def test_prime_bound_below_2_exits_3(capsys, scheme, bound):
    code, out, err = run(capsys, "lfun", scheme, "--eval-at", "4", "--prime-bound", bound)
    assert (code, out) == (3, "")
    assert err == f"error: prime bound {bound} is below 2: an empty product\n"
    assert run(capsys, "lfun", scheme, "--eval-at", "4", "--prime-bound", "2")[0] == 0


def test_special_value_beyond_a_float_prints_exactly(capsys):
    # zeta(-301) = -B_302/302 is an exact rational far outside the float range
    code, out, err = run(capsys, "special", "Q", "--at=-301", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["approx"] is None
    assert payload["kind"] == "exact-rational"
    assert abs(Fraction(payload["rational"])) > 10**308
    code, out, _ = run(capsys, "special", "Q", "--at=-301")
    assert code == 0  # the approx column is left empty
    assert out.splitlines()[1].split() == ["exact-rational", payload["rational"], "0", "0"]
    code, out, _ = run(capsys, "special", "Q", "--at=400", "--format", "json")
    assert code == 0 and json.loads(out)["pi_power"] == 400
    # zeta(400) * zeta(398) is near 1, though pi^798 alone is beyond a float
    code, out, _ = run(capsys, "special", "union(Q, affine(Q, 2))", "--at=400",
                       "--format", "json")
    payload = json.loads(out)
    assert (code, payload["pi_power"]) == (0, 798)
    assert abs(payload["approx"] - 1) < 1e-12
    # zeta(300) * zeta(-299) is beyond a float, though each part fits in one
    code, out, _ = run(capsys, "special", "union(Q, affine(Q, 599))", "--at=300",
                       "--format", "json")
    assert (code, json.loads(out)["approx"]) == (0, None)


def test_large_prime_field_answers(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "cells", "F(2147483647)")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "F(2147483647)  0      1" in out


def test_unsupported_field_exit_code(capsys, tmp_path):
    config = tmp_path / "fields.json"
    config.write_text(json.dumps(
        {"fields": [{"label": "C", "degree": 3, "r1": 1, "r2": 1}]}
    ))
    code, _, err = run(capsys, "lfun", "C", "--eval-at", "3.0",
                       "--prime-bound", "10", "--field-config", str(config))
    assert code == 4
    assert "unsupported" in err


def test_special_over_finite_base_is_unsupported(capsys):
    code, _, err = run(capsys, "special", "F(2)", "--at", "0")
    assert code == 4
    assert "number-field bases" in err


@pytest.mark.parametrize(
    "splitting, key",
    [
        ({"2": 5}, "'2'"),
        ({"x": [1]}, "'x'"),
        ({"3": ["y"]}, "'3'"),
        ({"2": [True, 2]}, "'2'"),
        ({"2": [1.5]}, "'2'"),
        ({"2": "12"}, "'2'"),
        # a key is ASCII digits, nothing int() would also read
        ({"1_1": [1]}, "'1_1'"),
        ({" 5 ": [1]}, "' 5 '"),
        ({"\u0667": [1]}, "'\u0667'"),
        ({"+2": [1]}, "'+2'"),
    ],
)
def test_bad_splitting_entry_names_field_and_key(capsys, tmp_path, splitting, key):
    config = tmp_path / "fields.json"
    config.write_text(json.dumps({"fields": [
        {"label": "K", "degree": 3, "r1": 1, "r2": 1, "splitting": splitting}
    ]}))
    code, out, err = run(capsys, "cells", "K", "--field-config", str(config))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: field 'K': splitting entry {key}")


@pytest.mark.parametrize(
    "record, message",
    [
        (  # the discriminant, not a table, splits a quadratic field
            {"label": "K", "degree": 2, "r1": 0, "r2": 1, "disc": -4,
             "splitting": {"5": [2], "3": [1, 1]}},
            "error: field 'K': degree 2 splits by its discriminant, not a table\n",
        ),
        (  # one prime three times, spelled three ways
            {"label": "K", "degree": 3, "r1": 1, "r2": 1,
             "splitting": {"2": [3], "02": [1, 2], "002": [1, 1, 1]}},
            "error: field 'K': splitting table lists p=2 twice\n",
        ),
    ],
    ids=["quadratic", "prime-twice"],
)
def test_an_unusable_splitting_table_exits_3(capsys, tmp_path, record, message):
    config = tmp_path / "fields.json"
    config.write_text(json.dumps({"fields": [record]}))
    code, out, err = run(capsys, "lfun", "K", "--eval-at", "2", "--prime-bound", "10",
                         "--field-config", str(config))
    assert (code, out, err) == (3, "", message)


def _nested(depth):
    """proj(...proj(Q, 1)..., 1), its parentheses nested depth deep."""
    return "proj(" * depth + "Q" + ", 1)" * depth


@pytest.mark.parametrize(
    "command, last_line",
    [("cells", f"Q     {MAX_DEPTH}    1"), ("verify", "summary: 5 matched, 0 mismatched")],
)
def test_expression_at_max_depth_answers(capsys, command, last_line):
    code, out, err = run(capsys, command, _nested(MAX_DEPTH), "--k=-2..2")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == last_line


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 5000])
def test_deeper_expression_exits_3_before_parsing(capsys, depth):
    code, out, err = run(capsys, "cells", _nested(depth))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: parentheses nested deeper than MAX_DEPTH = {MAX_DEPTH} ")


_CUBIC = {"label": "K", "degree": 3, "r1": 1, "r2": 1}


@pytest.mark.parametrize(
    "record, message",
    [
        (1, "field record 1 is not an object"),
        ({**_CUBIC, "degree": None}, "field 'K': 'degree' must be an integer, got None"),
        ({**_CUBIC, "degree": 1.5}, "field 'K': 'degree' must be an integer, got 1.5"),
        ({**_CUBIC, "degree": True}, "field 'K': 'degree' must be an integer, got True"),
        ({**_CUBIC, "r2": "1"}, "field 'K': 'r2' must be an integer, got '1'"),
        (
            {"label": "K", "degree": 2, "r1": 2, "r2": 0, "disc": []},
            "field 'K': 'disc' must be an integer, got []",
        ),
    ],
)
def test_bad_field_record_type_names_field_and_key(capsys, tmp_path, record, message):
    config = tmp_path / "fields.json"
    config.write_text(json.dumps({"fields": [record]}))
    code, out, err = run(capsys, "cells", "K", "--field-config", str(config))
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


_IMAGINARY = {"label": "K", "degree": 2, "r1": 0, "r2": 1, "disc": -4}


@pytest.mark.parametrize(
    "argv, record, message",
    [
        (["verify", "Q", "--k=abc"], None,
         "bad range 'abc'; expected LO..HI, e.g. -10..2"),
        # --k bounds are the grammar's INT: ASCII digits, nothing after
        (["chi", "proj(Q, 1)", "--k=-\u0663..\u0662"], None,
         "bad range '-\u0663..\u0662'; expected LO..HI, e.g. -10..2"),
        (["chi", "Q", "--k=-3..2\n"], None,
         "bad range '-3..2\\n'; expected LO..HI, e.g. -10..2"),
        (["cells", "F(1)"], None, "1 is not a prime power"),
        (["cells", "F(0)"], None, "0 is not a prime power"),
        (["cells", "F(-3)"], None, "-3 is not a prime power"),
        (["cells", "K"], {k: v for k, v in _IMAGINARY.items() if k != "disc"},
         "field 'K': quadratic records must carry disc"),
        (["cells", "K"], {**_IMAGINARY, "disc": 4}, "field 'K': disc 4 is degenerate"),
        (["cells", "K"], {**_IMAGINARY, "disc": 0}, "field 'K': disc 0 is degenerate"),
        (["cells", "proj(Q, -1)"], None, "projective dimension must be >= 0"),
        (["cells", "grass(Q, -1, 2)"], None, "Grassmannian indices must be >= 0"),
        (["cells", "K"], {**_CUBIC, "splitting": [[2, [1, 2]]]},
         "field 'K': splitting must map primes to degree lists"),
        (["cells", "K"], {**_CUBIC, "splitting": {"4": [1]}},
         "field 'K': splitting table key 4 is not prime"),
        (["cells", "K"], {**_CUBIC, "splitting": {"2": []}},
         "field 'K': splitting entry for p=2 needs degrees >= 1"),
        (["cells", "K"], {**_CUBIC, "splitting": {"2": [2, 2]}},
         "field 'K': residue degrees above p=2 sum past the field degree"),
        (["cells", "K"], {**_CUBIC, "degree": 0}, "field 'K': degree must be >= 1"),
        (["cells", "K"], {**_CUBIC, "r1": -1, "r2": 1},
         "field 'K': r1 and r2 must be non-negative"),
        (["cells", "K"], {**_CUBIC, "r2": 2},
         "field 'K': r1 + 2*r2 = 5 does not match degree 3"),
        (["cells", "K"], {**_IMAGINARY, "r1": 2, "r2": 0},
         "field 'K': quadratic discriminant sign must match the signature: "
         "disc > 0 iff r1 = 2"),
    ],
)
def test_refusal_exits_3_with_its_message(capsys, tmp_path, argv, record, message):
    if record is not None:
        config = tmp_path / "fields.json"
        config.write_text(json.dumps({"fields": [record]}))
        argv = [*argv, "--field-config", str(config)]
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")


def test_field_config_labels_usable(capsys, tmp_path):
    config = tmp_path / "fields.json"
    config.write_text(json.dumps(
        {"fields": [{"label": "K", "degree": 2, "r1": 0, "r2": 1, "disc": -4}]}
    ))
    code, out, _ = run(capsys, "verify", "proj(K, 2)", "--k=-8..2",
                       "--field-config", str(config), "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_sweep_ok_and_nonvacuous(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "flags", "--fields", "Q,Q(sqrt -1)",
        "--max-n", "3", "--k=-8..2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["rows_nonzero"] >= 1
    assert payload["min_chi"] <= -1


def _count_top_level_calls(monkeypatch, module, name, *also):
    """Wrap module.name (and the same name bound in the modules ``also``)
    and record the argument of every call not made from inside another."""
    calls, depth = [], [0]
    inner = getattr(module, name)

    def counted(*args):
        if not depth[0]:
            calls.append(args[0])
        depth[0] += 1
        try:
            return inner(*args)
        finally:
            depth[0] -= 1

    for m in (module, *also):
        monkeypatch.setattr(m, name, counted)
    return calls


def _count_convolutions(monkeypatch):
    """Record the cell polynomial of every ``CellDecomposition.convolved``
    call: one per bundle node whose class is built."""
    polys = []
    convolved = CellDecomposition.convolved
    monkeypatch.setattr(
        CellDecomposition, "convolved", lambda c, poly: polys.append(poly) or convolved(c, poly)
    )
    return polys


def test_sweep_builds_each_member_once(capsys, monkeypatch):
    # each member is one flag node over a leaf: one convolution builds it,
    # and every later read of its class is a lookup on the node
    built = _count_convolutions(monkeypatch)
    code, out, _ = run(
        capsys, "sweep", "--family", "flags", "--fields", "Q,F(2)", "--max-n", "3",
        "--format", "json",
    )
    assert code == 0
    names = [report["scheme"] for report in json.loads(out)["reports"]]
    assert len(names) == 14
    assert len(built) == 14


@pytest.mark.parametrize("command", ["ranks", "chi", "ord", "verify"])
def test_windowed_commands_build_each_node_once(capsys, monkeypatch, command):
    # the window check builds the class; the command reads it off the node
    built = _count_convolutions(monkeypatch)
    code, _, _ = run(capsys, command, "grass(proj(Q, 3), 2, 4)", "--k=-4..2")
    assert code == 0
    assert len(built) == 2  # the proj node and the grass node


def test_lfun_eval_sieves_once_per_number_field_base(capsys, monkeypatch):
    sieves = _count_top_level_calls(monkeypatch, flagzeta.fields, "primes_upto")
    local = _count_top_level_calls(monkeypatch, flagzeta.fields, "_residue_degrees")
    code, out, _ = run(
        capsys, "lfun", "union(proj(Q(sqrt -1), 3), proj(Q(sqrt 2), 2))",
        "--eval-at", "8", "--prime-bound", "100",
    )
    assert code == 0
    assert "L(Q(sqrt -1), s-3) * L(Q(sqrt 2), s) *" in out  # 7 factors, 2 bases
    assert sieves == [100, 100]
    # one splitting per residue class of p mod 4|disc|: disc -4, then disc 8
    primes = primes_by_trial_division(100)
    classes = sum(len({p % period for p in primes}) for period in (16, 32))
    assert len(local) == classes == 9 + 17


def test_sweep_plain(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "proj", "--fields", "Q", "--max-d", "2",
        "--k=-5..2",
    )
    assert code == 0
    assert "mismatched: 0" in out


def test_sweep_rejects_non_base_fields(capsys):
    code, _, err = run(
        capsys, "sweep", "--family", "proj", "--fields", "proj(Q, 1)",
    )
    assert code == 3
    assert "plain fields" in err


def test_output_is_deterministic(capsys):
    args = ("verify", "flag(Q(sqrt -5), 2+2)", "--k=-10..2", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("sweep", "--family", "affine", "--fields", "Q,F(2)", "--max-d", "3",
            "--k=-6..2", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.fixture
def chi_off_by_one(monkeypatch):
    """A chi one above the true one at every weight."""
    real = flagzeta.verify.chi
    monkeypatch.setattr(
        flagzeta.verify, "chi", lambda table: {k: c + 1 for k, c in real(table).items()}
    )


VERIFY_Q_OFF_BY_ONE = """\
k    chi  ord  match
-30  2    1    NO
-29  1    0    NO
-28  2    1    NO
-27  1    0    NO
-26  2    1    NO
-25  1    0    NO
-24  2    1    NO
-23  1    0    NO
-22  2    1    NO
-21  1    0    NO
-20  2    1    NO
-19  1    0    NO
-18  2    1    NO
-17  1    0    NO
-16  2    1    NO
-15  1    0    NO
-14  2    1    NO
-13  1    0    NO
-12  2    1    NO
-11  1    0    NO
-10  2    1    NO
-9   1    0    NO
-8   2    1    NO
-7   1    0    NO
-6   2    1    NO
-5   1    0    NO
-4   2    1    NO
-3   1    0    NO
-2   2    1    NO
-1   1    0    NO
0    1    0    NO
1    0    -1   NO
2    1    0    NO
summary: 0 matched, 33 mismatched
"""


def test_verify_mismatch_exits_1_and_caps_stderr(capsys, chi_off_by_one):
    code, out, err = run(capsys, "verify", "Q", "--k=-30..2")
    assert code == 1
    assert out == VERIFY_Q_OFF_BY_ONE
    rows = [line.split() for line in out.splitlines()[1:21]]
    assert err == "".join(
        f"mismatch: Q at k={k}: chi={c} ord={o}\n" for k, c, o, _ in rows
    )


def _refuse_columns(monkeypatch):
    def refuse(table):
        raise AssertionError("the support columns were built")

    monkeypatch.setattr(flagzeta.weights.WeightTable, "columns", property(refuse))


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_verify_and_sweep_build_no_columns_unless_json(capsys, monkeypatch, fmt):
    # only JSON prints the support rows, the one part that reads the columns
    commands = (
        ["verify", "grass(proj(Q(sqrt -1), 3), 2, 4)", "--k=-6..2"],
        ["sweep", "--family", "proj", "--fields", "Q,F(2)", "--k=-3..1"],
    )
    expected = [run(capsys, *argv, "--format", fmt) for argv in commands]
    assert all(code == 0 for code, _, _ in expected)
    _refuse_columns(monkeypatch)
    for argv, want in zip(commands, expected):
        assert run(capsys, *argv, "--format", fmt) == want
    code, _, err = run(capsys, "verify", "Q", "--format", "json")
    assert code == flagzeta.cli.EXIT_INTERNAL and "columns were built" in err


def test_verify_mismatch_reports_without_columns(capsys, monkeypatch, chi_off_by_one):
    _refuse_columns(monkeypatch)
    code, out, err = run(capsys, "verify", "Q", "--k=-30..2")
    assert code == 1
    assert out == VERIFY_Q_OFF_BY_ONE
    rows = [line.split() for line in out.splitlines()[1:21]]
    assert err == "".join(
        f"mismatch: Q at k={k}: chi={c} ord={o}\n" for k, c, o, _ in rows
    )


def test_sweep_mismatch_exits_1(capsys, chi_off_by_one):
    code, out, err = run(
        capsys, "sweep", "--family", "proj", "--fields", "Q", "--max-d", "1",
        "--k=-2..1",
    )
    assert code == 1
    assert out == (
        "scheme      matched  mismatched  ok\n"
        "proj(Q, 0)  0        4           NO\n"
        "proj(Q, 1)  0        4           NO\n"
        "schemes: 2, rows: 8, mismatched: 8\n"
        "chi range: [0, 2]; rows with poles: 2, with zeros: 3\n"
    )
    assert err == (
        "mismatch: proj(Q, 0) at k=-2: chi=2 ord=1\n"
        "mismatch: proj(Q, 0) at k=-1: chi=1 ord=0\n"
        "mismatch: proj(Q, 0) at k=0: chi=1 ord=0\n"
        "mismatch: proj(Q, 0) at k=1: chi=0 ord=-1\n"
        "mismatch: proj(Q, 1) at k=-2: chi=2 ord=1\n"
        "mismatch: proj(Q, 1) at k=-1: chi=2 ord=1\n"
        "mismatch: proj(Q, 1) at k=0: chi=1 ord=0\n"
        "mismatch: proj(Q, 1) at k=1: chi=0 ord=-1\n"
    )


def test_sweep_counts_poles_and_zeros_by_order(capsys, chi_off_by_one):
    # chi is one above ord on every row, so counting chi would differ
    code, out, _ = run(
        capsys, "sweep", "--family", "proj", "--fields", "Q,F(2)", "--max-d", "2",
        "--k=-3..1", "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    orders = [row["ord"] for r in payload["reports"] for row in r["rows"]]
    assert payload["rows_pole"] == sum(1 for o in orders if o < 0)
    assert payload["rows_zero"] == sum(1 for o in orders if o > 0)


def test_zeta_disagreement_exits_1_without_mismatch_lines(capsys, monkeypatch):
    real = flagzeta.cli.weil_zeta_series

    def off_by_one(cells, order):
        series = real(cells, order)
        return TruncSeries(order, [series[i] + 1 for i in range(order + 1)])

    monkeypatch.setattr(flagzeta.cli, "weil_zeta_series", off_by_one)
    code, out, err = run(capsys, "zeta", "proj(F(2), 1)", "--order", "3")
    assert code == 1
    assert out.endswith("agreement to order 3: NO\n")
    assert err == ""


def test_unexpected_exception_exits_5(capsys, monkeypatch):
    def broken(x, args):
        raise RuntimeError("boom")

    monkeypatch.setattr(flagzeta.cli, "_cmd_cells", broken)
    code, out, err = run(capsys, "cells", "Q")
    assert code == 5
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_only_an_unsupported_field_exits_4(capsys, monkeypatch):
    # nothing in flagzeta raises NotImplementedError, so one is a fault
    def broken(x, args):
        raise NotImplementedError("todo")

    monkeypatch.setattr(flagzeta.cli, "_cmd_cells", broken)
    assert run(capsys, "cells", "Q") == (5, "", "internal error: NotImplementedError: todo\n")


@pytest.mark.parametrize(
    "argv, code, stream",
    [
        (["lfun", "Q", "--eval-at", "-inf"], 2, "err"),  # argparse reads -inf as an option
        (["verify"], 2, "err"),
        ([], 2, "err"),
        (["--help"], 0, "out"),
        (["sweep", "--help"], 0, "out"),
    ],
)
def test_argparse_exits_are_returned(capsys, argv, code, stream):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert getattr(captured, stream).startswith("usage:")


@pytest.mark.parametrize(
    "argv, message",
    [
        # an integer option is the grammar's INT: ASCII digits, no '+' or '_'
        (["zeta", "F(2)", "--order", "\u0663"],
         "argument --order: invalid int value: '\u0663'"),
        (["zeta", "F(2)", "--order", "1_0"],
         "argument --order: invalid int value: '1_0'"),
        (["special", "Q", "--at=+2"], "argument --at: invalid int value: '+2'"),
        (["special", "Q", "--at=-\u0663"],
         "argument --at: invalid int value: '-\u0663'"),
        (["lfun", "Q", "--eval-at=3", "--prime-bound=1_000"],
         "argument --prime-bound: invalid int value: '1_000'"),
        (["sweep", "--family", "flags", "--fields", "Q", "--max-n", "\u0662"],
         "argument --max-n: invalid int value: '\u0662'"),
        (["sweep", "--family", "proj", "--fields", "Q", "--max-d", " 2"],
         "argument --max-d: invalid int value: ' 2'"),
        # a real option is float's syntax in ASCII, without '_'
        (["lfun", "Q", "--eval-at=\u0663.\u0665"],
         "argument --eval-at: invalid float value: '\u0663.\u0665'"),
        (["lfun", "Q", "--eval-at=1_0.5"],
         "argument --eval-at: invalid float value: '1_0.5'"),
    ],
)
def test_numeric_options_are_ascii(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


def test_range_is_parsed_only_where_used(capsys):
    assert run(capsys, "cells", "Q", "--k=2..1")[0] == 0
    assert run(capsys, "lfun", "Q", "--k=junk")[0] == 0
    code, _, err = run(capsys, "ranks", "proj(Q,", "--k=2..1")
    assert (code, err.split(":")[0]) == (2, "syntax error")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "proj(Q, 1)", "--k=-4..2"], 0),
        (["chi", "Q", "--k=2..1"], 3),
        (["cells", "proj(Q,"], 2),
    ],
)
def test_module_entry_point_matches_main(capsys, argv, code):
    # the README's uninstalled entry point, python3 -m flagzeta.cli
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    child = subprocess.run(
        [sys.executable, "-m", "flagzeta.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == run(capsys, *argv)
    assert child.returncode == code
