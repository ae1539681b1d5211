"""End-to-end tests of the command-line interface."""

import json
import time
from fractions import Fraction

import pytest

import flagzeta.cli
import flagzeta.verify
from flagzeta.cli import main
from flagzeta.series import TruncSeries


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
        (["special", "Q", "--at=-1201"], "MAX_BERNOULLI_INDEX = 500"),
        (["special", "Q", "--at=3000"], "MAX_BERNOULLI_INDEX = 500"),
        (["lfun", "Q", "--eval-at", "3", "--prime-bound", "30000000"],
         "MAX_PRIME_BOUND = 2000000"),
    ],
)
def test_oversized_numeric_work_exits_3_quickly(capsys, argv, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert bound in err


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
    [({"2": 5}, "'2'"), ({"x": [1]}, "'x'"), ({"3": ["y"]}, "'3'")],
)
def test_bad_splitting_entry_names_field_and_key(capsys, tmp_path, splitting, key):
    config = tmp_path / "fields.json"
    config.write_text(json.dumps({"fields": [
        {"label": "K", "degree": 3, "r1": 1, "r2": 1, "splitting": splitting}
    ]}))
    code, out, err = run(capsys, "cells", "K", "--field-config", str(config))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: field 'K': splitting entry {key}")


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


class _OffByOne:
    """A chi function one above the true one at every weight."""

    def __init__(self, fn):
        self.fn = fn

    def value(self, k):
        return self.fn.value(k) + 1


@pytest.fixture
def chi_off_by_one(monkeypatch):
    real = flagzeta.verify.chi
    monkeypatch.setattr(flagzeta.verify, "chi", lambda table: _OffByOne(real(table)))


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
        "chi range: [0, 2]; rows with poles: 0, with zeros: 6\n"
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


def test_range_is_parsed_only_where_used(capsys):
    assert run(capsys, "cells", "Q", "--k=2..1")[0] == 0
    assert run(capsys, "lfun", "Q", "--k=junk")[0] == 0
    code, _, err = run(capsys, "ranks", "proj(Q,", "--k=2..1")
    assert (code, err.split(":")[0]) == (2, "syntax error")
