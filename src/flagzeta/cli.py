"""Command-line interface.

The subcommands (ranks, cells, chi, ord, lfun, zeta, special, verify,
sweep) and their options are listed by ``--help`` and in the README's
command-line section, which a test keeps in step with the parser.  Every
subcommand accepts the common options and ignores those it does not read.

Each subcommand returns its table as ``(headers, rows, payload, footer,
ok)``.  ``main`` is the one dispatcher: it parses the scheme, runs the
subcommand, stamps the command and scheme into the JSON payload, renders
the chosen format and maps the outcome to an exit code.

Exit codes: 0 success, 1 verification mismatch, 2 syntax or command-line
usage error, 3 validation error, 4 unsupported operation, 5 internal
error.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import re
import sys
from typing import Iterable, Optional, Sequence

from .cells import BasePoint, SchemeExpr, cells_of
from .fields import UnsupportedFieldError, _digits_refusal, _read_int
from .lfuncs import (
    lfun_partial_eval,
    special_value_product,
    weil_zeta_rational,
    weil_zeta_series,
)
from .parse import (
    _INT,
    SchemeSyntaxError,
    load_field_registry,
    parse_scheme,
)
from .verify import (
    affine_family,
    check_soule,
    flag_family,
    proj_family,
    sweep,
)
from .weights import DEFAULT_K_RANGE, chi, weight_table_of

__all__ = ["main"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_SYNTAX = 2
EXIT_VALIDATION = 3
EXIT_UNSUPPORTED = 4
EXIT_INTERNAL = 5

DEFAULT_K = "{}..{}".format(*DEFAULT_K_RANGE)
DEFAULT_ORDER = 16
DEFAULT_PRIME_BOUND = 10_000

# Work bounds, checked before any table or family is built, each sized so
# the largest accepted input answers in about a second: the strata of the
# schemes a command checks and the width of its --k window, and the number
# of schemes in a sweep's family.  A window whose output holds one entry
# per stratum and weight (ranks, JSON support rows of verify or sweep) is
# priced at strata times width; one read off the window sums alone (chi,
# ord, plain or CSV verify and sweep), at strata plus bases times width,
# an upper bound on the window sums' work: each base walks only the part
# of the window its shifts span and fills the rest in C.  A sweep's price
# is summed over its family.
MAX_WINDOW_WORK = 25_000
MAX_SWEEP_SCHEMES = 4_000

_K_RANGE_RE = re.compile(rf"({_INT})\.\.({_INT})")
# a comma not inside parentheses, so 'Q,Q(sqrt -1)' is two specs
_FIELD_SEP_RE = re.compile(r",(?![^()]*\))")


def _cells_in_window(
    args, schemes: Iterable[SchemeExpr], per_weight: bool = True
) -> tuple[int, int]:
    """The --k window, refused as soon as its price, summed over the
    schemes, passes MAX_WINDOW_WORK, so the refusal counts at least the
    strata read so far: strata x window when the output reads every
    stratum at every weight (``per_weight``), else strata + bases x
    window, an upper bound on what ``cells._window_sums`` reads.
    Pricing builds each scheme's class, which its node keeps, so the
    command then reads it back."""
    m = _K_RANGE_RE.fullmatch(args.k)
    if m is None:
        raise ValueError(f"bad range {args.k!r}; expected LO..HI, e.g. -10..2")
    lo, hi = map(_read_int, m.groups())
    if lo > hi:
        raise ValueError(f"empty range {args.k!r}")
    width = hi - lo + 1
    strata = bases = 0
    for x in schemes:
        polys = cells_of(x).polys
        strata += sum(len(poly) for _, poly in polys)
        bases += len(polys)
        price = strata * width if per_weight else strata + bases * width
        if price > MAX_WINDOW_WORK:
            rule = "strata x window" if per_weight else "strata + bases x window"
            raise ValueError(
                f"at least {strata} strata on {bases} bases over a window of "
                f"{width} weights: {rule} is above MAX_WINDOW_WORK = {MAX_WINDOW_WORK}"
            )
    return lo, hi


# -- output rendering --------------------------------------------------------


def _emit(fmt: str, headers: Sequence[str], rows: Sequence[Sequence[object]],
          payload: dict, footer: Sequence[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    cells = [[str(c) for c in row] for row in rows]
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows([headers, *cells])
        return
    widths = [max([len(h)] + [len(r[i]) for r in cells]) for i, h in enumerate(headers)]
    for line in [headers, *cells]:
        print("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
    for line in footer:
        print(line)


def _report_mismatches(payload: dict) -> None:
    """The first 20 mismatching rows of a verify or sweep payload, to stderr."""
    rows = (
        (report["scheme"], row)
        for report in payload.get("reports", [payload])
        for row in report.get("rows", ())
        if not row["match"]
    )
    for scheme, row in itertools.islice(rows, 20):
        print(
            f"mismatch: {scheme} at k={row['k']}: chi={row['chi']} ord={row['ord']}",
            file=sys.stderr,
        )


# -- subcommands: each takes the parsed scheme (None for sweep) and args ----------


def _keyed(headers, rows, footer=(), **payload):
    """A table whose JSON rows are its rows keyed by the headers."""
    payload["rows"] = [dict(zip(headers, row)) for row in rows]
    return headers, rows, payload, footer, True


def _registry(args) -> dict:
    return load_field_registry(args.field_config) if args.field_config else {}


def _cmd_ranks(x: SchemeExpr, args):
    lo, hi = _cells_in_window(args, [x])
    table = weight_table_of(x, lo, hi)
    rows = [(m, j, dim) for (m, j), dim in table.items()]
    return _keyed(("m", "j", "dim"), rows, j_min=lo, j_max=hi)


def _cmd_cells(x: SchemeExpr, args):
    rows = [(b.label, d, m) for b, poly in cells_of(x).polys for d, m in poly]
    return _keyed(("base", "shift", "multiplicity"), rows)


def _cmd_chi(x: SchemeExpr, args):
    lo, hi = _cells_in_window(args, [x], per_weight=False)
    rows = list(chi(weight_table_of(x, lo, hi)).items())
    return _keyed(("k", "chi"), rows, k_min=lo, k_max=hi)


def _cmd_ord(x: SchemeExpr, args):
    lo, hi = _cells_in_window(args, [x], per_weight=False)
    rows = list(cells_of(x).ord_window(lo, hi).items())
    return _keyed(("k", "ord"), rows, k_min=lo, k_max=hi)


def _cmd_lfun(x: SchemeExpr, args):
    lfun = cells_of(x)
    rows = [(b.label, d, m) for b, poly in lfun.polys for d, m in poly]
    payload = {"display": str(lfun)}
    footer = [f"product: {lfun}"]
    if args.eval_at is not None:
        value = lfun_partial_eval(lfun, args.eval_at, args.prime_bound)
        payload.update(eval_at=args.eval_at, prime_bound=args.prime_bound, value=value)
        footer.append(
            f"value at s={args.eval_at} (primes <= {args.prime_bound}): {value!r}"
        )
    return _keyed(("base", "shift", "exponent"), rows, footer, **payload)


def _cmd_zeta(x: SchemeExpr, args):
    cells = cells_of(x)
    rational = weil_zeta_rational(cells)
    series = weil_zeta_series(cells, args.order)
    agrees = rational.expand(args.order) == series
    coefficients = [str(series[i]) for i in range(args.order + 1)]
    payload = {
        "q": rational.q,
        "order": args.order,
        "rational": str(rational),
        "numerator": [list(f) for f in rational.numer],
        "denominator": [list(f) for f in rational.denom],
        "coefficients": coefficients,
        "agrees": agrees,
    }
    footer = [
        f"rational: {rational}",
        f"series:   {series}",
        f"agreement to order {args.order}: {'yes' if agrees else 'NO'}",
    ]
    return ("i", "coefficient"), list(enumerate(coefficients)), payload, footer, agrees


def _cmd_special(x: SchemeExpr, args):
    value = special_value_product(cells_of(x), args.at)
    approx = value.approx()
    headers = ("kind", "rational", "pi_power", "order", "approx")
    row = (value.kind, str(value.rational), value.pi_power, value.order,
           "" if approx is None else repr(approx))
    payload = {
        "at": args.at,
        "kind": value.kind,
        "rational": str(value.rational),
        "pi_power": value.pi_power,
        "order": value.order,
        "factors": [list(f) for f in value.factors],
        "approx": approx,
        "display": str(value),
    }
    return headers, [row], payload, [f"value: {value}"], True


def _cmd_verify(x: SchemeExpr, args):
    support = args.format == "json"
    report = check_soule(x, _cells_in_window(args, [x], per_weight=support))
    rows = [(r.k, r.chi, r.ord, "yes" if r.match else "NO") for r in report.rows]
    footer = [f"summary: {report.matched} matched, {report.mismatched} mismatched"]
    payload = report.to_dict(support=support)
    return ("k", "chi", "ord", "match"), rows, payload, footer, report.ok


def _sweep_family(args) -> list[SchemeExpr]:
    registry = _registry(args)
    bases = []
    for spec in filter(None, map(str.strip, _FIELD_SEP_RE.split(args.fields))):
        expr = parse_scheme(spec, registry)
        if not isinstance(expr, BasePoint):
            raise ValueError(f"sweep bases must be plain fields, got {spec!r}")
        bases.append(expr.field)
    # 2^n - 1 flag types of rank <= n per base; the exponent is capped so
    # a huge --max-n is refused without computing the power
    flags = args.family == "flags"
    size = len(bases) * (2 ** min(args.max_n, 64) - 1 if flags else args.max_d + 1)
    if size > MAX_SWEEP_SCHEMES:
        raise ValueError(
            f"a family of at least {size} schemes is above "
            f"MAX_SWEEP_SCHEMES = {MAX_SWEEP_SCHEMES}"
        )
    if flags:
        return flag_family(bases, args.max_n)
    if args.family == "proj":
        return proj_family(bases, args.max_d)
    return affine_family(bases, args.max_d)


def _cmd_sweep(x: None, args):
    family = _sweep_family(args)
    report = sweep(family, _cells_in_window(args, family, per_weight=args.format == "json"))
    rows = [
        (r.scheme, r.matched, r.mismatched, "yes" if r.ok else "NO")
        for r in report.reports
    ]
    payload = {"family": args.family, **report.to_dict(support=args.format == "json")}
    footer = [
        f"schemes: {report.schemes}, rows: {report.total_rows}, "
        f"mismatched: {report.mismatched}",
        f"chi range: [{report.min_chi}, {report.max_chi}]; "
        f"rows with poles: {report.rows_pole}, with zeros: {report.rows_zero}",
    ]
    return ("scheme", "matched", "mismatched", "ok"), rows, payload, footer, report.ok


# -- argument parsing ------------------------------------------------------------


def _int_option(text: str) -> int:
    """An integer option, read as the grammar reads INT: ASCII digits only."""
    if re.fullmatch(_INT, text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if why := _digits_refusal(text):
        raise argparse.ArgumentTypeError(why)
    return int(text)


def _float_option(text: str) -> float:
    """A real option in float's own syntax, but ASCII and without '_'."""
    if text.isascii() and "_" not in text:
        with contextlib.suppress(ValueError):
            return float(text)
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain",
        help="output format (default plain)",
    )
    common.add_argument(
        "--k", default=DEFAULT_K, metavar="LO..HI",
        help=f"integer range, written --k=LO..HI (default {DEFAULT_K})",
    )
    common.add_argument(
        "--order", type=_int_option, default=DEFAULT_ORDER,
        help=f"series truncation order (default {DEFAULT_ORDER})",
    )
    common.add_argument(
        "--prime-bound", type=_int_option, default=DEFAULT_PRIME_BOUND,
        help=f"Euler product cutoff (default {DEFAULT_PRIME_BOUND})",
    )
    common.add_argument(
        "--field-config", metavar="PATH",
        help="JSON field catalogue providing extra base labels",
    )

    parser = argparse.ArgumentParser(
        prog="flagzeta",
        description=(
            "Exact K-theory weight tables, Euler characteristics and "
            "L-function factorizations of cellular schemes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, scheme_arg: bool = True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if scheme_arg:
            p.add_argument("scheme", help="scheme expression, e.g. 'proj(Q, 2)'")
        p.set_defaults(func=func)
        return p

    add("ranks", _cmd_ranks, "weight table (m, j, dim) over the --k window")
    add("cells", _cmd_cells, "cell decomposition of a scheme")
    add("chi", _cmd_chi, "Euler characteristic by weight")
    add("ord", _cmd_ord, "L-function vanishing order at each integer")
    p_lfun = add("lfun", _cmd_lfun, "L-function factorization")
    p_lfun.add_argument(
        "--eval-at", type=_float_option, default=None, metavar="S",
        help="also evaluate the partial Euler product at real S",
    )
    add("zeta", _cmd_zeta, "zeta series and rational form over a finite field")
    p_special = add("special", _cmd_special, "exact special value at an integer")
    p_special.add_argument(
        "--at", type=_int_option, required=True, metavar="M",
        help="integer point, written --at=M",
    )
    add("verify", _cmd_verify, "compare chi with ord over the --k range")
    p_sweep = add("sweep", _cmd_sweep, "verify a whole family", scheme_arg=False)
    p_sweep.add_argument(
        "--family", choices=("flags", "proj", "affine"), required=True,
    )
    p_sweep.add_argument(
        "--fields", required=True,
        help="comma-separated base fields, e.g. 'Q,Q(sqrt -1),F(2)'",
    )
    p_sweep.add_argument("--max-n", type=_int_option, default=4, help="flag rank bound")
    p_sweep.add_argument(
        "--max-d", type=_int_option, default=4, help="dimension bound for proj/affine"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
    try:
        x = parse_scheme(args.scheme, _registry(args)) if "scheme" in args else None
        headers, rows, payload, footer, ok = args.func(x, args)
        payload["command"] = args.command
        if x is not None:
            payload["scheme"] = str(x)
        _emit(args.format, headers, rows, payload, footer)
        if ok:
            return EXIT_OK
        _report_mismatches(payload)
        return EXIT_MISMATCH
    except SchemeSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except UnsupportedFieldError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # a fault in flagzeta itself, never a mismatch
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
