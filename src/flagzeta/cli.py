"""Command-line interface.

Subcommands
    ranks    weight table of a scheme (degree, weight, rank rows)
    cells    cell decomposition (base, shift, multiplicity rows)
    chi      Euler characteristic by weight
    ord      vanishing order of the L-function at each integer
    lfun     L-function factorization, optionally evaluated numerically
    zeta     zeta function of a scheme over a finite field, series and
             rational form side by side
    special  exact special value of the L-function at an integer
    verify   compare chi against ord over a k-range
    sweep    run verify across a generated family of schemes

Common options: --format {plain,json,csv} (default plain), --k=LO..HI
(default -10..2; note the '=' since ranges may start with '-'),
--order N (series truncation, default 16), --prime-bound N (default
10000), --field-config PATH (JSON field catalogue for extra base
labels).

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
import csv
import itertools
import json
import re
import sys
from typing import Optional, Sequence

from .cells import BasePoint, SchemeExpr, cells_of
from .fields import UnsupportedFieldError
from .lfuncs import (
    lfactorization_of,
    lfun_partial_eval,
    special_value_product,
    weil_zeta_rational,
    weil_zeta_series,
)
from .parse import SchemeSyntaxError, load_field_registry, parse_scheme
from .verify import (
    DEFAULT_K_RANGE,
    affine_family,
    check_soule,
    flag_family,
    proj_family,
    sweep,
)
from .weights import chi, weight_table_of

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

_K_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _parse_k_range(text: str) -> tuple[int, int]:
    m = _K_RANGE_RE.match(text)
    if m is None:
        raise ValueError(f"bad range {text!r}; expected LO..HI, e.g. -10..2")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
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
    lo, hi = _parse_k_range(args.k)
    table = weight_table_of(cells_of(x), lo, hi)
    rows = [(m, j, dim) for (m, j), dim in table.items()]
    return _keyed(("m", "j", "dim"), rows, j_min=lo, j_max=hi)


def _cmd_cells(x: SchemeExpr, args):
    rows = [(s.base.label, s.shift, s.multiplicity) for s in cells_of(x)]
    return _keyed(("base", "shift", "multiplicity"), rows)


def _cmd_chi(x: SchemeExpr, args):
    lo, hi = _parse_k_range(args.k)
    fn = chi(weight_table_of(cells_of(x), lo, hi))
    rows = [(k, fn.value(k)) for k in range(lo, hi + 1)]
    return _keyed(("k", "chi"), rows, k_min=lo, k_max=hi)


def _cmd_ord(x: SchemeExpr, args):
    lo, hi = _parse_k_range(args.k)
    lfun = lfactorization_of(cells_of(x))
    rows = [(k, lfun.ord_at(k)) for k in range(lo, hi + 1)]
    return _keyed(("k", "ord"), rows, k_min=lo, k_max=hi)


def _cmd_lfun(x: SchemeExpr, args):
    lfun = lfactorization_of(cells_of(x))
    rows = [(s.base.label, s.shift, s.multiplicity) for s in lfun]
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
    value = special_value_product(lfactorization_of(cells_of(x)), args.at)
    approx: Optional[float]
    try:
        approx = value.approx()
    except (ValueError, OverflowError):  # symbolic, or beyond a float
        approx = None
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
    report = check_soule(x, _parse_k_range(args.k))
    rows = [(r.k, r.chi, r.ord, "yes" if r.match else "NO") for r in report.rows]
    footer = [f"summary: {report.matched} matched, {report.mismatched} mismatched"]
    return ("k", "chi", "ord", "match"), rows, report.to_dict(), footer, report.ok


def _split_fields(text: str) -> list[str]:
    """Split on commas outside parentheses, so 'Q,Q(sqrt -1)' gives two specs."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return [s for s in (piece.strip() for piece in out) if s]


def _sweep_family(args) -> list[SchemeExpr]:
    registry = _registry(args)
    bases = []
    for spec in _split_fields(args.fields):
        expr = parse_scheme(spec, registry)
        if not isinstance(expr, BasePoint):
            raise ValueError(f"sweep bases must be plain fields, got {spec!r}")
        bases.append(expr.field)
    if args.family == "flags":
        return flag_family(bases, args.max_n)
    if args.family == "proj":
        return proj_family(bases, args.max_d)
    return affine_family(bases, args.max_d)


def _cmd_sweep(x: None, args):
    family = _sweep_family(args)
    report = sweep(family, _parse_k_range(args.k))
    rows = [
        (r.scheme, r.matched, r.mismatched, "yes" if r.ok else "NO")
        for r in report.reports
    ]
    payload = {"family": args.family, **report.to_dict()}
    footer = [
        f"schemes: {report.schemes}, rows: {report.total_rows}, "
        f"mismatched: {report.mismatched}",
        f"chi range: [{report.min_chi}, {report.max_chi}]; "
        f"rows with poles: {report.rows_pole}, with zeros: {report.rows_zero}",
    ]
    return ("scheme", "matched", "mismatched", "ok"), rows, payload, footer, report.ok


# -- argument parsing ------------------------------------------------------------


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
        "--order", type=int, default=DEFAULT_ORDER,
        help=f"series truncation order (default {DEFAULT_ORDER})",
    )
    common.add_argument(
        "--prime-bound", type=int, default=DEFAULT_PRIME_BOUND,
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
        "--eval-at", type=float, default=None, metavar="S",
        help="also evaluate the partial Euler product at real S",
    )
    add("zeta", _cmd_zeta, "zeta series and rational form over a finite field")
    p_special = add("special", _cmd_special, "exact special value at an integer")
    p_special.add_argument(
        "--at", type=int, required=True, metavar="M",
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
    p_sweep.add_argument("--max-n", type=int, default=4, help="flag rank bound")
    p_sweep.add_argument(
        "--max-d", type=int, default=4, help="dimension bound for proj/affine"
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
    except (UnsupportedFieldError, NotImplementedError) as exc:
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
