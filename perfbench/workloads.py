"""The four benchmark workloads: seeded input generators and checked ops.

Each workload provides

* ``generate(seed, smoke)``: the op pool for one run, a pure function of
  the seed (``random.Random`` seeded with a string is reproducible across
  processes and platforms);
* ``run(op, answer)``: perform one op through the package's public API,
  check the result independently, and return ``(ok, answer)``.  The answer
  holds the exact mathematical results (never presentation fields) and is
  only built when asked for, outside the timed phase;
* ``check_set(smoke)``: the ops whose answers are hashed and compared with
  the digest stored in ``digests.json``.

Op mixes are drawn in shuffled blocks, each block holding every op class
in fixed proportion, so the mix seen by a run does not depend on the seed;
the seed chooses the concrete inputs inside each class.  Every generated
scheme expression is checked to round-trip through ``parse_scheme`` and
``str`` when the pool is built.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random

import flagzeta as fz
import flagzeta.cli

DEFAULT_SEED = 1

NUMBER_BASES = (
    "Q", "Q(sqrt -1)", "Q(sqrt -2)", "Q(sqrt -3)", "Q(sqrt -5)", "Q(sqrt -7)",
    "Q(sqrt 2)", "Q(sqrt 3)", "Q(sqrt 5)", "Q(sqrt 6)", "Q(sqrt 7)",
    "Q(sqrt 10)", "Q(sqrt 13)",
)
FINITE_QS = (2, 3, 4, 5, 7, 8, 9)


def _rng(workload: str, seed: int, *salt: object) -> random.Random:
    return random.Random(":".join(str(s) for s in (workload, seed, *salt)))


def _round_trip(text: str) -> str:
    back = str(fz.parse_scheme(text))
    if back != text:
        raise AssertionError(f"generated {text!r} re-prints as {back!r}")
    return text


def _blocks(rng: random.Random, template: list, count: int) -> list:
    """``count`` copies of ``template``, each shuffled on its own."""
    out = []
    for _ in range(count):
        block = list(template)
        rng.shuffle(block)
        out.extend(block)
    return out


def _parts(rng: random.Random, blocks: tuple[int, int], size: tuple[int, int]) -> list[int]:
    return [rng.randint(*size) for _ in range(rng.randint(*blocks))]


def _flag(child: str, parts: list[int]) -> str:
    return f"flag({child}, {'+'.join(map(str, parts))})"


def _small_tree(rng: random.Random, bases: list[str], depth: int) -> str:
    """A small or medium grammar tree: at most ``depth`` constructors deep,
    every Grassmannian or flag of rank at most 6."""
    if depth == 0:
        return rng.choice(bases)
    child = _small_tree(rng, bases, depth - 1)
    kind = rng.choice(("affine", "proj", "grass", "flag", "union"))
    if kind == "affine":
        return f"affine({child}, {rng.randint(0, 3)})"
    if kind == "proj":
        return f"proj({child}, {rng.randint(1, 5)})"
    if kind == "grass":
        n = rng.randint(2, 6)
        return f"grass({child}, {rng.randint(1, n - 1)}, {n})"
    if kind == "flag":
        return _flag(child, _parts(rng, (2, 3), (1, 2)))
    return f"union({child}, {_small_tree(rng, bases, rng.randint(0, depth - 1))})"


def _k_range(rng: random.Random) -> tuple[int, int]:
    return rng.randint(-14, -4), rng.randint(0, 4)


# -- cli_mix ----------------------------------------------------------------

# One block of 40 ops: 60 % verify, Euler products (lfun --eval-at) as the
# 15 % latency tail so that p90 lands inside one op class, and 5 % invalid
# inputs with a documented exit code.
CLI_TEMPLATE = (
    ["verify1", "verify2", "verify3"] * 8 + ["lfun"] * 6 + ["special"] * 2 + ["invalid"] * 2
    + ["ranks", "cells", "chi", "ord", "zeta", "sweep"]
)
CLI_BLOCKS = 50
LFUN_PER_BLOCK = CLI_TEMPLATE.count("lfun")

# (scheme template, expected exit code); {x} is a valid tree.
INVALID_FORMS = (
    ("proj({x}, 2", 2),                    # unclosed parenthesis
    ("proj({x}, 2))", 2),                  # trailing input
    ("flag({x}, 2+)", 2),                  # dangling '+'
    ("grass({x}, 1 2)", 2),                # missing comma
    ("Q(sqrt {nonsquarefree})", 3),        # radicand not squarefree
    ("proj(F({composite}), 1)", 3),        # q not a prime power
    ("grass({x}, 4, 3)", 3),               # k > n
    ("union({x})", 3),                     # union of one component
)


def _cli_op(rng: random.Random, kind: str, stratum: int) -> tuple[list[str], int]:
    fmt = ["--format", rng.choice(("plain", "json", "csv"))]
    anyb = list(NUMBER_BASES[:5]) + [f"F({q})" for q in FINITE_QS[:3]]
    if kind.startswith("verify"):
        x = _round_trip(_small_tree(rng, rng.sample(anyb, 2), int(kind[-1])))
        lo, hi = _k_range(rng)
        return ["verify", x, f"--k={lo}..{hi}", *fmt], 0
    if kind in ("ranks", "cells", "chi", "ord"):
        x = _round_trip(_small_tree(rng, rng.sample(anyb, 2), rng.randint(1, 3)))
        lo, hi = _k_range(rng)
        return [kind, x, f"--k={lo}..{hi}", *fmt], 0
    if kind == "lfun":
        # s must clear every factor's convergence region: s - shift > 1
        b = rng.choice(NUMBER_BASES)
        d = rng.randint(0, 2)
        x = rng.choice((b, f"proj({b}, {d})", f"affine({b}, {d})"))
        s = round((0 if x == b else d) + 1.5 + 3 * rng.random(), 3)
        # The prime bound sets an Euler product's cost and p90 lies among
        # these ops, so each block's lfun ops draw one bound from each equal
        # part of 1000..10000: the seed does not move how the bounds spread.
        width = 9000 // LFUN_PER_BLOCK
        low = 1000 + width * (stratum % LFUN_PER_BLOCK)
        bound = rng.randint(low, low + width)
        # CSV output leaves the value out, so these ops print plain or JSON.
        fmt = ["--format", rng.choice(("plain", "json"))]
        return ["lfun", _round_trip(x), "--eval-at", repr(s), "--prime-bound", str(bound), *fmt], 0
    if kind == "special":
        x = _round_trip(_small_tree(rng, rng.sample(NUMBER_BASES, 2), rng.randint(1, 2)))
        return ["special", x, f"--at={rng.randint(-8, 6)}", *fmt], 0
    if kind == "zeta":
        x = _round_trip(_small_tree(rng, [f"F({rng.choice(FINITE_QS)})"], rng.randint(1, 2)))
        return ["zeta", x, "--order", str(rng.randint(4, 10)), *fmt], 0
    if kind == "sweep":
        family = rng.choice(("flags", "proj", "affine"))
        fields = ",".join(rng.sample(anyb, 2))
        lo, hi = _k_range(rng)
        return ["sweep", "--family", family, "--fields", fields, "--max-n", str(rng.randint(2, 3)),
                "--max-d", str(rng.randint(2, 4)), f"--k={lo}..{hi}", *fmt], 0
    assert kind == "invalid"
    form, code = rng.choice(INVALID_FORMS)
    scheme = form.format(
        x=_small_tree(rng, rng.sample(anyb, 2), 1),
        nonsquarefree=rng.choice((-1, 2, 3, 5, 7)) * rng.choice((4, 9, 25)),
        composite=rng.choice((6, 10, 12, 15, 18)),
    )
    return [rng.choice(("verify", "chi", "cells")), scheme, *fmt], code


def cli_generate(seed: int, smoke: bool) -> list:
    rng = _rng("cli_mix", seed)
    kinds = _blocks(rng, CLI_TEMPLATE, 2 if smoke else CLI_BLOCKS)
    lfun_index = itertools.count()
    return [_cli_op(rng, kind, next(lfun_index) if kind == "lfun" else 0) for kind in kinds]


def _cli_call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = flagzeta.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _lfun_value(argv: list[str], text: str) -> float:
    """The Euler-product value an ``lfun --eval-at`` op printed: the JSON
    ``value`` field, or the last word of the plain footer."""
    if argv[-1] == "json":
        return json.loads(text)["value"]
    return float(text.split()[-1])


def cli_run(op, answer: bool):
    argv, expected = op
    code, text = _cli_call(argv)
    ok = code == expected
    value = None
    if argv[0] == "lfun":
        value = _lfun_value(argv, text)
        ok = ok and math.isfinite(value) and value > 0
    if not answer:
        return ok, None
    # Exact answers: the CSV rows of the same command, minus the float
    # column of ``special`` (a rounded rendering of an exact value), and
    # the Euler-product value of ``lfun`` to 10 significant digits.
    csv_argv = argv[:-1] + ["csv"]
    csv_code, csv_text = _cli_call(csv_argv)
    rows = list(csv.reader(io.StringIO(csv_text)))[1:]
    if argv[0] == "special":
        rows = [row[:-1] for row in rows]
    if value is not None:
        rows.append(f"{value:.10g}")
    return ok, [argv[:-2], code, csv_code, rows]


def cli_check_set(smoke: bool) -> list:
    return cli_generate(DEFAULT_SEED, smoke)[: len(CLI_TEMPLATE)]


# -- verify_deep --------------------------------------------------------------

VERIFY_TEMPLATE = ["proj", "grass", "flag", "union"]
VERIFY_BLOCKS = 100
# Work grows as strata x window, and the per-weight support scan adds a
# factor rising with the window.  Every op aims at the same estimated time
# (within a factor of 1.3 either way) so op sizes stay within one order of
# magnitude; the cost per unit of work was measured per op class with Q and
# real quadratic bases.  Imaginary quadratic bases have nonzero ranks in
# every weight instead of every other one and cost about twice as much.
VERIFY_TARGET_US = 60_000
US_PER_UNIT = {"proj": 2.4, "grass": 3.2, "flag": 3.3, "union": 2.2}
IMAGINARY_FACTOR = 1.9


def _work(strata: int, window: int) -> float:
    return strata * window * (1 + window / 300)


def _base_factor(base: str) -> float:
    return IMAGINARY_FACTOR if "sqrt -" in base else 1.0


def _deep_op(rng: random.Random, kind: str, target_us: float):
    base = rng.choice(NUMBER_BASES)
    units = target_us * rng.uniform(0.77, 1.3) / US_PER_UNIT[kind] / _base_factor(base)
    if kind == "proj":
        window = rng.randint(13, 25)
        n = max(1, round(units / _work(1, window)) - 1)
        expr, hi = f"proj({base}, {n})", rng.randint(0, 4)
    elif kind == "grass":
        window = rng.randint(50, 250)
        strata = max(8, round(units / _work(1, window)))
        n = rng.randint(6, 16)
        k = rng.randint(1, n // 2)
        while k > 1 and k * (n - k) >= strata:
            k -= 1
        d = max(0, strata - 1 - k * (n - k))
        expr, hi = f"grass(proj({base}, {d}), {k}, {n})", rng.randint(10, 60)
    elif kind == "flag":
        # Redraw the flag type until the window that meets the target,
        # the root of strata * w * (1 + w/300) = units, lies in 50..250.
        for _ in range(100):
            parts = _parts(rng, (4, 9), (1, 4))
            n = sum(parts)
            strata = (n * n - sum(p * p for p in parts)) // 2 + 1
            window = round(150 * ((1 + 4 * units / strata / 300) ** 0.5 - 1))
            if 50 <= window <= 250:
                break
        expr, hi = _flag(base, parts), rng.randint(0, 40)
    else:
        other = rng.choice([b for b in NUMBER_BASES if b != base])
        units *= _base_factor(base) * 2 / (_base_factor(base) + _base_factor(other))
        window = rng.randint(30, 100)
        strata = round(units / _work(1, window))
        n1 = max(1, strata // 2)
        k, n = 2, rng.randint(5, 9)
        d = max(0, strata - n1 - k * (n - k) - 2)
        expr = f"union(proj({base}, {n1}), grass(proj({other}, {d}), {k}, {n}))"
        hi = rng.randint(0, 20)
    return _round_trip(expr), hi - window + 1, hi


def deep_generate(seed: int, smoke: bool) -> list:
    rng = _rng("verify_deep", seed)
    target_us = VERIFY_TARGET_US / 20 if smoke else VERIFY_TARGET_US
    kinds = _blocks(rng, VERIFY_TEMPLATE, 2 if smoke else VERIFY_BLOCKS)
    return [_deep_op(rng, kind, target_us) for kind in kinds]


def deep_run(op, answer: bool):
    text, lo, hi = op
    report = fz.check_soule(fz.parse_scheme(text), (lo, hi))
    ok = report.ok and [r.k for r in report.rows] == list(range(lo, hi + 1))
    if not answer:
        return ok, None
    return ok, [text, lo, hi, [(r.k, r.chi, r.ord) for r in report.rows]]


def deep_check_set(smoke: bool) -> list:
    return deep_generate(DEFAULT_SEED, smoke)[: len(VERIFY_TEMPLATE)]


# -- zeta_series -------------------------------------------------------------

ZETA_ORDERS = (8, 12, 16, 20, 24, 28, 32)
SMOKE_ZETA_ORDERS = (2, 3, 4, 5, 6, 7, 8)
ZETA_KINDS = ("proj", "grass", "flag", "union")
ZETA_BLOCKS = 20


def _zeta_scheme(rng: random.Random, q: int, kind: str) -> str:
    base = f"F({q})"
    if kind == "proj":
        return f"affine(proj({base}, {rng.randint(3, 6)}), {rng.randint(0, 2)})"
    if kind == "grass":
        n = rng.randint(4, 6)
        return f"grass({base}, {rng.randint(2, n - 2)}, {n})"
    if kind == "flag":
        return _flag(base, _parts(rng, (3, 3), (1, 2)))
    return f"union(proj({base}, {rng.randint(1, 4)}), grass({base}, 2, {rng.randint(4, 5)}))"


def zeta_generate(seed: int, smoke: bool) -> list:
    """Blocks of 28 ops: every (order, scheme kind) pair once, each q four
    times."""
    rng = _rng("zeta_series", seed)
    orders = SMOKE_ZETA_ORDERS if smoke else ZETA_ORDERS
    out = []
    for _ in range(1 if smoke else ZETA_BLOCKS):
        cases = list(itertools.product(orders, ZETA_KINDS))
        rng.shuffle(cases)
        qs = list(FINITE_QS) * (len(cases) // len(FINITE_QS) + 1)
        rng.shuffle(qs)
        out += [(_round_trip(_zeta_scheme(rng, q, kind)), order) for (order, kind), q in zip(cases, qs)]
    return out


def zeta_run(op, answer: bool):
    text, order = op
    x = fz.parse_scheme(text)
    series = fz.weil_zeta_series(x, order)
    rational = fz.weil_zeta_rational(fz.cells_of(x))
    expansion = rational.expand(order)
    log = expansion.log()
    ok = expansion == series and all(
        log[r] * r == fz.point_count(x, r) for r in range(1, order + 1)
    )
    if not answer:
        return ok, None
    coeffs = [str(c) for c in series.coeffs]
    return ok, [text, order, coeffs, rational.q, rational.numer, rational.denom]


def zeta_check_set(smoke: bool) -> list:
    return zeta_generate(DEFAULT_SEED, smoke)[:8]


# -- flag_oracle ---------------------------------------------------------------

# The enumerator builds its own GF(q) tables for q = p^f with f <= 3.  Every
# flag type of every (q, n) with q^n <= 3000 is in the grid when F_q^n has at
# most 2^12 subspaces in all.  The grid is sized by the run: a cold pass
# takes about 7 s, so a 25 s run holds two or three passes and no single
# pass sets a run's figures.  That keeps 7^4, 2^6 and 3^5 (3.7 k, 2.8 k and 2.7 k
# subspaces, 1.5-3 s each) and leaves out 4^5 (12 k subspaces, 10-17 s
# alone), 2^7 and 3^6.  q stops at 53, the last q with a non-trivial n = 2
# cell.
ORACLE_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49, 53)
ORACLE_SUBSPACES = 2**12
SMOKE_ORACLE_SUBSPACES = 200


def _subspaces(q: int, n: int) -> int:
    """Number of subspaces of F_q^n, computed here rather than by the
    package so that building the grid leaves the package caches empty."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def oracle_cells(smoke: bool) -> list:
    """The (q, n) cells of the grid."""
    limit = SMOKE_ORACLE_SUBSPACES if smoke else ORACLE_SUBSPACES
    cells = []
    for q in ORACLE_QS:
        for n in itertools.count(1):
            if q**n > 3000 or _subspaces(q, n) > limit:
                break
            cells.append((q, n))
    return cells


def oracle_pass(seed: int, index: int, smoke: bool) -> list:
    """Pass ``index`` of a run: the whole grid, in a seeded interleaving of
    the fields.

    The enumerator caches subspaces by (q, n) and reuses those of F_q^b,
    b < n, inside the cell (q, n).  Cells of one q therefore come in
    increasing n, and inside a cell the flag types come in a fixed order:
    then every op does the same work whatever the seed, which only chooses
    how the fields interleave, so the latency percentiles do not depend on
    the seed.
    """
    by_q: dict[int, list] = {}
    for q, n in oracle_cells(smoke):
        by_q.setdefault(q, []).append(n)
    turns = [q for q, ns in by_q.items() for _ in ns]
    _rng("flag_oracle", seed, index).shuffle(turns)
    next_n = {q: iter(ns) for q, ns in by_q.items()}
    ops = []
    for q in turns:
        n = next(next_n[q])
        ops.extend((parts, q, n) for parts in fz.verify.compositions(n))
    return ops


def oracle_run(op, answer: bool):
    parts, q, n = op
    count = fz.brute_force_flag_count(parts, q, n)
    ok = count == fz.gaussian_multinomial(n, parts)(q)
    return ok, ([q, n, list(parts), count] if answer else None)


# name: (generate, run, check_set, ops per block)
WORKLOADS = {
    "cli_mix": (cli_generate, cli_run, cli_check_set, len(CLI_TEMPLATE)),
    "verify_deep": (deep_generate, deep_run, deep_check_set, len(VERIFY_TEMPLATE)),
    "zeta_series": (zeta_generate, zeta_run, zeta_check_set, len(ZETA_ORDERS) * len(ZETA_KINDS)),
}
