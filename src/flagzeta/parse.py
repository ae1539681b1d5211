"""Text grammar for scheme expressions, and the field-catalogue loader.

Grammar (whitespace-insensitive):

    expr  := base | ctor
    ctor  := 'affine' '(' expr ',' INT ')'
           | 'proj'   '(' expr ',' INT ')'
           | 'grass'  '(' expr ',' INT ',' INT ')'
           | 'flag'   '(' expr ',' INT ('+' INT)* ')'
           | 'union'  '(' expr (',' expr)* ')'
    base  := 'Q' | 'Q' '(' 'sqrt' INT ')' | 'F' '(' INT ')' | LABEL

INT is an optional '-' followed by ASCII digits; other Unicode digits
are refused.  LABEL refers to a field catalogue entry supplied
separately (a JSON file of number-field records).  ``str`` of any scheme
expression re-emits this grammar, so parse and pretty-print are mutually
inverse.

Outside this docstring the constructors are not spelled here.  Each is
one class in ``cells``, whose ``syntax`` row gives its keyword and
argument kinds; ``_CTORS``, the table that the parser and the field
catalogue's reserved words both read, is built from those rows, so a new
constructor needs no edit here.

Syntax errors carry the 1-based column at which parsing failed;
anything structurally valid but mathematically wrong (a non-squarefree
radicand, a flag block of size zero, a union of one component) surfaces
as the underlying ``ValueError`` instead.  So does an expression whose
parentheses nest deeper than ``MAX_DEPTH``, or with an integer of more than
``MAX_INT_DIGITS`` digits: it is refused after a bad character anywhere,
but before the recursive descent (or any recursion over the tree) starts.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Mapping, Optional, Union

from .cells import _CONSTRUCTORS, BasePoint, SchemeExpr
from .fields import (
    BaseField,
    NumberField,
    _digits_refusal,
    _read_int,
    finite_field,
    make_number_field,
    quadratic_field,
    rationals,
)

__all__ = ["SchemeSyntaxError", "parse_scheme", "load_field_registry"]

# Parentheses nested deeper than this are refused before parsing, so the
# parser, str() and cells_of, which recurse once per level, stay far from
# Python's recursion limit: at depth 100 every command runs within about
# 310 frames of the default 1000.
MAX_DEPTH = 100

# keyword -> constructor class.  A class's ``syntax`` row is its keyword
# and then its argument kinds, which are separated by commas and passed
# to the class in order (``cells.SchemeExpr``).
_CTORS = {cls.syntax[0]: cls for cls in _CONSTRUCTORS}

# the grammar's INT, which the CLI's integer options read too
_INT = r"-?[0-9]+"
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>{_INT})|(?P<punct>[(),+]))"
)

# The tokens still to read, each (kind, value, 0-based column), the next
# one last; kind is "name", "int", "punct", or "end" for the bottom one.
_Stack = list[tuple[str, str, int]]


class SchemeSyntaxError(ValueError):
    """A malformed scheme expression; ``position`` is the 0-based column."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


def _scan(text: str) -> _Stack:
    """Tokenize in one pass.  A bad character anywhere beats a bound, and
    of a too-deep nesting and a too-long integer the first one wins."""
    tokens, depth, refusal, pos = [], 0, None, 0
    while m := _TOKEN_RE.match(text, pos):
        kind, pos = m.lastgroup, m.end()
        value, column = m.group(kind), m.start(kind)
        if value == "(":
            depth += 1
            if depth > MAX_DEPTH and refusal is None:
                refusal = f"parentheses nested deeper than MAX_DEPTH = {MAX_DEPTH}", column
        elif value == ")":
            depth -= 1
        elif kind == "int" and refusal is None and (why := _digits_refusal(value)):
            refusal = why, column
        tokens.append((kind, value, column))
    rest = text[pos:].lstrip()
    if rest:
        raise SchemeSyntaxError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    if refusal is not None:
        why, column = refusal
        raise ValueError(f"{why} (column {column + 1})")
    tokens.append(("end", "", len(text)))
    return tokens[::-1]


def _expect(tokens: _Stack, wanted: str, what: str = "") -> str:
    """Pop the next token, of kind ``wanted`` ("name" or "int") or else the
    punctuation mark ``wanted``, and return its text; ``what`` names it."""
    kind, value, column = tokens[-1]
    if (kind if wanted in ("name", "int") else value) != wanted:
        found = "end of input" if kind == "end" else repr(value)
        raise SchemeSyntaxError(f"expected {what or repr(wanted)}, found {found}", column)
    return tokens.pop()[1]


def _arg(tokens: _Stack, fields: Mapping[str, BaseField], kind: str):
    return _expr(tokens, fields) if kind == "expr" else int(_expect(tokens, "int"))


def _expr(tokens: _Stack, fields: Mapping[str, BaseField]) -> SchemeExpr:
    column = tokens[-1][2]
    name = _expect(tokens, "name", "a scheme expression")
    if name in _CTORS:
        cls = _CTORS[name]
        args = []
        for i, arg in enumerate(cls.syntax[1:]):
            _expect(tokens, "," if i else "(")
            kind = arg.rstrip("+,")
            sep = arg[len(kind):]
            items = [_arg(tokens, fields, kind)]
            while sep and tokens[-1][1] == sep:
                tokens.pop()
                items.append(_arg(tokens, fields, kind))
            args.append(tuple(items) if sep else items[0])
        _expect(tokens, ")")
        return cls(*args)
    if name == "Q" and tokens[-1][1] == "(" and tokens[-2][1] == "sqrt":
        del tokens[-2:]
        d = int(_expect(tokens, "int"))
        _expect(tokens, ")")
        return BasePoint(quadratic_field(d))
    if name == "Q":
        return BasePoint(rationals())
    if name == "F" and tokens[-1][1] == "(":
        tokens.pop()
        q = int(_expect(tokens, "int"))
        _expect(tokens, ")")
        return BasePoint(finite_field(q))
    if name in fields:
        return BasePoint(fields[name])
    raise SchemeSyntaxError(f"unknown field label {name!r}", column)


def parse_scheme(
    text: str, fields: Optional[Mapping[str, BaseField]] = None
) -> SchemeExpr:
    """Parse the grammar above into a scheme expression.

    ``fields`` maps extra base labels (from a field catalogue) to their
    fields; the built-in forms Q, Q(sqrt d) and F(q) always work.
    Parentheses nested deeper than MAX_DEPTH raise ``ValueError``.
    """
    tokens = _scan(text)
    expr = _expr(tokens, fields or {})
    kind, value, column = tokens[-1]
    if kind != "end":
        raise SchemeSyntaxError(f"unexpected trailing input {value!r}", column)
    return expr


def load_field_registry(path: Union[str, Path]) -> dict[str, NumberField]:
    """Read a JSON field catalogue: {"fields": [record, ...]}.

    Each record needs label/degree/r1/r2, disc for quadratic fields, and
    above degree 2 may carry a splitting table {prime: [residue degrees]},
    each prime once, and no integer of more than ``MAX_INT_DIGITS`` digits.
    Labels must be plain identifiers, unique, and must not shadow the grammar.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle, parse_int=_read_int)
        except ValueError as exc:  # not JSON or not UTF-8, or an integer _read_int refused
            raise ValueError(f"field catalogue {path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"field catalogue {path}: JSON nested too deeply") from None
    records = raw.get("fields") if isinstance(raw, dict) else None
    if not isinstance(records, list):
        raise ValueError(f'field catalogue {path}: expected {{"fields": [...]}}')
    registry: dict[str, NumberField] = {}
    for record in records:
        fld = make_number_field(record)
        label = fld.label
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", label):
            raise ValueError(f"field label {label!r} is not a plain identifier")
        if label in _CTORS or label in {"Q", "F", "sqrt"}:
            raise ValueError(f"field label {label!r} shadows the grammar")
        if label in registry:
            raise ValueError(f"duplicate field label {label!r}")
        registry[label] = fld
    return registry
