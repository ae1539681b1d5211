"""Text grammar for scheme expressions, and the field-catalogue loader.

Grammar (whitespace-insensitive):

    expr  := base | ctor
    ctor  := 'affine' '(' expr ',' INT ')'
           | 'proj'   '(' expr ',' INT ')'
           | 'grass'  '(' expr ',' INT ',' INT ')'
           | 'flag'   '(' expr ',' INT ('+' INT)* ')'
           | 'union'  '(' expr (',' expr)+ ')'
    base  := 'Q' | 'Q' '(' 'sqrt' INT ')' | 'F' '(' INT ')' | LABEL

LABEL refers to a field catalogue entry supplied separately (a JSON file
of number-field records).  ``str`` of any scheme expression re-emits this
grammar, so parse and pretty-print are mutually inverse.

Syntax errors carry the 1-based column at which parsing failed;
anything structurally valid but mathematically wrong (a non-squarefree
radicand, a flag block of size zero) surfaces as the underlying
``ValueError`` instead.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Union

from .cells import (
    Affine,
    BasePoint,
    DisjointUnion,
    FlagBundle,
    Grassmannian,
    ProjBundle,
    SchemeExpr,
)
from .fields import (
    BaseField,
    NumberField,
    finite_field,
    make_number_field,
    quadratic_field,
    rationals,
)

__all__ = ["SchemeSyntaxError", "parse_scheme", "load_field_registry"]

_KEYWORDS = frozenset({"affine", "proj", "grass", "flag", "union"})

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>-?\d+)|(?P<punct>[(),+]))"
)


class SchemeSyntaxError(ValueError):
    """A malformed scheme expression; ``position`` is the 0-based column."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "int" | "punct" | "end"
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise SchemeSyntaxError(f"unexpected character {text[bad_at]!r}", bad_at)
        for kind in ("name", "int", "punct"):
            value = m.group(kind)
            if value is not None:
                out.append(_Token(kind, value, m.start(kind)))
                break
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token], fields: Mapping[str, BaseField]) -> None:
        self._tokens = tokens
        self._i = 0
        self._fields = fields

    def _peek(self, ahead: int = 0) -> _Token:
        return self._tokens[min(self._i + ahead, len(self._tokens) - 1)]

    def _next(self) -> _Token:
        tok = self._tokens[self._i]
        if tok.kind != "end":
            self._i += 1
        return tok

    def _expect(self, kind: str, value: Optional[str] = None) -> _Token:
        tok = self._next()
        want = value if value is not None else kind
        if tok.kind != kind or (value is not None and tok.value != value):
            got = repr(tok.value) if tok.kind != "end" else "end of input"
            raise SchemeSyntaxError(f"expected {want!r}, found {got}", tok.pos)
        return tok

    def _int(self) -> int:
        return int(self._expect("int").value)

    def parse(self) -> SchemeExpr:
        expr = self._expr()
        trailing = self._peek()
        if trailing.kind != "end":
            raise SchemeSyntaxError(
                f"unexpected trailing input {trailing.value!r}", trailing.pos
            )
        return expr

    def _expr(self) -> SchemeExpr:
        tok = self._peek()
        if tok.kind != "name":
            got = repr(tok.value) if tok.kind != "end" else "end of input"
            raise SchemeSyntaxError(f"expected a scheme expression, found {got}", tok.pos)
        if tok.value in _KEYWORDS:
            return self._ctor()
        return self._base()

    def _ctor(self) -> SchemeExpr:
        name = self._next().value
        self._expect("punct", "(")
        child = self._expr()
        if name == "union":
            children = [child]
            while self._peek().kind == "punct" and self._peek().value == ",":
                self._next()
                children.append(self._expr())
            self._expect("punct", ")")
            return DisjointUnion(tuple(children))
        self._expect("punct", ",")
        if name != "flag":
            ints = [self._int()]
            if name == "grass":
                self._expect("punct", ",")
                ints.append(self._int())
            self._expect("punct", ")")
            return {"affine": Affine, "proj": ProjBundle, "grass": Grassmannian}[name](
                child, *ints
            )
        parts = [self._int()]
        while self._peek().value == "+" and self._peek().kind == "punct":
            self._next()
            parts.append(self._int())
        self._expect("punct", ")")
        return FlagBundle(child, tuple(parts))

    def _base(self) -> SchemeExpr:
        tok = self._next()
        name = tok.value
        if name == "Q":
            if self._peek().value == "(" and self._peek(1).value == "sqrt":
                self._next()
                self._next()
                d = self._int()
                self._expect("punct", ")")
                return BasePoint(quadratic_field(d))
            return BasePoint(rationals())
        if name == "F" and self._peek().value == "(":
            self._next()
            q = self._int()
            self._expect("punct", ")")
            return BasePoint(finite_field(q))
        if name in self._fields:
            return BasePoint(self._fields[name])
        raise SchemeSyntaxError(f"unknown field label {name!r}", tok.pos)


def parse_scheme(
    text: str, fields: Optional[Mapping[str, BaseField]] = None
) -> SchemeExpr:
    """Parse the grammar above into a scheme expression.

    ``fields`` maps extra base labels (from a field catalogue) to their
    fields; the built-in forms Q, Q(sqrt d) and F(q) always work.
    """
    return _Parser(_tokenize(text), fields or {}).parse()


def load_field_registry(path: Union[str, Path]) -> dict[str, NumberField]:
    """Read a JSON field catalogue: {"fields": [record, ...]}.

    Each record needs label/degree/r1/r2, disc for quadratic fields, and
    may carry a splitting table {prime: [residue degrees]}.  Labels must
    be plain identifiers, unique, and must not shadow the grammar.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"field catalogue {path}: {exc}") from None
    records = raw.get("fields") if isinstance(raw, dict) else None
    if not isinstance(records, list):
        raise ValueError(f'field catalogue {path}: expected {{"fields": [...]}}')
    registry: dict[str, NumberField] = {}
    for record in records:
        fld = make_number_field(record)
        label = fld.label
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", label):
            raise ValueError(f"field label {label!r} is not a plain identifier")
        if label in _KEYWORDS or label in {"Q", "F", "sqrt"}:
            raise ValueError(f"field label {label!r} shadows the grammar")
        if label in registry:
            raise ValueError(f"duplicate field label {label!r}")
        registry[label] = fld
    return registry
