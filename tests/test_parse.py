"""Tests for the scheme-expression grammar and the field catalogue loader."""

import json

import pytest

from flagzeta.cells import (
    Affine,
    BasePoint,
    DisjointUnion,
    FlagBundle,
    Grassmannian,
    ProjBundle,
)
from flagzeta.fields import FiniteField, quadratic_field, rationals
from flagzeta.parse import SchemeSyntaxError, load_field_registry, parse_scheme

Q = rationals()


def test_parse_bases():
    assert parse_scheme("Q") == BasePoint(Q)
    assert parse_scheme("Q(sqrt -1)") == BasePoint(quadratic_field(-1))
    assert parse_scheme("Q( sqrt 5 )") == BasePoint(quadratic_field(5))
    assert parse_scheme("F(9)") == BasePoint(FiniteField(3, 2))


def test_parse_constructors():
    assert parse_scheme("proj(Q, 2)") == ProjBundle(BasePoint(Q), 2)
    assert parse_scheme("affine(F(2), 3)") == Affine(BasePoint(FiniteField(2)), 3)
    assert parse_scheme("grass(Q, 2, 4)") == Grassmannian(BasePoint(Q), 2, 4)
    assert parse_scheme("flag(Q, 2+1+1)") == FlagBundle(BasePoint(Q), (2, 1, 1))
    assert parse_scheme("union(Q, F(2))") == DisjointUnion(
        (BasePoint(Q), BasePoint(FiniteField(2)))
    )


def test_parse_nested():
    text = "union(flag(Q(sqrt -5), 1+1), proj(affine(Q, 1), 2))"
    x = parse_scheme(text)
    assert isinstance(x, DisjointUnion)
    assert str(x) == text


def test_roundtrip_identity():
    for text in (
        "Q",
        "Q(sqrt -1)",
        "F(4)",
        "proj(Q, 3)",
        "grass(F(2), 2, 4)",
        "flag(Q(sqrt 2), 2+2)",
        "union(Q, Q, F(3))",
        "affine(flag(Q, 1+1+1), 2)",
    ):
        x = parse_scheme(text)
        assert parse_scheme(str(x)) == x
        assert str(parse_scheme(str(x))) == str(x)


def test_syntax_errors_carry_position():
    with pytest.raises(SchemeSyntaxError) as err:
        parse_scheme("proj(Q 2)")
    assert err.value.position == 7
    assert "column 8" in str(err.value)
    with pytest.raises(SchemeSyntaxError, match="unknown field label"):
        parse_scheme("proj(R, 2)")
    with pytest.raises(SchemeSyntaxError, match="trailing"):
        parse_scheme("Q)")
    with pytest.raises(SchemeSyntaxError, match="unexpected character"):
        parse_scheme("proj(Q; 2)")
    with pytest.raises(SchemeSyntaxError, match="end of input"):
        parse_scheme("proj(Q, 2")


def test_validation_errors_are_not_syntax_errors():
    with pytest.raises(ValueError, match="cannot take") as err:
        parse_scheme("grass(F(2), 5, 4)")
    assert not isinstance(err.value, SchemeSyntaxError)
    with pytest.raises(ValueError, match="squarefree"):
        parse_scheme("Q(sqrt 12)")
    with pytest.raises(ValueError, match="prime power"):
        parse_scheme("F(6)")


def test_field_registry(tmp_path):
    config = {
        "fields": [
            {"label": "K5", "degree": 5, "r1": 1, "r2": 2},
            {
                "label": "C23",
                "degree": 3,
                "r1": 1,
                "r2": 1,
                "disc": -23,
                "splitting": {"2": [1, 2]},
            },
        ]
    }
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(config))
    registry = load_field_registry(path)
    assert set(registry) == {"K5", "C23"}
    x = parse_scheme("proj(K5, 1)", registry)
    assert isinstance(x, ProjBundle)
    assert x.child.field.r2 == 2
    assert str(x) == "proj(K5, 1)"


def test_field_registry_rejects_bad_labels(tmp_path):
    for label in ("flag", "Q", "has space"):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"fields": [{"label": label, "degree": 1, "r1": 1, "r2": 0}]})
        )
        with pytest.raises(ValueError):
            load_field_registry(path)


def test_field_registry_rejects_duplicates_and_shapes(tmp_path):
    path = tmp_path / "dup.json"
    rec = {"label": "K", "degree": 1, "r1": 1, "r2": 0}
    path.write_text(json.dumps({"fields": [rec, rec]}))
    with pytest.raises(ValueError, match="duplicate"):
        load_field_registry(path)
    path.write_text(json.dumps({"wrong": []}))
    with pytest.raises(ValueError, match="expected"):
        load_field_registry(path)
    path.write_text("not json")
    with pytest.raises(ValueError):
        load_field_registry(path)
