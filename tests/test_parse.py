"""Tests for the scheme-expression grammar and the field catalogue loader."""

import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagzeta.cells import (
    Affine,
    BasePoint,
    DisjointUnion,
    FlagBundle,
    Grassmannian,
    ProjBundle,
)
from flagzeta.fields import FiniteField, quadratic_field, rationals
from flagzeta.parse import (
    MAX_DEPTH,
    SchemeSyntaxError,
    load_field_registry,
    parse_scheme,
)

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


def test_depth_counts_every_parenthesis():
    # Q(sqrt d) nests one level of its own
    def nested(depth):
        return "affine(" * (depth - 1) + "Q(sqrt -1)" + ", 0)" * (depth - 1)

    assert str(parse_scheme(nested(MAX_DEPTH))) == nested(MAX_DEPTH)
    with pytest.raises(ValueError, match=f"MAX_DEPTH = {MAX_DEPTH}") as exc:
        parse_scheme(nested(MAX_DEPTH + 1))
    assert not isinstance(exc.value, SchemeSyntaxError)


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
    path.write_text('{"fields": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(ValueError, match="nested too deeply"):
        load_field_registry(path)


def test_scan_is_linear_in_the_input():
    # A regex search from every position would make long runs of blanks
    # quadratic: minutes here, against milliseconds for one pass.
    start = time.perf_counter()
    assert parse_scheme("Q" + " " * 200_000) == BasePoint(Q)
    with pytest.raises(SchemeSyntaxError, match="column 200001"):
        parse_scheme(" " * 200_000 + ";")
    with pytest.raises(SchemeSyntaxError, match="column 200011"):
        parse_scheme("proj(Q, 2)" + " " * 200_000 + "-")
    assert time.perf_counter() - start < 1.0


_TOO_DEEP = "affine(" * (MAX_DEPTH + 1) + "Q" + ", 0)" * (MAX_DEPTH + 1)


@pytest.mark.parametrize(
    "text, kind, message, position",
    [
        ("", SchemeSyntaxError,
         "expected a scheme expression, found end of input (column 1)", 0),
        ("   ", SchemeSyntaxError,
         "expected a scheme expression, found end of input (column 4)", 3),
        ("proj(, 2)", SchemeSyntaxError,
         "expected a scheme expression, found ',' (column 6)", 5),
        ("union(Q, )", SchemeSyntaxError,
         "expected a scheme expression, found ')' (column 10)", 9),
        ("proj(2, 1)", SchemeSyntaxError,
         "expected a scheme expression, found '2' (column 6)", 5),
        ("Q(sqrt)", SchemeSyntaxError, "expected 'int', found ')' (column 7)", 6),
        ("F", SchemeSyntaxError, "unknown field label 'F' (column 1)", 0),
        ("F(2", SchemeSyntaxError, "expected ')', found end of input (column 4)", 3),
        ("flag(Q, 1+)", SchemeSyntaxError, "expected 'int', found ')' (column 11)", 10),
        # an integer is ASCII digits only: U+0663 is not 3
        ("F(\u0663)", SchemeSyntaxError, "unexpected character '\u0663' (column 3)", 2),
        ("proj(Q, -\u0662)", SchemeSyntaxError, "unexpected character '-' (column 9)", 8),
        ("Q(", SchemeSyntaxError, "unexpected trailing input '(' (column 2)", 1),
        # well-formed but out of range: the node's own ValueError, no column
        ("proj(Q, -1)", ValueError, "projective dimension must be >= 0", None),
        ("grass(Q, -1, 2)", ValueError, "Grassmannian indices must be >= 0", None),
        ("proj(Q, 2) (", SchemeSyntaxError,
         "unexpected trailing input '(' (column 12)", 11),
        # a bad character anywhere is refused before the nesting depth,
        # and the nesting depth before any grammar error
        pytest.param(
            _TOO_DEEP + " ;", SchemeSyntaxError, "unexpected character ';' (column 1114)",
            1113, id="too-deep-and-bad-character",
        ),
        pytest.param(
            _TOO_DEEP + ")", ValueError,
            f"parentheses nested deeper than MAX_DEPTH = {MAX_DEPTH} (column 707)", None,
            id="too-deep-and-unbalanced",
        ),
    ],
)
def test_every_refusal_is_pinned(text, kind, message, position):
    with pytest.raises(ValueError) as err:
        parse_scheme(text)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position


# The grammar's tokens, spelled a few ways, and characters it refuses
# (a non-ASCII digit among them).
_PIECES = [
    "affine(", "proj(", "grass(", "flag(", "union(", "Q", "F", "sqrt", "(", ")",
    ",", "+", " ", "0", "1", "2", "3", "-1", "-5", "9", ";", "x", "\t", "\u0663",
]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
@example("union(proj(Q, 2), flag(F(\u0663), 1+2), grass(Q(sqrt -5), 1, 3))")
@example("flag(F(6), 1)")
@example("union(Q")
def test_parse_returns_a_tree_or_refuses_with_a_value_error(text):
    try:
        x = parse_scheme(text)
    except SchemeSyntaxError as err:
        assert 0 <= err.position <= len(text)
    except ValueError:
        pass
    else:
        assert parse_scheme(str(x)) == x
