"""Parser and printer tests."""

from __future__ import annotations

import inspect
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

from alcsat.syntax import (
    And,
    Bottom,
    Concept,
    Exists,
    Forall,
    Name,
    Not,
    Or,
    ParseError,
    Top,
    parse_concept,
    render_concept,
)
from conftest import concepts


def test_parse_conjunction_with_existential():
    assert parse_concept("Animal & exists hasPart.Leg") == And(
        Name("Animal"), Exists("hasPart", Name("Leg"))
    )


def test_parse_top_keyword():
    assert parse_concept("top") == Top()


def test_parse_negated_conjunction_of_existentials():
    assert parse_concept("!(exists R.A & exists R.B)") == Not(
        And(Exists("R", Name("A")), Exists("R", Name("B")))
    )


def test_parse_is_whitespace_insensitive():
    dense = parse_concept("A&exists R.B|!C")
    spaced = parse_concept("  A &  exists R . B   |  ! C ")
    assert dense == spaced == Or(And(Name("A"), Exists("R", Name("B"))), Not(Name("C")))


def test_precedence_unary_binds_tightest():
    assert parse_concept("!A & B") == And(Not(Name("A")), Name("B"))
    assert parse_concept("forall R.A & B") == And(Forall("R", Name("A")), Name("B"))


def test_precedence_and_over_or_left_assoc():
    assert parse_concept("A | B & C | D") == Or(
        Or(Name("A"), And(Name("B"), Name("C"))), Name("D")
    )
    assert parse_concept("A & B & C") == And(And(Name("A"), Name("B")), Name("C"))


def test_quantifier_scopes_over_one_unary_concept():
    assert parse_concept("exists R.!A") == Exists("R", Not(Name("A")))
    assert parse_concept("exists R.(A & B)") == Exists("R", And(Name("A"), Name("B")))


@pytest.mark.parametrize(
    "text,offset",
    [
        ("A &", 4),
        ("(A | B", 7),
        ("A @ B", 3),
        ("forall R A", 10),
        ("", 1),
    ],
)
def test_parse_errors_carry_offset_and_expectations(text, offset):
    with pytest.raises(ParseError) as err:
        parse_concept(text)
    assert err.value.offset == offset
    assert err.value.expected


def test_parse_error_on_trailing_input():
    with pytest.raises(ParseError):
        parse_concept("A B")


_PRIMARY = ("'!'", "'forall'", "'exists'", "'top'", "'bot'", "name", "'('")
_TOO_DEEP = "quantifiers and parentheses nested deeper than 100"


@pytest.mark.parametrize(
    "text,message,offset,expected",
    [
        # A bad character is reported before an earlier syntax error.
        ("A ) #", "unexpected character '#'", 5, ("concept",)),
        ("1A", "unexpected character '1'", 1, ("concept",)),
        ("_A", "unexpected character '_'", 1, ("concept",)),
        ("A\u00e9", "unexpected character '\u00e9'", 2, ("concept",)),
        ("exists . A", "unexpected '.'", 8, ("role name",)),
        ("exists top.A", "unexpected 'top'", 8, ("role name",)),
        ("exists", "unexpected 'end of input'", 7, ("role name",)),
        ("forall R A", "unexpected 'A'", 10, ("'.'",)),
        ("exists R", "unexpected 'end of input'", 9, ("'.'",)),
        ("(" * 101, _TOO_DEEP, 101, ("at most 100 levels of nesting",)),
        ("exists R." * 101, _TOO_DEEP, 901, ("at most 100 levels of nesting",)),
        ("forall R." * 100 + "(A)", _TOO_DEEP, 901, ("at most 100 levels of nesting",)),
        ("A B", "trailing input 'B'", 3, ("end of input",)),
        ("(A))", "trailing input ')'", 4, ("end of input",)),
        ("!", "unexpected 'end of input'", 2, _PRIMARY),
        ("", "unexpected 'end of input'", 1, _PRIMARY),
        ("A | & B", "unexpected '&'", 5, _PRIMARY),
        ("A | (B", "unexpected 'end of input'", 7, ("')'",)),
    ],
)
def test_every_parse_error_path(text, message, offset, expected):
    with pytest.raises(ParseError) as err:
        parse_concept(text)
    assert (str(err.value), err.value.offset, err.value.expected) == (
        f"{message} at offset {offset} (expected {', '.join(expected)})",
        offset,
        expected,
    )


def test_render_atomic():
    assert render_concept(Name("A")) == "A"


def test_render_forces_parens_only_where_needed():
    assert render_concept(And(Name("A"), Or(Name("B"), Name("C")))) == "A & (B | C)"
    assert render_concept(Or(Name("A"), And(Name("B"), Name("C")))) == "A | B & C"
    assert render_concept(And(And(Name("A"), Name("B")), Name("C"))) == "A & B & C"
    assert render_concept(And(Name("A"), And(Name("B"), Name("C")))) == "A & (B & C)"


def test_render_quantifier_and_negation():
    assert render_concept(Forall("R", Not(Name("L")))) == "forall R.!L"
    assert render_concept(Not(And(Name("A"), Name("B")))) == "!(A & B)"
    assert render_concept(Exists("R", And(Name("A"), Name("B")))) == "exists R.(A & B)"


def test_identifier_validation():
    with pytest.raises(ValueError):
        Name("")
    with pytest.raises(ValueError):
        Name("9lives")
    with pytest.raises(ValueError):
        Name("top")
    with pytest.raises(ValueError):
        Forall("forall", Name("A"))


@given(concepts)
def test_round_trip(c: Concept):
    assert parse_concept(render_concept(c)) == c


@pytest.mark.parametrize("op", ["&", "|"])
def test_round_trip_of_a_long_chain(op):
    # Rendering walks the chain in a loop, and so does ``==``.
    text = f" {op} ".join(f"A{i}" for i in range(3000))
    c = parse_concept(text)
    assert render_concept(c) == text
    assert parse_concept(render_concept(c)) == c


@pytest.mark.parametrize(
    "text",
    [
        " & ".join(f"A{i}" for i in range(3000)),
        " | ".join(f"A{i}" for i in range(3000)),
        "!" * 5000 + "A",
        "exists R." * 100 + "A",
    ],
    ids=["conjunction", "disjunction", "negations", "quantifiers"],
)
def test_equality_and_hash_of_deep_concepts_need_no_call_stack(text):
    a, b = parse_concept(text), parse_concept(text)
    other = parse_concept(text[:-1] + "B")
    # Fifty frames more than the test runs in: too few for one per level.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        assert a == b and hash(a) == hash(b)
        assert a != other
    finally:
        sys.setrecursionlimit(limit)


def test_equality_is_structural():
    assert Exists("R", Name("A")) == parse_concept("exists R.A")
    assert Exists("R", Name("A")) != Forall("R", Name("A"))
    assert Exists("R", Name("A")) != Exists("S", Name("A"))
    assert And(Name("A"), Name("B")) != Or(Name("A"), Name("B"))
    assert And(Name("A"), Name("B")) != And(Name("B"), Name("A"))
    assert Top() != Bottom()
    assert len({parse_concept("A & !B"), And(Name("A"), Not(Name("B")))}) == 1
    assert Name("A") != "A" and Name("A").__eq__("A") is NotImplemented


@given(st.text(max_size=30))
def test_parser_totality(text: str):
    # Every input either parses or raises ParseError; nothing else.
    try:
        result = parse_concept(text)
    except ParseError:
        return
    assert isinstance(result, Concept)
