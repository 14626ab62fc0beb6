"""Parser and printer tests."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from alcsat.syntax import (
    And,
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
    # Rendering walks the chain in a loop.  ``==`` on a tree this deep
    # would itself recurse too far, so the round trip is read off the
    # text: render(parse(t)) == t gives parse(render(c)) == c for
    # c = parse(t).
    text = f" {op} ".join(f"A{i}" for i in range(3000))
    assert render_concept(parse_concept(text)) == text


@given(st.text(max_size=30))
def test_parser_totality(text: str):
    # Every input either parses or raises ParseError; nothing else.
    try:
        result = parse_concept(text)
    except ParseError:
        return
    assert isinstance(result, Concept)
