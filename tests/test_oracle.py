"""Reference tableau oracle tests."""

from __future__ import annotations

import time

from hypothesis import given, settings

from alcsat.oracle import oracle_model, oracle_sat
from alcsat.syntax import (
    And,
    Bottom,
    Exists,
    Forall,
    Name,
    Not,
    Or,
    Top,
    parse_concept,
)
from alcsat.tableau import eval_concept
from conftest import ANIMAL_TEXT, oracle_equiv, small_concepts, to_nnf


def test_propositional_clash():
    assert not oracle_sat(And(Name("A"), Not(Name("A"))))


def test_universal_propagation_clash():
    assert not oracle_sat(And(Exists("R", Name("A")), Forall("R", Not(Name("A")))))


def test_animal_concept_is_satisfiable():
    assert oracle_sat(parse_concept(ANIMAL_TEXT))


def test_constants():
    assert oracle_sat(Top())
    assert not oracle_sat(Bottom())
    assert oracle_sat(Exists("R", Top()))
    assert oracle_sat(Forall("R", Bottom()))
    assert not oracle_sat(And(Exists("R", Top()), Forall("R", Bottom())))


def test_equiv_distributive_law():
    lhs = Or(And(Name("C"), Name("D")), Name("E"))
    rhs = And(Or(Name("C"), Name("E")), Or(Name("D"), Name("E")))
    assert oracle_equiv(lhs, rhs)


def test_equiv_rejects_negation():
    assert not oracle_equiv(Name("A"), Not(Name("A")))


@settings(max_examples=60, deadline=None)
@given(small_concepts)
def test_oracle_agrees_with_itself_on_nnf(c):
    assert oracle_sat(c) == oracle_sat(to_nnf(c))


@settings(max_examples=60, deadline=None)
@given(small_concepts)
def test_open_branch_induces_a_model(c):
    model = oracle_model(c)
    assert (model is not None) == oracle_sat(c)
    if model is not None:
        assert eval_concept(c, model, 0)


def test_a_long_conjunction_takes_time_linear_in_its_length():
    # A branch grows its atom set and quantifier lists in place: copying
    # them for every term would make this chain take seconds.
    terms = [Forall("R", Name(f"B{i}")) if i % 8 == 0 else Name(f"A{i}") for i in range(20_000)]
    chain = terms[0]
    for term in terms[1:]:
        chain = And(chain, term)
    start = time.perf_counter()
    assert oracle_sat(chain)
    assert time.perf_counter() - start < 1.0
