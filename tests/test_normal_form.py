"""Clause-set conversion, complements, and canonical form."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from alcsat.normal_form import (
    EMPTY_CLAUSE_SET,
    FALSE_CLAUSE_SET,
    MAX_CLAUSES,
    ClauseBudgetError,
    ExistsLit,
    ForallLit,
    Neg,
    Pos,
    ValueTable,
    clause_set_to_concept,
    clause_set_to_json,
    complement,
    is_canonical_clause_set,
    literal_to_concept,
    to_cnf,
    to_nnf,
    values_from_json,
)
from alcsat.oracle import oracle_equiv, oracle_sat
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
from conftest import ANIMAL_CNF, ANIMAL_TEXT, cl, cs, small_concepts


def test_nnf_pushes_negation_through_existential():
    assert to_nnf(Not(Exists("R", Name("A")))) == Forall("R", Not(Name("A")))


def test_nnf_double_negation():
    assert to_nnf(Not(Not(Name("A")))) == Name("A")


def test_nnf_and_cnf_of_deep_inputs_need_no_call_stack():
    a = Name("A")
    deep = a
    for _ in range(5001):
        deep = Not(deep)
    assert to_nnf(deep) == Not(a)
    assert to_cnf(deep) == to_cnf(Not(a))
    chain = Name("B0")
    for i in range(1, 3000):
        chain = And(chain, Name(f"B{i}"))
    assert to_nnf(chain) is chain
    assert len(to_cnf(chain)) == 3000
    negated = to_nnf(Not(chain))
    assert isinstance(negated, Or) and negated.right == Not(Name("B2999"))
    assert to_cnf(Not(chain)) == to_cnf(Not(Not(Not(chain))))
    assert len(to_cnf(Not(chain)).clauses[0]) == 3000


def test_nnf_de_morgan_conjunction():
    assert to_nnf(Not(And(Name("A"), Name("B")))) == Or(Not(Name("A")), Not(Name("B")))


def test_nnf_simplifies_constants():
    assert to_nnf(And(Name("A"), Top())) == Name("A")
    assert to_nnf(Or(Name("A"), Bottom())) == Name("A")
    assert to_nnf(And(Name("A"), Bottom())) == Bottom()
    assert to_nnf(Or(Name("A"), Top())) == Top()
    assert to_nnf(Not(Top())) == Bottom()
    assert to_nnf(Exists("R", Bottom())) == Bottom()
    assert to_nnf(Forall("R", Top())) == Top()


def test_cnf_of_animal_concept_is_the_four_clauses():
    assert to_cnf(parse_concept(ANIMAL_TEXT)) == ANIMAL_CNF


def test_cnf_of_name_is_single_unit():
    assert to_cnf(Name("A")) == cs(cl(Pos("A")))


def test_cnf_distributes_or_over_and():
    c = Or(And(Name("A"), Name("B")), Name("C"))
    assert to_cnf(c) == cs(cl(Pos("A"), Pos("C")), cl(Pos("B"), Pos("C")))


def test_cnf_constants_and_residuals():
    assert to_cnf(Top()) == EMPTY_CLAUSE_SET
    assert to_cnf(Bottom()) == FALSE_CLAUSE_SET
    assert to_cnf(Exists("R", Top())) == cs(cl(ExistsLit("R", EMPTY_CLAUSE_SET)))
    assert to_cnf(Forall("R", Bottom())) == cs(cl(ForallLit("R", FALSE_CLAUSE_SET)))


def _pairs(k: int) -> str:
    """``(A0 & B0) | ... | (Ak-1 & Bk-1)``: 2^k clauses in clause-set form."""
    return " | ".join(f"(A{i} & B{i})" for i in range(k))


def test_cnf_clause_budget():
    # Above the largest normal form of the tests and the benchmark, the
    # 3,001 clauses of a 3,000-term & chain.
    assert 3_001 < MAX_CLAUSES < 2**22
    assert len(to_cnf(parse_concept(_pairs(10)))) == 2**10
    # Raised before the distribution is built: 2^22 clauses would take
    # minutes.
    with pytest.raises(ClauseBudgetError) as err:
        to_cnf(parse_concept(_pairs(22)))
    assert err.value.clauses == 2**22
    # A disjunct equivalent to top absorbs the rest: nothing to build.
    assert to_cnf(parse_concept(_pairs(22) + " | top")) == EMPTY_CLAUSE_SET
    # Complementing exists R.((A0 | B0) & ...) distributes its negation.
    body = " & ".join(f"(A{i} | B{i})" for i in range(14))
    with pytest.raises(ClauseBudgetError):
        complement(to_cnf(parse_concept(f"exists R.({body})")).clauses[0].literals[0])


def test_complement_of_names():
    assert complement(Pos("A")) == Neg("A")
    assert complement(Neg("A")) == Pos("A")


def test_complement_of_existential():
    assert complement(ExistsLit("R", cs(cl(Pos("A"))))) == ForallLit(
        "R", cs(cl(Neg("A")))
    )


def test_complement_of_universal_with_two_unit_clauses():
    # De Morgan over !(A & B) after re-expansion, confirmed unsatisfiable
    # in both directions by the reference oracle.
    lit = ForallLit("R", cs(cl(Pos("A")), cl(Pos("B"))))
    comp = complement(lit)
    assert comp == ExistsLit("R", cs(cl(Neg("A"), Neg("B"))))
    conj = And(literal_to_concept(lit), literal_to_concept(comp))
    assert not oracle_sat(conj)


def test_canonicalize_collapses_duplicates_and_orders():
    raw = cs(cl(Pos("A"), Pos("A")), cl(Pos("A")))
    assert raw == cs(cl(Pos("A")))
    assert cs(cl(Pos("B"), Pos("A"))).clauses[0].literals == (Pos("A"), Pos("B"))
    assert cs(cl(Pos("A")), cl(Pos("B")), cl(Pos("A"))) == cs(cl(Pos("A")), cl(Pos("B")))


def test_literal_ordering_pos_neg_exists_forall():
    body = cs(cl(Pos("A")))
    ordered = cl(ForallLit("R", body), ExistsLit("R", body), Neg("A"), Pos("B"))
    assert [type(l).__name__ for l in ordered] == ["Pos", "Neg", "ExistsLit", "ForallLit"]


@given(small_concepts)
def test_cnf_shape_is_canonical(c):
    assert is_canonical_clause_set(to_cnf(c))


@settings(max_examples=60, deadline=None)
@given(small_concepts)
def test_cnf_semantically_equivalent(c):
    assert oracle_equiv(c, clause_set_to_concept(to_cnf(c)))


@settings(max_examples=60, deadline=None)
@given(small_concepts)
def test_nnf_semantically_equivalent(c):
    assert oracle_equiv(c, to_nnf(c))


@settings(max_examples=40, deadline=None)
@given(small_concepts)
def test_complement_involution(c):
    f = to_cnf(c)
    for clause in f:
        for lit in clause:
            twice = complement(complement(lit))
            if isinstance(lit, (Pos, Neg)):
                assert twice == lit
            else:
                assert oracle_equiv(
                    literal_to_concept(lit), literal_to_concept(twice)
                )


@given(small_concepts)
def test_json_round_trip(c):
    f = to_cnf(c)
    table = ValueTable()
    i = table.index(f)
    assert values_from_json(json.loads(json.dumps(table.entries)))[i] is f


def test_json_shapes():
    f = cs(cl(Pos("A"), Neg("B")), cl(ExistsLit("R", cs(cl(Pos("C"))))))
    assert clause_set_to_json(f) == [
        [{"pos": "A"}, {"neg": "B"}],
        [{"exists": {"role": "R", "body": [[{"pos": "C"}]]}}],
    ]


def test_value_table_shapes():
    # Each value once, after the values it refers to.
    body = cs(cl(Pos("C")))
    f = cs(cl(Pos("A"), Neg("B")), cl(ExistsLit("R", body), Pos("A")))
    table = ValueTable()
    assert table.index(f) == 8
    assert table.entries == [
        ["pos", "A"],
        ["neg", "B"],
        ["clause", [0, 1]],
        ["pos", "C"],
        ["clause", [3]],
        ["clause_set", [4]],
        ["exists", "R", 5],
        ["clause", [0, 6]],
        ["clause_set", [2, 7]],
    ]
    assert table.index(body) == 5 and table.index(Pos("A")) == 0
    assert table.index(ForallLit("R", body)) == 9
    assert table.entries[9] == ["forall", "R", 5]
    assert values_from_json(table.entries)[8] is f
    # Entries out of the canonical order, or repeated, decode to the set.
    entries = [["pos", "B"], ["pos", "A"], ["clause", [0, 1, 0]], ["clause_set", [2, 2]]]
    assert values_from_json(entries)[3] is cs(cl(Pos("A"), Pos("B")))
