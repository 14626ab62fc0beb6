"""Clause-set conversion, complements, and canonical form."""

from __future__ import annotations

import json
import random
from operator import attrgetter

import pytest
from hypothesis import given, settings

from alcsat.normal_form import (
    EMPTY_CLAUSE_SET,
    FALSE_CLAUSE_SET,
    MAX_CLAUSES,
    Clause,
    ClauseBudgetError,
    ClauseSet,
    ExistsLit,
    ForallLit,
    Neg,
    Pos,
    ValueTable,
    clause_set_to_concept,
    clause_set_to_json,
    complement,
    complement_key,
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
from conftest import (
    ANIMAL_CNF,
    ANIMAL_TEXT,
    cl,
    cnf_by_two_passes,
    complement_by_round_trip,
    concepts,
    cs,
    small_concepts,
)


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


def _same_as_two_passes(c) -> bool:
    """``to_cnf(c)`` is the two-pass clause set; or both raise
    ClauseBudgetError for the same clause count, and this is False."""
    try:
        expected = cnf_by_two_passes(c)
    except ClauseBudgetError as reference:
        with pytest.raises(ClauseBudgetError) as ours:
            to_cnf(c)
        assert ours.value.clauses == reference.clauses
        return False
    assert to_cnf(c) is expected
    return True


@settings(max_examples=300, deadline=None)
@given(concepts)
def test_cnf_matches_two_passes_on_hypothesis_concepts(c):
    assert _same_as_two_passes(c)


def _near_budget(rng: random.Random) -> str:
    """A disjunction of conjunctions of two-name clauses, whose product
    of clause counts is near :data:`MAX_CLAUSES`.  Some conjunctions are
    wrapped in ``& top``, ``| bot``, ``!`` or a disjunction inside one,
    which leave the disjunction the same chain once simplified; others
    sit next to a constant or under a quantifier or ``!``."""
    parts = []
    for _ in range(rng.randint(2, 5)):
        size = rng.randint(3, 14)
        conjuncts = [f"(A{rng.randrange(6)} | B{rng.randrange(4)})" for _ in range(size)]
        block = " & ".join(conjuncts)
        block = rng.choice(
            [
                block,
                f"({block}) & top",
                f"({block}) | bot",
                f"!!({block})",
                "!(" + " | ".join(f"!{x}" for x in conjuncts) + ")",
                f"(({block}) | ((C | D) & top)) & top",
            ]
        )
        parts.append(f"({block})")
    if rng.random() < 0.2:
        constant = rng.choice(["top", "bot", "forall T.top", "exists T.bot"])
        parts.insert(rng.randrange(len(parts) + 1), constant)
    text = " | ".join(parts)
    if rng.random() < 0.3:
        text = f"exists R.({text})"
    if rng.random() < 0.2:
        text = f"!({text})"
    return text


def test_cnf_matches_two_passes_near_the_clause_budget():
    rng = random.Random(5)
    outcomes = [_same_as_two_passes(parse_concept(_near_budget(rng))) for _ in range(150)]
    assert outcomes.count(False) > 15 and outcomes.count(True) > 60


def test_cnf_never_distributes_an_absorbed_part():
    # 2^22 clauses, next to a sibling that makes the whole top or bot.
    pairs = _pairs(22)
    for text, expected in [
        (f"(({pairs}) & C) | forall T.top", EMPTY_CLAUSE_SET),
        (f"(({pairs}) | C) & exists T.bot", FALSE_CLAUSE_SET),
        (f"!(!(({pairs}) & C) & exists T.bot)", EMPTY_CLAUSE_SET),
        (f"exists R.(({pairs}) & C) & bot", FALSE_CLAUSE_SET),
    ]:
        c = parse_concept(text)
        assert to_cnf(c) is cnf_by_two_passes(c) is expected


def test_clause_budget_error_of_a_count_too_long_to_print():
    # 2^15000 has 4,516 digits: more than Python converts to decimal by
    # default.  Complementing exists R.{(A0 | B0), ..., (A14999 | B14999)}
    # counts that many clauses.
    err = ClauseBudgetError(2**15_000)
    assert err.clauses == 2**15_000
    assert "distributes to at least 2^15000 clauses" in str(err)
    assert "distributes to 20000 clauses" in str(ClauseBudgetError(20_000))


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


def _literals(f: ClauseSet) -> list:
    """Every distinct literal of ``f``, at every nesting level, in the
    structural order."""
    found: set = set()
    todo = [f]
    while todo:
        for clause in todo.pop():
            for lit in clause:
                if lit not in found:
                    found.add(lit)
                    if isinstance(lit, (ExistsLit, ForallLit)):
                        todo.append(lit.body)
    return sorted(found, key=attrgetter("key"))


def test_complement_matches_round_trip_on_the_search_trees(search_runs):
    # Every literal of every node the benchmark's search inputs visit,
    # complemented in one pass, so nested complements come from the
    # cache as they do in a search.
    complement.cache_clear()
    members = {
        m for runs in search_runs.values() for _, v in runs for n in v.tree.nodes for m in n.members
    }
    lits = {lit for m in members for lit in _literals(m)}
    assert len(lits) > 2000
    for lit in sorted(lits, key=attrgetter("key")):
        assert complement(lit) == complement_by_round_trip(lit)


def test_complement_key_is_the_complements_kind_and_name_or_role(clash_corpus):
    members = {m for v in clash_corpus for n in v.tree.nodes for m in n.members}
    lits = {lit for m in members for lit in _literals(m)}
    assert {type(lit) for lit in lits} == {Pos, Neg, ExistsLit, ForallLit}
    for lit in lits:
        assert complement_key(lit) == complement(lit).key[:2]


@settings(max_examples=100, deadline=None)
@given(concepts)
def test_complement_matches_round_trip_on_hypothesis_concepts(c):
    for lit in _literals(to_cnf(c)):
        assert complement(lit) == complement_by_round_trip(lit)


def _random_literal(rng: random.Random, depth: int):
    """A literal whose bodies hold up to two clauses of up to two
    literals each: empty bodies and empty clauses included, which
    ``to_cnf`` never makes but merged and hand-written bodies hold."""
    kind = rng.randrange(4 if depth else 2)
    if kind < 2:
        return (Pos, Neg)[kind](rng.choice("AB"))
    body = ClauseSet(
        Clause(_random_literal(rng, depth - 1) for _ in range(rng.randrange(3)))
        for _ in range(rng.randrange(3))
    )
    return (ExistsLit, ForallLit)[kind - 2](rng.choice("RS"), body)


def test_complement_matches_round_trip_on_degenerate_bodies():
    rng = random.Random(7)
    nested: set = set()
    for _ in range(10_000):
        lit = _random_literal(rng, 3)
        complement.cache_clear()
        assert complement(lit) == complement_by_round_trip(lit)
        if isinstance(lit, (ExistsLit, ForallLit)):
            nested.update(_literals(lit.body))
    # The corpus nests each simplified case: forall S.{} (true),
    # exists S.{{}} and exists S.{{}, ...} (false), and empty bodies.
    quantified = [n for n in nested if isinstance(n, (ExistsLit, ForallLit))]
    assert any(isinstance(n, ForallLit) and n.body is EMPTY_CLAUSE_SET for n in quantified)
    assert any(isinstance(n, ExistsLit) and n.body is EMPTY_CLAUSE_SET for n in quantified)
    assert any(isinstance(n, ExistsLit) and n.body is FALSE_CLAUSE_SET for n in quantified)
    assert any(
        isinstance(n, ExistsLit) and Clause() in n.body and len(n.body) > 1 for n in quantified
    )


def test_complement_budget_matches_round_trip():
    # Complementing exists R.((A0 | B0) & ...) distributes its negation,
    # also where the literal is nested.
    body = " & ".join(f"(A{i} | B{i})" for i in range(14))
    big = to_cnf(parse_concept(f"exists R.({body})")).clauses[0].literals[0]
    for lit in (big, ExistsLit("S", cs(cl(big)))):
        complement.cache_clear()
        with pytest.raises(ClauseBudgetError) as ours:
            complement(lit)
        with pytest.raises(ClauseBudgetError) as reference:
            complement_by_round_trip(lit)
        assert ours.value.clauses == reference.value.clauses == 2**14
    # A disjunct dropped by a false conjunct, or made moot by a true
    # disjunct, is never distributed.
    dropped = cl(big, ForallLit("T", EMPTY_CLAUSE_SET))
    for lit in (ExistsLit("S", cs(dropped, cl(Pos("A")))), ExistsLit("S", cs(cl(), cl(big)))):
        complement.cache_clear()
        assert complement(lit) == complement_by_round_trip(lit)


def test_complement_of_a_deep_literal_needs_no_call_stack():
    deep = Pos("A")
    for _ in range(3000):
        deep = ExistsLit("R", cs(cl(deep)))
    complement.cache_clear()
    comp = complement(deep)
    assert isinstance(comp, ForallLit) and comp.depth == 3000
    assert complement(comp) is deep


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
