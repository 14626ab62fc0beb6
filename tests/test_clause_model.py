"""Families, and the reference role collection and subexpression
closure kept in ``conftest``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from alcsat.clause_model import Family, FamilyEdge
from alcsat.engine import Strategy, decide_sat
from alcsat.normal_form import (
    Clause,
    ClauseSet,
    EMPTY_CLAUSE_SET,
    ExistsLit,
    ForallLit,
    Neg,
    Pos,
    to_cnf,
)
from conftest import (
    ANIMAL_BASIC_NODES,
    EX_MERGED_LEG,
    EmptyClauseSetError,
    cl,
    cs,
    family_get,
    rol,
    small_concepts,
    sub,
)


def test_rol_collects_nested_roles():
    # forall R1 wrapping exists R2, next to a plain negated name
    f = cs(
        cl(ForallLit("R1", cs(cl(ExistsLit("R2", cs(cl(Pos("C1")))))))),
        cl(Neg("C2")),
    )
    assert rol(f) == {"R1", "R2"}


def test_rol_no_roles():
    assert rol(cs(cl(Pos("A")))) == frozenset()


def test_rol_repeated_role_collapses():
    f = cs(cl(ExistsLit("R", cs(cl(ExistsLit("R", cs(cl(Pos("A")))))))))
    assert rol(f) == {"R"}


def test_sub_worked_example():
    body = cs(cl(Neg("A1")), cl(Pos("A2")))
    f = cs(cl(ForallLit("R1", body)))
    assert sub(f) == {
        f,
        cl(ForallLit("R1", body)),
        body,
        cl(Neg("A1")),
        cl(Pos("A2")),
        cl(Pos("A1")),
    }


def test_sub_single_unit():
    f = cs(cl(Pos("A")))
    assert sub(f) == {f, cl(Pos("A"))}


def test_sub_two_literal_clause_enumerates_subclauses():
    # Brute-force enumeration: the clause itself plus each single literal.
    f = cs(cl(Pos("A"), Pos("B")))
    assert sub(f) == {f, cl(Pos("A"), Pos("B")), cl(Pos("A")), cl(Pos("B"))}


def test_sub_rejects_empty_clause_set():
    with pytest.raises(EmptyClauseSetError):
        sub(EMPTY_CLAUSE_SET)


def _closure_step(f: ClauseSet, elements: frozenset) -> set:
    new = set()
    new.add(f)
    for item in elements:
        if isinstance(item, ClauseSet):
            new.update(item.clauses)
        else:
            from itertools import combinations

            for size in range(1, len(item) + 1):
                for combo in combinations(item.literals, size):
                    new.add(Clause(combo))
            if item.is_unit:
                lit = item.literals[0]
                if isinstance(lit, Neg):
                    new.add(cl(Pos(lit.name)))
                elif isinstance(lit, (ExistsLit, ForallLit)) and not lit.body.is_empty:
                    new.add(lit.body)
    return new


@settings(max_examples=40, deadline=None)
@given(small_concepts)
def test_sub_is_a_fixed_point(c):
    f = to_cnf(c)
    if f.is_empty:
        return
    elements = sub(f)
    assert _closure_step(f, elements) <= elements


@settings(max_examples=40, deadline=None)
@given(small_concepts)
def test_sub_is_finite_and_bounded(c):
    f = to_cnf(c)
    if f.is_empty:
        return
    # Conservative bound: every element is either one of the clause sets
    # syntactically present (plus name-unit flips) or a subclause of a
    # clause syntactically present.
    clause_sets = set()
    clauses = set()
    names = set()

    def walk(g: ClauseSet) -> None:
        clause_sets.add(g)
        for c_ in g:
            clauses.add(c_)
            for lit in c_:
                if isinstance(lit, (Pos, Neg)):
                    names.add(lit.name)
                else:
                    walk(lit.body)

    walk(f)
    bound = len(clause_sets) + sum(2 ** len(c_) for c_ in clauses) + len(names)
    assert len(sub(f)) <= bound


def test_family_get_in_range():
    fam = Family((cs(cl(Pos("A"))),))
    assert family_get(fam, 0) == cs(cl(Pos("A")))


def test_family_get_past_end_is_empty_marker():
    fam = Family((cs(cl(Pos("A"))),))
    assert family_get(fam, 7) == EMPTY_CLAUSE_SET


def test_family_get_after_peeling_existential():
    # One peel applied to the merged-existential member: the new child
    # holds the merged body.
    verdict = decide_sat(
        cs(cl(Pos("Animal")), cl(EX_MERGED_LEG)), Strategy.BASIC
    )
    # The single step peels the existential into member 1.
    child = verdict.tree.nodes[1]
    assert family_get(child, 1) == cs(cl(Neg("Leg")), cl(Pos("Leg")), cl(Neg("Small")))


def test_family_validates_edges():
    member = cs(cl(Pos("A")))
    with pytest.raises(ValueError):
        Family((member, member), (FamilyEdge(1, "R", 0),))
    with pytest.raises(ValueError):
        Family((member, member), (FamilyEdge(0, "R", 1), FamilyEdge(0, "S", 1)))
    with pytest.raises(ValueError):
        Family(())


def test_family_edges_form_forest_rooted_at_zero():
    for fam in ANIMAL_BASIC_NODES:
        children = {e.child for e in fam.edges}
        assert 0 not in children
        assert all(e.parent < e.child for e in fam.edges)
        # every non-root member was appended by a peel and has one parent
        assert children == set(range(1, len(fam.members)))

