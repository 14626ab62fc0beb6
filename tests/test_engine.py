"""Rule applications, clash and completeness, search, traces."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings

from alcsat.clause_model import Family
from alcsat.engine import (
    RULE_A1,
    RULE_A3,
    NonUnitPresentError,
    NotAllUnitError,
    PreconditionError,
    ResourceLimitError,
    Strategy,
    TraceFormatError,
    UniversalPresentError,
    apply_a1,
    apply_a1_plus,
    apply_a2,
    apply_a2_plus,
    apply_a3,
    decide_sat,
    decode_trace,
    family_measure,
    is_clash,
    is_complete,
    replay_trace,
    trace_to_dot,
    trace_to_json,
    witness_path,
    _apply_planned,
    _clash_deps,
    _clashes,
    _measure_after,
)
from alcsat.normal_form import (
    Clause,
    ClauseSet,
    EMPTY_CLAUSE_SET,
    FALSE_CLAUSE_SET,
    ExistsLit,
    ForallLit,
    Pos,
    clause_set_to_concept,
    to_cnf,
)
from alcsat.oracle import oracle_sat
from alcsat.syntax import parse_concept
from conftest import (
    A,
    ANIMAL_BASIC_CLASHES,
    ANIMAL_BASIC_EDGES,
    ANIMAL_BASIC_NODES,
    ANIMAL_CNF,
    ANIMAL_PLUS_CLASHES,
    ANIMAL_PLUS_EDGES,
    ANIMAL_PLUS_NODES,
    ANIMAL_TEXT,
    B,
    EX_LEG_NOT_SMALL,
    EX_MERGED_LEG,
    EX_MERGED_WING,
    FA_NOT_LEG,
    FA_NOT_WING,
    NA,
    chronological_search,
    cl,
    clashes_by_full_scan,
    concepts,
    cs,
    modal_3cnf,
    small_concepts,
    successor_family,
)


# --- A1 -----------------------------------------------------------------


def test_a1_collapses_first_clause_of_animal_root():
    f = ANIMAL_BASIC_NODES[0].members[0]
    out = apply_a1(f, cl(A, B), A)
    assert out == ANIMAL_BASIC_NODES[1].members[0]


def test_a1_only_clause_collapses():
    assert apply_a1(cs(cl(A, B)), cl(A, B), B) == cs(cl(B))


def test_a1_can_introduce_a_clash_pair():
    f = ANIMAL_BASIC_NODES[2].members[0]
    out = apply_a1(f, cl(NA, EX_LEG_NOT_SMALL), NA)
    assert out == ANIMAL_BASIC_NODES[3].members[0]
    assert cl(A) in out and cl(NA) in out
    assert is_clash(out)


def test_a1_preconditions():
    with pytest.raises(PreconditionError):
        apply_a1(cs(cl(A)), cl(A), A)  # unit target
    with pytest.raises(PreconditionError):
        apply_a1(cs(cl(A, B)), cl(A, NA), A)  # clause not present
    with pytest.raises(PreconditionError):
        apply_a1(cs(cl(A, B)), cl(A, B), NA)  # literal not in clause


# --- A1+ ----------------------------------------------------------------


def test_a1_plus_collapses_all_holders_and_strips_complement():
    f = ANIMAL_PLUS_NODES[0].members[0]
    out = apply_a1_plus(f, cl(A, B), A)
    assert out == ANIMAL_PLUS_NODES[1].members[0]


def test_a1_plus_complement_removal_can_empty_a_clause():
    out = apply_a1_plus(cs(cl(A, B), cl(NA)), cl(A, B), A)
    assert out == cs(cl(A), cl())
    assert is_clash(out)


def test_a1_plus_set_collapse_of_two_holders():
    # Both clauses contain the chosen literal, so both become its unit and
    # the set collapses to one clause.
    out = apply_a1_plus(cs(cl(A, B), cl(A, Pos("C"))), cl(A, B), A)
    assert out == cs(cl(A))


# --- A2 -----------------------------------------------------------------


def test_a2_merges_universal_body_into_same_role_existential():
    f = ANIMAL_BASIC_NODES[5].members[0]
    out = apply_a2(f, FA_NOT_LEG)
    assert out == ANIMAL_BASIC_NODES[6].members[0]


def test_a2_with_no_existential_drops_to_empty_set():
    univ = ForallLit("R", cs(cl(A)))
    assert apply_a2(cs(cl(univ)), univ) == EMPTY_CLAUSE_SET


def test_a2_leaves_other_roles_untouched():
    univ = ForallLit("R", cs(cl(A)))
    other = ExistsLit("S", cs(cl(B)))
    pre = cs(cl(univ), cl(other))
    out = apply_a2(pre, univ)
    assert out == cs(cl(other))
    # satisfiability is preserved by the step
    assert oracle_sat(clause_set_to_concept(pre)) == oracle_sat(
        clause_set_to_concept(out)
    )


def test_a2_preconditions():
    with pytest.raises(PreconditionError):
        apply_a2(cs(cl(A)), ForallLit("R", cs(cl(A))))  # literal absent
    with pytest.raises(PreconditionError):
        apply_a2(cs(cl(A)), A)  # not a universal


# --- A2+ ----------------------------------------------------------------


def test_a2_plus_on_all_unit_member():
    f = ANIMAL_PLUS_NODES[2].members[0]
    out = apply_a2_plus(f, cl(FA_NOT_LEG))
    assert out == ANIMAL_PLUS_NODES[3].members[0]


def test_a2_plus_without_existential():
    univ = ForallLit("R", cs(cl(B)))
    assert apply_a2_plus(cs(cl(A), cl(univ)), cl(univ)) == cs(cl(A))


def test_a2_plus_requires_all_units():
    univ = ForallLit("R", cs(cl(Pos("C"))))
    with pytest.raises(NotAllUnitError):
        apply_a2_plus(cs(cl(A, B), cl(univ)), cl(univ))


@settings(max_examples=60, deadline=None)
@given(small_concepts)
def test_a2_plus_equals_a2_whenever_both_apply(c):
    f = to_cnf(c)
    if any(len(clause) != 1 for clause in f):
        return
    for clause in f:
        lit = clause.literals[0]
        if isinstance(lit, ForallLit):
            assert apply_a2_plus(f, clause) == apply_a2(f, lit)


# --- A3 -----------------------------------------------------------------


def test_a3_peels_merged_existential():
    fam = ANIMAL_BASIC_NODES[6]
    out = apply_a3(fam, 0, cl(EX_MERGED_LEG))
    assert out == ANIMAL_BASIC_NODES[7]


def test_a3_lone_existential_leaves_empty_member():
    body = cs(cl(A))
    fam = Family((cs(cl(ExistsLit("R", body))),))
    out = apply_a3(fam, 0, cl(ExistsLit("R", body)))
    assert out.members == (EMPTY_CLAUSE_SET, body)
    assert out.edges[0].parent == 0
    assert out.edges[0].role == "R"
    assert out.edges[0].child == 1


def test_a3_second_peel_matches_accepting_branch():
    fam = ANIMAL_BASIC_NODES[9]
    out = apply_a3(fam, 0, cl(EX_MERGED_WING))
    assert out == ANIMAL_BASIC_NODES[10]


def test_a3_preconditions():
    body = cs(cl(A))
    ex_unit = cl(ExistsLit("R", body))
    with pytest.raises(UniversalPresentError):
        apply_a3(Family((cs(ex_unit, cl(ForallLit("R", body))),)), 0, ex_unit)
    with pytest.raises(NonUnitPresentError):
        apply_a3(Family((cs(ex_unit, cl(A, B)),)), 0, ex_unit)


# --- clash and completeness ----------------------------------------------


def test_clash_on_complementary_name_units():
    assert is_clash(cs(cl(A), cl(NA), cl(FA_NOT_LEG, FA_NOT_WING)))


def test_clash_on_empty_clause():
    assert is_clash(FALSE_CLAUSE_SET)


def test_no_clash_on_distinct_units():
    assert not is_clash(cs(cl(A), cl(B)))


def test_clash_on_complementary_quantified_units():
    f = cs(cl(ExistsLit("R", cs(cl(A)))), cl(ForallLit("R", cs(cl(NA)))))
    assert is_clash(f)


def test_empty_member_is_not_a_clash():
    assert not is_clash(EMPTY_CLAUSE_SET)


def test_quantified_near_misses_are_not_clashes():
    ex = ExistsLit("R", cs(cl(A)))
    for other in (
        ForallLit("R", cs(cl(B))),  # the dual kind and role, another body
        ForallLit("S", cs(cl(NA))),  # another role
        ExistsLit("R", cs(cl(NA))),  # the same kind
    ):
        f = cs(cl(ex), cl(other))
        assert not is_clash(f)
        assert list(_clashes(f)) == list(clashes_by_full_scan(f)) == []


def test_clash_scan_equals_the_full_scan_on_every_member(clash_corpus):
    members = {m for verdict in clash_corpus for fam in verdict.tree.nodes for m in fam.members}
    quantified_clashes = 0
    for m in members:
        clashes = list(_clashes(m))
        assert clashes == list(clashes_by_full_scan(m))
        quantified_clashes += sum(isinstance(c[0].literals[0], (ExistsLit, ForallLit))
                                  for c in clashes if len(c) == 2)
    assert len(members) > 3000 and quantified_clashes > 0


def test_complete_on_final_animal_node():
    assert is_complete(ANIMAL_BASIC_NODES[10], Strategy.BASIC)
    assert is_complete(ANIMAL_PLUS_NODES[7], Strategy.PLUS)


def test_incomplete_when_a1_applies():
    fam = Family((cs(cl(A, B)),))
    assert not is_complete(fam, Strategy.BASIC)
    assert not is_complete(fam, Strategy.PLUS)


def test_incomplete_when_a3_applies():
    fam = Family((cs(cl(ExistsLit("R", cs(cl(A))))),))
    assert not is_complete(fam, Strategy.BASIC)
    assert not is_complete(fam, Strategy.PLUS)


def test_a2_plus_and_a3_need_an_all_unit_member():
    # The empty clause is not a unit: A2+ and A3 do not apply next to it,
    # A2 does.
    fam = Family((cs(cl(), cl(ForallLit("R", cs(cl(A))))),))
    assert not is_complete(fam, Strategy.BASIC)
    assert is_complete(fam, Strategy.PLUS)
    assert is_complete(Family((cs(cl(), cl(ExistsLit("R", cs(cl(A))))),)), Strategy.PLUS)


def _reference_complete(fam: Family, strategy: Strategy) -> bool:
    """Completeness spelled out from the rule preconditions: no member
    has a clause of two or more literals (A1/A1+), a universal literal
    (A2) or, all units, a universal unit (A2+) or an existential unit
    (A3)."""
    for m in fam.members:
        clauses = m.clauses
        if any(len(c) >= 2 for c in clauses):
            return False
        all_unit = all(c.is_unit for c in clauses)
        units = [c.literals[0] for c in clauses if c.is_unit]
        univ = any(isinstance(l, ForallLit) for l in units)
        if univ and (strategy is Strategy.BASIC or all_unit):
            return False
        if all_unit and any(isinstance(l, ExistsLit) for l in units):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(small_concepts)
def test_is_complete_matches_the_rule_preconditions_on_every_node(c):
    f = to_cnf(c)
    for strategy in Strategy:
        for fam in decide_sat(f, strategy).tree.nodes:
            assert is_complete(fam, strategy) == _reference_complete(fam, strategy)


# --- decide_sat golden traces ----------------------------------------------


def _check_trace(verdict, expected_nodes, expected_edges, expected_clashes):
    assert verdict.satisfiable
    assert verdict.tree.nodes == expected_nodes
    assert verdict.tree.clash_nodes == expected_clashes
    assert len(verdict.tree.edges) == len(expected_edges)
    for edge, (parent, child, rule, member, literal) in zip(
        verdict.tree.edges, expected_edges
    ):
        assert (edge.parent, edge.child) == (parent, child)
        assert edge.application.rule == rule
        assert edge.application.member_index == member
        assert edge.application.chosen_literal == literal
    assert verdict.witness == len(expected_nodes) - 1
    assert verdict.stats.nodes_expanded == len(expected_nodes)
    assert verdict.stats.clashes == len(expected_clashes)


def test_animal_basic_trace_matches_expected_derivation():
    verdict = decide_sat(ANIMAL_CNF, Strategy.BASIC)
    _check_trace(
        verdict, ANIMAL_BASIC_NODES, ANIMAL_BASIC_EDGES, ANIMAL_BASIC_CLASHES
    )


def test_animal_plus_trace_matches_expected_derivation():
    verdict = decide_sat(ANIMAL_CNF, Strategy.PLUS)
    _check_trace(verdict, ANIMAL_PLUS_NODES, ANIMAL_PLUS_EDGES, ANIMAL_PLUS_CLASHES)
    basic = decide_sat(ANIMAL_CNF, Strategy.BASIC)
    assert verdict.stats.nodes_expanded < basic.stats.nodes_expanded


def test_root_clash_is_one_node_unsat():
    f = cs(cl(A), cl(NA))
    for strategy in Strategy:
        verdict = decide_sat(f, strategy)
        assert not verdict.satisfiable
        assert verdict.witness is None
        assert verdict.stats.nodes_expanded == 1
        assert verdict.tree.clash_nodes == [0]


def test_empty_clause_set_is_trivially_satisfiable():
    verdict = decide_sat(EMPTY_CLAUSE_SET)
    assert verdict.satisfiable
    assert verdict.stats.nodes_expanded == 1


def test_resource_limit_withholds_verdict():
    with pytest.raises(ResourceLimitError) as err:
        decide_sat(ANIMAL_CNF, Strategy.BASIC, max_nodes=3)
    assert len(err.value.tree.nodes) == 3


def test_node_budget_below_one_is_refused():
    for budget in (0, -5):
        with pytest.raises(ValueError, match="max_nodes must be at least 1"):
            decide_sat(ANIMAL_CNF, Strategy.PLUS, max_nodes=budget)
    assert decide_sat(to_cnf(parse_concept("A")), Strategy.PLUS, max_nodes=1).satisfiable


# --- search properties -------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(small_concepts)
def test_strategy_agreement_with_oracle(c):
    f = to_cnf(c)
    expected = oracle_sat(c)
    assert decide_sat(f, Strategy.BASIC).satisfiable == expected
    assert decide_sat(f, Strategy.PLUS).satisfiable == expected


@settings(max_examples=40, deadline=None)
@given(small_concepts)
def test_a2_anywhere_does_not_change_verdicts(c):
    # Which rule fires next is a don't-care choice: the reference search
    # that also branches on the A2 order reaches the same verdict.
    f = to_cnf(c)
    default = decide_sat(f, Strategy.BASIC).satisfiable
    witness, _, _ = chronological_search(f, Strategy.BASIC, a2_anywhere=True)
    assert default == (witness is not None)


@settings(max_examples=60, deadline=None)
@given(small_concepts)
def test_a1_plus_refines_a1(c):
    f = to_cnf(c)
    for clause in f:
        if len(clause) < 2:
            continue
        for lit in clause:
            plus = apply_a1_plus(f, clause, lit)
            assert cl(lit) in plus
            base = apply_a1(f, clause, lit)
            for out_clause in plus:
                assert any(
                    set(out_clause.literals) <= set(other.literals) for other in base
                )


@settings(max_examples=60, deadline=None)
@given(small_concepts)
def test_measure_strictly_decreases_along_every_edge(c):
    f = to_cnf(c)
    for strategy in Strategy:
        verdict = decide_sat(f, strategy)
        bound = max(m.depth for m in verdict.tree.nodes[0].members)
        for edge in verdict.tree.edges:
            parent = verdict.tree.nodes[edge.parent]
            child = verdict.tree.nodes[edge.child]
            assert family_measure(child, bound) < family_measure(parent, bound)


def _corpus(clash_corpus) -> list:
    """The decisions of ``clash_corpus`` and of the animal goldens."""
    animal = to_cnf(parse_concept(ANIMAL_TEXT))
    return clash_corpus + [decide_sat(animal, strategy) for strategy in Strategy]


def test_delta_measure_equals_the_full_measure_at_every_node(clash_corpus):
    # Each node's measure carried down from the root step by step, as the
    # search carries it, is the full recomputation.
    depth_changes = 0
    for verdict in _corpus(clash_corpus):
        nodes = verdict.tree.nodes
        bound = nodes[0].members[0].depth
        measures = {0: family_measure(nodes[0], bound)}
        for parent, app, child in verdict.tree.edges:
            measure = _measure_after(measures[parent], bound, nodes[parent], nodes[child], app)
            assert measure == family_measure(nodes[child], bound)
            measures[child] = measure
            i = app.member_index
            depth_changes += nodes[parent].members[i].depth != nodes[child].members[i].depth
        assert len(measures) == len(nodes)
    assert depth_changes > 0


def test_delta_measure_moves_a_member_whose_depth_changes():
    # Picking A drops the member's only quantified literal: depth 1 -> 0.
    c, r = Pos("C"), ExistsLit("R", cs(cl(B)))
    fam = Family((cs(cl(A, r), cl(c)),))
    step = (RULE_A1, 0, cl(A, r), A)
    child = _apply_planned(fam, step)
    assert child.members[0] is cs(cl(A), cl(c))
    assert family_measure(child, 1) == ((0, 0, 0), (0, 0, 0))
    assert _measure_after(family_measure(fam, 1), 1, fam, child, step) == ((0, 0, 0), (0, 0, 0))
    # A3 peeling the only existential moves the member and adds the body.
    fam = Family((cs(cl(A), cl(r)),))
    step = (RULE_A3, 0, cl(r), None)
    child = _apply_planned(fam, step)
    assert _measure_after(family_measure(fam, 1), 1, fam, child, step) == family_measure(child, 1)


def test_every_spliced_a1_child_is_the_sorted_construction(clash_corpus):
    # An A1 child spliced from its sorted parent is the clause set built
    # by sorting its clauses afresh, at every A1 edge of the corpus.
    a1_edges = 0
    for verdict in _corpus(clash_corpus):
        nodes = verdict.tree.nodes
        for parent, app, child in verdict.tree.edges:
            if app.rule != RULE_A1:
                continue
            f = nodes[parent].members[app.member_index]
            target, lit = app.target_clause, app.chosen_literal
            sorted_child = ClauseSet([c for c in f.clauses if c is not target] + [Clause((lit,))])
            assert nodes[child].members[app.member_index] is sorted_child
            assert apply_a1(f, target, lit) is sorted_child
            a1_edges += 1
    assert a1_edges > 1000


def test_public_rules_check_what_a_planned_step_does_not():
    # _apply_planned builds these children unchecked; the public rules refuse.
    ex, univ = cl(ExistsLit("R", cs(cl(A)))), cl(ForallLit("R", cs(cl(B))))
    with pytest.raises(PreconditionError):
        apply_a2_plus(cs(cl(A), univ), cl(A))  # not a universal unit
    with pytest.raises(PreconditionError):
        apply_a2_plus(cs(cl(A)), univ)  # not in the member
    with pytest.raises(PreconditionError):
        apply_a3(Family((cs(cl(A), ex),)), 0, cl(A))  # not an existential unit
    with pytest.raises(PreconditionError):
        apply_a3(Family((cs(cl(A)),)), 0, ex)  # not in the member
    with pytest.raises(PreconditionError):
        apply_a1_plus(cs(cl(A, B)), cl(A, B), NA)  # literal not in the target


@pytest.mark.parametrize(
    "f, target, lit",
    [
        (cs(cl(A), cl(A, B)), cl(A, B), A),  # the unit is in the member already
        (cs(cl(A, B), cl(A, Pos("C"))), cl(A, Pos("C")), A),  # sorts first, past the target
        (cs(cl(A, Pos("D")), cl(B)), cl(A, Pos("D")), Pos("D")),  # sorts last
        (cs(cl(B, Pos("C"))), cl(B, Pos("C")), Pos("C")),  # the only clause
    ],
)
def test_a1_splice_equals_the_sorted_construction(f, target, lit):
    spliced = _apply_planned(Family((f,)), (RULE_A1, 0, target, lit)).members[0]
    assert spliced is apply_a1(f, target, lit)
    assert spliced is ClauseSet([c for c in f.clauses if c is not target] + [Clause((lit,))])


@settings(max_examples=40, deadline=None)
@given(small_concepts)
def test_sat_reproducible_from_any_ancestor(c):
    # Unsatisfiability inheritance, contrapositive: replaying the recorded
    # choices from any node on the accepted path reaches the same complete
    # clash-free family.
    f = to_cnf(c)
    for strategy in Strategy:
        verdict = decide_sat(f, strategy)
        if not verdict.satisfiable:
            continue
        path = witness_path(verdict)
        for start in range(len(path)):
            fam = path[start][0]
            for _, app in path[start + 1 :]:
                fam = _apply_planned(fam, app)
            assert fam == verdict.witness_family
            assert is_complete(fam, strategy)
            assert not any(is_clash(m) for m in fam.members)


# --- trace serialization -----------------------------------------------------


def test_trace_json_shape_and_replay():
    verdict = decide_sat(ANIMAL_CNF, Strategy.BASIC)
    trace = trace_to_json(verdict, Strategy.BASIC)
    assert trace["strategy"] == "basic"
    assert trace["verdict"] == "sat"
    assert len(trace["nodes"]) == 11
    assert trace["clash_nodes"] == [3, 7]
    assert trace["nodes"][:3] == [None, [0, 0], [1, 0]]
    assert {e.application.rule for e in decode_trace(trace).tree.edges} == {"A1", "A2", "A3"}
    assert replay_trace(trace) == []


def test_replay_detects_tampering():
    # Swap the choices of nodes 2 and 5, the two picks at node 1: the
    # families re-derived below them swap sides, so the clash mark of
    # node 4 lands on a complete clash-free family and the witness, node
    # 7, holds the clash.
    verdict = decide_sat(ANIMAL_CNF, Strategy.PLUS)
    trace = trace_to_json(verdict, Strategy.PLUS)
    assert trace["nodes"][2] == [1, 0] and trace["nodes"][5] == [1, 1]
    trace["nodes"][2], trace["nodes"][5] = trace["nodes"][5], trace["nodes"][2]
    assert replay_trace(trace) == [
        "node 4: clash mark disagrees with family content",
        "node 7: clash mark disagrees with family content",
    ]


def _reordered(trace: dict, order: list[int]) -> dict:
    """``trace`` with its nodes in ``order`` (a list of its node indices,
    the root first, each parent before its children), those left out
    dropped, and the clash marks and stats renumbered to match."""
    new = {old: i for i, old in enumerate(order)}
    nodes = trace["nodes"]
    trace["nodes"] = [None] + [[new[nodes[old][0]], nodes[old][1]] for old in order[1:]]
    trace["clash_nodes"] = sorted(new[i] for i in trace["clash_nodes"] if i in new)
    trace["stats"]["nodes_expanded"] = len(order)
    trace["stats"]["clashes"] = len(trace["clash_nodes"])
    return trace


@pytest.mark.parametrize("other", [9, 7])
def test_replay_reports_a_sat_trace_whose_last_node_is_not_the_witness(other):
    # Move the subtree that holds the witness before its sibling subtree
    # (at node 4 of the basic trace, node 1 of the plus trace): every
    # node still re-derives, but the last node, which a decoded trace
    # takes as the witness, is node 7 of the plus trace, a clash, or,
    # with the basic trace's last node dropped, node 9, incomplete.
    strategy, order = {
        9: (Strategy.BASIC, [0, 1, 2, 3, 4, 8, 9, 10, 5, 6]),
        7: (Strategy.PLUS, [0, 1, 5, 6, 7, 2, 3, 4]),
    }[other]
    trace = trace_to_json(decide_sat(ANIMAL_CNF, strategy), strategy)
    assert replay_trace(trace) == []
    assert replay_trace(_reordered(trace, order)) == [
        f"verdict sat but its last node, {other}, is not complete and clash-free"
    ]


def test_unsat_trace_replays():
    verdict = decide_sat(cs(cl(A), cl(NA)))
    trace = trace_to_json(verdict, Strategy.PLUS)
    assert trace["verdict"] == "unsat"
    assert replay_trace(trace) == []


def test_dot_export_mentions_every_node_and_rule():
    verdict = decide_sat(ANIMAL_CNF, Strategy.PLUS)
    dot = trace_to_dot(trace_to_json(verdict, Strategy.PLUS))
    assert dot.startswith("digraph")
    for i in range(8):
        assert f'n{i} [label="S{i}"' in dot
    assert 'xlabel="clash"' in dot
    assert "doublecircle" in dot
    assert 'label="A1+ m0: Animal | Black"' in dot
    assert dot.count("A3 m0:") == 2


# --- backjumping ---------------------------------------------------------------

#: The rule systems, each a search mode.
MODES = [Strategy.PLUS, Strategy.BASIC]


def _is_subsequence(short: list, long: list) -> bool:
    rest = iter(long)
    return all(any(x == y for y in rest) for x in short)


def _assert_prunes_only_failed_subtrees(f, strategy) -> int:
    verdict = decide_sat(f, strategy)
    witness, nodes, _ = chronological_search(f, strategy)
    assert verdict.satisfiable == (witness is not None)
    if witness is not None:
        assert verdict.witness_family == nodes[witness]
    assert len(verdict.tree.nodes) <= len(nodes)
    assert _is_subsequence(verdict.tree.nodes, nodes)
    return len(nodes) - len(verdict.tree.nodes)


def test_backjumping_cuts_only_subtrees_without_a_witness():
    # Against the search without backjumping: the same verdict and
    # witness family, and the visited nodes are the reference's in the
    # same order, some left out.
    rng = random.Random(4)
    pruned = 0
    for clauses in range(4, 11):
        for _ in range(3):
            text, sat = modal_3cnf(rng, clauses)
            f = to_cnf(parse_concept(text))
            for strategy in MODES:
                pruned += _assert_prunes_only_failed_subtrees(f, strategy)
    for n in range(1, 5):
        f = to_cnf(parse_concept(successor_family(n)))
        for strategy in MODES:
            pruned += _assert_prunes_only_failed_subtrees(f, strategy)
    assert pruned > 1000


def test_successor_family_grows_linearly():
    # A search that backtracks chronologically expands 3^n nodes here.
    for n in range(1, 8):
        f = to_cnf(parse_concept(successor_family(n)))
        for strategy in MODES:
            verdict = decide_sat(f, strategy)
            assert not verdict.satisfiable
            assert verdict.stats.backjumps > 0
            expected = 2 * n + (4 if strategy is Strategy.PLUS else 14)
            assert verdict.stats.nodes_expanded == expected


def test_backjumps_are_zero_on_the_animal_goldens():
    for strategy in Strategy:
        assert decide_sat(ANIMAL_CNF, strategy).stats.backjumps == 0


def test_pruned_unsat_trace_replays():
    f = to_cnf(parse_concept(successor_family(3)))
    for strategy in Strategy:
        verdict = decide_sat(f, strategy)
        _, nodes, _ = chronological_search(f, strategy)
        assert len(verdict.tree.nodes) < len(nodes)
        trace = trace_to_json(verdict, strategy)
        assert trace["verdict"] == "unsat"
        assert replay_trace(trace) == []


def test_verdicts_match_brute_force_on_modal_3cnf():
    rng = random.Random(18)
    runs = 0
    for clauses in range(4, 19):
        for _ in range(3):
            text, sat = modal_3cnf(rng, clauses)
            f = to_cnf(parse_concept(text))
            modes = MODES if clauses <= 10 else MODES[:1]
            for strategy in modes:
                assert decide_sat(f, strategy).satisfiable == sat
                runs += 1
    assert runs == 7 * 3 * 2 + 8 * 3


def test_clash_dependency_set_is_the_least_of_the_members_clashes():
    empty = cl()
    member = cs(cl(A), cl(NA), empty, cl(B))
    deps = {cl(A): 0b001, cl(NA): 0b100, empty: 0b010}
    assert _clash_deps(member, deps) == 0b010
    deps[empty] = 0b1000
    assert _clash_deps(member, deps) == 0b101
    ex, fa = ExistsLit("R", cs(cl(A))), ForallLit("R", cs(cl(NA)))
    assert _clash_deps(cs(cl(ex), cl(fa)), {cl(fa): 0b10}) == 0b10


# --- trace format 3 -------------------------------------------------------------


def _reachable_values(root) -> set:
    """``root`` and every literal, clause and clause set under it."""
    seen: set = set()
    todo = [root]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(getattr(v, "clauses", ()) or getattr(v, "literals", ()))
            if isinstance(v, (ExistsLit, ForallLit)):
                todo.append(v.body)
    return seen


def _assert_round_trip(f, strategy) -> None:
    verdict = decide_sat(f, strategy)
    trace = json.loads(json.dumps(trace_to_json(verdict, strategy)))
    assert replay_trace(trace) == []
    decoded = decode_trace(trace)
    assert decoded == verdict
    assert decoded.strategy is strategy
    for got, node in zip(decoded.tree.nodes, verdict.tree.nodes):
        assert all(a is b for a, b in zip(got.members, node.members))
    for got, e in zip(decoded.tree.edges, verdict.tree.edges):
        assert got.application.target_clause is e.application.target_clause
        assert got.application.chosen_literal is e.application.chosen_literal
    values = trace["values"]
    assert len({json.dumps(entry) for entry in values}) == len(values)
    assert len(values) == len(_reachable_values(verdict.tree.nodes[0].members[0]))


def test_trace_round_trip_on_modal_3cnf_and_the_successor_family():
    rng = random.Random(9)
    inputs = [modal_3cnf(rng, clauses)[0] for clauses in (4, 6, 8) for _ in range(2)]
    inputs += [successor_family(n) for n in (1, 2, 3)]
    for text in inputs:
        f = to_cnf(parse_concept(text))
        for strategy in MODES:
            _assert_round_trip(f, strategy)


#: sha256 of the sorted-key ``trace_to_json`` texts of each run, in
#: order: format-3 traces, re-pinned once every trace of these runs
#: and of the acceptance sets replayed and decoded to the searched
#: verdict after a JSON round trip.  Complements decide clash checks
#: and A1+, so a complement that differs anywhere in these runs moves
#: the recorded tree, and with it a digest.
PINNED_TRACE_DIGESTS = {
    "search seed 1": "ef614df31b97941ee664212618d3096524607dc33dbdd90b545b2fbf11684a69",
    "search seed 2": "bce2465422655490f36b4315294a4af46d2d8ef1963bdd93b96f793d2d701c48",
    "animal basic": "c9fc139cc253cb813bbf077d1ca6cc53f0857675625016b2afe785a4eadf8109",
    "animal plus": "f80a2a99bea7bbe3eb245ff8bbca3e6b9570e7f58b36e35d7e7a6d29d62f0e69",
}


#: sha256 of the ``trace_to_dot`` texts of the same runs, in order,
#: taken while traces were still format 2 (each node's family written
#: out, each edge's step too): decoding by re-deriving must render every
#: node, clash mark and step as that decoding did.
PINNED_DOT_DIGESTS = {
    "search seed 1": "6c473b3da3ae830ca162b1559acb8b586b9763706fc821ef05ac72bc58e6b714",
    "search seed 2": "213c71d8ee27e09d016e1d85dc0f4f743339749ac0a9e404a79c0847196ac508",
    "animal basic": "b533d0a79992c0a8bc48268a3d8c6b79ebddc270eb8aaad95cb7a52e1ce9fd72",
    "animal plus": "f0c2c3207c033f215b126a0709c111ad367ab2962ad388a69a4f7f8e6eb666b3",
}


def _digests(search_runs, text) -> dict[str, str]:
    """sha256 of ``text(trace_to_json(verdict, strategy))`` over each
    run of the ``search`` inputs of a seed, and of each animal golden."""
    animal = to_cnf(parse_concept(ANIMAL_TEXT))
    groups = {f"search seed {seed}": runs for seed, runs in search_runs.items()}
    for strategy in Strategy:
        groups[f"animal {strategy.value}"] = [(strategy, decide_sat(animal, strategy))]
    digests = {}
    for name, runs in groups.items():
        digest = hashlib.sha256()
        for strategy, verdict in runs:
            digest.update(text(trace_to_json(verdict, strategy)).encode())
        digests[name] = digest.hexdigest()
    return digests


def test_traces_of_the_search_inputs_and_the_animal_goldens_are_pinned(search_runs):
    digests = _digests(search_runs, lambda trace: json.dumps(trace, sort_keys=True))
    assert digests == PINNED_TRACE_DIGESTS


def test_dot_texts_of_the_search_inputs_and_the_animal_goldens_are_pinned(search_runs):
    assert _digests(search_runs, trace_to_dot) == PINNED_DOT_DIGESTS


@settings(max_examples=60, deadline=None)
@given(concepts)
def test_trace_round_trip_on_hypothesis_concepts(c):
    f = to_cnf(c)
    for strategy in MODES:
        _assert_round_trip(f, strategy)


def test_trace_to_json_rejects_a_strategy_other_than_the_verdicts():
    verdict = decide_sat(ANIMAL_CNF, Strategy.BASIC)
    assert verdict.strategy is Strategy.BASIC
    with pytest.raises(ValueError, match="cannot trace a basic verdict as plus"):
        trace_to_json(verdict, Strategy.PLUS)


def test_replay_checks_the_recorded_stats():
    verdict = decide_sat(ANIMAL_CNF, Strategy.BASIC)
    for field, problem in (
        ("nodes_expanded", "stats: 12 nodes expanded, 11 recorded"),
        ("clashes", "stats: 3 clashes, 2 clash nodes recorded"),
    ):
        trace = trace_to_json(verdict, Strategy.BASIC)
        trace["stats"][field] += 1
        assert replay_trace(trace) == [problem]


def _trace_of_two_refuted_picks() -> dict:
    """The plus trace of (A | B) & !A & !B: a root whose two A1+ picks
    both clash."""
    verdict = decide_sat(to_cnf(parse_concept("(A | B) & !A & !B")), Strategy.PLUS)
    trace = trace_to_json(verdict, Strategy.PLUS)
    assert trace["verdict"] == "unsat" and trace["clash_nodes"] == [1, 2]
    assert trace["nodes"] == [None, [0, 0], [0, 1]]
    assert replay_trace(trace) == []
    return trace


def _drop_child(trace: dict, child: int) -> dict:
    """``trace`` without node ``child``, a clashed leaf."""
    return _reordered(trace, [i for i in range(len(trace["nodes"])) if i != child])


@pytest.mark.parametrize(
    "tamper",
    [
        lambda t: _drop_child(_drop_child(t, 2), 1),  # a lone unclashed root
        lambda t: _drop_child(t, 1),  # the root's one step is its plan's second
        lambda t: {**t, "nodes": [None, [0, 1], [0, 0]]},  # siblings out of plan order
    ],
    ids=["lone-root", "first-child-deleted", "siblings-swapped"],
)
def test_replay_reports_steps_that_are_not_a_prefix_of_the_plan(tamper):
    trace = tamper(_trace_of_two_refuted_picks())
    assert replay_trace(trace) == ["node 0: its steps are not a non-empty prefix of its plan"]


def test_replay_checks_the_a2_target_clause():
    # The A2 step's target is the one universal unit its plan offers, so
    # the only choice there is 0; the step a choice of 1 would name does
    # not exist, and neither does the node.
    verdict = decide_sat(ANIMAL_CNF, Strategy.BASIC)
    trace = trace_to_json(verdict, Strategy.BASIC)
    child = next(e.child for e in verdict.tree.edges if e.application.rule == "A2")
    parent = trace["nodes"][child][0]
    assert trace["nodes"][child] == [parent, 0]
    trace["nodes"][child][1] = 1
    assert replay_trace(trace) == [f"edge {parent}->{child}: not a step the basic scheduler offers"]
    with pytest.raises(TraceFormatError, match=f"edge {parent}->{child}: not a step"):
        decode_trace(trace)


def test_replay_reports_a_step_the_scheduler_does_not_take():
    # (A | B) & (C | D): the root picks from (A | B), node 1 from
    # (C | D), and node 2 is the complete witness.  An appended node
    # whose choice names no alternative of its parent's plan, past the
    # root's two-way pick or out of the witness, cannot be derived;
    # replay stops there.
    f = to_cnf(parse_concept("(A | B) & (C | D)"))
    for node, problem in (
        ([0, 2], "edge 0->3: not a step the plus scheduler offers"),
        ([2, 0], "edge 2->3: not a step the plus scheduler offers"),
    ):
        trace = trace_to_json(decide_sat(f, Strategy.PLUS), Strategy.PLUS)
        assert trace["nodes"] == [None, [0, 0], [1, 0]]
        trace["nodes"].append(node)
        trace["stats"]["nodes_expanded"] += 1
        assert replay_trace(trace) == [problem]
        with pytest.raises(TraceFormatError, match=problem):
            trace_to_dot(trace)


def test_replay_reports_an_edge_out_of_a_clash_node():
    # Node 1 holds the empty clause, and its plan still offers A1+ on
    # (C | D); the appended child re-derives and is clashed too.
    verdict = decide_sat(to_cnf(parse_concept("(A | B) & !A & (C | D)")), Strategy.PLUS)
    trace = trace_to_json(verdict, Strategy.PLUS)
    assert trace["clash_nodes"] == [1] and len(trace["nodes"]) == 4
    trace["nodes"].append([1, 0])
    trace["clash_nodes"].append(4)
    trace["stats"]["nodes_expanded"] += 1
    trace["stats"]["clashes"] += 1
    assert replay_trace(trace) == ["edge 1->4: leaves a clash node"]

