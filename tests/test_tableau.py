"""Tableau checking, extraction from derivations, and model evaluation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from alcsat import tableau
from alcsat.engine import RULE_A2, RULE_A2_PLUS, Strategy, decide_sat, witness_path
from alcsat.normal_form import (
    Clause,
    ExistsLit,
    ForallLit,
    Neg,
    Pos,
    clause_to_json,
    complement,
    to_cnf,
)
from alcsat.syntax import And, Exists, Forall, Name, Not, Top, parse_concept
from alcsat.tableau import (
    CnfTableau,
    Interpretation,
    NotSatisfiableError,
    Violation,
    check_tableau,
    eval_concept,
    extract_tableau,
    tableau_to_interpretation,
)
from conftest import (
    ANIMAL_CNF,
    ANIMAL_TEXT,
    EX_LEG_NOT_SMALL,
    EX_MERGED_WING,
    FA_NOT_WING,
    cl,
    complements_of_every_unit,
    cs,
    small_concepts,
)


def _tableau(labels, edges=None, individuals=None):
    labels = {s: frozenset(v) for s, v in labels.items()}
    return CnfTableau(
        individuals=frozenset(individuals or labels),
        labels=labels,
        role_edges={r: frozenset(v) for r, v in (edges or {}).items()},
    )


def test_extracted_animal_tableaux_have_no_violations():
    for strategy in Strategy:
        verdict = decide_sat(ANIMAL_CNF, strategy)
        t = extract_tableau(verdict)
        assert check_tableau(t, ANIMAL_CNF, restricted=False) == []
        assert check_tableau(t, ANIMAL_CNF, restricted=True) == []


def test_a_root_without_the_clause_set_violates_condition_0():
    f = cs(cl(Pos("A")))
    labels = {0: frozenset({f, cl(Pos("A"))}), 1: frozenset()}
    for root, expected in ((0, []), (1, [(0, (1,))])):
        t = CnfTableau(individuals=frozenset({0, 1}), labels=labels, role_edges={}, root=root)
        violations = check_tableau(t, f, restricted=False)
        assert [(v.condition, v.individuals) for v in violations] == expected


def test_complementary_units_violate_condition_1():
    f = cs(cl(Pos("A")))
    t = _tableau({0: {f, cl(Pos("A")), cl(Neg("A"))}})
    violations = check_tableau(t, f, restricted=False)
    assert any(v.condition == 1 and v.individuals == (0,) for v in violations)


def test_unpropagated_universal_violates_condition_4():
    body = cs(cl(Pos("B")))
    univ = cl(ForallLit("R", body))
    f = cs(univ)
    t = _tableau(
        {0: {f, univ}, 1: {cl(Pos("C"))}},
        edges={"R": {(0, 1)}},
    )
    violations = check_tableau(t, f, restricted=False)
    assert any(v.condition == 4 and v.individuals == (0, 1) for v in violations)


def test_missing_clause_of_labeled_set_violates_condition_2():
    f = cs(cl(Pos("A")), cl(Pos("B")))
    t = _tableau({0: {f, cl(Pos("A"))}})
    violations = check_tableau(t, f, restricted=False)
    assert any(v.condition == 2 for v in violations)


def test_each_stored_clause_set_missing_a_clause_is_one_condition_2_violation():
    # Two stored sets each miss one labeled clause; the root's set misses none.
    a, b, c, d = (cl(Pos(n)) for n in "ABCD")
    root = cs(a, d)
    t = _tableau({0: {cs(a, b), cs(a, c), root, a, d}})
    violations = check_tableau(t, root, restricted=False)
    assert sorted(v.expr for v in violations if v.condition == 2) == [
        "[[{'pos': 'A'}], [{'pos': 'B'}]]",
        "[[{'pos': 'A'}], [{'pos': 'C'}]]",
    ]
    assert all(v.individuals == (0,) for v in violations)
    # A set missing two clauses is reported once.
    t = _tableau({0: {root, a, d}, 1: {cs(b, c)}})
    assert [v.expr for v in check_tableau(t, root, restricted=False) if v.condition == 2] == [
        "[[{'pos': 'B'}], [{'pos': 'C'}]]"
    ]


def test_unwitnessed_clause_violates_condition_3():
    f = cs(cl(Pos("A"), Pos("B")))
    t = _tableau({0: {f, cl(Pos("A"), Pos("B"))}})
    violations = check_tableau(t, f, restricted=False)
    assert any(v.condition == 3 for v in violations)


def test_unsatisfied_existential_violates_condition_5():
    ex = cl(ExistsLit("R", cs(cl(Pos("A")))))
    f = cs(ex)
    t = _tableau({0: {f, ex}})
    violations = check_tableau(t, f, restricted=False)
    assert any(v.condition == 5 for v in violations)


def test_missing_merge_violates_condition_6():
    univ = cl(ForallLit("R", cs(cl(Pos("A")))))
    ex = cl(ExistsLit("R", cs(cl(Pos("B")))))
    f = cs(univ, ex)
    child_labels = {
        cs(cl(Pos("A")), cl(Pos("B"))),
        cs(cl(Pos("A"))),
        cs(cl(Pos("B"))),
        cl(Pos("A")),
        cl(Pos("B")),
    }
    t = _tableau(
        {0: {f, univ, ex}, 1: child_labels},
        edges={"R": {(0, 1)}},
    )
    violations = check_tableau(t, f, restricted=False)
    assert any(v.condition == 6 for v in violations)
    assert all(v.condition != 4 for v in violations)


def test_restricted_condition_3_is_strictly_stronger():
    # {B} witnesses {A, B} under the plain check, but the restricted check
    # further requires every labeled clause minus the witness's complement
    # to be labeled: {!B, C, D} without !B is {C, D}, which is absent.
    target = cl(Pos("A"), Pos("B"))
    other = cl(Neg("B"), Pos("C"), Pos("D"))
    f = cs(target, other)
    base = {f, target, other, cl(Pos("B")), cl(Pos("C"))}
    t = _tableau({0: base})
    assert check_tableau(t, f, restricted=False) == []
    violations = check_tableau(t, f, restricted=True)
    assert any(v.condition == 3 for v in violations)
    # labeling the reduced clause repairs it
    t2 = _tableau({0: base | {cl(Pos("C"), Pos("D"))}})
    assert check_tableau(t2, f, restricted=True) == []


# exists R.{{A}} and its complement, forall R.{{!A}}; a successor over R
# labeled {{A}} satisfies the existential.
EX_A = ExistsLit("R", cs(cl(Pos("A"))))
FA_NOT_A = ForallLit("R", cs(cl(Neg("A"))))
A_CHILD = {cs(cl(Pos("A"))), cl(Pos("A"))}
NEAR_MISSES = (
    ForallLit("R", cs(cl(Pos("B")))),  # the dual kind and role, another body
    ForallLit("S", cs(cl(Neg("A")))),  # another role
    ExistsLit("R", cs(cl(Neg("A")))),  # the same kind
)


def _checked(t, f, restricted, monkeypatch):
    """``check_tableau``'s violations, which must equal those found with
    every unit complemented."""
    violations = check_tableau(t, f, restricted)
    with monkeypatch.context() as m:
        m.setattr(tableau, "_complements", complements_of_every_unit)
        assert check_tableau(t, f, restricted) == violations
    return violations


def test_quantified_dual_pair_violates_condition_1(monkeypatch):
    assert complement(EX_A) is FA_NOT_A and complement(FA_NOT_A) is EX_A
    for other, clashing in [(FA_NOT_A, True)] + [(lit, False) for lit in NEAR_MISSES]:
        f = cs(cl(EX_A), cl(other))
        t = _tableau({0: {f, cl(EX_A), cl(other)}, 1: A_CHILD}, edges={"R": {(0, 1)}})
        for restricted in (False, True):
            violations = _checked(t, f, restricted, monkeypatch)
            found = sorted(v.expr for v in violations if v.condition == 1)
            expected = sorted(repr(clause_to_json(cl(x))) for x in (EX_A, other))
            assert found == (expected if clashing else [])


def test_quantified_dual_pair_in_restricted_condition_3(monkeypatch):
    # {EX_A} is its own witness, but a labeled clause holds its
    # complement: the restricted check wants that clause without it,
    # {B, C}, labeled too.
    for other, failing in [(FA_NOT_A, True)] + [(lit, False) for lit in NEAR_MISSES]:
        holder = cl(other, Pos("B"), Pos("C"))
        f = cs(cl(EX_A), holder, cl(Pos("B")))
        labels = {f, cl(EX_A), holder, cl(Pos("B"))}
        t = _tableau({0: labels, 1: A_CHILD}, edges={"R": {(0, 1)}})
        assert _checked(t, f, False, monkeypatch) == []
        expected = [Violation(3, (0,), repr(clause_to_json(cl(EX_A))))] if failing else []
        assert _checked(t, f, True, monkeypatch) == expected
        repaired = _tableau({0: labels | {cl(Pos("B"), Pos("C"))}, 1: A_CHILD}, edges={"R": {(0, 1)}})
        assert _checked(repaired, f, True, monkeypatch) == []


def test_tableau_checks_equal_complementing_every_unit(clash_corpus, monkeypatch):
    # Each satisfiable run's tableau, and the same tableau with every
    # individual's labels also put on the root, which clashes often.
    satisfiable = [v for v in clash_corpus if v.satisfiable]

    def run() -> list:
        out = []
        for verdict in satisfiable:
            f = verdict.tree.nodes[0].members[0]
            t = extract_tableau(verdict)
            crowded = CnfTableau(
                individuals=t.individuals,
                labels={**t.labels, t.root: frozenset().union(*t.labels.values())},
                role_edges=t.role_edges,
                root=t.root,
                subset_closed=t.subset_closed,
            )
            out.append((t.labels, [check_tableau(x, f, r) for x in (t, crowded) for r in (False, True)]))
        return out

    filtered = run()
    with monkeypatch.context() as m:
        m.setattr(tableau, "_complements", complements_of_every_unit)
        assert run() == filtered
    assert all(checks[0] == checks[1] == [] for _, checks in filtered)
    crowded = [v for _, checks in filtered for r in (2, 3) for v in checks[r]]
    assert any(v.condition == 1 for v in crowded)
    restricted_3 = sum(v.condition == 3 for _, checks in filtered for v in checks[3])
    assert restricted_3 > sum(v.condition == 3 for _, checks in filtered for v in checks[2])


def test_raw_path_labels_need_the_merge_closure():
    # Two same-role universals consumed in sequence: the accumulated labels
    # pair the later universal with the earliest existential snapshot, whose
    # merged form never appears in any snapshot.  Without closure the
    # extraction would violate condition 6; extract_tableau closes it.
    f = to_cnf(parse_concept("forall R.A & forall R.B & exists R.C"))
    verdict = decide_sat(f, Strategy.BASIC)
    assert verdict.satisfiable

    clause_sets: dict[int, set] = {}
    clauses: dict[int, set] = {}
    for fam, app in witness_path(verdict):
        for i, member in enumerate(fam.members):
            if not member.is_empty:
                clause_sets.setdefault(i, set()).add(member)
                clauses.setdefault(i, set()).update(member.clauses)
        if app is not None and app.rule in (RULE_A2, RULE_A2_PLUS):
            clauses[app.member_index].add(Clause((app.chosen_literal,)))
    raw = CnfTableau(
        individuals=frozenset(range(len(verdict.witness_family.members))),
        labels={
            i: frozenset(clause_sets.get(i, set())) | frozenset(clauses.get(i, set()))
            for i in range(len(verdict.witness_family.members))
        },
        role_edges={
            "R": frozenset(
                (e.parent, e.child) for e in verdict.witness_family.edges
            )
        },
        subset_closed=True,
    )
    assert any(v.condition == 6 for v in check_tableau(raw, f, restricted=False))
    closed = extract_tableau(verdict)
    assert check_tableau(closed, f, restricted=False) == []


def test_stale_clause_needs_the_reduction_closure():
    # The first step collapses {A, !B, !C} to {A}; the second selects B.
    # The accumulated labels then hold a clause containing the complement
    # of the only witness literal of {B, C, D}, so the restricted check
    # needs {A, !C} labeled, which no snapshot provides.
    f = to_cnf(parse_concept("(A | !B | !C) & (B | C | D)"))
    verdict = decide_sat(f, Strategy.PLUS)
    assert verdict.satisfiable
    closed = extract_tableau(verdict)
    assert check_tableau(closed, f, restricted=True) == []
    # the reduced clause is exactly the closure's contribution
    assert closed.has_clause(0, cl(Pos("A"), Neg("C")))


def test_extract_requires_sat():
    verdict = decide_sat(cs(cl(Pos("A")), cl(Neg("A"))))
    with pytest.raises(NotSatisfiableError):
        extract_tableau(verdict)


def test_extract_single_name():
    f = cs(cl(Pos("A")))
    t = extract_tableau(decide_sat(f))
    assert t.individuals == {0}
    assert t.labels[0] == frozenset({f, cl(Pos("A"))})
    assert t.role_edges == {}


def test_extract_single_existential():
    body = cs(cl(Pos("A")))
    f = cs(cl(ExistsLit("R", body)))
    t = extract_tableau(decide_sat(f))
    assert t.individuals == {0, 1}
    assert t.role_edges == {"R": frozenset({(0, 1)})}
    assert cl(Pos("A")) in t.labels[1]
    assert body in t.labels[1]


def test_extract_animal_plus_label_contents():
    verdict = decide_sat(ANIMAL_CNF, Strategy.PLUS)
    t = extract_tableau(verdict)
    assert t.individuals == {0, 1}
    assert t.root == 0
    assert ANIMAL_CNF in t.labels[0]
    for expected in (
        cl(Pos("Animal")),
        cl(EX_LEG_NOT_SMALL),
        cl(FA_NOT_WING),  # consumed by the universal-merge step
        cl(EX_MERGED_WING),
    ):
        assert expected in t.labels[0]
    assert t.role_edges == {"hasPart": frozenset({(0, 1)})}
    for expected in (cl(Neg("Wing")), cl(Pos("Leg")), cl(Neg("Small"))):
        assert expected in t.labels[1]


def test_interpretation_from_animal_run():
    verdict = decide_sat(ANIMAL_CNF, Strategy.PLUS)
    interp = tableau_to_interpretation(extract_tableau(verdict))
    assert interp.domain == {0, 1}
    assert interp.name_ext.get("Animal") == {0}
    assert interp.name_ext.get("Leg") == {1}
    assert interp.name_ext.get("Wing") is None  # empty extension
    assert interp.name_ext.get("Small") is None
    assert interp.role_ext["hasPart"] == {(0, 1)}
    assert eval_concept(parse_concept(ANIMAL_TEXT), interp, 0)


def test_interpretation_single_label():
    t = _tableau({0: {cs(cl(Pos("A"))), cl(Pos("A"))}})
    interp = tableau_to_interpretation(t)
    assert interp.name_ext == {"A": frozenset({0})}


def test_interpretation_empty_labels():
    t = _tableau({0: set()})
    interp = tableau_to_interpretation(t)
    assert interp.domain == {0}
    assert interp.name_ext == {}


def test_eval_examples():
    interp = Interpretation(
        domain=frozenset({0, 1}),
        name_ext={"Animal": frozenset({0}), "Leg": frozenset({1})},
        role_ext={"hasPart": frozenset({(0, 1)})},
    )
    assert eval_concept(And(Name("Animal"), Exists("hasPart", Name("Leg"))), interp, 0)
    assert eval_concept(Top(), interp, 1)
    assert eval_concept(Forall("R", Name("Leg")), interp, 0)  # vacuous universal
    assert not eval_concept(Exists("R", Top()), interp, 0)
    assert eval_concept(Name("UnknownName"), interp, 0) is False
    with pytest.raises(ValueError):
        eval_concept(Top(), interp, 99)


@pytest.mark.parametrize(
    "text",
    [
        " & ".join(f"A{i}" for i in range(3000)),
        " | ".join(f"A{i}" for i in range(3000)),
        "!" * 5000 + "A",
    ],
    ids=["conjunction", "disjunction", "negations"],
)
def test_eval_concept_needs_no_call_stack(text):
    c = parse_concept(text)
    interp = tableau_to_interpretation(extract_tableau(decide_sat(to_cnf(c))))
    assert eval_concept(c, interp, 0)
    assert not eval_concept(Not(c), interp, 0)


def test_interpretation_json_shape():
    interp = Interpretation(
        domain=frozenset({0, 1}),
        name_ext={"A": frozenset({0})},
        role_ext={"R": frozenset({(0, 1)})},
    )
    assert interp.to_json() == {
        "domain": [0, 1],
        "names": {"A": [0]},
        "roles": {"R": [[0, 1]]},
    }


def test_tableau_checks_on_structured_batch():
    import random

    from alcsat.harness import STRUCTURED_WEIGHTS, GenConfig, gen_concept

    cfg = GenConfig(max_depth=4, connective_weights=STRUCTURED_WEIGHTS, seed=23)
    rng = random.Random(cfg.seed)
    checked = 0
    for _ in range(150):
        c = gen_concept(cfg, rng)
        f = to_cnf(c)
        for strategy in Strategy:
            verdict = decide_sat(f, strategy)
            if verdict.satisfiable:
                t = extract_tableau(verdict)
                restricted = strategy is Strategy.PLUS
                assert check_tableau(t, f, restricted=restricted) == []
                interp = tableau_to_interpretation(t)
                assert eval_concept(c, interp, 0)
                checked += 1
    assert checked > 100


@settings(max_examples=60, deadline=None)
@given(small_concepts)
def test_model_soundness(c):
    f = to_cnf(c)
    for strategy in Strategy:
        verdict = decide_sat(f, strategy)
        if verdict.satisfiable:
            interp = tableau_to_interpretation(extract_tableau(verdict))
            assert eval_concept(c, interp, 0)


@settings(max_examples=60, deadline=None)
@given(small_concepts)
def test_tableau_existence_on_sat(c):
    f = to_cnf(c)
    for strategy in Strategy:
        verdict = decide_sat(f, strategy)
        if verdict.satisfiable:
            t = extract_tableau(verdict)
            restricted = strategy is Strategy.PLUS
            assert check_tableau(t, f, restricted=restricted) == []


@settings(max_examples=40, deadline=None)
@given(small_concepts)
def test_restricted_pass_implies_plain_pass(c):
    f = to_cnf(c)
    verdict = decide_sat(f, Strategy.PLUS)
    if verdict.satisfiable:
        t = extract_tableau(verdict)
        if check_tableau(t, f, restricted=True) == []:
            assert check_tableau(t, f, restricted=False) == []
