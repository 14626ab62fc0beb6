"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The shared 2000-concept differential batch is
computed once per session and reused by criteria 4, 5, 6, and 8.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import pytest

from alcsat.engine import (
    Strategy,
    Verdict,
    decide_sat,
    family_measure,
)
from alcsat.harness import GenConfig, gen_concept
from alcsat.normal_form import ClauseSet, clause_set_to_concept, to_cnf
from alcsat.oracle import oracle_sat
from alcsat.syntax import Concept
from alcsat.tableau import (
    check_tableau,
    eval_concept,
    extract_tableau,
    tableau_to_interpretation,
)
from conftest import (
    ANIMAL_BASIC_CLASHES,
    ANIMAL_BASIC_EDGES,
    ANIMAL_BASIC_NODES,
    ANIMAL_CNF,
    ANIMAL_PLUS_CLASHES,
    ANIMAL_PLUS_EDGES,
    ANIMAL_PLUS_NODES,
    oracle_equiv,
)

BATCH_SEED = 2025
BATCH_TRIALS = 2000
EQUIV_TRIALS = 500


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _best_time(fn, repeats: int = 5) -> float:
    fn()  # warm-up: caches, first-call overhead
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Trial:
    concept: Concept
    cnf: ClauseSet
    oracle: bool
    basic: Verdict
    plus: Verdict


@pytest.fixture(scope="session")
def batch() -> tuple[list[Trial], float]:
    cfg = GenConfig(seed=BATCH_SEED)  # depth <= 3, 4 names, 2 roles
    rng = random.Random(cfg.seed)
    concepts = [gen_concept(cfg, rng) for _ in range(BATCH_TRIALS)]
    trials: list[Trial] = []
    start = time.perf_counter()
    for c in concepts:
        f = to_cnf(c)
        trials.append(
            Trial(
                concept=c,
                cnf=f,
                oracle=oracle_sat(c),
                basic=decide_sat(f, Strategy.BASIC),
                plus=decide_sat(f, Strategy.PLUS),
            )
        )
    elapsed = time.perf_counter() - start
    return trials, elapsed


def test_criterion_1_golden_cnf(animal_concept):
    ok = to_cnf(animal_concept) == ANIMAL_CNF
    runtime = _best_time(lambda: to_cnf(animal_concept))
    ok = ok and runtime < 0.001
    _report(1, ok, f"exact clause-set match, {runtime * 1e6:.0f}us")


def _trace_matches(verdict, nodes, edges, clashes) -> bool:
    if not verdict.satisfiable:
        return False
    if verdict.tree.nodes != nodes or verdict.tree.clash_nodes != clashes:
        return False
    if len(verdict.tree.edges) != len(edges):
        return False
    for edge, (parent, child, rule, member, literal) in zip(verdict.tree.edges, edges):
        if (edge.parent, edge.child, edge.application.rule) != (parent, child, rule):
            return False
        if edge.application.member_index != member:
            return False
        if edge.application.chosen_literal != literal:
            return False
    return True


def test_criterion_2_golden_trace_basic():
    verdict = decide_sat(ANIMAL_CNF, Strategy.BASIC)
    ok = (
        _trace_matches(
            verdict, ANIMAL_BASIC_NODES, ANIMAL_BASIC_EDGES, ANIMAL_BASIC_CLASHES
        )
        and verdict.stats.nodes_expanded == 11
    )
    runtime = _best_time(lambda: decide_sat(ANIMAL_CNF, Strategy.BASIC))
    ok = ok and runtime < 0.010
    _report(2, ok, f"11 nodes, clashes at 3 and 7, {runtime * 1e3:.2f}ms")


def test_criterion_3_golden_trace_plus():
    verdict = decide_sat(ANIMAL_CNF, Strategy.PLUS)
    basic_nodes = decide_sat(ANIMAL_CNF, Strategy.BASIC).stats.nodes_expanded
    ok = (
        _trace_matches(
            verdict, ANIMAL_PLUS_NODES, ANIMAL_PLUS_EDGES, ANIMAL_PLUS_CLASHES
        )
        and verdict.stats.nodes_expanded == 8
        and verdict.stats.nodes_expanded < basic_nodes
    )
    runtime = _best_time(lambda: decide_sat(ANIMAL_CNF, Strategy.PLUS))
    ok = ok and runtime < 0.010
    _report(3, ok, f"8 nodes < {basic_nodes}, one clash at 4, {runtime * 1e3:.2f}ms")


def test_criterion_4_differential_verdicts(batch):
    trials, elapsed = batch
    disagreements = [
        i
        for i, t in enumerate(trials)
        if not (t.oracle == t.basic.satisfiable == t.plus.satisfiable)
    ]
    ok = len(trials) == BATCH_TRIALS and not disagreements and elapsed < 60.0
    _report(4, ok, f"{len(trials)} trials, {len(disagreements)} disagreements, {elapsed:.1f}s")


def test_criterion_5_model_soundness(batch):
    trials, _ = batch
    checked = 0
    failures = 0
    for t in trials:
        for verdict in (t.basic, t.plus):
            if verdict.satisfiable:
                checked += 1
                interp = tableau_to_interpretation(extract_tableau(verdict))
                if not eval_concept(t.concept, interp, 0):
                    failures += 1
    ok = failures == 0 and checked > 0
    _report(5, ok, f"{checked} extracted models, {failures} failures")


def test_criterion_6_tableau_conditions(batch):
    trials, _ = batch
    checked = 0
    violations = 0
    for t in trials:
        for verdict, restricted in ((t.basic, False), (t.plus, True)):
            if verdict.satisfiable:
                checked += 1
                tab = extract_tableau(verdict)
                if check_tableau(tab, t.cnf, restricted=restricted):
                    violations += 1
    ok = violations == 0 and checked > 0
    _report(6, ok, f"{checked} tableaux checked, {violations} with violations")


def test_criterion_7_cnf_equivalence():
    cfg = GenConfig(seed=BATCH_SEED + 1)
    rng = random.Random(cfg.seed)
    failures = 0
    for _ in range(EQUIV_TRIALS):
        c = gen_concept(cfg, rng)
        if not oracle_equiv(c, clause_set_to_concept(to_cnf(c))):
            failures += 1
    _report(7, failures == 0, f"{EQUIV_TRIALS} concepts, {failures} inequivalent")


def test_criterion_8_termination_measure(batch):
    trials, _ = batch
    steps = 0
    increases = 0
    limit_hits = 0
    for t in trials:
        for verdict in (t.basic, t.plus):
            if verdict.stats.nodes_expanded >= 1_000_000:
                limit_hits += 1
            bound = max(m.depth for m in verdict.tree.nodes[0].members)
            for edge in verdict.tree.edges:
                steps += 1
                parent = family_measure(verdict.tree.nodes[edge.parent], bound)
                child = family_measure(verdict.tree.nodes[edge.child], bound)
                if not child < parent:
                    increases += 1
    ok = increases == 0 and limit_hits == 0 and steps > 0
    _report(8, ok, f"{steps} rule applications, {increases} non-decreasing, {limit_hits} limit hits")
