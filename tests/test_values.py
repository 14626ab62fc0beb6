"""Hash-consed values: identity, canonical form on search trees, the weak
intern table, and the incremental clash check against a full one."""

from __future__ import annotations

import copy
import gc
import json
import pickle
import random
import sys
import threading

import pytest

from alcsat import normal_form
from alcsat.engine import Strategy, decide_sat
from alcsat.harness import STRUCTURED_WEIGHTS, GenConfig, gen_concept
from alcsat.normal_form import (
    Clause,
    ClauseSet,
    ExistsLit,
    ForallLit,
    Neg,
    Pos,
    ValueTable,
    complement,
    is_canonical_clause_set,
    to_cnf,
    values_from_json,
)
from alcsat.syntax import parse_concept
from conftest import (
    ANIMAL_CNF,
    chronological_search,
    complement_by_round_trip,
    modal_3cnf,
    successor_family,
)

def _build_animal_cnf() -> ClauseSet:
    """The animal clause set, built from scratch in a different order."""
    body = ClauseSet([Clause([Neg("Small")]), Clause([Pos("Leg")])])
    return ClauseSet(
        [
            Clause([ForallLit("hasPart", ClauseSet([Clause([Neg("Wing")])])),
                    ForallLit("hasPart", ClauseSet([Clause([Neg("Leg")])]))]),
            Clause([ExistsLit("hasPart", body), Neg("Animal")]),
            Clause([ForallLit("hasPart", ClauseSet([Clause([Pos("Small")])])), Pos("Animal")]),
            Clause([Pos("Black"), Pos("Animal"), Pos("Black")]),
        ]
    )


def test_equal_values_are_identical():
    f = _build_animal_cnf()
    assert f is ANIMAL_CNF
    assert to_cnf(parse_concept("A | B")) is ClauseSet([Clause([Pos("B"), Pos("A")])])
    assert Pos("A") is Pos("A") and Pos("A") is not Neg("A")
    for a, b in zip(f, ANIMAL_CNF):
        assert a is b
        for x, y in zip(a, b):
            assert x is y


def test_identity_survives_json_copy_and_pickle():
    f = ANIMAL_CNF
    table = ValueTable()
    i = table.index(f)
    assert values_from_json(json.loads(json.dumps(table.entries)))[i] is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    lit = f.clauses[-1].literals[0]
    assert pickle.loads(pickle.dumps(lit)) is lit
    assert copy.deepcopy([lit, f])[0] is lit


def test_stored_fields_match_the_structure():
    f = ANIMAL_CNF
    assert f.depth == 1
    assert Pos("A").depth == 0
    assert ExistsLit("R", f).depth == 2
    assert f.key == tuple(c.key for c in f)
    with pytest.raises(AttributeError):
        f.clauses = ()


def test_every_search_node_is_canonical():
    rng = random.Random(20030118)
    texts = [modal_3cnf(rng, clauses)[0] for clauses in range(4, 13) for _ in range(4)]
    texts += [successor_family(n) for n in range(1, 7)]
    nodes = 0
    for text in texts:
        for strategy in Strategy:
            verdict = decide_sat(to_cnf(parse_concept(text)), strategy)
            for fam in verdict.tree.nodes:
                nodes += 1
                assert all(is_canonical_clause_set(m) for m in fam.members)
    assert nodes > 1000


def test_intern_table_is_weak():
    complement.cache_clear()
    gc.collect()
    before = len(normal_form._INTERN)
    text = "(Wk1 | forall Rk.Wk2) & (!Wk1 | exists Rk.(Wk3 & !Wk2)) & !Wk3"
    verdict = decide_sat(to_cnf(parse_concept(text)), Strategy.PLUS)
    assert verdict.satisfiable
    assert len(normal_form._INTERN) > before

    def mentions_run(value) -> bool:
        return "Wk" in repr(value)

    def live() -> list:
        return [ref() for ref in list(normal_form._INTERN.values())]

    assert any(mentions_run(v) for v in live())
    del verdict
    complement.cache_clear()
    gc.collect()
    assert not any(mentions_run(v) for v in live())
    assert None not in live()
    assert len(normal_form._INTERN) <= before


def test_incremental_clash_check_matches_full_check_on_a_batch():
    cfg = GenConfig(max_depth=5, connective_weights=STRUCTURED_WEIGHTS, seed=7)
    rng = random.Random(cfg.seed)
    runs = clashes = 0
    for _ in range(500):
        f = to_cnf(gen_concept(cfg, rng))
        for strategy in Strategy:
            verdict = decide_sat(f, strategy)
            witness, nodes, clash_nodes = chronological_search(f, strategy)
            assert (
                verdict.satisfiable,
                verdict.stats.nodes_expanded,
                verdict.tree.clash_nodes,
            ) == (witness is not None, len(nodes), clash_nodes)
            runs += 1
            clashes += len(verdict.tree.clash_nodes)
    assert runs == 1000 and clashes > 50


def test_interning_is_atomic_across_threads():
    names = [f"Thr{i}" for i in range(30)]
    workers, rounds = 4, 150
    current: list = [None] * workers
    mismatches: list[int] = []
    barrier = threading.Barrier(workers, timeout=30)

    def work(slot: int) -> None:
        for r in range(rounds):
            current[slot] = [
                ClauseSet([Clause([Pos(n), Neg(n)]), Clause([ExistsLit("R", ClauseSet())])])
                for n in names
            ]
            barrier.wait()
            if slot == 0 and any(
                current[s][i] is not current[0][i] for s in range(workers) for i in range(len(names))
            ):
                mismatches.append(r)
            barrier.wait()
            current[slot] = None  # every value dies before the next round
            barrier.wait()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
    assert not any("Thr" in repr(ref()) for ref in list(normal_form._INTERN.values()))


def test_interning_replaces_dead_entries_across_threads():
    # Each round's values die in a garbage cycle: a collection clears
    # their references first and runs their callbacks after, one by one.
    # The other threads re-create the values meanwhile, so they find
    # entries that still hold a dead reference and must replace them.
    names = [f"Rd{i}" for i in range(40)]
    workers, rounds = 4, 60
    current: list = [None] * workers
    mismatches: list[int] = []
    barrier = threading.Barrier(workers, timeout=30)

    def work(slot: int) -> None:
        for r in range(rounds):
            current[slot] = [
                ClauseSet([Clause([Pos(n), ExistsLit("R", ClauseSet([Clause([Neg(n)])]))])])
                for n in names
            ]
            barrier.wait()
            if slot == 0 and any(
                current[s][i] is not current[0][i] for s in range(workers) for i in range(len(names))
            ):
                mismatches.append(r)
            barrier.wait()
            cycle = [current[slot]]
            cycle.append(cycle)
            current[slot] = None
            del cycle
            barrier.wait()
            if slot == 0:
                gc.collect()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
    gc.collect()
    live = [ref() for ref in list(normal_form._INTERN.values())]
    assert None not in live
    assert not any("Rd" in repr(value) for value in live)


def test_complement_cache_is_bounded_and_safe_across_threads():
    # 7,500 complements in all, nested names included: over the cache's
    # bound, so threads evict while others insert, and one empties it.
    lits = [Pos(f"Cc{i}") for i in range(3000)]
    lits += [
        ExistsLit("R", ClauseSet([Clause([Neg(f"Cc{i}"), Pos(f"Cd{i}")])])) for i in range(1500)
    ]
    expected = {lit: complement_by_round_trip(lit) for lit in lits}
    workers = 4
    errors: list = []
    wrong: list = []

    def work(slot: int) -> None:
        order = lits[:]
        random.Random(slot).shuffle(order)
        try:
            for i, lit in enumerate(order):
                if complement(lit) is not expected[lit]:
                    wrong.append(lit)
                if slot == 0 and i % 1000 == 999:
                    complement.cache_clear()
        except Exception as exc:  # reported below, with the thread's slot
            errors.append((slot, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and wrong == []
    assert len(normal_form._COMPLEMENTS) <= normal_form._COMPLEMENTS_MAX
