"""Generator determinism, bounds, and the differential driver."""

from __future__ import annotations

import random

import pytest

from alcsat import harness
from alcsat.harness import (
    STRUCTURED_WEIGHTS,
    GenConfig,
    gen_concept,
    run_differential,
    shrink_concept,
)
from alcsat.oracle import oracle_sat
from alcsat.syntax import (
    And,
    Bottom,
    Concept,
    Exists,
    Forall,
    Name,
    Not,
    Or,
    Top,
    parse_concept,
)
from conftest import ANIMAL_TEXT


def _depth(c: Concept) -> int:
    if isinstance(c, (Name, Top, Bottom)):
        return 1
    if isinstance(c, Not):
        return 1 + _depth(c.body)
    if isinstance(c, (Forall, Exists)):
        return 1 + _depth(c.body)
    return 1 + max(_depth(c.left), _depth(c.right))


def _has_quantifier(c: Concept) -> bool:
    if isinstance(c, (Forall, Exists)):
        return True
    if isinstance(c, Not):
        return _has_quantifier(c.body)
    if isinstance(c, (And, Or)):
        return _has_quantifier(c.left) or _has_quantifier(c.right)
    return False


def test_depth_one_yields_atomic_shapes():
    cfg = GenConfig(max_depth=1, num_names=1)
    rng = random.Random(5)
    allowed = {Name("A"), Not(Name("A")), Top(), Bottom()}
    for _ in range(50):
        assert gen_concept(cfg, rng) in allowed


def test_same_seed_same_concepts():
    cfg = GenConfig(seed=99)
    first = [gen_concept(cfg, random.Random(cfg.seed)) for _ in range(1)]
    second = [gen_concept(cfg, random.Random(cfg.seed)) for _ in range(1)]
    assert first == second
    rng1, rng2 = random.Random(3), random.Random(3)
    assert [gen_concept(cfg, rng1) for _ in range(20)] == [
        gen_concept(cfg, rng2) for _ in range(20)
    ]


def test_no_roles_means_no_quantifiers():
    cfg = GenConfig(num_roles=0, max_depth=4)
    rng = random.Random(1)
    for _ in range(100):
        assert not _has_quantifier(gen_concept(cfg, rng))


def test_depth_bound_respected():
    # A negated name is one budget level, so the tree depth of a concept
    # built with budget d is at most d + 1.
    cfg = GenConfig(max_depth=3)
    rng = random.Random(2)
    for _ in range(200):
        assert _depth(gen_concept(cfg, rng)) <= 4


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_depth=0)
    with pytest.raises(ValueError):
        GenConfig(num_names=0)
    with pytest.raises(ValueError):
        GenConfig(num_roles=-1)
    with pytest.raises(ValueError):
        GenConfig(connective_weights={k: 0.0 for k in "name top bot not and or exists forall".split()})


def test_run_differential_contradiction_trial():
    report = run_differential(
        GenConfig(seed=0), trials=1, include=[And(Name("A"), Not(Name("A")))]
    )
    assert report.ok
    log = report.trial_log[0]
    assert (log.oracle, log.basic, log.plus) == (False, False, False)
    assert log.basic_nodes == log.plus_nodes == 1


def test_run_differential_checks_the_model_of_a_long_chain():
    # The model check evaluates the 3,000-term chain at the root.
    chain = parse_concept(" & ".join(f"A{i}" for i in range(3000)))
    report = run_differential(GenConfig(), 1, include=[chain])
    assert report.ok
    assert report.trial_log[0].plus


def test_run_differential_batch_is_clean():
    report = run_differential(GenConfig(seed=17), trials=200)
    assert report.ok
    assert report.basic_nodes.count == 200
    assert report.plus_nodes.mean <= report.basic_nodes.mean


def test_run_differential_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_differential(GenConfig(), trials=0)


def test_injected_animal_trial_node_counts():
    report = run_differential(
        GenConfig(seed=1), trials=1, include=[parse_concept(ANIMAL_TEXT)]
    )
    assert report.ok
    log = report.trial_log[0]
    assert log.basic_nodes == 11
    assert log.plus_nodes == 8


def test_plus_mean_never_exceeds_basic_mean_across_batches():
    for seed in (1, 2, 3, 4):
        report = run_differential(GenConfig(seed=seed, max_depth=4), trials=100)
        assert report.ok
        assert report.plus_nodes.mean <= report.basic_nodes.mean


def test_structured_deep_batch_is_clean():
    report = run_differential(
        GenConfig(max_depth=5, connective_weights=STRUCTURED_WEIGHTS, seed=11), trials=300
    )
    assert report.ok
    assert report.basic_nodes.max > 5
    assert any(t.basic_nodes > t.plus_nodes for t in report.trial_log)


def test_report_json_shape():
    report = run_differential(GenConfig(seed=5), trials=3)
    data = report.to_json()
    assert data["trials"] == 3
    assert data["seed"] == 5
    assert data["disagreements"] == []
    assert set(data["nodes"]) == {"basic", "plus"}
    assert set(data["nodes"]["basic"]) == {"count", "total", "max", "mean"}


def test_shrinker_minimizes_while_preserving_predicate():
    big = And(
        Or(Name("A"), Exists("R", Name("B"))),
        And(Name("C"), Not(Name("C"))),
    )

    def is_unsat(c: Concept) -> bool:
        return not oracle_sat(c)

    assert is_unsat(big)
    small = shrink_concept(big, is_unsat)
    assert is_unsat(small)
    assert _depth(small) < _depth(big)


def test_one_solve_per_strategy_and_one_oracle_call_per_trial(monkeypatch):
    calls = {"decide": 0, "oracle": 0}

    def counted(kind, fn):
        def call(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(harness, "decide_sat", counted("decide", harness.decide_sat))
    monkeypatch.setattr(harness, "oracle_sat", counted("oracle", harness.oracle_sat))
    report = run_differential(GenConfig(seed=5), 1, include=[parse_concept(ANIMAL_TEXT)])
    assert report.ok
    assert report.trial_log[0].oracle and report.trial_log[0].basic_nodes == 11
    assert calls == {"decide": 2, "oracle": 1}


def test_disagreement_is_shrunk_by_solving_again(monkeypatch):
    monkeypatch.setattr(harness, "oracle_sat", lambda c: False)
    report = run_differential(GenConfig(seed=5), 1, include=[parse_concept("A & exists R.B")])
    [d] = report.disagreements
    assert (d.kind, d.detail, d.shrunk) == ("verdict", "oracle=False basic=True plus=True", "top")
