"""Generator determinism, bounds, and the differential driver."""

from __future__ import annotations

import hashlib
import random

import pytest

from alcsat import harness
from alcsat.harness import (
    STRUCTURED_WEIGHTS,
    GenConfig,
    gen_concept,
    Report,
    run_differential,
    shrink_concept,
    trial,
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
    render_concept,
)
from conftest import ANIMAL_TEXT
from test_acceptance import BATCH_SEED


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
    with pytest.raises(ValueError, match="negative"):
        GenConfig(connective_weights={"top": -1.0})


# sha256 of the first 500 concepts each configuration generates,
# rendered one a line: they pin the generator's draw stream.  The
# acceptance batch, the clash corpus (tests/conftest.py), leaves only,
# and leaf kinds that all weigh zero, so a leaf draws no kind.
PINNED_STREAMS = [
    (GenConfig(seed=BATCH_SEED), "0c8bed8e2735e388063a65bba41c9251cc965ab61af10e2e70cc0dd9f341ea0b"),
    (
        GenConfig(max_depth=5, connective_weights=STRUCTURED_WEIGHTS, seed=13),
        "10f6deb0dfdaafa927e7c86c734870af142192e0415fd543f03b549afd86ba5a",
    ),
    (GenConfig(max_depth=1, num_roles=0), "288404ec60e1ac217b683bd5ce379720daa2e2c3ce2abf2ac208d43ba7ecc6a9"),
    (
        GenConfig(connective_weights=dict.fromkeys(("name", "not", "top", "bot"), 0.0)),
        "bc65b1ffa566bfe26f98bdbcb323031ae7f158f82a883159d79e707f35ee4769",
    ),
]


@pytest.mark.parametrize("cfg, digest", PINNED_STREAMS)
def test_generator_stream_is_pinned(cfg, digest):
    rng = random.Random(cfg.seed)
    text = "\n".join(render_concept(gen_concept(cfg, rng)) for _ in range(500))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_run_differential_contradiction_trial():
    log, disagreement = trial(And(Name("A"), Not(Name("A"))))
    assert disagreement is None
    assert (log.oracle, log.basic, log.plus) == (False, False, False)
    assert log.basic_nodes == log.plus_nodes == 1


def test_run_differential_checks_the_model_of_a_long_chain():
    # The model check evaluates the 3,000-term chain at the root.
    chain = parse_concept(" & ".join(f"A{i}" for i in range(3000)))
    log, disagreement = trial(chain)
    assert disagreement is None
    assert log.plus


def test_run_differential_batch_is_clean():
    report = run_differential(GenConfig(seed=17), trials=200)
    assert report.ok
    assert report.basic_nodes.count == 200
    assert report.plus_nodes.mean <= report.basic_nodes.mean


def test_run_differential_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_differential(GenConfig(), trials=0)


def test_injected_animal_trial_node_counts():
    log, disagreement = trial(parse_concept(ANIMAL_TEXT))
    assert disagreement is None
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
    log, disagreement = trial(parse_concept(ANIMAL_TEXT))
    assert disagreement is None
    assert log.oracle and log.basic_nodes == 11
    assert calls == {"decide": 2, "oracle": 1}


def test_disagreement_is_shrunk_by_solving_again(monkeypatch):
    monkeypatch.setattr(harness, "oracle_sat", lambda c: False)
    _, d = trial(parse_concept("A & exists R.B"))
    assert (d.kind, d.detail, d.shrunk) == ("verdict", "oracle=False basic=True plus=True", "top")


def test_shrinking_walks_every_connective(monkeypatch):
    # The oracle errs on concepts with a negation, an existential and a
    # disjunction, which neither ``top`` nor ``bot`` has, so the shrinker
    # goes into the subterms under ``!``, ``&``, ``|`` and ``exists``.
    def erring(c: Concept) -> bool:
        text = render_concept(c)
        return oracle_sat(c) != ("!" in text and "exists" in text and "|" in text)

    monkeypatch.setattr(harness, "oracle_sat", erring)
    _, d = trial(parse_concept("B & !(A | exists R.(C | !D))"), 3)
    assert (d.kind, d.trial, d.detail) == ("verdict", 3, "oracle=False basic=True plus=True")
    assert d.shrunk == "exists R.(top | !top)"


def test_model_disagreement_is_shrunk_and_reported(monkeypatch):
    monkeypatch.setattr(harness, "eval_concept", lambda c, interp, individual: False)
    log, d = trial(parse_concept("A & exists R.B"), 4)
    assert log.oracle and log.basic and log.plus
    detail = "extracted basic model does not satisfy the concept"
    assert (d.kind, d.detail, d.shrunk) == ("model", detail, "top")
    report = Report(trials=5, seed=0, disagreements=[d])
    assert report.to_json()["disagreements"] == [
        {"kind": "model", "trial": 4, "concept": "A & exists R.B", "detail": detail, "shrunk": "top"}
    ]
    report = run_differential(GenConfig(seed=5), trials=3)
    # Trials 1 and 2 are satisfiable, so their models are checked.
    assert [t.plus for t in report.trial_log] == [False, True, True]
    assert [(d.trial, d.kind) for d in report.disagreements] == [(1, "model"), (2, "model")]
