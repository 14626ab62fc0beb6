"""Random concept generation and differential testing.

The driver generates concepts from a seeded configuration, converts each
to clause-set form, and compares three independent verdicts: the
reference concept tableau, the basic rule system, and the optimized one.
Satisfiable runs are additionally checked for model soundness (the
extracted interpretation must satisfy the original concept at the root
individual).  Any failure is minimized by greedy subterm shrinking
before it is reported.

Trials are independent and deterministic per seed; the report aggregates
expanded-node statistics per strategy and lists every disagreement
(an empty list is the expected outcome).
"""

from __future__ import annotations

import random
from typing import Iterator, Mapping, Optional, Sequence

from alcsat.engine import Strategy, Verdict, decide_sat
from alcsat.normal_form import to_cnf
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
    _Frozen,
    _Record,
    _set,
    render_concept,
)
from alcsat.tableau import eval_concept, extract_tableau, tableau_to_interpretation

DEFAULT_WEIGHTS: Mapping[str, float] = {
    "name": 1.0,
    "top": 1.0,
    "bot": 1.0,
    "not": 1.0,
    "and": 1.0,
    "or": 1.0,
    "exists": 1.0,
    "forall": 1.0,
}

# Equal weights give mostly trivial concepts, because top/bot
# simplification collapses them; these lean on connectives and
# quantifiers, so the searches backtrack.
STRUCTURED_WEIGHTS: Mapping[str, float] = {
    "name": 2.0,
    "top": 0.3,
    "bot": 0.3,
    "not": 1.5,
    "and": 2.5,
    "or": 2.5,
    "exists": 2.0,
    "forall": 2.0,
}


class GenConfig(_Frozen):
    """Bounds and weights for random concept generation.

    ``max_depth`` counts nesting budget: at budget one only a name, a
    negated name, ``top``, or ``bot`` is produced.  All draws come from a
    generator seeded with ``seed``, so runs are reproducible.
    """

    __slots__ = ("max_depth", "num_names", "num_roles", "connective_weights", "seed")

    def __init__(
        self,
        max_depth: int = 3,
        num_names: int = 4,
        num_roles: int = 2,
        connective_weights: Optional[Mapping[str, float]] = None,
        seed: int = 0,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if num_names < 1:
            raise ValueError("num_names must be at least 1")
        weights = {**DEFAULT_WEIGHTS, **dict(connective_weights or {})}
        if all(w <= 0 for w in weights.values()):
            raise ValueError("connective weights must not all be zero")
        _set(self, "max_depth", max_depth)
        _set(self, "num_names", num_names)
        _set(self, "num_roles", num_roles)
        _set(self, "connective_weights", weights)
        _set(self, "seed", seed)

    def names(self) -> list[str]:
        letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        return [
            letters[i] if i < len(letters) else f"N{i}" for i in range(self.num_names)
        ]

    def roles(self) -> list[str]:
        base = ["R", "S", "T", "U", "V"]
        return [
            base[i] if i < len(base) else f"R{i}" for i in range(self.num_roles)
        ]


def _weighted_choice(rng: random.Random, options: list[tuple[str, float]]) -> str:
    total = sum(w for _, w in options)
    if total <= 0:
        return options[0][0]
    point = rng.random() * total
    acc = 0.0
    for kind, w in options:
        acc += w
        if point < acc:
            return kind
    return options[-1][0]


def gen_concept(cfg: GenConfig, rng: random.Random) -> Concept:
    """One random concept respecting the configuration bounds."""
    weights = cfg.connective_weights
    names = cfg.names()
    roles = cfg.roles()

    def leaf() -> Concept:
        kind = _weighted_choice(
            rng,
            [
                ("name", weights["name"]),
                ("not", weights["not"]),
                ("top", weights["top"]),
                ("bot", weights["bot"]),
            ],
        )
        if kind == "name":
            return Name(rng.choice(names))
        if kind == "not":
            return Not(Name(rng.choice(names)))
        if kind == "top":
            return Top()
        return Bottom()

    def build(budget: int) -> Concept:
        if budget <= 1:
            return leaf()
        options = [
            ("name", weights["name"]),
            ("top", weights["top"]),
            ("bot", weights["bot"]),
            ("not", weights["not"]),
            ("and", weights["and"]),
            ("or", weights["or"]),
        ]
        if roles:
            options.append(("exists", weights["exists"]))
            options.append(("forall", weights["forall"]))
        kind = _weighted_choice(rng, options)
        if kind == "name":
            return Name(rng.choice(names))
        if kind == "top":
            return Top()
        if kind == "bot":
            return Bottom()
        if kind == "not":
            return Not(build(budget - 1))
        if kind == "and":
            return And(build(budget - 1), build(budget - 1))
        if kind == "or":
            return Or(build(budget - 1), build(budget - 1))
        role = rng.choice(roles)
        if kind == "exists":
            return Exists(role, build(budget - 1))
        return Forall(role, build(budget - 1))

    return build(cfg.max_depth)


def _subterm_replacements(c: Concept) -> Iterator[Concept]:
    """Structurally smaller candidates, coarsest first."""
    if isinstance(c, (Top, Bottom)):
        return
    yield Top()
    yield Bottom()
    if isinstance(c, Not):
        yield c.body
        for repl in _subterm_replacements(c.body):
            yield Not(repl)
    elif isinstance(c, (And, Or)):
        yield c.left
        yield c.right
        ctor = And if isinstance(c, And) else Or
        for repl in _subterm_replacements(c.left):
            yield ctor(repl, c.right)
        for repl in _subterm_replacements(c.right):
            yield ctor(c.left, repl)
    elif isinstance(c, (Forall, Exists)):
        yield c.body
        ctor = Forall if isinstance(c, Forall) else Exists
        for repl in _subterm_replacements(c.body):
            yield ctor(c.role, repl)


def shrink_concept(c: Concept, fails) -> Concept:
    """Greedy shrink: repeatedly take the first smaller concept that still
    fails the predicate."""
    current = c
    progress = True
    while progress:
        progress = False
        for candidate in _subterm_replacements(current):
            if fails(candidate):
                current = candidate
                progress = True
                break
    return current


class TrialResult(_Record):
    __slots__ = ("index", "concept", "oracle", "basic", "plus", "basic_nodes", "plus_nodes")

    def __init__(
        self,
        index: int,
        concept: Concept,
        oracle: bool,
        basic: bool,
        plus: bool,
        basic_nodes: int,
        plus_nodes: int,
    ) -> None:
        self.index = index
        self.concept = concept
        self.oracle = oracle
        self.basic = basic
        self.plus = plus
        self.basic_nodes = basic_nodes
        self.plus_nodes = plus_nodes


class Disagreement(_Record):
    __slots__ = ("kind", "trial", "concept", "detail", "shrunk")

    def __init__(self, kind: str, trial: int, concept: str, detail: str, shrunk: str) -> None:
        self.kind = kind  # "verdict" or "model"
        self.trial = trial
        self.concept = concept
        self.detail = detail
        self.shrunk = shrunk

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "trial": self.trial,
            "concept": self.concept,
            "detail": self.detail,
            "shrunk": self.shrunk,
        }


class NodeStats(_Record):
    __slots__ = ("count", "total", "max")

    def __init__(self, count: int = 0, total: int = 0, max: int = 0) -> None:
        self.count = count
        self.total = total
        self.max = max

    def add(self, nodes: int) -> None:
        self.count += 1
        self.total += nodes
        self.max = max(self.max, nodes)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "mean": self.mean,
        }


class Report(_Record):
    __slots__ = ("trials", "seed", "disagreements", "basic_nodes", "plus_nodes", "trial_log")

    def __init__(
        self,
        trials: int,
        seed: int,
        disagreements: Optional[list[Disagreement]] = None,
        basic_nodes: Optional[NodeStats] = None,
        plus_nodes: Optional[NodeStats] = None,
        trial_log: Optional[list[TrialResult]] = None,
    ) -> None:
        self.trials = trials
        self.seed = seed
        self.disagreements = [] if disagreements is None else disagreements
        self.basic_nodes = NodeStats() if basic_nodes is None else basic_nodes
        self.plus_nodes = NodeStats() if plus_nodes is None else plus_nodes
        self.trial_log = [] if trial_log is None else trial_log

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "disagreements": [d.to_json() for d in self.disagreements],
            "nodes": {
                "basic": self.basic_nodes.to_json(),
                "plus": self.plus_nodes.to_json(),
            },
            "plus_fewer_nodes": sum(
                t.plus_nodes < t.basic_nodes for t in self.trial_log
            ),
            "seed": self.seed,
        }


def _verdict_detail(o: bool, basic: Verdict, plus: Verdict) -> Optional[str]:
    b, p = basic.satisfiable, plus.satisfiable
    if o == b == p:
        return None
    return f"oracle={o} basic={b} plus={p}"


def _model_detail(c: Concept, basic: Verdict, plus: Verdict) -> Optional[str]:
    for strategy, verdict in ((Strategy.BASIC, basic), (Strategy.PLUS, plus)):
        if not verdict.satisfiable:
            continue
        interp = tableau_to_interpretation(extract_tableau(verdict))
        if not eval_concept(c, interp, 0):
            return f"extracted {strategy.value} model does not satisfy the concept"
    return None


def _solve(c: Concept) -> tuple[Verdict, Verdict]:
    f = to_cnf(c)
    return decide_sat(f, Strategy.BASIC), decide_sat(f, Strategy.PLUS)


def run_differential(
    cfg: GenConfig, trials: int, include: Sequence[Concept] = ()
) -> Report:
    """Run ``trials`` generated concepts (after any injected ones) through
    the oracle and both strategies; check model soundness on every
    satisfiable verdict.

    Each trial solves its concept once per strategy and once with the
    oracle; only shrinking a failure solves again, once per candidate.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(cfg.seed)
    report = Report(trials=trials, seed=cfg.seed)
    for index in range(trials):
        if index < len(include):
            concept = include[index]
        else:
            concept = gen_concept(cfg, rng)
        o = oracle_sat(concept)
        bv, pv = _solve(concept)
        report.basic_nodes.add(bv.stats.nodes_expanded)
        report.plus_nodes.add(pv.stats.nodes_expanded)
        report.trial_log.append(
            TrialResult(
                index,
                concept,
                o,
                bv.satisfiable,
                pv.satisfiable,
                bv.stats.nodes_expanded,
                pv.stats.nodes_expanded,
            )
        )
        detail = _verdict_detail(o, bv, pv)
        if detail is not None:
            shrunk = shrink_concept(
                concept, lambda x: _verdict_detail(oracle_sat(x), *_solve(x)) is not None
            )
            report.disagreements.append(
                Disagreement(
                    "verdict",
                    index,
                    render_concept(concept),
                    detail,
                    render_concept(shrunk),
                )
            )
            continue
        detail = _model_detail(concept, bv, pv)
        if detail is not None:
            shrunk = shrink_concept(
                concept, lambda x: _model_detail(x, *_solve(x)) is not None
            )
            report.disagreements.append(
                Disagreement(
                    "model",
                    index,
                    render_concept(concept),
                    detail,
                    render_concept(shrunk),
                )
            )
    return report
