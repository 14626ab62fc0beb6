"""Random concept generation and differential testing.

:func:`gen_concept` draws concepts from a seeded configuration.  One
:func:`trial` compares three independent verdicts on a concept (the
reference concept tableau, the basic rule system and the optimized
one), then checks that the model of each satisfiable verdict satisfies
the concept at the root individual, and shrinks any failure greedily,
subterm by subterm, before it reports it.  :func:`run_differential`
runs one trial per generated concept, deterministically per seed; its
report aggregates expanded-node statistics per strategy and lists every
disagreement (an empty list is the expected outcome).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, Mapping, Optional

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
        if num_roles < 0:
            raise ValueError("num_roles must not be negative")
        weights = {**DEFAULT_WEIGHTS, **dict(connective_weights or {})}
        if any(w < 0 for w in weights.values()):
            raise ValueError("connective weights must not be negative")
        if all(w == 0 for w in weights.values()):
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


# The kinds a generated node is drawn from: a leaf's, and an inner
# node's, which adds the quantifiers when there are roles.
_LEAF_KINDS = ("name", "not", "top", "bot")
_NODE_KINDS = ("name", "top", "bot", "not", "and", "or")
_QUANTIFIER_KINDS = ("exists", "forall")


def gen_concept(cfg: GenConfig, rng: random.Random) -> Concept:
    """One random concept respecting the configuration bounds.

    Each node takes one ``rng.random()`` for its kind (none when every
    kind of its level weighs zero: it is the first) and one
    ``rng.choice`` for each name or role it holds."""
    names = cfg.names()
    roles = cfg.roles()

    def drawer(kinds: tuple[str, ...]):
        bounds = list(accumulate(cfg.connective_weights[k] for k in kinds))
        total = bounds[-1]
        if total <= 0:
            return lambda: kinds[0]
        return lambda: kinds[bisect_right(bounds, rng.random() * total)]

    leaf = drawer(_LEAF_KINDS)
    node = drawer(_NODE_KINDS + (_QUANTIFIER_KINDS if roles else ()))

    def build(budget: int) -> Concept:
        kind = leaf() if budget <= 1 else node()
        if kind == "name":
            return Name(rng.choice(names))
        if kind == "top":
            return Top()
        if kind == "bot":
            return Bottom()
        if kind == "not":
            return Not(Name(rng.choice(names)) if budget <= 1 else build(budget - 1))
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
        return dict(zip(self.__slots__, self._values()))


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


def trial(concept: Concept, index: int = 0) -> tuple[TrialResult, Optional[Disagreement]]:
    """One differential trial of ``concept``: the oracle's verdict and
    one solve per strategy, compared, and then, when all three agree,
    the model of each satisfiable verdict evaluated on ``concept`` at
    the root individual.  Returns the trial's result, numbered
    ``index``, and the first failure, if any, shrunk to a smaller
    concept that fails the same check (solving again once per
    candidate)."""
    o = oracle_sat(concept)
    bv, pv = _solve(concept)
    nodes = bv.stats.nodes_expanded, pv.stats.nodes_expanded
    result = TrialResult(index, concept, o, bv.satisfiable, pv.satisfiable, *nodes)
    detail = _verdict_detail(o, bv, pv)
    if detail is not None:
        kind, fails = "verdict", lambda x: _verdict_detail(oracle_sat(x), *_solve(x)) is not None
    else:
        detail = _model_detail(concept, bv, pv)
        if detail is None:
            return result, None
        kind, fails = "model", lambda x: _model_detail(x, *_solve(x)) is not None
    shrunk = render_concept(shrink_concept(concept, fails))
    return result, Disagreement(kind, index, render_concept(concept), detail, shrunk)


def run_differential(cfg: GenConfig, trials: int) -> Report:
    """Run :func:`trial` on ``trials`` concepts generated from ``cfg``
    and collect the results, node statistics and disagreements."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = random.Random(cfg.seed)
    report = Report(trials=trials, seed=cfg.seed)
    for index in range(trials):
        result, disagreement = trial(gen_concept(cfg, rng), index)
        report.basic_nodes.add(result.basic_nodes)
        report.plus_nodes.add(result.plus_nodes)
        report.trial_log.append(result)
        if disagreement is not None:
            report.disagreements.append(disagreement)
    return report
