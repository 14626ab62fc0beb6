"""The four workloads: the operations of one round, and their checks.

An operation is a ``run`` callable, timed, that drives the library the
way a user does, and a ``check`` callable, untimed, that validates its
result against a property the method must have or against an
independent computation, never against a stored copy of an earlier
output.  ``check`` returns ``(problem, nodes)``: ``problem`` is ``None``
when the output is correct, and ``nodes`` is what the operation adds to
``nodes_expanded``.

Program functions are looked up through their module at call time
(``engine.decide_sat``, not a name bound at import), so the traced run
can replace those module attributes with span-recording wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

from alcsat import cli, engine, harness, normal_form, syntax, tableau
from alcsat.engine import Strategy

import inputs

PLUS = Strategy.PLUS
BASIC = Strategy.BASIC

# The JSON codec of the replay round trip; module attributes so the
# traced run can time them as a span of their own.
encode = json.dumps
decode = json.loads

# The structure of the modal 3-CNF instances is drawn from this fixed
# seed, in this order; --seed varies their text (names, role, order of
# clauses and literals).  See the README for why.
MODAL_SEED = 20030118
SEARCH_MODAL = ((8, 20), (10, 10), (4, 20), (6, 20))  # (clauses per instance, instances)
BASIC_MAX_CLAUSES = 8
SUCCESSORS_PLUS = range(1, 7)
SUCCESSORS_BASIC = range(1, 6)

DISTRIBUTION_KS = range(1, 7)
CHAIN_LENGTHS = (100, 150, 200, 250, 300)
WIDE_VARIANTS = 3  # seeded orderings of each shape

FUZZ_TRIALS = 2000
FUZZ_DEPTH = 5
# The trials' generator seeds are drawn from this fixed seed; --seed
# orders them.  See the README for why.
FUZZ_SEED = 20220810
# The connective weights of ``scripts/run_fuzz.py --structured``.
STRUCTURED_WEIGHTS = {
    "name": 2.0,
    "top": 0.3,
    "bot": 0.3,
    "not": 1.5,
    "and": 2.5,
    "or": 2.5,
    "exists": 2.0,
    "forall": 2.0,
}

# Every functools cache of the program (today the lru_cache of
# ``normal_form.complement``), found at import, before the traced run
# replaces any module attribute.
CACHES = tuple({
    id(value): value
    for name, module in list(sys.modules.items())
    if name == "alcsat" or name.startswith("alcsat.")
    for value in vars(module).values()
    if callable(getattr(value, "cache_clear", None))
}.values())


def clear_caches() -> None:
    """Empty the program's caches, as a fresh ``alcsat`` process has them."""
    for cache in CACHES:
        cache.cache_clear()


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[Optional[str], int]]


@dataclass
class ModelRun:
    """Result of the ``check --model`` path."""

    cnf: normal_form.ClauseSet
    sat: bool
    nodes: int
    violations: Optional[list]
    holds: Optional[bool]


def model_path(text: str, strategy: Strategy, tamper=None) -> ModelRun:
    """parse -> to_cnf -> decide_sat and, on SAT, extract the tableau,
    check it (restricted under plus) and evaluate the model at the root.

    ``tamper`` edits the model before evaluation; only the checks on the
    checkers use it.
    """
    concept = syntax.parse_concept(text)
    f = normal_form.to_cnf(concept)
    verdict = engine.decide_sat(f, strategy)
    violations = holds = None
    if verdict.satisfiable:
        tab = tableau.extract_tableau(verdict)
        violations = tableau.check_tableau(tab, f, strategy is PLUS)
        model = tableau.tableau_to_interpretation(tab)
        if tamper is not None:
            model = tamper(model)
        holds = tableau.eval_concept(concept, model, 0)
    return ModelRun(f, verdict.satisfiable, verdict.stats.nodes_expanded, violations, holds)


def check_model_run(run: ModelRun, expected_sat: bool, shape=None) -> tuple[Optional[str], int]:
    if run.sat != expected_sat:
        return f"verdict {'SAT' if run.sat else 'UNSAT'}, expected the opposite", run.nodes
    if run.sat:
        if run.violations:
            return f"check_tableau found {len(run.violations)} violations", run.nodes
        if not run.holds:
            return "the extracted model does not satisfy the concept at the root", run.nodes
    if shape is not None:
        problem = shape(run.cnf)
        if problem is not None:
            return problem, run.nodes
    return None, run.nodes


def model_op(label: str, text: str, strategy: Strategy, expected_sat: bool, shape=None) -> Op:
    return Op(
        f"{label}/{strategy.value}",
        lambda: model_path(text, strategy),
        lambda run: check_model_run(run, expected_sat, shape),
    )


@dataclass
class ReplayRun:
    problems: list
    verdict: str
    nodes: int


def replay_round_trip(verdict, strategy: Strategy, tamper=None) -> ReplayRun:
    """trace_to_json -> json.dumps -> json.loads -> replay_trace.

    ``tamper`` edits the decoded trace; only the checks on the checkers
    use it.
    """
    text = encode(engine.trace_to_json(verdict, strategy))
    data = decode(text)
    if tamper is not None:
        tamper(data)
    return ReplayRun(engine.replay_trace(data), data["verdict"], len(data["nodes"]))


def check_replay_run(run: ReplayRun, expected_sat: bool) -> tuple[Optional[str], int]:
    if run.problems:
        return f"replay_trace: {run.problems[0]}", run.nodes
    if run.verdict != ("sat" if expected_sat else "unsat"):
        return f"trace verdict {run.verdict!r} differs from the search's", run.nodes
    return None, run.nodes


def replay_op(label: str, text: str, strategy: Strategy, expected_sat: bool, tamper=None) -> Op:
    # The search that records the trace runs here, before any timing.
    verdict = engine.decide_sat(normal_form.to_cnf(syntax.parse_concept(text)), strategy)
    if verdict.satisfiable != expected_sat:
        raise AssertionError(f"{label}/{strategy.value}: recorded search gave the wrong verdict")
    return Op(
        f"{label}/{strategy.value}",
        lambda: replay_round_trip(verdict, strategy, tamper),
        lambda run: check_replay_run(run, expected_sat),
    )


def cli_check(text: str) -> tuple[int, str]:
    """``alcsat check TEXT`` through ``cli.main``; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", text])
    return code, out.getvalue()


def check_cli_sat(result: tuple[int, str]) -> tuple[Optional[str], int]:
    code, out = result
    if code == cli.EXIT_SAT:
        return (None if out.split()[:1] == ["SAT"] else "exit 0 without SAT"), 0
    if code in (cli.EXIT_INPUT_ERROR, cli.EXIT_RESOURCE_LIMIT):
        return None, 0  # refused within a documented budget
    if code == cli.EXIT_UNSAT:
        return "verdict UNSAT, expected SAT", 0
    return f"undocumented exit code {code}", 0


def cli_op(label: str, text: str) -> Op:
    return Op(label, lambda: cli_check(text), check_cli_sat)


def fuzz_op(label: str, cfg: harness.GenConfig) -> Op:
    def check(report) -> tuple[Optional[str], int]:
        nodes = report.basic_nodes.total + report.plus_nodes.total
        if report.trials != 1:
            return f"report covers {report.trials} trials, 1 requested", nodes
        if not report.ok:
            return f"differential report: {report.disagreements[0].to_json()}", nodes
        return None, nodes

    return Op(label, lambda: harness.run_differential(cfg, 1), check)


# --- Inputs of each workload ----------------------------------------------


def _search_inputs(seed: int) -> list[tuple[str, str, Strategy, bool]]:
    """(label, text, strategy, expected verdict) for every search input."""
    shapes, texts = random.Random(MODAL_SEED), random.Random(seed)
    items = []
    for clauses, count in SEARCH_MODAL:
        for i in range(count):
            inst = inputs.modal_cnf(shapes, clauses)
            label, text, sat = f"3cnf-L{clauses}-{i}", inst.text(texts), inst.satisfiable()
            items.append((label, text, PLUS, sat))
            if clauses <= BASIC_MAX_CLAUSES:
                items.append((label, text, BASIC, sat))
    for n in SUCCESSORS_PLUS:
        items.append((f"succ-{n}", inputs.successor_family(n), PLUS, False))
    for n in SUCCESSORS_BASIC:
        items.append((f"succ-{n}", inputs.successor_family(n), BASIC, False))
    return items


def _search(seed: int) -> list[Op]:
    return [model_op(label, text, s, sat) for label, text, s, sat in _search_inputs(seed)]


def _distribution_shape(k: int):
    def shape(f) -> Optional[str]:
        if len(f) != 2 ** (k + 1) or any(len(c) != k + 1 for c in f):
            return f"normal form has {len(f)} clauses, expected {2 ** (k + 1)} of {k + 1} literals"
        return None

    return shape


def _chain_shape(n: int):
    def shape(f) -> Optional[str]:
        if len(f) != n or any(len(c) != 1 for c in f):
            return f"normal form has {len(f)} clauses, expected {n} unit clauses"
        return None

    return shape


def _wide(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for variant in range(WIDE_VARIANTS):
        for k in DISTRIBUTION_KS:
            text = inputs.distribution_family(rng, k)
            for s in (PLUS, BASIC):
                ops.append(model_op(f"dist-k{k}-{variant}", text, s, True, _distribution_shape(k)))
        for n in CHAIN_LENGTHS:
            text = inputs.and_chain(rng, n)
            for s in (PLUS, BASIC):
                ops.append(model_op(f"chain-{n}-{variant}", text, s, True, _chain_shape(n)))
    ops.append(cli_op("deep-negation/cli", inputs.DEEP_NEGATION))
    ops.append(cli_op("deep-chain/cli", inputs.DEEP_CHAIN))
    return ops


def _fuzz(seed: int) -> list[Op]:
    trials = random.Random(FUZZ_SEED)
    ops = []
    for i in range(FUZZ_TRIALS):
        cfg = harness.GenConfig(
            max_depth=FUZZ_DEPTH,
            connective_weights=STRUCTURED_WEIGHTS,
            seed=trials.randrange(2**31),
        )
        ops.append(fuzz_op(f"trial-{i}", cfg))
    random.Random(seed).shuffle(ops)
    return ops


# Traces of these search inputs are replayed: the L = 4 and L = 8 modal
# 3-CNF and the successor family n <= 4, except basic on L = 8, whose
# replay alone would take longer than the rest of the round.
REPLAY_SOURCES = ("3cnf-L4-", "3cnf-L8-", "succ-1", "succ-2", "succ-3", "succ-4")


def _replay(seed: int) -> list[Op]:
    return [
        replay_op(label, text, s, sat)
        for label, text, s, sat in _search_inputs(seed)
        if label.startswith(REPLAY_SOURCES)
        and not (label.startswith("3cnf-L8-") and s is BASIC)
    ]


BUILDERS = {"search": _search, "wide": _wide, "fuzz": _fuzz, "replay": _replay}


def build(name: str, seed: int) -> list[Op]:
    return BUILDERS[name](seed)


# --- Checks on the checkers -------------------------------------------------


def _drop_root_name(model):
    """The model with the extension of one name holding at the root emptied."""
    name = min(n for n, ext in model.name_ext.items() if 0 in ext)
    return tableau.Interpretation(
        model.domain, {**model.name_ext, name: frozenset()}, model.role_ext
    )


def _flip_verdict(run: ModelRun) -> ModelRun:
    run.sat = not run.sat
    return run


def _drop_clash_mark(trace: dict) -> None:
    trace["clash_nodes"] = trace["clash_nodes"][1:]


def sabotaged_ops() -> list[Op]:
    """Operations whose output is deliberately corrupted; every one must
    be caught by its workload's check."""
    sat_text = "A & exists R.(B & !C)"
    unsat_text = inputs.successor_family(1)
    flipped = model_op("flipped-verdict", unsat_text, PLUS, False)
    flipped.run = lambda: _flip_verdict(model_path(unsat_text, PLUS))
    dropped = model_op("dropped-name-extension", sat_text, PLUS, True)
    dropped.run = lambda: model_path(sat_text, PLUS, tamper=_drop_root_name)
    unmarked = replay_op("dropped-clash-mark", unsat_text, PLUS, False, tamper=_drop_clash_mark)
    return [flipped, dropped, unmarked]
