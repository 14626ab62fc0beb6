"""Shared test fixtures: the worked animal example and concept strategies."""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from functools import cache
from itertools import combinations
from math import prod
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from alcsat.clause_model import Family, FamilyEdge
from alcsat.engine import Strategy, Verdict, _apply_planned, _plan, decide_sat
from alcsat.harness import STRUCTURED_WEIGHTS, GenConfig, gen_concept
from alcsat.normal_form import (
    EMPTY_CLAUSE_SET,
    MAX_CLAUSES,
    Clause,
    ClauseBudgetError,
    ClauseSet,
    ExistsLit,
    ForallLit,
    Literal,
    Neg,
    Pos,
    clause_set_to_concept,
    complement,
    to_cnf,
    to_nnf,
)
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

ROOT = Path(__file__).resolve().parent.parent

# Every run draws the same examples and writes no example database, so
# two runs of the suite test the same cases.  Each test's own
# ``max_examples`` still applies.
settings.register_profile("alcsat", derandomize=True, database=None)
settings.load_profile("alcsat")


def pytest_configure(config):
    """Hypothesis also caches what it reads from source files, while
    tests are collected, under its home directory: by default
    ``.hypothesis/`` in the working directory.  A temporary one keeps
    it out of the checkout."""
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


# One satisfiable concept whose decision runs need backtracking under both
# rule systems; all golden expectations below are frozen from its known
# derivations.
ANIMAL_TEXT = (
    "(Animal | (Black & forall hasPart.Small))"
    " & (!Animal | exists hasPart.(Leg & !Small))"
    " & !(exists hasPart.Leg & exists hasPart.Wing)"
)


def cs(*clauses: Clause) -> ClauseSet:
    return ClauseSet(clauses)


def cl(*lits) -> Clause:
    return Clause(lits)


A, B, S, L, W = Pos("Animal"), Pos("Black"), Pos("Small"), Pos("Leg"), Pos("Wing")
NA, NS, NL, NW = Neg("Animal"), Neg("Small"), Neg("Leg"), Neg("Wing")

FA_SMALL = ForallLit("hasPart", cs(cl(S)))
EX_LEG_NOT_SMALL = ExistsLit("hasPart", cs(cl(L), cl(NS)))
FA_NOT_LEG = ForallLit("hasPart", cs(cl(NL)))
FA_NOT_WING = ForallLit("hasPart", cs(cl(NW)))
EX_MERGED_LEG = ExistsLit("hasPart", cs(cl(NL), cl(L), cl(NS)))
EX_MERGED_WING = ExistsLit("hasPart", cs(cl(NW), cl(L), cl(NS)))

#: Clause-set form of the animal concept: exactly these four clauses.
ANIMAL_CNF = cs(
    cl(A, B),
    cl(A, FA_SMALL),
    cl(NA, EX_LEG_NOT_SMALL),
    cl(FA_NOT_LEG, FA_NOT_WING),
)


def _fam(*members: ClauseSet, edges: tuple[FamilyEdge, ...] = ()) -> Family:
    return Family(tuple(members), edges)


_CHILD_EDGE = (FamilyEdge(0, "hasPart", 1),)

#: Node-by-node derivation of the animal concept under the basic system,
#: in depth-first visit order.  Nodes 3 and 7 clash; node 10 is the witness.
ANIMAL_BASIC_NODES = [
    _fam(ANIMAL_CNF),
    _fam(cs(cl(A), cl(A, FA_SMALL), cl(NA, EX_LEG_NOT_SMALL), cl(FA_NOT_LEG, FA_NOT_WING))),
    _fam(cs(cl(A), cl(NA, EX_LEG_NOT_SMALL), cl(FA_NOT_LEG, FA_NOT_WING))),
    _fam(cs(cl(A), cl(NA), cl(FA_NOT_LEG, FA_NOT_WING))),
    _fam(cs(cl(A), cl(EX_LEG_NOT_SMALL), cl(FA_NOT_LEG, FA_NOT_WING))),
    _fam(cs(cl(A), cl(EX_LEG_NOT_SMALL), cl(FA_NOT_LEG))),
    _fam(cs(cl(A), cl(EX_MERGED_LEG))),
    _fam(cs(cl(A)), cs(cl(NL), cl(L), cl(NS)), edges=_CHILD_EDGE),
    _fam(cs(cl(A), cl(EX_LEG_NOT_SMALL), cl(FA_NOT_WING))),
    _fam(cs(cl(A), cl(EX_MERGED_WING))),
    _fam(cs(cl(A)), cs(cl(NW), cl(L), cl(NS)), edges=_CHILD_EDGE),
]

#: (parent, child, rule, member, chosen literal or None)
ANIMAL_BASIC_EDGES = [
    (0, 1, "A1", 0, A),
    (1, 2, "A1", 0, A),
    (2, 3, "A1", 0, NA),
    (2, 4, "A1", 0, EX_LEG_NOT_SMALL),
    (4, 5, "A1", 0, FA_NOT_LEG),
    (5, 6, "A2", 0, FA_NOT_LEG),
    (6, 7, "A3", 0, None),
    (4, 8, "A1", 0, FA_NOT_WING),
    (8, 9, "A2", 0, FA_NOT_WING),
    (9, 10, "A3", 0, None),
]

ANIMAL_BASIC_CLASHES = [3, 7]

#: The optimized system's derivation: node 4 clashes; node 7 is the witness.
ANIMAL_PLUS_NODES = [
    _fam(ANIMAL_CNF),
    _fam(cs(cl(A), cl(EX_LEG_NOT_SMALL), cl(FA_NOT_LEG, FA_NOT_WING))),
    _fam(cs(cl(A), cl(EX_LEG_NOT_SMALL), cl(FA_NOT_LEG))),
    _fam(cs(cl(A), cl(EX_MERGED_LEG))),
    _fam(cs(cl(A)), cs(cl(NL), cl(L), cl(NS)), edges=_CHILD_EDGE),
    _fam(cs(cl(A), cl(EX_LEG_NOT_SMALL), cl(FA_NOT_WING))),
    _fam(cs(cl(A), cl(EX_MERGED_WING))),
    _fam(cs(cl(A)), cs(cl(NW), cl(L), cl(NS)), edges=_CHILD_EDGE),
]

ANIMAL_PLUS_EDGES = [
    (0, 1, "A1+", 0, A),
    (1, 2, "A1+", 0, FA_NOT_LEG),
    (2, 3, "A2+", 0, FA_NOT_LEG),
    (3, 4, "A3", 0, None),
    (1, 5, "A1+", 0, FA_NOT_WING),
    (5, 6, "A2+", 0, FA_NOT_WING),
    (6, 7, "A3", 0, None),
]

ANIMAL_PLUS_CLASHES = [4]


# --- reference search --------------------------------------------------------


def clashed(m: ClauseSet) -> bool:
    """The clash condition as defined: the empty clause, or a unit whose
    complement is a unit too."""
    units = {c.literals[0] for c in m if c.is_unit}
    return any(c.is_empty for c in m) or any(complement(lit) in units for lit in units)


def plan_with_a2_anywhere(fam: Family) -> Optional[list]:
    """The basic scheduler's plan with the rule order made a choice: on
    an A1 or A2 plan, also an A2 step for each distinct universal of
    the planned member, at its first holder clause, so a universal
    inside a non-unit clause can be consumed and its siblings dropped.
    On an A2 plan these steps replace the plan.  Which rule fires next
    is a don't-care choice, so the verdict must not depend on it."""
    plan = _plan(fam, Strategy.BASIC)
    if plan is None or plan[0][0] == "A3":
        return plan
    i = plan[0][1]
    holders: dict[Literal, Clause] = {}
    for c in fam.members[i].clauses:
        for lit in c.literals:
            if isinstance(lit, ForallLit):
                holders.setdefault(lit, c)
    a2 = [("A2", i, c, lit) for lit, c in holders.items()]
    return plan + a2 if plan[0][0] == "A1" else a2


def chronological_search(
    f: ClauseSet, strategy: Strategy, a2_anywhere: bool = False
) -> tuple[Optional[int], list[Family], list[int]]:
    """The search as the calculus defines it: depth first, every member
    of every node clash-checked, every alternative of a failed choice
    point tried in order (no backjumping).  With ``a2_anywhere`` (basic
    only) the plans are :func:`plan_with_a2_anywhere`'s.  Returns
    (witness node or None, visited nodes, clash nodes)."""
    nodes: list[Family] = [Family((f,))]
    clashes: list[int] = []

    def explore(node_id: int) -> Optional[int]:
        fam = nodes[node_id]
        if any(clashed(m) for m in fam.members):
            clashes.append(node_id)
            return None
        plan = plan_with_a2_anywhere(fam) if a2_anywhere else _plan(fam, strategy)
        if plan is None:
            return node_id
        for step in plan:
            nodes.append(_apply_planned(fam, step))
            witness = explore(len(nodes) - 1)
            if witness is not None:
                return witness
        return None

    return explore(0), nodes, clashes


def complement_by_round_trip(lit: Literal) -> Literal:
    """The complement as the definition reads: a quantified literal's
    body re-expanded to a concept, negated and normalized by ``to_cnf``.
    ``complement`` builds the same literal from the body's clauses."""
    if isinstance(lit, Pos):
        return Neg(lit.name)
    if isinstance(lit, Neg):
        return Pos(lit.name)
    dual = ForallLit if isinstance(lit, ExistsLit) else ExistsLit
    return dual(lit.role, to_cnf(Not(clause_set_to_concept(lit.body))))


class EmptyClauseSetError(ValueError):
    """The subexpression closure is defined only for non-empty clause sets."""


SubElement = Union[ClauseSet, Clause]


def family_get(fam: Family, i: int) -> ClauseSet:
    """Member clause set at ``i``, or the empty marker past the end."""
    if 0 <= i < len(fam.members):
        return fam.members[i]
    return EMPTY_CLAUSE_SET


def rol(f: ClauseSet) -> frozenset[str]:
    """All role names occurring at any nesting depth in ``f``."""
    roles: set[str] = set()

    def walk(cs: ClauseSet) -> None:
        for cl in cs:
            for lit in cl:
                if isinstance(lit, (ExistsLit, ForallLit)):
                    roles.add(lit.role)
                    walk(lit.body)

    walk(f)
    return frozenset(roles)


def _nonempty_subclauses(cl: Clause) -> Iterable[Clause]:
    lits = cl.literals
    for size in range(1, len(lits) + 1):
        for combo in combinations(lits, size):
            yield Clause(combo)


def sub(f: ClauseSet) -> frozenset[SubElement]:
    """The paper's subexpression closure of a non-empty clause set, as
    the least fixed point of its five rules: the clause set itself, the
    clauses of any member clause set, every non-empty subclause of a
    member clause, ``{A}`` for any ``{!A}``, and the bodies of
    quantified unit clauses.  Subclauses are the full ``2^|CL| - 1``
    powerset walk, fine at the scale of tests.

    Raises :class:`EmptyClauseSetError` on the empty clause set, for
    which the closure is not defined.
    """
    if f.is_empty:
        raise EmptyClauseSetError("sub() requires a non-empty clause set")
    result: set[SubElement] = set()
    work: list[SubElement] = [f]
    while work:
        item = work.pop()
        if item in result:
            continue
        result.add(item)
        if isinstance(item, ClauseSet):
            work.extend(item.clauses)
        else:
            for sub_cl in _nonempty_subclauses(item):
                if sub_cl not in result:
                    work.append(sub_cl)
            if item.is_unit:
                lit = item.literals[0]
                if isinstance(lit, Neg):
                    work.append(Clause((Pos(lit.name),)))
                elif isinstance(lit, (ExistsLit, ForallLit)) and not lit.body.is_empty:
                    work.append(lit.body)
    return frozenset(result)


def clashes_by_full_scan(f: ClauseSet) -> Iterator[tuple[Clause, ...]]:
    """``engine._clashes`` with every quantified unit complemented:
    ``_clashes`` takes a complement only where a unit of its kind and
    role is present, and must yield the same clashes in the same order."""
    positive: dict[str, Clause] = {}
    negative: dict[str, Clause] = {}
    quantified: dict[Literal, Clause] = {}
    for c in f.clauses:
        lits = c.literals
        if not lits:
            yield (c,)
        elif len(lits) == 1:
            lit = lits[0]
            if type(lit) is Pos:
                positive[lit.name] = c
            elif type(lit) is Neg:
                negative[lit.name] = c
            else:
                quantified[lit] = c
    if not positive.keys().isdisjoint(negative):
        for name in positive.keys() & negative.keys():
            yield positive[name], negative[name]
    for lit, c in quantified.items():
        other = quantified.get(complement(lit))
        if other is not None:
            yield c, other


def complements_of_every_unit(units: list[Literal], holders) -> dict[Literal, Literal]:
    """``tableau._complements`` without its filter: every unit's
    complement, whether or not a labeled literal could equal it."""
    return {lit: complement(lit) for lit in units}


def _operands(c: Concept) -> list[Concept]:
    """The operands, left to right, of the chain of ``c``'s connective
    (``&`` or ``|``) rooted at ``c``."""
    kind = type(c)
    operands: list[Concept] = []
    stack = [c]
    while stack:
        node = stack.pop()
        if type(node) is kind:
            stack += (node.right, node.left)
        else:
            operands.append(node)
    return operands


def _distribute(parts: list[list[tuple[Literal, ...]]]) -> tuple[Clause, ...]:
    """The clauses of the disjunction of ``parts``, each a conjunction of
    clauses given by their literals; raises ClauseBudgetError before
    building any when the product of the parts' sizes is over budget."""
    sizes = [len(part) for part in parts if len(part) != 1]
    if len(parts) > 1 and 0 not in sizes and prod(sizes) > MAX_CLAUSES:
        raise ClauseBudgetError(prod(sizes))
    clauses = (Clause(lit for part in parts if len(part) == 1 for lit in part[0]),)
    for part in parts:
        if len(part) != 1:
            clauses = tuple(set(Clause(cl.literals + lits) for cl in clauses for lits in part))
    return clauses


def _clauses_of_nnf(c: Concept) -> tuple[Clause, ...]:
    """The clauses of the clause-set form of ``c``, in negation normal
    form with ``top``/``bot`` simplified away, by the definition: ``&``
    chains gather their operands' clauses and ``|`` chains distribute."""
    done: list[tuple[Clause, ...]] = []
    todo: list[tuple] = [(None, c)]
    while todo:
        combine, item = todo.pop()
        if combine is None:
            c = item
            if isinstance(c, Name):
                done.append((Clause((Pos(c.name),)),))
            elif isinstance(c, Top):
                done.append(())
            elif isinstance(c, Bottom):
                done.append((Clause(),))
            elif isinstance(c, Not):
                if not isinstance(c.body, Name):
                    raise ValueError(f"not in negation normal form: {c!r}")
                done.append((Clause((Neg(c.body.name),)),))
            elif isinstance(c, Exists):
                todo += ((ExistsLit, c.role), (None, c.body))
            elif isinstance(c, Forall):
                todo += ((ForallLit, c.role), (None, c.body))
            else:
                operands = _operands(c)
                todo.append((type(c), len(operands)))
                todo += ((None, o) for o in reversed(operands))
        elif combine is And:
            parts = done[-item:]
            del done[-item:]
            done.append(tuple(cl for part in parts for cl in part))
        elif combine is Or:
            parts = done[-item:]
            del done[-item:]
            done.append(_distribute([[cl.literals for cl in part] for part in parts]))
        else:
            done.append((Clause((combine(item, ClauseSet(done.pop())),)),))
    return done.pop()


def cnf_by_two_passes(c: Concept) -> ClauseSet:
    """The clause-set form as the definition reads: ``to_nnf`` pushes
    negations to names and simplifies ``top``/``bot``, then a second walk
    distributes.  ``to_cnf`` makes the same in one walk, and raises the
    same ClauseBudgetError."""
    return ClauseSet(_clauses_of_nnf(to_nnf(c)))


def successor_family(n: int) -> str:
    """``n`` independent existentials with a choice each, next to an
    unsatisfiable one: a search that backtracks chronologically through
    every choice expands 3^n nodes."""
    parts = [f"exists R.(A{i} | B{i} | C{i})" for i in range(n)]
    return " & ".join(parts + ["exists S.((E & !E) | (F & !F))"])


# --- hypothesis strategies -------------------------------------------------

GEN_NAMES = ["A", "B", "C", "D"]
GEN_ROLES = ["R", "S"]

_leaves = st.one_of(
    st.sampled_from(GEN_NAMES).map(Name),
    st.just(Top()),
    st.just(Bottom()),
)


def _extend(sub):
    return st.one_of(
        sub.map(Not),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Forall, st.sampled_from(GEN_ROLES), sub),
        st.builds(Exists, st.sampled_from(GEN_ROLES), sub),
    )


concepts = st.recursive(_leaves, _extend, max_leaves=10)
small_concepts = st.recursive(_leaves, _extend, max_leaves=6)


@pytest.fixture(scope="session")
def animal_concept():
    return parse_concept(ANIMAL_TEXT)


@pytest.fixture(scope="session")
def search_runs() -> dict[int, list[tuple[Strategy, Verdict]]]:
    """The decisions of the benchmark's ``search`` inputs (modal 3-CNF
    and the successor family, under the strategies it runs them with)
    for seeds 1 and 2, by seed, in the benchmark's order."""
    bench = str(ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return {
        seed: [
            (s, decide_sat(to_cnf(parse_concept(text)), s))
            for _, text, s, _ in workloads._search_inputs(seed)
        ]
        for seed in (1, 2)
    }


@pytest.fixture(scope="session")
def clash_corpus(search_runs) -> list[Verdict]:
    """Decisions whose every member the clash and tableau checks are
    compared with their references on: the ``search`` inputs of seeds 1
    and 2, then 400 structured depth-5 concepts and three modal 3-CNF
    instances at each L = 4..10, each under both strategies."""
    verdicts = [verdict for runs in search_runs.values() for _, verdict in runs]
    cfg = GenConfig(max_depth=5, connective_weights=STRUCTURED_WEIGHTS, seed=13)
    rng = random.Random(cfg.seed)
    concepts = [gen_concept(cfg, rng) for _ in range(400)]
    rng = random.Random(13)
    concepts += [parse_concept(modal_3cnf(rng, n)[0]) for n in range(4, 11) for _ in range(3)]
    for c in concepts:
        f = to_cnf(c)
        verdicts += [decide_sat(f, strategy) for strategy in Strategy]
    return verdicts


# --- random modal 3-CNF --------------------------------------------------------


def modal_3cnf(rng, clauses: int) -> tuple[str, bool]:
    """A random modal 3-CNF instance in the style of Patel-Schneider &
    Sebastiani 2003, as concept text, with its satisfiability decided by
    brute force.

    ``clauses`` clauses of three literals over the names A, B, C and the
    one role R, at depth 1.  A literal is a name with probability 1/2,
    otherwise ``exists R.(...)`` or ``forall R.(...)`` over a clause of
    three names; every literal and inner name is negated with
    probability 1/2.  At depth 1 a model is a valuation of the names at
    the root and the set of valuations its R-successors take, so the
    brute force tries all 8 * 2^8 of them.
    """

    def name() -> tuple[bool, int]:
        return rng.random() < 0.5, rng.randrange(3)

    def literal() -> tuple:
        negated = rng.random() < 0.5
        if rng.random() < 0.5:
            return negated, "name", rng.randrange(3)
        return negated, rng.choice(("exists", "forall")), (name(), name(), name())

    instance = [(literal(), literal(), literal()) for _ in range(clauses)]

    @cache
    def worlds(inner) -> int:
        """Bit v set: valuation v (bit i: name i true) satisfies ``inner``."""
        return sum(1 << v for v in range(8) if any(bool(v >> i & 1) != neg for neg, i in inner))

    def holds(lit, root: int, successors: int) -> bool:
        negated, kind, payload = lit
        if kind == "name":
            value = bool(root >> payload & 1)
        elif kind == "exists":
            value = bool(successors & worlds(payload))
        else:
            value = not successors & ~worlds(payload) & 0xFF
        return value != negated

    satisfiable = any(
        all(any(holds(lit, root, successors) for lit in clause) for clause in instance)
        for root in range(8)
        for successors in range(256)
    )

    def text(lit) -> str:
        negated, kind, payload = lit
        if kind == "name":
            body = "ABC"[payload]
        else:
            body = f"{kind} R.(" + " | ".join(("!" if n else "") + "ABC"[i] for n, i in payload) + ")"
        return ("!" if negated else "") + body

    return " & ".join("(" + " | ".join(map(text, c)) + ")" for c in instance), satisfiable
