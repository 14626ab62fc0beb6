"""Clause-set decision procedure with backjumping and trace recording.

Rule systems
    basic      A1, A2, A3
    optimized  A1+, A2+, A3

A1 collapses a chosen clause to one of its literals.  A1+ additionally
collapses every clause containing the chosen literal and deletes the
complementary literal from every clause containing it.  A2 consumes a
universal literal: clauses containing it are removed and its body is
merged into the body of every same-role existential literal.  A2+ is the
same transformation gated on every clause being a unit.  A3 applies when
a member consists solely of name units and existential units: one
existential unit is removed and its body becomes a new member, linked by
a role-labeled edge.

Scheduling (the deterministic order that makes traces reproducible):
members are visited in index order; within a member the first non-unit
clause in canonical order is the A1/A1+ target, branching over its
literals in canonical order; once all clauses are units, A2/A2+ fires on
the first universal unit; then A3 peels the first existential unit.  The
only backtracking choice points are the A1/A1+ literal picks (plus the
universal picks under ``a2_anywhere``, an option of basic only, which
enables consuming a universal literal sitting inside a non-unit clause
and discarding its siblings).  A3 target order is fixed: peeling
commutes, each existential spawns an independent child.

A family is complete when no rule applies to any member.  ``_plan``,
the scheduler above, is the only code that decides applicability, so
:func:`is_complete` is ``_plan`` finding no step, and
:func:`replay_trace` accepts a recorded step only when it is one of the
alternatives ``_plan`` offers at its parent.  A2+ and A3 apply only to
an all-unit member; a member holding the empty clause is not one.

A member is clashed when it contains the empty clause or two
complementary unit clauses (names, or ``exists R.F`` against
``forall R.CNF(!F)``); any clashed member prunes the whole node.  An
empty member (no clauses) is trivially satisfiable, never a clash.  The
search checks only the members a step changed (the rewritten member,
and for A3 the appended one): the parent was clash-free, and every other
member is the parent's own value.

Backjumping (dependency-directed backtracking, as in Horrocks &
Patel-Schneider 1999).  A choice point is a node on the current path
whose plan has several alternatives; it is named by its position on the
search stack, and a set of choice points is an int bitmask over those
positions.  Each node has, per member, a map from clause to the set of
choice points whose picks the clause was derived from; a missing entry
is the empty set, which is what every input clause has.  The maps of a
node are computed from its parent's only when a failure below needs
them, so a path that never fails costs no bookkeeping.  A step adds
entries only for the clauses it adds to a member, and copies that
member's map only then.  The sets are read off the rules' derivations,
the one place each member rule's transformation is written (one for A1
and A1+, one for A2 and A2+): each yields every clause of the result
with the clauses it comes from, and a clause a step adds gets the union
of their sets, plus ``c`` when the step is a pick at choice point ``c``.
Every clause of the member A3 peels off existential unit ``e`` gets the
set of ``e``.

A clash's set is the set of the empty clause, or the union of the sets
of the two complementary units.  The failure passes up the stack: at a
choice point not in its set, the point's untried alternatives are
skipped and the set passes on (a backjump); otherwise the set minus the
point is added to the point's accumulated set, and once its alternatives
are exhausted the point fails with that accumulated set plus the sets of
the clauses it branched on.  Sound because every clause is a
consequence of the input and of the picks its set names: a clash whose
set misses ``c`` is derived from picks all made above ``c``, which every
alternative of ``c`` keeps, so no subtree below ``c`` holds a complete
clash-free family (that family would be satisfiable, and satisfy the
picks on its path).  A cut subtree holds no witness, so the verdict and
the witness family are those of the chronological search, and the
recorded tree is that search's tree with unsatisfiable subtrees cut out.

Termination is witnessed by an executable measure: members are stratified
by maximum quantifier nesting depth, and per stratum the triple
(universal-literal occurrences, sum of clause sizes beyond one,
existential-unit count) is summed.  Comparing strata deepest-first, every
rule application strictly decreases the measure; :func:`decide_sat`
asserts this at each step, computing each node's measure once and
carrying it down as the parent measure of the next step.

Traces (format 2).  :func:`trace_to_json` writes a run as one JSON object:
``format`` (2), ``strategy``, ``options`` (``a2_anywhere``), ``verdict``,
``stats`` (the :class:`DecisionStats` fields), ``values``, ``nodes``,
``edges`` and ``clash_nodes``.  ``values`` is a value table: each
distinct literal, clause and clause set of the tree once, after the
values under it, each entry referring to earlier entries by index
(:class:`~alcsat.normal_form.ValueTable`).  A node's ``members`` and an
edge's ``clause`` and ``literal`` are indices into it, so a member the
nodes share, as a node shares all but one with its parent, is written
and decoded once.  :func:`decode_trace` reads the format back as the
search's own :class:`Verdict`, edges of :class:`RuleApplication` steps
and all, for :func:`replay_trace` and :func:`trace_to_dot`, and raises
:class:`TraceFormatError` on anything else, a trace of another format
or one without nodes included.

``decide_sat`` is a self-contained computation over immutable snapshots;
concurrent calls are safe and a run's trace is a deterministic function
of input, strategy and ``a2_anywhere``.  It keeps its own stack, so the
length of a derivation is not bounded by Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Iterator, Mapping
from types import MappingProxyType
from typing import NamedTuple, Optional

from alcsat.clause_model import Family, family_to_json, family_from_json
from alcsat.normal_form import (
    LITERAL_TYPES,
    Clause,
    ClauseSet,
    ExistsLit,
    ForallLit,
    Literal,
    Neg,
    Pos,
    ValueTable,
    clause_to_concept,
    complement,
    table_ref,
    values_from_json,
)
from alcsat.syntax import render_concept


class Strategy(Enum):
    BASIC = "basic"
    PLUS = "plus"


RULE_A1 = "A1"
RULE_A1_PLUS = "A1+"
RULE_A2 = "A2"
RULE_A2_PLUS = "A2+"
RULE_A3 = "A3"


class PreconditionError(ValueError):
    """A rule was applied outside its precondition."""


class NotAllUnitError(PreconditionError):
    """A2+/A3 require every clause of the member to be a unit."""


class UniversalPresentError(PreconditionError):
    """A3 requires the member to hold no universal unit."""


class NonUnitPresentError(NotAllUnitError):
    """A3 hit a clause that is not a unit."""


class TraceFormatError(ValueError):
    """The input to :func:`replay_trace` or :func:`trace_to_dot` is not
    a trace of the format :func:`trace_to_json` writes."""


class ResourceLimitError(Exception):
    """Node budget exhausted; verdict withheld.

    The partial derivation tree explored so far is available as ``tree``.
    """

    def __init__(self, max_nodes: int, tree: "DerivationTree") -> None:
        super().__init__(f"exceeded max_nodes={max_nodes}")
        self.max_nodes = max_nodes
        self.tree = tree


# --- Rule applications --------------------------------------------------

# A derivation: every clause of a rule's result, with the clauses of the
# member it comes from (none for a clause kept as it is).
Derivation = Iterator[tuple[Clause, tuple[Clause, ...]]]


def _derive_a1(f: ClauseSet, cl: Clause, lit: Literal, plus: bool) -> Derivation:
    """A1, or A1+ when ``plus``, picking ``lit`` in clause ``cl`` of
    ``f``.  The unit ``{lit}`` comes from ``cl``; under A1+ it also
    replaces every other clause holding ``lit``, and a clause holding
    its complement loses it and comes from itself and ``cl``."""
    unit = Clause((lit,))
    comp = complement(lit) if plus else None
    for c in f.clauses:
        if c is cl or (plus and lit in c.literals):
            yield unit, (cl,)
        elif plus and comp in c.literals:
            yield c.without(comp), (c, cl)
        else:
            yield c, ()


def _merged(c: Clause, univ: ForallLit) -> Clause:
    """``c`` with ``univ``'s body merged into each of its existential
    literals of ``univ``'s role (``c`` itself when it has none)."""
    role = univ.role
    if not any(isinstance(l, ExistsLit) and l.role == role for l in c.literals):
        return c
    return Clause(
        ExistsLit(role, univ.body.union(l.body))
        if isinstance(l, ExistsLit) and l.role == role
        else l
        for l in c.literals
    )


def _derive_a2(f: ClauseSet, univ: ForallLit, premise: Clause) -> Derivation:
    """A2 (and A2+) consuming ``univ`` from ``premise``, a clause of
    ``f`` holding it.  The clauses holding it go; a clause whose
    existentials of its role take its body comes from itself and
    ``premise``."""
    for c in f.clauses:
        if univ not in c.literals:
            merged = _merged(c, univ)
            yield merged, (() if merged is c else (c, premise))


def _check_a1_target(rule: str, f: ClauseSet, cl: Clause, lit: Literal) -> None:
    if cl not in f:
        raise PreconditionError("target clause not in clause set")
    if lit not in cl:
        raise PreconditionError("chosen literal not in target clause")
    if len(cl) < 2:
        raise PreconditionError(f"{rule} targets clauses with at least two literals")


def apply_a1(f: ClauseSet, cl: Clause, lit: Literal) -> ClauseSet:
    """Collapse clause ``cl`` to the chosen literal."""
    _check_a1_target(RULE_A1, f, cl, lit)
    return ClauseSet([c for c, _ in _derive_a1(f, cl, lit, False)])


def apply_a1_plus(f: ClauseSet, cl: Clause, lit: Literal) -> ClauseSet:
    """Collapse every clause containing the chosen literal and strip its
    complement everywhere (possibly leaving an empty clause)."""
    _check_a1_target(RULE_A1_PLUS, f, cl, lit)
    return ClauseSet([c for c, _ in _derive_a1(f, cl, lit, True)])


def apply_a2(f: ClauseSet, univ: Literal) -> ClauseSet:
    """Consume a universal literal: drop clauses holding it, merge its
    body into every same-role existential literal."""
    if not isinstance(univ, ForallLit):
        raise PreconditionError("A2 consumes a universal literal")
    premise = next((c for c in f.clauses if univ in c.literals), None)
    if premise is None:
        raise PreconditionError("universal literal does not occur")
    return ClauseSet([c for c, _ in _derive_a2(f, univ, premise)])


def apply_a2_plus(f: ClauseSet, univ_unit: Clause) -> ClauseSet:
    """A2 gated on an all-unit member; derives the same clauses as A2."""
    if any(len(c) != 1 for c in f):
        raise NotAllUnitError("A2+ requires every clause to be a unit")
    if univ_unit not in f or not univ_unit.is_unit:
        raise PreconditionError("target is not a unit clause of the member")
    lit = univ_unit.literals[0]
    if not isinstance(lit, ForallLit):
        raise PreconditionError("A2+ consumes a universal unit")
    return apply_a2(f, lit)


def apply_a3(fam: Family, i: int, ex_unit: Clause) -> Family:
    """Peel an existential unit off member ``i`` into a new member."""
    f = fam.members[i]
    for c in f:
        if len(c) != 1:
            raise NonUnitPresentError("A3 requires every clause to be a unit")
        if isinstance(c.literals[0], ForallLit):
            raise UniversalPresentError("A3 requires no universal unit")
    if ex_unit not in f or not ex_unit.is_unit:
        raise PreconditionError("target is not a unit clause of the member")
    lit = ex_unit.literals[0]
    if not isinstance(lit, ExistsLit):
        raise PreconditionError("A3 peels an existential unit")
    return fam.replace_member(i, f.without(ex_unit)).append_member(
        i, lit.role, lit.body
    )


# --- Clash ---------------------------------------------------------------


def _clashes(f: ClauseSet) -> Iterator[tuple[Clause, ...]]:
    """Every clash of ``f``, lazily: an empty clause as ``(clause,)``,
    then each pair of complementary unit clauses.  Name units pair by
    name; a quantified unit pairs with a unit holding its complement,
    so ``exists R.F`` meets ``forall R.CNF(!F)`` (structurally), and a
    pair complementary both ways comes twice."""
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


def is_clash(f: ClauseSet) -> bool:
    """True iff ``f`` holds the empty clause or a complementary pair of
    unit clauses: two name units ``A`` and ``!A``, or ``exists R.F``
    against ``forall R.CNF(!F)`` (structurally).  Stops at the first."""
    return next(_clashes(f), None) is not None


def _clash_deps(f: ClauseSet, deps: Mapping[Clause, int]) -> int:
    """Dependency set of the clash in the clashed member ``f``: the set
    of its empty clause, or the union of the sets of two complementary
    units.  Of several clashes, the least set as an integer, which is the
    one whose newest choice point is oldest: it jumps back furthest."""
    # A clash is one empty clause or two units: its first and last.
    return min(deps.get(clash[0], 0) | deps.get(clash[-1], 0) for clash in _clashes(f))


# --- Derivation trees and verdicts ---------------------------------------


class RuleApplication(NamedTuple):
    """One step of a derivation: the rule, and the member and clause it
    was applied to.  ``chosen_literal`` is the picked literal for A1/A1+
    and the consumed universal for A2/A2+; it is absent for A3.  A step
    ``_plan`` offers is a plain 4-tuple equal to its RuleApplication."""

    rule: str
    member_index: int
    target_clause: Clause
    chosen_literal: Optional[Literal]


class TraceEdge(NamedTuple):
    parent: int
    application: RuleApplication
    child: int


@dataclass(slots=True)
class DerivationTree:
    """Every family node the search visited, including clashed dead ends,
    in depth-first visit order (the root is node 0).

    The search backjumps, so this is not every alternative of every
    choice point: it is the chronological depth-first tree with the
    subtrees cut out that backjumping proved to hold no complete
    clash-free family."""

    nodes: list[Family] = field(default_factory=list)
    edges: list[TraceEdge] = field(default_factory=list)
    clash_nodes: list[int] = field(default_factory=list)


@dataclass(slots=True)
class DecisionStats:
    nodes_expanded: int
    clashes: int
    max_depth: int
    backjumps: int  # choice points whose untried alternatives were skipped


@dataclass(slots=True)
class Verdict:
    """A search's outcome and derivation, as :func:`decide_sat` returns it
    and :func:`decode_trace` reads it back.  A satisfiable verdict's
    witness is the tree's last node, where the search stopped."""

    satisfiable: bool
    witness: Optional[int]  # node index of the complete clash-free family
    tree: DerivationTree
    stats: DecisionStats
    strategy: Strategy  # the rule system and option the search ran with
    a2_anywhere: bool

    @property
    def witness_family(self) -> Family:
        if self.witness is None:
            raise ValueError("no witness on an unsatisfiable verdict")
        return self.tree.nodes[self.witness]


# --- Termination measure --------------------------------------------------


def family_measure(fam: Family, depth_bound: int) -> tuple:
    """Lexicographic termination measure, strata by member depth
    (deepest first), each stratum a componentwise sum of
    (universal occurrences, excess clause width, existential units)."""
    strata = [[0, 0, 0] for _ in range(depth_bound + 1)]
    for m in fam.members:
        d = m.depth
        if d > depth_bound:
            raise ValueError("member exceeds the run's depth bound")
        row = strata[d]
        for c in m.clauses:
            lits = c.literals
            for l in lits:
                if isinstance(l, ForallLit):
                    row[0] += 1
            if len(lits) >= 2:
                row[1] += len(lits) - 1
            elif lits and isinstance(lits[0], ExistsLit):
                row[2] += 1
    return tuple(tuple(strata[d]) for d in range(depth_bound, -1, -1))


# --- Search ----------------------------------------------------------------


Step = tuple[str, int, Clause, Optional[Literal]]  # a step's RuleApplication fields


def _plan(fam: Family, strategy: Strategy, a2_anywhere: bool) -> Optional[list[Step]]:
    """Alternatives for the next step, or None when no rule applies.

    This is the only code that decides which rule applies where; a
    family is complete exactly when it returns None.  A list with
    several entries is a backtracking choice point; the alternatives are
    tried in order.
    """
    basic = strategy is Strategy.BASIC
    a1_rule = RULE_A1 if basic else RULE_A1_PLUS
    a2_rule = RULE_A2 if basic else RULE_A2_PLUS
    for i, f in enumerate(fam.members):
        univs: list[Clause] = []
        ex: Optional[Clause] = None
        all_unit = True  # A2+ and A3 need it; only the empty clause breaks it here
        for c in f.clauses:
            lits = c.literals
            if len(lits) == 1:
                if isinstance(lits[0], ForallLit):
                    univs.append(c)
                elif ex is None and isinstance(lits[0], ExistsLit):
                    ex = c
            elif lits:
                alts: list[Step] = [(a1_rule, i, c, lit) for lit in lits]
                if a2_anywhere:
                    holders: dict[Literal, Clause] = {}
                    for d in f.clauses:
                        for lit in d.literals:
                            if isinstance(lit, ForallLit):
                                holders.setdefault(lit, d)
                    alts.extend((RULE_A2, i, d, lit) for lit, d in holders.items())
                return alts
            else:
                all_unit = False
        if univs and (basic or all_unit):
            if a2_anywhere:
                return [(RULE_A2, i, u, u.literals[0]) for u in univs]
            return [(a2_rule, i, univs[0], univs[0].literals[0])]
        if ex is not None and all_unit:
            return [(RULE_A3, i, ex, None)]
    return None


def is_complete(fam: Family, strategy: Strategy) -> bool:
    """True iff no rule of the strategy's system applies to any member."""
    return _plan(fam, strategy, False) is None


def _apply_planned(fam: Family, step: Step) -> Family:
    """The family ``step`` makes of ``fam``."""
    rule, member, target, lit = step
    if rule == RULE_A1:
        return fam.replace_member(member, apply_a1(fam.members[member], target, lit))
    if rule == RULE_A1_PLUS:
        return fam.replace_member(member, apply_a1_plus(fam.members[member], target, lit))
    if rule == RULE_A2:
        return fam.replace_member(member, apply_a2(fam.members[member], lit))
    if rule == RULE_A2_PLUS:
        return fam.replace_member(member, apply_a2_plus(fam.members[member], target))
    if rule == RULE_A3:
        return apply_a3(fam, member, target)
    raise ValueError(f"unknown rule {rule!r}")


# The dependency map of a member none of whose clauses depends on a pick.
_NO_DEPS: Mapping[Clause, int] = MappingProxyType({})


def _child_deps(fam: Family, deps: tuple, step: Step, pick: int) -> tuple:
    """Dependency maps of the family ``step`` makes from ``fam``, whose
    maps are ``deps``; ``pick`` is the bit of ``fam``'s choice point, 0
    when its step is forced.  Read off the rule's derivation: each
    clause an A1/A1+/A2/A2+ step adds to its member gets ``pick`` and
    the sets of the clauses it comes from (those of its first
    derivation, when several clauses yield it); a clause the member
    already holds keeps its own.  Only a map that gains entries is
    copied."""
    rule, member, target, lit = step
    old = deps[member]
    if rule == RULE_A3:
        peeled = old.get(target, 0)
        body = target.literals[0].body
        return deps + ((dict.fromkeys(body.clauses, peeled) if peeled else _NO_DEPS),)
    if not (pick or old):
        return deps  # a forced step among empty sets adds none
    f = fam.members[member]
    if rule == RULE_A1 or rule == RULE_A1_PLUS:
        derivation = _derive_a1(f, target, lit, rule == RULE_A1_PLUS)
    else:
        derivation = _derive_a2(f, lit, target)
    fresh: dict[Clause, int] = {}
    for c, sources in derivation:
        if sources and c not in fresh and c not in f:
            fresh[c] = pick
            for s in sources:
                fresh[c] |= old.get(s, 0)
    if not fresh:
        return deps
    return deps[:member] + ({**old, **fresh},) + deps[member + 1:]


def decide_sat(
    f: ClauseSet,
    strategy: Strategy = Strategy.PLUS,
    *,
    max_nodes: int = 1_000_000,
    a2_anywhere: bool = False,
) -> Verdict:
    """Decide satisfiability of a clause set by depth-first search over
    the derivation tree, backjumping over choice points a clash does not
    depend on.

    Returns a satisfiable verdict with the first complete clash-free
    family found, or an unsatisfiable one once every branch is closed.
    The tree records every visited node including clashed dead ends.
    Raises :class:`ValueError` when ``a2_anywhere`` is asked of a
    strategy other than basic, :class:`ResourceLimitError` once more
    than ``max_nodes`` families have been materialized, and
    :class:`~alcsat.normal_form.ClauseBudgetError` when a complement it
    takes would exceed the clause budget.
    """
    if a2_anywhere and strategy is not Strategy.BASIC:
        raise ValueError("a2_anywhere applies to the basic strategy only")
    root = Family((f,))
    tree = DerivationTree(nodes=[root])
    depth_bound = f.depth
    max_depth_seen = 0
    backjumps = 0
    witness: Optional[int] = None
    # The search keeps its own stack, one entry per node on the current
    # path that has a plan: [node id, family, depth, measure, dependency
    # maps (None until computed), plan, index of the next alternative,
    # bit, accumulated set].  A derivation can be thousands of steps
    # long.  Each entry's node is the child of the entry below by that
    # entry's latest step.  The entry at stack position p has bit 1 << p
    # when its plan has several alternatives (a choice point), and 0
    # when its one step is forced.
    stack: list[list] = []

    def deps_at(level: int) -> tuple:
        """The dependency maps of the node at ``level`` on the current
        path: ``stack[level]``'s node, or at ``len(stack)`` the child the
        top entry's latest step made.  They are computed only once a
        failure needs them, down from the newest level that has them, so
        a path that never fails costs nothing."""
        i = min(level, len(stack) - 1)
        while stack[i][4] is None:
            i -= 1
        deps = stack[i][4]
        while i < level:
            _, fam, _, _, _, plan, k, bit, _ = stack[i]
            deps = _child_deps(fam, deps, plan[k - 1], bit)
            i += 1
            if i < len(stack):
                stack[i][4] = deps
        return deps

    # ``changed``: the members the step into this node rewrote or
    # appended.  The parent was clash-free and every other member is the
    # parent's own value, so only these can clash.
    pending: Optional[tuple] = (0, root, 0, (0,), family_measure(root, depth_bound))
    # The dependency set of the failure being passed up, or None while
    # the search goes down.
    conflict: Optional[int] = None
    while pending is not None:
        node_id, fam, depth, changed, measure = pending
        pending = None
        max_depth_seen = max(max_depth_seen, depth)
        members = fam.members
        for i in changed:
            if is_clash(members[i]):
                tree.clash_nodes.append(node_id)
                deps = deps_at(len(stack))[i] if stack else _NO_DEPS
                conflict = _clash_deps(members[i], deps)
                break
        else:
            plan = _plan(fam, strategy, a2_anywhere)
            if plan is None:
                witness = node_id
                break
            bit = 1 << len(stack) if len(plan) > 1 else 0
            deps = None if stack else (_NO_DEPS,)
            stack.append([node_id, fam, depth, measure, deps, plan, 0, bit, 0])
        while pending is None and stack:
            entry = stack[-1]
            node_id, fam, depth, measure, _, plan, k, bit, acc = entry
            if conflict is not None:
                if not conflict & bit:
                    # The failure does not depend on this point's pick,
                    # so each other alternative fails the same way.
                    if k < len(plan):
                        backjumps += 1
                    stack.pop()
                    continue
                entry[8] = acc = acc | (conflict ^ bit)
                conflict = None
            if k == len(plan):
                # Every alternative failed: because of the picks behind
                # the failures, and of those behind the branched clauses.
                deps = deps_at(len(stack) - 1)
                stack.pop()
                conflict = acc
                for _, member, target, _ in plan:
                    conflict |= deps[member].get(target, 0)
                continue
            entry[6] = k + 1
            step = plan[k]
            child = _apply_planned(fam, step)
            child_measure = family_measure(child, depth_bound)
            assert child_measure < measure, "termination measure failed to decrease"
            if len(tree.nodes) >= max_nodes:
                raise ResourceLimitError(max_nodes, tree)
            child_id = len(tree.nodes)
            tree.nodes.append(child)
            app = RuleApplication(*step)
            tree.edges.append(TraceEdge(node_id, app, child_id))
            if app.rule == RULE_A3:
                child_changed = (app.member_index, len(child.members) - 1)
            else:
                child_changed = (app.member_index,)
            pending = (child_id, child, depth + 1, child_changed, child_measure)
    stats = DecisionStats(
        nodes_expanded=len(tree.nodes),
        clashes=len(tree.clash_nodes),
        max_depth=max_depth_seen,
        backjumps=backjumps,
    )
    return Verdict(witness is not None, witness, tree, stats, strategy, a2_anywhere)


def witness_path(verdict: Verdict) -> list[tuple[Family, Optional[RuleApplication]]]:
    """Root-to-witness node sequence with the application that produced
    each node (None for the root)."""
    if not verdict.satisfiable or verdict.witness is None:
        raise ValueError("witness path exists only for satisfiable verdicts")
    by_child = {e.child: e for e in verdict.tree.edges}
    path: list[tuple[Family, Optional[RuleApplication]]] = []
    node = verdict.witness
    while node in by_child:
        edge = by_child[node]
        path.append((verdict.tree.nodes[node], edge.application))
        node = edge.parent
    path.append((verdict.tree.nodes[node], None))
    path.reverse()
    return path


# --- Trace serialization and replay ----------------------------------------

#: The trace format :func:`trace_to_json` writes and the only one read.
TRACE_FORMAT = 2


def trace_to_json(verdict: Verdict, strategy: Strategy) -> dict:
    """The verdict's derivation as a format-2 trace (a JSON object).

    ``values`` is a value table (:class:`~alcsat.normal_form.ValueTable`)
    holding each literal, clause and clause set of the tree once; node
    ``members`` and edge ``clause`` / ``literal`` are indices into it.
    ``strategy``, ``options`` and ``stats`` record how the search ran
    and what it counted.  ``strategy`` must be the verdict's own: a
    trace under another rule system would not replay, so it raises
    :class:`ValueError`.
    """
    if strategy is not verdict.strategy:
        raise ValueError(f"cannot trace a {verdict.strategy.value} verdict as {strategy.value}")
    table = ValueTable()
    nodes = [family_to_json(n, table) for n in verdict.tree.nodes]
    edges = []
    for e in verdict.tree.edges:
        app = e.application
        lit = app.chosen_literal
        edges.append({
            "from": e.parent,
            "rule": app.rule,
            "member": app.member_index,
            "clause": table.index(app.target_clause),
            "literal": None if lit is None else table.index(lit),
            "to": e.child,
        })
    return {
        "format": TRACE_FORMAT,
        "strategy": strategy.value,
        "options": {"a2_anywhere": verdict.a2_anywhere},
        "verdict": "sat" if verdict.satisfiable else "unsat",
        "stats": {f: getattr(verdict.stats, f) for f in DecisionStats.__slots__},
        "values": table.entries,
        "nodes": nodes,
        "edges": edges,
        "clash_nodes": list(verdict.tree.clash_nodes),
    }


def _in_range(i: object, n: int) -> bool:
    return type(i) is int and 0 <= i < n


def decode_trace(trace: object) -> Verdict:
    """Decode and shape-check a trace :func:`trace_to_json` wrote, as the
    :class:`Verdict` it was written from.

    Its nodes hold the interned values, so they are the searched tree's
    own while it lives; a satisfiable trace's witness is its last node.
    Raises :class:`TraceFormatError` on anything else: not an object, a
    ``format`` other than 2 (or none), a missing field, an unknown
    strategy or verdict, ``a2_anywhere`` on a strategy other than basic,
    a malformed value table (see
    :func:`~alcsat.normal_form.values_from_json`), no node, an index
    into the table that is out of range or names a value of the wrong
    kind, and a node, member or clash-node index out of range.
    """
    if not isinstance(trace, dict):
        raise TraceFormatError(f"a trace is a JSON object, not {type(trace).__name__}")
    try:
        fmt = trace.get("format")
        if type(fmt) is not int or fmt != TRACE_FORMAT:
            raise ValueError(f"trace format {fmt!r}, not {TRACE_FORMAT}")
        strategy = Strategy(trace["strategy"])
        a2_anywhere = trace["options"]["a2_anywhere"]
        if type(a2_anywhere) is not bool:
            raise ValueError(f"option a2_anywhere is {a2_anywhere!r}, not a boolean")
        if a2_anywhere and strategy is not Strategy.BASIC:
            raise ValueError("a2_anywhere applies to the basic strategy only")
        if trace["verdict"] not in ("sat", "unsat"):
            raise ValueError(f"verdict {trace['verdict']!r} is neither 'sat' nor 'unsat'")
        stats = DecisionStats(**trace["stats"])
        if not all(type(getattr(stats, f)) is int for f in DecisionStats.__slots__):
            raise ValueError(f"stats {trace['stats']!r} are not all integers")
        values = values_from_json(trace["values"])
        tree = DerivationTree()
        nodes = tree.nodes
        for i, data in enumerate(trace["nodes"]):
            try:
                nodes.append(family_from_json(data, values))
            except ValueError as exc:
                raise ValueError(f"node {i}: {exc}") from None
        if not nodes:
            raise ValueError("a trace holds at least its root node")
        for e in trace["edges"]:
            parent, member, child, lit = e["from"], e["member"], e["to"], e["literal"]
            if not (
                _in_range(parent, len(nodes))
                and _in_range(child, len(nodes))
                and _in_range(member, len(nodes[parent].members))
            ):
                raise ValueError(
                    f"edge {parent!r}->{child!r} (member {member!r}): index out of range"
                )
            try:
                target = table_ref(values, e["clause"], Clause)
                if lit is not None:
                    lit = table_ref(values, lit, LITERAL_TYPES)
            except ValueError as exc:
                raise ValueError(f"edge {parent}->{child}: {exc}") from None
            app = RuleApplication(e["rule"], member, target, lit)
            tree.edges.append(TraceEdge(parent, app, child))
        tree.clash_nodes = list(trace["clash_nodes"])
    except KeyError as exc:
        raise TraceFormatError(f"missing field {exc}") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise TraceFormatError(str(exc)) from exc
    if not all(_in_range(i, len(nodes)) for i in tree.clash_nodes):
        raise TraceFormatError("clash node index out of range")
    sat = trace["verdict"] == "sat"
    return Verdict(sat, len(nodes) - 1 if sat else None, tree, stats, strategy, a2_anywhere)


def trace_to_dot(trace: dict) -> str:
    """Graphviz rendering: node label is the family index, edge label the
    rule plus its target; the recorded clash nodes are marked and the
    witness of a satisfiable trace doubly circled.  Raises
    :class:`TraceFormatError` as :func:`decode_trace` does."""
    verdict = decode_trace(trace)
    tree = verdict.tree
    clashes = set(tree.clash_nodes)
    lines = ["digraph derivation {", "  node [shape=circle];"]
    for i in range(len(tree.nodes)):
        attrs = [f'label="S{i}"']
        if i in clashes:
            attrs += ['xlabel="clash"', "style=dashed"]
        elif i == verdict.witness:
            attrs.append("shape=doublecircle")
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for e in tree.edges:
        app = e.application
        target = render_concept(clause_to_concept(app.target_clause))
        label = f"{app.rule} m{app.member_index}: {target}".replace('"', '\\"')
        lines.append(f'  n{e.parent} -> n{e.child} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def replay_trace(trace: dict) -> list[str]:
    """Check every recorded step of a format-2 trace against the scheduler
    and re-apply it.

    Returns a list of human-readable problems; an empty list means the
    trace is internally consistent: no edge leaves a clash node, each
    edge's step is one of the alternatives ``_plan`` offers at its
    parent under the recorded strategy and ``a2_anywhere``, re-applying
    it reproduces the child family, clash marks are exactly the clashed
    nodes, the verdict matches the recorded tree (a node is complete
    when its plan is empty, and a satisfiable trace's witness, its last
    node, is complete and clash-free), and the recorded stats count its
    nodes and clashes.  The checks read the :class:`Verdict`
    :func:`decode_trace` makes, the type the search wrote.  Raises
    :class:`TraceFormatError` as :func:`decode_trace` does, so a trace
    of another format is rejected, not replayed, and
    :class:`~alcsat.normal_form.ClauseBudgetError` when a clash check
    takes a complement over the clause budget.
    """
    verdict = decode_trace(trace)
    tree, strategy = verdict.tree, verdict.strategy.value
    nodes, clashes = tree.nodes, set(tree.clash_nodes)
    plans = [
        None if i in clashes else _plan(fam, verdict.strategy, verdict.a2_anywhere)
        for i, fam in enumerate(nodes)
    ]
    problems: list[str] = []
    for parent, app, child in tree.edges:
        if parent in clashes:
            problems.append(f"edge {parent}->{child}: leaves a clash node")
        elif app not in (plans[parent] or ()):
            problems.append(f"edge {parent}->{child}: not a step the {strategy} scheduler offers")
        elif _apply_planned(nodes[parent], app) != nodes[child]:
            problems.append(f"edge {parent}->{child}: replayed family differs from recorded one")
    bad_edges = len(problems)
    # Nodes share most members with their parents: check each value once.
    clash_of: dict[ClauseSet, bool] = {}
    for i, fam in enumerate(nodes):
        clashed = False
        for m in fam.members:
            c = clash_of.get(m)
            if c is None:
                c = clash_of[m] = is_clash(m)
            clashed = clashed or c
        if clashed != (i in clashes):
            # Clash marks are only recorded for visited nodes, and every
            # recorded node was visited, so this is a hard mismatch.
            problems.append(f"node {i}: clash mark disagrees with family content")
    has_open_complete = any(p is None and i not in clashes for i, p in enumerate(plans))
    if verdict.satisfiable and not has_open_complete:
        problems.append("verdict sat but no complete clash-free node recorded")
    elif verdict.satisfiable and not bad_edges and (plans[-1] or verdict.witness in clashes):
        # A bad edge can put a node after the witness: that edge is reported.
        problems.append(
            f"verdict sat but its last node, {verdict.witness}, is not complete and clash-free"
        )
    if not verdict.satisfiable and has_open_complete:
        problems.append("verdict unsat but a complete clash-free node exists")
    stats = verdict.stats
    if stats.nodes_expanded != len(nodes):
        problems.append(f"stats: {stats.nodes_expanded} nodes expanded, {len(nodes)} recorded")
    if stats.clashes != len(clashes):
        problems.append(f"stats: {stats.clashes} clashes, {len(clashes)} clash nodes recorded")
    return problems
