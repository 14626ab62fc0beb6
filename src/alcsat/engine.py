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
universal picks under ``a2_anywhere``, which enables consuming a
universal literal sitting inside a non-unit clause and discarding its
siblings).  A3 target order is fixed: peeling commutes, each existential
spawns an independent child.

A family is complete when no rule applies to any member.  ``_plan``,
the scheduler above, is the only code that decides applicability, so
:func:`is_complete` is ``_plan`` finding no step.  A2+ and A3 apply only
to an all-unit member; a member holding the empty clause is not one.

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
member's map only then:

- the unit an A1/A1+ pick at ``c`` makes from ``cl``: ``deps(cl) | c``;
- a clause A1+ strips the complement from, ``d``: ``deps(d) | deps(cl)
  | c``;
- a clause whose existentials A2/A2+ merge the universal of clause
  ``u`` into, ``d``: ``deps(d) | deps(u)``, and ``| c`` when the step is
  an ``a2_anywhere`` pick;
- every clause of the member A3 peels off existential unit ``e``:
  ``deps(e)``;
- a clause the member already holds keeps its own set.

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
and decoded once.  :func:`decode_trace` reads the format back for
:func:`replay_trace` and :func:`trace_to_dot`, and raises
:class:`TraceFormatError` on anything else, a trace of another format
included.

``decide_sat`` is a self-contained computation over immutable snapshots;
concurrent calls are safe and a run's trace is a deterministic function
of input, strategy and ``a2_anywhere``.  It keeps its own stack, so the
length of a derivation is not bounded by Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Mapping
from types import MappingProxyType
from typing import Optional

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


def apply_a1(f: ClauseSet, cl: Clause, lit: Literal) -> ClauseSet:
    """Collapse clause ``cl`` to the chosen literal."""
    if cl not in f:
        raise PreconditionError("target clause not in clause set")
    if lit not in cl:
        raise PreconditionError("chosen literal not in target clause")
    if len(cl) < 2:
        raise PreconditionError("A1 targets clauses with at least two literals")
    return ClauseSet(
        (Clause((lit,)) if c == cl else c) for c in f
    )


def apply_a1_plus(f: ClauseSet, cl: Clause, lit: Literal) -> ClauseSet:
    """Collapse every clause containing the chosen literal and strip its
    complement everywhere (possibly leaving an empty clause)."""
    if cl not in f:
        raise PreconditionError("target clause not in clause set")
    if lit not in cl:
        raise PreconditionError("chosen literal not in target clause")
    if len(cl) < 2:
        raise PreconditionError("A1+ targets clauses with at least two literals")
    comp = complement(lit)
    out = []
    for c in f:
        if lit in c:
            out.append(Clause((lit,)))
        elif comp in c:
            out.append(c.without(comp))
        else:
            out.append(c)
    return ClauseSet(out)


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


def apply_a2(f: ClauseSet, univ: Literal) -> ClauseSet:
    """Consume a universal literal: drop clauses holding it, merge its
    body into every same-role existential literal."""
    if not isinstance(univ, ForallLit):
        raise PreconditionError("A2 consumes a universal literal")
    if not any(univ in c for c in f):
        raise PreconditionError("universal literal does not occur")
    return ClauseSet(_merged(c, univ) for c in f if univ not in c)


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


def is_clash(f: ClauseSet) -> bool:
    """True iff ``f`` holds the empty clause or a complementary pair of
    unit clauses: two name units ``A`` and ``!A``, or ``exists R.F``
    against ``forall R.CNF(!F)`` (structurally)."""
    positive, negative, quantified = set(), set(), set()
    for c in f.clauses:
        lits = c.literals
        if not lits:
            return True
        if len(lits) == 1:
            lit = lits[0]
            if isinstance(lit, Pos):
                positive.add(lit.name)
            elif isinstance(lit, Neg):
                negative.add(lit.name)
            else:
                quantified.add(lit)
    if not positive.isdisjoint(negative):
        return True
    return any(complement(lit) in quantified for lit in quantified)


def _clash_deps(f: ClauseSet, deps: Mapping[Clause, int]) -> int:
    """Dependency set of the clash in the clashed member ``f``: the set
    of its empty clause, or the union of the sets of two complementary
    units.  Of several clashes, the least set as an integer, which is the
    one whose newest choice point is oldest: it jumps back furthest."""
    found: list[int] = []
    units: dict[Literal, Clause] = {}
    for c in f.clauses:
        lits = c.literals
        if not lits:
            found.append(deps.get(c, 0))
        elif len(lits) == 1:
            units[lits[0]] = c
    for lit, c in units.items():
        other = units.get(complement(lit))
        if other is not None:
            found.append(deps.get(c, 0) | deps.get(other, 0))
    return min(found)


# --- Derivation trees and verdicts ---------------------------------------


@dataclass(frozen=True, slots=True)
class RuleApplication:
    """One rule application: what was applied where, and the family it
    produced.  ``chosen_literal`` is the picked literal for A1/A1+ and
    the consumed universal for A2/A2+; it is absent for A3."""

    rule: str
    member_index: int
    target_clause: Clause
    chosen_literal: Optional[Literal]
    result: Family

    def __post_init__(self) -> None:
        if self.rule in (RULE_A1, RULE_A1_PLUS) and len(self.target_clause) < 2:
            raise ValueError("A1/A1+ target must have at least two literals")
        if self.rule in (RULE_A2, RULE_A2_PLUS) and not isinstance(
            self.chosen_literal, ForallLit
        ):
            raise ValueError("A2/A2+ consume a universal literal")
        if self.rule == RULE_A3:
            if self.chosen_literal is not None:
                raise ValueError("A3 records no chosen literal")
            if not (
                self.target_clause.is_unit
                and isinstance(self.target_clause.literals[0], ExistsLit)
            ):
                raise ValueError("A3 target must be an existential unit")


@dataclass(frozen=True, slots=True)
class TraceEdge:
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
    satisfiable: bool
    witness: Optional[int]  # node index of the complete clash-free family
    tree: DerivationTree
    stats: DecisionStats
    a2_anywhere: bool  # the option the search ran with

    @property
    def witness_family(self) -> Family:
        if self.witness is None:
            raise ValueError("no witness on an unsatisfiable verdict")
        return self.tree.nodes[self.witness]


# --- Termination measure --------------------------------------------------


def _clause_set_depth(f: ClauseSet) -> int:
    return f.depth


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


def _plan(
    fam: Family, strategy: Strategy, a2_anywhere: bool
) -> Optional[list[tuple[str, int, Clause, Optional[Literal]]]]:
    """Alternatives for the next step, or None when no rule applies.

    This is the only code that decides which rule applies where; a
    family is complete exactly when it returns None.  A list with
    several entries is a backtracking choice point; the alternatives are
    tried in order.
    """
    basic = strategy is Strategy.BASIC
    anywhere = a2_anywhere and basic
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
                alts: list[tuple[str, int, Clause, Optional[Literal]]] = [
                    (a1_rule, i, c, lit) for lit in lits
                ]
                if anywhere:
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
            if anywhere:
                return [(RULE_A2, i, u, u.literals[0]) for u in univs]
            return [(a2_rule, i, univs[0], univs[0].literals[0])]
        if ex is not None and all_unit:
            return [(RULE_A3, i, ex, None)]
    return None


def is_complete(fam: Family, strategy: Strategy) -> bool:
    """True iff no rule of the strategy's system applies to any member."""
    return _plan(fam, strategy, False) is None


def _apply_planned(
    fam: Family, rule: str, member: int, target: Clause, lit: Optional[Literal]
) -> Family:
    if rule == RULE_A1:
        return fam.replace_member(member, apply_a1(fam.members[member], target, lit))
    if rule == RULE_A1_PLUS:
        return fam.replace_member(
            member, apply_a1_plus(fam.members[member], target, lit)
        )
    if rule == RULE_A2:
        return fam.replace_member(member, apply_a2(fam.members[member], lit))
    if rule == RULE_A2_PLUS:
        return fam.replace_member(member, apply_a2_plus(fam.members[member], target))
    if rule == RULE_A3:
        return apply_a3(fam, member, target)
    raise ValueError(f"unknown rule {rule!r}")


# The dependency map of a member none of whose clauses depends on a pick.
_NO_DEPS: Mapping[Clause, int] = MappingProxyType({})


def _step_deps(
    rule: str, f: ClauseSet, deps: Mapping[Clause, int], target: Clause, lit: Literal, pick: int
) -> Mapping[Clause, int]:
    """Dependency map of member ``f`` after an A1/A1+/A2/A2+ step on it,
    ``pick`` the bit of the step's choice point (0 for a forced step).

    Only the clauses the step adds to ``f`` get an entry, each the set
    of the clauses it is derived from plus ``pick``; a clause ``f``
    already holds keeps its own.  Returns ``deps`` itself when the step
    adds no entry, and a copy otherwise.
    """
    fresh: dict[Clause, int] = {}
    if rule == RULE_A1 or rule == RULE_A1_PLUS:
        picked = deps.get(target, 0) | pick
        unit = Clause((lit,))
        if unit not in f:
            fresh[unit] = picked
        if rule == RULE_A1_PLUS:
            comp = complement(lit)
            for c in f.clauses:
                lits = c.literals
                if comp in lits and lit not in lits:
                    stripped = c.without(comp)
                    if stripped not in f:
                        fresh.setdefault(stripped, deps.get(c, 0) | picked)
    else:
        consumed = deps.get(target, 0) | pick
        for c in f.clauses:
            if lit not in c.literals:
                merged = _merged(c, lit)
                if merged is not c and merged not in f:
                    fresh.setdefault(merged, deps.get(c, 0) | consumed)
    if not fresh:
        return deps
    return {**deps, **fresh}


def _child_deps(fam: Family, deps: tuple, step: tuple, pick: int) -> tuple:
    """Dependency maps of the family ``step`` makes from ``fam``, whose
    maps are ``deps``; ``pick`` is the bit of ``fam``'s choice point, 0
    when its step is forced."""
    rule, member, target, lit = step
    if rule == RULE_A3:
        peeled = deps[member].get(target, 0)
        body = target.literals[0].body
        return deps + ((dict.fromkeys(body.clauses, peeled) if peeled else _NO_DEPS),)
    old = deps[member]
    if not (pick or old):
        return deps  # a forced step among empty sets adds none
    new = _step_deps(rule, fam.members[member], old, target, lit, pick)
    return deps if new is old else deps[:member] + (new,) + deps[member + 1:]


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
    Raises :class:`ResourceLimitError` once more than ``max_nodes``
    families have been materialized, and
    :class:`~alcsat.normal_form.ClauseBudgetError` when a complement it
    takes would exceed the clause budget.
    """
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
            rule, member, target, lit = plan[k]
            child = _apply_planned(fam, rule, member, target, lit)
            child_measure = family_measure(child, depth_bound)
            assert child_measure < measure, "termination measure failed to decrease"
            if len(tree.nodes) >= max_nodes:
                raise ResourceLimitError(max_nodes, tree)
            child_id = len(tree.nodes)
            tree.nodes.append(child)
            tree.edges.append(
                TraceEdge(node_id, RuleApplication(rule, member, target, lit, child), child_id)
            )
            if rule == RULE_A3:
                child_changed = (member, len(child.members) - 1)
            else:
                child_changed = (member,)
            pending = (child_id, child, depth + 1, child_changed, child_measure)
    stats = DecisionStats(
        nodes_expanded=len(tree.nodes),
        clashes=len(tree.clash_nodes),
        max_depth=max_depth_seen,
        backjumps=backjumps,
    )
    return Verdict(witness is not None, witness, tree, stats, a2_anywhere)


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
    ``options`` and ``stats`` record how the search ran and what it
    counted.
    """
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


@dataclass(frozen=True, slots=True)
class DecodedTrace:
    """A format-2 trace with its values decoded.  ``nodes`` hold the
    interned values, so they are the recorded tree's own while it lives.
    Each edge is (from, rule, member, clause, literal or None, to)."""

    strategy: Strategy
    a2_anywhere: bool
    satisfiable: bool
    stats: DecisionStats
    nodes: list[Family]
    edges: list[tuple[int, str, int, Clause, Optional[Literal], int]]
    clash_nodes: frozenset[int]


def _in_range(i: object, n: int) -> bool:
    return type(i) is int and 0 <= i < n


def decode_trace(trace: object) -> DecodedTrace:
    """Decode and shape-check a trace :func:`trace_to_json` wrote.

    Raises :class:`TraceFormatError` on anything else: not an object, a
    ``format`` other than 2 (or none), a missing field, an unknown
    strategy or verdict, a malformed value table (see
    :func:`~alcsat.normal_form.values_from_json`), an index into the
    table that is out of range or names a value of the wrong kind, and
    a node, member or clash-node index out of range.
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
        if trace["verdict"] not in ("sat", "unsat"):
            raise ValueError(f"verdict {trace['verdict']!r} is neither 'sat' nor 'unsat'")
        stats = DecisionStats(**trace["stats"])
        if not all(type(getattr(stats, f)) is int for f in DecisionStats.__slots__):
            raise ValueError(f"stats {trace['stats']!r} are not all integers")
        values = values_from_json(trace["values"])
        nodes = []
        for i, data in enumerate(trace["nodes"]):
            try:
                nodes.append(family_from_json(data, values))
            except ValueError as exc:
                raise ValueError(f"node {i}: {exc}") from None
        edges = []
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
            edges.append((parent, e["rule"], member, target, lit, child))
        clash_nodes = frozenset(trace["clash_nodes"])
    except KeyError as exc:
        raise TraceFormatError(f"missing field {exc}") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise TraceFormatError(str(exc)) from exc
    if not all(_in_range(i, len(nodes)) for i in clash_nodes):
        raise TraceFormatError("clash node index out of range")
    return DecodedTrace(
        strategy, a2_anywhere, trace["verdict"] == "sat", stats, nodes, edges, clash_nodes
    )


def trace_to_dot(trace: dict) -> str:
    """Graphviz rendering: node label is the family index, edge label the
    rule plus its target; clashed nodes are marked, complete clash-free
    ones doubly circled.  Raises :class:`TraceFormatError` as
    :func:`decode_trace` does."""
    decoded = decode_trace(trace)
    lines = ["digraph derivation {", "  node [shape=circle];"]
    for i, fam in enumerate(decoded.nodes):
        attrs = [f'label="S{i}"']
        if i in decoded.clash_nodes:
            attrs.append('xlabel="clash"')
            attrs.append("style=dashed")
        elif is_complete(fam, decoded.strategy) and not any(is_clash(m) for m in fam.members):
            attrs.append("shape=doublecircle")
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for parent, rule, member, target, _, child in decoded.edges:
        label = f"{rule} m{member}: {render_concept(clause_to_concept(target))}"
        label = label.replace('"', '\\"')
        lines.append(f'  n{parent} -> n{child} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def replay_trace(trace: dict) -> list[str]:
    """Re-apply every recorded step of a format-2 trace and cross-check it.

    Returns a list of human-readable problems; an empty list means the
    trace is internally consistent: each edge's rule application
    reproduces the child family (an A2 step on a clause of the member
    that holds its universal, and on a clause that is not a unit only
    under the recorded ``a2_anywhere``), clash marks are
    exactly the clashed nodes, the verdict matches the recorded tree,
    and the recorded stats count its nodes and clashes.  Raises
    :class:`TraceFormatError` as :func:`decode_trace` does, so a trace
    of another format is rejected, not replayed.
    """
    decoded = decode_trace(trace)
    nodes, clashes = decoded.nodes, decoded.clash_nodes
    problems: list[str] = []
    for parent, rule, member, target, lit, child in decoded.edges:
        if rule == RULE_A2:
            # apply_a2 reads only the universal, so check its clause here.
            if lit not in target or target not in nodes[parent].members[member]:
                problems.append(
                    f"edge {parent}->{child}: A2 target is not a clause of the member"
                    " holding the consumed universal"
                )
                continue
            if not target.is_unit and not decoded.a2_anywhere:
                problems.append(
                    f"edge {parent}->{child}: A2 on a clause that is not a unit needs a2_anywhere"
                )
                continue
        try:
            result = _apply_planned(nodes[parent], rule, member, target, lit)
        except (PreconditionError, ValueError) as exc:
            problems.append(f"edge {parent}->{child}: {exc}")
            continue
        if result != nodes[child]:
            problems.append(
                f"edge {parent}->{child}: replayed family differs from recorded one"
            )
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
    has_open_complete = any(
        i not in clashes and is_complete(fam, decoded.strategy)
        for i, fam in enumerate(nodes)
    )
    if decoded.satisfiable and not has_open_complete:
        problems.append("verdict sat but no complete clash-free node recorded")
    if not decoded.satisfiable and has_open_complete:
        problems.append("verdict unsat but a complete clash-free node exists")
    stats = decoded.stats
    if stats.nodes_expanded != len(nodes):
        problems.append(f"stats: {stats.nodes_expanded} nodes expanded, {len(nodes)} recorded")
    if stats.clashes != len(clashes):
        problems.append(f"stats: {stats.clashes} clashes, {len(clashes)} clash nodes recorded")
    return problems
