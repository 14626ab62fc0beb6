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
only backtracking choice points are the A1/A1+ literal picks: which rule
fires next is a don't-care choice (a complete clash-free family is
reachable under any order if one exists), so the order is fixed.  A3
target order is fixed too: peeling commutes, each existential spawns an
independent child.

A family is complete when no rule applies to any member.  ``_plan``,
the scheduler above, is the only code that decides applicability: a
family is complete exactly when it offers no step, and
:func:`replay_trace` accepts a recorded step only when it is one of the
alternatives ``_plan`` offers at its parent.  A step's change, what it
takes out of its member and what it puts in (``_change``), is the one
place each member rule's transformation is written.  ``_apply_planned``
is the only code that builds a child, by editing the sorted member with
that change, for the search, decoding and replay alike, and checks
nothing ``_plan`` has decided.  A2+ and A3 apply only
to an all-unit member; a member holding the empty clause is not one.

A member is clashed when it contains the empty clause or two
complementary unit clauses (names, or ``exists R.F`` against
``forall R.CNF(!F)``); any clashed member prunes the whole node.  An
empty member (no clauses) is trivially satisfiable, never a clash.  The
check pairs name units by name, and complements a quantified unit only
when another quantified unit has the complement's kind and role
(:func:`~alcsat.normal_form.complement_key`): a universal for an
existential, an existential for a universal.  So a complement over the
clause budget stops the search only where it could make a clash.  The
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
entries only for the clauses it puts into a member, and copies that
member's map only then.  The sets are read off the step's change, which
names each clause the step puts in with the clauses it comes from: such
a clause gets the union of their sets, plus ``c`` when the step is a
pick at choice point ``c``.  Every clause of the member A3 peels off
existential unit ``e`` gets the set of ``e``.

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
asserts this at each step.  It carries the measure down by delta: only
the rewritten member changes, and the appended one for A3, so a child's
measure is its parent's minus the rows of the clauses the step's change
takes out and plus those it puts in; a member whose depth changed moves
its whole row, and an appended member adds its whole row.
:func:`family_measure` is the full recomputation.

Traces (format 3).  :func:`trace_to_json` writes a run as one JSON object:
``format`` (3), ``strategy``, ``verdict``, ``stats`` (the
:class:`DecisionStats` fields), ``values``, ``root``, ``nodes`` and
``clash_nodes``.  ``values`` is the value table of the root clause set
(:class:`~alcsat.normal_form.ValueTable`) and ``root`` its index there.
The search is deterministic but for its A1/A1+ picks, so a trace
records only those: ``nodes[0]`` is ``null`` and ``nodes[i]`` is
``[parent, k]``, the node the ``k``-th alternative of its parent's plan
makes.  :func:`decode_trace` re-derives every node from the root, so
decoding is replaying and a trace cannot name a family the rules do
not derive.  It returns the search's own :class:`Verdict`, edges of
:class:`RuleApplication` steps and all, for :func:`replay_trace` and
:func:`trace_to_dot`, and raises :class:`TraceFormatError` on anything
else, a trace of another format, one without nodes and one with a step
its parent's plan does not hold included.

``decide_sat`` is a self-contained computation over immutable snapshots;
concurrent calls are safe and a run's trace is a deterministic function
of input and strategy.  It keeps its own stack, so the length of a
derivation is not bounded by Python's recursion limit.
"""

from __future__ import annotations

from enum import Enum
from collections.abc import Iterable, Iterator, Mapping
from types import MappingProxyType
from typing import NamedTuple, Optional

from alcsat.clause_model import Family
from alcsat.normal_form import (
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
    complement_key,
    table_ref,
    values_from_json,
)
from alcsat.syntax import _Record, render_concept


class Strategy(Enum):
    BASIC = "basic"
    PLUS = "plus"


RULE_A1 = "A1"
RULE_A1_PLUS = "A1+"
RULE_A2 = "A2"
RULE_A2_PLUS = "A2+"
RULE_A3 = "A3"


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

Step = tuple[str, int, Clause, Optional[Literal]]  # a step's RuleApplication fields

# What a step changes in its member: the clauses of the member that the
# rewritten member lacks, and each clause it has that the member lacks,
# with the clauses of the member it comes from.
Change = tuple[list[Clause], dict[Clause, tuple[Clause, ...]]]


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


def _change(f: ClauseSet, step: Step) -> Change:
    """``(out, into)``: what ``step``, an alternative of a plan on member
    ``f``, changes in ``f``.  ``out`` lists the clauses of ``f`` the
    rewritten member lacks, and ``into`` maps each clause it has and
    ``f`` lacks to the clauses of ``f`` it comes from (those of its
    first derivation in ``f``'s order, when several clauses yield it).
    This is the one place each member rule's transformation is written.

    A3 takes the peeled unit out.  A1 takes the target out and puts the
    unit of its pick in, from the target.  A1+ also replaces every other
    clause holding the pick by that unit, and takes the pick's
    complement out of every clause holding it; such a clause comes from
    itself and the target.  A2 and A2+ take the clauses holding the
    universal out and merge its body into the existentials of its role
    in every other clause; such a clause comes from itself and the
    clause holding the universal."""
    rule, _, target, lit = step
    if rule == RULE_A3:
        return [target], {}
    if rule == RULE_A1:
        unit = Clause((lit,))
        return [target], ({} if unit in f else {unit: (target,)})
    out: list[Clause] = []
    into: dict[Clause, tuple[Clause, ...]] = {}
    if rule == RULE_A1_PLUS:
        unit = Clause((lit,))
        # As in the clash check, a quantified pick's complement is taken
        # only when some literal of ``f`` has its kind and role.
        key = complement_key(lit)
        comp = None
        if type(lit) is Pos or type(lit) is Neg or any(
            l.key[:2] == key for c in f.clauses for l in c.literals
        ):
            comp = complement(lit)
        for c in f.clauses:
            if c is target or lit in c.literals:
                new, sources = unit, (target,)
            elif comp is not None and comp in c.literals:
                new, sources = c.without(comp), (c, target)
            else:
                continue
            if new is not c:
                out.append(c)
                into.setdefault(new, sources)
    else:
        for c in f.clauses:
            if lit in c.literals:
                out.append(c)
            else:
                new = _merged(c, lit)
                if new is not c:
                    out.append(c)
                    into.setdefault(new, (c, target))
    # A clause the step yields that ``f`` holds is kept, not put in.  It
    # is never one the step takes out: the step would keep each clause
    # it yields, were it in ``f``.
    return out, {c: sources for c, sources in into.items() if c not in f}


def _apply_planned(fam: Family, step: Step) -> tuple[Family, Change]:
    """The family ``step`` makes of ``fam``, where ``step`` is an
    alternative of ``fam``'s plan, and the step's change of its member:
    ``_plan`` has decided that it applies, so this checks nothing.  The
    rewritten member is its sorted parent edited by the change; A3 also
    appends the peeled existential's body as a new member."""
    rule, i, target, _ = step
    f = fam.members[i]
    change = _change(f, step)
    child = fam.replace_member(i, f.edit(*change))
    if rule == RULE_A3:
        ex = target.literals[0]
        child = child.append_member(i, ex.role, ex.body)
    return child, change


# --- Clash ---------------------------------------------------------------


def _clashes(f: ClauseSet) -> Iterator[tuple[Clause, ...]]:
    """Every clash of ``f``, lazily: an empty clause as ``(clause,)``,
    then each pair of complementary unit clauses.  Name units pair by
    name; a quantified unit pairs with a unit holding its complement,
    so ``exists R.F`` meets ``forall R.CNF(!F)`` (structurally), and a
    pair complementary both ways comes twice.  The complement is taken
    only when some quantified unit has its kind and role."""
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
    if quantified:
        present = {lit.key[:2] for lit in quantified}
        for lit, c in quantified.items():
            if complement_key(lit) in present:
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


class DerivationTree(_Record):
    """Every family node the search visited, including clashed dead ends,
    in depth-first visit order (the root is node 0).

    The search backjumps, so this is not every alternative of every
    choice point: it is the chronological depth-first tree with the
    subtrees cut out that backjumping proved to hold no complete
    clash-free family."""

    __slots__ = ("nodes", "edges", "clash_nodes")

    def __init__(
        self,
        nodes: Optional[list[Family]] = None,
        edges: Optional[list[TraceEdge]] = None,
        clash_nodes: Optional[list[int]] = None,
    ) -> None:
        self.nodes = [] if nodes is None else nodes
        self.edges = [] if edges is None else edges
        self.clash_nodes = [] if clash_nodes is None else clash_nodes


class DecisionStats(_Record):
    # The trace writes these fields in this order.
    __slots__ = ("nodes_expanded", "clashes", "max_depth", "backjumps")

    def __init__(self, nodes_expanded: int, clashes: int, max_depth: int, backjumps: int) -> None:
        self.nodes_expanded = nodes_expanded
        self.clashes = clashes
        self.max_depth = max_depth
        self.backjumps = backjumps  # choice points whose untried alternatives were skipped


class Verdict(_Record):
    """A search's outcome and derivation, as :func:`decide_sat` returns it
    and :func:`decode_trace` reads it back.  A satisfiable verdict's
    witness is the tree's last node, where the search stopped."""

    __slots__ = ("satisfiable", "witness", "tree", "stats", "strategy")

    def __init__(
        self,
        satisfiable: bool,
        witness: Optional[int],
        tree: DerivationTree,
        stats: DecisionStats,
        strategy: Strategy,
    ) -> None:
        self.satisfiable = satisfiable
        self.witness = witness  # node index of the complete clash-free family
        self.tree = tree
        self.stats = stats
        self.strategy = strategy  # the rule system the search ran with

    @property
    def witness_family(self) -> Family:
        if self.witness is None:
            raise ValueError("no witness on an unsatisfiable verdict")
        return self.tree.nodes[self.witness]


# --- Termination measure --------------------------------------------------


def _add_row(strata: list, k: int, clauses: Iterable[Clause], sign: int = 1) -> None:
    """Add ``sign`` times the row of ``clauses`` to ``strata[k]``: the
    componentwise sum of (universal occurrences, excess clause width,
    existential units) over them."""
    univ = width = ex = 0
    for c in clauses:
        lits = c.literals
        for l in lits:
            if isinstance(l, ForallLit):
                univ += 1
        if len(lits) >= 2:
            width += len(lits) - 1
        elif lits and isinstance(lits[0], ExistsLit):
            ex += 1
    u, w, e = strata[k]
    strata[k] = (u + sign * univ, w + sign * width, e + sign * ex)


def family_measure(fam: Family, depth_bound: int) -> tuple:
    """Lexicographic termination measure, strata by member depth
    (deepest first), each stratum a componentwise sum of
    (universal occurrences, excess clause width, existential units)."""
    strata = [(0, 0, 0)] * (depth_bound + 1)
    for m in fam.members:
        if m.depth > depth_bound:
            raise ValueError("member exceeds the run's depth bound")
        _add_row(strata, depth_bound - m.depth, m.clauses)
    return tuple(strata)


def _measure_after(
    measure: tuple, depth_bound: int, fam: Family, child: Family, i: int, change: Change
) -> tuple:
    """``family_measure(child, depth_bound)``, where ``child`` is the
    family a step on member ``i`` of ``fam`` makes with ``change``,
    moved from ``measure``, ``fam``'s.  The member's stratum loses the
    rows of the clauses the change takes out and gains those of the
    clauses it puts in; a member whose depth changed moves its whole row
    instead.  A member the step appends (A3's) adds its whole row."""
    old, new = fam.members[i], child.members[i]
    strata = list(measure)
    if old.depth != new.depth:
        _add_row(strata, depth_bound - old.depth, old.clauses, -1)
        _add_row(strata, depth_bound - new.depth, new.clauses)
    else:
        k = depth_bound - new.depth
        _add_row(strata, k, change[0], -1)
        _add_row(strata, k, change[1])
    for appended in child.members[len(fam.members):]:
        _add_row(strata, depth_bound - appended.depth, appended.clauses)
    return tuple(strata)


# --- Search ----------------------------------------------------------------


def _plan(fam: Family, strategy: Strategy) -> Optional[list[Step]]:
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
        univ: Optional[Clause] = None
        ex: Optional[Clause] = None
        all_unit = True  # A2+ and A3 need it; only the empty clause breaks it here
        for c in f.clauses:
            lits = c.literals
            if len(lits) == 1:
                if univ is None and isinstance(lits[0], ForallLit):
                    univ = c
                elif ex is None and isinstance(lits[0], ExistsLit):
                    ex = c
            elif lits:
                return [(a1_rule, i, c, lit) for lit in lits]
            else:
                all_unit = False
        if univ is not None and (basic or all_unit):
            return [(a2_rule, i, univ, univ.literals[0])]
        if ex is not None and all_unit:
            return [(RULE_A3, i, ex, None)]
    return None


# The dependency map of a member none of whose clauses depends on a pick.
_NO_DEPS: Mapping[Clause, int] = MappingProxyType({})


def _child_deps(deps: tuple, step: Step, change: Change, pick: int) -> tuple:
    """Dependency maps of the family ``step`` makes with ``change`` from
    a family whose maps are ``deps``; ``pick`` is the bit of that
    family's choice point, 0 when its step is forced.  Read off the
    change: each clause an A1/A1+/A2/A2+ step puts into its member gets
    ``pick`` and the sets of the clauses it comes from; a clause the
    member already holds keeps its own.  Only a map that gains entries
    is copied."""
    rule, member, target, _ = step
    old = deps[member]
    if rule == RULE_A3:
        peeled = old.get(target, 0)
        body = target.literals[0].body
        return deps + ((dict.fromkeys(body.clauses, peeled) if peeled else _NO_DEPS),)
    into = change[1]
    if not (into and (pick or old)):
        return deps  # no clause put in, or a forced step among empty sets
    fresh: dict[Clause, int] = {}
    for c, sources in into.items():
        fresh[c] = pick
        for s in sources:
            fresh[c] |= old.get(s, 0)
    return deps[:member] + ({**old, **fresh},) + deps[member + 1:]


def decide_sat(
    f: ClauseSet,
    strategy: Strategy = Strategy.PLUS,
    *,
    max_nodes: int = 1_000_000,
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
    takes would exceed the clause budget.  Raises :class:`ValueError`
    when ``max_nodes`` is below 1, a budget that cannot hold the root.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, not {max_nodes}")
    root = Family((f,))
    tree = DerivationTree(nodes=[root])
    depth_bound = f.depth
    max_depth_seen = 0
    backjumps = 0
    witness: Optional[int] = None
    # The search keeps its own stack, one entry per node on the current
    # path that has a plan: [node id, family, measure, dependency maps
    # (None until computed), plan, index of the next alternative, bit,
    # accumulated set, change of the latest step].  A derivation can be
    # thousands of steps long.  Each entry's node is the child of the
    # entry below by that entry's latest step, so the node being visited
    # is at depth ``len(stack)``.  The entry at stack position p has bit
    # 1 << p when its plan has several alternatives (a choice point), and
    # 0 when its one step is forced.
    stack: list[list] = []

    def deps_at(level: int) -> tuple:
        """The dependency maps of the node at ``level`` on the current
        path: ``stack[level]``'s node, or at ``len(stack)`` the child the
        top entry's latest step made.  They are computed only once a
        failure needs them, down from the newest level that has them, so
        a path that never fails costs nothing."""
        i = min(level, len(stack) - 1)
        while stack[i][3] is None:
            i -= 1
        deps = stack[i][3]
        while i < level:
            _, _, _, _, plan, k, bit, _, change = stack[i]
            deps = _child_deps(deps, plan[k - 1], change, bit)
            i += 1
            if i < len(stack):
                stack[i][3] = deps
        return deps

    # ``changed``: the members the step into this node rewrote or
    # appended.  The parent was clash-free and every other member is the
    # parent's own value, so only these can clash.
    pending: Optional[tuple] = (0, root, (0,), family_measure(root, depth_bound))
    # The dependency set of the failure being passed up, or None while
    # the search goes down.
    conflict: Optional[int] = None
    while pending is not None:
        node_id, fam, changed, measure = pending
        pending = None
        max_depth_seen = max(max_depth_seen, len(stack))
        members = fam.members
        for i in changed:
            if is_clash(members[i]):
                tree.clash_nodes.append(node_id)
                deps = deps_at(len(stack))[i] if stack else _NO_DEPS
                conflict = _clash_deps(members[i], deps)
                break
        else:
            plan = _plan(fam, strategy)
            if plan is None:
                witness = node_id
                break
            bit = 1 << len(stack) if len(plan) > 1 else 0
            deps = None if stack else (_NO_DEPS,)
            stack.append([node_id, fam, measure, deps, plan, 0, bit, 0, None])
        while pending is None and stack:
            entry = stack[-1]
            node_id, fam, measure, _, plan, k, bit, acc, _ = entry
            if conflict is not None:
                if not conflict & bit:
                    # The failure does not depend on this point's pick,
                    # so each other alternative fails the same way.
                    if k < len(plan):
                        backjumps += 1
                    stack.pop()
                    continue
                entry[7] = acc = acc | (conflict ^ bit)
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
            entry[5] = k + 1
            step = plan[k]
            child, change = _apply_planned(fam, step)
            entry[8] = change
            child_measure = _measure_after(measure, depth_bound, fam, child, step[1], change)
            assert child_measure < measure, "termination measure failed to decrease"
            if len(tree.nodes) >= max_nodes:
                raise ResourceLimitError(max_nodes, tree)
            child_id = len(tree.nodes)
            tree.nodes.append(child)
            tree.edges.append(TraceEdge(node_id, RuleApplication(*step), child_id))
            child_changed = (step[1], *range(len(fam.members), len(child.members)))
            pending = (child_id, child, child_changed, child_measure)
    stats = DecisionStats(
        nodes_expanded=len(tree.nodes),
        clashes=len(tree.clash_nodes),
        max_depth=max_depth_seen,
        backjumps=backjumps,
    )
    return Verdict(witness is not None, witness, tree, stats, strategy)


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
TRACE_FORMAT = 3


def trace_to_json(verdict: Verdict, strategy: Strategy) -> dict:
    """The verdict's derivation as a format-3 trace (a JSON object).

    ``values`` is the value table (:class:`~alcsat.normal_form.ValueTable`)
    of the root clause set and ``root`` its index there.  ``nodes[i]``
    is ``[parent, k]`` for each node past the root: the step that made
    it is alternative ``k`` of its parent's plan.  The search tries a
    node's alternatives in plan order, so ``k`` is the number of the
    node's earlier siblings.  ``strategy`` and ``stats`` record how the
    search ran and what it counted.  ``strategy`` must be the verdict's
    own: a trace under another rule system would not replay, so it
    raises :class:`ValueError`.
    """
    if strategy is not verdict.strategy:
        raise ValueError(f"cannot trace a {verdict.strategy.value} verdict as {strategy.value}")
    tree = verdict.tree
    table = ValueTable()
    root = table.index(tree.nodes[0].members[0])
    nodes: list = [None] * len(tree.nodes)
    siblings = [0] * len(tree.nodes)
    for parent, _, child in tree.edges:
        nodes[child] = [parent, siblings[parent]]
        siblings[parent] += 1
    return {
        "format": TRACE_FORMAT,
        "strategy": strategy.value,
        "verdict": "sat" if verdict.satisfiable else "unsat",
        "stats": {f: getattr(verdict.stats, f) for f in DecisionStats.__slots__},
        "values": table.entries,
        "root": root,
        "nodes": nodes,
        "clash_nodes": list(verdict.tree.clash_nodes),
    }


class _StepNotOffered(TraceFormatError):
    """A recorded choice that is not an alternative of its parent's plan,
    so the node it names cannot be derived."""


def _decode(trace: object) -> tuple[Verdict, dict[int, Optional[list[Step]]]]:
    """The :class:`Verdict` a trace records, each node re-derived from
    its parent's plan, and those plans by node (``None`` for a complete
    node).  Raises as :func:`decode_trace` says, :class:`_StepNotOffered`
    for a choice past its parent's plan."""
    if not isinstance(trace, dict):
        raise TraceFormatError(f"a trace is a JSON object, not {type(trace).__name__}")
    try:
        fmt = trace.get("format")
        if type(fmt) is not int or fmt != TRACE_FORMAT:
            raise ValueError(f"trace format {fmt!r}, not {TRACE_FORMAT}")
        strategy = Strategy(trace["strategy"])
        if trace["verdict"] not in ("sat", "unsat"):
            raise ValueError(f"verdict {trace['verdict']!r} is neither 'sat' nor 'unsat'")
        stats = DecisionStats(**trace["stats"])
        if not all(type(getattr(stats, f)) is int for f in DecisionStats.__slots__):
            raise ValueError(f"stats {trace['stats']!r} are not all integers")
        values = values_from_json(trace["values"])
        try:
            root = table_ref(values, trace["root"], ClauseSet)
        except ValueError as exc:
            raise ValueError(f"root: {exc}") from None
        choices = trace["nodes"]
        if not isinstance(choices, list) or not choices or choices[0] is not None:
            raise ValueError("a trace holds at least its root node, as null")
        for i in range(1, len(choices)):
            entry = choices[i]
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ValueError(f"node {i}: {entry!r} is not [parent, k]")
            parent, k = entry
            if not (type(parent) is int and type(k) is int and 0 <= parent < i and k >= 0):
                raise ValueError(f"node {i}: [parent, k] {entry!r} out of range")
        # The search appends a node's mark once, as it visits the node.
        clash_nodes = trace["clash_nodes"]
        if not (
            isinstance(clash_nodes, list)
            and all(type(i) is int for i in clash_nodes)
            and all(a < b for a, b in zip([-1] + clash_nodes, clash_nodes + [len(choices)]))
        ):
            raise ValueError("clash nodes are not strictly increasing node indices")
    except KeyError as exc:
        raise TraceFormatError(f"missing field {exc}") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise TraceFormatError(str(exc)) from exc
    tree = DerivationTree(nodes=[Family((root,))], clash_nodes=list(clash_nodes))
    nodes = tree.nodes
    plans: dict[int, Optional[list[Step]]] = {}
    for child in range(1, len(choices)):
        parent, k = choices[child]
        if parent not in plans:
            plans[parent] = _plan(nodes[parent], strategy)
        plan = plans[parent]
        if plan is None or k >= len(plan):
            raise _StepNotOffered(
                f"edge {parent}->{child}: not a step the {strategy.value} scheduler offers"
            )
        nodes.append(_apply_planned(nodes[parent], plan[k])[0])
        tree.edges.append(TraceEdge(parent, RuleApplication(*plan[k]), child))
    sat = trace["verdict"] == "sat"
    return Verdict(sat, len(nodes) - 1 if sat else None, tree, stats, strategy), plans


def decode_trace(trace: object) -> Verdict:
    """Decode a trace :func:`trace_to_json` wrote, as the
    :class:`Verdict` it was written from, by re-deriving each node from
    the root with the recorded choices.

    Its nodes hold the interned values, so they are the searched tree's
    own while it lives; a satisfiable trace's witness is its last node.
    Raises :class:`TraceFormatError` on anything else: not an object, a
    ``format`` other than 3 (or none), a missing field, an unknown
    strategy or verdict, a malformed value table (see
    :func:`~alcsat.normal_form.values_from_json`), a ``root`` that is
    not a clause set's index, a ``nodes`` list that does not start with
    the root's ``null``, a node that is not ``[parent, k]`` with
    ``parent`` below its own index and ``k`` not negative, a ``k`` past
    its parent's plan (the parent complete included), and clash nodes
    that are not strictly increasing node indices.  Raises
    :class:`~alcsat.normal_form.ClauseBudgetError` when a step takes a
    complement over the clause budget.
    """
    return _decode(trace)[0]


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
    """Check a format-3 trace: re-derive every node from the recorded
    choices, and check the tree against the scheduler.

    Returns a list of human-readable problems; an empty list means the
    trace is internally consistent: each node's choice is an alternative
    of its parent's plan under the recorded strategy (replay stops at
    the first that is not, as the node it names cannot be built), no
    edge leaves a clash node, clash marks are exactly the clashed nodes,
    the verdict matches the recorded tree (a node is complete when its
    plan is empty, and a satisfiable trace's witness, its last node, is
    complete and clash-free), the choices out of every node that is
    neither clashed nor complete are 0, 1, ... in node order, a
    non-empty prefix of its plan (checked only when nothing before was
    reported, as any such problem can cut a node's steps short), and the
    recorded stats count its nodes and clashes.  A trace with a node's
    *last* refuted child deleted still replays: only a recorded reason
    for skipping an alternative could tell it from a backjump.  The
    checks read the :class:`Verdict` :func:`decode_trace` makes, the
    type the search wrote.  Raises :class:`TraceFormatError` as
    :func:`decode_trace` does, but for a choice past its parent's plan,
    so a trace of another format is rejected, not replayed, and
    :class:`~alcsat.normal_form.ClauseBudgetError` when a step or a
    clash check takes a complement over the clause budget.
    """
    try:
        verdict, planned = _decode(trace)
    except _StepNotOffered as exc:
        return [str(exc)]
    tree = verdict.tree
    nodes, clashes = tree.nodes, set(tree.clash_nodes)
    plans = [
        None if i in clashes else planned[i] if i in planned else _plan(fam, verdict.strategy)
        for i, fam in enumerate(nodes)
    ]
    problems = [
        f"edge {parent}->{child}: leaves a clash node"
        for parent, _, child in tree.edges
        if parent in clashes
    ]
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
    if not problems:
        # The search applies a node's alternatives in plan order, and a
        # backjump drops the untried rest at once.  With no problem so
        # far, every edge leaves a node that has a plan.  Each step is
        # the alternative its choice names, so the steps out of a node
        # are its plan's first ones exactly when its choices are 0, 1, ...
        taken: dict[int, list] = {i: [] for i, plan in enumerate(plans) if plan is not None}
        for parent, app, _ in tree.edges:
            taken[parent].append(app)
        for i, steps in taken.items():
            if not steps or plans[i][: len(steps)] != steps:
                problems.append(f"node {i}: its steps are not a non-empty prefix of its plan")
    stats = verdict.stats
    if stats.nodes_expanded != len(nodes):
        problems.append(f"stats: {stats.nodes_expanded} nodes expanded, {len(nodes)} recorded")
    if stats.clashes != len(clashes):
        problems.append(f"stats: {stats.clashes} clashes, {len(clashes)} clash nodes recorded")
    return problems
