"""Tableau witnesses for clause sets: checking, extraction, and models.

A tableau for a clause set ``F`` is a triple of individuals, a labeling
of individuals with clause sets and clauses, and role edges, such that
some root individual carries ``F``.  :func:`check_tableau` verifies the
six well-formedness conditions (plus the strengthened clause condition
of the restricted variant used with the optimized rule system) and
reports each violation with its condition number, the individuals
involved, and the offending expression.

:func:`extract_tableau` builds a tableau from a satisfiable run: the
individuals are the member indices of the witness family, labels
accumulate each member's clause-set snapshots along the accepted
root-to-witness path (clashed dead ends are ignored), their clauses, and
the universal units consumed by A2/A2+ at that member.  Two closure
steps then complete the label sets so the checks hold for every
accumulated pair, not only for snapshot-simultaneous ones:

* merge closure: for a labeled universal unit and same-role existential
  unit, label the merged existential (their bodies' union);
* reduction closure: for a labeled unit ``{L}`` and labeled clause
  containing the complement of ``L``, label the clause without that
  complement.

Both additions hold in the model the tableau denotes (a consumed
universal's body reaches every role child created later, and a clause
true alongside ``L`` cannot be true via ``L``'s complement), so they
preserve the construction's soundness while making the accumulated label
sets closed.  Labels are subset-closed lazily: membership of a clause
set is tested against stored snapshots on demand instead of enumerating
the exponential family of subsets.  The empty clause set (the ``top``
encoding) counts as labeled everywhere.

Condition 1, the restricted condition 3 and the reduction closure use a
unit's complement only to look it up among an individual's labeled
literals.  So they take it only when some labeled literal there has the
complement's kind and name or role
(:func:`~alcsat.normal_form.complement_key`); a unit without one is
complementary to no labeled literal, and its complement is not built.

:func:`tableau_to_interpretation` reads off the finite model: the domain
is the individual set, a name's extension is the set of individuals
labeled with its positive unit, and role extensions are the edge sets.
:func:`eval_concept` evaluates any concept over such a model; names or
roles the model does not mention get the empty extension.
"""

from __future__ import annotations

from typing import Mapping, Union

from alcsat.engine import (
    RULE_A2,
    RULE_A2_PLUS,
    Verdict,
    witness_path,
)
from alcsat.normal_form import (
    Clause,
    ClauseSet,
    ExistsLit,
    ForallLit,
    Literal,
    Pos,
    clause_set_to_json,
    clause_to_json,
    complement,
    complement_key,
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
    _Frozen,
    _Record,
    _set,
)

LabelExpr = Union[ClauseSet, Clause]


class NotSatisfiableError(ValueError):
    """Tableau extraction requires a satisfiable verdict."""


class Interpretation(_Record):
    """A finite interpretation: domain, name extensions, role relations."""

    __slots__ = ("domain", "name_ext", "role_ext")

    def __init__(
        self,
        domain: frozenset,
        name_ext: Mapping[str, frozenset],
        role_ext: Mapping[str, frozenset],
    ) -> None:
        self.domain = domain
        self.name_ext = name_ext
        self.role_ext = role_ext

    def to_json(self) -> dict:
        return {
            "domain": sorted(self.domain),
            "names": {n: sorted(v) for n, v in sorted(self.name_ext.items())},
            "roles": {
                r: sorted([s, t] for (s, t) in pairs)
                for r, pairs in sorted(self.role_ext.items())
            },
        }


class CnfTableau(_Record):
    """Individuals, labels, and role edges; ``root`` carries the checked
    clause set.  ``subset_closed`` marks labels whose clause-set part is
    closed under non-empty subsets of the stored snapshots (tested
    lazily)."""

    __slots__ = ("individuals", "labels", "role_edges", "root", "subset_closed")

    def __init__(
        self,
        individuals: frozenset[int],
        labels: dict[int, frozenset],  # values are ClauseSet | Clause
        role_edges: dict[str, frozenset],  # role -> frozenset[(int, int)]
        root: int = 0,
        subset_closed: bool = False,
    ) -> None:
        self.individuals = individuals
        self.labels = labels
        self.role_edges = role_edges
        self.root = root
        self.subset_closed = subset_closed

    def clause_sets_at(self, s: int) -> list[ClauseSet]:
        return [x for x in self.labels.get(s, frozenset()) if isinstance(x, ClauseSet)]

    def clauses_at(self, s: int) -> list[Clause]:
        return [x for x in self.labels.get(s, frozenset()) if isinstance(x, Clause)]

    def has_clause_set(self, s: int, f: ClauseSet) -> bool:
        """Clause-set membership with the top convention and lazy subset
        closure: the empty clause set labels everyone."""
        if f.is_empty:
            return True
        stored = self.clause_sets_at(s)
        if f in stored:
            return True
        if self.subset_closed:
            return any(f.issubset(snapshot) for snapshot in stored)
        return False

    def has_clause(self, s: int, cl: Clause) -> bool:
        return cl in self.labels.get(s, frozenset())


class Violation(_Frozen):
    __slots__ = ("condition", "individuals", "expr")

    def __init__(self, condition: int, individuals: tuple[int, ...], expr: str) -> None:
        _set(self, "condition", condition)
        _set(self, "individuals", individuals)
        _set(self, "expr", expr)

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "individuals": list(self.individuals),
            "expr": self.expr,
        }


def _expr_str(x: LabelExpr) -> str:
    if isinstance(x, ClauseSet):
        return repr(clause_set_to_json(x))
    return repr(clause_to_json(x))


def _holders(clauses) -> dict[Literal, list[Clause]]:
    """Each literal of ``clauses`` -> the clauses holding it, in order."""
    holders: dict[Literal, list[Clause]] = {}
    for cl in clauses:
        for lit in cl:
            holders.setdefault(lit, []).append(cl)
    return holders


def _complements(units: list[Literal], holders: Mapping[Literal, list]) -> dict[Literal, Literal]:
    """Each of ``units`` -> its complement, for those whose complement's
    kind and name or role some literal of ``holders`` has.  The others
    are complementary to no labeled literal, and get no entry."""
    present = {lit.key[:2] for lit in holders}
    return {lit: complement(lit) for lit in units if complement_key(lit) in present}


def check_tableau(t: CnfTableau, f: ClauseSet, restricted: bool) -> list[Violation]:
    """All violations of the tableau conditions for ``f``; empty iff the
    tableau is well formed.

    Conditions, for all individuals ``s``, ``u``:

    1. no complementary pair of unit clauses is labeled at ``s``;
    2. a labeled clause set has each of its clauses labeled;
    3. a labeled clause has some literal labeled as a unit; the
       restricted variant further requires a witness literal ``L`` such
       that every labeled clause minus the complement of ``L`` is
       labeled;
    4. a labeled universal unit propagates its body along every same-role
       edge;
    5. a labeled existential unit has a same-role edge to some individual
       labeled with its body;
    6. a labeled universal and same-role existential unit have their
       merged existential labeled.

    Subset-closed clause-set entries satisfy condition 2 by construction
    (each clause of a snapshot subset is a clause of the snapshot), so
    condition 2 is checked on the explicitly stored clause sets.
    """
    violations: list[Violation] = []
    if not t.has_clause_set(t.root, f):
        violations.append(Violation(0, (t.root,), _expr_str(f)))

    for s in sorted(t.individuals):
        clauses = t.clauses_at(s)
        units: list[Literal] = [c.literals[0] for c in clauses if c.is_unit]
        unit_set = set(units)
        holders = _holders(clauses)
        comps = _complements(units, holders)

        for lit in units:
            if comps.get(lit) in unit_set:
                violations.append(Violation(1, (s,), _expr_str(Clause((lit,)))))

        label = t.labels.get(s, frozenset())
        for cs in t.clause_sets_at(s):
            if not label.issuperset(cs.clauses):
                violations.append(Violation(2, (s,), _expr_str(cs)))

        for cl in clauses:
            witnesses = [lit for lit in cl if lit in unit_set]
            if restricted:
                witnesses = [
                    lit
                    for lit in witnesses
                    if all(
                        t.has_clause(s, other.without(comps[lit]))
                        for other in holders.get(comps.get(lit), ())
                    )
                ]
            if not witnesses:
                violations.append(Violation(3, (s,), _expr_str(cl)))

        for lit in units:
            if isinstance(lit, ForallLit):
                for (src, dst) in t.role_edges.get(lit.role, frozenset()):
                    if src == s and not t.has_clause_set(dst, lit.body):
                        violations.append(
                            Violation(4, (s, dst), _expr_str(Clause((lit,))))
                        )
            elif isinstance(lit, ExistsLit):
                succs = [
                    dst
                    for (src, dst) in t.role_edges.get(lit.role, frozenset())
                    if src == s
                ]
                if not any(t.has_clause_set(dst, lit.body) for dst in succs):
                    violations.append(Violation(5, (s,), _expr_str(Clause((lit,)))))

        for ulit in units:
            if not isinstance(ulit, ForallLit):
                continue
            for elit in units:
                if isinstance(elit, ExistsLit) and elit.role == ulit.role:
                    merged = Clause((ExistsLit(ulit.role, ulit.body.union(elit.body)),))
                    if not t.has_clause(s, merged):
                        violations.append(
                            Violation(6, (s,), _expr_str(merged))
                        )
    return violations


def _close_labels(clause_sets: set[ClauseSet], clauses: set[Clause]) -> None:
    """Merge and reduction closure to a fixed point (mutates ``clauses``)."""
    changed = True
    while changed:
        changed = False
        units = [c.literals[0] for c in clauses if c.is_unit]
        for ulit in units:
            if not isinstance(ulit, ForallLit):
                continue
            for elit in units:
                if isinstance(elit, ExistsLit) and elit.role == ulit.role:
                    merged = Clause((ExistsLit(ulit.role, ulit.body.union(elit.body)),))
                    if merged not in clauses:
                        clauses.add(merged)
                        changed = True
        holders = _holders(clauses)
        for comp in _complements(units, holders).values():
            for cl in holders.get(comp, ()):
                reduced = cl.without(comp)
                if not reduced.is_empty and reduced not in clauses:
                    clauses.add(reduced)
                    changed = True


def extract_tableau(verdict: Verdict) -> CnfTableau:
    """Tableau from a satisfiable run's accepted derivation path."""
    if not verdict.satisfiable:
        raise NotSatisfiableError("cannot extract a tableau from an unsatisfiable run")
    path = witness_path(verdict)
    witness = verdict.witness_family
    individuals = frozenset(range(len(witness.members)))

    clause_sets: dict[int, set[ClauseSet]] = {i: set() for i in individuals}
    clauses: dict[int, set[Clause]] = {i: set() for i in individuals}
    for fam, app in path:
        for i, member in enumerate(fam.members):
            if not member.is_empty:
                clause_sets[i].add(member)
                clauses[i].update(member.clauses)
        if app is not None and app.rule in (RULE_A2, RULE_A2_PLUS):
            clauses[app.member_index].add(Clause((app.chosen_literal,)))

    for i in individuals:
        _close_labels(clause_sets[i], clauses[i])

    labels = {
        i: frozenset(clause_sets[i]) | frozenset(clauses[i]) for i in individuals
    }
    role_edges: dict[str, set] = {}
    for edge in witness.edges:
        role_edges.setdefault(edge.role, set()).add((edge.parent, edge.child))
    return CnfTableau(
        individuals=individuals,
        labels=labels,
        role_edges={r: frozenset(v) for r, v in role_edges.items()},
        root=0,
        subset_closed=True,
    )


def tableau_to_interpretation(t: CnfTableau) -> Interpretation:
    """Read a finite model off a tableau: a name's extension is the set
    of individuals labeled with its positive unit."""
    names: dict[str, set] = {}
    for s in t.individuals:
        for cl in t.clauses_at(s):
            if cl.is_unit and isinstance(cl.literals[0], Pos):
                names.setdefault(cl.literals[0].name, set()).add(s)
    return Interpretation(
        domain=frozenset(t.individuals),
        name_ext={n: frozenset(v) for n, v in names.items()},
        role_ext=dict(t.role_edges),
    )


def eval_concept(c: Concept, interp: Interpretation, d) -> bool:
    """Truth of ``d`` being in the extension of ``c``.

    Names and roles absent from the interpretation get the empty
    extension.  ``d`` must be a domain element.  ``&``, ``|`` and the
    quantifiers short-circuit, and the walk keeps its own stack.
    """
    # Frames of ``&``, ``|`` and quantifiers: (deciding value, negated, operand pairs).
    stack: list[tuple] = []
    item = (c, d)
    while True:
        c, d = item
        if d not in interp.domain:
            raise ValueError(f"{d!r} is not a domain element")
        negated = False
        while isinstance(c, Not):
            c, negated = c.body, not negated
        value = None  # a new frame asks for its first operand
        if isinstance(c, (And, Or)):
            stack.append((isinstance(c, Or), negated, iter(((c.left, d), (c.right, d)))))
        elif isinstance(c, (Forall, Exists)):
            pairs = [(c.body, t) for (s, t) in interp.role_ext.get(c.role, ()) if s == d]
            stack.append((isinstance(c, Exists), negated, iter(pairs)))
        elif isinstance(c, Name):
            value = (d in interp.name_ext.get(c.name, ())) != negated
        elif isinstance(c, (Top, Bottom)):
            value = isinstance(c, Top) != negated
        else:
            raise TypeError(f"not a Concept: {c!r}")
        while stack:  # a frame that is decided or out of operands ends
            decides, negated, operands = stack[-1]
            if value is not decides:
                item = next(operands, None)
                if item is not None:
                    break
                value = not decides
            stack.pop()
            value = value != negated
        else:
            return value
