"""Reference satisfiability decision by a classical concept tableau.

This is the differential-testing oracle: a textbook ALC tableau working
directly on concept trees, deliberately sharing no machinery with the
clause-set engine (it even carries its own negation-normal-form pass).
Without terminological axioms every existential expansion strictly
decreases quantifier depth, so no blocking is needed and the procedure
terminates on the finite-tree-model argument.

Disjunctions branch left-first and label sets are processed in a fixed
order, so runs are reproducible.  The oracle is allowed to be slow; it
runs at desk scale only.
"""

from __future__ import annotations

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
    _Record,
)
from alcsat.tableau import Interpretation


# What a negation pushed through a concept turns its connective into.
_DUAL = {And: Or, Or: And, Forall: Exists, Exists: Forall, Top: Bottom, Bottom: Top}


def _nnf(c: Concept) -> Concept:
    # Local negation push-down, kept separate from the clause-set pipeline
    # on purpose: a shared bug could mask itself in differential tests.
    # Its own stack ``todo`` holds (None, concept, negated) to transform,
    # or (constructor, role, None) to build from the results on ``done``.
    done: list[Concept] = []
    todo: list[tuple] = [(None, c, False)]
    while todo:
        ctor, c, negated = todo.pop()
        if ctor is And or ctor is Or:
            right = done.pop()
            done[-1] = ctor(done[-1], right)
        elif ctor is not None:
            done[-1] = ctor(c, done[-1])
        else:
            while isinstance(c, Not):
                c, negated = c.body, not negated
            if isinstance(c, Name):
                done.append(Not(c) if negated else c)
            elif isinstance(c, (Top, Bottom)):
                done.append(_DUAL[type(c)]() if negated else c)
            elif isinstance(c, (And, Or)):
                kind = _DUAL[type(c)] if negated else type(c)
                todo += ((kind, None, None), (None, c.right, negated), (None, c.left, negated))
            elif isinstance(c, (Forall, Exists)):
                kind = _DUAL[type(c)] if negated else type(c)
                todo += ((kind, c.role, None), (None, c.body, negated))
            else:
                raise TypeError(f"not a Concept: {c!r}")
    return done.pop()


class _ModelNode(_Record):
    """One individual of an open branch: its positive atoms and children."""

    __slots__ = ("atoms", "children")

    def __init__(
        self, atoms: frozenset[str], children: list[tuple[str, _ModelNode]] | None = None
    ) -> None:
        self.atoms = atoms
        self.children = [] if children is None else children


def _expand(todo: list[Concept]) -> _ModelNode | None:
    """Saturate one tableau node; return an open-branch model or None.
    A disjunction's right branch waits on ``branches`` while its left is
    tried, so only an existential's successor takes a call: one per
    quantifier nesting level, not one per disjunction.  A branch grows
    its own sets and lists in place; pushing a right branch copies them."""
    # Each branch: (todo, positive names, negated names, existentials
    # and universals as (role, body)).
    branches: list[tuple] = [(todo, set(), set(), [], [])]
    while branches:
        todo, pos, neg, exists, forall = branches.pop()
        while todo:
            c = todo.pop()
            if isinstance(c, Or):
                branches.append((todo + [c.right], set(pos), set(neg), exists[:], forall[:]))
                todo.append(c.left)
            elif isinstance(c, And):
                todo += (c.right, c.left)
            elif isinstance(c, Exists):
                exists.append((c.role, c.body))
            elif isinstance(c, Forall):
                forall.append((c.role, c.body))
            elif isinstance(c, Name):
                if c.name in neg:
                    break  # a clash closes the branch
                pos.add(c.name)
            elif isinstance(c, Not):
                # NNF guarantees the body is a name.
                if c.body.name in pos:
                    break
                neg.add(c.body.name)
            elif isinstance(c, Bottom):
                break
            elif not isinstance(c, Top):
                raise TypeError(f"not a Concept: {c!r}")
        else:
            node = _ModelNode(atoms=frozenset(pos))
            for role, body in exists:
                child = _expand([body] + [d for r, d in forall if r == role])
                if child is None:
                    break
                node.children.append((role, child))
            else:
                return node
    return None


def _solve(c: Concept) -> _ModelNode | None:
    return _expand([_nnf(c)])


def oracle_sat(c: Concept) -> bool:
    """True iff ``c`` is ALC-satisfiable."""
    return _solve(c) is not None


def oracle_model(c: Concept) -> Interpretation | None:
    """A finite interpretation from the open branch, with the root as
    element 0, or None when ``c`` is unsatisfiable."""
    root = _solve(c)
    if root is None:
        return None
    names: dict[str, set[int]] = {}
    roles: dict[str, set[tuple[int, int]]] = {}
    domain: list[int] = []

    def emit(node: _ModelNode) -> int:
        ident = len(domain)
        domain.append(ident)
        for atom in node.atoms:
            names.setdefault(atom, set()).add(ident)
        for role, child in node.children:
            child_id = emit(child)
            roles.setdefault(role, set()).add((ident, child_id))
        return ident

    emit(root)
    return Interpretation(
        domain=frozenset(domain),
        name_ext={n: frozenset(v) for n, v in names.items()},
        role_ext={r: frozenset(v) for r, v in roles.items()},
    )
