"""Families of clause sets and the subexpression machinery.

A :class:`Family` is one node of a derivation: an indexed collection of
clause sets with role-labeled parent-to-child edges created as
existential unit clauses are peeled off.  Members are stored by
append-only index so positions stay stable across derivation steps;
rewriting a member replaces the clause-set value at the same index.
Family values are immutable snapshots and may be shared freely across
threads.

:func:`sub` computes the subexpression closure of a non-empty clause
set: the clause set itself, the clauses of any member clause set, every
non-empty subclause of a member clause, ``{A}`` for any ``{!A}``, and
the bodies of quantified unit clauses.  Subclause enumeration is the
full ``2^|CL| - 1`` powerset walk, which is fine at the desk scale the
closure is used at (tests and tableau verification), never in the hot
decision path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Union

from alcsat.normal_form import (
    Clause,
    ClauseSet,
    EMPTY_CLAUSE_SET,
    ExistsLit,
    ForallLit,
    Neg,
    Pos,
)

SubElement = Union[ClauseSet, Clause]


class EmptyClauseSetError(ValueError):
    """The subexpression closure is defined only for non-empty clause sets."""


@dataclass(frozen=True, slots=True)
class FamilyEdge:
    parent: int
    role: str
    child: int


@dataclass(frozen=True, slots=True)
class Family:
    """An indexed family of clause sets with role-labeled parent edges.

    Invariants: indices are dense ``0..len(members)-1`` with the root at
    index 0; every edge points from a lower index to a higher one; each
    child index has exactly one incoming edge.
    """

    members: tuple[ClauseSet, ...]
    edges: tuple[FamilyEdge, ...] = ()

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a family holds at least its root clause set")
        seen_children = set()
        for edge in self.edges:
            if not 0 <= edge.parent < edge.child < len(self.members):
                raise ValueError(f"edge out of range: {edge}")
            if edge.child in seen_children:
                raise ValueError(f"child {edge.child} has two incoming edges")
            seen_children.add(edge.child)

    def replace_member(self, index: int, value: ClauseSet) -> "Family":
        members = list(self.members)
        members[index] = value
        return Family(tuple(members), self.edges)

    def append_member(self, parent: int, role: str, value: ClauseSet) -> "Family":
        child = len(self.members)
        return Family(
            self.members + (value,),
            self.edges + (FamilyEdge(parent, role, child),),
        )


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
    """Least fixed point of the five subexpression-closure rules.

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
