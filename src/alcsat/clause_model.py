"""Families of clause sets.

A :class:`Family` is one node of a derivation: an indexed collection of
clause sets with role-labeled parent-to-child edges created as
existential unit clauses are peeled off.  Members are stored by
append-only index so positions stay stable across derivation steps;
rewriting a member replaces the clause-set value at the same index.
Family values are immutable snapshots and may be shared freely across
threads.
"""

from __future__ import annotations

from alcsat.normal_form import ClauseSet
from alcsat.syntax import _Frozen, _set


class FamilyEdge(_Frozen):
    __slots__ = ("parent", "role", "child")

    def __init__(self, parent: int, role: str, child: int) -> None:
        _set(self, "parent", parent)
        _set(self, "role", role)
        _set(self, "child", child)


class Family(_Frozen):
    """An indexed family of clause sets with role-labeled parent edges.

    Invariants: indices are dense ``0..len(members)-1`` with the root at
    index 0; every edge points from a lower index to a higher one; each
    child index has exactly one incoming edge.
    """

    __slots__ = ("members", "edges")

    def __init__(self, members: tuple[ClauseSet, ...], edges: tuple[FamilyEdge, ...] = ()) -> None:
        if not members:
            raise ValueError("a family holds at least its root clause set")
        seen_children = set()
        for edge in edges:
            if not 0 <= edge.parent < edge.child < len(members):
                raise ValueError(f"edge out of range: {edge}")
            if edge.child in seen_children:
                raise ValueError(f"child {edge.child} has two incoming edges")
            seen_children.add(edge.child)
        _set(self, "members", members)
        _set(self, "edges", edges)

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
