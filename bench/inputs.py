"""Seeded input generators for the benchmark.

Every generator takes its randomness from a ``random.Random`` built by
the caller, and returns concept *text*, so the operations that consume
it pay for parsing.  The same seed gives the same inputs.

Random modal 3-CNF follows Patel-Schneider & Sebastiani 2003: ``L``
clauses of three literals over the names ``A``, ``B``, ``C`` and the one
role ``R``, at modal depth 1.  A literal is a name with probability 1/2,
otherwise ``forall R.(...)`` or ``exists R.(...)`` (even odds) over a
clause of three name literals drawn with replacement; each literal and
each inner name literal is negated with probability 1/2.
:meth:`ModalCnf.satisfiable` decides these instances by brute force over
the finite models that matter at depth 1, without touching the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

NAMES = ("A", "B", "C")
ROLE = "R"
_ALL_WORLDS = 0xFF  # bit v set: valuation v (bit i of v = name i true)

# A name literal is (negated, name index); an inner clause is a tuple of
# three of them.  A top-level literal is (negated, kind, payload) with
# kind "name" (payload a name index) or "exists" / "forall" (payload an
# inner clause).


def _inner_clause_worlds(clause: tuple) -> int:
    """Bit mask of the valuations of A, B, C that satisfy ``clause``."""
    mask = 0
    for v in range(8):
        if any(bool(v >> i & 1) != neg for neg, i in clause):
            mask |= 1 << v
    return mask


def _name_worlds(i: int) -> int:
    return sum(1 << v for v in range(8) if v >> i & 1)


@dataclass(frozen=True)
class ModalCnf:
    """One random modal 3-CNF instance."""

    clauses: tuple

    def text(self, rng: Optional[random.Random] = None) -> str:
        """Concept text.  With ``rng``, names and the role get seeded
        suffixes and clauses and literals are shuffled: the text differs
        per seed, but the clause-set normal form is the same up to a
        renaming that keeps the order of names, so the search is too."""
        names, role = list(NAMES), ROLE
        shuffled = list
        if rng is not None:
            names = [f"{n}_{rng.randrange(10**4)}" for n in NAMES]
            role = f"{ROLE}_{rng.randrange(10**4)}"

            def shuffled(items):
                items = list(items)
                rng.shuffle(items)
                return items

        def inner(clause: tuple) -> str:
            return " | ".join(("!" if neg else "") + names[i] for neg, i in shuffled(clause))

        def literal(lit: tuple) -> str:
            neg, kind, payload = lit
            body = names[payload] if kind == "name" else f"{kind} {role}.({inner(payload)})"
            return ("!" if neg else "") + body

        return " & ".join(
            "(" + " | ".join(literal(lit) for lit in shuffled(clause)) + ")"
            for clause in shuffled(self.clauses)
        )

    def satisfiable(self) -> bool:
        """Brute-force decision.

        At modal depth 1 with one role, a model is characterised by the
        valuation of the root and the set ``W`` of valuations its
        successors take: ``exists R.C`` holds iff some valuation in ``W``
        satisfies ``C``, ``forall R.C`` iff all do, and every ``W`` is
        realisable.  So the instance is satisfiable iff for some of the
        256 sets ``W`` some root valuation satisfies every clause.
        """
        compiled = [
            [
                (neg, kind, _name_worlds(p) if kind == "name" else _inner_clause_worlds(p))
                for neg, kind, p in clause
            ]
            for clause in self.clauses
        ]
        for worlds in range(256):
            roots = _ALL_WORLDS
            for clause in compiled:
                sat = 0
                for neg, kind, mask in clause:
                    if kind == "exists":
                        mask = _ALL_WORLDS if worlds & mask else 0
                    elif kind == "forall":
                        mask = 0 if worlds & ~mask & _ALL_WORLDS else _ALL_WORLDS
                    sat |= mask ^ _ALL_WORLDS if neg else mask
                roots &= sat
                if not roots:
                    break
            if roots:
                return True
        return False


def modal_cnf(rng: random.Random, num_clauses: int) -> ModalCnf:
    def name_literal() -> tuple:
        return (rng.random() < 0.5, rng.randrange(len(NAMES)))

    def literal() -> tuple:
        if rng.random() < 0.5:
            kind, payload = "name", rng.randrange(len(NAMES))
        else:
            kind = "forall" if rng.random() < 0.5 else "exists"
            payload = tuple(name_literal() for _ in range(3))
        return (rng.random() < 0.5, kind, payload)

    return ModalCnf(tuple(tuple(literal() for _ in range(3)) for _ in range(num_clauses)))


def successor_family(n: int) -> str:
    """``n`` independent R-successors and one unsatisfiable S-successor.

    Unsatisfiable by construction: the S-successor must satisfy
    ``(E & !E) | (F & !F)``.  Depth-first search that peels the
    successors in order backtracks through all 3^n choices made in the
    R-successors before giving up.
    """
    parts = [f"exists R.(A{i}|B{i}|C{i})" for i in range(n)]
    return " & ".join(parts + ["exists S.((E&!E)|(F&!F))"])


def distribution_family(rng: random.Random, k: int) -> str:
    """``(A0&B0)|...|(Ak&Bk)``, disjuncts and conjuncts in seeded order.

    Its clause-set form has exactly ``2^(k+1)`` clauses of ``k+1``
    literals each.
    """
    terms = [f"(A{i}&B{i})" if rng.random() < 0.5 else f"(B{i}&A{i})" for i in range(k + 1)]
    rng.shuffle(terms)
    return " | ".join(terms)


def and_chain(rng: random.Random, n: int) -> str:
    """A flat conjunction of the ``n`` names ``N0..``, in seeded order
    (``n`` unit clauses)."""
    names = [f"N{i}" for i in range(n)]
    rng.shuffle(names)
    return " & ".join(names)


# Deep inputs: fixed, independent of the seed.
DEEP_NEGATION = "!" * 5000 + "A"  # an even number of negations: equivalent to A
DEEP_CHAIN = " & ".join(f"A{i}" for i in range(3000))
