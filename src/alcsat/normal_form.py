"""Clause-set normal form for ALC concepts.

A concept literal is a name, a negated name, or a quantified clause set
(``exists R.F`` / ``forall R.F`` with ``F`` itself in clause-set form).
A clause is a finite set of literals read disjunctively; a clause set is
a finite set of clauses read conjunctively.  :func:`to_cnf` transforms
any concept into this form in one walk that carries each node's
polarity (under an even or odd number of ``!``): it pushes negations to
names by De Morgan's laws, flattens ``&`` and ``|`` chains into sets,
and distributes disjunction over conjunction at every nesting level.

Top/bottom handling: ``top`` and ``bot`` are simplified away on clause
tuples during the walk, ``()`` being top and ``(EMPTY_CLAUSE,)`` bot:
``C & top = C``, ``C | bot = C``, ``C & bot = bot``, ``C | top = top``,
``!top = bot``, ``exists R.bot = bot`` and ``forall R.top = top``,
each applied when a node's operands have been converted.  A concept
equivalent to ``top`` becomes the empty clause set (vacuously
satisfiable); one equivalent to ``bot`` becomes ``{{}}``, the set
holding the empty clause.  Two residual forms survive: ``exists R.top``
becomes an existential literal with an empty body (a bare demand for a
successor) and ``forall R.bot`` a universal literal with body ``{{}}``
(a demand that no successor exists).

Clauses and clause sets are canonical by construction: constructors
deduplicate and order elements by a fixed structural total order
(positive name < negated name < existential < universal; within a kind
lexicographically by name/role, then recursively by body).  Structural
equality on these values is therefore set equality.  An edit that keeps
a sorted tuple sorted, such as dropping elements or splicing one in at
its ``bisect_left`` place (:meth:`ClauseSet.replace`), interns its
result without sorting again.

Values are hash-consed: every literal, clause and clause set is built
through one intern table, so two structurally equal values are the same
object, and equality and hash are both identity.  Each value stores its
sort key and its quantifier depth, computed once at construction from
its children's stored fields, so no later sort or depth query walks the
nesting.  The table holds its values weakly, by one weak reference per
value that carries the value's table key: a value lives exactly as long
as some caller refers to it, and the table is not a cache.
``copy`` and ``pickle`` rebuild values through the constructors, so no
un-interned value can exist.  Values are immutable; assigning an
attribute raises.

The complement of a quantified literal, ``forall R.CNF(!F)`` for
``exists R.F`` and symmetrically, is built from ``F``'s clauses, not by
re-expanding ``F`` to a concept: ``!F`` is the disjunction, over the
clauses of ``F``, of the conjunction of their literals' complements,
each looked up in the cache that :func:`complement` keeps or built once,
and :func:`to_cnf`'s own ``&`` and ``|`` rules make its clause set.

The distribution step is the naive one and can blow up exponentially
in clause count; see the README.  A disjunction that would distribute
to more than :data:`MAX_CLAUSES` clauses raises :class:`ClauseBudgetError`
before any is built, in the input or in a body :func:`complement`
negates, unless ``top`` or ``bot`` absorbs it.  The conversions keep
their own stacks, so deep nesting needs no call stack.

Everything here is pure over immutable values and concurrently callable.
A new value enters the intern table by one insert-if-absent, and a
dead value's entry leaves it by one delete-if-dead, so a live entry is
never replaced; a lock is taken only to replace an entry whose value
has died before its callback ran.  Another lock makes a complement's
insertion into the cache atomic.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from _weakref import _remove_dead_weakref
from math import prod
from operator import attrgetter
from typing import Iterable, Iterator, Union

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
)

# --- Hash-consed values ----------------------------------------------------
#
# ``_INTERN`` maps a value's structure, as its class and its (interned)
# children, to a weak reference to the one live value with that
# structure; the reference carries that structure as ``ident``.  A
# constructor looks its structure up first and builds a value only on a
# miss.  When a value dies, the one callback deletes its entry if it
# still holds a dead reference, in one atomic step, as
# ``weakref.WeakValueDictionary`` does; that class is not used because
# it raises and catches ``KeyError`` on each miss and builds its
# references in Python, which made each new value 2-3 us slower.

_INTERN: dict[tuple, "_Ref"] = {}
_INTERN_LOCK = threading.Lock()  # serialises the replacement of a dead entry
_set = object.__setattr__
_key = attrgetter("key")
_depth = attrgetter("depth")


class _Ref(weakref.ref):
    """A reference of the intern table, keyed by its entry's ``ident``."""

    __slots__ = ("ident",)


def _forget(ref: _Ref, table=_INTERN, remove=_remove_dead_weakref) -> None:
    """Callback of the table's references.  What it uses is bound as
    defaults, so values that die while the interpreter shuts down, after
    module globals are cleared, still find it."""
    remove(table, ref.ident)


class _Value:
    """Base of the interned values.

    ``key`` is the value's sort key in the structural total order and
    ``depth`` its quantifier nesting depth.  Equality and hash are both
    identity, inherited from ``object``: interning makes equal values
    one object.
    """

    __slots__ = ("key", "depth", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which interns.
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


def _build(cls, ident: tuple, key: tuple, depth: int, *values) -> _Value:
    """A new ``cls`` value with these fields, interned under ``ident``;
    or the equal one another thread interned first."""
    self = object.__new__(cls)
    _set(self, "key", key)
    _set(self, "depth", depth)
    for name, value in zip(cls._fields, values):
        _set(self, name, value)
    ref = _Ref(self, _forget)
    ref.ident = ident
    # ``setdefault`` inserts only into a free entry, and ``_forget``
    # deletes only a dead reference, so a live entry is never replaced.
    # A dead one, whose callback has not run yet, is deleted here first.
    other = _INTERN.setdefault(ident, ref)
    while other is not ref:
        value = other()
        if value is not None:
            return value
        with _INTERN_LOCK:
            _remove_dead_weakref(_INTERN, ident)
            other = _INTERN.setdefault(ident, ref)
    return self


_KIND_POS = 0
_KIND_NEG = 1
_KIND_EXISTS = 2
_KIND_FORALL = 3


class _NameLit(_Value):
    __slots__ = ("name",)
    _fields = ("name",)
    _kind: int

    def __new__(cls, name: str):
        ident = (cls, name)
        ref = _INTERN.get(ident)
        if ref is None or (self := ref()) is None:
            self = _build(cls, ident, (cls._kind, name), 0, name)
        return self


class Pos(_NameLit):
    __slots__ = ()
    _kind = _KIND_POS


class Neg(_NameLit):
    __slots__ = ()
    _kind = _KIND_NEG


class _QuantLit(_Value):
    __slots__ = ("role", "body")
    _fields = ("role", "body")
    _kind: int

    def __new__(cls, role: str, body: "ClauseSet"):
        ident = (cls, role, body)
        ref = _INTERN.get(ident)
        if ref is None or (self := ref()) is None:
            self = _build(cls, ident, (cls._kind, role, body.key), 1 + body.depth, role, body)
        return self


class ExistsLit(_QuantLit):
    __slots__ = ()
    _kind = _KIND_EXISTS


class ForallLit(_QuantLit):
    __slots__ = ()
    _kind = _KIND_FORALL


Literal = Union[Pos, Neg, ExistsLit, ForallLit]


def _canonical(items: Iterable[_Value]) -> tuple:
    """``items`` deduplicated, in the structural order."""
    items = tuple(items)
    if len(items) < 2:
        return items
    return tuple(sorted(set(items), key=_key))


class _Collection(_Value):
    """A canonically ordered set of interned elements (one field)."""

    __slots__ = ()

    def __new__(cls, items: Iterable = ()):
        return _collection(cls, _canonical(items))


def _collection(cls, items: tuple) -> _Collection:
    """The ``cls`` value of ``items``, a tuple already in the structural
    order and free of duplicates: the one way a collection is interned,
    which the constructor enters once it has sorted, and an edit that
    keeps a sorted tuple sorted enters directly."""
    ident = (cls, items)
    ref = _INTERN.get(ident)
    if ref is None or (self := ref()) is None:
        key = tuple(map(_key, items))
        self = _build(cls, ident, key, max(map(_depth, items), default=0), items)
    return self


class Clause(_Collection):
    """A disjunction of literals, stored as a canonically ordered set."""

    __slots__ = ("literals",)
    _fields = ("literals",)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __contains__(self, lit: Literal) -> bool:
        return lit in self.literals

    @property
    def is_unit(self) -> bool:
        return len(self.literals) == 1

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def without(self, lit: Literal) -> "Clause":
        return _collection(Clause, tuple(l for l in self.literals if l is not lit))


class ClauseSet(_Collection):
    """A conjunction of clauses, stored as a canonically ordered set."""

    __slots__ = ("clauses",)
    _fields = ("clauses",)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __contains__(self, cl: Clause) -> bool:
        return cl in self.clauses

    @property
    def is_empty(self) -> bool:
        return not self.clauses

    def union(self, other: "ClauseSet") -> "ClauseSet":
        return ClauseSet(self.clauses + other.clauses)

    def without(self, cl: Clause) -> "ClauseSet":
        return _collection(ClauseSet, tuple(c for c in self.clauses if c is not cl))

    def replace(self, cl: Clause, new: Clause) -> "ClauseSet":
        """This set with its clause ``cl`` replaced by ``new``, which is
        spliced into the sorted clauses at its place (``bisect_left``
        over the keys), or dropped when the set already holds it."""
        clauses = self.clauses
        if new is cl:
            return self
        i = clauses.index(cl)
        j = bisect_left(self.key, new.key)
        if j < len(clauses) and clauses[j] is new:
            items = clauses[:i] + clauses[i + 1:]
        elif j <= i:
            items = clauses[:j] + (new,) + clauses[j:i] + clauses[i + 1:]
        else:
            items = clauses[:i] + clauses[i + 1:j] + (new,) + clauses[j:]
        return _collection(ClauseSet, items)

    def issubset(self, other: "ClauseSet") -> bool:
        return all(cl in other for cl in self.clauses)


EMPTY_CLAUSE = Clause()
EMPTY_CLAUSE_SET = ClauseSet()
#: Clause-set encoding of an always-false concept: it holds the empty clause.
FALSE_CLAUSE_SET = ClauseSet((EMPTY_CLAUSE,))


#: The most clauses one disjunction may distribute to.  The largest
#: normal form of the tests and the benchmark, the 3,000-term ``&``
#: chain, has 3,001 clauses; their largest distribution, 144.
MAX_CLAUSES = 10_000


class ClauseBudgetError(Exception):
    """Distributing a disjunction would exceed :data:`MAX_CLAUSES`
    clauses; ``clauses`` is the product of its disjuncts' clause counts."""

    def __init__(self, clauses: int) -> None:
        # A count too long to write in decimal is written as a power of two.
        shown = clauses if clauses < 10**100 else f"at least 2^{clauses.bit_length() - 1}"
        super().__init__(
            f"a disjunction distributes to {shown} clauses, over the budget of {MAX_CLAUSES}"
        )
        self.clauses = clauses


# What the walk below makes of a concept at a polarity: a tuple of
# clauses; ``_TOP`` (no clause) or ``_BOT`` (the empty clause) for one
# equivalent to ``top`` or ``bot``; a list of at least two tuples, a
# disjunction not yet distributed, which an enclosing one extends; or the
# ClauseBudgetError that distributing would raise, raised only if it
# reaches the root, so a part that top or bot absorbs never raises.
_TOP: tuple = ()
_BOT = (EMPTY_CLAUSE,)


def _clauses(c: Concept) -> tuple | list | ClauseBudgetError:
    """What ``c`` is at positive polarity, as the comment on ``_TOP``
    lists: one walk that carries each node's polarity, so negations are
    pushed to names, ``top``/``bot`` simplified and disjunctions
    distributed on the way."""
    # ``todo`` holds (None, concept, polarity, chain) to transform, or
    # (combiner, argument, None, None) to apply to results on ``done``;
    # a connective's, to those from index ``argument`` on.  One whose
    # ``&`` or ``|`` at its polarity is its parent's ``chain`` adds its
    # operands to the parent's: each chain is combined once.
    done: list = []
    todo: list[tuple] = [(None, c, True, None)]
    units: tuple[dict, dict] = ({}, {})  # a name's unit clause, negated and positive
    while todo:
        combine, item, positive, chain = todo.pop()
        if combine is _conjunction or combine is _disjunction:
            parts = done[item:]
            del done[item:]
            done.append(combine(parts))
        elif combine is not None:
            body = _clause_set(done.pop())
            done.append(body if type(body) is ClauseBudgetError else _unit(combine(item, body)))
        else:
            while type(item) is Not:
                item, positive = item.body, not positive
            kind = type(item)
            if kind is Name:
                unit = units[positive].get(item.name)
                if unit is None:
                    lit = (Pos if positive else Neg)(item.name)
                    unit = units[positive][item.name] = (Clause((lit,)),)
                done.append(unit)
            elif kind is Top or kind is Bottom:
                done.append(_TOP if (kind is Top) == positive else _BOT)
            elif kind is And or kind is Or:
                combine = _conjunction if (kind is And) == positive else _disjunction
                if combine is not chain:
                    todo.append((combine, len(done), None, None))
                todo += ((None, item.right, positive, combine), (None, item.left, positive, combine))
            elif kind is Exists or kind is Forall:
                quantifier = ExistsLit if (kind is Exists) == positive else ForallLit
                todo += ((quantifier, item.role, None, None), (None, item.body, positive, None))
            else:
                raise TypeError(f"not a Concept: {item!r}")
    return done.pop()


def _conjunction(parts: list) -> tuple | list | ClauseBudgetError:
    """``&`` of walk results: bot absorbs, top drops out, a disjunction
    is distributed, and the clauses are gathered once for the chain."""
    if _BOT in parts:
        return _BOT
    parts = [part for part in parts if part is not _TOP]
    if len(parts) == 1:
        return parts[0]
    clauses: list[Clause] = []
    for part in parts:
        if type(part) is list:
            part = _distribute(part)
        if type(part) is ClauseBudgetError:
            return part
        clauses += part
    return tuple(clauses)


def _disjunction(parts: list) -> tuple | list | ClauseBudgetError:
    """``|`` of walk results: top absorbs, bot drops out, and the rest
    make one disjunction, not yet distributed."""
    if _TOP in parts:
        return _TOP
    parts = [part for part in parts if part is not _BOT]
    if len(parts) < 2:
        return parts[0] if parts else _BOT
    disjuncts: list[tuple] = []
    for part in parts:
        if type(part) is ClauseBudgetError:
            return part
        disjuncts += part if type(part) is list else (part,)
    return disjuncts


def _unit(lit: Literal | ClauseBudgetError) -> tuple | ClauseBudgetError:
    """What one literal is, as the walk's results are: ``forall R.{}``
    is top and ``exists R.{{}}`` is bot.  An error stays as it is."""
    kind = type(lit)
    if kind is ForallLit and lit.body is EMPTY_CLAUSE_SET:
        return _TOP
    if kind is ExistsLit and lit.body is FALSE_CLAUSE_SET:
        return _BOT
    return lit if kind is ClauseBudgetError else (Clause((lit,)),)


def _clause_set(result: tuple | list | ClauseBudgetError) -> ClauseSet | ClauseBudgetError:
    """The clause set of a walk result, or its error."""
    if type(result) is list:
        result = _distribute(result)
    if type(result) is ClauseBudgetError:
        return result
    return ClauseSet(result)


def _distribute(parts: list[tuple[Clause, ...]]) -> tuple[Clause, ...] | ClauseBudgetError:
    """The clauses of the disjunction of ``parts``, each a conjunction of
    clauses: the cross product distributes ``|`` over ``&``, each product
    put in canonical order.  Parts of one clause make one clause between
    them, and each longer part multiplies the clauses so far.  The
    :class:`ClauseBudgetError`, built before any clause, when the product
    of the parts' sizes before de-duplication is over budget."""
    sizes = [len(part) for part in parts if len(part) != 1]
    if prod(sizes) > MAX_CLAUSES:
        return ClauseBudgetError(prod(sizes))
    clauses = (Clause(lit for part in parts if len(part) == 1 for lit in part[0].literals),)
    for part in parts:
        if len(part) != 1:
            clauses = _canonical(Clause(cl.literals + d.literals) for cl in clauses for d in part)
    return clauses


def to_cnf(c: Concept) -> ClauseSet:
    """Transform any concept into its canonical clause-set normal form.

    Raises :class:`ClauseBudgetError` when a disjunction in it would
    distribute to more than :data:`MAX_CLAUSES` clauses.
    """
    f = _clause_set(_clauses(c))
    if type(f) is ClauseBudgetError:
        raise f
    return f


def literal_to_concept(lit: Literal) -> Concept:
    if isinstance(lit, Pos):
        return Name(lit.name)
    if isinstance(lit, Neg):
        return Not(Name(lit.name))
    if isinstance(lit, ExistsLit):
        return Exists(lit.role, clause_set_to_concept(lit.body))
    if isinstance(lit, ForallLit):
        return Forall(lit.role, clause_set_to_concept(lit.body))
    raise TypeError(f"not a Literal: {lit!r}")


def clause_to_concept(cl: Clause) -> Concept:
    """Re-expand a clause to a disjunction (the empty clause is ``bot``)."""
    if cl.is_empty:
        return Bottom()
    concepts = [literal_to_concept(lit) for lit in cl]
    node = concepts[0]
    for c in concepts[1:]:
        node = Or(node, c)
    return node


def clause_set_to_concept(f: ClauseSet) -> Concept:
    """Re-expand a clause set to a conjunction (the empty set is ``top``)."""
    if f.is_empty:
        return Top()
    concepts = [clause_to_concept(cl) for cl in f]
    node = concepts[0]
    for c in concepts[1:]:
        node = And(node, c)
    return node


# The complement cache, from literal to complement, oldest first.  It
# holds its literals strongly; its bound is what it can keep alive past
# their last use.  Unlike functools.lru_cache, it can be read without
# computing a missing entry, so a conversion that keeps its own stack
# can look the complements nested in a body up in it.
_COMPLEMENTS: dict = {}
_COMPLEMENTS_MAX = 4096
_COMPLEMENTS_LOCK = threading.Lock()  # makes an insertion and its eviction atomic
_DUAL = {Pos: Neg, Neg: Pos, ExistsLit: ForallLit, ForallLit: ExistsLit}


def complement(lit: Literal) -> Literal:
    """Complementary literal: names flip sign; ``exists R.F`` pairs with
    ``forall R.CNF(!F)`` and symmetrically.

    ``CNF(!F)`` is the clause set :func:`to_cnf` makes of ``!F``, built
    from ``F``'s clauses: each clause of ``F`` becomes the conjunction of
    its literals' complements, and the disjunction of those is
    distributed to clauses as :func:`to_cnf` distributes ``|``.  The
    nested complements are simplified by :func:`to_cnf`'s ``top``/``bot``
    rules: ``forall S.{}`` (``forall S.top``, true) drops out of
    its conjunction, and ``exists S.{{}}`` (``exists S.bot``, false)
    drops its whole disjunct.  A clause of ``F`` that is empty, or whose
    complements all drop out, makes ``CNF(!F)`` the empty set (true); if
    no disjunct is left, it is ``{{}}`` (false).  The outer literal is
    kept as it is: the complement of ``exists R.{{}, ...}`` is
    ``forall R.{}``.

    For names the complement is an involution; for quantified literals a
    double complement is semantically (not necessarily syntactically)
    equivalent to the original.  Complements are cached in a bounded
    cache that forgets its oldest entries first, nested complements
    too: the clash checks, A1+ and the tableau checks ask for the same
    complements again and again, a hit costs one look-up, and a miss
    builds only the complements under ``lit`` that the cache does not
    hold.  ``complement.cache_clear()`` empties it.  Raises
    :class:`ClauseBudgetError` when a disjunction the result needs
    would distribute to more than :data:`MAX_CLAUSES` clauses; one that
    drops out is never distributed.
    """
    comp = _COMPLEMENTS.get(lit)
    if comp is None:
        comp = _complement_miss(lit)
    return comp


def complement_key(lit: Literal) -> tuple:
    """The kind and the name or role that ``complement(lit)`` has: the
    first two fields of its key, ``lit``'s kind with its low bit flipped
    (positive and negated name, existential and universal) and ``lit``'s
    own name or role.  A literal without this pair in its key cannot be
    ``lit``'s complement, so a clash check needs the complement only
    where some literal has it; this needs no complement built."""
    key = lit.key
    return (key[0] ^ 1, key[1])


def _cache_clear() -> None:
    with _COMPLEMENTS_LOCK:
        _COMPLEMENTS.clear()


complement.cache_clear = _cache_clear


def _complement_miss(lit: Literal) -> Literal:
    """The complement of ``lit``, which the cache does not hold, added
    to the cache with those made on the way."""
    kind = type(lit)
    if kind is Pos or kind is Neg:
        comp = _DUAL[kind](lit.name)
        _remember(((lit, comp),))
        return comp
    if kind is not ExistsLit and kind is not ForallLit:
        raise TypeError(f"not a Literal: {lit!r}")
    made = _complement_quantified(lit)
    _remember((q, c) for q, c in made.items() if not isinstance(c, ClauseBudgetError))
    comp = made[lit]
    if isinstance(comp, ClauseBudgetError):
        raise comp
    return comp


def _remember(pairs: Iterable[tuple]) -> None:
    """Add these (literal, complement) pairs to the cache, forgetting
    the oldest entries past its bound."""
    with _COMPLEMENTS_LOCK:
        for lit, comp in pairs:
            if len(_COMPLEMENTS) >= _COMPLEMENTS_MAX:
                del _COMPLEMENTS[next(iter(_COMPLEMENTS))]
            _COMPLEMENTS[lit] = comp


def _complement_quantified(lit: Literal) -> dict:
    """The complements of ``lit`` and of every literal under it that
    the cache does not hold, by literal.  A complement whose body would
    exceed the clause budget is the ClauseBudgetError instead, kept
    until a disjunct that needs it is distributed; one that drops out
    never is."""
    made: dict = {}
    # The stack of quantified literals still to complement: one waits,
    # pushed again, under those in its body that are neither made nor
    # cached.
    todo = [lit]
    while todo:
        q = todo.pop()
        if q in made:  # pushed twice, by two literals sharing it
            continue
        missing = []
        conjunctions = []
        for cl in q.body.clauses:
            comps = []
            for n in cl.literals:
                c = _COMPLEMENTS.get(n) or made.get(n)
                if c is None:
                    kind = type(n)
                    if kind is Pos or kind is Neg:
                        c = made[n] = _DUAL[kind](n.name)
                    else:
                        missing.append(n)
                comps.append(c)
            conjunctions.append(comps)
        if missing:
            todo.append(q)
            todo += missing
            continue
        # !F: the disjunction, over F's clauses, of their complements' conjunction.
        negated = [_conjunction([_unit(c) for c in comps]) for comps in conjunctions]
        body = _clause_set(_disjunction(negated))
        made[q] = body if type(body) is ClauseBudgetError else _DUAL[type(q)](q.role, body)
    return made


# --- JSON encodings -------------------------------------------------------
#
# Nested, as ``alcsat cnf`` prints a clause set:
#
# literal   = {"pos": name} | {"neg": name}
#           | {"exists": {"role": r, "body": clauseset}}
#           | {"forall": {"role": r, "body": clauseset}}
# clause    = array of literal (canonical order)
# clauseset = array of clause (canonical order)


def literal_to_json(lit: Literal) -> dict:
    if isinstance(lit, Pos):
        return {"pos": lit.name}
    if isinstance(lit, Neg):
        return {"neg": lit.name}
    if isinstance(lit, ExistsLit):
        return {"exists": {"role": lit.role, "body": clause_set_to_json(lit.body)}}
    if isinstance(lit, ForallLit):
        return {"forall": {"role": lit.role, "body": clause_set_to_json(lit.body)}}
    raise TypeError(f"not a Literal: {lit!r}")


def clause_to_json(cl: Clause) -> list:
    return [literal_to_json(lit) for lit in cl]


def clause_set_to_json(f: ClauseSet) -> list:
    return [clause_to_json(cl) for cl in f]


# As a value table, which traces use: an array holding each distinct
# value once, after the values under it, each entry naming those by
# their indices in the array:
#
# entry = ["pos", name] | ["neg", name]
#       | ["exists", role, clause set index] | ["forall", role, clause set index]
#       | ["clause", [literal index, ...]] | ["clause_set", [clause index, ...]]
#
# A value shared by many clause sets, as the members of the nodes of a
# derivation share theirs, is written and decoded once.

LITERAL_TYPES = (Pos, Neg, ExistsLit, ForallLit)


def _parts(v: _Value) -> tuple:
    """The values ``v``'s table entry refers to."""
    cls = type(v)
    if cls is Clause:
        return v.literals
    if cls is ClauseSet:
        return v.clauses
    if cls is ExistsLit or cls is ForallLit:
        return (v.body,)
    return ()


class ValueTable:
    """A value table being written: ``entries`` holds each value
    :meth:`index` was given, and each value under one, once, in
    post-order."""

    def __init__(self) -> None:
        self.entries: list[list] = []
        self._indices: dict[_Value, int] = {}

    def index(self, value: _Value) -> int:
        """The index of ``value``'s entry, added first if it is new,
        after the new entries of the values under it."""
        get = self._indices.get
        found = get(value)
        if found is not None:
            return found
        # A stack of (value, iterator over its parts, indices of the
        # parts done): a new part is pushed, and once it has an entry
        # its index goes to the frame below, whose iterator resumes.
        stack = [(value, iter(_parts(value)), [])]
        while True:
            v, parts, refs = stack[-1]
            for p in parts:
                i = get(p)
                if i is None:
                    stack.append((p, iter(_parts(p)), []))
                    break
                refs.append(i)
            else:
                stack.pop()
                cls = type(v)
                if cls is Clause or cls is ClauseSet:
                    entry = ["clause" if cls is Clause else "clause_set", refs]
                elif cls is ExistsLit or cls is ForallLit:
                    entry = ["exists" if cls is ExistsLit else "forall", v.role, refs[0]]
                else:
                    entry = ["pos" if cls is Pos else "neg", v.name]
                i = self._indices[v] = len(self.entries)
                self.entries.append(entry)
                if not stack:
                    return i
                stack[-1][2].append(i)


_KIND_NAMES = {Clause: "clause", ClauseSet: "clause set"}


def table_refs(values: list, indices: object, kind: type | tuple[type, ...]) -> list:
    """``[values[i] for i in indices]``, where ``indices`` must be an
    array of indices of ``values`` and each value there an instance of
    ``kind``; raises :class:`ValueError` if not."""
    if not isinstance(indices, list):
        raise ValueError(f"{indices!r} is not an array of indices")
    n = len(values)
    out = []
    for i in indices:
        if type(i) is not int or not 0 <= i < n:
            raise ValueError(f"{i!r} is not an index below {n}")
        value = values[i]
        if not isinstance(value, kind):
            have, want = _KIND_NAMES.get(type(value), "literal"), _KIND_NAMES.get(kind, "literal")
            raise ValueError(f"value {i} is a {have}, not a {want}")
        out.append(value)
    return out


def table_ref(values: list, i: object, kind: type | tuple[type, ...]) -> _Value:
    """``values[i]``, checked as :func:`table_refs` checks each index."""
    if type(i) is int and 0 <= i < len(values) and isinstance(values[i], kind):
        return values[i]
    return table_refs(values, [i], kind)[0]  # raises the error for ``i``


def _interned(cls: type, items: list) -> _Collection:
    """``cls(items)``, found without sorting when ``items`` is in the
    canonical order, as a value table lists them, and the value lives."""
    ref = _INTERN.get((cls, tuple(items)))
    if ref is not None and (value := ref()) is not None:
        return value
    return cls(items)


def values_from_json(entries: object) -> list:
    """The values of a value table's entries, in order.

    One forward loop builds each value once, through the intern table,
    so the values are the interned ones and nesting takes no stack.
    Raises :class:`ValueError` on an entry :class:`ValueTable` does not
    write: an unknown tag, a name or role that is not a string, or a
    reference that is not to an earlier entry or is to one of the wrong
    kind (a clause set in a clause, a literal in a clause set).
    """
    if not isinstance(entries, list):
        raise ValueError("the value table is not an array")
    values: list[_Value] = []
    for n, entry in enumerate(entries):
        try:
            if not isinstance(entry, list) or not entry:
                raise ValueError("an entry is a non-empty array")
            tag = entry[0]
            if tag == "clause" or tag == "clause_set":
                if len(entry) != 2:
                    raise ValueError(f"a {tag} entry is [{tag!r}, [index, ...]]")
                if tag == "clause":
                    value = _interned(Clause, table_refs(values, entry[1], LITERAL_TYPES))
                else:
                    value = _interned(ClauseSet, table_refs(values, entry[1], Clause))
            elif tag == "pos" or tag == "neg":
                if len(entry) != 2 or type(entry[1]) is not str:
                    raise ValueError(f"a {tag} entry is [{tag!r}, name] with a string name")
                value = (Pos if tag == "pos" else Neg)(entry[1])
            elif tag == "exists" or tag == "forall":
                if len(entry) != 3 or type(entry[1]) is not str:
                    raise ValueError(f"a {tag} entry is [{tag!r}, role, index] with a string role")
                quant = ExistsLit if tag == "exists" else ForallLit
                value = quant(entry[1], table_ref(values, entry[2], ClauseSet))
            else:
                raise ValueError(f"unknown tag {tag!r}")
        except ValueError as exc:
            raise ValueError(f"value {n}: {exc}") from None
        values.append(value)
    return values
