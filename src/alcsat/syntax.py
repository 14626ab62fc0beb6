"""Concrete text syntax, parser, and printer for ALC concepts.

Grammar (EBNF)::

    concept := or
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary
             | "forall" ROLE "." unary
             | "exists" ROLE "." unary
             | "top" | "bot" | NAME
             | "(" concept ")"

Tokens: ``&`` is conjunction, ``|`` disjunction, ``!`` negation,
``forall R.C`` / ``exists R.C`` the quantifiers, ``top`` / ``bot`` the
universal and empty concepts.  Identifiers match
``[A-Za-z][A-Za-z0-9_]*``; the four keywords are reserved.  Precedence,
tightest first: ``!`` and quantifier prefixes, then ``&``, then ``|``;
binary operators associate left.  A quantifier scopes over exactly one
unary concept, so ``forall R.A & B`` parses as ``(forall R.A) & B``.

One regular expression splits the text into tokens; if they miss a
character, a search finds the first one, reported before any earlier
syntax error.  Offsets are worked out only for a
:class:`ParseError`.  The parser, a loop, builds names and quantifiers
without checking again what the token pattern matched; the public
constructors check.  Quantifiers and parentheses nest at most
:data:`MAX_NESTING` deep; deeper input is a :class:`ParseError`.  Runs
of ``!`` and chains of ``&`` / ``|`` do not nest and have no such bound.

Input is UTF-8 but only the ASCII tokens above are meaningful.  All
functions here are pure over immutable values and safe to call
concurrently.
"""

from __future__ import annotations

import re

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_KEYWORDS = frozenset({"top", "bot", "forall", "exists"})

# Stages after the parser, such as rendering a concept and writing a
# clause set as JSON, recurse once per nested quantifier; this bound
# keeps them well inside Python's recursion limit.
MAX_NESTING = 100


def _check_identifier(kind: str, value: str) -> None:
    if not _IDENT_RE.fullmatch(value):
        raise ValueError(f"invalid {kind} identifier: {value!r}")
    if value in _KEYWORDS:
        raise ValueError(f"{kind} identifier collides with keyword: {value!r}")


_set = object.__setattr__


class _Record:
    """Base of the package's plain records.  A subclass lists its fields
    in ``__slots__``, in constructor order, and writes its ``__init__``;
    this gives it equality of same-class records field by field, a repr
    ``Name(field=value, ...)``, and copy and pickle through the
    constructor.  A record with ``==`` has no hash unless frozen."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class _Frozen(_Record):
    """A record whose fields are set once, by ``__init__`` through
    ``_set``, and hash by value."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class Concept(_Frozen):
    """Base class for ALC concept ASTs (finite immutable trees).

    Equality and hash are structural, and walk the tree in a loop, so a
    chain of thousands of operands needs no call stack.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Concept):
            return NotImplemented
        return self is other or _flat(self) == _flat(other)

    def __hash__(self) -> int:
        return hash(_flat(self))

    def __str__(self) -> str:
        return render_concept(self)


def _flat(c: Concept) -> tuple:
    """Every node of ``c``, depth first, as its class followed by its
    identifiers: equal trees, and only they, give equal tuples."""
    out: list = []
    todo = [c]
    while todo:
        node = todo.pop()
        out.append(type(node))
        for field in node.__slots__:
            value = getattr(node, field)
            if isinstance(value, Concept):
                todo.append(value)
            else:
                out.append(value)
    return tuple(out)


class Name(Concept):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _check_identifier("concept", name)
        _set(self, "name", name)


class Top(Concept):
    __slots__ = ()


class Bottom(Concept):
    __slots__ = ()


class Not(Concept):
    __slots__ = ("body",)

    def __init__(self, body: Concept) -> None:
        _set(self, "body", body)


class And(Concept):
    __slots__ = ("left", "right")

    def __init__(self, left: Concept, right: Concept) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Or(Concept):
    __slots__ = ("left", "right")

    def __init__(self, left: Concept, right: Concept) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


class Forall(Concept):
    __slots__ = ("role", "body")

    def __init__(self, role: str, body: Concept) -> None:
        _check_identifier("role", role)
        _set(self, "role", role)
        _set(self, "body", body)


class Exists(Concept):
    __slots__ = ("role", "body")

    def __init__(self, role: str, body: Concept) -> None:
        _check_identifier("role", role)
        _set(self, "role", role)
        _set(self, "body", body)


class ParseError(Exception):
    """Malformed concept text.

    Attributes:
        offset: 1-based character offset of the offending position.
        expected: token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...]) -> None:
        super().__init__(f"{message} at offset {offset} (expected {', '.join(expected)})")
        self.offset = offset
        self.expected = expected


_TOKEN_RE = re.compile(r"[&|!().]|[A-Za-z][A-Za-z0-9_]*")
# A character in no token: neither space, punctuation nor a letter, or
# a digit or "_" that no identifier started before it.
_BAD_CHAR_RE = re.compile(r"[^\sA-Za-z0-9_&|!().]|(?<![A-Za-z0-9_])[0-9_]")
# Every token that is not a name; "" stands for the end of input.
_NOT_NAMES = _KEYWORDS | {"&", "|", "!", "(", ")", ".", ""}
_OPENERS = frozenset({"!", "forall", "exists", "("})
_PRIMARY = ("'!'", "'forall'", "'exists'", "'top'", "'bot'", "name", "'('")
_new = object.__new__


def _error(text: str, k: int, expected: tuple[str, ...], message: str = "") -> ParseError:
    """The error at ``text``'s ``k``-th token (the end of input after the
    last), by default that the token is unexpected.  Offsets are worked
    out here, by scanning ``text`` again: only an error needs one."""
    found = [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(text)]
    offset, token = (found + [(len(text) + 1, "")])[k]
    return ParseError(message or f"unexpected {token or 'end of input'!r}", offset, expected)


def parse_concept(text: str) -> Concept:
    """Parse concept text into its unique AST.

    Whitespace-insensitive.  Raises :class:`ParseError` (with a 1-based
    offset and the expected-token set) on any malformed input; no other
    outcome is possible.
    """
    tokens = _TOKEN_RE.findall(text)
    if len("".join(tokens)) != len("".join(text.split())):  # a character is in no token
        bad = _BAD_CHAR_RE.search(text)
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start() + 1, ("concept",))
    tokens.append("")
    i = depth = 0
    # The unary concept being read has ``prefixes`` ("!" as None, a
    # quantifier as its class and role), and the group it is in has read
    # ``disjunction | conjunction &`` so far; each open "(" keeps the
    # three of its enclosing group on ``groups``.
    groups: list[tuple] = []
    prefixes: list = []
    disjunction = conjunction = None
    while True:
        tok = tokens[i]
        while tok in _OPENERS:
            if tok == "!":
                prefixes.append(None)
                i += 1
            else:
                if tok != "(" and tokens[i + 1] in _NOT_NAMES:
                    raise _error(text, i + 1, ("role name",))
                if tok != "(" and tokens[i + 2] != ".":
                    raise _error(text, i + 2, ("'.'",))
                if depth == MAX_NESTING:
                    message = f"quantifiers and parentheses nested deeper than {MAX_NESTING}"
                    raise _error(text, i, (f"at most {MAX_NESTING} levels of nesting",), message)
                depth += 1
                if tok == "(":
                    groups.append((prefixes, disjunction, conjunction))
                    prefixes, disjunction, conjunction = [], None, None
                    i += 1
                else:
                    prefixes.append((Forall if tok == "forall" else Exists, tokens[i + 1]))
                    i += 3
            tok = tokens[i]
        if tok not in _NOT_NAMES:
            node = _new(Name)  # the token pattern has checked the identifier
            _set(node, "name", tok)
        elif tok == "top" or tok == "bot":
            node = Top() if tok == "top" else Bottom()
        else:
            raise _error(text, i, _PRIMARY)
        i += 1
        while True:
            for prefix in reversed(prefixes):
                if prefix is None:
                    node = Not(node)
                else:
                    quantified = _new(prefix[0])
                    _set(quantified, "role", prefix[1])
                    _set(quantified, "body", node)
                    node = quantified
                    depth -= 1
            conjunction = node if conjunction is None else And(conjunction, node)
            tok = tokens[i]
            if tok == "&":
                break
            disjunction = conjunction if disjunction is None else Or(disjunction, conjunction)
            if tok == "|":
                conjunction = None
                break
            if not groups:
                if tok:
                    raise _error(text, i, ("end of input",), f"trailing input {tok!r}")
                return disjunction
            if tok != ")":
                raise _error(text, i, ("')'",))
            node = disjunction
            depth -= 1
            i += 1
            prefixes, disjunction, conjunction = groups.pop()
        prefixes = []
        i += 1


_PREC_OR = 1
_PREC_AND = 2
_PREC_UNARY = 3


def _render(c: Concept, min_prec: int) -> str:
    if isinstance(c, Name):
        return c.name
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bottom):
        return "bot"
    if isinstance(c, Not):
        negations = 0  # a run of "!" is counted in a loop, as it is parsed
        while isinstance(c, Not):
            negations += 1
            c = c.body
        return "!" * negations + _render(c, _PREC_UNARY)
    if isinstance(c, Forall):
        return f"forall {c.role}." + _render(c.body, _PREC_UNARY)
    if isinstance(c, Exists):
        return f"exists {c.role}." + _render(c.body, _PREC_UNARY)
    if isinstance(c, (And, Or)):
        # The chain's left spine is walked in a loop, so thousands of
        # operands need no call stack.  Each right operand must bind
        # strictly tighter so left association round-trips structurally.
        kind = type(c)
        prec, sep = (_PREC_AND, " & ") if kind is And else (_PREC_OR, " | ")
        rights = []
        while type(c) is kind:
            rights.append(c.right)
            c = c.left
        s = sep.join([_render(c, prec)] + [_render(r, prec + 1) for r in reversed(rights)])
        return f"({s})" if prec < min_prec else s
    raise TypeError(f"not a Concept: {c!r}")


def render_concept(c: Concept) -> str:
    """Render a concept with minimal parentheses.

    The output re-parses to a structurally equal AST:
    ``parse_concept(render_concept(c)) == c``.
    """
    return _render(c, _PREC_OR)
