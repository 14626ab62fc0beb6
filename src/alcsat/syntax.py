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

Quantifiers and parentheses nest at most :data:`MAX_NESTING` deep;
deeper input is a :class:`ParseError`.  Runs of ``!`` and chains of
``&`` / ``|`` do not nest and have no such bound.

Input is UTF-8 but only the ASCII tokens above are meaningful.  All
functions here are pure over immutable values and safe to call
concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_KEYWORDS = frozenset({"top", "bot", "forall", "exists"})

# Every stage after the parser (normal form, complements, tableau,
# model evaluation) recurses once per nested quantifier, and the parser
# itself once per quantifier or parenthesis; this bound keeps all of
# them well inside Python's recursion limit.
MAX_NESTING = 100


def _check_identifier(kind: str, value: str) -> None:
    if not _IDENT_RE.fullmatch(value):
        raise ValueError(f"invalid {kind} identifier: {value!r}")
    if value in _KEYWORDS:
        raise ValueError(f"{kind} identifier collides with keyword: {value!r}")


class Concept:
    """Base class for ALC concept ASTs (finite immutable trees)."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_concept(self)


@dataclass(frozen=True, slots=True)
class Name(Concept):
    name: str

    def __post_init__(self) -> None:
        _check_identifier("concept", self.name)


@dataclass(frozen=True, slots=True)
class Top(Concept):
    pass


@dataclass(frozen=True, slots=True)
class Bottom(Concept):
    pass


@dataclass(frozen=True, slots=True)
class Not(Concept):
    body: Concept


@dataclass(frozen=True, slots=True)
class And(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, slots=True)
class Or(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, slots=True)
class Forall(Concept):
    role: str
    body: Concept

    def __post_init__(self) -> None:
        _check_identifier("role", self.role)


@dataclass(frozen=True, slots=True)
class Exists(Concept):
    role: str
    body: Concept

    def __post_init__(self) -> None:
        _check_identifier("role", self.role)


class ParseError(Exception):
    """Malformed concept text.

    Attributes:
        offset: 1-based byte offset of the offending position.
        expected: token descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...]) -> None:
        super().__init__(f"{message} at offset {offset} (expected {', '.join(expected)})")
        self.offset = offset
        self.expected = expected


class _Token(NamedTuple):
    kind: str  # "name", "keyword", punctuation itself, or "end"
    text: str
    offset: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "&|!().":
            tokens.append(_Token(ch, ch, i + 1))
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            kind = "keyword" if word in _KEYWORDS else "name"
            tokens.append(_Token(kind, word, i + 1))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1, ("concept",))
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._nesting = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str, description: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.offset, (description,))
        return self._advance()

    def _nested(self, parse, tok: _Token) -> Concept:
        """Parse one level deeper than ``tok``, the quantifier or ``(``
        that opens it."""
        if self._nesting == MAX_NESTING:
            raise ParseError(
                f"quantifiers and parentheses nested deeper than {MAX_NESTING}",
                tok.offset,
                (f"at most {MAX_NESTING} levels of nesting",),
            )
        self._nesting += 1
        node = parse()
        self._nesting -= 1
        return node

    def concept(self) -> Concept:
        node = self._and()
        while self._peek().kind == "|":
            self._advance()
            node = Or(node, self._and())
        return node

    def _and(self) -> Concept:
        node = self._unary()
        while self._peek().kind == "&":
            self._advance()
            node = And(node, self._unary())
        return node

    def _unary(self) -> Concept:
        # A run of "!" is counted in a loop, not parsed by recursion, so
        # thousands of negations need no call stack.
        negations = 0
        while self._peek().kind == "!":
            self._advance()
            negations += 1
        node = self._primary()
        for _ in range(negations):
            node = Not(node)
        return node

    def _primary(self) -> Concept:
        tok = self._peek()
        if tok.kind == "keyword" and tok.text in ("forall", "exists"):
            self._advance()
            role = self._expect("name", "role name")
            self._expect(".", "'.'")
            body = self._nested(self._unary, tok)
            return Forall(role.text, body) if tok.text == "forall" else Exists(role.text, body)
        if tok.kind == "keyword" and tok.text == "top":
            self._advance()
            return Top()
        if tok.kind == "keyword" and tok.text == "bot":
            self._advance()
            return Bottom()
        if tok.kind == "name":
            self._advance()
            return Name(tok.text)
        if tok.kind == "(":
            self._advance()
            node = self._nested(self.concept, tok)
            self._expect(")", "')'")
            return node
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}",
            tok.offset,
            ("'!'", "'forall'", "'exists'", "'top'", "'bot'", "name", "'('"),
        )


def parse_concept(text: str) -> Concept:
    """Parse concept text into its unique AST.

    Whitespace-insensitive.  Raises :class:`ParseError` (with a 1-based
    offset and the expected-token set) on any malformed input; no other
    outcome is possible.
    """
    parser = _Parser(_tokenize(text))
    node = parser.concept()
    tok = parser._peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.offset, ("end of input",))
    return node


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
