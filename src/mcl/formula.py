"""Syntax of the coalition-ability language.

Core constructors: truth, atoms, negation, conjunction, and the coalition
modality ``<A>phi`` ("some available joint action of coalition A ensures
phi").  False, disjunction, implication, equivalence, the dual ``[A]``,
``box`` and ``dia`` exist only as input sugar; the parser and the helper
constructors below lower them to the core immediately, so semantic code
only ever sees the five core forms.

Formulas are immutable values and safe to share across threads.  Each node
computes its hash once, when it is built, from its class name, its own
fields and its children's stored hashes, so hashing a formula (every dict
or set lookup) costs O(1) at any depth.  Equality stays structural; it
rejects on differing stored hashes first and otherwise compares fields
along an explicit stack, so equal formulas of any depth compare without
recursion.  A pickled or copied formula is rebuilt through its constructor,
so it never carries a hash computed under another ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Iterable, Iterator


class ParseError(ValueError):
    """Malformed formula text.  ``position`` is a 0-based text offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class AgentUniverse:
    """The ordered grand coalition.

    The declaration order is canonical: all tie-breaking, subset iteration,
    and rendering follow it, and it must stay fixed for a session.
    """

    agents: tuple[str, ...]

    def __post_init__(self):
        if not self.agents:
            raise ValueError("agent universe must be nonempty")
        if len(set(self.agents)) != len(self.agents):
            raise ValueError(f"duplicate agent names: {self.agents}")

    @classmethod
    def of(cls, *agents: str) -> AgentUniverse:
        return cls(tuple(agents))

    def __contains__(self, agent: str) -> bool:
        return agent in self.agents

    def __len__(self) -> int:
        return len(self.agents)

    def __iter__(self) -> Iterator[str]:
        return iter(self.agents)

    def coalition(self, *members: str) -> Coalition:
        return Coalition(self, frozenset(members))

    @property
    def grand(self) -> Coalition:
        return Coalition(self, frozenset(self.agents))

    @property
    def empty(self) -> Coalition:
        return Coalition(self, frozenset())

    def coalitions(self) -> Iterator[Coalition]:
        """Every subset, in binary-counter order over the canonical order."""
        for mask in range(1 << len(self.agents)):
            yield Coalition(self, frozenset(
                a for k, a in enumerate(self.agents) if mask >> k & 1))


@dataclass(frozen=True)
class Coalition:
    """A subset of the agent universe (the empty coalition is allowed)."""

    universe: AgentUniverse
    members: frozenset[str]

    def __post_init__(self):
        unknown = self.members - set(self.universe.agents)
        if unknown:
            raise ValueError(f"agents not in universe: {sorted(unknown)}")

    def sorted_members(self) -> tuple[str, ...]:
        return tuple(a for a in self.universe.agents if a in self.members)

    def _same_universe(self, other: Coalition) -> None:
        if self.universe != other.universe:
            raise ValueError("coalitions belong to different universes")

    def union(self, other: Coalition) -> Coalition:
        self._same_universe(other)
        return Coalition(self.universe, self.members | other.members)

    def difference(self, other: Coalition) -> Coalition:
        self._same_universe(other)
        return Coalition(self.universe, self.members - other.members)

    @property
    def complement(self) -> Coalition:
        return Coalition(self.universe, frozenset(self.universe.agents) - self.members)

    def issubset(self, other: Coalition) -> bool:
        self._same_universe(other)
        return self.members <= other.members

    def isdisjoint(self, other: Coalition) -> bool:
        self._same_universe(other)
        return self.members.isdisjoint(other.members)

    def __contains__(self, agent: str) -> bool:
        return agent in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[str]:
        return iter(self.sorted_members())

    def render(self) -> str:
        return "{" + ",".join(self.sorted_members()) + "}"


class Formula:
    """Base class of the five core constructors.

    Each subclass sets ``_hash`` in ``__post_init__`` and is declared with
    ``eq=False``, so it inherits this class's ``__hash__`` and ``__eq__``
    instead of the recursive ones a dataclass would generate.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        a, b, stack = self, other, []
        while True:
            if a._hash != b._hash or type(a) is not type(b):
                return False
            # a dataclass lists its field names in __match_args__
            for name in a.__match_args__:
                x, y = getattr(a, name), getattr(b, name)
                if x is y:
                    continue
                if isinstance(x, Formula):
                    stack.append((x, y))
                elif x != y:
                    return False
            if not stack:
                return True
            a, b = stack.pop()

    def __reduce__(self):
        return type(self), tuple(getattr(self, fld.name) for fld in fields(self))


@dataclass(frozen=True, eq=False)
class Top(Formula):
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("Top",)))


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    name: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("Atom", self.name)))


@dataclass(frozen=True, eq=False)
class Neg(Formula):
    child: Formula

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("Neg", self.child._hash)))


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash(("And", self.left._hash, self.right._hash)))


@dataclass(frozen=True, eq=False)
class Can(Formula):
    """``<A>phi``: some available joint action of A ensures phi."""

    coalition: Coalition
    child: Formula

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash(("Can", self.coalition, self.child._hash)))


TOP = Top()
_BOT = Neg(TOP)


# -- sugar constructors; each returns a lowered core formula ----------------

def bot() -> Formula:
    return _BOT


def lor(a: Formula, b: Formula) -> Formula:
    return Neg(And(Neg(a), Neg(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return Neg(And(a, Neg(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def dual(coalition: Coalition, f: Formula) -> Formula:
    """``[A]phi``: every available joint action of A enables phi."""
    return Neg(Can(coalition, Neg(f)))


def box(universe: AgentUniverse, f: Formula) -> Formula:
    """Necessity: ``<{}>true -> <{}>phi``."""
    return implies(Can(universe.empty, TOP), Can(universe.empty, f))


def dia(universe: AgentUniverse, f: Formula) -> Formula:
    """Possibility: ``<{}>true & [{}]phi``."""
    return And(Can(universe.empty, TOP), dual(universe.empty, f))


def conj(parts: Iterable[Formula]) -> Formula:
    """Left fold of ``&`` over ``parts``; the empty conjunction is true."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else And(out, p)
    return TOP if out is None else out


def disj(parts: Iterable[Formula]) -> Formula:
    """Left fold of ``|`` over ``parts``; the empty disjunction is false."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else lor(out, p)
    return bot() if out is None else out


# -- structural measures -----------------------------------------------------

def modal_depth(f: Formula) -> int:
    """Maximal nesting of coalition modalities; 0 for propositional formulas."""
    if isinstance(f, (Top, Atom)):
        return 0
    if isinstance(f, Neg):
        return modal_depth(f.child)
    if isinstance(f, And):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, Can):
        return 1 + modal_depth(f.child)
    raise TypeError(f"not a core formula: {f!r}")


def atoms_of(f: Formula) -> frozenset[str]:
    if isinstance(f, Top):
        return frozenset()
    if isinstance(f, Atom):
        return frozenset((f.name,))
    if isinstance(f, Neg):
        return atoms_of(f.child)
    if isinstance(f, And):
        return atoms_of(f.left) | atoms_of(f.right)
    if isinstance(f, Can):
        return atoms_of(f.child)
    raise TypeError(f"not a core formula: {f!r}")


def coalitions_of(f: Formula) -> frozenset[Coalition]:
    if isinstance(f, (Top, Atom)):
        return frozenset()
    if isinstance(f, Neg):
        return coalitions_of(f.child)
    if isinstance(f, And):
        return coalitions_of(f.left) | coalitions_of(f.right)
    if isinstance(f, Can):
        return frozenset((f.coalition,)) | coalitions_of(f.child)
    raise TypeError(f"not a core formula: {f!r}")


def subformulas(f: Formula) -> list[Formula]:
    """Unique subformulas in bottom-up (postorder) order."""
    seen: set[Formula] = set()
    out: list[Formula] = []

    def walk(g: Formula) -> None:
        if g in seen:
            return
        if isinstance(g, Neg):
            walk(g.child)
        elif isinstance(g, And):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Can):
            walk(g.child)
        seen.add(g)
        out.append(g)

    walk(f)
    return out


def canonical_key(f: Formula) -> str:
    """Structural key with commutative conjunction sorted; used for memo tables."""
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Atom):
        return "a:" + f.name
    if isinstance(f, Neg):
        return "~(" + canonical_key(f.child) + ")"
    if isinstance(f, And):
        l, r = sorted((canonical_key(f.left), canonical_key(f.right)))
        return "&(" + l + "," + r + ")"
    if isinstance(f, Can):
        return "<" + ",".join(f.coalition.sorted_members()) + ">(" + canonical_key(f.child) + ")"
    raise TypeError(f"not a core formula: {f!r}")


# -- concrete grammar ---------------------------------------------------------
#
#   formula := iff ; iff := imp ("<->" imp)* ; imp := or ("->" imp)? ;
#   or := and ("|" and)* ; and := unary ("&" unary)* ;
#   unary := "~" unary | "<" coal ">" unary | "[" coal "]" unary
#          | "box" unary | "dia" unary | atom ;
#   atom := "true" | "false" | ident | "(" formula ")" ;
#   coal := "{" (ident ("," ident)*)? "}"
#
# "~" and the modalities bind tightest, then "&", "|", "->" (right
# associative), "<->".  "[A]phi" is the dual of "<A>phi".

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PUNCT = ("<->", "->", "|", "&", "~", "<", ">", "[", "]", "{", "}", "(", ")", ",")
_KEYWORDS = ("true", "false", "box", "dia")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            kind = word if word in _KEYWORDS else "ident"
            tokens.append((kind, word, i))
            i = m.end()
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append((p, p, i))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str, universe: AgentUniverse):
        self.text = text
        self.universe = universe
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][2]
        return len(self.text)

    def _take(self, kind: str) -> tuple[str, str, int]:
        if self._peek() != kind:
            raise ParseError(f"expected {kind!r}", self._here())
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def formula(self) -> Formula:
        return self.iff()

    def iff(self) -> Formula:
        f = self.imp()
        while self._peek() == "<->":
            self._take("<->")
            f = iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        f = self.disjunction()
        if self._peek() == "->":
            self._take("->")
            return implies(f, self.imp())
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self._peek() == "|":
            self._take("|")
            f = lor(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self._peek() == "&":
            self._take("&")
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind = self._peek()
        if kind == "~":
            self._take("~")
            return Neg(self.unary())
        if kind == "<":
            self._take("<")
            coal = self.coal()
            self._take(">")
            return Can(coal, self.unary())
        if kind == "[":
            self._take("[")
            coal = self.coal()
            self._take("]")
            return dual(coal, self.unary())
        if kind == "box":
            self._take("box")
            return box(self.universe, self.unary())
        if kind == "dia":
            self._take("dia")
            return dia(self.universe, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind = self._peek()
        if kind == "true":
            self._take("true")
            return TOP
        if kind == "false":
            self._take("false")
            return bot()
        if kind == "ident":
            _, name, _ = self._take("ident")
            return Atom(name)
        if kind == "(":
            self._take("(")
            f = self.formula()
            self._take(")")
            return f
        raise ParseError("expected a formula", self._here())

    def coal(self) -> Coalition:
        self._take("{")
        members: list[str] = []
        if self._peek() == "ident":
            while True:
                _, name, at = self._take("ident")
                if name not in self.universe:
                    raise ParseError(f"unknown agent {name!r}", at)
                members.append(name)
                if self._peek() != ",":
                    break
                self._take(",")
        self._take("}")
        return self.universe.coalition(*members)


def agents_mentioned(text: str) -> tuple[str, ...]:
    """Agent names inside coalition braces, in first-mention order.

    Lets callers default the grand coalition to exactly the agents a
    formula talks about.
    """
    names: list[str] = []
    depth = 0
    for kind, word, _ in _tokenize(text):
        if kind == "{":
            depth += 1
        elif kind == "}":
            depth = max(0, depth - 1)
        elif kind == "ident" and depth and word not in names:
            names.append(word)
    return tuple(names)


def parse(text: str, universe: AgentUniverse) -> Formula:
    """Parse ``text`` into a lowered core formula.

    Raises ParseError on syntax errors, unknown agents, or empty input.
    """
    parser = _Parser(text, universe)
    if not parser.tokens:
        raise ParseError("empty input", 0)
    f = parser.formula()
    if parser.pos != len(parser.tokens):
        raise ParseError(f"unexpected token {parser.tokens[parser.pos][1]!r}",
                         parser.tokens[parser.pos][2])
    return f


# -- printing -----------------------------------------------------------------

def pretty(f: Formula) -> str:
    """Deterministic text for a core formula; ``parse(pretty(f)) == f``."""
    return _render(f, 0)


def _render(f: Formula, min_level: int) -> str:
    # levels: 0 any, 3 "&" argument position, 4 unary operand
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Neg):
        return "~" + _render(f.child, 4)
    if isinstance(f, Can):
        return "<" + f.coalition.render() + ">" + _render(f.child, 4)
    if isinstance(f, And):
        text = _render(f.left, 3) + " & " + _render(f.right, 4)
        return "(" + text + ")" if min_level >= 4 else text
    raise TypeError(f"not a core formula: {f!r}")
