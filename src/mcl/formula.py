"""Syntax of the coalition-ability language.

Core constructors: truth, atoms, negation, conjunction, and the coalition
modality ``<A>phi`` ("some available joint action of coalition A ensures
phi").  False, disjunction, implication, equivalence, the dual ``[A]``,
``box`` and ``dia`` exist only as input sugar; the parser and the helper
constructors below lower them to the core immediately, so semantic code
only ever sees the five core forms.

Formulas are immutable values and safe to share across threads.  Each node
computes its hash and modal depth once, when it is built, from its class
name, its fields and its children's stored values, so hashing and
``modal_depth`` cost O(1) at any depth.  Equality is structural and compares
along an explicit stack after a stored-hash check, so it needs no recursion.
``walk`` computes the other measures in one iterative walk on the first
request and caches them on the node; threads racing on it only store equal
immutable values twice.  The cache takes no part in ``__eq__``, ``__hash__``
or pickling: a pickled or copied formula is rebuilt through its constructor,
with neither the cache nor a hash computed under another ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cached_property, partial, reduce
from typing import Iterable, Iterator, NamedTuple


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

    @cached_property
    def grand(self) -> Coalition:
        return Coalition(self, frozenset(self.agents))

    @cached_property
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
        if self.universe is not other.universe and self.universe != other.universe:
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

    Each subclass sets ``_hash`` and ``_depth`` in ``__post_init__`` and is
    declared with ``eq=False``, so it inherits this class's ``__hash__`` and
    ``__eq__`` instead of the recursive ones a dataclass would generate.
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
        d = self.__dict__  # frozen dataclass: bypass its __setattr__
        d["_hash"], d["_depth"] = hash(("Top",)), 0


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    name: str

    def __post_init__(self):
        d = self.__dict__
        d["_hash"], d["_depth"] = hash(("Atom", self.name)), 0


@dataclass(frozen=True, eq=False)
class Neg(Formula):
    child: Formula

    def __post_init__(self):
        d = self.__dict__
        d["_hash"], d["_depth"] = hash(("Neg", self.child._hash)), self.child._depth


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        d, x, y = self.__dict__, self.left, self.right
        d["_hash"] = hash(("And", x._hash, y._hash))
        d["_depth"] = x._depth if x._depth > y._depth else y._depth


@dataclass(frozen=True, eq=False)
class Can(Formula):
    """``<A>phi``: some available joint action of A ensures phi."""

    coalition: Coalition
    child: Formula

    def __post_init__(self):
        d = self.__dict__
        d["_hash"] = hash(("Can", self.coalition, self.child._hash))
        d["_depth"] = self.child._depth + 1


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
    if not isinstance(f, Formula):
        raise TypeError(f"not a core formula: {f!r}")
    return f._depth


class Walk(NamedTuple):
    """The measures of one formula that ``walk`` caches on it."""

    subformulas: tuple[Formula, ...]  # unique subformulas, bottom-up
    slots: tuple[tuple[int, int], ...]  # per subformula: its children's indices
    atoms: frozenset[str]
    coalitions: frozenset[Coalition]


def walk(f: Formula) -> Walk:
    """The measures of ``f``, computed by one iterative walk on the first
    request and cached on ``f``; every later call returns the same object."""
    if "_walk" in vars(f):
        return f._walk
    slot: dict[Formula, int] = {}  # insertion order is the postorder
    slots: list[tuple[int, int]] = []
    done: list[int] = []  # slots of the subformulas just finished, last on top
    stack: list[Formula | None] = [f]  # None: finish the node below it
    while stack:
        g = stack.pop()
        if g is None:
            g = stack.pop()
            y = done.pop()
            x = done.pop() if type(g) is And else y
        else:
            if g in slot:
                done.append(slot[g])
                continue
            kind = type(g)
            if kind is And:  # children first, left to right
                stack += (g, None, g.right, g.left)
                continue
            if kind is Neg or kind is Can:
                stack += (g, None, g.child)
                continue
            if kind is not Atom and kind is not Top:
                raise TypeError(f"not a core formula: {g!r}")
            x = y = -1
        done.append(len(slots))
        slot[g] = len(slots)
        slots.append((x, y))
    f.__dict__["_walk"] = result = Walk(
        tuple(slot), tuple(slots), frozenset(g.name for g in slot if type(g) is Atom),
        frozenset(g.coalition for g in slot if type(g) is Can))
    return result


def atoms_of(f: Formula) -> frozenset[str]:
    return walk(f).atoms


def coalitions_of(f: Formula) -> frozenset[Coalition]:
    return walk(f).coalitions


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """Unique subformulas in bottom-up (postorder) order, as the tuple
    cached on ``f`` (immutable, so callers share it safely)."""
    return walk(f).subformulas


def canonical_key(f: Formula) -> str:
    """Structural key with commutative conjunction sorted."""
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
# associative), "<->".  "[A]phi" is the dual of "<A>phi".  The four binary
# levels are the table ``_BINARY``, loosest first, which one parser method
# walks; a chain of prefix operators is read in a loop.

# an identifier, punctuation (longest first), or any other non-space
# character, which is an error; ``\s`` is exactly ``str.isspace``
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|(<->|->|[|&~<>\[\]{}(),])|\S")
_KEYWORDS = ("true", "false", "box", "dia")
_BINARY = (("<->", iff), ("->", implies), ("|", lor), ("&", And))
_PREFIX = ("~", "box", "dia", "<", "[")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        word, at = m.group(), m.start()
        if m.lastindex is None:
            raise ParseError(f"unexpected character {word!r}", at)
        kind = "ident" if m.lastindex == 1 and word not in _KEYWORDS else word
        tokens.append((kind, word, at))
    return tokens


class _Parser:
    def __init__(self, text: str, universe: AgentUniverse):
        self.universe = universe
        # the end marker's kind None matches no token kind
        self.tokens = _tokenize(text) + [(None, "", len(text))]
        self.pos = 0

    def _peek(self) -> str | None:
        return self.tokens[self.pos][0]

    def _take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        self.pos += 1
        return tok

    def binary(self, level: int = 0) -> Formula:
        """The operators of ``_BINARY[level:]``; ``->`` groups to the right,
        the others to the left."""
        if level == len(_BINARY):
            return self.unary()
        op, build = _BINARY[level]
        parts = [self.binary(level + 1)]
        while self._peek() == op:
            self.pos += 1
            parts.append(self.binary(level + 1))
        if op == "->":
            return reduce(lambda right, left: build(left, right), reversed(parts))
        return reduce(build, parts)

    def unary(self) -> Formula:
        wraps = []  # the prefix operators, outermost first
        while (kind := self._peek()) in _PREFIX:
            self.pos += 1
            if kind == "~":
                wraps.append(Neg)
            elif kind == "box" or kind == "dia":
                wraps.append(partial(box if kind == "box" else dia, self.universe))
            else:
                coal = self.coal()
                self._take(">" if kind == "<" else "]")
                wraps.append(partial(Can if kind == "<" else dual, coal))
        f = self.atom()
        for wrap in reversed(wraps):
            f = wrap(f)
        return f

    def atom(self) -> Formula:
        kind, word, at = self.tokens[self.pos]
        if kind == "(":
            self.pos += 1
            f = self.binary()
            self._take(")")
            return f
        if kind == "true":
            f = TOP
        elif kind == "false":
            f = bot()
        elif kind == "ident":
            f = Atom(word)
        else:
            raise ParseError("expected a formula", at)
        self.pos += 1
        return f

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
                self.pos += 1
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
    if len(parser.tokens) == 1:
        raise ParseError("empty input", 0)
    f = parser.binary()
    kind, word, at = parser.tokens[parser.pos]
    if kind is not None:
        raise ParseError(f"unexpected token {word!r}", at)
    return f


# -- printing -----------------------------------------------------------------

def pretty(f: Formula) -> str:
    """Deterministic text for a core formula; ``parse(pretty(f)) == f``.

    Pops (node, level) pairs, mixed with literal text, from one stack.
    Levels: 0 any, 3 the left operand of "&", 4 a unary operand, where an
    "&" gets parentheses."""
    out: list[str] = []
    todo: list[tuple[Formula, int] | str] = [(f, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, level = item
        if isinstance(g, Top):
            out.append("true")
        elif isinstance(g, Atom):
            out.append(g.name)
        elif isinstance(g, (Neg, Can)):
            out.append("~" if isinstance(g, Neg) else f"<{g.coalition.render()}>")
            todo.append((g.child, 4))
        elif isinstance(g, And):
            operands = ((g.right, 4), " & ", (g.left, 3))
            todo += (")", *operands, "(") if level >= 4 else operands
        else:
            raise TypeError(f"not a core formula: {g!r}")
    return "".join(out)
