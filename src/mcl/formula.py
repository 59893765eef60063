"""Syntax of the coalition-ability language.

Core constructors: truth, atoms, negation, conjunction, and the coalition
modality ``<A>phi`` ("some available joint action of coalition A ensures
phi").  False, disjunction, implication, equivalence, the dual ``[A]``,
``box`` and ``dia`` exist only as input sugar; the parser and the helper
constructors below lower them to the core immediately, so semantic code
only ever sees the five core forms.

Formulas are immutable values and safe to share across threads.  Each node
stores its hash and modal depth when it is built, so hashing and
``modal_depth`` cost O(1) at any depth; equality compares along an explicit
stack after a stored-hash check.  ``walk`` computes the other measures in
one iterative walk on the first request and caches them on the node (racing
threads only store equal values twice).  The parser reads coarse tokens
onto explicit stacks.  A pickled or copied formula or coalition is rebuilt
through its constructor, with no cache and no hash from another
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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

    def __reduce__(self):  # the cached grand and empty coalitions are rebuilt
        return AgentUniverse, (self.agents,)

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
    """A subset of the agent universe (the empty coalition is allowed).

    Its hash is computed once, when it is built."""

    universe: AgentUniverse
    members: frozenset[str]

    def __post_init__(self):
        unknown = self.members - set(self.universe.agents)
        if unknown:
            raise ValueError(f"agents not in universe: {sorted(unknown)}")
        self.__dict__["_hash"] = hash((self.universe, self.members))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Coalition, (self.universe, self.members)

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

    Each subclass is a ``dataclass(frozen=True, eq=False, init=False)`` whose
    own ``__init__`` writes its fields, ``_hash`` and ``_depth`` straight into
    ``__dict__`` (past the frozen ``__setattr__``) in one step, and inherits
    this class's ``__hash__`` and ``__eq__`` instead of the recursive ones a
    dataclass would generate.
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
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, eq=False, init=False)
class Top(Formula):
    def __init__(self):
        d = self.__dict__
        d["_hash"], d["_depth"] = hash(("Top",)), 0


@dataclass(frozen=True, eq=False, init=False)
class Atom(Formula):
    name: str

    def __init__(self, name: str):
        d = self.__dict__
        d["name"], d["_hash"], d["_depth"] = name, hash(("Atom", name)), 0


@dataclass(frozen=True, eq=False, init=False)
class Neg(Formula):
    child: Formula

    def __init__(self, child: Formula):
        d = self.__dict__
        d["child"], d["_hash"], d["_depth"] = child, hash(("Neg", child._hash)), child._depth


@dataclass(frozen=True, eq=False, init=False)
class And(Formula):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        d = self.__dict__
        d["left"], d["right"] = left, right
        d["_hash"] = hash(("And", left._hash, right._hash))
        d["_depth"] = left._depth if left._depth > right._depth else right._depth


@dataclass(frozen=True, eq=False, init=False)
class Can(Formula):
    """``<A>phi``: some available joint action of A ensures phi."""

    coalition: Coalition
    child: Formula

    def __init__(self, coalition: Coalition, child: Formula):
        d = self.__dict__
        d["coalition"], d["child"] = coalition, child
        d["_hash"] = hash(("Can", coalition._hash, child._hash))
        d["_depth"] = child._depth + 1


TOP = Top()
_BOT = Neg(TOP)
_CORE = frozenset((Top, Atom, Neg, And, Can))


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
    request and cached on ``f``; every later call returns the same object.

    A run of unary nodes is descended in one inner loop.  A subformula is
    found again through its stored hash, and compared only on a hash hit."""
    if "_walk" in vars(f):
        return f._walk
    subs: list[Formula] = []  # the unique subformulas, in postorder
    slots: list[tuple[int, int]] = []
    first: dict[int, int] = {}  # stored hash -> slot of the first one with it
    clashes: dict[Formula, int] = {}  # unequal ones whose hash was taken
    atoms: list[str] = []
    coalitions: set[Coalition] = set()
    last = None  # the coalition added last
    done: list[int] = []  # slots of the subformulas just finished, last on top
    todo: list = [f]  # subformulas to visit; None: finish the run below it
    while todo:
        g = todo.pop()
        if g is None:  # the operands of the And ending the run below are done
            run, y, x = todo.pop(), done.pop(), done.pop()
        else:
            run = []  # new nodes from g down, outermost first
            while True:
                kind = g.__class__
                if kind not in _CORE:
                    raise TypeError(f"not a core formula: {g!r}")
                x = y = first.get(g._hash)
                if x is not None and subs[x] is not g and subs[x] != g:
                    x = y = clashes.get(g)
                if x is not None:
                    break
                run.append(g)
                if kind is not Neg and kind is not Can:
                    x = y = -1
                    break
                if kind is Can and g.coalition is not last:
                    last = g.coalition
                    coalitions.add(last)
                g = g.child
            if kind is And and x == -1:  # operands first, left to right
                todo += (run, None, g.right, g.left)
                continue
            if kind is Atom and x == -1:
                atoms.append(g.name)
        for g in reversed(run):
            n = len(subs)
            if first.setdefault(g._hash, n) != n:
                clashes[g] = n
            subs.append(g)
            slots.append((x, y))
            x = y = n
        done.append(x)
    f.__dict__["_walk"] = result = Walk(
        tuple(subs), tuple(slots), frozenset(atoms), frozenset(coalitions))
    return result


def atoms_in(*parts: Formula) -> set[str]:
    """The atoms of ``parts``, by a scan that caches no walk on them; each
    ``And`` is entered once, so shared operands are not scanned again."""
    names: set[str] = set()
    entered: set[int] = set()
    todo = list(parts)
    while todo:
        g = todo.pop()
        while g.__class__ is Neg or g.__class__ is Can:
            g = g.child
        if g.__class__ is Atom:
            names.add(g.name)
        elif g.__class__ is And and id(g) not in entered:
            entered.add(id(g))
            todo += (g.left, g.right)
    return names


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
# associative), "<->".  "[A]phi" is the dual of "<A>phi".  Tokens are
# coarse: a run of "~" is one token, and so is a modality such as
# "<{a, b}>".  One loop moves them onto an operand stack and an operator
# stack (operator-precedence parsing, as in Dijkstra's shunting yard), so
# parentheses and prefix chains nest to any depth without recursion.

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_COAL = rf"\s*\{{\s*(?:{_IDENT}(?:\s*,\s*{_IDENT})*)?\s*\}}\s*"
# 1 an identifier, 2 a run of "~", 3 a well-formed modality, 4 punctuation
# (longest first), or any other non-space character, which is an error;
# ``\s`` is exactly ``str.isspace``
_TOKEN_RE = re.compile(rf"({_IDENT})|(~(?:\s*~)*)|(<{_COAL}>|\[{_COAL}\])"
                       r"|(<->|->|[|&<>\[\]{}(),])|\S")
_KEYWORDS = ("true", "false", "box", "dia")
_LEVEL = {"<->": 0, "->": 1, "|": 2, "&": 3}  # loosest first
_BINARY = (iff, implies, lor, And)  # by level


def check_name(name: str) -> str:
    """``name``, if formulas can write it as an agent or an atom: an
    identifier that is not a keyword.  Raises ValueError otherwise."""
    if not re.fullmatch(_IDENT, name) or name in _KEYWORDS:
        raise ValueError(f"not a name formulas can write (an identifier other "
                         f"than {', '.join(_KEYWORDS)}): {name!r}")
    return name


def _coalition(text: str, at: int, universe: AgentUniverse) -> Coalition:
    """The coalition of the modality that opens at ``at``, read token by
    token as ``coal`` and its closing ">" or "]"; raises the ParseError of
    the first token that does not fit."""
    close, members, want = ">" if text[at] == "<" else "]", [], "{"
    # want: "{", "first" (an ident or "}"), "ident", "," (or "}"), then close
    for m in chain(_TOKEN_RE.finditer(text, at + 1), (None,)):
        word, pos = (m.group(), m.start()) if m else ("", len(text))
        if word == want and want in ("{", ",", close):
            if want == close:
                return universe.coalition(*members)
            want = "first" if want == "{" else "ident"
        elif want in ("first", "ident") and m and m.lastindex == 1 and word not in _KEYWORDS:
            if word not in universe:
                raise ParseError(f"unknown agent {word!r}", pos)
            members.append(word)
            want = ","
        elif want in ("first", ",") and word == "}":
            want = close
        else:
            raise ParseError(f"expected {'}' if want in ('first', ',') else want!r}", pos)


def agents_mentioned(text: str) -> tuple[str, ...]:
    """Agent names inside coalition braces, in first-mention order.

    Lets callers default the grand coalition to exactly the agents a
    formula talks about.
    """
    names: dict[str, None] = {}
    depth = 0
    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastindex, m.group()
        if kind is None:
            raise ParseError(f"unexpected character {word!r}", m.start())
        depth = max(0, depth + (word == "{") - (word == "}"))
        found = re.findall(_IDENT, word) if kind == 3 else (word,) if kind == 1 and depth else ()
        names.update((name, None) for name in found if name not in _KEYWORDS)
    return tuple(names)


def parse(text: str, universe: AgentUniverse) -> Formula:
    """Parse ``text`` into a lowered core formula.

    Raises ParseError on syntax errors, unknown agents, or empty input; an
    unexpected character anywhere is reported before any other error.
    """
    try:
        return _parse(text, universe)
    except ParseError as exc:  # the tokens before the failure were all read
        for m in _TOKEN_RE.finditer(text, exc.position):
            if m.lastindex is None:
                raise ParseError(f"unexpected character {m.group()!r}", m.start()) from None
        raise


def _parse(text: str, universe: AgentUniverse) -> Formula:
    operands: list[Formula] = []
    ops: list = []  # binary levels, "(" markers and prefix runs [build, arg, count]
    coalitions: dict[str, Coalition] = {}  # by modality text
    depth, operand = 0, True  # open parentheses; whether an operand comes next

    def fold(level: int) -> None:
        """Apply the pending binary operators that bind tighter than one of
        ``level`` (-1: all of them, down to the innermost "(")."""
        while ops and ops[-1].__class__ is int and (ops[-1] > level or ops[-1] == level != 1):
            right = operands.pop()
            operands[-1] = _BINARY[ops.pop()](operands[-1], right)

    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastindex, m.group()
        if not operand:
            if word in _LEVEL:
                fold(_LEVEL[word])
                ops.append(_LEVEL[word])
                operand = True
                continue
            if word != ")" or not depth:
                shown = word[0] if kind == 2 or kind == 3 else word
                raise ParseError("expected ')'" if depth else f"unexpected token {shown!r}",
                                 m.start())
            fold(-1)
            ops.pop()
            depth -= 1
            f = operands.pop()
        elif kind == 1 and word not in _KEYWORDS:
            f = Atom(word)
        elif word == "true" or word == "false":
            f = TOP if word == "true" else _BOT
        elif word == "(":
            ops.append(word)
            depth += 1
            continue
        else:
            if kind == 1:  # box or dia
                build, arg, count = box if word == "box" else dia, universe, 1
            elif kind == 2:
                build, arg, count = Neg, None, word.count("~")
            elif kind == 3 or word == "<" or word == "[":  # a lone "<" fails here
                if word not in coalitions:
                    coalitions[word] = _coalition(text, m.start(), universe)
                build, arg, count = Can if word[0] == "<" else dual, coalitions[word], 1
            else:
                raise ParseError("expected a formula", m.start())
            top = ops[-1] if ops else None
            if top.__class__ is list and top[0] is build and top[1] is arg:
                top[2] += count
            else:
                ops.append([build, arg, count])
            continue
        while ops and ops[-1].__class__ is list:  # apply the prefix runs before f
            build, arg, count = ops.pop()
            for _ in range(count):
                f = build(f) if arg is None else build(arg, f)
        operands.append(f)
        operand = False
    if operand:
        raise ParseError("expected a formula", len(text)) if ops or operands \
            else ParseError("empty input", 0)
    if depth:
        raise ParseError("expected ')'", len(text))
    fold(-1)
    return operands[0]


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
