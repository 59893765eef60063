"""Normal form: every formula of modal depth >= 1 is equivalent to a
conjunction of *standard formulas*.

A standard formula is a clause

    gamma | (<A_1>phi_1 & ... & <A_m>phi_m  ->  <B_1>psi_1 | ... | <B_n>psi_n)

where gamma is a disjunction of propositional literals (the empty gamma
renders false), the positive side always contains ``<AG>false``, and a
nonempty negative side always contains ``<{}>true``.  Both paddings are
harmless: ``~<AG>false`` is valid, and any ``<A>phi`` already implies
``<{}>true``.

The conversion treats maximal modal subformulas as opaque atoms, pushes
negations to the literals, and distributes to CNF, all on an explicit
stack, so Boolean structure of any depth converts.  No fresh-variable
tricks: those are only equisatisfiable, which is unsound for validity
clauses.  The exponential blowup of plain distribution is accepted at desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Collection, Iterator

from .formula import (TOP, AgentUniverse, And, Atom, Can, Coalition, Formula,
                      Neg, Top, bot, conj, disj, implies, modal_depth, pretty)


@dataclass(frozen=True)
class StandardFormula:
    """One clause of the normal form.

    ``gamma`` lists propositional literals (atoms, negated atoms, or the
    constant true); ``ni`` and ``pi`` list (coalition, goal) pairs for the
    negative and positive side.
    """

    universe: AgentUniverse
    gamma: tuple[Formula, ...]
    ni: tuple[tuple[Coalition, Formula], ...]
    pi: tuple[tuple[Coalition, Formula], ...]

    def __post_init__(self):
        for lit in self.gamma:
            if not _is_gamma_literal(lit):
                raise ValueError(f"not a propositional literal: {lit!r}")
        if not self.pi:
            raise ValueError("the positive side must not be empty")
        # scanning from the end, where _clause_to_standard puts the paddings
        if (self.universe.grand, bot()) not in reversed(self.pi):
            raise ValueError("the positive side must contain <AG>false")
        if self.ni and (self.universe.empty, TOP) not in reversed(self.ni):
            raise ValueError("a nonempty negative side must contain <{}>true")

    def gamma_formula(self) -> Formula:
        return disj(self.gamma)

    def to_formula(self) -> Formula:
        antecedent = conj(Can(c, g) for c, g in self.ni)
        consequent = disj(Can(c, g) for c, g in self.pi)
        return disj((self.gamma_formula(), implies(antecedent, consequent)))

    def render(self) -> str:
        """Clause text in the surface grammar; parsing it back yields exactly
        ``to_formula()``."""
        gamma_txt = " | ".join(pretty(lit) for lit in self.gamma) or "false"
        ant = " & ".join(pretty(Can(c, g)) for c, g in self.ni) or "true"
        cons = " | ".join(pretty(Can(c, g)) for c, g in self.pi)
        return f"{gamma_txt} | ({ant} -> {cons})"

    @property
    def depth(self) -> int:
        return 1 + max(modal_depth(g) for _, g in self.ni + self.pi)


@dataclass(frozen=True)
class Ni0Summary:
    """Negative-side entries with the empty coalition, and their conjunction."""

    indices: tuple[int, ...]
    phi: Formula


def ni0(sf: StandardFormula) -> Ni0Summary:
    indices = tuple(i for i, (c, _) in enumerate(sf.ni) if not c.members)
    phi = conj(sf.ni[i][1] for i in indices)
    return Ni0Summary(indices, phi)


def _is_gamma_literal(f: Formula) -> bool:
    return (isinstance(f, (Top, Atom))
            or (isinstance(f, Neg) and isinstance(f.child, Atom)))


def gamma_is_tautology(gamma: tuple[Formula, ...]) -> bool:
    """Complete for elementary disjunctions: true iff the constant true or a
    complementary literal pair occurs."""
    lits = set(gamma)
    return TOP in lits or any(isinstance(lit, Neg) and lit.child in lits for lit in lits)


# -- conversion ----------------------------------------------------------------

_Lit = tuple[bool, Formula]  # (polarity, leaf); leaf is Top, Atom, or Can


def _cnf(f: Formula) -> list[dict[_Lit, None]]:
    """CNF of the propositional skeleton, treating Can nodes as leaves, from
    a stack of (subformula, polarity) pairs; ``None`` marks an ``And`` whose
    operand results top ``done``.  Or-ing clauses is a dict union, which
    keeps the first of duplicate literals; a false leaf is the empty clause."""
    todo: list[tuple[Formula | None, bool]] = [(f, True)]
    done: list[list[dict[_Lit, None]]] = []
    while todo:
        g, positive = todo.pop()
        if g is None:
            right, left = done.pop(), done.pop()
            done.append(left + right if positive
                        else [c1 | c2 for c1 in left for c2 in right])
        elif isinstance(g, Neg):
            todo.append((g.child, not positive))
        elif isinstance(g, And):
            todo += ((None, positive), (g.right, positive), (g.left, positive))
        elif isinstance(g, Top) and not positive:
            done.append([{}])
        elif isinstance(g, (Top, Atom, Can)):
            done.append([{(positive, g): None}])
        else:
            raise TypeError(f"not a core formula: {g!r}")
    return done[0]


def _clause_depth(clause: Collection[_Lit]) -> int:
    return max((modal_depth(leaf) for _, leaf in clause), default=0)


def _prune(clauses: list[Collection[_Lit]],
           target_depth: int) -> list[Collection[_Lit]]:
    """Drop duplicate and absorbed clauses, but never let the maximal clause
    depth fall below ``target_depth`` (equivalence would survive, depth
    preservation would not)."""
    unique: dict[frozenset[_Lit], Collection[_Lit]] = {}
    for clause in clauses:
        unique.setdefault(frozenset(clause), clause)
    # A clause survives when no other clause is a strict subset of it.  Such
    # a subset is strictly smaller, and since < is transitive some minimal
    # one survives, so each clause is tested against the smaller survivors.
    minimal: set[frozenset[_Lit]] = set()
    for _, group in groupby(sorted(unique, key=len), key=len):
        minimal.update([key for key in group
                        if not any(small < key for small in minimal)])
    survivors = [c for key, c in unique.items() if key in minimal]
    if all(_clause_depth(c) < target_depth for c in survivors):
        for c in unique.values():  # no survivor is this deep
            if _clause_depth(c) == target_depth:
                survivors.append(c)
                break
    return survivors


@lru_cache(maxsize=16)
def _paddings(universe: AgentUniverse) -> tuple[_Lit, _Lit]:
    """The padding literals ``<AG>false`` and ``~<{}>true``, once per universe."""
    return (True, Can(universe.grand, bot())), (False, Can(universe.empty, TOP))


def _clause_to_standard(clause: Collection[_Lit],
                        universe: AgentUniverse) -> StandardFormula:
    gamma: list[Formula] = []
    ni: list[tuple[Coalition, Formula]] = []
    pi: list[tuple[Coalition, Formula]] = []
    for positive, leaf in clause:
        if isinstance(leaf, Can):
            # literals are already unique, so each pair occurs once per side
            (pi if positive else ni).append((leaf.coalition, leaf.child))
        else:
            gamma.append(leaf if positive else Neg(leaf))
    grand, empty = _paddings(universe)
    if grand not in clause:
        pi.append((universe.grand, bot()))
    if ni and empty not in clause:
        ni.append((universe.empty, TOP))
    return StandardFormula(universe, tuple(gamma), tuple(ni), tuple(pi))


def standard_clauses(f: Formula, universe: AgentUniverse) -> Iterator[StandardFormula]:
    """The clauses of ``to_standard_conjunction``, each built when it is taken."""
    depth = modal_depth(f)
    if depth < 1:
        raise ValueError("normal form is defined for modal depth >= 1")
    return (_clause_to_standard(c, universe) for c in _prune(_cnf(f), depth))


def to_standard_conjunction(f: Formula,
                            universe: AgentUniverse) -> tuple[StandardFormula, ...]:
    """Equivalent conjunction of standard formulas with the same modal depth.

    Only defined for modal depth >= 1; propositional inputs belong to the
    truth-table path of the decision procedure (padding a depth-0 formula
    would raise its depth).
    """
    return tuple(standard_clauses(f, universe))
