"""Model checking for the coalition-ability language.

Truth is compositional: ``<A>phi`` holds at a state when some available
joint action of ``A`` there has all its outcome states satisfying ``phi``.
``eval_all`` fills one truth column per subformula bottom-up, so every
(subformula, state) pair is evaluated once; ``ensures`` wraps it.  On
models of over 64 states ``holds`` checks from the point (local model
checking, Stirling & Walker, TCS 1991): a downward pass marks where each
subformula is read, and each ``<A>`` is checked only there.  All
functions are pure.

Columns are int bitsets over state indices (bit k is ``model.states[k]``),
so ``~`` and ``&`` are single big-int operations.  The formula is compiled
once per formula object (``formula.walk``), and the model groups and orders
its rows once, when it is built (``GameModel.canonical_rows``).  The masks
are built per call: every stored row becomes an outcome mask, and for each
distinct coalition ``A`` in the formula a state's rows are grouped by their
projection onto ``A``, keeping the union of each group's outcomes.  ``<A>``
then holds where some group's mask is a subset of the child's column.  A call
costs O(stored rows x distinct coalitions) plus O(|f|) big-int operations,
never walks the profile space, and caches nothing on the model.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from operator import itemgetter

from .formula import (AgentUniverse, And, Atom, Can, Coalition, Formula, Neg,
                      atoms_of, coalitions_of, subformulas, walk)
from .model import GameModel, JointAction

# per state, in ``model.states`` order: (profile items, outcome mask) rows
_Rows = list[list[tuple[tuple[tuple[str, str], ...], int]]]
# up to this many states, checking them all costs less than the downward pass
_LOCAL_MIN_STATES = 64


@dataclass(frozen=True)
class PointedModel:
    """A model with a designated state."""

    model: GameModel
    state: str

    def __post_init__(self):
        if self.state not in self.model.states:
            raise ValueError(f"state {self.state!r} not in the model")


def check_compatible(model: GameModel, f: Formula) -> None:
    """Reject formulas with undeclared atoms or a different agent universe."""
    missing = atoms_of(f).difference(model.atoms)
    if missing:
        raise ValueError(f"atoms {sorted(missing)} are not declared in the model")
    for coalition in coalitions_of(f):
        if coalition.universe != model.universe:
            raise ValueError("formula coalition universe differs from the model's")


def eval_all(model: GameModel, f: Formula) -> dict[str, bool]:
    """Truth value of ``f`` at every state of ``model``."""
    column = _column(model, f)
    return {s: bool(column >> k & 1) for k, s in enumerate(model.states)}


def _column(model: GameModel, f: Formula, point: int | None = None) -> int:
    """The column of ``f``: exact at every state, or only at state ``point``."""
    check_compatible(model, f)
    states = model.states
    w = walk(f)
    rows: _Rows = _outcome_masks(model) if w.coalitions else []  # one list per state
    groups: dict[frozenset[str], list[tuple[int, ...]]] = {}
    needs = None  # per subformula, a mask of the states where the point's truth reads it
    if point is not None and len(states) > _LOCAL_MIN_STATES:
        needs = [0] * (len(w.slots) - 1) + [1 << point]
        for i in reversed(range(len(w.slots))):  # parents before children
            (x, y), need = w.slots[i], needs[i]
            if x < 0 or not need:
                continue
            if isinstance(w.subformulas[i], Can):  # the child, at every outcome
                need = 0
                for k in _bits(needs[i]):
                    for _, mask in rows[k]:
                        need |= mask
            needs[x] |= need
            needs[y] |= need

    def can(i: int, g: Can, child: int) -> int:
        members = g.coalition.members
        if members not in groups:
            groups[members] = _group_masks(rows, model.universe, members)
        outside, col, group = ~child, 0, groups[members]
        for k, masks in (enumerate(group) if needs is None
                         else ((k, group[k]) for k in _bits(needs[i]))):
            for mask in masks:
                if not mask & outside:
                    col |= 1 << k
                    break
        return col

    atoms = {a: sum(1 << k for k, s in enumerate(states) if a in model.label.get(s, ()))
             for a in w.atoms}
    return _fold(f, (1 << len(states)) - 1, atoms, can)


def _fold(f: Formula, full: int, atoms: dict[str, int],
          can: Callable[[int, Can, int], int] | None = None) -> int:
    """The column of ``f`` over the bits of ``full``, given its atoms' columns; its
    i-th subformula ``g = <A>phi`` (none at depth 0) gets ``can(i, g, phi's column)``."""
    cols: list[int] = []  # cols[i] is the column of subformula i
    for g, (x, y) in zip(subformulas(f), walk(f).slots):
        if isinstance(g, Neg):
            col = full & ~cols[x]
        elif isinstance(g, And):
            col = cols[x] & cols[y]
        elif isinstance(g, Can):
            col = can(len(cols), g, cols[x])
        elif isinstance(g, Atom):
            col = atoms[g.name]
        else:
            col = full
        cols.append(col)
    return cols[-1]


def _bits(mask: int) -> Iterator[int]:  # the positions of the set bits, lowest first
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _outcome_masks(model: GameModel) -> _Rows:
    bit = {s: 1 << k for k, s in enumerate(model.states)}
    out = []
    for s in model.states:
        state_rows = []
        for profile, targets in model.canonical_rows(s):
            mask = 0
            for t in targets:
                mask |= bit[t]
            state_rows.append((profile.items, mask))
        out.append(state_rows)
    return out


def _group_masks(rows: _Rows, universe: AgentUniverse,
                 members: frozenset[str]) -> list[tuple[int, ...]]:
    """Per state: the outcome mask of each available joint action of
    ``members``, i.e. the union over the rows that extend it."""
    # profile items are sorted by agent name and cover the grand coalition,
    # so each member sits at the same position in every stored profile
    positions = [i for i, a in enumerate(sorted(universe.agents)) if a in members]
    if len(positions) == len(universe):  # every row is its own joint action
        return [tuple(mask for _, mask in state_rows) for state_rows in rows]
    key = itemgetter(*positions) if positions else lambda items: ()
    out = []
    for state_rows in rows:
        acc: dict[object, int] = {}
        for items, mask in state_rows:
            k = key(items)
            acc[k] = acc.get(k, 0) | mask
        out.append(tuple(acc.values()))
    return out


def holds(pm: PointedModel, f: Formula) -> bool:
    """Truth of ``f`` at the designated state (see the module docstring)."""
    k = pm.model.states.index(pm.state)
    return bool(_column(pm.model, f, k) >> k & 1)


def ensures(pm: PointedModel, coalition: Coalition, action: JointAction,
            f: Formula) -> bool:
    """True when every outcome state of ``action`` at the point satisfies
    ``f``.  The action must be available there."""
    model, s = pm.model, pm.state
    if action not in model.av(coalition, s):
        raise ValueError(f"{action.render(model.universe)} is not available for "
                         f"{coalition.render()} at {s!r}")
    column = eval_all(model, f)
    return all(column[t] for t in model.out(coalition, s, action))
