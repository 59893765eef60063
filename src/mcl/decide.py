"""Validity and satisfiability over general concurrent game models, with
certified countermodels.

A formula of modal depth 0 is valid exactly when it holds at every
one-state model, so it is decided by model-checking the labellings of its
atoms in binary-counter order, one dead-end state each, in models of 4,
8, 16, ... up to 128 states.  The first labelling that refutes it labels
the one-state countermodel.  Deeper formulas are normalized; their
clauses are built and decided one by one, and the first refuted clause
ends the decision.  A standard clause is valid exactly when

  (a) its gamma part is a tautology, or
  (b) some negative entry <A_i>phi_i and positive entry <B_j>psi_j with
      A_i a subset of B_j make (phi_NI0 & phi_i) -> psi_j valid,

where phi_NI0 conjoins the goals of the empty-coalition negative entries.
Each reduction strictly lowers modal depth, so the decision terminates.

When a clause fails both cases, a refuting pointed model is grafted: one
fresh hub state plays a one-round game whose outcomes are the entry states
of sub-models, one per pair (i, j) with A_i a subset of B_j, each
satisfying phi_NI0 & phi_i & ~psi_j.  At the hub, profile sigma^i has all
agents play the action alpha_i and leads to the sub-models for row i; for
every pair with A_i not a subset of B_j, a spoiler profile lambda^(i,j)
differs from sigma^i only in that a witness agent from A_i - B_j plays
beta_(i,j) instead, and it leads everywhere.

The decision runs on one explicit stack (``_run``): a clause yields the
decision of each pair goal it needs and is sent the result, so chains of
pair reductions nest at any depth.  Pair verdicts are memoized
unassembled, per decision, by their parts (phi_NI0, phi_i, psi_j), so each
distinct pair goal is built and decided once and the refutations form a
DAG.  The countermodel is assembled once, with one state per hub and one
per distinct dead-end label, named ``s0`` (the point), ``s1``, ... in
preorder; hubs share action names, as availability is derived per state.
Sharing keeps truth: sending each copy of a hub in the grafted tree to its
state and each dead end to its label's keeps labels and maps rows onto
rows, a bounded morphism (Blackburn, de Rijke & Venema, *Modal Logic*,
2001, 2.1).  The model is certified once, from the point: every "invalid"
verdict carries a countermodel on which the model checker confirms
falsity.  Only the assembly declares atoms (the input's, sorted) and
actions (``idle`` without a hub).
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

# canonical_key, rename_disjoint and to_standard_conjunction stay imported,
# unused: bench/spans.py patches them by these names in this module
from .formula import (AgentUniverse, And, Can, Formula, Neg, atoms_of, canonical_key,
                      coalitions_of, conj, implies, modal_depth)
from .model import GameModel, JointAction, _chunks, rename_disjoint
from .normalform import (StandardFormula, gamma_is_tautology, ni0,
                         standard_clauses, to_standard_conjunction)
from . import semantics
from .semantics import PointedModel, holds


@dataclass(frozen=True)
class ClauseOutcome:
    """How one standard clause was settled.

    ``case`` is "gamma" (tautological gamma), "pair" (some (i, j) reduction
    succeeded), "refuted" (every pair failed; ``failed_pairs`` lists them),
    or "propositional" (depth-0 input, no clause).
    """

    clause: StandardFormula | None
    case: str
    pair: tuple[int, int] | None = None
    failed_pairs: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Verdict:
    valid: bool
    countermodel: PointedModel | None
    trace: tuple[ClauseOutcome, ...]


@dataclass(frozen=True)
class SatVerdict:
    satisfiable: bool
    witness: PointedModel | None
    trace: tuple[ClauseOutcome, ...]


@dataclass(frozen=True)
class GameForm:
    """The one-round game grafted at the hub state; target ``t<k>`` is its k-th outcome."""

    hub: str
    targets: tuple[str, ...]
    actions: tuple[str, ...]
    out0: dict[JointAction, frozenset[str]]


@dataclass(frozen=True, eq=False)
class _Refutation:
    """An unassembled countermodel: a dead end's label, or a hub's label and
    game form with one child per target."""

    label: frozenset[str]
    form: GameForm | None = None
    children: tuple[_Refutation, ...] = ()


# a refutation (None when valid) and the clause trace that settled it
_Decided = tuple[_Refutation | None, tuple[ClauseOutcome, ...]]
# one decision's pair verdicts, by pair parts (phi_NI0, phi_i, psi_j)
_Memo = dict[tuple[Formula, Formula, Formula], _Decided]
_Step = Generator["_Step", _Decided, tuple]  # a decision step; see _run


class CertificationError(RuntimeError):
    """A produced countermodel failed its own model-checking certificate."""


def decide_valid(f: Formula, universe: AgentUniverse) -> Verdict:
    """Decide whether ``f`` holds at every pointed GCGM over ``universe``.

    Invalid verdicts carry a pointed countermodel, re-checked here with the
    model checker before being returned.
    """
    pm, trace = _refute(f, universe)
    return Verdict(pm is None, pm, trace)


def decide_sat(f: Formula, universe: AgentUniverse) -> SatVerdict:
    """Satisfiability via validity of the negation; the witness (when
    satisfiable) is the countermodel of ``~f``."""
    # certified: ~f is false at the witness, so f holds there
    pm, trace = _refute(Neg(f), universe)
    return SatVerdict(pm is not None, pm, trace)


def _check_universe(f: Formula, universe: AgentUniverse) -> None:
    for coalition in coalitions_of(f):
        if coalition.universe != universe:
            raise ValueError("formula mentions a different agent universe")


def _refute(f: Formula, universe: AgentUniverse
            ) -> tuple[PointedModel | None, tuple[ClauseOutcome, ...]]:
    """The certified countermodel of ``f`` (None when valid) and its trace."""
    _check_universe(f, universe)
    node, trace = _run(_decide(f, universe, {}))
    if node is None:
        return None, trace
    return _certified(node, universe, f, "countermodel does not refute the formula"), trace


def _run(decision: _Step) -> tuple:
    """The result of ``decision``, run on one explicit stack: the top step is
    sent the last result, what it yields is pushed, and when it returns it is popped."""
    stack, value = [decision], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def _decide(f: Formula, universe: AgentUniverse, memo: _Memo) -> _Step:
    if modal_depth(f) == 0:
        return _decide_propositional(f, universe)
    trace: list[ClauseOutcome] = []
    for sf in standard_clauses(f, universe):
        outcome, refutations = yield from _decide_clause(sf, universe, memo)
        trace.append(outcome)
        if outcome.case == "refuted":
            return _graft(outcome, refutations, universe), tuple(trace)
    return None, tuple(trace)


# -- propositional base case ----------------------------------------------------

def _decide_propositional(f: Formula, universe: AgentUniverse) -> _Decided:
    names = tuple(sorted(atoms_of(f)))
    trace = (ClauseOutcome(None, "propositional"),)
    for masks in _chunks(range(1 << len(names))):
        labels = [frozenset(n for k, n in enumerate(names) if mask >> k & 1)
                  for mask in masks]
        # a dead-end state s<k> labelled labels[k] for each k
        states = tuple(f"s{k}" for k in range(len(labels)))
        model = GameModel(universe, names, ("idle",), states,
                          dict(zip(states, labels)), {})
        # through the module, so tracing that wraps eval_all sees this call
        column = semantics.eval_all(model, f)
        for state, label in zip(states, labels):
            if not column[state]:
                return _Refutation(label), trace
    return None, trace


# -- modal case -------------------------------------------------------------------

def pair_implication(sf: StandardFormula, i: int, j: int,
                     phi0: Formula | None = None) -> Formula:
    """(phi_NI0 & phi_i) -> psi_j, the goal for a pair; ``phi0`` is phi_NI0 if given."""
    phi0 = ni0(sf).phi if phi0 is None else phi0
    return implies(And(phi0, sf.ni[i][1]), sf.pi[j][1])


def _decide_clause(sf: StandardFormula, universe: AgentUniverse, memo: _Memo) -> _Step:
    """The step settling the clause: its outcome, and for a refuted clause
    the refutation of each failed pair reduction, in ``failed_pairs`` order."""
    if gamma_is_tautology(sf.gamma):
        return ClauseOutcome(sf, "gamma"), []
    phi0 = ni0(sf).phi
    failed: list[tuple[int, int]] = []
    refutations: list[_Refutation] = []
    for i, (coal_a, phi) in enumerate(sf.ni):
        for j, (coal_b, psi) in enumerate(sf.pi):
            if not coal_a.members <= coal_b.members:  # the universe is checked
                continue
            # the parts are the input's own subformulas, so equal keys are
            # mostly identical and a hit builds no goal
            key = (phi0, phi, psi)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = yield _decide(pair_implication(sf, i, j, phi0), universe, memo)
            if hit[0] is None:
                return ClauseOutcome(sf, "pair", pair=(i, j)), []
            failed.append((i, j))
            refutations.append(hit[0])
    return ClauseOutcome(sf, "refuted", failed_pairs=tuple(failed)), refutations


# -- countermodel construction ------------------------------------------------------

def build_countermodel_detailed(sf: StandardFormula,
                                universe: AgentUniverse) -> tuple[PointedModel, GameForm | None]:
    """A pointed GCGM falsifying the clause ``sf``, and its hub game form
    (None for the dead-end case with an empty negative side).

    Precondition: gamma is not a tautology and every pair reduction fails;
    raises ValueError otherwise.
    """
    f = sf.to_formula()
    _check_universe(f, universe)
    outcome, refutations = _run(_decide_clause(sf, universe, {}))
    if outcome.case != "refuted":
        raise ValueError("clause is valid; no countermodel exists")
    node = _graft(outcome, refutations, universe)
    pm = _certified(node, universe, f, "grafted model does not refute the clause")
    return pm, node.form


def _graft(outcome: ClauseOutcome, refutations: list[_Refutation],
           universe: AgentUniverse) -> _Refutation:
    """The refutation of the clause ``outcome.clause``, grafted from those of
    its failed pairs (in ``failed_pairs`` order)."""
    sf = outcome.clause
    # the atoms that ~gamma makes true; atoms outside gamma stay false
    hub_label = frozenset(lit.child.name for lit in sf.gamma if isinstance(lit, Neg))

    if not sf.ni:
        return _Refutation(hub_label)

    pairs_out = [(i, j)
                 for i in range(len(sf.ni)) for j in range(len(sf.pi))
                 if not sf.ni[i][0].issubset(sf.pi[j][0])]

    targets = tuple(f"t{k}" for k in range(len(refutations)))
    all_targets = frozenset(targets)

    alpha = [f"alpha{i}" for i in range(len(sf.ni))]
    beta = {(i, j): f"beta{i}_{j}" for i, j in pairs_out}
    hub_actions = (*alpha, *beta.values())

    agents = universe.agents
    hub_rows: dict[JointAction, frozenset[str]] = {}
    for i, name in enumerate(alpha):
        hub_rows[JointAction.of(dict.fromkeys(agents, name))] = frozenset(
            t for (i2, _), t in zip(outcome.failed_pairs, targets) if i2 == i)
    for i, j in pairs_out:
        spare = sf.ni[i][0].members - sf.pi[j][0].members
        assignment = dict.fromkeys(agents, alpha[i])
        assignment[next(a for a in agents if a in spare)] = beta[(i, j)]
        hub_rows[JointAction.of(assignment)] = all_targets

    return _Refutation(hub_label, GameForm("s0", targets, hub_actions, hub_rows),
                       tuple(refutations))


def _certified(root: _Refutation, universe: AgentUniverse, f: Formula,
               failure: str) -> PointedModel:
    """The model of the DAG below ``root``, once the model checker confirms
    that ``f`` is false at its point ``s0``.  It declares ``f``'s atoms,
    sorted (they hold every pair goal's), and the hubs' actions in preorder."""
    names: dict[object, str] = {}  # hubs by identity, dead ends by label
    stack = [root]
    while stack:
        node = stack.pop()
        key = node.label if node.form is None else node
        if key not in names:
            names[key] = f"s{len(names)}"
            stack.extend(reversed(node.children))
    label = {state: key if isinstance(key, frozenset) else key.label
             for key, state in names.items()}
    actions: dict[str, None] = {}
    out_ag: dict[tuple[str, JointAction], frozenset[str]] = {}
    for node, hub in names.items():
        if isinstance(node, _Refutation):
            actions.update(dict.fromkeys(node.form.actions))
            entry = {t: names[c.label if c.form is None else c]
                     for t, c in zip(node.form.targets, node.children)}
            for profile, targets in node.form.out0.items():
                out_ag[(hub, profile)] = frozenset(map(entry.__getitem__, targets))
    pm = PointedModel(GameModel(universe, tuple(sorted(atoms_of(f))),
                                tuple(actions) or ("idle",), tuple(names.values()),
                                label, out_ag), "s0")
    if holds(pm, f):
        raise CertificationError(failure)
    return pm


def hub_facts(sf: StandardFormula) -> Formula:
    """The conjunction that must hold at the hub of a grafted countermodel:
    ~gamma, every <A_i>phi_i, and the negation of every <B_j>psi_j."""
    parts: list[Formula] = [Neg(sf.gamma_formula())]
    parts.extend(Can(c, g) for c, g in sf.ni)
    parts.extend(Neg(Can(c, g)) for c, g in sf.pi)
    return conj(parts)
