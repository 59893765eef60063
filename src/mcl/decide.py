"""Validity and satisfiability over general concurrent game models, with
certified countermodels.

A formula of modal depth 0 is valid exactly when it holds at every
one-state model, so it is decided by model-checking the one-state model of
each labelling of its atoms in binary-counter order; the first model that
refutes it is the countermodel.  Deeper formulas are normalized; a standard
clause is valid exactly when

  (a) its gamma part is a tautology, or
  (b) some negative entry <A_i>phi_i and positive entry <B_j>psi_j with
      A_i a subset of B_j make (phi_NI0 & phi_i) -> psi_j valid,

where phi_NI0 conjoins the goals of the empty-coalition negative entries.
The recursion strictly lowers modal depth, so it terminates.

When a clause fails both cases, a refuting pointed model is assembled by
grafting: one fresh hub state plays a one-round game whose outcomes are the
entry states of sub-models, one per pair (i, j) with A_i a subset of B_j,
each satisfying phi_NI0 & phi_i & ~psi_j.  The sub-models get disjoint
state names but share action names: availability is derived per state, so
a shared name never links two states.  At the hub,
profile sigma^i has all agents play the action alpha_i and leads to the
sub-models for row i; for every pair with A_i not a subset of B_j, a spoiler
profile lambda^(i,j) differs from sigma^i only in that a witness agent from
A_i - B_j plays beta_(i,j) instead, and it leads everywhere.  Every verdict
that reports "invalid" carries a countermodel on which the model checker
confirms falsity.

Verdicts are memoized per decision by the formula itself (its stored hash
and iterative equality).  Nothing on the depth-0 path or in a clause settled
without a pair reduction recurses, so those decide at any depth (``<{a}>``
10^4 times before ``p``).  The normal form still recurses on Boolean
structure above a modality, and the decider once per pair reduction, so
both stay bounded by Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

# canonical_key stays imported: bench/spans.py patches decide.canonical_key
from .formula import (AgentUniverse, And, Can, Formula, Neg, atoms_of,
                      canonical_key, coalitions_of, conj, implies, modal_depth)
from .model import GameModel, JointAction, rename_disjoint
from .normalform import (StandardFormula, gamma_is_tautology, ni0,
                         to_standard_conjunction)
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
    """The one-round game grafted at the hub state."""

    hub: str
    targets: tuple[str, ...]
    actions: tuple[str, ...]
    out0: dict[JointAction, frozenset[str]]


class CertificationError(RuntimeError):
    """A produced countermodel failed its own model-checking certificate."""


def decide_valid(f: Formula, universe: AgentUniverse) -> Verdict:
    """Decide whether ``f`` holds at every pointed GCGM over ``universe``.

    Invalid verdicts carry a pointed countermodel, re-checked here with the
    model checker before being returned.
    """
    _check_universe(f, universe)
    return _decide(f, universe, {})


def decide_sat(f: Formula, universe: AgentUniverse) -> SatVerdict:
    """Satisfiability via validity of the negation; the witness (when
    satisfiable) is the countermodel of ``~f``."""
    _check_universe(f, universe)
    verdict = _decide(Neg(f), universe, {})
    witness = verdict.countermodel
    if not verdict.valid:
        if not holds(witness, f):
            raise CertificationError("witness does not satisfy the formula")
    return SatVerdict(not verdict.valid, witness, verdict.trace)


def _check_universe(f: Formula, universe: AgentUniverse) -> None:
    for coalition in coalitions_of(f):
        if coalition.universe != universe:
            raise ValueError("formula mentions a different agent universe")


def _decide(f: Formula, universe: AgentUniverse,
            memo: dict[Formula, Verdict]) -> Verdict:
    hit = memo.get(f)
    if hit is not None:
        return hit

    if modal_depth(f) == 0:  # its countermodel was found by the model checker
        verdict = _decide_propositional(f, universe)
    else:
        verdict = _decide_modal(f, universe, memo)
        if not verdict.valid:
            pm = verdict.countermodel
            model = pm.model.with_atoms(sorted(atoms_of(f)))
            pm = PointedModel(model, pm.state)
            if holds(pm, f):
                raise CertificationError("countermodel does not refute the formula")
            verdict = Verdict(False, pm, verdict.trace)

    memo[f] = verdict
    return verdict


# -- propositional base case ----------------------------------------------------

def _decide_propositional(f: Formula, universe: AgentUniverse) -> Verdict:
    names = sorted(atoms_of(f))
    trace = (ClauseOutcome(None, "propositional"),)
    for mask in range(1 << len(names)):
        pm = _dead_end(universe, names,
                       [n for k, n in enumerate(names) if mask >> k & 1])
        if not holds(pm, f):
            return Verdict(False, pm, trace)
    return Verdict(True, None, trace)


def _dead_end(universe: AgentUniverse, atoms: Iterable[str],
              label: Iterable[str]) -> PointedModel:
    """A single dead-end state ``s0`` with the given label (no coalition has
    an available joint action there)."""
    model = GameModel(
        universe=universe,
        atoms=tuple(atoms),
        actions=("idle",),
        states=("s0",),
        label={"s0": frozenset(label)},
        out_ag={},
    )
    return PointedModel(model, "s0")


# -- modal case -------------------------------------------------------------------

def pair_implication(sf: StandardFormula, i: int, j: int) -> Formula:
    """(phi_NI0 & phi_i) -> psi_j, the reduction goal for a pair."""
    return implies(And(ni0(sf).phi, sf.ni[i][1]), sf.pi[j][1])


def _decide_modal(f: Formula, universe: AgentUniverse,
                  memo: dict[Formula, Verdict]) -> Verdict:
    trace: list[ClauseOutcome] = []
    for sf in to_standard_conjunction(f, universe):
        outcome, refutations = _decide_clause(sf, universe, memo)
        trace.append(outcome)
        if outcome.case == "refuted":
            pm, _ = _graft_countermodel(outcome, refutations, universe)
            return Verdict(False, pm, tuple(trace))
    return Verdict(True, None, tuple(trace))


def _decide_clause(sf: StandardFormula, universe: AgentUniverse,
                   memo: dict[Formula, Verdict]
                   ) -> tuple[ClauseOutcome, list[PointedModel]]:
    """How the clause is settled, and for a refuted clause the countermodel
    of each failed pair reduction, in ``failed_pairs`` order."""
    if gamma_is_tautology(sf.gamma):
        return ClauseOutcome(sf, "gamma"), []
    failed: list[tuple[int, int]] = []
    refutations: list[PointedModel] = []
    for i, (coal_a, _) in enumerate(sf.ni):
        for j, (coal_b, _) in enumerate(sf.pi):
            if not coal_a.issubset(coal_b):
                continue
            verdict = _decide(pair_implication(sf, i, j), universe, memo)
            if verdict.valid:
                return ClauseOutcome(sf, "pair", pair=(i, j)), []
            failed.append((i, j))
            refutations.append(verdict.countermodel)
    return ClauseOutcome(sf, "refuted", failed_pairs=tuple(failed)), refutations


# -- countermodel construction ------------------------------------------------------

def build_countermodel(sf: StandardFormula, universe: AgentUniverse) -> PointedModel:
    """A pointed GCGM falsifying the clause ``sf``.

    Precondition: gamma is not a tautology and every pair reduction fails;
    raises ValueError otherwise.
    """
    return build_countermodel_detailed(sf, universe)[0]


def build_countermodel_detailed(sf: StandardFormula,
                                universe: AgentUniverse) -> tuple[PointedModel, GameForm | None]:
    """As ``build_countermodel``, also returning the hub game form (None for
    the dead-end case with an empty negative side)."""
    outcome, refutations = _decide_clause(sf, universe, {})
    if outcome.case != "refuted":
        raise ValueError("clause is valid; no countermodel exists")
    return _graft_countermodel(outcome, refutations, universe)


def _falsifying_label(sf: StandardFormula) -> frozenset[str]:
    """Atoms made true by the elementary conjunction equivalent to ~gamma
    (atoms outside gamma default to false)."""
    return frozenset(lit.child.name for lit in sf.gamma if isinstance(lit, Neg))


def _graft_countermodel(outcome: ClauseOutcome, refutations: list[PointedModel],
                        universe: AgentUniverse) -> tuple[PointedModel, GameForm | None]:
    """Graft the refuted clause ``outcome.clause`` from the countermodels of
    its failed pairs (``refutations``, in ``outcome.failed_pairs`` order)."""
    sf = outcome.clause
    clause = sf.to_formula()  # one object, so its measures are walked once
    hub_label = _falsifying_label(sf)

    if not sf.ni:
        pm = _dead_end(universe, sorted(atoms_of(clause)), hub_label)
        _certify_clause(pm, clause)
        return pm, None

    pairs_in = outcome.failed_pairs
    pairs_out = [(i, j)
                 for i in range(len(sf.ni)) for j in range(len(sf.pi))
                 if not sf.ni[i][0].issubset(sf.pi[j][0])]

    renamed = rename_disjoint([pm.model for pm in refutations])
    targets = tuple(f"g{k}." + pm.state for k, pm in enumerate(refutations))
    target_of_pair = dict(zip(pairs_in, targets))
    all_targets = frozenset(targets)

    alpha = {i: f"alpha{i}" for i in range(len(sf.ni))}
    beta = {(i, j): f"beta{i}_{j}" for i, j in pairs_out}
    hub_actions = tuple(alpha[i] for i in sorted(alpha)) + \
        tuple(beta[p] for p in pairs_out)

    agents = universe.agents
    hub_rows: dict[JointAction, frozenset[str]] = {}
    for i in range(len(sf.ni)):
        profile = JointAction.of({a: alpha[i] for a in agents})
        hub_rows[profile] = frozenset(target_of_pair[(i2, j)]
                                      for (i2, j) in pairs_in if i2 == i)
    for i, j in pairs_out:
        coal_a, coal_b = sf.ni[i][0], sf.pi[j][0]
        witness_agent = next(a for a in agents
                             if a in coal_a.members and a not in coal_b.members)
        assignment = {a: alpha[i] for a in agents}
        assignment[witness_agent] = beta[(i, j)]
        hub_rows[JointAction.of(assignment)] = all_targets

    game_form = GameForm(
        hub="s0",
        targets=targets,
        actions=hub_actions,
        out0=dict(hub_rows),
    )

    atoms: list[str] = sorted(atoms_of(clause))
    actions: list[str] = list(hub_actions)
    states: list[str] = ["s0"]
    label: dict[str, frozenset[str]] = {"s0": hub_label}
    out_ag: dict[tuple[str, JointAction], frozenset[str]] = {
        ("s0", profile): ts for profile, ts in hub_rows.items()}
    for m in renamed:
        atoms.extend(a for a in m.atoms if a not in atoms)
        actions.extend(x for x in m.actions if x not in actions)
        states.extend(m.states)
        label.update(m.label)
        out_ag.update(m.out_ag)

    model = GameModel(universe, tuple(atoms), tuple(actions), tuple(states),
                      label, out_ag)
    pm = PointedModel(model, "s0")
    _certify_clause(pm, clause)
    return pm, game_form


def _certify_clause(pm: PointedModel, clause: Formula) -> None:
    if holds(pm, clause):
        raise CertificationError("grafted model does not refute the clause")


def hub_facts(sf: StandardFormula) -> Formula:
    """The conjunction that must hold at the hub of a grafted countermodel:
    ~gamma, every <A_i>phi_i, and the negation of every <B_j>psi_j."""
    parts: list[Formula] = [Neg(sf.gamma_formula())]
    parts.extend(Can(c, g) for c, g in sf.ni)
    parts.extend(Neg(Can(c, g)) for c, g in sf.pi)
    return conj(parts)
