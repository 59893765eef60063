"""Brute-force refutation search and the differential harness.

The searcher is independent of the decision procedure: it enumerates (or
samples) whole models within bounds and model-checks the candidate formula
at every state.  The differential harness wires the two against each other:
an "invalid" verdict must come with a certified countermodel, a "valid"
verdict must survive the bounded search, and the classic axiom instances
must fail only on models whose classification violates the matching
property.  Everything is reproducible from the configured seed.

The search checks its models in chunks, each as one disjoint union with
one ``eval_all``.  Truth is local: ``<A>phi`` at a state reads only that
state's rows and the truth of ``phi`` at their outcomes, in the same part,
so a formula's column on a disjoint union of models is the union of its
columns on the parts (Blackburn, de Rijke & Venema, Modal Logic, Prop. 2.3).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .formula import (TOP, AgentUniverse, And, Atom, Can, Formula, Neg, bot,
                      implies, lor, pretty)
# random_cgm and random_model stay imported for bench/spans.py, which patches them here
from .model import (GameModel, _cgm_parts, _chunks, _disjoint_union, _gcgm_parts,
                    classify, dumps, full_profiles, random_cgm, random_model)
from .semantics import PointedModel, eval_all
from .decide import decide_valid


class BudgetExceededError(RuntimeError):
    """Exhaustive enumeration hit the model budget before finishing."""


@dataclass(frozen=True)
class SearchBounds:
    """Model-space bounds for the refutation search.

    Exhaustive mode walks every model with up to ``max_states`` states and
    ``max_actions`` actions in binary-counter order, up to ``budget`` models.
    Sampled mode draws ``n_samples`` random models from a seed ladder.
    """

    universe: AgentUniverse
    max_states: int
    max_actions: int
    atoms: tuple[str, ...]
    mode: str = "exhaustive"
    n_samples: int = 0
    seed: int = 0
    budget: int = 1_000_000

    def __post_init__(self):
        if self.max_states < 1 or self.max_actions < 1:
            raise ValueError("bounds need at least one state and one action")
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_samples < 0 or self.budget < 0:
            raise ValueError("sample count and budget must not be negative")


def _walk(bounds: SearchBounds):
    """The models of ``enumerate_models`` as (state count, actions, profiles,
    bits): per size, ``bits`` runs through the labelling, a bit vector over
    (state, atom) pairs, then the outcome table over (state, profile, target)."""
    for n_states in range(1, bounds.max_states + 1):
        for n_actions in range(1, bounds.max_actions + 1):
            actions = tuple(f"x{i}" for i in range(n_actions))
            profiles = full_profiles(bounds.universe.agents, actions)
            for bits in range(1 << n_states * (len(bounds.atoms) + len(profiles) * n_states)):
                yield n_states, actions, profiles, bits


def _enumerated(bounds: SearchBounds, walked: tuple, prefix: str = "") -> tuple:
    """The ``GameModel`` arguments of one model of ``_walk``, states prefixed."""
    n_states, actions, profiles, bits = walked
    states = tuple(f"{prefix}s{i}" for i in range(n_states))
    bit = itertools.count()  # the positions of ``bits``, in slot order
    label = {s: frozenset(a for a in bounds.atoms if bits >> next(bit) & 1) for s in states}
    out_ag = {(s, p): to for s in states for p in profiles
              if (to := frozenset(t for t in states if bits >> next(bit) & 1))}
    return bounds.universe, bounds.atoms, actions, states, label, out_ag


def enumerate_models(bounds: SearchBounds):
    """Every model within the bounds, reproducibly ordered: by size, then
    by outcome table, then by labelling.  Raises BudgetExceededError after
    ``budget`` models."""
    walk = _walk(bounds)
    for walked in itertools.islice(walk, bounds.budget):
        yield GameModel(*_enumerated(bounds, walked))
    if next(walk, None) is not None:
        raise BudgetExceededError(f"enumeration budget of {bounds.budget} models exceeded")


def _sampled(bounds: SearchBounds, k: int, prefix: str = "") -> tuple:
    """The ``GameModel`` arguments of the k-th sample, states prefixed."""
    rng = random.Random(bounds.seed * 1_000_003 + k)
    n_states = bounds.max_states if rng.random() < 0.75 \
        else rng.randint(1, bounds.max_states)
    n_actions = bounds.max_actions if rng.random() < 0.75 \
        else rng.randint(1, bounds.max_actions)
    density = rng.choice((0.0, 0.1, 0.2, 0.35, 0.5, 0.75))
    return _gcgm_parts(bounds.universe, n_states, n_actions, density,
                       rng.randrange(2 ** 32), bounds.atoms, prefix)


def sample_models(bounds: SearchBounds):
    """Random models from the seed ladder ``seed + k`` (k-th sample).

    Sizes are biased toward the bounds and densities toward sparse tables:
    small dense models rarely separate anything, while dead ends and
    conditionally available profiles need missing edges.
    """
    for k in range(bounds.n_samples):
        yield GameModel(*_sampled(bounds, k))


def search_countermodel(f: Formula, bounds: SearchBounds) -> PointedModel | None:
    """A pointed model within the bounds where ``f`` fails, or None: the
    first failing state of the first failing model, in model order.

    In exhaustive mode a None answer is complete for the bounded space;
    BudgetExceededError signals a truncated (hence inconclusive) walk.
    """
    exhaustive, walk = bounds.mode == "exhaustive", _walk(bounds)
    draw = _enumerated if exhaustive else _sampled
    for chunk in _chunks(itertools.islice(walk, bounds.budget) if exhaustive
                         else range(bounds.n_samples)):
        union = _disjoint_union(draw(bounds, item, f"{i}.") for i, item in enumerate(chunk))
        column = eval_all(union, f)
        failed = next((s for s in union.states if not column[s]), None)
        if failed is not None:
            i, state = failed.split(".", 1)
            return PointedModel(GameModel(*draw(bounds, chunk[int(i)])), state)
    if exhaustive and next(walk, None) is not None:
        raise BudgetExceededError(f"enumeration budget of {bounds.budget} models exceeded")
    return None


# -- random formulas ---------------------------------------------------------------

def random_propositional(rng: random.Random, atoms: tuple[str, ...],
                         size: int) -> Formula:
    if size <= 1 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.8:
            atom: Formula = Atom(rng.choice(atoms))
            return atom if rng.random() < 0.6 else Neg(atom)
        return TOP if roll < 0.9 else bot()
    a = random_propositional(rng, atoms, size // 2)
    b = random_propositional(rng, atoms, size // 2)
    return rng.choice((And, lor, implies))(a, b)


def random_formula(rng: random.Random, universe: AgentUniverse,
                   atoms: tuple[str, ...], depth: int, size: int = 8) -> Formula:
    """A random core formula of exactly the given modal depth."""
    if depth == 0:
        return random_propositional(rng, atoms, size)
    if depth < 0:
        raise ValueError("modal depth must not be negative")
    roll = rng.random()
    if roll < 0.5 or size <= 2:
        coalition = universe.coalition(*[a for a in universe.agents if rng.random() < 0.5])
        return Can(coalition, random_formula(rng, universe, atoms, depth - 1, size - 1))
    if roll < 0.65:
        return Neg(random_formula(rng, universe, atoms, depth, size - 1))
    deep = random_formula(rng, universe, atoms, depth, size // 2)
    other = random_formula(rng, universe, atoms, rng.randint(0, depth), size // 2)
    a, b = (deep, other) if rng.random() < 0.5 else (other, deep)
    return rng.choice((And, lor, implies))(a, b)


# -- differential harness -------------------------------------------------------------

@dataclass(frozen=True)
class Discrepancy:
    kind: str
    formula: str
    detail: str
    seed: int
    model_json: str | None = None
    state: str | None = None


@dataclass
class DifferentialReport:
    formulas_checked: int = 0
    valid_count: int = 0
    invalid_count: int = 0
    certified_countermodels: int = 0
    truncated_searches: int = 0
    scheme_models_checked: int = 0
    discrepancies: list[Discrepancy] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_json_dict(self) -> dict:
        return {
            "formulas_checked": self.formulas_checked,
            "valid": self.valid_count,
            "invalid": self.invalid_count,
            "certified_countermodels": self.certified_countermodels,
            "truncated_searches": self.truncated_searches,
            "scheme_models_checked": self.scheme_models_checked,
            "discrepancies": [vars(d) for d in self.discrepancies],
        }

    def to_text(self) -> str:
        lines = [
            f"formulas checked:        {self.formulas_checked}"
            f" ({self.valid_count} valid, {self.invalid_count} invalid)",
            f"certified countermodels: {self.certified_countermodels}",
            f"truncated searches:      {self.truncated_searches}",
            f"scheme models checked:   {self.scheme_models_checked}",
            f"discrepancies:           {len(self.discrepancies)}",
        ]
        for d in self.discrepancies:
            lines.append(f"  [{d.kind}] {d.formula}  seed={d.seed}"
                         + (f"  state={d.state}" if d.state else ""))
            lines.append(f"    {d.detail}")
            if d.model_json:
                lines.append("    model: " + d.model_json.replace("\n", " "))
        return "\n".join(lines)


@dataclass(frozen=True)
class DifferentialConfig:
    """One reproducible fuzzing run.

    ``n_formulas`` random formulas of modal depth up to ``max_depth`` are
    decided and cross-checked against the bounded search; ``scheme_models``
    sampled models get the classic axiom-instance separation check.  The
    agent universe, the atoms and the seed are those of ``bounds``.
    """

    bounds: SearchBounds
    n_formulas: int = 0
    max_depth: int = 2
    scheme_models: int = 0

    def __post_init__(self):
        if not self.bounds.atoms:
            raise ValueError("fuzzing needs at least one atom")
        if self.max_depth < 1:
            raise ValueError("fuzzing needs a maximum modal depth of at least 1")
        if self.n_formulas < 0 or self.scheme_models < 0:
            raise ValueError("formula and scheme-model counts must not be negative")


def differential_run(config: DifferentialConfig) -> DifferentialReport:
    report = DifferentialReport()
    rng = random.Random(config.bounds.seed)
    universe = config.bounds.universe

    for k in range(config.n_formulas):
        depth = rng.randint(1, config.max_depth)
        f = random_formula(rng, universe, config.bounds.atoms, depth)
        report.formulas_checked += 1
        verdict = decide_valid(f, universe)
        if verdict.valid:
            report.valid_count += 1
            try:
                found = search_countermodel(f, config.bounds)
            except BudgetExceededError:
                report.truncated_searches += 1
                found = None
            if found is not None:
                report.discrepancies.append(Discrepancy(
                    kind="valid-but-refuted", formula=pretty(f),
                    detail="bounded search found a countermodel for a VALID verdict",
                    seed=config.bounds.seed, model_json=dumps(found.model),
                    state=found.state))
        else:
            report.invalid_count += 1
            pm = verdict.countermodel
            if eval_all(pm.model, f)[pm.state]:
                report.discrepancies.append(Discrepancy(
                    kind="invalid-uncertified", formula=pretty(f),
                    detail="countermodel does not refute the formula",
                    seed=config.bounds.seed, model_json=dumps(pm.model), state=pm.state))
            else:
                report.certified_countermodels += 1

    if config.scheme_models:
        _scheme_separation(config, report)
    return report


def _axiom_instances(universe: AgentUniverse, atoms: tuple[str, ...]):
    """Canonical instances of the three axioms that separate CGMs from
    GCGMs, each paired with the classification property it tracks."""
    p, q = Atom(atoms[0]), Atom(atoms[-1])
    a = universe.coalition(universe.agents[0])
    grand = universe.grand
    empty = universe.empty
    return (
        ("serial", Can(a, TOP)),
        ("independent",
         implies(And(Can(a, p), Can(a.complement, q)),
                 Can(a.union(a.complement), And(p, q)))),
        ("deterministic",
         implies(Can(empty, lor(p, q)), lor(Can(empty, p), Can(grand, q)))),
    )


def _scheme_model(bounds: SearchBounds, k: int, prefix: str = "") -> tuple:
    """The ``GameModel`` arguments of the k-th scheme model: free-form
    models alternate with CGMs."""
    rng = random.Random(bounds.seed * 9_973 + k)
    n_states, n_actions = rng.randint(1, bounds.max_states), rng.randint(1, bounds.max_actions)
    if k % 2:
        return _cgm_parts(bounds.universe, n_states, n_actions, rng.randrange(2 ** 32),
                          bounds.atoms, prefix)
    density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
    return _gcgm_parts(bounds.universe, n_states, n_actions, density,
                       rng.randrange(2 ** 32), bounds.atoms, prefix)


def _scheme_separation(config: DifferentialConfig,
                       report: DifferentialReport) -> None:
    bounds = config.bounds
    instances = _axiom_instances(bounds.universe, bounds.atoms)
    for chunk in _chunks(range(config.scheme_models), 128):  # every model is checked
        parts = [_scheme_model(bounds, k, f"{i}.") for i, k in enumerate(chunk)]
        union = _disjoint_union(parts)
        columns = [eval_all(union, instance) for _, instance in instances]
        for k, part in zip(chunk, parts):
            report.scheme_models_checked += 1
            violated = [next((s for s in part[3] if not column[s]), None)
                        for column in columns]
            if not any(violated):
                continue  # a discrepancy needs a violated instance
            summary = classify(GameModel(*part))
            for (prop, instance), state in zip(instances, violated):
                if state is not None and getattr(summary, prop):
                    report.discrepancies.append(Discrepancy(
                        kind="scheme-separation", formula=pretty(instance),
                        detail=f"axiom instance fails although the model is {prop}",
                        seed=bounds.seed, model_json=dumps(GameModel(*_scheme_model(bounds, k))),
                        state=state.split(".", 1)[1]))
