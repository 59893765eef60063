"""Brute-force refutation search and the differential harness.

The searcher is independent of the decision procedure: it enumerates (or
samples) whole models within bounds and model-checks the candidate formula
at every state.  The differential harness wires the two against each other:
an "invalid" verdict must come with a certified countermodel, a "valid"
verdict must survive the bounded search, and the classic axiom instances
must fail only on models whose classification violates the matching
property.  Everything is reproducible from the configured seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .formula import (TOP, AgentUniverse, And, Atom, Can, Formula, Neg, bot,
                      implies, lor, pretty)
from .model import (GameModel, JointAction, classify, dumps, full_profiles,
                    random_cgm, random_model)
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


def enumerate_models(bounds: SearchBounds):
    """Every model within the bounds, reproducibly ordered.

    The outcome table is a bit vector over (state, profile, target) triples
    and the labelling one over (state, atom); both run as binary counters.
    Raises BudgetExceededError after ``budget`` models.
    """
    yielded = 0
    agents = bounds.universe.agents
    for n_states in range(1, bounds.max_states + 1):
        states = tuple(f"s{i}" for i in range(n_states))
        for n_actions in range(1, bounds.max_actions + 1):
            actions = tuple(f"x{i}" for i in range(n_actions))
            profiles = full_profiles(agents, actions)
            edge_slots = [(s, p, t) for s in states for p in profiles for t in states]
            label_slots = [(s, a) for s in states for a in bounds.atoms]
            for out_mask in range(1 << len(edge_slots)):
                out_ag: dict[tuple[str, JointAction], frozenset[str]] = {}
                for bit, (s, p, t) in enumerate(edge_slots):
                    if out_mask >> bit & 1:
                        key = (s, p)
                        out_ag[key] = out_ag.get(key, frozenset()) | {t}
                for label_mask in range(1 << len(label_slots)):
                    label: dict[str, set[str]] = {s: set() for s in states}
                    for bit, (s, a) in enumerate(label_slots):
                        if label_mask >> bit & 1:
                            label[s].add(a)
                    if yielded >= bounds.budget:
                        raise BudgetExceededError(
                            f"enumeration budget of {bounds.budget} models exceeded")
                    yielded += 1
                    yield GameModel(bounds.universe, bounds.atoms, actions, states,
                                    {s: frozenset(v) for s, v in label.items()},
                                    dict(out_ag))


def sample_models(bounds: SearchBounds):
    """Random models from the seed ladder ``seed + k`` (k-th sample).

    Sizes are biased toward the bounds and densities toward sparse tables:
    small dense models rarely separate anything, while dead ends and
    conditionally available profiles need missing edges.
    """
    densities = (0.0, 0.1, 0.2, 0.35, 0.5, 0.75)
    for k in range(bounds.n_samples):
        rng = random.Random(bounds.seed * 1_000_003 + k)
        n_states = bounds.max_states if rng.random() < 0.75 \
            else rng.randint(1, bounds.max_states)
        n_actions = bounds.max_actions if rng.random() < 0.75 \
            else rng.randint(1, bounds.max_actions)
        yield random_model(
            bounds.universe,
            n_states=n_states,
            n_actions=n_actions,
            density=rng.choice(densities),
            seed=rng.randrange(2 ** 32),
            atoms=bounds.atoms,
        )


def search_countermodel(f: Formula, bounds: SearchBounds) -> PointedModel | None:
    """A pointed model within the bounds where ``f`` fails, or None.

    In exhaustive mode a None answer is complete for the bounded space;
    BudgetExceededError signals a truncated (hence inconclusive) walk.
    """
    source = enumerate_models(bounds) if bounds.mode == "exhaustive" \
        else sample_models(bounds)
    for model in source:
        column = eval_all(model, f)
        for s in model.states:
            if not column[s]:
                return PointedModel(model, s)
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


def random_coalition(rng: random.Random, universe: AgentUniverse):
    members = [a for a in universe.agents if rng.random() < 0.5]
    return universe.coalition(*members)


def random_formula(rng: random.Random, universe: AgentUniverse,
                   atoms: tuple[str, ...], depth: int, size: int = 8) -> Formula:
    """A random core formula of exactly the given modal depth."""
    if depth == 0:
        return random_propositional(rng, atoms, size)
    roll = rng.random()
    if roll < 0.5 or size <= 2:
        return Can(random_coalition(rng, universe),
                   random_formula(rng, universe, atoms, depth - 1, size - 1))
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
    agent universe and the atoms are those of ``bounds``.
    """

    bounds: SearchBounds
    n_formulas: int = 0
    max_depth: int = 2
    seed: int = 0
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
    rng = random.Random(config.seed)
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
                    seed=config.seed, model_json=dumps(found.model),
                    state=found.state))
        else:
            report.invalid_count += 1
            pm = verdict.countermodel
            if eval_all(pm.model, f)[pm.state]:
                report.discrepancies.append(Discrepancy(
                    kind="invalid-uncertified", formula=pretty(f),
                    detail="countermodel does not refute the formula",
                    seed=config.seed, model_json=dumps(pm.model), state=pm.state))
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


def _scheme_separation(config: DifferentialConfig,
                       report: DifferentialReport) -> None:
    bounds = config.bounds
    instances = _axiom_instances(bounds.universe, bounds.atoms)
    for k in range(config.scheme_models):
        rng = random.Random(config.seed * 9_973 + k)
        if k % 2:  # alternate free-form models with guaranteed CGMs
            model = random_cgm(
                bounds.universe,
                n_states=rng.randint(1, bounds.max_states),
                n_actions=rng.randint(1, bounds.max_actions),
                seed=rng.randrange(2 ** 32),
                atoms=bounds.atoms,
            )
        else:
            model = random_model(
                bounds.universe,
                n_states=rng.randint(1, bounds.max_states),
                n_actions=rng.randint(1, bounds.max_actions),
                density=rng.choice((0.0, 0.2, 0.5, 0.8, 1.0)),
                seed=rng.randrange(2 ** 32),
                atoms=bounds.atoms,
            )
        report.scheme_models_checked += 1
        summary = classify(model)
        flags = {"serial": summary.serial, "independent": summary.independent,
                 "deterministic": summary.deterministic}
        for prop, instance in instances:
            column = eval_all(model, instance)
            violated_at = next((s for s in model.states if not column[s]), None)
            if violated_at is not None and flags[prop]:
                report.discrepancies.append(Discrepancy(
                    kind="scheme-separation", formula=pretty(instance),
                    detail=f"axiom instance fails although the model is {prop}",
                    seed=config.seed, model_json=dumps(model), state=violated_at))
