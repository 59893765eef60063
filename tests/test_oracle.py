import dataclasses
import random
from hashlib import sha256

import pytest

import mcl.oracle as oracle
from mcl import (AgentUniverse, BudgetExceededError, DifferentialConfig,
                 Discrepancy, GameModel, SearchBounds, classify, decide_valid,
                 differential_run, dumps, enumerate_models, eval_all, parse,
                 pretty, random_cgm, random_formula, random_model,
                 sample_models, search_countermodel)
from mcl.model import full_profiles
from mcl.semantics import PointedModel


def micro_bounds(solo, **overrides):
    base = dict(universe=solo, max_states=2, max_actions=1, atoms=("p",))
    base.update(overrides)
    return SearchBounds(**base)


# -- exhaustive enumeration -----------------------------------------------------

def test_enumeration_is_complete_and_reproducible(solo):
    bounds = micro_bounds(solo, max_states=1)
    # 1 state, 1 action, 1 agent, 1 atom: 2 outcome tables x 2 labellings
    models = list(enumerate_models(bounds))
    assert len(models) == 4
    assert [dumps(m) for m in models] == \
        [dumps(m) for m in enumerate_models(bounds)]


def test_enumeration_counts_both_sizes(solo):
    # adds the 2-state space: 16 outcome tables x 4 labellings = 64
    assert sum(1 for _ in enumerate_models(micro_bounds(solo))) == 68


def test_budget_is_enforced(solo):
    bounds = micro_bounds(solo, budget=10)
    with pytest.raises(BudgetExceededError):
        list(enumerate_models(bounds))
    with pytest.raises(BudgetExceededError):
        search_countermodel(parse("~<{a}>false", solo), bounds)


# -- countermodel search ----------------------------------------------------------

def test_search_refutes_seriality_with_a_dead_end(solo):
    pm = search_countermodel(parse("<{a}>true", solo),
                             micro_bounds(solo, max_states=1))
    assert pm is not None
    assert not pm.model.available_profiles(pm.state)
    assert not eval_all(pm.model, parse("<{a}>true", solo))[pm.state]


def test_search_finds_nothing_for_liveness(solo):
    assert search_countermodel(parse("~<{a}>false", solo),
                               micro_bounds(solo)) is None


def test_sampled_search_refutes_independence(ab):
    bounds = SearchBounds(universe=ab, max_states=3, max_actions=2,
                          atoms=("p", "q"), mode="sampled",
                          n_samples=1500, seed=7)
    f = parse("(<{a}>p & <{b}>q) -> <{a,b}>(p & q)", ab)
    pm = search_countermodel(f, bounds)
    assert pm is not None
    assert not eval_all(pm.model, f)[pm.state]
    assert len(pm.model.states) <= 3 and len(pm.model.actions) <= 2


def test_sampling_is_reproducible(ab):
    bounds = SearchBounds(universe=ab, max_states=3, max_actions=2,
                          atoms=("p", "q"), mode="sampled",
                          n_samples=5, seed=99)
    first = [dumps(m) for m in sample_models(bounds)]
    second = [dumps(m) for m in sample_models(bounds)]
    assert first == second


def test_bounds_validation(ab):
    with pytest.raises(ValueError):
        SearchBounds(universe=ab, max_states=0, max_actions=1, atoms=("p",))
    with pytest.raises(ValueError):
        SearchBounds(universe=ab, max_states=1, max_actions=1, atoms=("p",),
                     mode="psychic")


# -- the axiom instances against the fixture ------------------------------------------

def test_determinism_instance_fails_on_the_one_mask_scenario(one_mask):
    u = one_mask.universe
    f = parse("<{}>( l_a | ~l_a ) -> (<{}>l_a | <{a,b}>~l_a)", u)
    assert not eval_all(one_mask, f)["s0"]
    assert not classify(one_mask).deterministic


def test_independence_axiom_never_fails_on_sampled_cgms(ab):
    from mcl import random_cgm
    f = parse("(<{a}>p & <{b}>q) -> <{a,b}>(p & q)", ab)
    violations = 0
    for seed in range(1000):
        m = random_cgm(ab, 3, 2, seed=seed)
        if not all(eval_all(m, f).values()):
            violations += 1
    assert violations == 0


def test_both_cl_axiom_systems_hold_on_sampled_cgms(ab):
    # every axiom of the two classical systems, plus the derived-rule
    # conclusion shapes, as scheme instances evaluated on product models
    import random

    from mcl import (TOP, And, Can, Neg, iff, implies, lor, random_cgm,
                     random_formula)

    rng = random.Random(51)
    grand, empty = ab.grand, ab.empty
    for k in range(200):
        m = random_cgm(ab, rng.randint(1, 3), rng.randint(1, 2), seed=k)
        phi = random_formula(rng, ab, ("p", "q"), rng.randint(0, 1))
        psi = random_formula(rng, ab, ("p", "q"), rng.randint(0, 1))
        small = ab.coalition(*[x for x in ab.agents if rng.random() < 0.5])
        big = small.union(ab.coalition(*[x for x in ab.agents
                                         if rng.random() < 0.5]))
        instances = (
            lor(phi, Neg(phi)),                                       # A-Tau
            implies(Can(small, And(phi, psi)), Can(small, phi)),      # A-Mon
            Neg(Can(small, Neg(TOP))),                                # A-Live
            Can(small, TOP),                                          # A-Ser
            implies(And(Can(small, phi),                              # A-IA
                        Can(small.complement, psi)),
                    Can(grand, And(phi, psi))),
            implies(Neg(Can(empty, Neg(phi))), Can(grand, phi)),      # A-Max
            implies(Can(empty, implies(phi, psi)),                    # A-MG
                    implies(Can(small, phi), Can(small, psi))),
            implies(Can(small, phi), Can(big, phi)),                  # A-MC
            implies(Can(small, lor(phi, psi)),                        # A-Det
                    lor(Can(small, phi), Can(grand, psi))),
            iff(Can(small, And(phi, psi)), Can(small, And(psi, phi))),  # R-RE
            implies(Can(small, psi), Can(empty, lor(phi, Neg(phi)))),   # R-CN
        )
        for instance in instances:
            assert all(eval_all(m, instance).values())


# -- the differential harness -----------------------------------------------------------

def _config(ab, **overrides):
    bounds = SearchBounds(universe=ab, max_states=3, max_actions=2,
                          atoms=("p", "q"), mode="sampled",
                          n_samples=300, seed=5)
    base = dict(bounds=bounds,
                n_formulas=0, max_depth=2, scheme_models=0)
    base.update(overrides)
    return DifferentialConfig(**base)


def test_empty_run_gives_an_empty_report(ab):
    report = differential_run(_config(ab))
    assert report.ok
    assert report.formulas_checked == 0
    assert report.scheme_models_checked == 0
    assert report.to_json_dict()["discrepancies"] == []


def test_small_differential_run_is_clean(ab):
    report = differential_run(_config(ab, n_formulas=40, scheme_models=150))
    assert report.ok, report.to_text()
    assert report.formulas_checked == 40
    assert report.invalid_count + report.valid_count == 40
    assert report.certified_countermodels == report.invalid_count
    assert report.scheme_models_checked == 150
    assert "discrepancies:           0" in report.to_text()


def test_differential_run_is_deterministic(ab):
    r1 = differential_run(_config(ab, n_formulas=15))
    r2 = differential_run(_config(ab, n_formulas=15))
    assert r1.to_json_dict() == r2.to_json_dict()


def test_oracle_result_refutes_when_found(ab):
    # whatever the search returns must itself fail the formula
    f = parse("<{a,b}>p | <{a,b}>~p", ab)
    bounds = SearchBounds(universe=ab, max_states=2, max_actions=1,
                          atoms=("p",), mode="sampled", n_samples=200, seed=3)
    pm = search_countermodel(f, bounds)
    assert pm is not None
    assert isinstance(pm, PointedModel)
    assert not eval_all(pm.model, f)[pm.state]


def test_decider_and_micro_grid_agree_on_liveness(solo):
    # tiny closed loop: a valid scheme never gets a countermodel, an invalid
    # one gets one from both the decider and the search
    live = parse("~<{a}>false", solo)
    ser = parse("<{a}>true", solo)
    assert decide_valid(live, solo).valid
    assert search_countermodel(live, micro_bounds(solo)) is None
    assert not decide_valid(ser, solo).valid
    assert search_countermodel(ser, micro_bounds(solo)) is not None


# -- chunked checks against per-model loops -------------------------------------------

def _reference_models(bounds):
    """The exhaustive walk as one loop per bit vector, each model built on its own."""
    yielded = 0
    for n_states in range(1, bounds.max_states + 1):
        states = tuple(f"s{i}" for i in range(n_states))
        for n_actions in range(1, bounds.max_actions + 1):
            actions = tuple(f"x{i}" for i in range(n_actions))
            profiles = full_profiles(bounds.universe.agents, actions)
            edge_slots = [(s, p, t) for s in states for p in profiles for t in states]
            label_slots = [(s, a) for s in states for a in bounds.atoms]
            for out_mask in range(1 << len(edge_slots)):
                out_ag = {}
                for bit, (s, p, t) in enumerate(edge_slots):
                    if out_mask >> bit & 1:
                        out_ag[(s, p)] = out_ag.get((s, p), frozenset()) | {t}
                for label_mask in range(1 << len(label_slots)):
                    label = {s: frozenset(a for bit, (r, a) in enumerate(label_slots)
                                          if r == s and label_mask >> bit & 1)
                             for s in states}
                    if yielded >= bounds.budget:
                        raise BudgetExceededError("budget")
                    yielded += 1
                    yield GameModel(bounds.universe, bounds.atoms, actions, states,
                                    label, dict(out_ag))


def _reference_search(f, bounds):
    models = _reference_models(bounds) if bounds.mode == "exhaustive" \
        else sample_models(bounds)
    for model in models:
        column = eval_all(model, f)
        for s in model.states:
            if not column[s]:
                return PointedModel(model, s)
    return None


def _outcome(search, f, bounds):
    try:
        pm = search(f, bounds)
    except BudgetExceededError:
        return "budget exceeded"
    return None if pm is None else (dumps(pm.model), pm.state)


@pytest.mark.parametrize("n_samples", [0, 1, 5, 80, 300])
def test_chunked_sampled_search_matches_the_per_model_loop(n_samples):
    # 300 samples reach the 128-model cap on one union
    rng = random.Random(n_samples)
    found = 0
    for agents in ("a", "ab", "abc"):
        universe = AgentUniverse(tuple(agents))
        bounds = SearchBounds(universe, max_states=3, max_actions=2, atoms=("p", "q"),
                              mode="sampled", n_samples=n_samples, seed=len(agents))
        for _ in range(4):
            f = random_formula(rng, universe, ("p", "q"), rng.randint(1, 2))
            expected = _outcome(_reference_search, f, bounds)
            assert _outcome(search_countermodel, f, bounds) == expected, pretty(f)
            found += expected is not None
    assert found >= (6 if n_samples >= 5 else 0)


def test_chunked_search_finds_a_late_countermodel(ab):
    # the first sample refuting independence at seed 62 is sample 273, in
    # the seventh union (samples 252 to 299); a valid formula is checked on all 300 samples
    bounds = SearchBounds(ab, max_states=3, max_actions=2, atoms=("p", "q"),
                          mode="sampled", n_samples=300, seed=62)
    f = parse("(<{a}>p & <{b}>q) -> <{a,b}>(p & q)", ab)
    pm = search_countermodel(f, bounds)
    assert dumps(pm.model) == dumps(list(sample_models(bounds))[273])
    assert _outcome(search_countermodel, f, bounds) == _outcome(_reference_search, f, bounds)
    assert search_countermodel(parse("~<{a,b}>false", ab), bounds) is None


@pytest.mark.parametrize("agents, max_states, max_actions", [
    ("a", 2, 1), ("a", 1, 2), ("ab", 1, 2),
])
def test_chunked_exhaustive_search_matches_the_per_model_loop(agents, max_states,
                                                               max_actions):
    universe = AgentUniverse(tuple(agents))
    rng = random.Random(max_states + 3 * max_actions)
    space = sum(1 for _ in _reference_models(SearchBounds(
        universe, max_states, max_actions, ("p",), budget=10 ** 6)))
    assert list(map(dumps, enumerate_models(SearchBounds(
        universe, max_states, max_actions, ("p",))))) == \
        list(map(dumps, _reference_models(SearchBounds(
            universe, max_states, max_actions, ("p",), budget=10 ** 6))))
    outcomes = set()
    for budget in (0, 1, 3, 40, space - 1, space, 10 ** 6):
        bounds = SearchBounds(universe, max_states, max_actions, ("p",), budget=budget)
        for _ in range(6):
            f = random_formula(rng, universe, ("p",), rng.randint(1, 2))
            expected = _outcome(_reference_search, f, bounds)
            assert _outcome(search_countermodel, f, bounds) == expected, (budget, pretty(f))
            outcomes.add(expected if isinstance(expected, str) or expected is None
                         else "found")
    # countermodels inside the budget, budget hits, and complete walks with none
    assert outcomes == {"found", "budget exceeded", None}


def test_scheme_check_with_discrepancies_matches_the_per_model_loop(ab, monkeypatch):
    # a classifier that reports every property turns each violated axiom
    # instance into a discrepancy
    real = classify
    monkeypatch.setattr(oracle, "classify", lambda model: dataclasses.replace(
        real(model), serial=True, independent=True, deterministic=True))
    config = _config(ab, scheme_models=300)  # three unions: 128, 128 and 44 models
    bounds = config.bounds
    expected = []
    for k in range(config.scheme_models):
        rng = random.Random(bounds.seed * 9_973 + k)
        n_states, n_actions = rng.randint(1, 3), rng.randint(1, 2)
        if k % 2:
            model = random_cgm(ab, n_states, n_actions, seed=rng.randrange(2 ** 32),
                               atoms=bounds.atoms)
        else:
            density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
            model = random_model(ab, n_states, n_actions, density,
                                 seed=rng.randrange(2 ** 32), atoms=bounds.atoms)
        for prop, instance in oracle._axiom_instances(ab, bounds.atoms):
            column = eval_all(model, instance)
            state = next((s for s in model.states if not column[s]), None)
            if state is not None:
                expected.append(vars(Discrepancy(
                    kind="scheme-separation", formula=pretty(instance),
                    detail=f"axiom instance fails although the model is {prop}",
                    seed=bounds.seed, model_json=dumps(model), state=state)))
    report = differential_run(config).to_json_dict()
    assert report["scheme_models_checked"] == 300
    assert len(expected) > 50
    assert report["discrepancies"] == expected


# -- random formulas ----------------------------------------------------------------------

def test_random_formulas_are_pinned():
    # seeded formulas feed the fuzz reports and the digest corpus, so the
    # same draws in the same order must give the same formulas and leave
    # the generator in one state
    lines = []
    for agents in ("a", "ab", "abc"):
        universe = AgentUniverse(tuple(agents))
        for k in range(1000):
            rng = random.Random(k)
            f = random_formula(rng, universe, ("p", "q"), rng.randint(0, 4),
                               rng.randint(1, 12))
            lines.append(f"{pretty(f)} {rng.random()}")
    assert sha256("\n".join(lines).encode()).hexdigest() == \
        "e7c66b30ea831ba5151ec7ac231e8dbee465b441e8e2ec8a9c71150ee1d7d1f1"


def test_random_formula_rejects_a_negative_depth(solo):
    with pytest.raises(ValueError, match="must not be negative"):
        random_formula(random.Random(0), solo, ("p",), -1)
