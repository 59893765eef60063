import pytest

from mcl import (BudgetExceededError, DifferentialConfig, SearchBounds,
                 classify, decide_valid, differential_run, dumps,
                 enumerate_models, eval_all, parse, sample_models,
                 search_countermodel)
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
