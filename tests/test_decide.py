import hashlib
import random
import sys

import pytest

from mcl import (TOP, AgentUniverse, And, Atom, Can, GameModel, Neg,
                 PointedModel, StandardFormula, atoms_of, bot,
                 build_countermodel_detailed, classify, decide_sat,
                 decide_valid, dumps, holds, hub_facts, implies, loads, lor,
                 modal_depth, pair_implication, parse, pretty,
                 to_standard_conjunction)
from mcl import decide, normalform, semantics
from mcl.oracle import random_formula, random_propositional


def valid(text, u):
    return decide_valid(parse(text, u), u)


# -- the flagship verdicts ------------------------------------------------------

def test_liveness_is_valid(ab):
    assert valid("~<{a,b}>false", ab).valid


def test_independence_of_agents_fails(ab):
    v = valid("(<{a}>p & <{b}>q) -> <{a,b}>(p & q)", ab)
    assert not v.valid
    assert v.countermodel is not None


def test_special_independence_holds(ab):
    assert valid("(<{}>p & <{a}>q) -> <{a}>(p & q)", ab).valid


def test_grand_coalition_maximality_fails(ab):
    assert not valid("<{a,b}>p | <{a,b}>~p", ab).valid
    assert not valid("~<{}>~p -> <{a,b}>p", ab).valid


def test_seriality_fails(ab):
    v = valid("<{a}>true", ab)
    assert not v.valid
    # the refuting model is a single dead end
    m = v.countermodel.model
    assert len(m.states) == 1 and m.out_ag == {}


def test_determinism_fails(ab):
    assert not valid("<{a}>(p | q) -> (<{a}>p | <{a,b}>q)", ab).valid


def test_monotonicity_verdicts(ab):
    assert valid("<{a}>p -> <{a,b}>p", ab).valid
    assert valid("<{}>(p -> q) -> (<{a}>p -> <{a}>q)", ab).valid
    assert not valid("<{a,b}>p -> <{a}>p", ab).valid


def test_validity_is_relative_to_the_grand_coalition(solo):
    # with a single agent, {a} is the grand coalition: maximality still fails
    assert not valid("~<{}>~p -> <{a}>p", solo).valid
    assert valid("<{}>p -> <{a}>p", solo).valid


# -- satisfiability ----------------------------------------------------------------

def test_sat_examples(ab):
    assert not decide_sat(parse("p & ~p", ab), ab).satisfiable
    v = decide_sat(parse("~<{}>true", ab), ab)
    assert v.satisfiable
    assert not v.witness.model.available_profiles(v.witness.state)
    # coalition monotonicity is an axiom, so its negation has no model
    assert not decide_sat(parse("<{a}>p & ~<{a,b}>p", ab), ab).satisfiable


def test_sat_witness_is_certified(ab):
    rng = random.Random(71)
    found = 0
    for k in range(40):
        f = random_formula(rng, ab, ("p", "q"), rng.randint(1, 2))
        v = decide_sat(f, ab)
        if v.satisfiable:
            found += 1
            assert holds(v.witness, f)
    assert found > 10


# -- certification of countermodels ---------------------------------------------------

def test_every_invalid_verdict_is_certified(ab):
    rng = random.Random(72)
    invalid = 0
    for k in range(60):
        f = random_formula(rng, ab, ("p", "q"), rng.randint(1, 2))
        v = decide_valid(f, ab)
        if v.valid:
            continue
        invalid += 1
        pm = v.countermodel
        assert not holds(pm, f)
        # the emitted document loads back into a well-formed model
        again = loads(dumps(pm.model))
        assert again == pm.model
        classify(again)  # classification must not fail on any countermodel
    assert invalid > 20


def test_trace_records_the_decision_path(ab):
    v = valid("~<{a,b}>false", ab)
    assert v.trace[0].case == "pair"
    v = valid("p | ~p | <{a}>q", ab)
    assert v.trace[0].case == "gamma"
    v = valid("<{a}>true", ab)
    assert v.trace[0].case == "refuted"
    assert v.trace[0].failed_pairs == ()
    v = decide_valid(parse("p & ~p", ab), ab)
    assert v.trace[0].case == "propositional"


# -- depth 0 and deep inputs -------------------------------------------------------------

def _eval_prop(f, assignment):
    if isinstance(f, Atom):
        return assignment[f.name]
    if isinstance(f, Neg):
        return not _eval_prop(f.child, assignment)
    if isinstance(f, And):
        return _eval_prop(f.left, assignment) and _eval_prop(f.right, assignment)
    return True  # Top


def _truth_table(f, universe):
    """Reference decider for depth 0: the first falsifying assignment in
    binary-counter order over the sorted atoms, as a one-state dead end."""
    names = sorted(atoms_of(f))
    for mask in range(1 << len(names)):
        assignment = {name: bool(mask >> k & 1) for k, name in enumerate(names)}
        if not _eval_prop(f, assignment):
            label = frozenset(n for n in names if assignment[n])
            return GameModel(universe, tuple(names), ("idle",), ("s0",),
                             {"s0": label}, {})
    return None


def test_propositional_verdicts_match_the_truth_table(ab):
    atom_counts = set()
    closed = set()  # verdicts of formulas whose leaves are all true or false
    for k in range(600):
        rng = random.Random(f"prop:{k}")
        pool = ("p", "q", "r", "s")[:rng.randint(1, 4)]
        f = random_propositional(rng, pool, rng.randint(1, 16))
        expected = _truth_table(f, ab)
        v = decide_valid(f, ab)
        assert v.valid == (expected is None)
        if expected is not None:
            assert v.countermodel.state == "s0"
            assert dumps(v.countermodel.model) == dumps(expected)
        atom_counts.add(len(atoms_of(f)))
        if not atoms_of(f):
            closed.add(v.valid)
    assert atom_counts == {0, 1, 2, 3, 4}
    assert closed == {True, False}


def _one_state_per_labelling(f, universe):
    """Reference: model-check the one-state model of each labelling in
    binary-counter order; the first that refutes ``f``, or None."""
    names = sorted(atoms_of(f))
    for mask in range(1 << len(names)):
        label = frozenset(n for k, n in enumerate(names) if mask >> k & 1)
        model = GameModel(universe, tuple(names), ("idle",), ("s0",),
                          {"s0": label}, {})
        if not holds(PointedModel(model, "s0"), f):
            return model
    return None


@pytest.mark.parametrize("mask", [0, 3, 4, 11, 12, 13, 300, 511])
def test_depth_zero_refutation_matches_one_state_per_labelling(ab, mask):
    # false at exactly one labelling of p0..p8: at the start or end of the
    # blocks 0-3 and 4-11, at the start of 12-27 or inside it, inside
    # 252-507, or the very last one
    lits = [f"p{k}" if mask >> k & 1 else f"~p{k}" for k in range(9)]
    f = parse("~(" + " & ".join(lits) + ")", ab)
    v = decide_valid(f, ab)
    assert not v.valid and v.countermodel.state == "s0"
    assert dumps(v.countermodel.model) == dumps(_one_state_per_labelling(f, ab))
    s = decide_sat(Neg(f), ab)
    assert s.satisfiable
    assert dumps(s.witness.model) == dumps(v.countermodel.model)


def test_up_to_two_atoms_are_checked_in_one_model(ab, monkeypatch):
    # all labellings share one model; test_propositional_verdicts_match_the_
    # truth_table checks that the refuting one is still the first
    sizes = []
    check = semantics.eval_all
    monkeypatch.setattr(semantics, "eval_all",
                        lambda model, f: sizes.append(len(model.states)) or check(model, f))
    atom_counts = set()
    for k in range(200):
        rng = random.Random(f"labellings:{k}")
        f = random_propositional(rng, ("p", "q")[:rng.randint(1, 2)], rng.randint(1, 12))
        sizes.clear()
        decide._decide_propositional(f, ab)
        assert sizes == [1 << len(atoms_of(f))]
        atom_counts.add(len(atoms_of(f)))
    assert atom_counts == {0, 1, 2}


def test_depth_zero_valid_over_nine_atoms(ab):
    f = parse("(" + " & ".join(f"p{k}" for k in range(9)) + ") -> p8", ab)
    assert _one_state_per_labelling(f, ab) is None
    assert decide_valid(f, ab).valid


def test_deep_modal_chain_is_refuted_by_one_state(ab):
    f = parse("<{a}>" * 10_000 + "p", ab)
    v = decide_valid(f, ab)
    assert not v.valid
    assert len(v.countermodel.model.states) == 1
    assert not holds(v.countermodel, f)


def test_deep_negation_chain_is_valid(ab):
    assert decide_valid(parse("~" * 20_000 + "(p | ~p)", ab), ab).valid


@pytest.mark.parametrize("n", [10_000, 10_001])
def test_deep_negation_above_a_modality(ab, n):
    f = parse("~" * n + "<{a}>p", ab)
    short = parse("~" * (n % 2) + "<{a}>p", ab)
    assert to_standard_conjunction(f, ab) == to_standard_conjunction(short, ab)
    v = decide_valid(f, ab)
    assert v == decide_valid(short, ab)
    assert not v.valid and not holds(v.countermodel, f)


# -- the grafted construction -----------------------------------------------------------

def _refuted_clause(text, u):
    (sf,) = to_standard_conjunction(parse(text, u), u)
    return sf


def test_a_clause_of_another_universe_is_rejected(ab, solo):
    sf = _refuted_clause("(<{a}>p & <{b}>q) -> <{a,b}>(p & q)", ab)
    with pytest.raises(ValueError, match="different agent universe"):
        build_countermodel_detailed(sf, AgentUniverse.of("a", "b", "c"))
    # <{a}>p -> <{a,b}>p would be valid, were {a} not of another universe
    mixed = StandardFormula(ab, (), ((solo.coalition("a"), Atom("p")), (ab.empty, TOP)),
                            ((ab.grand, Atom("p")), (ab.grand, bot())))
    with pytest.raises(ValueError, match="different agent universe"):
        build_countermodel_detailed(mixed, ab)


def test_dead_end_branch_for_empty_negative_side(ab):
    sf = _refuted_clause("<{a}>true", ab)
    pm = build_countermodel_detailed(sf, ab)[0]
    assert pm.model.out_ag == {}
    assert not holds(pm, sf.to_formula())


def test_graft_for_independence_instance(ab):
    sf = _refuted_clause("(<{a}>p & <{b}>q) -> <{a,b}>(p & q)", ab)
    pm, form = build_countermodel_detailed(sf, ab)
    # three alphas (one per negative row), no betas, six grafted entry states
    assert [x for x in form.actions if x.startswith("alpha")] == \
        ["alpha0", "alpha1", "alpha2"]
    assert [x for x in form.actions if x.startswith("beta")] == []
    assert len(form.targets) == 6
    assert not holds(pm, sf.to_formula())
    assert holds(pm, hub_facts(sf))


def test_graft_for_the_worked_example(ab):
    text = ("false | ((<{a}>p & <{b}>q & <{}>true) -> "
            "(<{a,b}>(p & q) | <{a}>(~p | q) | <{a,b}>false))")
    sf = _refuted_clause(text, ab)
    pm, form = build_countermodel_detailed(sf, ab)
    model = pm.model
    betas = [x for x in model.actions if x.startswith("beta")]
    assert betas == ["beta1_1"]
    # the spoiler profile differs from all-play-alpha1 exactly at agent b
    spoiler = [p for p in model.available_profiles(form.hub)
               if "beta1_1" in dict(p.items).values()]
    assert len(spoiler) == 1
    assert dict(spoiler[0].items) == {"a": "alpha1", "b": "beta1_1"}
    assert len(form.targets) == 8
    assert not holds(pm, sf.to_formula())
    assert holds(pm, hub_facts(sf))


def test_game_form_outcome_conditions(ab):
    sf = _refuted_clause("(<{a}>p & <{b}>q) -> <{a,b}>(p & q)", ab)
    pm, form = build_countermodel_detailed(sf, ab)
    assert pm.model.available_profiles(form.hub) == set(form.out0)
    for profile, targets in form.out0.items():
        assert targets, "available hub profiles must lead somewhere"
        assert targets <= frozenset(form.targets)
    spoilers = [p for p in form.out0
                if any(x.startswith("beta") for x in dict(p.items).values())]
    for p in spoilers:
        assert form.out0[p] == frozenset(form.targets)


def test_hub_claim_unique_extension(ab):
    # for each negative row with a nonempty coalition, the only available
    # grand-coalition extension of its projected action is all-play-alpha_i
    for text in (
        "(<{a}>p & <{b}>q) -> <{a,b}>(p & q)",
        "false | ((<{a}>p & <{b}>q & <{}>true) -> "
        "(<{a,b}>(p & q) | <{a}>(~p | q) | <{a,b}>false))",
        "<{a}>(p | q) -> (<{a}>p | <{a,b}>q)",
    ):
        sf = _refuted_clause(text, ab)
        pm, form = build_countermodel_detailed(sf, ab)
        model = pm.model
        for i, (coalition, _) in enumerate(sf.ni):
            if not coalition.members:
                continue
            sigma = [p for p in form.out0
                     if all(x == f"alpha{i}" for x in dict(p.items).values())]
            assert len(sigma) == 1
            projected = sigma[0].restrict(coalition)
            extensions = [p for p in model.available_profiles(form.hub)
                          if p.extends(projected)]
            assert extensions == sigma


def test_build_countermodel_requires_a_refuted_clause(ab):
    (sf,) = to_standard_conjunction(parse("~<{a,b}>false", ab), ab)
    with pytest.raises(ValueError):
        build_countermodel_detailed(sf, ab)[0]


def test_countermodel_declares_all_atoms_of_the_input(ab):
    # the failing clause may omit atoms used elsewhere in the formula
    f = And(Can(ab.coalition("a"), TOP), Atom("p"))
    v = decide_valid(f, ab)
    assert not v.valid
    assert "p" in v.countermodel.model.atoms
    assert not holds(v.countermodel, f)


# -- depth-3 recursion and memoization ------------------------------------------------

def test_deeper_nesting_terminates(ab):
    # {a} is not inside {b}, so this monotonicity-shaped formula fails and
    # its countermodel nests grafts three levels deep
    f = parse("<{a}><{b}><{a,b}>p -> <{b}><{b}><{a,b}>p", ab)
    assert modal_depth(f) == 3
    v = decide_valid(f, ab)
    assert not v.valid
    assert not holds(v.countermodel, f)
    # the coalition-monotone variant with {a} inside {a,b} is an axiom instance
    assert decide_valid(
        parse("<{a}><{b}><{a,b}>p -> <{a,b}><{b}><{a,b}>p", ab), ab).valid


def test_nested_graft_keeps_the_action_count():
    # grafted sub-models share action names, so nesting the independence
    # instance under ~<{c}>~ adds states and rows but no actions
    u = AgentUniverse.of("a", "b", "c")
    counts = set()
    for k in range(4):
        text = "~<{c}>~" * k + "((<{a}>p & <{b}>q) -> <{a,b}>(p & q))"
        v = valid(text, u)
        assert not v.valid
        counts.add(len(v.countermodel.model.actions))
    assert len(counts) == 1


def test_repeated_subgoals_share_work(ab):
    # the same modal atom appears in many clauses; this must stay fast
    p = Atom("p")
    parts = None
    for k in range(8):
        clause = lor(Can(ab.coalition("a"), p), Atom(f"q{k}"))
        parts = clause if parts is None else And(parts, clause)
    v = decide_valid(implies(parts, Can(ab.coalition("a"), p)), ab)
    assert not v.valid  # the q-atoms alone can satisfy the antecedent


def _weak(n):
    x = " | ".join(f"(<{{a}}>p{i} & <{{b}}>q{i})" for i in range(n))
    y = " | ".join(f"(<{{a,b}}>p{i} & <{{b}}>q{i})" for i in range(n))
    return f"({x}) -> ({y})"


def test_each_distinct_pair_goal_is_built_once(ab, monkeypatch):
    calls = []
    build = decide.pair_implication
    monkeypatch.setattr(decide, "pair_implication",
                        lambda sf, i, j, *phi0: calls.append((i, j)) or build(sf, i, j, *phi0))
    counts = []
    for n in range(1, 8):
        calls.clear()
        assert valid(_weak(n), ab).valid
        counts.append(len(calls))
    assert counts == [3, 10, 21, 36, 55, 78, 105]


def test_the_decider_converts_clauses_up_to_the_first_refuted_one(ab, monkeypatch):
    # the cnf ladder at n = 10 has 1024 clauses, and the first is refuted
    f = parse(" | ".join(f"(<{{a}}>p{i} & <{{b}}>q{i})" for i in range(10)), ab)
    converted = []
    build = normalform._clause_to_standard
    monkeypatch.setattr(normalform, "_clause_to_standard",
                        lambda clause, u: converted.append(clause) or build(clause, u))
    v = decide_valid(f, ab)
    assert not v.valid and len(converted) == 1
    eager = to_standard_conjunction(f, ab)
    assert len(eager) == 1024
    assert v.trace == (decide._run(decide._decide_clause(eager[0], ab, {}))[0],)


def test_the_decider_builds_each_pair_goal_as_pair_implication(ab, monkeypatch):
    # _decide_clause hands its own phi_NI0 to pair_implication; the goal is
    # the one built from the clause alone
    built = []
    build = decide.pair_implication

    def recorded(sf, i, j, *phi0):
        goal = build(sf, i, j, *phi0)
        built.append((sf, i, j, goal))
        return goal

    monkeypatch.setattr(decide, "pair_implication", recorded)
    rng = random.Random("pair-goals")
    for _ in range(300):
        f = random_formula(rng, ab, ("p", "q"), rng.randint(1, 2))
        for sf in to_standard_conjunction(f, ab):
            decide._run(decide._decide_clause(sf, ab, {}))
    assert len(built) > 200
    assert any(len(sf.ni) > 2 for sf, *_ in built)
    for sf, i, j, goal in built:
        assert goal == pair_implication(sf, i, j)


def test_pair_verdicts_depend_on_phi_ni0(ab):
    # both clauses have the pair <{a}>p -> <{a}>(p & q); only the first
    # has q in phi_NI0, which makes that pair valid (r keeps the second
    # clause from absorbing the first)
    strong = "(<{a}>p & <{}>q) -> <{a}>(p & q)"
    weak = "r | (<{a}>p -> <{a}>(p & q))"
    for text in (f"({strong}) & ({weak})", f"({weak}) & ({strong})"):
        v = valid(text, ab)
        assert not v.valid
        assert not holds(v.countermodel, parse(weak, ab))
    assert valid(strong, ab).valid


def test_verdicts_are_reproducible(ab):
    f = parse("(<{a}>p & <{b}>q) -> <{a,b}>(p & q)", ab)
    v1, v2 = decide_valid(f, ab), decide_valid(f, ab)
    assert v1.valid == v2.valid
    assert dumps(v1.countermodel.model) == dumps(v2.countermodel.model)


# -- one assembly, one certificate ------------------------------------------------------

def _counted(monkeypatch, owner, name, calls):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_chain_is_assembled_and_certified_once(solo, monkeypatch):
    # <{a}>^50 p grafts 50 levels; the witness is built and checked once,
    # not once per level
    f = parse("<{a}>" * 50 + "p", solo)
    calls = {"holds": 0, "rename_disjoint": 0, "__post_init__": 0}
    _counted(monkeypatch, decide, "holds", calls)
    _counted(monkeypatch, decide, "rename_disjoint", calls)
    _counted(monkeypatch, GameModel, "__post_init__", calls)
    w = decide_sat(f, solo).witness
    assert calls["holds"] == 1
    assert calls["rename_disjoint"] == 0
    assert calls["__post_init__"] <= 4
    assert len(w.model.states) == 52
    assert semantics.eval_all(w.model, f)[w.state]


def test_pair_chains_decide_under_the_default_recursion_limit(solo):
    assert sys.getrecursionlimit() < 10_000
    chain = "<{a}>" * 10_000 + "p"
    assert valid(f"{chain} -> {chain}", solo).valid


def test_a_chain_witness_has_one_hub_per_level(solo):
    # hub s<k> leads to the next level and to the dead end s<n+1> that all
    # levels share; the last level leads to the dead end s<n> labelled p
    n = 1000
    f = parse("<{a}>" * n + "p", solo)
    w = decide_sat(f, solo).witness
    m = w.model
    assert m.states == tuple(f"s{k}" for k in range(n + 2))
    assert m.actions == ("alpha0", "alpha1")
    assert {s: m.label[s] for s in m.states if m.label[s]} == {f"s{n}": {"p"}}
    for k in range(n):
        outcomes = {targets for _, targets in m.canonical_rows(f"s{k}")}
        assert outcomes == {frozenset({f"s{k + 1}"}), frozenset({f"s{n + 1}"})}
    assert m.canonical_rows(f"s{n}") == m.canonical_rows(f"s{n + 1}") == ()
    assert holds(w, f)


def _mixed_chain(rng, u, n, atom):
    f = Atom(atom)
    for _ in range(n):
        f = Can(rng.choice((u.empty, u.coalition("a"))), f)
    return f


def test_shared_refutations_are_assembled_once(solo):
    # the refutations of ~(~~(A & B) & ~<{a}>~C) over mixed <{}>/<{a}>
    # chains share sub-refutations, which a tree would copy once per path
    sizes = (16, 33, 50)
    rng = random.Random("shared-refutations")
    a, b, c = (_mixed_chain(rng, solo, n, x) for n, x in zip(sizes, "pqr"))
    f = Neg(And(Neg(Neg(And(a, b))), Neg(Can(solo.coalition("a"), Neg(c)))))
    v = decide_valid(f, solo)
    assert not v.valid
    assert len(v.countermodel.model.states) <= 2 * sum(sizes)
    assert not holds(v.countermodel, f)


def test_a_chain_reads_its_atoms_at_most_three_times(solo, monkeypatch):
    # the assembly declares the atoms, so no level of the chain walks its
    # goal for them
    calls = {"atoms_of": 0}
    _counted(monkeypatch, decide, "atoms_of", calls)
    assert decide_sat(parse("<{a}>" * 200 + "p", solo), solo).satisfiable
    assert calls["atoms_of"] <= 3


def test_decisions_are_pinned():
    # verdicts, traces and normal forms of 3000 seeded formulas, pinned as
    # one digest, and their countermodels and witnesses as another
    decisions, models, count = hashlib.sha256(), hashlib.sha256(), 0
    for agents in ("a", "ab", "abc"):
        u = AgentUniverse(tuple(agents))
        rng = random.Random(f"pinned:{agents}")
        for k in range(1000):
            f = random_formula(rng, u, ("p", "q", "r"), k % 4, rng.randint(2, 10))
            v, s = decide_valid(f, u), decide_sat(f, u)
            decisions.update(repr((v.valid, s.satisfiable)).encode())
            for trace in (v.trace, s.trace):
                decisions.update(repr([(o.case, o.clause and o.clause.render(), o.pair,
                                        o.failed_pairs) for o in trace]).encode())
            if modal_depth(f):
                decisions.update(repr([c.render()
                                       for c in to_standard_conjunction(f, u)]).encode())
            for pm in (v.countermodel, s.witness):
                if pm is not None:
                    assert pm.model.atoms == tuple(sorted(atoms_of(f)))
                    models.update(f"{pm.state}\0{dumps(pm.model)}".encode())
                    count += 1
    assert count == 5564
    assert decisions.hexdigest() == \
        "8fff99b2a285f5078c46ab2b82f38a3d5e1d4c6956741bc8517c896783474abd"
    assert models.hexdigest() == \
        "d7c4a313b05395190c9e7204e03d3af45cd075340837fd25229628d96b495dd6"


def test_nested_countermodel_bytes_are_pinned():
    # atom and action declarations of seeded models with grafts nested
    # under grafts, pinned as one digest
    digest, nested = hashlib.sha256(), 0
    for agents in (("a", "b"), ("a", "b", "c")):
        u = AgentUniverse(agents)
        rng = random.Random(f"nested:{len(agents)}")
        for _ in range(250):
            f = random_formula(rng, u, ("p", "q", "r"), rng.randint(2, 3), 12)
            for pm in (decide_valid(f, u).countermodel, decide_sat(f, u).witness):
                if pm is not None:
                    digest.update(dumps(pm.model).encode())
                    nested += any(pm.model.canonical_rows(s)
                                  for s in pm.model.states if s != pm.state)
    assert nested >= 300
    assert digest.hexdigest() == \
        "ea9e0b4c93ecefffe6b9724ef614bb82af4cf3628142134d607dad3d91deb141"


@pytest.mark.parametrize("agents, text, sha256", [
    (("a", "b"),
     "~(~(~<{a,b}><{b}>~r & ~<{a,b}><{b}><{b}>~q) & ~<{}>(<{a}><{a,b}>~p & r))",
     "03d3a83c649015d803d1d2fcb09c8965a51ee730d8aafa55d457ee1f8b992523"),
    (("a", "b", "c"),
     "~<{c}>~" * 3 + "((<{a}>p & <{b}>q) -> <{a,b}>(p & q))",
     "da8148ebc7103d9eec3033fdb4a49c2cd68f70a971ee531dc71fbc82e7f14490"),
], ids=["atoms-sorted", "nested-independence"])
def test_countermodel_bytes_are_pinned(agents, text, sha256):
    # atoms are the input's, sorted: the first model declares ('p', 'q', 'r')
    u = AgentUniverse(agents)
    pm = valid(text, u).countermodel
    assert hashlib.sha256(dumps(pm.model).encode()).hexdigest() == sha256


def test_chain_witness_bytes_are_pinned(solo):
    w = decide_sat(parse("<{a}>" * 10 + "p", solo), solo).witness
    assert hashlib.sha256(dumps(w.model).encode()).hexdigest() == \
        "8427cbabb9a14ac69056acb6700345fb7d14ad6182931e5ee0e0a7f55f7de8c8"


@pytest.mark.parametrize("text", ["p", "<{a}>p", "(<{a}>p & <{b}>q) -> <{a,b}>(p & q)"])
def test_a_failed_certificate_raises(ab, monkeypatch, text):
    monkeypatch.setattr(decide, "holds", lambda pm, f: True)
    f = parse(text, ab)
    message = "countermodel does not refute the formula"
    with pytest.raises(decide.CertificationError, match=message):
        decide_valid(f, ab)
    with pytest.raises(decide.CertificationError, match=message):
        decide_sat(Neg(f), ab)
    if modal_depth(f):
        with pytest.raises(decide.CertificationError, match="does not refute the clause"):
            build_countermodel_detailed(_refuted_clause(text, ab), ab)


# -- scheme sampling (acceptance runs the full battery) ----------------------------------

def test_axiom_scheme_spot_checks(ab):
    rng = random.Random(73)
    grand = ab.grand
    for _ in range(10):
        phi = random_formula(rng, ab, ("p", "q"), rng.randint(0, 1))
        psi = random_formula(rng, ab, ("p", "q"), rng.randint(0, 1))
        a = ab.coalition(*[x for x in ab.agents if rng.random() < 0.5])
        b = a.union(ab.coalition(*[x for x in ab.agents if rng.random() < 0.5]))
        tau = lor(phi, Neg(phi))
        mg = implies(Can(ab.empty, implies(phi, psi)),
                     implies(Can(a, phi), Can(a, psi)))
        mc = implies(Can(a, phi), Can(b, phi))
        live = Neg(Can(a, Neg(TOP)))
        sia = implies(And(Can(ab.empty, phi), Can(a, psi)), Can(a, And(phi, psi)))
        rcn = implies(Can(a, psi), Can(ab.empty, tau))
        rmon = implies(Can(a, And(phi, psi)), Can(b, lor(phi, psi)))
        for scheme in (tau, mg, mc, live, sia, rcn, rmon):
            assert decide_valid(scheme, ab).valid, pretty_fail(scheme)
        det = implies(Can(a, lor(phi, psi)), lor(Can(a, phi), Can(grand, psi)))
        ser = Can(a, TOP)
        ia = implies(And(Can(a, phi), Can(a.complement, psi)),
                     Can(grand, And(phi, psi)))
        # these three may hold for degenerate instantiations, but never
        # universally; just make sure the decider never crashes on them
        for scheme in (det, ser, ia):
            decide_valid(scheme, ab)


def pretty_fail(f):
    return f"scheme judged invalid: {pretty(f)}"


# -- metamorphic relations on seeded formulas -------------------------------------------

@pytest.fixture(scope="module", params=[("a", "b"), ("a", "b", "c")],
                ids=["ab", "abc"])
def seeded_verdicts(request):
    """1000 seeded formulas of modal depth 0-2 over the agents, and their
    validity verdicts."""
    u = AgentUniverse(request.param)
    rng = random.Random(f"metamorphic:{','.join(u.agents)}")
    formulas = [random_formula(rng, u, ("p", "q"), k % 3) for k in range(1000)]
    return u, formulas, [decide_valid(f, u).valid for f in formulas]


def test_conjunction_is_valid_iff_both_conjuncts_are(seeded_verdicts):
    u, formulas, verdicts = seeded_verdicts
    pairs = list(zip(range(0, 1000, 2), range(1, 1000, 2)))
    valid_ones = [k for k, ok in enumerate(verdicts) if ok]
    pairs += zip(valid_ones, valid_ones[1:])  # conjunctions that are valid
    for i, j in pairs:
        conjunction = decide_valid(And(formulas[i], formulas[j]), u).valid
        assert conjunction == (verdicts[i] and verdicts[j]), (i, j)


def test_verdicts_ignore_atom_names_and_agent_order(seeded_verdicts):
    u, formulas, verdicts = seeded_verdicts
    reversed_u = AgentUniverse(u.agents[::-1])
    swap = str.maketrans("pq", "qp")  # no other token of pretty() has p or q
    for f, expected in zip(formulas, verdicts):
        text = pretty(f)
        assert valid(text.translate(swap), u).valid == expected, text
        assert valid(text, reversed_u).valid == expected, text
