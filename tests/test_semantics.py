import random

import pytest

from mcl import (EMPTY_ACTION, TOP, AgentUniverse, And, Atom, Can, GameModel,
                 JointAction, Neg, PointedModel, Top, box, dia, dual, ensures, eval_all,
                 holds, implies, lor, modal_depth, parse, random_cgm,
                 random_formula, random_model)
from mcl import semantics
from mcl.formula import Formula, subformulas, walk


def ja(**kwargs):
    return JointAction.of(kwargs)


# -- pointwise truth on the gas-mask scenario -----------------------------------

def test_dead_state_has_no_empty_coalition_action(one_mask):
    # at s1 nobody has an available action, so even <{}>true fails
    assert not holds(PointedModel(one_mask, "s1"), Can(one_mask.universe.empty, TOP))


def test_cooperation_fails_where_merges_are_unavailable(one_mask):
    f = parse("(<{a}>m_a & <{b}>m_b) -> <{a,b}>(m_a & m_b)", one_mask.universe)
    assert not holds(PointedModel(one_mask, "s0"), f)
    # both conjuncts of the antecedent do hold there
    assert holds(PointedModel(one_mask, "s0"), parse("<{a}>m_a", one_mask.universe))
    assert holds(PointedModel(one_mask, "s0"), parse("<{b}>m_b", one_mask.universe))


def test_top_holds_everywhere(one_mask):
    for s in one_mask.states:
        assert holds(PointedModel(one_mask, s), TOP)


def test_pointed_model_checks_state(one_mask):
    with pytest.raises(ValueError):
        PointedModel(one_mask, "nowhere")


def test_undeclared_atoms_and_foreign_agents_rejected(one_mask, solo):
    with pytest.raises(ValueError, match="atoms"):
        holds(PointedModel(one_mask, "s0"), Atom("mystery"))
    with pytest.raises(ValueError, match="universe"):
        holds(PointedModel(one_mask, "s0"), Can(solo.coalition("a"), TOP))


# -- ensures ---------------------------------------------------------------------

def test_ensures_examples(one_mask):
    u = one_mask.universe
    pm = PointedModel(one_mask, "s0")
    assert ensures(pm, u.coalition("a"), ja(a="w"), Atom("m_a"))
    assert not ensures(pm, u.grand, ja(a="n", b="n"), Neg(Atom("l_a")))
    assert ensures(pm, u.grand, ja(a="n", b="n"), TOP)
    with pytest.raises(ValueError, match="not available"):
        ensures(pm, u.grand, ja(a="w", b="w"), TOP)


# -- bulk evaluation ----------------------------------------------------------------

def test_eval_all_empty_coalition_ability(one_mask):
    column = eval_all(one_mask, Can(one_mask.universe.empty, TOP))
    assert {s for s, v in column.items() if v} == {"s0", "s'1", "s'2"}


def test_eval_all_atoms_and_negation(one_mask):
    column = eval_all(one_mask, Atom("m_a"))
    assert column == {s: "m_a" in one_mask.label[s] for s in one_mask.states}
    flipped = eval_all(one_mask, Neg(Atom("m_a")))
    assert flipped == {s: not v for s, v in column.items()}


def _naive_holds(m, s, f):
    # direct transcription of the truth clauses via av/out, no sharing;
    # an independent reference for the column-based evaluator
    from mcl import And, Top
    if isinstance(f, Top):
        return True
    if isinstance(f, Atom):
        return f.name in m.label.get(s, frozenset())
    if isinstance(f, Neg):
        return not _naive_holds(m, s, f.child)
    if isinstance(f, And):
        return _naive_holds(m, s, f.left) and _naive_holds(m, s, f.right)
    return any(all(_naive_holds(m, t, f.child)
                   for t in m.out(f.coalition, s, act))
               for act in m.av(f.coalition, s))


def test_eval_all_matches_a_naive_reference(ab):
    rng = random.Random(99)
    for k in range(120):
        m = random_model(ab, rng.randint(1, 3), rng.randint(1, 2),
                         rng.choice((0.0, 0.25, 0.5, 0.8, 1.0)), seed=k)
        f = random_formula(rng, ab, ("p", "q"), rng.randint(0, 2))
        column = eval_all(m, f)
        for s in m.states:
            assert column[s] == _naive_holds(m, s, f)


def _dict_column_eval_all(model, f):
    # the dict-column evaluator that preceded the bitset checker, kept as a
    # reference: one dict[str, bool] per subformula, and <A> re-projects
    # every available profile of every state
    table = {}
    for g in subformulas(f):
        if isinstance(g, Top):
            col = {s: True for s in model.states}
        elif isinstance(g, Atom):
            col = {s: g.name in model.label.get(s, frozenset())
                   for s in model.states}
        elif isinstance(g, Neg):
            child = table[g.child]
            col = {s: not child[s] for s in model.states}
        elif isinstance(g, And):
            left, right = table[g.left], table[g.right]
            col = {s: left[s] and right[s] for s in model.states}
        else:
            col = _dict_can_column(model, g.coalition, table[g.child])
        table[g] = col
    return dict(table[f])


def _dict_can_column(model, coalition, child):
    members = coalition.members
    col = {}
    for s in model.states:
        ensured = {}
        for profile in model.available_profiles(s):
            restricted = profile.restrict(members)
            ok = ensured.get(restricted, True)
            if ok:
                ok = all(child[t] for t in model.outcome(s, profile))
            ensured[restricted] = ok
        col[s] = any(ensured.values())
    return col


ABC = AgentUniverse.of("a", "b", "c")


def _every_coalition_formulas(rng, universe, atoms=("p", "q")):
    # one <A> formula per coalition, {} and the grand coalition included,
    # plus a few random ones that nest several coalitions
    fs = [Can(c, random_formula(rng, universe, atoms, rng.randint(0, 2)))
          for c in universe.coalitions()]
    fs += [random_formula(rng, universe, atoms, rng.randint(1, 3), 12)
           for _ in range(3)]
    return fs


def _scale_models():
    rng = random.Random(4242)
    for k in range(24):
        n_states = (1, 2, 63, 64, 65, 70)[k % 6] if k < 12 else rng.randint(1, 70)
        density = (0.0, 0.01, 0.03, 0.1, 0.5, 1.0)[k % 6]
        yield rng, random_model(ABC, n_states, rng.randint(1, 2), density, seed=k)
        yield rng, random_cgm(ABC, rng.randint(1, 70), rng.randint(1, 3), seed=k)


def test_eval_all_matches_the_dict_column_reference_at_scale():
    wide = dead_ends = nondeterministic = 0
    for rng, m in _scale_models():
        wide += len(m.states) > 64
        dead_ends += any(not m.available_profiles(s) for s in m.states)
        nondeterministic += any(len(t) > 1 for t in m.out_ag.values())
        for f in _every_coalition_formulas(rng, ABC):
            column = eval_all(m, f)
            assert list(column) == list(m.states)
            assert column == _dict_column_eval_all(m, f)
    assert wide >= 5 and dead_ends >= 5 and nondeterministic >= 5


def test_reused_formula_objects_match_the_dict_column_reference():
    # the same formula objects go through every model, so each column after
    # the first comes from the program cached on the formula
    fs = _every_coalition_formulas(random.Random(77), ABC)
    models = [m for _, m in _scale_models()]
    assert len(models) >= 40 and sum(len(m.states) > 64 for m in models) >= 5
    for m in models:
        for f in fs:
            assert eval_all(m, f) == _dict_column_eval_all(m, f)


def test_repeated_eval_all_does_not_walk_the_formula_again(monkeypatch, ab):
    f = parse("<{a}>(p & ~<{a,b}>q) | [{b}](p & ~<{a,b}>q)", ab)
    m = random_model(ab, 4, 2, 0.5, seed=3)
    first = eval_all(m, f)
    measures = walk(f)

    def no_hash(self):
        raise AssertionError("formula walked again")

    # a walk deduplicates subformulas by equality, so it hashes every node
    monkeypatch.setattr(Formula, "__hash__", no_hash)
    assert eval_all(m, f) == first
    assert walk(f) is measures and subformulas(f) is measures.subformulas


def test_eval_all_on_a_deep_negation_chain(ab):
    m = random_model(ab, 5, 2, 0.5, seed=8)
    f = Atom("p")
    for _ in range(10_000):
        f = Neg(f)
    assert eval_all(m, f) == eval_all(m, Atom("p"))


def test_eval_all_on_a_deep_coalition_chain(ab):
    m = random_model(ab, 5, 2, 0.4, seed=12)
    a = ab.coalition("a")
    f = Atom("p")
    for _ in range(10_000):
        f = Can(a, f)
    assert modal_depth(f) == 10_000
    # reference: iterate <{a}> over explicit outcome sets, no recursion
    moves = {s: [m.out(a, s, act) for act in m.av(a, s)] for s in m.states}
    truth = {s for s in m.states if "p" in m.label[s]}
    for _ in range(10_000):
        truth = {s for s in m.states if any(out <= truth for out in moves[s])}
    assert eval_all(m, f) == {s: s in truth for s in m.states}


def test_eval_all_does_not_walk_profiles(monkeypatch, one_mask, two_masks):
    rng = random.Random(7)
    cases = []
    for m in (one_mask, two_masks, random_cgm(ABC, 12, 3, seed=5)):
        atoms = tuple(m.atoms)
        for f in _every_coalition_formulas(rng, m.universe, atoms):
            cases.append((m, f, _dict_column_eval_all(m, f)))

    def walk(*args):
        raise AssertionError("profile space walked")

    monkeypatch.setattr(GameModel, "available_profiles", walk)
    monkeypatch.setattr(GameModel, "outcome", walk)
    monkeypatch.setattr(JointAction, "restrict", walk)
    for m, f, expected in cases:
        assert eval_all(m, f) == expected
        for s in m.states:
            assert holds(PointedModel(m, s), f) == expected[s]


def test_eval_all_agrees_with_holds(ab):
    rng = random.Random(11)
    for k in range(40):
        m = random_model(ab, rng.randint(1, 3), rng.randint(1, 2),
                         rng.choice((0.0, 0.3, 0.7)), seed=k)
        f = random_formula(rng, ab, ("p", "q"), rng.randint(0, 2))
        column = eval_all(m, f)
        for s in m.states:
            assert column[s] == holds(PointedModel(m, s), f)


def test_holds_from_the_point_agrees_with_eval_all(monkeypatch):
    # holds checks on demand from the point, eval_all at every state; with
    # the size threshold lowered, every holds call takes the downward pass
    monkeypatch.setattr(semantics, "_LOCAL_MIN_STATES", 0)
    rng = random.Random("point-vs-every-state")
    dead_ends = 0
    for k in range(2000):
        u = AgentUniverse(("a", "b", "c")[:rng.randint(1, 3)])
        if k % 2:
            m = random_cgm(u, rng.randint(1, 4), rng.randint(1, 2), seed=k)
        else:
            m = random_model(u, rng.randint(1, 4), rng.randint(1, 2),
                             rng.choice((0.0, 0.2, 0.5, 0.8)), seed=k)
        f = random_formula(rng, u, ("p", "q"), rng.randint(0, 3))
        column = eval_all(m, f)
        assert {s: holds(PointedModel(m, s), f) for s in m.states} == column
        dead_ends += any(not m.canonical_rows(s) for s in m.states)
    assert dead_ends >= 400


# -- semantic laws on sampled models ----------------------------------------------------

def _sampled(ab, n, seed=23):
    rng = random.Random(seed)
    for k in range(n):
        yield rng, random_model(ab, rng.randint(1, 3), rng.randint(1, 2),
                                rng.choice((0.0, 0.2, 0.5, 0.8)), seed=k)


def test_dual_matches_direct_clause(ab):
    # [A]phi is true exactly when every available joint action has some
    # outcome satisfying phi; check the lowered form against that clause
    for rng, m in _sampled(ab, 50):
        coalition = rng.choice(list(ab.coalitions()))
        f = random_formula(rng, ab, ("p", "q"), rng.randint(0, 1))
        lowered = eval_all(m, dual(coalition, f))
        inner = eval_all(m, f)
        for s in m.states:
            direct = all(any(inner[t] for t in m.out(coalition, s, act))
                         for act in m.av(coalition, s))
            assert lowered[s] == direct


def test_box_dia_reduce_to_successor_quantifiers(ab):
    for rng, m in _sampled(ab, 50, seed=29):
        f = random_formula(rng, ab, ("p", "q"), rng.randint(0, 1))
        inner = eval_all(m, f)
        box_col = eval_all(m, box(ab, f))
        dia_col = eval_all(m, dia(ab, f))
        for s in m.states:
            succ = m.out(m.universe.empty, s, EMPTY_ACTION)
            has_move = bool(m.available_profiles(s))
            assert box_col[s] == (not has_move or all(inner[t] for t in succ))
            assert dia_col[s] == (has_move and any(inner[t] for t in succ))


def test_bigger_coalitions_keep_abilities(ab):
    # semantic monotonicity: <A>phi implies <B>phi whenever A is in B
    for rng, m in _sampled(ab, 50, seed=31):
        f = random_formula(rng, ab, ("p", "q"), rng.randint(0, 1))
        cols = {c: eval_all(m, Can(c, f)) for c in ab.coalitions()}
        for small in ab.coalitions():
            for big in ab.coalitions():
                if small.issubset(big):
                    for s in m.states:
                        assert not cols[small][s] or cols[big][s]


def test_nothing_ensures_false(ab):
    for rng, m in _sampled(ab, 30, seed=37):
        for coalition in ab.coalitions():
            assert not any(eval_all(m, Can(coalition, Neg(TOP))).values())


def test_sugar_forms_evaluate_like_their_expansions(ab):
    # lowering is semantics-preserving: spot-check or/implies against
    # truth-functional recomputation
    for rng, m in _sampled(ab, 30, seed=41):
        f = random_formula(rng, ab, ("p", "q"), 1)
        g = random_formula(rng, ab, ("p", "q"), rng.randint(0, 1))
        fc, gc = eval_all(m, f), eval_all(m, g)
        or_col = eval_all(m, lor(f, g))
        imp_col = eval_all(m, implies(f, g))
        for s in m.states:
            assert or_col[s] == (fc[s] or gc[s])
            assert imp_col[s] == ((not fc[s]) or gc[s])
