import random

import pytest

from mcl import (TOP, AgentUniverse, And, Atom, Can, Neg, StandardFormula, Top,
                 bot, eval_all, gamma_is_tautology, lor, modal_depth, ni0, parse,
                 random_formula, random_model, to_standard_conjunction)
from mcl.normalform import _clause_depth, _prune


def clauses_of(text, u):
    return to_standard_conjunction(parse(text, u), u)


# -- clause shape ----------------------------------------------------------------

def test_positive_unit_clause(ab):
    (sf,) = clauses_of("<{a}>p", ab)
    assert sf.gamma == ()
    assert sf.ni == ()
    assert sf.pi == ((ab.coalition("a"), Atom("p")), (ab.grand, bot()))


def test_negative_unit_clause_gets_both_paddings(ab):
    (sf,) = clauses_of("~<{a}>p", ab)
    assert sf.ni == ((ab.coalition("a"), Atom("p")), (ab.empty, TOP))
    assert sf.pi == ((ab.grand, bot()),)


def test_propositional_literals_go_to_gamma(ab):
    (sf,) = clauses_of("p | ~q | <{a}>r", ab)
    assert sf.gamma == (Atom("p"), Neg(Atom("q")))
    assert sf.pi[0] == (ab.coalition("a"), Atom("r"))


def test_worked_standard_formula_is_returned_unchanged(ab):
    text = ("false | ((<{a}>p & <{b}>q & <{}>true) -> "
            "(<{a,b}>(p & q) | <{a}>(~p | q) | <{a,b}>false))")
    (sf,) = clauses_of(text, ab)
    assert sf.gamma == ()
    assert sf.ni == ((ab.coalition("a"), Atom("p")),
                     (ab.coalition("b"), Atom("q")),
                     (ab.empty, TOP))
    assert sf.pi == ((ab.grand, And(Atom("p"), Atom("q"))),
                     (ab.coalition("a"), lor(Neg(Atom("p")), Atom("q"))),
                     (ab.grand, bot()))


def test_depth_zero_input_is_rejected(ab):
    with pytest.raises(ValueError):
        to_standard_conjunction(parse("p & ~q", ab), ab)


def test_standard_formula_invariants_enforced(ab):
    with pytest.raises(ValueError):
        StandardFormula(ab, (), (), ())  # empty positive side
    with pytest.raises(ValueError):
        StandardFormula(ab, (), (), ((ab.coalition("a"), Atom("p")),))
    with pytest.raises(ValueError):
        StandardFormula(ab, (), ((ab.coalition("a"), Atom("p")),),
                        ((ab.grand, bot()),))  # nonempty ni without <{}>true
    with pytest.raises(ValueError):
        StandardFormula(ab, (Can(ab.grand, TOP),), (), ((ab.grand, bot()),))


def test_padding_checks_on_unusual_entries(ab):
    # an entry whose goal is not a formula is compared whole
    StandardFormula(ab, (), (), ((ab.coalition("a"), "x"), (ab.grand, bot())))
    with pytest.raises(ValueError):
        StandardFormula(ab, (), (), ((ab.grand, "x"),))
    # fresh paddings over an equal but distinct universe are found
    twin = AgentUniverse.of("a", "b")
    assert twin is not ab
    sf = StandardFormula(ab, (),
                         ((twin.coalition("a"), Atom("p")), (twin.empty, Top())),
                         ((twin.grand, Neg(Top())),))
    assert sf.pi[0][1] is not bot()
    # a matching goal or a matching coalition alone is not the padding
    with pytest.raises(ValueError):
        StandardFormula(ab, (), (), ((ab.coalition("a"), bot()),))
    with pytest.raises(ValueError):
        StandardFormula(ab, (), ((ab.empty, Atom("p")),), ((ab.grand, bot()),))


# -- ni0 -----------------------------------------------------------------------------

def test_ni0_of_worked_example(ab):
    text = ("false | ((<{a}>p & <{b}>q & <{}>true) -> "
            "(<{a,b}>(p & q) | <{a}>(~p | q) | <{a,b}>false))")
    (sf,) = clauses_of(text, ab)
    # only the padding <{}>true has the empty coalition
    assert ni0(sf) == TOP


def test_ni0_degenerate(ab):
    (sf,) = clauses_of("<{a}>p", ab)
    assert ni0(sf) == TOP
    sf2 = StandardFormula(
        ab, (), ((ab.empty, Atom("p")), (ab.empty, TOP)), ((ab.grand, bot()),))
    assert ni0(sf2) == And(Atom("p"), TOP)


# -- gamma tautology -----------------------------------------------------------------

def test_gamma_is_tautology():
    p, q = Atom("p"), Atom("q")
    assert gamma_is_tautology((p, Neg(p)))
    assert not gamma_is_tautology((p, q))
    assert not gamma_is_tautology(())
    assert gamma_is_tautology((TOP,))
    assert gamma_is_tautology((q, TOP, p))


# -- normal-form equivalence, checked by differential evaluation --------------------------

def _conjunction_formula(clauses):
    out = None
    for sf in clauses:
        f = sf.to_formula()
        out = f if out is None else And(out, f)
    return TOP if out is None else out


def _assert_equivalent(f, clauses, ab, seeds):
    g = _conjunction_formula(clauses)
    rng = random.Random(seeds)
    for k in range(40):
        m = random_model(ab, rng.randint(1, 3), rng.randint(1, 2),
                         rng.choice((0.0, 0.3, 0.6, 1.0)), seed=k)
        assert eval_all(m, f) == eval_all(m, g)


def test_liveness_normal_form_is_equivalent_to_truth(ab):
    f = parse("~<{a,b}>false", ab)
    clauses = to_standard_conjunction(f, ab)
    _assert_equivalent(f, clauses, ab, seeds=1)
    rng = random.Random(7)
    for k in range(20):
        m = random_model(ab, 3, 2, rng.random(), seed=k)
        assert all(eval_all(m, _conjunction_formula(clauses)).values())


def test_random_formulas_round_trip_through_the_normal_form(ab):
    rng = random.Random(100)
    for k in range(60):
        f = random_formula(rng, ab, ("p", "q"), rng.randint(1, 2))
        clauses = to_standard_conjunction(f, ab)
        assert max(sf.depth for sf in clauses) == modal_depth(f)
        _assert_equivalent(f, clauses, ab, seeds=k)


def test_absorption_never_loses_the_deepest_clause(ab):
    a, b = ab.coalition("a"), ab.coalition("b")
    deep = Can(a, Can(b, Atom("q")))
    f = And(Can(a, Atom("p")), lor(Can(a, Atom("p")), deep))
    clauses = to_standard_conjunction(f, ab)
    assert modal_depth(f) == 2
    assert max(sf.depth for sf in clauses) == 2
    _assert_equivalent(f, clauses, ab, seeds=5)


def test_tautological_clause_is_kept_not_dropped(ab):
    f = lor(Can(ab.coalition("a"), Atom("p")),
            Neg(Can(ab.coalition("a"), Atom("p"))))
    clauses = to_standard_conjunction(f, ab)
    assert max(sf.depth for sf in clauses) == 1
    _assert_equivalent(f, clauses, ab, seeds=9)


def test_padding_is_justified_semantically(ab):
    # ~<AG>false is true everywhere, and any ability implies <{}>true
    rng = random.Random(13)
    not_grand_false = Neg(Can(ab.grand, bot()))
    for k in range(40):
        m = random_model(ab, rng.randint(1, 3), rng.randint(1, 2),
                         rng.choice((0.0, 0.4, 0.8)), seed=k)
        assert all(eval_all(m, not_grand_false).values())
        coalition = rng.choice(list(ab.coalitions()))
        f = random_formula(rng, ab, ("p", "q"), rng.randint(0, 1))
        able = eval_all(m, Can(coalition, f))
        idle = eval_all(m, Can(ab.empty, TOP))
        for s in m.states:
            assert not able[s] or idle[s]


def test_render_parses_back_to_the_same_core(ab):
    rng = random.Random(17)
    for k in range(30):
        f = random_formula(rng, ab, ("p", "q"), rng.randint(1, 2))
        for sf in to_standard_conjunction(f, ab):
            assert parse(sf.render(), ab) == sf.to_formula()


# -- clause pruning ------------------------------------------------------------------

def _reference_prune(clauses, target_depth):
    """The all-pairs pruning that ``_prune`` replaced, kept as its reference."""
    unique, keys = [], []
    for clause in clauses:
        key = frozenset(clause)
        if key not in keys:
            keys.append(key)
            unique.append(clause)
    kept = [True] * len(unique)
    for i, ki in enumerate(keys):
        if not kept[i]:
            continue
        for j, kj in enumerate(keys):
            if i != j and kept[j] and ki < kj:
                kept[j] = False
    survivors = [c for c, k in zip(unique, kept) if k]
    if max((_clause_depth(c) for c in survivors), default=0) < target_depth:
        for c, k in zip(unique, kept):
            if not k and _clause_depth(c) == target_depth:
                survivors.append(c)
                break
    return survivors


def _clause_lists(ab, seed):
    """Clause lists with duplicates in other orders, subset chains, clauses
    of equal size, and deep clauses absorbed by shallow ones."""
    rng = random.Random(seed)
    a, b = ab.coalition("a"), ab.coalition("b")
    leaves = [TOP, Atom("p"), Atom("q"), Atom("r"), Can(a, Atom("p")),
              Can(b, Atom("q")), Can(a, Can(b, Atom("p"))), Can(ab.grand, bot())]
    pool = [(pol, leaf) for leaf in leaves for pol in (True, False)]
    clauses = []
    for _ in range(rng.randint(1, 30)):
        roll = rng.random()
        if clauses and roll < 0.25:  # duplicate, literals reordered
            clause = list(rng.choice(clauses))
            rng.shuffle(clause)
        elif clauses and roll < 0.55:  # superset of an earlier clause
            base = rng.choice(clauses)
            extra = [lit for lit in rng.sample(pool, rng.randint(1, 3)) if lit not in base]
            clause = list(base) + extra
            rng.shuffle(clause)
        else:
            clause = rng.sample(pool, rng.randint(1, 4))
        clauses.append(clause)
    return clauses


def test_prune_matches_the_all_pairs_reference(ab):
    fallbacks = 0
    for seed in range(400):
        clauses = _clause_lists(ab, seed)
        deepest = max(_clause_depth(c) for c in clauses)
        for target in range(deepest + 1):
            expected = _reference_prune(clauses, target)
            assert _prune(clauses, target) == expected, (seed, target)
            survivors = _reference_prune(clauses, 0)
            fallbacks += max(_clause_depth(c) for c in survivors) < target
    assert fallbacks > 20  # the depth fallback was exercised


def test_prune_keeps_first_seen_order_and_the_deepest_dropped_clause(ab):
    p, q = (True, Atom("p")), (True, Atom("q"))
    deep = (True, Can(ab.coalition("a"), Atom("p")))
    clauses = [[q, p], [p], [p, q], [q], [deep, p], [p, deep], [q, p, deep]]
    assert _prune(clauses, 0) == [[p], [q]]
    assert _prune(clauses, 1) == [[p], [q], [deep, p]]
