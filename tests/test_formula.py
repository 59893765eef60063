import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import mcl
from mcl import (TOP, AgentUniverse, And, Atom, Can, Neg, ParseError, Top,
                 atoms_of, bot, box, canonical_key, coalitions_of, dia, dual,
                 implies, lor, modal_depth, parse, pretty, subformulas)
from mcl.formula import agents_mentioned, atoms_in, walk
from mcl.oracle import random_formula


def test_parse_constants(ab):
    assert parse("true", ab) == TOP
    assert parse("false", ab) == Neg(TOP)
    assert parse("p", ab) == Atom("p")


def test_implication_is_lowered(ab):
    f = parse("<{a}>p -> <{a,b}>p", ab)
    lhs = Can(ab.coalition("a"), Atom("p"))
    rhs = Can(ab.grand, Atom("p"))
    assert f == Neg(And(lhs, Neg(rhs)))


def test_box_lowering(ab):
    # box phi is <{}>true -> <{}>phi
    f = parse("box p", ab)
    assert f == implies(Can(ab.empty, TOP), Can(ab.empty, Atom("p")))


def test_dia_lowering(ab):
    f = parse("dia p", ab)
    assert f == And(Can(ab.empty, TOP), dual(ab.empty, Atom("p")))


def test_dual_brackets(ab):
    assert parse("[{a}]p", ab) == Neg(Can(ab.coalition("a"), Neg(Atom("p"))))


def test_precedence(ab):
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse("~p & q", ab) == And(Neg(p), q)
    assert parse("p & q | r", ab) == lor(And(p, q), r)
    assert parse("p -> q -> r", ab) == implies(p, implies(q, r))
    assert parse("p | q & r", ab) == lor(p, And(q, r))
    assert parse("<{a}>p & q", ab) == And(Can(ab.coalition("a"), p), q)
    assert parse("(p <-> q)", ab) == And(implies(p, q), implies(q, p))


@pytest.mark.parametrize("text, message, position", [
    ("", "empty input", 0),
    ("   ", "empty input", 0),
    ("$", "unexpected character '$'", 0),
    ("p $ q", "unexpected character '$'", 2),
    ("-p", "unexpected character '-'", 0),
    ("1p", "unexpected character '1'", 0),
    ("\u00e9", "unexpected character '\u00e9'", 0),
    ("\ufeffp", "unexpected character '\\ufeff'", 0),
    ("(p", "expected ')'", 2),
    ("<{a b}>p", "expected '}'", 4),
    ("<{a}p", "expected '>'", 4),
    ("[{a}p", "expected ']'", 4),
    ("<a>p", "expected '{'", 1),
    ("<{a,}>p", "expected 'ident'", 4),
    ("p & ", "expected a formula", 4),
    (")", "expected a formula", 0),
    ("p q", "unexpected token 'q'", 2),
    ("<{c}>p", "unknown agent 'c'", 2),
    # the edges of a one-token modality and of a run of "~"
    ("<{a}]p", "expected '>'", 4),
    ("[{a}>p", "expected ']'", 4),
    ("<{a,,b}>p", "expected 'ident'", 4),
    ("<{a}", "expected '>'", 4),
    ("p & ~ ~", "expected a formula", 7),
    ("<{a}><{c}>p", "unknown agent 'c'", 7),
    ("<{true}>p", "expected '}'", 2),
    ("p <{a}>q", "unexpected token '<'", 2),
    ("(p ~~q)", "expected ')'", 3),
    ("<{a} $", "unexpected character '$'", 5),
])
def test_parse_errors(ab, text, message, position):
    with pytest.raises(ParseError) as exc:
        parse(text, ab)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


@pytest.mark.parametrize("space", ["\t", "\n", "\xa0", "\u2003", "\u3000", "\x1c"])
def test_unicode_whitespace_separates_tokens(ab, space):
    assert parse(space + "p" + space + "&" + space + "q" + space, ab) == And(Atom("p"), Atom("q"))
    modality = space.join(["", "[", "{", "a", ",", "b", "}", "]", "~", "~", "p"])
    assert parse(modality, ab) == dual(ab.grand, Neg(Neg(Atom("p"))))


@pytest.mark.parametrize("prefix, suffix, wrap, depth", [
    ("~", "", lambda ab, f: Neg(f), 0),
    ("<{a}>", "", lambda ab, f: Can(ab.coalition("a"), f), 1),
    ("[{a}]", "", lambda ab, f: dual(ab.coalition("a"), f), 1),
    ("box ", "", box, 1),
    ("dia ", "", dia, 1),
    ("(", ")", lambda ab, f: f, 0),
    ("(~(<{a}>(", ")))", lambda ab, f: Neg(Can(ab.coalition("a"), f)), 1),
], ids=["neg", "can", "dual", "box", "dia", "parens", "mixed"])
def test_deep_prefix_chains_parse_without_recursion(ab, prefix, suffix, wrap, depth):
    n = 10_000
    expected = Atom("p")
    for _ in range(n):
        expected = wrap(ab, expected)
    f = parse(prefix * n + "p" + suffix * n, ab)
    assert f == expected
    assert modal_depth(f) == depth * n


def test_pretty_examples(ab):
    assert pretty(Can(ab.empty, TOP)) == "<{}>true"
    assert pretty(Neg(Atom("p"))) == "~p"
    assert pretty(And(Atom("p"), Atom("q"))) == "p & q"
    assert pretty(Can(ab.grand, And(Atom("p"), Atom("q")))) == "<{a,b}>(p & q)"


def test_pretty_keeps_association(ab):
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert pretty(And(And(p, q), r)) == "p & q & r"
    assert pretty(And(p, And(q, r))) == "p & (q & r)"
    assert pretty(Neg(And(p, q))) == "~(p & q)"


def test_pretty_prints_deep_chains_without_recursion(ab):
    n = 100_000
    a = ab.coalition("a")
    for prefix, wrap in (("~", Neg), ("<{a}>", lambda f: Can(a, f))):
        f = Atom("p")
        for _ in range(n):
            f = wrap(f)
        assert pretty(f) == prefix * n + "p"
    # p0 & (p1 & (... & (p9999 & p10000)...)): every right operand is an &
    # in operand position, so it is parenthesized
    n = 10_000
    f = Atom(f"p{n}")
    for k in reversed(range(n)):
        f = And(Atom(f"p{k}"), f)
    expected = "p0 & " + "".join(f"(p{k} & " for k in range(1, n)) \
        + f"p{n}" + ")" * (n - 1)
    assert pretty(f) == expected


def test_modal_depth_examples(ab):
    a = ab.coalition("a")
    b = ab.coalition("b")
    assert modal_depth(parse("p & ~q", ab)) == 0
    assert modal_depth(Can(a, Atom("p"))) == 1
    assert modal_depth(And(Can(a, Can(b, Atom("p"))), Can(ab.empty, TOP))) == 2


def test_modal_depth_of_sugar(ab):
    f = Can(ab.coalition("a"), Atom("p"))
    assert modal_depth(box(ab, f)) == modal_depth(f) + 1
    assert modal_depth(dia(ab, f)) == modal_depth(f) + 1
    assert modal_depth(dual(ab.grand, f)) == modal_depth(f) + 1
    assert modal_depth(bot()) == 0


def test_universe_and_coalitions():
    with pytest.raises(ValueError):
        AgentUniverse.of()
    with pytest.raises(ValueError):
        AgentUniverse.of("a", "a")
    u = AgentUniverse.of("b", "a", "c")
    assert u.coalition("c", "a").sorted_members() == ("a", "c")
    assert u.coalition("a").complement.sorted_members() == ("b", "c")
    assert u.coalition("a").union(u.coalition("c")).members == {"a", "c"}
    assert u.grand.difference(u.coalition("b")).members == {"a", "c"}
    assert u.empty.issubset(u.grand)
    assert list(u.coalitions())[0].members == set()
    assert len(list(u.coalitions())) == 8
    with pytest.raises(ValueError):
        u.coalition("z")


def test_coalitions_across_universes_do_not_mix(ab, solo):
    with pytest.raises(ValueError):
        ab.coalition("a").union(solo.coalition("a"))
    with pytest.raises(ValueError):
        solo.coalition("a").issubset(ab.grand)
    twin = AgentUniverse.of("a", "b")  # equal to ab, but another object
    assert ab.coalition("a").issubset(twin.grand)
    assert ab.coalition("a").union(twin.coalition("b")) == ab.grand


def test_grand_and_empty_coalitions_are_built_once(ab):
    assert ab.grand is ab.grand and ab.empty is ab.empty
    assert ab.grand.members == {"a", "b"} and not ab.empty.members


def test_canonical_key_sorts_conjunction(ab):
    p, q = Atom("p"), Atom("q")
    assert canonical_key(And(p, q)) == canonical_key(And(q, p))
    assert canonical_key(p) != canonical_key(q)


# -- parse/print round trip ---------------------------------------------------

_U = AgentUniverse.of("a", "b", "c")


def _coalitions():
    return st.sampled_from([c for c in _U.coalitions()])


def _formulas():
    leaves = st.sampled_from([TOP, Atom("p"), Atom("q"), Atom("r_1")])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(_coalitions(), sub).map(lambda t: Can(*t)),
        ),
        max_leaves=25,
    )


@given(_formulas())
def test_parse_print_round_trip(f):
    assert parse(pretty(f), _U) == f


# -- stored hashes ---------------------------------------------------------------

def _rebuild(f):
    """An independent copy of ``f``, built node by node."""
    if isinstance(f, Neg):
        return Neg(_rebuild(f.child))
    if isinstance(f, And):
        return And(_rebuild(f.left), _rebuild(f.right))
    if isinstance(f, Can):
        return Can(_U.coalition(*f.coalition.members), _rebuild(f.child))
    if isinstance(f, Atom):
        return Atom(f.name)
    return Top()


@given(_formulas())
def test_equal_formulas_hash_equal(f):
    assert hash(parse(pretty(f), _U)) == hash(f)
    copy = _rebuild(f)
    assert copy == f and hash(copy) == hash(f)
    assert {copy: 1}[f] == 1


def test_deep_negation_chain_hashes_without_recursion():
    f = Atom("p")
    for _ in range(10_000):
        f = Neg(f)
    assert hash(f) == hash(f)
    assert f in {f}
    assert Neg(f) not in {f}


def _neg_chain(bottom, depth=10_000):
    f = Atom(bottom)
    for _ in range(depth):
        f = Neg(f)
    return f


def test_deep_equal_chains_compare_without_recursion():
    a, b = _neg_chain("p"), _neg_chain("p")
    assert a is not b
    assert a == b and not a != b
    assert {a: "found"}[b] == "found"
    assert b in {a}
    other = _neg_chain("q")
    assert a != other and other != a
    assert other not in {a: 1}


def test_can_nodes_over_different_coalitions_differ(ab):
    child = And(Atom("p"), Neg(Atom("q")))
    cans = [Can(c, child) for c in ab.coalitions()]
    for i, x in enumerate(cans):
        for j, y in enumerate(cans):
            assert (x == y) == (i == j)
    assert Can(ab.coalition("a"), child) == Can(ab.coalition("a"), And(Atom("p"), Neg(Atom("q"))))
    assert Atom("p") != "p" and TOP != None  # noqa: E711


def test_copies_drop_the_cached_measures(ab):
    f = parse("<{a}>(p & ~<{a,b}>q) | [{b}]r", ab)
    measures = walk(f)
    assert "_walk" in vars(f)
    for copy_of in (lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy):
        g = copy_of(f)
        assert g is not f and g == f and hash(g) == hash(f)
        assert "_walk" not in vars(g)
        assert walk(g) == measures


@pytest.mark.parametrize("measure", [modal_depth, atoms_of, coalitions_of, subformulas])
@pytest.mark.parametrize("value", ["p", None, type("Node", (), {})()])
def test_measures_of_a_non_formula_raise_type_error(measure, value):
    with pytest.raises(TypeError):
        measure(value)


def _reference_walk(f):
    """walk's measures, by plain recursion over the formula."""
    slot, slots = {}, []

    def visit(g):
        if g not in slot:
            if isinstance(g, And):
                kids = (visit(g.left), visit(g.right))
            elif isinstance(g, (Neg, Can)):
                kids = (visit(g.child),) * 2
            else:
                kids = (-1, -1)
            slot[g] = len(slots)
            slots.append(kids)
        return slot[g]

    visit(f)
    return (tuple(slot), tuple(slots), frozenset(g.name for g in slot if isinstance(g, Atom)),
            frozenset(g.coalition for g in slot if isinstance(g, Can)))


def _ladders(n):
    """The benchmark's four ladder families at size n (README, Benchmark)."""
    cnf = " | ".join(f"(<{{a}}>p{i} & <{{b}}>q{i})" for i in range(n // 30))
    weak = " | ".join(f"(<{{a,b}}>p{i} & <{{b}}>q{i})" for i in range(n // 30))
    return ["<{a}>" * n + "p", "~" * (2 * n) + "(p | ~p)", cnf, f"({cnf}) -> ({weak})"]


def test_walk_matches_a_recursive_reference():
    rng = random.Random(14)
    for agents in ("a", "ab", "abc"):
        u = AgentUniverse(tuple(agents))
        formulas = [random_formula(rng, u, ("p", "q", "r"), rng.randint(0, 3),
                                   rng.randint(2, 12)) for _ in range(1000)]
        if agents == "ab":
            formulas += [parse(text, u) for n in (60, 300) for text in _ladders(n)]
        for f in formulas:
            expected = _reference_walk(f)
            assert tuple(walk(f)) == expected
            assert atoms_in(f) == expected[2]


def test_walk_keeps_equal_subformulas_with_a_clashing_hash_apart(ab, monkeypatch):
    # every node hashes alike, so each lookup finds a hash hit to compare
    p, q, p2 = Atom("p"), Atom("q"), Atom("p")
    nodes = [p, q, p2, And(p, q), And(q, p), And(p2, q)]
    nodes += [Neg(g) for g in nodes[3:]]
    nodes.append(And(nodes[7], nodes[8]))
    nodes.append(And(nodes[6], nodes[-1]))
    expected = _reference_walk(nodes[-1])
    for g in nodes:
        g.__dict__["_hash"] = 7
    assert tuple(walk(nodes[-1])) == expected
    assert len(expected[0]) == 8


def test_agents_mentioned_lists_names_in_braces_in_first_mention_order():
    assert agents_mentioned("<{c, a}>p & [{b,a}]q | <{}>x & c") == ("c", "a", "b")
    assert agents_mentioned("{ b } p <{a b}>") == ("b", "a")  # malformed text too
    assert agents_mentioned("<{true, d}>p") == ("d",)
    assert agents_mentioned("p -> q") == ()
    with pytest.raises(ParseError, match="unexpected character '\\$'"):
        agents_mentioned("<{a}>$")


def test_cached_subformulas_cannot_be_mutated(ab):
    f = parse("(p & q) | <{a}>(p & q)", ab)
    subs = subformulas(f)
    assert isinstance(subs, tuple) and subformulas(f) is subs
    assert subs[-1] is f and len(subs) == len(set(subs))
    with pytest.raises(AttributeError):
        subs.append(TOP)


_PICKLE_SCRIPT = """
import pickle, sys
from mcl import AgentUniverse, Atom, Can, parse
u = AgentUniverse.of("a", "b")
values = (parse("<{a}>(p & ~<{a,b}>q) | [{b}]r", u), u.coalition("a", "b"),
          Can(u.coalition("b"), Atom("p")))
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(values))
else:
    for g, f in zip(pickle.loads(sys.stdin.buffer.read()), values):
        assert g == f and hash(g) == hash(f)
        assert {f: "ok"}[g] == "ok" and {g: "ok"}[f] == "ok"
    print("ok")
"""


def test_pickled_formula_rehashes_under_another_hash_seed():
    # string hashes, and so stored formula hashes, differ between the seeds
    path = os.pathsep.join([os.path.dirname(os.path.dirname(mcl.__file__)),
                            os.environ.get("PYTHONPATH", "")])

    def run(seed, mode, data=None):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _PICKLE_SCRIPT, mode],
                              input=data, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    assert run("2", "load", run("1", "dump")) == b"ok\n"
