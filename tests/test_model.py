import itertools
import json
import os
import pickle
import random
import re
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from mcl import (EMPTY_ACTION, AgentUniverse, GameModel, JointAction,
                 ModelError, classify, dumps, load_fixture, loads, oplus,
                 random_cgm, random_model, rename_disjoint)
import mcl.model
from mcl.model import from_json_dict, to_json_dict


def ja(**kwargs):
    return JointAction.of(kwargs)


# -- joint actions -------------------------------------------------------------

def test_joint_action_basics():
    act = ja(a="w", b="n")
    assert act.domain == {"a", "b"}
    assert act.get("a") == "w"
    assert act.restrict(frozenset({"a"})) == ja(a="w")
    assert act.restrict(frozenset()) == EMPTY_ACTION
    assert act.extends(ja(a="w"))
    assert not act.extends(ja(a="n"))
    assert ja(a="w").union(ja(b="n")) == act
    with pytest.raises(ValueError):
        ja(a="w").union(ja(a="n"))


def test_joint_action_order_insensitive():
    assert JointAction.of({"b": "n", "a": "w"}) == JointAction.of({"a": "w", "b": "n"})


# -- derived availability and outcomes -------------------------------------------

def test_av_projects_the_figure_table(one_mask):
    u = one_mask.universe
    # profiles available at s0: (w,n), (n,w), (n,n); projecting onto a gives both actions
    assert one_mask.av(u.coalition("a"), "s0") == {ja(a="w"), ja(a="n")}
    assert one_mask.av(u.grand, "s1") == frozenset()
    assert one_mask.av(u.empty, "s0") == {EMPTY_ACTION}
    assert one_mask.av(u.empty, "s1") == frozenset()


def test_out_unions_extensions(one_mask):
    u = one_mask.universe
    assert one_mask.out(u.coalition("a"), "s0", ja(a="w")) == {"s1", "s'1"}
    assert one_mask.out(u.empty, "s0", EMPTY_ACTION) == \
        {"s0", "s1", "s'1", "s2", "s'2", "s3"}
    assert one_mask.out(u.grand, "s0", ja(a="w", b="w")) == frozenset()


def test_out_errors(one_mask):
    u = one_mask.universe
    with pytest.raises(ModelError):
        one_mask.out(u.grand, "nowhere", ja(a="w", b="w"))
    with pytest.raises(ModelError):
        one_mask.out(u.coalition("a"), "s0", ja(a="fly"))
    with pytest.raises(ValueError):
        one_mask.out(u.coalition("a"), "s0", ja(b="w"))
    with pytest.raises(ModelError):
        one_mask.av(u.grand, "nowhere")


# -- the choice-function product ---------------------------------------------------

def test_oplus_product():
    u = AgentUniverse.of("a", "b", "c")
    fam = [
        (u.coalition("a"), {ja(a="x"), ja(a="y")}),
        (u.coalition("b"), {ja(b="x"), ja(b="y")}),
        (u.coalition("c"), {ja(c="z")}),
    ]
    combos = oplus(fam)
    assert len(combos) == 4
    assert all(j.domain == {"a", "b", "c"} for j in combos)
    assert ja(a="x", b="y", c="z") in combos


def test_oplus_degenerate_cases():
    u = AgentUniverse.of("a", "b")
    assert oplus([]) == {EMPTY_ACTION}
    assert oplus([(u.coalition("a"), set())]) == set()
    with pytest.raises(ValueError):
        oplus([(u.coalition("a"), {ja(a="x")}),
               (u.coalition("a", "b"), {ja(a="x", b="x")})])


# -- classification -------------------------------------------------------------------

def test_two_masks_is_a_cgm(two_masks):
    c = classify(two_masks)
    assert c.serial and c.independent and c.deterministic
    assert c.is_cgm and c.is_gcgm
    assert c.witnesses == []


def test_one_mask_violates_all_three(one_mask):
    c = classify(one_mask)
    assert not c.is_cgm and c.is_gcgm
    assert c.serial_witness == "s1"
    assert c.independence_witness == ("s0", ja(a="w", b="w"))
    assert c.determinism_witness == ("s0", ja(a="w", b="n"))


def test_isolated_state_is_vacuously_independent(ab):
    m = GameModel(ab, ("p",), ("x",), ("s0",), {"s0": frozenset()}, {})
    c = classify(m)
    assert not c.serial
    assert c.independent and c.deterministic


# -- renaming ---------------------------------------------------------------------------

def test_rename_disjoint_prefixes(one_mask):
    copies = rename_disjoint([one_mask, one_mask])
    assert "g0.s0" in copies[0].states and "g1.s0" in copies[1].states
    assert set(copies[0].states).isdisjoint(copies[1].states)
    assert copies[0].actions == copies[1].actions == one_mask.actions
    # isomorphic: same classification and labels carried over
    assert classify(copies[0]).serial_witness == "g0.s1"
    assert copies[0].label["g0.s'1"] == one_mask.label["s'1"]
    assert rename_disjoint([]) == []


def test_rename_single(one_mask):
    (copy,) = rename_disjoint([one_mask])
    assert copy.states == tuple("g0." + s for s in one_mask.states)


# -- random generation ---------------------------------------------------------------------

def test_random_model_density_extremes(ab):
    dead = random_model(ab, 3, 2, 0.0, seed=1)
    assert dead.out_ag == {}
    full = random_model(ab, 3, 2, 1.0, seed=1)
    for s in full.states:
        for profile in full.profiles():
            assert full.outcome(s, profile) == frozenset(full.states)


def test_random_model_is_seed_deterministic(ab):
    twice = [dumps(random_model(ab, 4, 2, 0.4, seed=99)) for _ in range(2)]
    assert twice[0] == twice[1]
    other = dumps(random_model(ab, 4, 2, 0.4, seed=100))
    assert other != twice[0]


def test_random_model_rejects_bad_sizes(ab):
    with pytest.raises(ValueError):
        random_model(ab, 0, 1, 0.5, seed=0)
    with pytest.raises(ValueError):
        random_model(ab, 1, 0, 0.5, seed=0)
    with pytest.raises(ValueError):
        random_model(ab, 1, 1, 1.5, seed=0)


def test_random_cgm_is_a_cgm(ab):
    for seed in range(30):
        m = random_cgm(ab, 3, 2, seed=seed)
        assert classify(m).is_cgm, f"seed {seed}"


# -- serialization ------------------------------------------------------------------------

def test_round_trip(one_mask):
    again = loads(dumps(one_mask))
    assert again == one_mask
    assert dumps(again) == dumps(one_mask)


def test_fixture_files_match_spec_shape(one_mask):
    doc = to_json_dict(one_mask)
    assert doc["agents"] == ["a", "b"]
    assert doc["actions"] == ["w", "n"]
    assert [s["name"] for s in doc["states"]] == \
        ["s0", "s1", "s'1", "s2", "s'2", "s3"]
    assert {"from": "s0", "profile": {"a": "w", "b": "n"}, "to": ["s1", "s'1"]} \
        in doc["transitions"]


def test_load_rejects_malformed_documents(ab):
    good = to_json_dict(random_model(ab, 2, 1, 0.5, seed=0))
    bad = dict(good, transitions=[{"from": "s9", "profile": {"a": "x0", "b": "x0"},
                                   "to": ["s0"]}])
    with pytest.raises(ModelError):
        from_json_dict(bad)
    bad = dict(good, states=[{"name": "s0", "label": ["mystery"]},
                             {"name": "s1", "label": []}])
    with pytest.raises(ModelError):
        from_json_dict(bad)
    with pytest.raises(ModelError):
        loads("not json at all {")
    with pytest.raises(ModelError):
        from_json_dict({"agents": ["a"]})


@pytest.mark.parametrize("path, edit", [
    ("agents", lambda d: d.update(agents="ab")),
    ("atoms", lambda d: d.update(atoms="pq")),
    ("actions", lambda d: d.update(actions="x0")),
    ("states[1].name", lambda d: d["states"][1].update(name=1)),
    ("states[0].label", lambda d: d["states"][0].update(label="p")),
    ("transitions[0].from", lambda d: d["transitions"][0].update(**{"from": ["s0"]})),
    ("transitions[1].profile",
     lambda d: d["transitions"][1].update(profile=[["a", "x0"], ["b", "x0"]])),
    ("transitions[1].profile",
     lambda d: d["transitions"][1].update(profile={"a": 0, "b": "x0"})),
    ("transitions[2].to", lambda d: d["transitions"][2].update(to="s0")),
])
def test_load_requires_json_types(ab, path, edit):
    doc = to_json_dict(random_model(ab, 3, 1, 1.0, seed=0))
    edit(doc)
    with pytest.raises(ModelError, match=re.escape(path) + " must be"):
        from_json_dict(doc)


def _json_paths(value, path=()):
    """The key path of every value nested in ``value``, parents first."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _json_path_text(path) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def test_document_errors_name_their_json_path(monkeypatch):
    # every single-field mutant of a fixture (deleted, or set to a value of
    # each JSON type) that is rejected before a model is built names the
    # mutated path, a path inside it, or an ancestor; one that only the
    # model's own checks reject (an undeclared action, an unknown outcome
    # state, ...) names the field at fault, which need not be the mutated one
    text = (resources.files("mcl") / "fixtures" / "two_masks.json").read_text()
    built = []
    real = mcl.model.GameModel
    monkeypatch.setattr(mcl.model, "GameModel",
                        lambda *args: built.append(1) or real(*args))
    checked = model_checked = 0
    for path in _json_paths(json.loads(text)):
        for mutant in ("delete", None, 7, "x", [], {}):
            doc = json.loads(text)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if mutant == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = mutant
            built.clear()
            try:
                from_json_dict(doc)
            except ModelError as exc:
                message = str(exc)
                if built:  # the model's own checks
                    at_fault = re.match(r"(\w+)(?:\[(\d+)\]\.(\w+))?: ", message)
                    assert at_fault, (_json_path_text(path), mutant, message)
                    entries = doc[at_fault[1]]
                    assert at_fault[2] is None or at_fault[3] in entries[int(at_fault[2])]
                    model_checked += 1
                    continue
                checked += 1
                named = [_json_path_text(path[:n]) for n in range(1, len(path) + 1)]
                assert any(message.startswith(p) and
                           message[len(p):][:1] in (" :.[" if p == named[-1] else " :")
                           for p in named), (named[-1], mutant, message)
    assert checked > 400 and model_checked >= 90


def test_document_shape_errors(ab):
    with pytest.raises(ModelError, match="^model document must be an object$"):
        loads("[]")
    with pytest.raises(ModelError, match="nests too deeply"):
        loads("[" * 100_000 + "]" * 100_000)
    doc = to_json_dict(random_model(ab, 2, 1, 0.5, seed=0))
    with pytest.raises(ModelError, match="^agents: agent universe must be nonempty$"):
        from_json_dict(dict(doc, agents=[]))
    with pytest.raises(ModelError, match=re.escape("transitions must be a list")):
        from_json_dict(dict(doc, transitions={}))
    del doc["states"][1]["name"]
    with pytest.raises(ModelError, match=re.escape("states[1].name is required")):
        from_json_dict(doc)


@pytest.mark.parametrize("key, k, name", [
    ("agents", 1, "b-c"), ("agents", 0, "true"), ("atoms", 2, "p q"), ("atoms", 0, "1b"),
])
def test_documents_declare_only_names_formulas_can_write(key, k, name):
    doc = to_json_dict(load_fixture("two_masks"))
    doc[key][k] = name
    with pytest.raises(ModelError) as exc:
        from_json_dict(doc)
    assert str(exc.value) == (f"{key}[{k}]: not a name formulas can write (an "
                              f"identifier other than true, false, box, dia): {name!r}")


def test_duplicate_transition_rows_rejected(ab):
    doc = to_json_dict(random_model(ab, 1, 1, 1.0, seed=0))
    doc["transitions"] = doc["transitions"] * 2
    with pytest.raises(ModelError, match="duplicate"):
        from_json_dict(doc)


def test_unknown_fixture():
    with pytest.raises(ModelError):
        load_fixture("three_masks")


@pytest.mark.parametrize("name", ["/tmp/two_masks", "sub/one_mask",
                                  "..\\fixtures\\one_mask", "../fixtures/one_mask"])
def test_fixture_names_are_not_paths(name):
    with pytest.raises(ModelError, match="is a path"):
        load_fixture(name)


@settings(max_examples=200, deadline=None)
@given(agents=st.sampled_from([("a",), ("a", "b"), ("b", "a", "c")]),
       seed=st.integers(0, 2 ** 32 - 1), cgm=st.booleans(),
       n_states=st.integers(1, 3), n_actions=st.integers(1, 2),
       density=st.sampled_from((0.0, 0.3, 0.7, 1.0)))
def test_json_round_trip_ignores_row_order(agents, seed, cgm, n_states,
                                           n_actions, density):
    u = AgentUniverse(agents)
    m = (random_cgm(u, n_states, n_actions, seed) if cgm
         else random_model(u, n_states, n_actions, density, seed))
    text = dumps(m)
    assert loads(text) == m and dumps(loads(text)) == text
    rng = random.Random(seed)
    rows = list(m.out_ag.items())
    rng.shuffle(rows)
    shuffled = GameModel(u, m.atoms, m.actions, m.states, m.label, dict(rows))
    assert shuffled == m and dumps(shuffled) == text
    doc = json.loads(text)
    rng.shuffle(doc["transitions"])
    assert loads(json.dumps(doc)) == m


# -- canonical row order against a walk over every profile -------------------------------------

def _reference_models():
    for agents in (("a",), ("a", "b"), ("b", "a", "c")):
        u = AgentUniverse(agents)
        for seed in range(12):
            yield random_model(u, 1 + seed % 3, 1 + seed % 2,
                               (0.0, 0.3, 0.6, 1.0)[seed % 4], seed=seed)
            yield random_cgm(u, 1 + seed % 3, 1 + seed % 2, seed=seed)


def _walked_transitions(m):
    return [{"from": s, "profile": p.mapping,
             "to": [t for t in m.states if t in m.outcome(s, p)]}
            for s in m.states for p in m.profiles() if m.outcome(s, p)]


def _walked_witnesses(m):
    serial = next((s for s in m.states
                   if not any(m.outcome(s, p) for p in m.profiles())), None)
    independence = None
    for s in m.states:
        avail = [p for p in m.profiles() if m.outcome(s, p)]
        played = {(a, p.get(a)) for p in avail for a in m.universe.agents}
        independence = next(((s, p) for p in m.profiles()
                             if not m.outcome(s, p)
                             and all(item in played for item in p.items)), None)
        if independence:
            break
    determinism = next(((s, p) for s in m.states for p in m.profiles()
                        if len(m.outcome(s, p)) > 1), None)
    return serial, independence, determinism


def test_canonical_rows_match_a_profile_walk():
    rng = random.Random("canonical-rows")
    for m in _reference_models():
        # grafted and hand-built models store their rows out of order
        rows = list(m.out_ag.items())
        rng.shuffle(rows)
        shuffled = GameModel(m.universe, m.atoms, m.actions, m.states, m.label,
                             dict(rows))
        for model in (m, shuffled):
            assert to_json_dict(model)["transitions"] == _walked_transitions(m)
            c = classify(model)
            assert (c.serial_witness, c.independence_witness,
                    c.determinism_witness) == _walked_witnesses(m)


def test_dumps_and_classify_do_not_walk_profiles(monkeypatch, one_mask):
    models = [one_mask, *_reference_models()]
    expected = [(dumps(m), classify(m)) for m in models]

    def walk(*args):
        raise AssertionError("profile space walked")

    monkeypatch.setattr(GameModel, "profiles", walk)
    for m, (text, summary) in zip(models, expected):
        fresh = loads(text)
        assert dumps(fresh) == text
        assert classify(fresh) == summary


def test_loads_shares_repeated_names_profiles_and_outcome_sets(one_mask):
    for m in [one_mask, *_reference_models()]:
        fresh = loads(dumps(m))
        assert fresh == m
        names = {id(s) for s in fresh.states}
        profiles = [p for _, p in fresh.out_ag]
        outcomes = list(fresh.out_ag.values())
        assert all(id(s) in names for s, _ in fresh.out_ag)
        assert all(id(t) in names for ts in outcomes for t in ts)
        assert len({id(p) for p in profiles}) == len(set(profiles))
        assert len({id(ts) for ts in outcomes}) == len(set(outcomes))


# -- derivation identities on sampled models -------------------------------------------------

def _all_joint_actions(model, coalition):
    members = coalition.sorted_members()
    return [JointAction.of(dict(zip(members, combo)))
            for combo in itertools.product(model.actions, repeat=len(members))]


def _sample(ab, n):
    rng = random.Random(2024)
    for k in range(n):
        yield random_model(ab, rng.randint(1, 4), rng.randint(1, 2),
                           rng.choice((0.0, 0.2, 0.5, 0.8, 1.0)), seed=k)


def test_availability_matches_nonempty_outcomes(ab):
    # av(A, s) is exactly the set of joint actions with a nonempty outcome
    for m in _sample(ab, 60):
        for coalition in ab.coalitions():
            for s in m.states:
                avail = m.av(coalition, s)
                via_out = {act for act in _all_joint_actions(m, coalition)
                           if m.out(coalition, s, act)}
                assert avail == via_out


def test_projection_and_conditional_extension(ab):
    # projections of available joint actions stay available, and every
    # available joint action extends to a disjoint partner's choice
    for m in _sample(ab, 60):
        for ca, cb in itertools.product(ab.coalitions(), repeat=2):
            if not ca.isdisjoint(cb):
                continue
            union = ca.union(cb)
            for s in m.states:
                for act in m.av(union, s):
                    assert act.restrict(ca) in m.av(ca, s)
                for act in m.av(ca, s):
                    assert any(act.union(partner) in m.av(union, s)
                               for partner in m.av(cb, s))


def test_cgm_availability_is_rectangular(ab):
    # on CGMs, av(A, s) is the choice-function product of the members'
    # individually available actions, and disjoint merges stay available
    for seed in range(40):
        m = random_cgm(ab, 3, 2, seed=seed)
        assert classify(m).is_cgm
        for coalition in ab.coalitions():
            for s in m.states:
                fam = [(ab.coalition(agent), m.av(ab.coalition(agent), s))
                       for agent in coalition.sorted_members()]
                assert m.av(coalition, s) == frozenset(oplus(fam))
                assert m.av(coalition, s), "CGM availability must be nonempty"
        for ca, cb in itertools.product(ab.coalitions(), repeat=2):
            if not ca.isdisjoint(cb):
                continue
            for s in m.states:
                for left in m.av(ca, s):
                    for right in m.av(cb, s):
                        assert left.union(right) in m.av(ca.union(cb), s)


def test_unpickled_profiles_hash_in_another_process(ab, tmp_path):
    # str hashes differ between processes, so a profile's stored hash is
    # computed again on unpickling; the model's rows stay reachable
    model = random_model(ab, 3, 2, 0.5, seed=4)
    assert pickle.loads(pickle.dumps(ja(a="x0", b="x1"))) == ja(a="x0", b="x1")
    path = tmp_path / "model.pickle"
    src = os.path.dirname(os.path.dirname(mcl.model.__file__))
    script = ("import pickle, sys\n"
              "from mcl import JointAction, random_model, AgentUniverse\n"
              "if sys.argv[1] == 'dump':\n"
              "    model = random_model(AgentUniverse.of('a', 'b'), 3, 2, 0.5, seed=4)\n"
              "    with open(sys.argv[2], 'wb') as fh:\n"
              "        pickle.dump(model, fh)\n"
              "else:\n"
              "    with open(sys.argv[2], 'rb') as fh:\n"
              "        model = pickle.load(fh)\n"
              "    print([sorted(model.outcome(s, JointAction.of({'a': x, 'b': y})))\n"
              "           for s in model.states for x in ('x0', 'x1') for y in ('x0', 'x1')])\n")
    for seed, mode in (("1", "dump"), ("2", "load")):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script, mode, str(path)], env=env,
                              capture_output=True, text=True, check=True)
    expected = [sorted(model.outcome(s, ja(a=x, b=y)))
                for s in model.states for x in ("x0", "x1") for y in ("x0", "x1")]
    assert any(expected)
    assert done.stdout == f"{expected}\n"
