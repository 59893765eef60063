"""Seeded inputs for the benchmark, built without any mcl code.

Formulas are nested tuples rendered to the mcl surface grammar; models are
plain JSON documents.  ``ref_eval`` and ``ref_classify`` are small
reference implementations over those documents: they share no code with
``mcl.semantics`` or ``mcl.model`` and serve as the output checks.
"""

from __future__ import annotations

import itertools
import random

# -- formulas ----------------------------------------------------------------
#
# ("top",) ("bot",) ("atom", name) ("not", f) ("and"|"or"|"imp", f, g)
# ("can"|"dual", members, f) where members is a sorted tuple of agent names.

_BINARY_TEXT = {"and": " & ", "or": " | ", "imp": " -> "}


def render(f) -> str:
    """Surface text; binaries are fully parenthesized so precedence never
    matters."""
    kind = f[0]
    if kind == "top":
        return "true"
    if kind == "bot":
        return "false"
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "~" + render(f[1])
    if kind in ("can", "dual"):
        opening, closing = ("<", ">") if kind == "can" else ("[", "]")
        return opening + "{" + ",".join(f[1]) + "}" + closing + render(f[2])
    return "(" + render(f[1]) + _BINARY_TEXT[kind] + render(f[2]) + ")"


def _random_prop(rng: random.Random, atoms, size: int):
    if size <= 1 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.85:
            atom = ("atom", rng.choice(atoms))
            return atom if rng.random() < 0.6 else ("not", atom)
        return ("top",) if roll < 0.93 else ("bot",)
    return (rng.choice(("and", "or", "imp")),
            _random_prop(rng, atoms, size // 2),
            _random_prop(rng, atoms, size // 2))


def random_formula(rng: random.Random, agents, atoms, depth: int, size: int):
    """A random formula of exactly the given modal depth."""
    if depth == 0:
        return _random_prop(rng, atoms, size)
    roll = rng.random()
    if roll < 0.45 or size <= 2:
        kind = "can" if rng.random() < 0.75 else "dual"
        members = tuple(a for a in agents if rng.random() < 0.5)
        return (kind, members, random_formula(rng, agents, atoms, depth - 1, size - 1))
    if roll < 0.6:
        return ("not", random_formula(rng, agents, atoms, depth, size - 1))
    deep = random_formula(rng, agents, atoms, depth, size // 2)
    other = random_formula(rng, agents, atoms, rng.randint(0, depth), size // 2)
    if rng.random() < 0.5:
        deep, other = other, deep
    return (rng.choice(("and", "or", "imp")), deep, other)


def modalities(f) -> int:
    kind = f[0]
    if kind in ("can", "dual"):
        return 1 + modalities(f[2])
    if kind == "not":
        return modalities(f[1])
    if kind in ("and", "or", "imp"):
        return modalities(f[1]) + modalities(f[2])
    return 0


def substitute(f, agent_map: dict, atom_map: dict, flipped: frozenset, agents):
    """Rename agents and atoms and replace each flipped atom by its
    negation.  Such substitutions preserve validity and satisfiability, and
    the countermodels they lead to are isomorphic."""
    kind = f[0]
    if kind == "atom":
        atom = ("atom", atom_map[f[1]])
        return ("not", atom) if f[1] in flipped else atom
    if kind in ("can", "dual"):
        members = tuple(a for a in agents if a in {agent_map[m] for m in f[1]})
        return (kind, members, substitute(f[2], agent_map, atom_map, flipped, agents))
    if kind == "not":
        return ("not", substitute(f[1], agent_map, atom_map, flipped, agents))
    if kind in ("and", "or", "imp"):
        return (kind, substitute(f[1], agent_map, atom_map, flipped, agents),
                substitute(f[2], agent_map, atom_map, flipped, agents))
    return f


def base_corpus(tag: str, count: int, agents, atoms, depths, size: int,
                max_modalities: int) -> list:
    """``count`` random formulas, formula k of modal depth
    ``depths[k % len(depths)]`` with at most ``max_modalities`` modal
    operators, drawn from a fixed stream: the same for every seed."""
    rng = random.Random(f"{tag}:base")
    base = []
    while len(base) < count:
        f = random_formula(rng, agents, atoms, depths[len(base) % len(depths)], size)
        if modalities(f) <= max_modalities:
            base.append(f)
    return base


def variant_maps(seed: int, tag: str, agents, atoms) -> tuple:
    """A seeded renaming of agents and of atoms, and a seeded set of atoms
    whose sign is flipped: the arguments of ``substitute`` and
    ``doc_variant`` after the formula or document.

    Corpora are drawn once and only varied by these maps: a formula's cost
    swings by orders of magnitude with its shape, so independently drawn
    corpora would differ in cost far more than any change worth measuring.
    The seed changes every input text, never a verdict, a truth value or a
    countermodel's size.
    """
    rng = random.Random(f"{tag}:{seed}")
    agent_map = dict(zip(agents, rng.sample(agents, len(agents))))
    atom_map = dict(zip(atoms, rng.sample(atoms, len(atoms))))
    flipped = frozenset(a for a in atoms if rng.random() < 0.5)
    return agent_map, atom_map, flipped


# -- structured ladders ------------------------------------------------------

def ladder(sizes: dict[str, tuple[int, ...]], p: str = "p", q: str = "q") -> list[dict]:
    """Formulas with verdicts known by construction.

    nest    <{a}>^n p                                     invalid
    neg     ~^(2n)(p | ~p)                                valid
    cnf     |_i (<{a}>p_i & <{b}>q_i)                     invalid
    weak    X_n -> Y_n, X_n as cnf, Y_n with <{a,b}>p_i   valid
    """
    items = []
    for n in sizes.get("nest", ()):
        items.append({"family": "nest", "n": n, "valid": False,
                      "text": "<{a}>" * n + p})
    for n in sizes.get("neg", ()):
        items.append({"family": "neg", "n": n, "valid": True,
                      "text": "~" * (2 * n) + f"({p} | ~{p})"})
    for n in sizes.get("cnf", ()):
        items.append({"family": "cnf", "n": n, "valid": False,
                      "text": " | ".join(f"(<{{a}}>{p}{i} & <{{b}}>{q}{i})"
                                         for i in range(n))})
    for n in sizes.get("weak", ()):
        x = " | ".join(f"(<{{a}}>{p}{i} & <{{b}}>{q}{i})" for i in range(n))
        y = " | ".join(f"(<{{a,b}}>{p}{i} & <{{b}}>{q}{i})" for i in range(n))
        items.append({"family": "weak", "n": n, "valid": True,
                      "text": f"({x}) -> ({y})"})
    return items


def seeded_ladder(seed: int, sizes: dict[str, tuple[int, ...]]) -> list[dict]:
    """The ladder with seeded atom names."""
    rng = random.Random(f"ladder:{seed}")
    return ladder(sizes, *rng.choice((("p", "q"), ("q", "p"), ("r", "s"), ("s", "r"))))


# -- model documents -----------------------------------------------------------

def gcgm_doc(rng: random.Random, agents, atoms, n_states: int, n_actions: int,
             row_density: float, max_targets: int) -> dict:
    """A general game model: each (state, profile) row is present with
    probability ``row_density`` and leads to 1..max_targets states."""
    states = [f"s{i}" for i in range(n_states)]
    actions = [f"x{i}" for i in range(n_actions)]
    transitions = []
    for s in states:
        for combo in itertools.product(actions, repeat=len(agents)):
            if rng.random() < row_density:
                targets = rng.sample(states, rng.randint(1, max_targets))
                transitions.append({"from": s, "profile": dict(zip(agents, combo)),
                                    "to": sorted(targets, key=states.index)})
    return _doc(rng, agents, atoms, actions, states, transitions)


def cgm_doc(rng: random.Random, agents, atoms, n_states: int, n_actions: int) -> dict:
    """A concurrent game model: per state each agent has a nonempty action
    set, every profile of their product is available, one outcome each."""
    states = [f"s{i}" for i in range(n_states)]
    actions = [f"x{i}" for i in range(n_actions)]
    transitions = []
    for s in states:
        per_agent = [sorted(rng.sample(actions, rng.randint(1, n_actions)))
                     for _ in agents]
        for combo in itertools.product(*per_agent):
            transitions.append({"from": s, "profile": dict(zip(agents, combo)),
                                "to": [rng.choice(states)]})
    return _doc(rng, agents, atoms, actions, states, transitions)


def _doc(rng, agents, atoms, actions, states, transitions) -> dict:
    return {
        "agents": list(agents),
        "atoms": list(atoms),
        "actions": actions,
        "states": [{"name": s, "label": [a for a in atoms if rng.random() < 0.5]}
                   for s in states],
        "transitions": transitions,
    }


def base_documents(agents, atoms) -> list[dict]:
    """The modelcheck arenas, the same for every seed: three GCGMs of
    roughly 300, 800 and 1500 stored rows, and one CGM."""
    rng = random.Random("models:base")
    return [
        gcgm_doc(rng, agents, atoms, 12, 3, 0.9, 3),
        gcgm_doc(rng, agents, atoms, 30, 3, 0.95, 3),
        gcgm_doc(rng, agents, atoms, 56, 3, 1.0, 2),
        cgm_doc(rng, agents, atoms, 40, 3),
    ]


def doc_variant(doc: dict, agent_map: dict, atom_map: dict, flipped: frozenset) -> dict:
    """``doc`` with agents and atoms renamed and the labels of flipped atoms
    complemented, so that ``substitute``-d formulas keep their truth values."""
    atoms = doc["atoms"]
    states = []
    for entry in doc["states"]:
        true = {atom_map[a] for a in atoms if (a in entry["label"]) != (a in flipped)}
        states.append({"name": entry["name"],
                       "label": [atom_map[a] for a in atoms if atom_map[a] in true]})
    transitions = [{"from": tr["from"],
                    "profile": {agent_map[a]: x for a, x in tr["profile"].items()},
                    "to": tr["to"]}
                   for tr in doc["transitions"]]
    return {**doc, "states": states, "transitions": transitions}


# -- reference checks ------------------------------------------------------------

class RefModel:
    """A model document indexed for the reference evaluator."""

    def __init__(self, doc: dict):
        self.agents = list(doc["agents"])
        self.states = [entry["name"] for entry in doc["states"]]
        self.actions = list(doc["actions"])
        self.label = {entry["name"]: set(entry.get("label", []))
                      for entry in doc["states"]}
        self.rows = {s: [] for s in self.states}
        for tr in doc.get("transitions", []):
            if tr["to"]:
                self.rows[tr["from"]].append((dict(tr["profile"]), set(tr["to"])))


def ref_eval(model: RefModel, f) -> set:
    """States of ``model`` where formula ``f`` holds."""
    kind = f[0]
    everything = set(model.states)
    if kind == "top":
        return everything
    if kind == "bot":
        return set()
    if kind == "atom":
        return {s for s in model.states if f[1] in model.label[s]}
    if kind == "not":
        return everything - ref_eval(model, f[1])
    if kind == "dual":
        return everything - ref_eval(model, ("can", f[1], ("not", f[2])))
    if kind == "can":
        goal = ref_eval(model, f[2])
        result = set()
        for s in model.states:
            # a coalition move is good when every row extending it stays in goal
            good: dict[tuple, bool] = {}
            for profile, targets in model.rows[s]:
                move = tuple(profile[a] for a in f[1])
                good[move] = good.get(move, True) and targets <= goal
            if any(good.values()):
                result.add(s)
        return result
    left, right = ref_eval(model, f[1]), ref_eval(model, f[2])
    if kind == "and":
        return left & right
    if kind == "or":
        return left | right
    return (everything - left) | right  # imp


def ref_classify(model: RefModel) -> dict:
    """Seriality, independence of agents and determinism of a document."""
    serial = all(model.rows[s] for s in model.states)
    independent = True
    for s in model.states:
        present = {tuple(p[a] for a in model.agents) for p, _ in model.rows[s]}
        per_agent = [{combo[k] for combo in present} for k in range(len(model.agents))]
        if len(present) != len(list(itertools.product(*per_agent))):
            independent = False
            break
    deterministic = all(len(t) == 1 for s in model.states for _, t in model.rows[s])
    return {"serial": serial, "independent": independent,
            "deterministic": deterministic}
