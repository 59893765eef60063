"""Game models driven by the grand coalition's outcome table.

A model stores only ``out_ag``: the outcome sets of grand-coalition action
profiles at each state (absent entries mean the empty set).  Availability
and outcomes for every coalition are derived, never stored:

* the available profiles at a state are those with a nonempty outcome,
* a coalition's available joint actions are the restrictions of the
  available profiles,
* a coalition's outcomes are the union over all extending profiles.

Any model built this way is a general concurrent game model (GCGM) by
construction.  ``classify`` reports the three extra properties that single
out concurrent game models (CGMs): seriality, independence of agents, and
determinism.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Iterator, Mapping, Sequence

from .formula import AgentUniverse, Coalition, check_name


class ModelError(ValueError):
    """Malformed model data (construction or file loading).

    ``at`` names the part of a model at fault, when one is: ``(field,)``
    for "states", "actions" or "atoms", ``("state", name, field)`` or
    ``("transition", (state, profile), field)``."""

    def __init__(self, message: str, at: tuple = ()):
        super().__init__(message)
        self.at = at


@dataclass(frozen=True)
class JointAction:
    """A partial assignment of actions to agents, keyed by agent name.

    ``items`` is sorted by agent name, so structurally equal assignments
    compare and hash equal.  The empty coalition has exactly one joint
    action: the empty assignment.
    """

    items: tuple[tuple[str, str], ...]

    def __post_init__(self):  # the hash the dataclass would compute, once
        # set as an attribute: touching __dict__ would slow every later read
        object.__setattr__(self, "_hash", hash((self.items,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # str hashes differ between processes
        return JointAction, (self.items,)

    @classmethod
    def of(cls, mapping: Mapping[str, str]) -> JointAction:
        return cls(tuple(sorted(mapping.items())))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.items)

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.items)

    def get(self, agent: str) -> str:
        for a, x in self.items:
            if a == agent:
                return x
        raise KeyError(agent)

    def restrict(self, members: frozenset[str] | Coalition) -> JointAction:
        if isinstance(members, Coalition):
            members = members.members
        return JointAction(tuple((a, x) for a, x in self.items if a in members))

    def union(self, other: JointAction) -> JointAction:
        if self.domain & other.domain:
            raise ValueError("joint actions overlap on "
                             f"{sorted(self.domain & other.domain)}")
        return JointAction(tuple(sorted(self.items + other.items)))

    def extends(self, other: JointAction) -> bool:
        return set(other.items) <= set(self.items)

    def render(self, universe: AgentUniverse) -> str:
        """``(w,n)`` for full profiles, ``(a:w)`` for proper partial ones."""
        if self.domain == frozenset(universe.agents):
            return "(" + ",".join(self.mapping[a] for a in universe.agents) + ")"
        ordered = [a for a in universe.agents if a in self.domain]
        return "(" + ",".join(f"{a}:{self.mapping[a]}" for a in ordered) + ")"


EMPTY_ACTION = JointAction(())


def oplus(family: Sequence[tuple[Coalition, Iterable[JointAction]]]) -> set[JointAction]:
    """All unions of one pick per member set, for pairwise disjoint coalitions.

    The empty family yields the singleton {empty assignment}; a family
    containing an empty pick set yields the empty set (no choice function).
    """
    claimed: set[str] = set()
    for coalition, _ in family:
        if claimed & coalition.members:
            raise ValueError("coalitions overlap on "
                             f"{sorted(claimed & coalition.members)}")
        claimed |= coalition.members
    pick_sets = [list(choices) for _, choices in family]
    out: set[JointAction] = set()
    for picks in itertools.product(*pick_sets):
        joint = EMPTY_ACTION
        for p in picks:
            joint = joint.union(p)
        out.add(joint)
    return out


def product_profiles(agents: Sequence[str],
                     choices: Sequence[Sequence[str]]) -> Iterator[JointAction]:
    """Every profile giving ``agents[k]`` one action of ``choices[k]``, in
    binary-counter order: the first agent is the most significant digit and
    each agent's actions rank by their order in its choices."""
    for combo in itertools.product(*choices):
        yield JointAction.of(dict(zip(agents, combo)))


@lru_cache(maxsize=16)
def full_profiles(agents: tuple[str, ...],
                  actions: tuple[str, ...]) -> tuple[JointAction, ...]:
    """``product_profiles`` over ``actions`` as one tuple shared per shape."""
    return tuple(product_profiles(agents, [actions] * len(agents)))


@dataclass(frozen=True, eq=True)
class GameModel:
    """An explicit game arena over a fixed agent universe.

    ``out_ag`` maps (state, full action profile) to the nonempty set of
    outcome states; pairs not present have no outcome and the profile is
    unavailable there.  Instances are immutable; the stored rows are grouped
    by state and put in canonical order once, when the model is built.
    """

    universe: AgentUniverse
    atoms: tuple[str, ...]
    actions: tuple[str, ...]
    states: tuple[str, ...]
    label: dict[str, frozenset[str]]
    out_ag: dict[tuple[str, JointAction], frozenset[str]]

    def __post_init__(self):
        if not self.states:
            raise ModelError("model must have at least one state", ("states",))
        if not self.actions:
            raise ModelError("model must have at least one action", ("actions",))
        for seq, what in ((self.states, "state"), (self.actions, "action"),
                          (self.atoms, "atom")):
            if len(set(seq)) != len(seq):
                raise ModelError(f"duplicate {what} names", (f"{what}s",))
        state_set = set(self.states)
        atom_set = set(self.atoms)
        action_set = set(self.actions)
        agents = self.universe.agents
        agent_set = frozenset(agents)
        for s in self.states:
            marks = self.label.get(s, frozenset())
            if not marks <= atom_set:
                raise ModelError(f"undeclared atoms {sorted(marks - atom_set)} "
                                 f"labelling state {s!r}", ("state", s, "label"))
        unknown_labels = set(self.label) - state_set
        if unknown_labels:
            raise ModelError(f"labels for unknown states {sorted(unknown_labels)}")
        cleaned = {}
        rows: dict[str, list] = {s: [] for s in self.states}
        # each distinct profile is checked once and gets its binary-counter
        # rank; profile items are sorted by agent name, so agent k of the
        # universe sits at items[at[k]]
        rank = {x: k for k, x in enumerate(self.actions)}
        at = [sorted(agents).index(a) for a in agents]
        keys: dict[JointAction, list[int]] = {}
        for key, targets in self.out_ag.items():
            s, profile = key
            if s not in state_set:
                raise ModelError(f"transition from unknown state {s!r}",
                                 ("transition", key, "from"))
            rank_key = keys.get(profile)
            if rank_key is None:
                if profile.domain != agent_set:
                    raise ModelError(f"profile {profile.items} does not cover the grand "
                                     "coalition", ("transition", key, "profile"))
                bad_actions = {x for _, x in profile.items} - action_set
                if bad_actions:
                    raise ModelError(f"undeclared actions {sorted(bad_actions)}",
                                     ("transition", key, "profile"))
                rank_key = keys[profile] = [rank[profile.items[k][1]] for k in at]
            if not targets <= state_set:
                raise ModelError(f"unknown outcome states {sorted(targets - state_set)}",
                                 ("transition", key, "to"))
            if targets:
                targets = cleaned[key] = frozenset(targets)
                rows[s].append((rank_key, profile, targets))
        object.__setattr__(self, "out_ag", cleaned)
        object.__setattr__(self, "_rows", {
            s: tuple([r[1:] for r in sorted(state_rows)]) for s, state_rows in rows.items()})

    # -- derived structure ---------------------------------------------------

    def canonical_rows(self, state: str) -> tuple[tuple[JointAction, frozenset[str]], ...]:
        """The stored (profile, outcomes) rows of ``state`` in the
        binary-counter order of ``profiles()``.  Serialization and
        classification read this order, so their cost grows with the stored
        rows, not with the profile space."""
        self._check_state(state)
        return self._rows[state]

    def _check_state(self, state: str) -> None:
        if state not in self._rows:
            raise ModelError(f"unknown state {state!r}")

    def available_profiles(self, state: str) -> frozenset[JointAction]:
        """Grand-coalition profiles with a nonempty outcome at ``state``."""
        return frozenset(p for p, _ in self.canonical_rows(state))

    def outcome(self, state: str, profile: JointAction) -> frozenset[str]:
        """Stored outcome set of a full profile (empty if unavailable)."""
        self._check_state(state)
        return self.out_ag.get((state, profile), frozenset())

    def av(self, coalition: Coalition, state: str) -> frozenset[JointAction]:
        """Available joint actions of ``coalition``: projections of the
        available profiles."""
        self._check_coalition(coalition)
        return frozenset(p.restrict(coalition)
                         for p in self.available_profiles(state))

    def out(self, coalition: Coalition, state: str, action: JointAction) -> frozenset[str]:
        """Union of the outcomes of every profile extending ``action``."""
        self._check_coalition(coalition)
        if action.domain != coalition.members:
            raise ValueError(f"action domain {sorted(action.domain)} differs from "
                             f"coalition {sorted(coalition.members)}")
        bad = {x for _, x in action.items} - set(self.actions)
        if bad:
            raise ModelError(f"undeclared actions {sorted(bad)}")
        acc: frozenset[str] = frozenset()
        for profile, targets in self.canonical_rows(state):
            if profile.extends(action):
                acc |= targets
        return acc

    def _check_coalition(self, coalition: Coalition) -> None:
        if coalition.universe != self.universe:
            raise ValueError("coalition universe differs from the model's")

    def profiles(self) -> tuple[JointAction, ...]:
        """All grand-coalition profiles, in binary-counter order."""
        return full_profiles(self.universe.agents, self.actions)


# -- classification ------------------------------------------------------------

@dataclass(frozen=True)
class ModelClassification:
    """GCGM property report; witnesses name the first violation in canonical
    order (states by declaration, profiles by binary counter)."""

    serial: bool
    independent: bool
    deterministic: bool
    serial_witness: str | None
    independence_witness: tuple[str, JointAction] | None
    determinism_witness: tuple[str, JointAction] | None
    universe: AgentUniverse

    @property
    def is_gcgm(self) -> bool:
        """Always true: every ``GameModel`` is a GCGM by construction."""
        return True

    @property
    def is_cgm(self) -> bool:
        return self.serial and self.independent and self.deterministic

    @property
    def witnesses(self) -> list[str]:
        out = []
        if not self.serial:
            out.append(f"not serial: {self.serial_witness}")
        if not self.independent:
            s, p = self.independence_witness
            out.append(f"not independent: {s}, {p.render(self.universe)}")
        if not self.deterministic:
            s, p = self.determinism_witness
            out.append(f"not deterministic: {s}, {p.render(self.universe)}")
        return out


def classify(model: GameModel) -> ModelClassification:
    """Test seriality, independence of agents, and determinism.

    * serial: every state has an available profile;
    * independent: at every state the available profiles form the full
      product of the agents' individually available actions;
    * deterministic: every available profile has exactly one outcome.
    """
    universe = model.universe
    agents = universe.agents
    rank = {x: k for k, x in enumerate(model.actions)}

    serial_witness = next((s for s in model.states if not model.canonical_rows(s)),
                          None)

    independence_witness = None
    for s in model.states:
        avail = model.available_profiles(s)
        per_agent = [sorted({p.get(a) for p in avail}, key=rank.__getitem__)
                     for a in agents]
        missing = next((p for p in product_profiles(agents, per_agent)
                        if p not in avail), None)
        if missing is not None:
            independence_witness = (s, missing)
            break

    determinism_witness = next(((s, p) for s in model.states
                                for p, targets in model.canonical_rows(s)
                                if len(targets) != 1), None)

    return ModelClassification(
        serial=serial_witness is None,
        independent=independence_witness is None,
        deterministic=determinism_witness is None,
        serial_witness=serial_witness,
        independence_witness=independence_witness,
        determinism_witness=determinism_witness,
        universe=universe,
    )


# -- combination and generation -------------------------------------------------

def rename_disjoint(models: Sequence[GameModel]) -> list[GameModel]:
    """Isomorphic copies with states prefixed ``g0.``, ``g1.`` and so on, so
    that all state sets are pairwise disjoint.  Action names are kept:
    availability is derived per state, so copies can share them."""
    out = []
    for i, m in enumerate(models):
        p = f"g{i}."
        out.append(GameModel(
            universe=m.universe,
            atoms=m.atoms,
            actions=m.actions,
            states=tuple(p + s for s in m.states),
            label={p + s: marks for s, marks in m.label.items()},
            out_ag={(p + s, profile): frozenset(p + t for t in targets)
                    for (s, profile), targets in m.out_ag.items()},
        ))
    return out


def random_model(universe: AgentUniverse, n_states: int, n_actions: int,
                 density: float, seed: int,
                 atoms: Sequence[str] = ("p", "q")) -> GameModel:
    """Seeded random GCGM: every (state, profile, target) edge is kept
    independently with probability ``density``; each (state, atom) label is a
    fair coin.  Identical seeds give identical models."""
    return GameModel(*_gcgm_parts(universe, n_states, n_actions, density, seed, atoms))


def random_cgm(universe: AgentUniverse, n_states: int, n_actions: int,
               seed: int, atoms: Sequence[str] = ("p", "q")) -> GameModel:
    """Seeded random CGM: per state, each agent gets a nonempty action set,
    the available profiles are their full product, and every available
    profile gets exactly one outcome state."""
    return GameModel(*_cgm_parts(universe, n_states, n_actions, seed, atoms))


def _random_start(n_states: int, n_actions: int, seed: int, atoms: Sequence[str],
                  prefix: str) -> tuple:
    """The RNG, states (``prefix`` before each name), actions and labels of a random model."""
    if n_states < 1 or n_actions < 1:
        raise ValueError("need at least one state and one action")
    rng = random.Random(seed)
    states = tuple([f"{prefix}s{i}" for i in range(n_states)])
    label = {s: frozenset([a for a in atoms if rng.random() < 0.5]) for s in states}
    return rng, states, tuple([f"x{i}" for i in range(n_actions)]), label


def _gcgm_parts(universe: AgentUniverse, n_states: int, n_actions: int, density: float,
                seed: int, atoms: Sequence[str], prefix: str = "") -> tuple:
    """The ``GameModel`` arguments of ``random_model``."""
    rng, states, actions, label = _random_start(n_states, n_actions, seed, atoms, prefix)
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be within [0, 1]")
    draw, out_ag = rng.random, {}
    if density:  # no edge at density 0, and nothing is drawn after the edges
        profiles = full_profiles(universe.agents, actions)
        for s in states:
            for profile in profiles:
                targets = [t for t in states if draw() < density]
                if targets:
                    out_ag[(s, profile)] = frozenset(targets)
    return universe, tuple(atoms), actions, states, label, out_ag


def _cgm_parts(universe: AgentUniverse, n_states: int, n_actions: int, seed: int,
               atoms: Sequence[str], prefix: str = "") -> tuple:
    """The ``GameModel`` arguments of ``random_cgm``."""
    rng, states, actions, label = _random_start(n_states, n_actions, seed, atoms, prefix)
    agents, out_ag = universe.agents, {}
    for s in states:
        per_agent = [rng.sample(actions, rng.randint(1, n_actions)) for _ in agents]
        for profile in product_profiles(agents, per_agent):
            out_ag[(s, profile)] = frozenset((rng.choice(states),))
    return universe, tuple(atoms), actions, states, label, out_ag


def _disjoint_union(parts: Iterable[tuple]) -> GameModel:
    """One model from the ``GameModel`` arguments of models over one universe
    and atom list with pairwise distinct state names."""
    states, label, out_ag, actions = [], {}, {}, {}
    for universe, atoms, part_actions, part_states, part_label, part_out in parts:
        actions.update(dict.fromkeys(part_actions))
        states += part_states
        label.update(part_label)
        out_ag.update(part_out)
    return GameModel(universe, atoms, tuple(actions), tuple(states), label, out_ag)


def _chunks(items: Iterable, size: int = 4) -> Iterator[list]:
    """``items`` in lists of ``size``, doubling up to 128 items."""
    items = iter(items)
    while chunk := list(itertools.islice(items, size)):
        yield chunk
        size = min(2 * size, 128)


# -- serialization ---------------------------------------------------------------

def to_json_dict(model: GameModel) -> dict:
    """Plain-data form of a model; deterministic given the model.

    Transitions follow states in declaration order, then ``canonical_rows``;
    outcome lists follow state declaration order."""
    index = {s: k for k, s in enumerate(model.states)}
    return {
        "agents": list(model.universe.agents),
        "atoms": list(model.atoms),
        "actions": list(model.actions),
        "states": [{"name": s,
                    "label": [a for a in model.atoms
                              if a in model.label.get(s, frozenset())]}
                   for s in model.states],
        "transitions": [{"from": s,
                         "profile": profile.mapping,
                         "to": sorted(targets, key=index.__getitem__)}
                        for s in model.states
                        for profile, targets in model.canonical_rows(s)],
    }


def _value(obj: dict, key: str, where: str, default=None):
    """``obj[key]``, where ``where`` is the JSON path of ``obj`` with a
    trailing dot ("" for the document); absent without a default is an error."""
    if key in obj:
        return obj[key]
    if default is None:
        raise ModelError(f"{where}{key} is required")
    return default


def _strings(obj: dict, key: str, where: str = "", default=None) -> list[str]:
    value = _value(obj, key, where, default)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ModelError(f"{where}{key} must be a list of strings")
    return value


def _string(obj: dict, key: str, where: str) -> str:
    value = _value(obj, key, where)
    if not isinstance(value, str):
        raise ModelError(f"{where}{key} must be a string")
    return value


def _objects(obj: dict, key: str, default=None) -> list[dict]:
    value = _value(obj, key, "", default)
    if not isinstance(value, list):
        raise ModelError(f"{key} must be a list of objects")
    for k, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ModelError(f"{key}[{k}] must be an object")
    return value


def from_json_dict(data: dict) -> GameModel:
    """Model from plain data; a ModelError names the offending JSON path."""
    if not isinstance(data, dict):
        raise ModelError("model document must be an object")
    try:
        agents = tuple(_strings(data, "agents"))
        atoms = tuple(_strings(data, "atoms"))
        for key, names in (("agents", agents), ("atoms", atoms)):
            for k, name in enumerate(names):
                try:
                    check_name(name)
                except ValueError as exc:
                    raise ModelError(f"{key}[{k}]: {exc}") from exc
        try:
            universe = AgentUniverse(agents)
        except ValueError as exc:
            raise ModelError(f"agents: {exc}") from exc
        actions = tuple(_strings(data, "actions"))
        states: list[str] = []
        label: dict[str, frozenset[str]] = {}
        for k, entry in enumerate(_objects(data, "states")):
            where = f"states[{k}]."
            name = _string(entry, "name", where)
            states.append(name)
            label[name] = frozenset(_strings(entry, "label", where, []))
        out_ag: dict[tuple[str, JointAction], frozenset[str]] = {}
        # rows repeat state names, profiles and outcome sets; equal ones
        # share one object
        shared: dict = {s: s for s in states}
        intern = shared.setdefault
        for k, tr in enumerate(_objects(data, "transitions", [])):
            where = f"transitions[{k}]."
            mapping = _value(tr, "profile", where)
            if not isinstance(mapping, dict) or not all(
                    isinstance(a, str) and isinstance(x, str) for a, x in mapping.items()):
                raise ModelError(f"{where}profile must be an object of strings")
            profile = JointAction.of(mapping)
            profile = intern(profile, profile)
            source = _string(tr, "from", where)
            key = (intern(source, source), profile)
            if key in out_ag:
                raise ModelError(f"transitions[{k}]: duplicate transition entry for "
                                 f"{key[0]!r}, {profile.render(universe)}")
            targets = frozenset([intern(t, t) for t in _strings(tr, "to", where)])
            out_ag[key] = intern(targets, targets)
    except (KeyError, TypeError, ValueError) as exc:  # a safety net
        if isinstance(exc, ModelError):
            raise
        raise ModelError(f"malformed model document: {exc}") from exc
    try:
        return GameModel(universe, atoms, actions, tuple(states), label, out_ag)
    except ModelError as exc:  # found only now, so valid documents pay nothing
        if not exc.at:
            raise
        if len(exc.at) == 1:
            raise ModelError(f"{exc.at[0]}: {exc}", exc.at) from exc
        kind, key, field = exc.at
        k = states.index(key) if kind == "state" else list(out_ag).index(key)
        raise ModelError(f"{kind}s[{k}].{field}: {exc}", exc.at) from exc


def dumps(model: GameModel) -> str:
    return json.dumps(to_json_dict(model), indent=2, sort_keys=True)


def loads(text: str) -> GameModel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise ModelError("model document nests too deeply") from None
    return from_json_dict(data)


def save(model: GameModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(model) + "\n")


def load(path: str) -> GameModel:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def load_fixture(name: str) -> GameModel:
    """Load a bundled example model (``two_masks`` or ``one_mask``)."""
    if "/" in name or "\\" in name or ".." in name:
        raise ModelError(f"{name!r} is a path, not a bundled model name")
    ref = resources.files("mcl") / "fixtures" / f"{name}.json"
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ModelError(f"no bundled model named {name!r}") from None
    return loads(text)
