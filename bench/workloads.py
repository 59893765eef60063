"""The four benchmark workloads.

Each workload builds its inputs from the seed with the benchmark's own
generators (``inputs``), runs one pass of operations through the public
entry points of mcl, and checks each distinct output after the timed
region.  Every call goes through a module attribute (``mcl.cli.main``,
``mcl.semantics.eval_all`` and so on) so that a traced run sees it.

Why these four: ``decide-random`` is the README workflow (decide, write a
model, classify it) on mixed traffic, where model I/O over the
|actions|^|agents| profile space dominates; ``decide-structured`` grows
formula size along four ladders with known verdicts, where normal form and
recursion dominate and countermodels stay tiny; ``modelcheck`` queries a
few fixed arenas many times, where a per-model index would pay off;
``fuzz`` checks thousands of tiny sampled models once each, where per-call
overhead of ``eval_all`` and model generation dominates.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import inputs
from inputs import RefModel, ref_classify, ref_eval

AGENTS3 = ("a", "b", "c")
AGENTS2 = ("a", "b")
ATOMS = ("p", "q")


def sha256_of(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def cli_call(mcl, argv: list[str]) -> tuple[int, str]:
    """``mcl.cli.main`` in-process; returns (exit code, standard output)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = mcl.cli.main(argv)
    return code, out.getvalue()


def check_model_text(mcl, text: str, state: str, formula_text: str,
                     formula, should_hold: bool) -> str | None:
    """An emitted model must round-trip through loads/dumps byte for byte and
    give the formula the expected truth value at its point, under both
    ``holds`` and the reference evaluator."""
    m = mcl.model.loads(text)
    if mcl.model.dumps(m) + "\n" != text:
        return "dumps(loads(t)) != t"
    pm = mcl.semantics.PointedModel(m, state)
    if mcl.semantics.holds(pm, mcl.formula.parse(formula_text, m.universe)) != should_hold:
        return f"holds is not {should_hold} at the emitted model's point"
    if formula is not None and \
            (state in ref_eval(RefModel(json.loads(text)), formula)) != should_hold:
        return f"reference evaluator disagrees: expected {should_hold}"
    return None


class Workload:
    """One workload: seeded set-up, one pass of operations, output checks.

    ``TRAFFIC`` pins the part of the inputs that is the same for every seed;
    a run whose ``traffic`` differs from it fails its checks, so a change of
    the traffic cannot pass for a change of speed.
    """

    name: str
    TRAFFIC: dict

    def __init__(self, workdir: str):
        self.workdir = workdir

    def report(self, mcl, inp, runner) -> dict:
        return {}


class DecideRandom(Workload):
    """``mcl valid``/``mcl sat`` on random formulas, then ``mcl classify`` on
    every model written.  Each CLI call is one operation."""

    name = "decide-random"
    corpus_size = 120
    TRAFFIC = {"base_sha256":
               "c94c7facea945d8574d3c51141bbb8d5780f38e657955e618b512d1642febcc5"}

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.path = os.path.join(workdir, "model.json")

    @staticmethod
    def base() -> list:
        # at most three modal operators: with more, one countermodel's
        # profile space can cost more than the rest of the corpus together
        return inputs.base_corpus("decide", DecideRandom.corpus_size,
                                  AGENTS3, ATOMS, (1, 2, 3), 8, 3)

    @staticmethod
    def corpus(seed: int) -> list:
        maps = inputs.variant_maps(seed, "decide", AGENTS3, ATOMS)
        return [inputs.substitute(f, *maps, AGENTS3) for f in DecideRandom.base()]

    def setup(self, mcl, seed: int):
        formulas = self.corpus(seed)
        return SimpleNamespace(formulas=formulas,
                               texts=[inputs.render(f) for f in formulas])

    def argv(self, k: int, text: str) -> list[str]:
        if k % 2 == 0:
            return ["valid", "--agents", ",".join(AGENTS3), "--formula", text,
                    "--format", "json", "--countermodel-out", self.path]
        return ["sat", "--agents", ",".join(AGENTS3), "--formula", text,
                "--format", "json", "--witness-out", self.path]

    def run_pass(self, mcl, inp, runner) -> None:
        path = self.path
        classify_argv = ["classify", "--model", path, "--format", "json"]
        for k, text in enumerate(inp.texts):
            argv = self.argv(k, text)

            def decide():
                if os.path.exists(path):
                    os.remove(path)
                code, out = cli_call(mcl, argv)
                written = None
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        written = fh.read()
                return code, out, written

            raw = runner.op(("decide", k), decide)
            if raw is not None and raw[2] is not None:
                runner.op(("classify", k), lambda: cli_call(mcl, classify_argv))

    def digest(self, raw) -> str:
        return sha256_of(str(part) for part in raw)

    def check(self, mcl, inp, key, raw, first) -> str | None:
        kind, k = key
        if raw[0] != 0:
            return f"exit code {raw[0]}"
        data = json.loads(raw[1])
        if kind == "classify":
            doc = json.loads(first[("decide", k)][2])
            expected = ref_classify(RefModel(doc))
            got = {p: data[p] for p in expected}
            if got != expected or data["is_cgm"] != all(expected.values()) \
                    or not data["is_gcgm"]:
                return f"classify reported {got}, reference {expected}"
            return None
        text = raw[2]
        if k % 2 == 0:
            refuted = data["verdict"] == "invalid"
            if data["verdict"] not in ("valid", "invalid"):
                return f"unknown verdict {data['verdict']!r}"
            state, should_hold = data["countermodel_state"], False
        else:
            refuted = data["verdict"] == "satisfiable"
            if data["verdict"] not in ("satisfiable", "unsatisfiable"):
                return f"unknown verdict {data['verdict']!r}"
            state, should_hold = data["witness_state"], True
        if not refuted:
            return None if text is None else "a model was written for no reason"
        if text is None or data["countermodel_path"] != self.path:
            return "no model written"
        return check_model_text(mcl, text, state, inp.texts[k],
                                inp.formulas[k], should_hold)

    def input_digest(self, inp) -> str:
        return sha256_of(inp.texts)

    def traffic(self, inp, runner) -> dict:
        return {"base_sha256": sha256_of(inputs.render(f) for f in self.base())}



# 40 sizes, so that the 75th percentile has ten operations beyond it.  The
# largest sizes stay near 0.2 s each: heavier operations drift more with
# the load on a shared host, and a shorter pass gives more passes to take
# the best of.
STRUCTURED_SIZES = {
    "nest": (25, 50, 75, 100, 150, 200, 250, 300),
    "neg": tuple(range(50, 450, 25)),
    "cnf": tuple(range(2, 11)),
    "weak": tuple(range(1, 8)),
}
# Sizes past what the recursive parser and decider manage under Python's
# default recursion limit (when written, nest failed near n=500 and the
# negation ladder near 500 pairs).  They are decided once after the timed
# region, so the defect shows without counting as workload failures.
PROBE_SIZES = {"nest": (600, 1000), "neg": (600, 1000)}


class DecideStructured(Workload):
    """``parse`` + ``decide_valid`` over four scale ladders whose verdicts
    are known by construction.  Each formula is one operation."""

    name = "decide-structured"
    TRAFFIC = {"base_sha256":
               "6b4caf451e65cacc8b2bed9db890cd39f7baf2e4615e8c494abf58b51bbe1b03"}

    def setup(self, mcl, seed: int):
        return SimpleNamespace(items=inputs.seeded_ladder(seed, STRUCTURED_SIZES),
                               probe=inputs.seeded_ladder(seed, PROBE_SIZES),
                               universe=mcl.formula.AgentUniverse(AGENTS2))

    @staticmethod
    def decide(mcl, text: str, universe):
        return mcl.decide.decide_valid(mcl.formula.parse(text, universe), universe)

    def run_pass(self, mcl, inp, runner) -> None:
        for k, item in enumerate(inp.items):
            runner.op((item["family"], item["n"]),
                      lambda: self.decide(mcl, item["text"], inp.universe))

    def digest(self, raw) -> str:
        if raw.valid:
            return "valid"
        m = raw.countermodel.model
        return f"invalid {raw.countermodel.state} {len(m.states)} {len(m.actions)} {len(m.out_ag)}"

    def check(self, mcl, inp, key, raw, first) -> str | None:
        item = next(i for i in inp.items if (i["family"], i["n"]) == key)
        if raw.valid != item["valid"]:
            return f"verdict valid={raw.valid}, known answer valid={item['valid']}"
        if raw.valid:
            return None
        pm = raw.countermodel
        return check_model_text(mcl, mcl.model.dumps(pm.model) + "\n", pm.state,
                                item["text"], None, False)

    def input_digest(self, inp) -> str:
        return sha256_of(i["text"] for i in inp.items + inp.probe)

    def traffic(self, inp, runner) -> dict:
        base = inputs.ladder(STRUCTURED_SIZES) + inputs.ladder(PROBE_SIZES)
        return {"base_sha256": sha256_of(i["text"] for i in base)}

    def report(self, mcl, inp, runner) -> dict:
        failed_items = {key for key, _, error in runner.executions if error}
        probe = {}
        for item in inp.probe:
            try:
                verdict = self.decide(mcl, item["text"], inp.universe)
                outcome = "ok" if verdict.valid == item["valid"] else "wrong verdict"
            except (Exception, SystemExit) as exc:
                outcome = type(exc).__name__
            probe[f"{item['family']}:{item['n']}"] = outcome
        failed = len(failed_items) + sum(outcome != "ok" for outcome in probe.values())
        return {
            "ladder_sizes": {fam: list(ns) for fam, ns in STRUCTURED_SIZES.items()},
            "probe": probe,
            # share of all ladder sizes (timed and probe) that fail
            "ladder_failed_frac": failed / (len(inp.items) + len(inp.probe)),
        }


class ModelCheck(Workload):
    """``eval_all`` of a seeded formula corpus on a few fixed arenas: three
    GCGMs (about 300, 800 and 1500 stored rows) and one CGM over agents
    a, b, c with three actions.  Each (model, formula) query is one
    operation."""

    name = "modelcheck"
    corpus_size = 30
    TRAFFIC = {"base_sha256":
               "e0091729b29de2a34a125eeb3af73920c8585d6d566f7ae9506da5039e2f652b"}

    def setup(self, mcl, seed: int):
        maps = inputs.variant_maps(seed, "modelcheck", AGENTS3, ATOMS)
        docs = [json.dumps(inputs.doc_variant(d, *maps))
                for d in inputs.base_documents(AGENTS3, ATOMS)]
        models = [mcl.model.loads(text) for text in docs]
        formulas = [inputs.substitute(f, *maps, AGENTS3) for f in self.base()]
        texts = [inputs.render(f) for f in formulas]
        universe = models[0].universe
        parsed = [mcl.formula.parse(text, universe) for text in texts]
        return SimpleNamespace(docs=docs, models=models, formulas=formulas,
                               texts=texts, parsed=parsed)

    def base(self) -> list:
        return inputs.base_corpus("modelcheck", self.corpus_size, AGENTS3, ATOMS,
                                  (1, 2, 3, 4), 10, 6)

    def run_pass(self, mcl, inp, runner) -> None:
        for i, m in enumerate(inp.models):
            for j, f in enumerate(inp.parsed):
                runner.op((i, j), lambda: mcl.semantics.eval_all(m, f))

    def digest(self, raw) -> str:
        return "".join("1" if v else "0" for v in raw.values())

    def check(self, mcl, inp, key, raw, first) -> str | None:
        i, j = key
        ref = RefModel(json.loads(inp.docs[i]))
        truth = ref_eval(ref, inp.formulas[j])
        expected = {s: s in truth for s in ref.states}
        if raw != expected:
            wrong = sorted(s for s in expected if raw.get(s) != expected[s])
            return f"column differs from the reference at {wrong[:5]}"
        return None

    def input_digest(self, inp) -> str:
        return sha256_of(inp.docs + inp.texts)

    def traffic(self, inp, runner) -> dict:
        docs = [json.dumps(d) for d in inputs.base_documents(AGENTS3, ATOMS)]
        return {"base_sha256": sha256_of(docs + [inputs.render(f) for f in self.base()])}

    def report(self, mcl, inp, runner) -> dict:
        return {"models": [{"states": len(m.states), "rows": len(m.out_ag)}
                           for m in inp.models],
                "formulas": len(inp.texts)}


class Fuzz(Workload):
    """``mcl fuzz`` over a ladder of fuzz seeds with the README's model bounds
    (at most 3 states and 2 actions).  Each CLI call is one operation.

    The fuzz traffic is generated by mcl itself from ``--seed``, and a call's
    cost swings with how many of its formulas are valid, so the ladder of
    fuzz seeds is the same for every benchmark seed.  The benchmark seed
    picks the agent and atom names, which the generator treats
    symmetrically.
    """

    name = "fuzz"
    calls = 40
    formulas, samples, scheme_models = 8, 80, 16
    TRAFFIC = {"report_counts": {"formulas": 320, "valid": 19, "invalid": 301,
                                 "scheme_models": 640}}
    agent_names = (("a", "b"), ("b", "a"), ("x", "y"), ("y", "x"))
    atom_names = (("p", "q"), ("q", "p"), ("r", "s"), ("s", "r"))

    def setup(self, mcl, seed: int):
        rng = random.Random(f"fuzz:{seed}")
        agents, atoms = rng.choice(self.agent_names), rng.choice(self.atom_names)
        argvs = [["fuzz", "--agents", ",".join(agents), "--atoms", ",".join(atoms),
                  "--formulas", str(self.formulas), "--depth", "2",
                  "--max-states", "3", "--max-actions", "2",
                  "--samples", str(self.samples),
                  "--scheme-models", str(self.scheme_models),
                  "--seed", str(k), "--format", "json"]
                 for k in range(1, self.calls + 1)]
        return SimpleNamespace(argvs=argvs)

    def run_pass(self, mcl, inp, runner) -> None:
        for j, argv in enumerate(inp.argvs):
            runner.op(j, lambda: cli_call(mcl, argv))

    def digest(self, raw) -> str:
        return sha256_of(str(part) for part in raw)

    def check(self, mcl, inp, key, raw, first) -> str | None:
        code, out = raw
        data = json.loads(out)
        if code != 0 or data["discrepancies"]:
            return f"exit code {code}, {len(data['discrepancies'])} discrepancies"
        if (data["formulas_checked"] != self.formulas
                or data["valid"] + data["invalid"] != self.formulas
                or data["certified_countermodels"] != data["invalid"]
                or data["scheme_models_checked"] != self.scheme_models):
            return f"inconsistent report counts {data}"
        return None

    def input_digest(self, inp) -> str:
        return sha256_of(" ".join(argv) for argv in inp.argvs)

    def traffic(self, inp, runner) -> dict:
        """Totals of the fuzz reports: the traffic mcl generated."""
        counts = {"formulas": 0, "valid": 0, "invalid": 0, "scheme_models": 0}
        for j in range(len(inp.argvs)):
            if j in runner.first:
                data = json.loads(runner.first[j][1][1])
                counts["formulas"] += data["formulas_checked"]
                counts["valid"] += data["valid"]
                counts["invalid"] += data["invalid"]
                counts["scheme_models"] += data["scheme_models_checked"]
        return {"report_counts": counts}


WORKLOADS = {w.name: w for w in (DecideRandom, DecideStructured, ModelCheck, Fuzz)}


def countermodel_totals(mcl, seed: int) -> dict:
    """Size of every model that ``decide-random`` and ``decide-structured``
    emit for this seed, decided through the library.  Counts repeat exactly
    for a given seed and program."""
    totals = {"models": 0, "states": 0, "actions": 0, "rows": 0}

    def add(pm):
        if pm is not None:
            totals["models"] += 1
            totals["states"] += len(pm.model.states)
            totals["actions"] += len(pm.model.actions)
            totals["rows"] += len(pm.model.out_ag)

    u3 = mcl.formula.AgentUniverse(AGENTS3)
    for k, f in enumerate(DecideRandom.corpus(seed)):
        parsed = mcl.formula.parse(inputs.render(f), u3)
        if k % 2 == 0:
            add(mcl.decide.decide_valid(parsed, u3).countermodel)
        else:
            add(mcl.decide.decide_sat(parsed, u3).witness)
    u2 = mcl.formula.AgentUniverse(AGENTS2)
    for item in inputs.seeded_ladder(seed, STRUCTURED_SIZES):
        if not item["valid"]:
            add(DecideStructured.decide(mcl, item["text"], u2).countermodel)
    return totals
