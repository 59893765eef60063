"""In-memory spans around the cross-module calls of mcl.

``Tracer.install`` replaces module attributes such as
``mcl.decide.to_standard_conjunction`` with timing wrappers, so every call
that goes through that name (from another mcl module or from the benchmark)
opens a span.  Recursion inside one module does not go through these names
and is not traced.  Small, frequent measures (``canonical_key`` and friends,
``subformulas``) are aggregated into their parent span instead of getting
spans of their own.  ``per_layer`` turns the totals into the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter

MAX_KEPT_SPANS = 200_000


def count_nodes(f) -> int:
    """Tree size of an mcl formula, without recursion."""
    stack, n = [f], 0
    while stack:
        g = stack.pop()
        n += 1
        for field in ("child", "left", "right"):
            sub = getattr(g, field, None)
            if sub is not None:
                stack.append(sub)
    return n


class Tracer:
    """Spans and per-name totals of one traced phase."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, start, child_s, id]
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.by_op: dict[tuple, float] = defaultdict(float)  # (op, span name) -> s
        self.by_parent: dict[tuple, float] = defaultdict(float)  # (aggregate, parent) -> s
        self.op = None  # (operation key, pass index) of the running operation
        self.last_subformulas = 0  # column count of the eval_all call in progress
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def parent_name(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def span(self, name, fn, after=None):
        """Wrap ``fn``; ``after(tracer, args, result)`` records counts."""
        def wrapped(*args, **kwargs):
            self._next_id += 1
            frame = [name, perf_counter(), 0.0, self._next_id]
            parent = self.stack[-1][3] if self.stack else None
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                duration = end - frame[1]
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
                self.by_op[(self.op, name)] += duration
                if self.stack:
                    self.stack[-1][2] += duration
                if len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((frame[3], parent, self.op, name, frame[1], end))
                else:
                    self.dropped += 1
            if after is not None:
                after(self, args, result)
            return result
        return wrapped

    def aggregate(self, name, fn, after=None, own_time=True):
        """Wrap ``fn`` without a span: calls and time go to ``name`` totals
        and, when ``own_time``, count as child time of the open span."""
        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration
                self.by_parent[(name, self.parent_name())] += duration
                if own_time and self.stack:
                    self.stack[-1][2] += duration
            if after is not None:
                after(self, args, result)
            return result
        return wrapped

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    # -- installation ------------------------------------------------------

    def patch(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def install(self, mcl) -> None:
        span, agg = self.span, self.aggregate
        cli, formula, decide, normalform = mcl.cli, mcl.formula, mcl.decide, mcl.normalform
        semantics, model, oracle = mcl.semantics, mcl.model, mcl.oracle

        self.patch(cli, "main", lambda fn: span("cli", fn))
        for module in (cli, formula):
            self.patch(module, "parse", lambda fn: span("formula.parse", fn, _after_parse))
        self.patch(semantics, "subformulas",
                   lambda fn: agg("formula.subformulas", fn, _after_subformulas))
        measures = ((decide, ("atoms_of", "canonical_key", "modal_depth", "coalitions_of")),
                    (normalform, ("modal_depth",)),
                    (semantics, ("atoms_of", "coalitions_of")),
                    (cli, ("modal_depth",)))
        for module, names in measures:
            for attr in names:
                self.patch(module, attr, lambda fn: agg("formula.measures", fn))
        for module in (cli, decide):
            self.patch(module, "to_standard_conjunction",
                       lambda fn: span("normalform.nf", fn, _after_nf))
        for module, attr in ((cli, "decide_valid"), (cli, "decide_sat"),
                             (decide, "decide_valid"), (oracle, "decide_valid")):
            self.patch(module, attr, lambda fn: span("decide", fn))
        self.patch(decide, "pair_implication",
                   lambda fn: agg("decide.pair", fn, own_time=False))
        self.patch(decide, "holds", lambda fn: span("decide.certify", fn))
        self.patch(decide, "rename_disjoint", lambda fn: span("decide.graft.rename", fn))
        for module in (semantics, oracle):
            self.patch(module, "eval_all",
                       lambda fn: span("semantics.eval_all", fn, _after_eval_all))
        for module in (model, oracle):
            self.patch(module, "dumps", lambda fn: span("model.dumps", fn, _after_dumps))
        self.patch(model, "save", lambda fn: span("model.save", fn))
        self.patch(model, "loads", lambda fn: span("model.loads", fn))
        for module in (cli, oracle):
            self.patch(module, "classify",
                       lambda fn: span("model.classify", fn, _after_classify))
        for attr in ("random_model", "random_cgm"):
            self.patch(oracle, attr, lambda fn: span("model.generate", fn))
        self.patch(oracle, "search_countermodel",
                   lambda fn: span("oracle.search", fn, _after_search))
        self.patch(oracle, "_scheme_separation", _scheme_span(self))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


# -- counters recorded after a call returns --------------------------------------

def _after_parse(tracer, args, f):
    tracer.add("formula.parse.nodes", count_nodes(f))


def _after_subformulas(tracer, args, subs):
    # eval_all is the only caller of the traced name
    tracer.last_subformulas = len(subs)


def _after_nf(tracer, args, clauses):
    tracer.add("normalform.clauses", len(clauses))
    tracer.peak("normalform.clauses_max", len(clauses))


def _after_eval_all(tracer, args, column):
    tracer.add("semantics.cells", len(column) * tracer.last_subformulas)
    if tracer.parent_name() == "oracle.search":
        tracer.add("oracle.models_checked")


def _walked(tracer, model):
    tracer.add("model.rows", len(model.out_ag))
    tracer.add("model.profiles_walked",
               len(model.states) * len(model.actions) ** len(model.universe.agents))


def _after_dumps(tracer, args, text):
    tracer.add("model.dumps.bytes", len(text))
    _walked(tracer, args[0])


def _after_classify(tracer, args, summary):
    _walked(tracer, args[0])


def _after_search(tracer, args, found):
    if found is not None:
        tracer.add("oracle.found")


def _scheme_span(tracer):
    def wrapper(fn):
        def counted(config, report):
            before = report.scheme_models_checked
            fn(config, report)
            tracer.add("oracle.scheme.models", report.scheme_models_checked - before)
        return tracer.span("oracle.scheme", counted)
    return wrapper


# -- per-layer metrics -------------------------------------------------------------

PER_LAYER_UNITS = {
    "cli.calls": "count", "cli.self_s": "s",
    "formula.parse.calls": "count", "formula.parse.s": "s",
    "formula.parse.nodes_per_s": "1/s",
    "formula.subformulas.calls": "count", "formula.subformulas.s": "s",
    "formula.measures.calls": "count", "formula.measures.s": "s",
    "normalform.nf.calls": "count", "normalform.nf.s": "s",
    "normalform.clauses": "count", "normalform.clauses_max": "count",
    "normalform.cnf_growth_exp": "exp",
    "decide.calls": "count", "decide.self_s": "s", "decide.pairs_tried": "count",
    "decide.certify.calls": "count", "decide.certify.s": "s",
    "decide.graft.rename_s": "s", "decide.nest_growth_exp": "exp",
    "semantics.eval_all.calls": "count", "semantics.eval_all.s": "s",
    "semantics.eval_all.us_per_call": "us", "semantics.cells": "count",
    "semantics.cells_per_s": "1/s",
    "model.dumps.s": "s", "model.dumps.bytes": "bytes", "model.loads.s": "s",
    "model.classify.calls": "count", "model.classify.s": "s",
    "model.rows": "count", "model.profiles_walked": "count",
    "model.row_ratio": "ratio", "model.generate.s": "s",
    "oracle.search.calls": "count", "oracle.search.s": "s",
    "oracle.models_checked": "count", "oracle.found_ratio": "ratio",
    "oracle.scheme.models": "count", "oracle.scheme.s": "s",
    "trace.overhead_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def growth_exponent(points: list[tuple[float, float]]) -> float:
    """Log-log slope between the two largest sizes: (size, seconds) pairs."""
    points = sorted(p for p in points if p[0] > 0 and p[1] > 0)
    if len(points) < 2:
        return 0.0
    (x1, y1), (x2, y2) = points[-2], points[-1]
    return math.log(y2 / y1) / math.log(x2 / x1)


def per_layer(setup: Tracer, run: Tracer, passes: int, growth: dict[str, float],
              overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics for one traced set-up plus one pass over the
    workload's operations (``run`` recorded ``passes`` identical passes)."""
    def combined(field: str) -> dict:
        a, b = getattr(setup, field), getattr(run, field)
        return defaultdict(float, {k: a.get(k, 0) + b.get(k, 0) / passes
                                   for k in set(a) | set(b)})

    c, t, s, n = (combined(f) for f in ("calls", "total_s", "self_s", "counts"))
    values = {
        "cli.calls": c["cli"], "cli.self_s": s["cli"],
        "formula.parse.calls": c["formula.parse"], "formula.parse.s": t["formula.parse"],
        "formula.parse.nodes_per_s": _ratio(n["formula.parse.nodes"], t["formula.parse"]),
        "formula.subformulas.calls": c["formula.subformulas"],
        "formula.subformulas.s": t["formula.subformulas"],
        "formula.measures.calls": c["formula.measures"],
        "formula.measures.s": t["formula.measures"],
        "normalform.nf.calls": c["normalform.nf"], "normalform.nf.s": t["normalform.nf"],
        "normalform.clauses": n["normalform.clauses"],
        "normalform.clauses_max": max(setup.maxima["normalform.clauses_max"],
                                      run.maxima["normalform.clauses_max"]),
        "normalform.cnf_growth_exp": growth.get("cnf", 0.0),
        "decide.calls": c["decide"], "decide.self_s": s["decide"],
        "decide.pairs_tried": c["decide.pair"],
        "decide.certify.calls": c["decide.certify"], "decide.certify.s": t["decide.certify"],
        "decide.graft.rename_s": t["decide.graft.rename"],
        "decide.nest_growth_exp": growth.get("nest", 0.0),
        "semantics.eval_all.calls": c["semantics.eval_all"],
        "semantics.eval_all.s": t["semantics.eval_all"],
        "semantics.eval_all.us_per_call":
            1e6 * _ratio(t["semantics.eval_all"], c["semantics.eval_all"]),
        "semantics.cells": n["semantics.cells"],
        "semantics.cells_per_s": _ratio(n["semantics.cells"], t["semantics.eval_all"]),
        "model.dumps.s": t["model.dumps"], "model.dumps.bytes": n["model.dumps.bytes"],
        "model.loads.s": t["model.loads"],
        "model.classify.calls": c["model.classify"], "model.classify.s": t["model.classify"],
        "model.rows": n["model.rows"], "model.profiles_walked": n["model.profiles_walked"],
        "model.row_ratio": _ratio(n["model.rows"], n["model.profiles_walked"]),
        "model.generate.s": t["model.generate"],
        "oracle.search.calls": c["oracle.search"], "oracle.search.s": t["oracle.search"],
        "oracle.models_checked": n["oracle.models_checked"],
        "oracle.found_ratio": _ratio(n["oracle.found"], c["oracle.search"]),
        "oracle.scheme.models": n["oracle.scheme.models"],
        "oracle.scheme.s": t["oracle.scheme"],
        "trace.overhead_frac": overhead_frac,
    }
    return {name: values[name] for name in PER_LAYER_UNITS}


def op_minima(tracer: Tracer, name: str) -> dict:
    """Per operation key, the least time over passes spent in spans ``name``."""
    best: dict = {}
    for (op, span_name), seconds in tracer.by_op.items():
        if span_name == name and op is not None:
            key = op[0]
            best[key] = min(seconds, best.get(key, seconds))
    return best
