"""Command-line surface: one process per invocation, all state on disk.

Exit status: 0 on success, 1 on semantic errors (bad formula or model,
failed fuzz run, memory run out, or input nested too deeply), 2 on usage
errors, 3 on an internal error (a produced model failed its own
model-checking certificate).  Errors print one ``error:`` or ``internal
error:`` line on standard error; the internal-error line ends with the
input formula, whitespace collapsed, when the command reads a formula.
``--agents`` fixes the grand coalition and its canonical order for
everything downstream; when omitted, it defaults to the agents the formula
mentions.

Subcommands are declared in ``_COMMANDS``: name, handler, help text and
argument specs in help order.  ``build_parser`` loops over that table, adds
the required ``--formula | --formula-file`` group where a spec names
``_FORMULA``, and gives every subcommand ``--format``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import model as model_io
from .decide import (CertificationError, ClauseOutcome, decide_sat,
                     decide_valid)
from .formula import (AgentUniverse, Formula, ParseError, agents_mentioned,
                      check_name, modal_depth, parse, pretty)
from .model import ModelError, classify, load_fixture
from .normalform import to_standard_conjunction
from .oracle import DifferentialConfig, SearchBounds, differential_run
from .semantics import PointedModel, holds


def _names(text: str) -> tuple[str, ...]:
    """The comma-separated names of --agents or --atoms; each must be one
    the formula grammar can write."""
    return tuple(check_name(a.strip()) for a in text.split(",") if a.strip())


def _universe(text: str | None, formula_text: str | None = None) -> AgentUniverse:
    """Grand coalition from --agents, or (by default) from the agents the
    formula mentions; a fresh singleton when it mentions none."""
    if text is not None:
        return AgentUniverse(_names(text))
    return AgentUniverse(agents_mentioned(formula_text or "") or ("a",))


def _formula(args, universe: AgentUniverse | None = None
             ) -> tuple[Formula, AgentUniverse]:
    """The parsed formula and its universe (by default from ``--agents`` or
    the formula, see ``_universe``).  ``--formula-file`` is read into
    ``args.formula`` so that an error report can quote it."""
    if args.formula is None:
        with open(args.formula_file, encoding="utf-8") as fh:
            args.formula = fh.read()
    if universe is None:
        universe = _universe(args.agents, args.formula)
    return parse(args.formula, universe), universe


def _load_model(path: str):
    try:
        return load_fixture(path)
    except ModelError:
        return model_io.load(path)


def _trace_json(trace: tuple[ClauseOutcome, ...]) -> list[dict]:
    out = []
    for entry in trace:
        out.append({
            "clause": entry.clause.render() if entry.clause else None,
            "case": entry.case,
            "pair": list(entry.pair) if entry.pair else None,
            "failed_pairs": [list(p) for p in entry.failed_pairs],
        })
    return out


def _trace_text(trace: tuple[ClauseOutcome, ...]) -> list[str]:
    lines = []
    for k, entry in enumerate(trace):
        if entry.case == "propositional":
            lines.append(f"clause {k}: settled by truth table")
            continue
        head = f"clause {k}: {entry.clause.render()}"
        if entry.case == "gamma":
            lines.append(head + "\n  valid: gamma is a tautology")
        elif entry.case == "pair":
            i, j = entry.pair
            lines.append(head + f"\n  valid: reduction of pair (ni {i}, pi {j})")
        else:
            pairs = ", ".join(f"({i},{j})" for i, j in entry.failed_pairs)
            lines.append(head + f"\n  refuted: every pair failed [{pairs}]")
    return lines


def cmd_parse(args) -> int:
    f, _ = _formula(args)
    if args.format == "json":
        print(json.dumps({"formula": pretty(f), "depth": modal_depth(f)}))
    else:
        print(pretty(f))
    return 0


def cmd_depth(args) -> int:
    f, _ = _formula(args)
    print(modal_depth(f))
    return 0


def cmd_nf(args) -> int:
    f, universe = _formula(args)
    clauses = [c.render() for c in to_standard_conjunction(f, universe)]
    if args.format == "json":
        print(json.dumps({"clauses": clauses}))
    else:
        for line in clauses:
            print(line)
    return 0


def cmd_classify(args) -> int:
    m = _load_model(args.model)
    summary = classify(m)
    if args.format == "json":
        print(json.dumps({
            "is_gcgm": summary.is_gcgm,
            "is_cgm": summary.is_cgm,
            "serial": summary.serial,
            "independent": summary.independent,
            "deterministic": summary.deterministic,
            "witnesses": summary.witnesses,
        }))
    elif summary.is_cgm:
        print("CGM: serial, independent, deterministic")
    else:
        print("GCGM: " + "; ".join(summary.witnesses))
    return 0


def cmd_mc(args) -> int:
    m = _load_model(args.model)
    f, _ = _formula(args, m.universe)
    value = holds(PointedModel(m, args.state), f)
    if args.format == "json":
        print(json.dumps({"verdict": value}))
    else:
        print("true" if value else "false")
    return 0


def _emit_model(pm: PointedModel, path: str | None) -> str | None:
    if path is None:
        return None
    model_io.save(pm.model, path)
    return path


def cmd_valid(args) -> int:
    f, universe = _formula(args)
    verdict = decide_valid(f, universe)
    trace = (_trace_json if args.format == "json" else _trace_text)(verdict.trace)
    path = None if verdict.valid else _emit_model(verdict.countermodel,
                                                  args.countermodel_out)
    if args.format == "json":
        print(json.dumps({
            "verdict": "valid" if verdict.valid else "invalid",
            "countermodel_path": path,
            "countermodel_state": None if verdict.valid else verdict.countermodel.state,
            "trace": trace,
        }))
    else:
        lines = ["VALID" if verdict.valid else "INVALID"]
        if not verdict.valid:
            lines.append(f"countermodel state: {verdict.countermodel.state}"
                         + (f" (written to {path})" if path else ""))
        print("\n".join(lines + trace))
    return 0


def cmd_sat(args) -> int:
    f, universe = _formula(args)
    verdict = decide_sat(f, universe)
    trace = _trace_json(verdict.trace) if args.format == "json" else None
    path = _emit_model(verdict.witness, args.witness_out) \
        if verdict.satisfiable else None
    if args.format == "json":
        print(json.dumps({
            "verdict": "satisfiable" if verdict.satisfiable else "unsatisfiable",
            "countermodel_path": path,
            "witness_state": verdict.witness.state if verdict.satisfiable else None,
            "trace": trace,
        }))
    else:
        print("SATISFIABLE" if verdict.satisfiable else "UNSATISFIABLE")
        if verdict.satisfiable:
            print(f"witness state: {verdict.witness.state}"
                  + (f" (written to {path})" if path else ""))
    return 0


def cmd_countermodel(args) -> int:
    f, universe = _formula(args)
    verdict = decide_valid(f, universe)
    if verdict.valid:
        print("error: formula is valid; no countermodel exists", file=sys.stderr)
        return 1
    path = _emit_model(verdict.countermodel, args.out)
    if args.format == "json":
        print(json.dumps({"countermodel_path": path,
                          "countermodel_state": verdict.countermodel.state}))
    else:
        print(f"{verdict.countermodel.state} (written to {path})")
    return 0


def cmd_fuzz(args) -> int:
    bounds = SearchBounds(
        universe=_universe(args.agents),
        max_states=args.max_states,
        max_actions=args.max_actions,
        atoms=_names(args.atoms),
        mode="sampled",
        n_samples=args.samples,
        seed=args.seed,
    )
    config = DifferentialConfig(
        bounds=bounds,
        n_formulas=args.formulas,
        max_depth=args.depth,
        scheme_models=args.scheme_models,
    )
    report = differential_run(config)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(report.to_text())
    return 0 if report.ok else 1


_FORMULA = "--formula | --formula-file"  # marker: the required formula group
_AGENTS = ("--agents", {"help": "comma-separated agent names fixing the grand "
                        "coalition and its canonical order (default: the "
                        "agents the formula mentions)"})

_COMMANDS = (
    ("parse", cmd_parse, "echo the lowered core formula", (_AGENTS, _FORMULA)),
    ("depth", cmd_depth, "print the modal depth", (_AGENTS, _FORMULA)),
    ("nf", cmd_nf, "print the standard clauses", (_AGENTS, _FORMULA)),
    ("classify", cmd_classify, "report model properties", (
        ("--model", {"required": True, "help": "model file, or a bundled "
                     "name (two_masks, one_mask)"}),)),
    ("mc", cmd_mc, "truth value at a state", (
        ("--model", {"required": True}), ("--state", {"required": True}),
        _FORMULA)),
    ("valid", cmd_valid, "decide validity", (
        _AGENTS, _FORMULA,
        ("--countermodel-out", {"help": "write the countermodel here"}))),
    ("sat", cmd_sat, "decide satisfiability", (
        _AGENTS, _FORMULA,
        ("--witness-out", {"help": "write the witness model here"}))),
    ("countermodel", cmd_countermodel,
     "build a countermodel for an invalid formula", (
         _AGENTS, _FORMULA, ("--out", {"required": True}))),
    ("fuzz", cmd_fuzz, "differential run: decider vs search", (
        ("--agents", {"required": True, "help": "comma-separated agent names "
                      "(no formula to scan)"}),
        ("--atoms", {"default": "p,q"}),
        ("--formulas", {"type": int, "default": 50}),
        ("--depth", {"type": int, "default": 2}),
        ("--max-states", {"type": int, "default": 3}),
        ("--max-actions", {"type": int, "default": 2}),
        ("--samples", {"type": int, "default": 200}),
        ("--scheme-models", {"type": int, "default": 0}),
        ("--seed", {"type": int, "default": 0}))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcl",
        description="Minimal coalition logic: parse, model-check, decide, refute.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text, specs in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for spec in specs:
            if spec is _FORMULA:
                group = sub.add_mutually_exclusive_group(required=True)
                group.add_argument("--formula", help="formula text")
                group.add_argument("--formula-file",
                                   help="read the formula from a file")
            else:
                sub.add_argument(spec[0], **spec[1])
        sub.add_argument("--format", choices=("human", "json"), default="human")
        sub.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except CertificationError as exc:
        text = getattr(args, "formula", None)
        where = "" if text is None else f" (formula: {' '.join(text.split())})"
        print(f"internal error: {exc}{where}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
