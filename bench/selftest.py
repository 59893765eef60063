"""Small-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload for one pass on shrunken inputs, with tracing off and
on, and checks that each metric named in BENCHMARK.json is reported with its
unit.  Then corrupts one countermodel on its way to disk and checks that the
run counts exactly that operation as failed.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from types import SimpleNamespace

import run
import workloads


def shrink() -> None:
    workloads.DecideRandom.corpus_size = 12
    workloads.ModelCheck.corpus_size = 2
    workloads.Fuzz.calls = 2
    workloads.Fuzz.formulas, workloads.Fuzz.samples, workloads.Fuzz.scheme_models = 3, 10, 4
    workloads.STRUCTURED_SIZES = {"nest": (5, 10), "neg": (5, 10), "cnf": (2, 3),
                                  "weak": (2, 3)}
    workloads.PROBE_SIZES = {"nest": (20,)}
    for workload in workloads.WORKLOADS.values():
        workload.TRAFFIC = {}  # the recorded traffic is that of the full sizes


def run_once(workload: str, trace: int, workdir: str) -> dict:
    args = SimpleNamespace(workload=workload, seed=1, seconds=0.0, trace=trace,
                           workdir=workdir)
    return run.run_workload(args)


def expected_units(trace: int) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    group = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    return {m["name"]: m["unit"] for m in group}


def check_metrics(workdir: str) -> list[str]:
    problems = []
    for trace in (0, 1):
        wanted = expected_units(trace)
        for name in workloads.WORKLOADS:
            result = run_once(name, trace, workdir)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(wanted))} "
                                f"missing or extra, or units differ")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: correct={result['correct']} "
                                f"failed={result['failed']} {result['details']['failures'][:2]}")
    return problems


def check_corrupted_countermodel(workdir: str) -> list[str]:
    """``valid p`` yields a one-state countermodel with p false; labelling
    every state with every atom makes p true there, so its check must fail.
    ``sat q`` keeps q true under the same corruption and must pass."""
    workloads.DecideRandom.corpus = staticmethod(lambda seed: [("atom", "p"), ("atom", "q")])
    original_import = run.fresh_import

    def corrupting_import():
        mcl = original_import()
        save = mcl.model.save

        def corrupted_save(model, path):
            label = {s: frozenset(model.atoms) for s in model.states}
            save(mcl.model.GameModel(model.universe, model.atoms, model.actions,
                                     model.states, label, dict(model.out_ag)), path)

        mcl.model.save = corrupted_save
        return mcl

    run.fresh_import = corrupting_import
    try:
        result = run_once("decide-random", 0, workdir)
    finally:
        run.fresh_import = original_import
    failed_frac = result["details"]["failed_frac"]
    # per pass: decide p (corrupted), classify p, decide q, classify q
    if result["attempted"] != 4 or result["failed"] != 1 or failed_frac != 0.25:
        return [f"corrupted countermodel: attempted={result['attempted']} "
                f"failed={result['failed']} failed_frac={failed_frac}, expected 4, 1, 0.25"]
    if result["correct"]:
        return ["corrupted countermodel: run still reports correct"]
    return []


def main() -> int:
    shrink()
    os.makedirs(os.path.join(run.BENCH_DIR, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(run.BENCH_DIR, ".work"))
    try:
        problems = check_metrics(workdir) + check_corrupted_countermodel(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
