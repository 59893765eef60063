"""Seeded benchmark for mcl.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ``src/``.
Load comes from this single-threaded process in a closed loop with one
client: each operation starts when the previous one returns.  The timed
region runs whole passes over the workload's operations until ``--seconds``
have elapsed; outputs are checked after it.

Timings are the best of repeated passes: each operation's latency is its
minimum over the passes, ``latency_p50_ms``/``latency_tail_ms`` are
percentiles of those over the operations, and ``ops_per_s`` is the
closed-loop throughput they give (operations per pass over their summed
latency).  On a shared host, interference only ever slows an operation down
and comes and goes: on a 2-vCPU virtual machine (Python 3.11), medians over
passes moved by 20-30% between runs of identical work where these best-of
figures moved by 3-8%.  ``setup_s`` is the median of the set-ups run
before each pass (at least nine).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced (spans around the cross-module calls, see
``spans.py``) and reports per-layer metrics for one traced set-up plus one
pass.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run metadata and input provenance, also written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

import spans  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

MIN_SETUPS = 9
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "ok_frac": "frac", "peak_rss_mb": "MB",
    "countermodel_states": "count", "countermodel_actions": "count",
    "countermodel_rows": "count",
}


class SetupError(RuntimeError):
    """The program under test could not be imported from ``src/``."""


def fresh_import():
    """Import mcl from ``src/`` anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "mcl" or n.startswith("mcl.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        mcl = importlib.import_module("mcl")
        importlib.import_module("mcl.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import mcl from {SRC}: {exc}") from exc
    if not os.path.abspath(mcl.__file__).startswith(SRC + os.sep):
        raise SetupError(f"mcl was imported from {mcl.__file__}, not from {SRC}")
    return mcl


def timed_setup(workload, seed: int):
    """One import + input generation + loads/parse; (seconds, mcl, inputs)."""
    start = perf_counter()
    mcl = fresh_import()
    inp = workload.setup(mcl, seed)
    return perf_counter() - start, mcl, inp


class Runner:
    """Times operations in a closed loop and keeps what the checks need:
    the first output of each operation key and a digest of every later one."""

    def __init__(self, digest, tracer=None):
        self.digest = digest
        self.tracer = tracer
        self.latencies: list[float] = []
        self.executions: list[tuple] = []  # (key, digest or None, error or None)
        self.first: dict = {}  # key -> (digest, output)
        self.pass_index = 0

    def op(self, key, fn):
        if self.tracer is not None:
            self.tracer.op = (key, self.pass_index)
        start = perf_counter()
        try:
            raw = fn()
        except (Exception, SystemExit) as exc:  # every failure is counted, none aborts
            self.latencies.append(perf_counter() - start)
            self.executions.append((key, None, f"{type(exc).__name__}: {exc}"[:300]))
            return None
        self.latencies.append(perf_counter() - start)
        digest = self.digest(raw)
        self.first.setdefault(key, (digest, raw))
        self.executions.append((key, digest, None))
        return raw

    def run(self, workload, mcl, inp, seconds: float,
            between=None) -> list[tuple[int, float]]:
        """Whole passes until their summed time reaches ``seconds``; returns
        (operations, seconds) per pass.  ``between()`` runs before every pass
        but the first, outside the timed passes.  Each pass starts after a
        garbage collection, so passes start from the same heap state."""
        passes: list[tuple[int, float]] = []
        while True:
            if passes and between is not None:
                between()
            gc.collect()
            self.pass_index = len(passes)
            done = len(self.latencies)
            start = perf_counter()
            workload.run_pass(mcl, inp, self)
            passes.append((len(self.latencies) - done, perf_counter() - start))
            if sum(t for _, t in passes) >= seconds:
                return passes


def check_outputs(workload, mcl, inp, runners) -> tuple[int, int, list]:
    """(check failures, failed executions, failure samples) over all runners.

    Each distinct output is checked once; an execution fails when it raised,
    when its output differs from the first execution of the same operation,
    or when that output fails its check."""
    first = {}
    for runner in runners:
        for key, (digest, raw) in runner.first.items():
            first.setdefault(key, (digest, raw))
    raws = {key: raw for key, (_, raw) in first.items()}
    verdicts = {}
    for key, (_, raw) in first.items():
        try:
            verdicts[key] = workload.check(mcl, inp, key, raw, raws)
        except (Exception, SystemExit) as exc:
            verdicts[key] = f"check raised {type(exc).__name__}: {exc}"[:300]
    bad_checks = sum(v is not None for v in verdicts.values())
    failed, samples = 0, []
    for runner in runners:
        for key, digest, error in runner.executions:
            reason = error
            if reason is None and digest != first[key][0]:
                reason = "output differs from the first execution"
                bad_checks += 1
            if reason is None:
                reason = verdicts[key]
            if reason is not None:
                failed += 1
                if len(samples) < 20:
                    samples.append({"op": repr(key), "reason": reason})
    return bad_checks, failed, samples


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples
    beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50.0


def per_operation(runner) -> list[float]:
    """Latency of each operation: its minimum over the passes that ran it."""
    by_key: dict = {}
    for (key, _, _), latency in zip(runner.executions, runner.latencies):
        by_key.setdefault(key, []).append(latency)
    return [min(v) for v in by_key.values()]


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, tail: float | None) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "latency_tail_percentile": tail,
        "latency": "minimum over passes per operation; p50 and tail over operations",
        "load": "closed loop, one client, single-threaded, in-process",
    }


def throughput(latencies: list[float]) -> float:
    """Operations per second of one pass of the closed loop, each operation
    taking its per-operation latency."""
    return len(latencies) / sum(latencies)


def run_workload(args) -> dict:
    workload = workloads.WORKLOADS[args.workload](workdir=args.workdir)
    setup_s, mcl, inp = timed_setup(workload, args.seed)
    setup_times = [setup_s]
    tracer = None

    if args.trace == 0:
        # further set-ups run between the passes, so that their median, like
        # the best-of timings, samples the whole run rather than its start
        def set_up_again():
            setup_times.append(timed_setup(workload, args.seed)[0])

        runner = Runner(workload.digest)
        passes = runner.run(workload, mcl, inp, args.seconds, set_up_again)
        while len(setup_times) < MIN_SETUPS:
            set_up_again()
        setup_s = statistics.median(setup_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runners = [runner]
    else:
        untraced = Runner(workload.digest)
        untraced.run(workload, mcl, inp, args.seconds / 2)
        setup_tracer, tracer = spans.Tracer(), spans.Tracer()
        setup_tracer.install(mcl)
        try:
            traced_inp = workload.setup(mcl, args.seed)  # e.g. loads of the arenas
        finally:
            setup_tracer.uninstall()
        tracer.install(mcl)
        try:
            runner = Runner(workload.digest, tracer)
            passes = runner.run(workload, mcl, traced_inp, args.seconds / 2)
        finally:
            tracer.uninstall()
        runners = [untraced, runner]

    bad_checks, failed, failure_samples = check_outputs(workload, mcl, inp, runners)
    attempted = sum(len(r.executions) for r in runners)
    details = workload.report(mcl, inp, runner)
    traffic = workload.traffic(inp, runner)
    problems = [f"traffic {k}: expected {v!r}, got {traffic.get(k)!r}"
                for k, v in workload.TRAFFIC.items() if traffic.get(k) != v]
    provenance = {"inputs_sha256": workload.input_digest(inp), "traffic": traffic}

    lat = per_operation(runner)
    tail = tail_percentile(len(lat))
    if args.trace == 0:
        try:
            cm = workloads.countermodel_totals(mcl, args.seed)
        except (Exception, SystemExit) as exc:
            problems.append(f"countermodel totals raised {type(exc).__name__}: {exc}")
            cm = {"states": 0, "actions": 0, "rows": 0}
        values = {
            "setup_s": setup_s,
            "ops_per_s": throughput(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * percentile(lat, tail),
            "ok_frac": 1 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
            "countermodel_states": cm["states"],
            "countermodel_actions": cm["actions"],
            "countermodel_rows": cm["rows"],
        }
        units = END_TO_END_UNITS
        details["failed_frac"] = failed / attempted
        details["setups"] = len(setup_times)
        details["countermodels"] = cm
    else:
        overhead = 1 - throughput(lat) / throughput(per_operation(untraced))
        growth = {}
        if workload.name == "decide-structured":
            growth = structured_growth(tracer)
        values = spans.per_layer(setup_tracer, tracer, len(passes), growth, overhead)
        units = spans.PER_LAYER_UNITS
        details["aggregates_per_pass_by_parent_s"] = {
            f"{name} in {parent}": seconds / len(passes)
            for (name, parent), seconds in sorted(tracer.by_parent.items(), key=str)}
        details["kept_spans"] = len(tracer.spans)
        details["dropped_spans"] = tracer.dropped

    details.update({"passes": len(passes), "ops_per_pass": passes[0][0],
                    "pass_ops_per_s": [n / t for n, t in passes],
                    "timed_s": sum(t for _, t in passes),
                    "samples": len(runner.latencies), "operations": len(lat),
                    "failures": failure_samples, "provenance": provenance,
                    "provenance_problems": problems})
    return {
        "correct": bad_checks == 0 and not problems and failed < attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "meta": metadata(args, tail),
        "details": details,
        "tracer": tracer,
    }


def structured_growth(tracer) -> dict:
    """Growth exponents from the per-operation spans of the ladders: decide
    time against n on the nest ladder, normal-form time against clause
    count on the CNF-width ladder."""
    decide = spans.op_minima(tracer, "decide")
    nf = spans.op_minima(tracer, "normalform.nf")
    nest = [(n, t) for (family, n), t in decide.items() if family == "nest"]
    cnf = [(2 ** n, t) for (family, n), t in nf.items() if family == "cnf"]
    return {"nest": spans.growth_exponent(nest), "cnf": spans.growth_exponent(cnf)}


def write_results(args, result: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {k: v for k, v in result.items() if k != "tracer"}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=str)
    tracer = result["tracer"]
    if tracer is not None:
        with gzip.open(stem + ".spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in tracer.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": repr(op),
                                     "name": name, "start": start, "end": end}) + "\n")


def print_result(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"meta": result["meta"], "details": result["details"]}, default=str))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        combined[name] = json.loads(lines[-1])
        print(f"== {name}")
        print("\n".join(lines[:-2]))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    args.workdir = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    os.makedirs(args.workdir, exist_ok=True)
    try:
        result = run_workload(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    write_results(args, result)
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
