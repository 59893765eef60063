"""The benchmark's tracer (bench/spans.py) wraps mcl functions by module
attribute name, so a renamed or dropped import breaks every traced run.
This guard makes such a break fail here too."""

import importlib.util
from pathlib import Path

import mcl
import mcl.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = (mcl.cli, mcl.formula, mcl.decide, mcl.normalform, mcl.semantics,
           mcl.model, mcl.oracle)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_and_uninstalls_on_mcl():
    before = [dict(vars(module)) for module in MODULES]
    tracer = _load_spans().Tracer()
    try:
        tracer.install(mcl)
        u = mcl.AgentUniverse.of("a", "b")
        f = mcl.formula.parse("(<{a}>p & <{b}>q) -> <{a,b}>(p & q)", u)
        assert not mcl.decide.decide_valid(f, u).valid
    finally:
        tracer.uninstall()
    assert [dict(vars(module)) for module in MODULES] == before
    assert tracer.calls["formula.parse"] == 1
    assert tracer.calls["decide"] == 1
    assert tracer.calls["decide.pair"] >= 1
    assert tracer.calls["decide.certify"] == 1
