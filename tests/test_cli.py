import json

import pytest

import mcl.decide
from mcl.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_valid_liveness(capsys):
    code, out, _ = run(capsys, "valid", "--agents", "a,b",
                       "--formula", "~<{a,b}>false")
    assert code == 0
    assert out.splitlines()[0] == "VALID"


def test_mc_on_fixture(capsys):
    code, out, _ = run(capsys, "mc", "--model", "one_mask", "--state", "s0",
                       "--formula", "<{a}>m_a")
    assert code == 0
    assert out.strip() == "true"


def test_classify_fixtures(capsys):
    code, out, _ = run(capsys, "classify", "--model", "two_masks")
    assert code == 0
    assert out.strip() == "CGM: serial, independent, deterministic"
    code, out, _ = run(capsys, "classify", "--model", "one_mask")
    assert code == 0
    assert out.startswith("GCGM: not serial: s1")
    assert "not deterministic: s0, (w,n)" in out


def test_parse_and_depth(capsys):
    code, out, _ = run(capsys, "parse", "--agents", "a,b", "--formula", "box p")
    assert code == 0
    assert out.strip() == "~(<{}>true & ~<{}>p)"
    code, out, _ = run(capsys, "depth", "--agents", "a,b",
                       "--formula", "<{a}><{b}>p & <{}>true")
    assert out.strip() == "2"


def test_nf_lists_clauses(capsys):
    code, out, _ = run(capsys, "nf", "--agents", "a,b", "--formula", "<{a}>p")
    assert code == 0
    assert out.strip() == "false | (true -> <{a}>p | <{a,b}>~true)"


def test_emitted_countermodel_round_trips(capsys, tmp_path):
    target = tmp_path / "countermodel.json"
    formula = "(<{a}>p & <{b}>q) -> <{a,b}>(p & q)"
    code, out, _ = run(capsys, "valid", "--agents", "a,b",
                       "--formula", formula,
                       "--countermodel-out", str(target), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "invalid"
    assert payload["countermodel_path"] == str(target)
    state = payload["countermodel_state"]
    # the file is accepted unchanged by mc (false at the designated state)
    code, out, _ = run(capsys, "mc", "--model", str(target), "--state", state,
                       "--formula", formula)
    assert code == 0 and out.strip() == "false"
    # ... and by classify
    code, out, _ = run(capsys, "classify", "--model", str(target))
    assert code == 0


def test_sat_witness_round_trips(capsys, tmp_path):
    target = tmp_path / "witness.json"
    code, out, _ = run(capsys, "sat", "--agents", "a,b",
                       "--formula", "~<{}>true",
                       "--witness-out", str(target), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "satisfiable"
    code, out, _ = run(capsys, "mc", "--model", str(target),
                       "--state", payload["witness_state"],
                       "--formula", "~<{}>true")
    assert out.strip() == "true"


def test_countermodel_subcommand(capsys, tmp_path):
    target = tmp_path / "model.json"
    code, out, _ = run(capsys, "countermodel", "--agents", "a",
                       "--formula", "<{a}>true", "--out", str(target))
    assert code == 0
    assert target.exists()
    code, _, err = run(capsys, "countermodel", "--agents", "a",
                       "--formula", "~<{a}>false", "--out", str(target))
    assert code == 1
    assert "valid" in err


def test_semantic_errors_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "valid", "--agents", "a,b", "--formula", "<{a}>(")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "mc", "--model", "one_mask", "--state", "s0",
                       "--formula", "<{z}>p")
    assert code == 1
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "classify", "--model", str(missing))
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("valid", "--agents", "a", "--formula", "<{a}>" * 3000 + "p"),
    ("parse", "--agents", "a", "--formula", "~" * 3000 + "p"),
])
def test_deep_nesting_exits_1_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_certification_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(mcl.decide, "holds", lambda pm, f: True)
    code, _, err = run(capsys, "valid", "--agents", "a,b", "--formula", "<{a}>p")
    assert code == 3
    assert err.startswith("internal error:") and len(err.splitlines()) == 1
    assert err.rstrip().endswith("(formula: <{a}>p)")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["valid", "--agents", "a,b"])  # formula missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_fuzz_clean_run_exits_zero(capsys):
    code, out, _ = run(capsys, "fuzz", "--agents", "a,b", "--formulas", "10",
                       "--samples", "120", "--scheme-models", "40",
                       "--seed", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["formulas_checked"] == 10
    assert payload["discrepancies"] == []


def test_agents_default_to_those_mentioned(capsys):
    # the grand coalition defaults to the agents the formula names, so a
    # coalition-monotonicity instance stays valid without --agents
    code, out, _ = run(capsys, "valid", "--formula", "<{a}>p -> <{a,b}>p")
    assert code == 0 and out.splitlines()[0] == "VALID"
    # with a wider explicit universe the instance is still valid
    code, out, _ = run(capsys, "valid", "--agents", "a,b,c",
                       "--formula", "<{a}>p -> <{a,b}>p")
    assert code == 0 and out.splitlines()[0] == "VALID"
    # maximality names only the pair, which is then the grand coalition
    code, out, _ = run(capsys, "valid", "--formula", "~<{}>~p -> <{a,b}>p")
    assert code == 0 and out.splitlines()[0] == "INVALID"


def test_formula_file_input(capsys, tmp_path):
    source = tmp_path / "f.mcl"
    source.write_text("~<{a,b}>false\n", encoding="utf-8")
    code, out, _ = run(capsys, "valid", "--agents", "a,b",
                       "--formula-file", str(source))
    assert code == 0
    assert out.splitlines()[0] == "VALID"
