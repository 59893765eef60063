import json
import shlex
from pathlib import Path

import pytest

import mcl.cli
import mcl.decide
import mcl.model
from mcl import PointedModel, dumps, holds, load_fixture, loads, parse, save
from mcl.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


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
    assert err == "error: formula is valid; no countermodel exists\n"


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
    # oracle.random_formula recurses once per level of --depth
    ("fuzz", "--agents", "a", "--depth", "3000", "--formulas", "1"),
    # deep parentheses with one closer missing
    ("parse", "--agents", "a", "--formula", "(" * 3000 + "p" + ")" * 2999),
    # fuzz configurations that cannot generate a formula
    ("fuzz", "--agents", "a", "--atoms", ",", "--formulas", "2"),
    ("fuzz", "--agents", "a", "--atoms", ",", "--formulas", "0",
     "--scheme-models", "1"),
    ("fuzz", "--agents", "a", "--depth", "0"),
    # negative counts
    ("fuzz", "--agents", "a", "--formulas", "-2"),
    ("fuzz", "--agents", "a", "--formulas", "1", "--samples", "-1"),
    ("fuzz", "--agents", "a", "--scheme-models", "-3"),
])
def test_deep_nesting_exits_1_without_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


_PAIR_CHAIN = "<{a}>" * 1000 + "p"  # each <{a}> costs one pair reduction


def test_pair_chains_decide(capsys):
    code, out, err = run(capsys, "valid", "--agents", "a",
                         "--formula", f"{_PAIR_CHAIN} -> {_PAIR_CHAIN}")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "VALID"


@pytest.mark.parametrize("argv, expected", [
    (("parse", "--agents", "a", "--formula", "(" * 3000 + "p" + ")" * 3000), "p\n"),
    (("nf", "--agents", "a", "--formula",
      "p | (<{a}>q & " + "(" * 3000 + "<{a}>r" + ")" * 3000 + ")"),
     "p | (true -> <{a}>q | <{a}>~true)\np | (true -> <{a}>r | <{a}>~true)\n"),
], ids=["parse", "nf"])
def test_deep_parentheses_succeed(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("argv, name", [
    (("valid", "--agents", "a,b-c", "--formula", "<{a}>p"), "b-c"),
    (("parse", "--agents", "a,true", "--formula", "<{true}>p"), "true"),
    (("nf", "--agents", "a,1b", "--formula", "<{a}>p"), "1b"),
    (("fuzz", "--agents", "a", "--atoms", "p,box"), "box"),
    (("fuzz", "--agents", "a", "--atoms", "p,q r"), "q r"),
])
def test_names_the_grammar_cannot_write_exit_1(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("error: not a name formulas can write (an identifier other "
                   f"than true, false, box, dia): {name!r}\n")


def test_classify_rejects_a_name_formulas_cannot_write(capsys, tmp_path):
    doc = mcl.model.to_json_dict(load_fixture("two_masks"))
    doc["agents"] = ["a", "b-c"]
    target = tmp_path / "m.json"
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", "--model", str(target))
    assert (code, out) == (1, "")
    assert err == ("error: agents[1]: not a name formulas can write (an identifier "
                   "other than true, false, box, dia): 'b-c'\n")


@pytest.mark.parametrize("argv", [
    ("valid", "--formula", "<{a}>" * 3000 + "p", "--countermodel-out"),
    ("valid", "--formula", "<{a}>" * 3000 + "p", "--format", "json",
     "--countermodel-out"),
    ("sat", "--formula", "~" + "<{a}>" * 3000 + "p", "--format", "json",
     "--witness-out"),
])
def test_deep_trace_writes_its_model(capsys, tmp_path, argv):
    target = tmp_path / "model.json"
    code, out, err = run(capsys, *argv, str(target))
    assert (code, err) == (0, "")
    if "json" in argv:
        payload = json.loads(out)
        assert payload["countermodel_path"] == str(target)
        state = payload.get("countermodel_state") or payload["witness_state"]
        clause = payload["trace"][0]["clause"]
    else:
        lines = out.splitlines()
        assert lines[:2] == ["INVALID", f"countermodel state: s0 (written to {target})"]
        state, clause = "s0", lines[2].partition(": ")[2]
    assert clause == "false | (true -> " + "<{a}>" * 3000 + "p | <{a}>~true)"
    text = target.read_text(encoding="utf-8")
    model = loads(text)
    assert dumps(model) + "\n" == text
    f = parse(argv[2], model.universe)
    assert holds(PointedModel(model, state), f) == (argv[0] == "sat")


def test_model_path_is_not_shadowed_by_a_json_sibling(capsys, tmp_path):
    save(load_fixture("one_mask"), str(tmp_path / "m"))
    save(load_fixture("two_masks"), str(tmp_path / "m.json"))
    code, out, _ = run(capsys, "classify", "--model", str(tmp_path / "m"))
    assert code == 0 and out.startswith("GCGM: not serial: s1")
    code, out, _ = run(capsys, "mc", "--model", str(tmp_path / "m"),
                       "--state", "s0", "--formula", "<{a,b}>(m_a & m_b)")
    assert (code, out) == (0, "false\n")  # two_masks would say true


def test_certification_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(mcl.decide, "holds", lambda pm, f: True)
    code, _, err = run(capsys, "valid", "--agents", "a,b", "--formula", "<{a}>p")
    assert code == 3
    assert err.startswith("internal error:") and len(err.splitlines()) == 1
    assert err.rstrip().endswith("(formula: <{a}>p)")


def test_out_of_memory_exits_1_without_traceback(capsys, monkeypatch):
    def exhausted(f, universe):
        raise MemoryError
    monkeypatch.setattr(mcl.cli, "decide_valid", exhausted)
    code, _, err = run(capsys, "valid", "--formula", "p")
    assert code == 1
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("source", ["argv", "file"])
def test_certification_failure_writes_nothing(capsys, monkeypatch, tmp_path, source):
    monkeypatch.setattr(mcl.decide, "holds", lambda pm, f: True)
    text = "  <{a}>p\n\t&  <{b}>q \n"
    if source == "file":
        (tmp_path / "f.mcl").write_text(text, encoding="utf-8")
        formula = ["--formula-file", str(tmp_path / "f.mcl")]
    else:
        formula = ["--formula", text]
    out_path = tmp_path / "refutation.json"
    code, out, err = run(capsys, "valid", "--agents", "a,b", *formula,
                         "--countermodel-out", str(out_path))
    assert (code, out) == (3, "")
    assert not out_path.exists()
    assert err.startswith("internal error: countermodel does not refute the formula")
    assert len(err.splitlines()) == 1
    assert err.endswith(" (formula: <{a}>p & <{b}>q)\n")


def test_usage_errors_exit_2(capsys):
    for argv in (["valid", "--agents", "a,b"],  # formula missing
                 ["no-such-command"],
                 ["classify"],
                 ["mc", "--model", "one_mask", "--formula", "p"],
                 ["countermodel", "--formula", "p"],
                 ["fuzz"],
                 ["parse", "--formula", "p", "--formula-file", "f.mcl"],
                 ["parse"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_fuzz_clean_run_exits_zero(capsys):
    code, out, _ = run(capsys, "fuzz", "--agents", "a,b", "--formulas", "10",
                       "--samples", "120", "--scheme-models", "40",
                       "--seed", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["formulas_checked"] == 10
    assert payload["discrepancies"] == []


def test_deep_fuzz_formula_is_decided_and_certified(capsys):
    # the drawn formula's refutations share sub-refutations; assembled as a
    # tree, its countermodel would not fit in memory
    code, out, _ = run(capsys, "fuzz", "--agents", "a", "--depth", "100",
                       "--formulas", "1", "--samples", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["formulas_checked"] == 1
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


def test_deep_prefix_chain_from_a_file(capsys, tmp_path):
    # 500 kB: too long for an argv, and parsed, measured and model-checked
    # without recursion
    source = tmp_path / "deep.mcl"
    source.write_text("<{a}>" * 100_000 + "true", encoding="utf-8")
    assert run(capsys, "mc", "--model", "two_masks", "--state", "s0",
               "--formula-file", str(source)) == (0, "true\n", "")
    assert run(capsys, "depth", "--agents", "a",
               "--formula-file", str(source)) == (0, "100000\n", "")


_FORMULA_DEFAULTS = {"agents": None, "formula": "p", "formula_file": None}


@pytest.mark.parametrize("argv, expected", [
    (["parse", "--formula", "p"], {**_FORMULA_DEFAULTS, "run": mcl.cli.cmd_parse}),
    (["depth", "--formula", "p"], {**_FORMULA_DEFAULTS, "run": mcl.cli.cmd_depth}),
    (["nf", "--formula", "p"], {**_FORMULA_DEFAULTS, "run": mcl.cli.cmd_nf}),
    (["classify", "--model", "m"], {"model": "m", "run": mcl.cli.cmd_classify}),
    (["mc", "--model", "m", "--state", "s0", "--formula", "p"],
     {"model": "m", "state": "s0", "formula": "p", "formula_file": None,
      "run": mcl.cli.cmd_mc}),
    (["valid", "--formula", "p"],
     {**_FORMULA_DEFAULTS, "countermodel_out": None, "run": mcl.cli.cmd_valid}),
    (["sat", "--formula", "p"],
     {**_FORMULA_DEFAULTS, "witness_out": None, "run": mcl.cli.cmd_sat}),
    (["countermodel", "--formula", "p", "--out", "o"],
     {**_FORMULA_DEFAULTS, "out": "o", "run": mcl.cli.cmd_countermodel}),
    (["fuzz", "--agents", "a"],
     {"agents": "a", "atoms": "p,q", "formulas": 50, "depth": 2,
      "max_states": 3, "max_actions": 2, "samples": 200, "scheme_models": 0,
      "seed": 0, "run": mcl.cli.cmd_fuzz}),
])
def test_argument_defaults(argv, expected):
    args = build_parser().parse_args(argv)
    assert vars(args) == {"command": argv[0], "format": "human", **expected}


def _readme_commands():
    """(argv, expected output or None) for each ``mcl`` line of README's
    "Command line" block; a trailing ``...`` makes the output a prefix."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.strip().startswith("mcl "):
            expected = comment.strip()[2:].strip() \
                if comment.strip().startswith("->") else None
            commands.append((shlex.split(command)[1:], expected))
    return commands


def test_readme_command_line_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 9
    for argv, expected in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if expected is None:
            continue
        if expected.endswith("..."):
            assert out.startswith(expected[:-3]), (argv, out)
        else:
            assert out.strip() == expected, (argv, out)
