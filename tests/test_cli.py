"""Command-line interface: exit codes, outputs, file handling."""

from __future__ import annotations

import json

from alcsat.cli import main
from conftest import ANIMAL_TEXT


def test_check_unsat_exit_1(capsys):
    assert main(["check", "A & !A"]) == 1
    assert capsys.readouterr().out.strip() == "UNSAT"


def test_check_sat_exit_0(capsys):
    assert main(["check", "A | !A"]) == 0
    assert capsys.readouterr().out.strip() == "SAT"


def test_check_parse_error_exit_2(capsys):
    assert main(["check", "A &"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_check_reads_concept_files_with_comments(tmp_path, capsys):
    path = tmp_path / "animal.alc"
    path.write_text(
        "# the animal example\n" + ANIMAL_TEXT + "  # satisfiable\n",
        encoding="utf-8",
    )
    assert main(["check", "--strategy", "plus", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "SAT"


def test_check_deep_negation_exits_with_a_verdict(capsys):
    assert main(["check", "!" * 5000 + "A"]) == 0
    assert main(["check", "!" * 5001 + "A & A"]) == 1
    assert capsys.readouterr().out.split() == ["SAT", "UNSAT"]


def test_check_long_conjunction_exits_with_a_verdict(capsys):
    chain = " & ".join(f"A{i}" for i in range(3000))
    assert main(["check", chain]) == 0
    assert main(["check", chain + " & !A1234"]) == 1
    assert capsys.readouterr().out.split() == ["SAT", "UNSAT"]


def test_check_strategy_flag_and_trace_files(tmp_path, capsys):
    trace_json = tmp_path / "trace.json"
    trace_dot = tmp_path / "trace.dot"
    assert main(["check", "--strategy", "basic", "--trace", str(trace_json), ANIMAL_TEXT]) == 0
    assert main(["check", "--strategy", "plus", "--trace", str(trace_dot), ANIMAL_TEXT]) == 0
    capsys.readouterr()
    trace = json.loads(trace_json.read_text())
    assert trace["strategy"] == "basic"
    assert len(trace["nodes"]) == 11
    dot = trace_dot.read_text()
    assert dot.startswith("digraph")
    assert dot.count("->") == 7


def test_check_model_output(capsys):
    assert main(["check", "--model", "A & exists R.B"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "SAT"
    model = json.loads(out[1])
    assert model["names"]["A"] == [0]
    assert model["names"]["B"] == [1]
    assert model["roles"]["R"] == [[0, 1]]


def test_check_oracle_agreement(capsys):
    assert main(["check", "--oracle", "exists R.(A & !A)"]) == 1


def test_check_resource_limit_exit_4(capsys):
    assert main(["check", "--max-nodes", "2", ANIMAL_TEXT]) == 4
    assert "resource limit" in capsys.readouterr().err


def test_cnf_prints_clause_set_json(capsys):
    assert main(["cnf", "(A & B) | C"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [
        [{"pos": "A"}, {"pos": "C"}],
        [{"pos": "B"}, {"pos": "C"}],
    ]


def test_fuzz_clean_batch_exit_0(capsys):
    assert main(["fuzz", "--trials", "100", "--seed", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == 100
    assert report["disagreements"] == []
    assert report["seed"] == 7


def test_fuzz_zero_trials_usage_error(capsys):
    assert main(["fuzz", "--trials", "0"]) == 2


def test_fuzz_propositional_only(capsys):
    assert main(["fuzz", "--trials", "10", "--max-depth", "1", "--roles", "0"]) == 0


def test_trace_replay_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    assert main(["check", "--trace", str(trace_path), ANIMAL_TEXT]) == 0
    capsys.readouterr()
    assert main(["trace-replay", str(trace_path)]) == 0
    assert "trace ok" in capsys.readouterr().out


def test_trace_replay_rejects_tampered_trace(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    assert main(["check", "--trace", str(trace_path), ANIMAL_TEXT]) == 0
    trace = json.loads(trace_path.read_text())
    trace["verdict"] = "unsat"
    trace_path.write_text(json.dumps(trace))
    capsys.readouterr()
    assert main(["trace-replay", str(trace_path)]) == 1


def test_trace_replay_missing_file_exit_2(capsys):
    assert main(["trace-replay", "/nonexistent/trace.json"]) == 2


def test_usage_error_exit_2():
    assert main(["check"]) == 2
    assert main(["no-such-command"]) == 2
