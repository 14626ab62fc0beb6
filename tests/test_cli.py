"""Command-line interface: exit codes, outputs, file handling."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from alcsat import cli, engine
from alcsat.cli import main
from alcsat.clause_model import Family
from alcsat.engine import (
    DecisionStats,
    DerivationTree,
    RuleApplication,
    Strategy,
    TraceEdge,
    TraceFormatError,
    Verdict,
    _apply_planned,
    _plan,
    decide_sat,
    decode_trace,
    trace_to_dot,
    trace_to_json,
)
from alcsat.normal_form import (
    EMPTY_CLAUSE,
    EMPTY_CLAUSE_SET,
    ExistsLit,
    ForallLit,
    complement,
    to_cnf,
)
from alcsat.syntax import parse_concept
from conftest import ANIMAL_TEXT, complement_by_round_trip, modal_3cnf, plan_with_a2_anywhere

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize(
    "text",
    [
        "!" * 5000 + "A",
        " & ".join(f"A{i}" for i in range(3000)),
        " | ".join(f"A{i}" for i in range(3000)),
    ],
    ids=["negations", "conjunction", "disjunction"],
)
def test_check_oracle_on_deep_input_exits_with_a_verdict(text, capsys):
    # The oracle's negation normal form and its disjunction branching
    # keep their own stacks.
    assert main(["check", "--oracle", text]) == 0
    assert capsys.readouterr().out.strip() == "SAT"


def test_check_dot_trace_of_a_wide_clause(tmp_path, capsys):
    # The one A1+ step targets a clause of 3,000 literals, which its edge
    # label renders as a | chain.
    names = [f"A{i}" for i in range(3000)]
    trace_dot = tmp_path / "trace.dot"
    assert main(["check", "--trace", str(trace_dot), " | ".join(names)]) == 0
    assert capsys.readouterr().out.strip() == "SAT"
    edges = [line for line in trace_dot.read_text().splitlines() if "->" in line]
    assert edges == [f'  n0 -> n1 [label="A1+ m0: {" | ".join(sorted(names))}"];']


def test_check_long_derivation_exits_with_a_verdict(capsys):
    # 1,200 A1+ steps in a row: the search keeps its own stack.
    text = " & ".join(f"(A{i} | B{i})" for i in range(1200))
    assert main(["check", text]) == 0
    assert capsys.readouterr().out.strip() == "SAT"


def test_check_clause_budget_exits_4(capsys):
    # Distributing the input would make 2^22 clauses.
    pairs = " | ".join(f"(A{i} & B{i})" for i in range(22))
    assert main(["check", pairs]) == 4
    assert main(["cnf", pairs]) == 4
    # The clash check complements the existential, which has a universal
    # partner of its role: 2^14 clauses.
    body = " & ".join(f"(A{i} | B{i})" for i in range(14))
    assert main(["check", f"exists R.({body}) & forall R.A"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("resource limit: ") and "budget" in line for line in lines)


def test_check_takes_no_complement_a_clash_cannot_use(capsys):
    # A lone existential has no universal of its role to clash with, so
    # its complement, 2^14 clauses and over the budget, is never taken.
    body = " & ".join(f"(A{i} | B{i})" for i in range(14))
    assert main(["check", f"exists R.({body})"]) == 0
    assert capsys.readouterr() == ("SAT\n", "")


def test_check_a1_plus_takes_no_complement_nothing_can_match(capsys):
    # A1+ picks the existential of (C | exists R.(...)) once C clashes;
    # no literal of the member is a universal of R, so no clause holds
    # its complement, 2^14 clauses and over the budget, and it is never
    # taken.
    body = " & ".join(f"(A{i} | B{i})" for i in range(14))
    for strategy in ("basic", "plus"):
        assert main(["check", "--oracle", "--strategy", strategy, f"(C | exists R.({body})) & !C"]) == 0
        assert capsys.readouterr() == ("SAT\n", "")


def test_check_node_budget_below_one_is_an_input_error(capsys):
    for budget in ("0", "-5"):
        assert main(["check", "--max-nodes", budget, "A"]) == 2
        err = capsys.readouterr().err
        assert err == "check requires --max-nodes >= 1\n"


def test_check_nesting_bound_is_an_input_error(capsys):
    assert main(["check", "--model", "exists R." * 100 + "A"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "SAT" and len(json.loads(out[1])["domain"]) == 101
    for text in (
        "exists R." * 101 + "A",
        "(" * 101 + "A" + ")" * 101,
        "exists R." * 3000 + "A",
        "forall R." * 2000 + "A",
    ):
        assert main(["check", text]) == 2
        assert "nested deeper than 100" in capsys.readouterr().err


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


def test_check_complements_an_existential_whose_body_holds_the_empty_clause(capsys):
    text = "exists R.A & forall R.bot & forall R.B"
    assert main(["check", text]) == 1
    assert capsys.readouterr().out.split()[:1] == ["UNSAT"]
    # A2+ merges bot into the existential's body; the clash check then
    # complements that existential, whose negated body is true.
    verdict = decide_sat(to_cnf(parse_concept(text)), Strategy.PLUS)
    merged = [
        lit
        for fam in verdict.tree.nodes
        for m in fam.members
        for c in m
        for lit in c
        if isinstance(lit, ExistsLit) and EMPTY_CLAUSE in lit.body
    ]
    assert merged
    for lit in merged:
        assert complement(lit) == complement_by_round_trip(lit) == ForallLit("R", EMPTY_CLAUSE_SET)


@pytest.mark.parametrize("command", ["check", "cnf", "trace-replay"])
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "latin1"
    path.write_bytes(b"\xff")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "can't decode byte 0xff" in err and err.count("\n") == 1


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


def test_check_oracle_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "oracle_sat", lambda concept: False)
    assert main(["check", "--oracle", "A"]) == 3
    assert capsys.readouterr() == ("SAT\n", "oracle disagrees with the engine\n")


def test_check_trace_into_a_directory_exits_2(tmp_path, capsys):
    assert main(["check", "--trace", str(tmp_path), "A"]) == 2
    out, err = capsys.readouterr()
    assert out == "SAT\n" and err.startswith("cannot write trace: ") and err.count("\n") == 1


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


def test_fuzz_structured_counts_trials_where_plus_expands_fewer_nodes(capsys):
    assert main(["fuzz", "--structured", "--trials", "100", "--max-depth", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["disagreements"] == []
    assert report["nodes"]["basic"]["max"] > 5
    assert 0 < report["plus_fewer_nodes"] <= 100


def test_fuzz_zero_trials_usage_error(capsys):
    assert main(["fuzz", "--trials", "0"]) == 2


def test_fuzz_negative_roles_usage_error(capsys):
    assert main(["fuzz", "--trials", "1", "--roles", "-1"]) == 2
    assert "bad configuration: num_roles" in capsys.readouterr().err


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


def test_trace_replay_clause_budget_exits_4(tmp_path, capsys):
    # The clash check complements the existential, which has a universal
    # partner of its role: 2^14 clauses, over the budget.  The search
    # would stop there too, so the one-node trace is written by hand.
    body = " & ".join(f"(A{i} | B{i})" for i in range(14))
    root = Family((to_cnf(parse_concept(f"exists R.({body}) & forall R.A")),))
    verdict = Verdict(True, 0, DerivationTree(nodes=[root]), DecisionStats(1, 0, 0, 0), Strategy.PLUS)
    trace_path = tmp_path / "t.json"
    trace_path.write_text(json.dumps(trace_to_json(verdict, Strategy.PLUS)))
    assert main(["trace-replay", str(trace_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1


def test_trace_replay_of_a_deeply_nested_member_needs_no_call_stack(tmp_path, capsys, monkeypatch):
    # One node whose one member is exists R.(exists R.(... A)), 3,000
    # deep, and its partner forall R.B: the clash check complements the
    # deep existential.  The node is not complete, so the recorded SAT
    # verdict does not replay.
    values = [["pos", "A"], ["clause", [0]], ["clause_set", [1]]]
    for _ in range(3000):
        k = len(values)
        values += [["exists", "R", k - 1], ["clause", [k]], ["clause_set", [k + 1]]]
    k = len(values)
    values += [["pos", "B"], ["clause", [k]], ["clause_set", [k + 1]], ["forall", "R", k + 2]]
    values += [["clause", [k + 3]], ["clause_set", [k - 2, k + 4]]]
    trace = {
        "format": 3,
        "strategy": "plus",
        "verdict": "sat",
        "stats": {"nodes_expanded": 1, "clashes": 0, "max_depth": 0, "backjumps": 0},
        "values": values,
        "root": len(values) - 1,
        "nodes": [None],
        "clash_nodes": [],
    }
    trace_path = tmp_path / "t.json"
    trace_path.write_text(json.dumps(trace))
    depths = []
    complement = engine.complement
    monkeypatch.setattr(engine, "complement", lambda lit: depths.append(lit.depth) or complement(lit))
    assert main(["trace-replay", str(trace_path)]) == 1
    assert capsys.readouterr().err == "verdict sat but no complete clash-free node recorded\n"
    assert 3000 in depths


def test_trace_replay_missing_file_exit_2(capsys):
    assert main(["trace-replay", "/nonexistent/trace.json"]) == 2


def test_trace_replay_json_nested_too_deep_exit_2(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    trace_path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["trace-replay", str(trace_path)]) == 2
    assert capsys.readouterr().err.startswith("cannot load trace: ")


def _replay_malformed(tmp_path, capsys, change) -> str:
    """Replay the animal trace after ``change`` and return its stderr,
    which must be one line, after exit code 2; ``trace_to_dot`` must
    reject the changed trace too."""
    trace_path = tmp_path / "t.json"
    assert main(["check", "--trace", str(trace_path), ANIMAL_TEXT]) == 0
    changed = change(json.loads(trace_path.read_text()))
    trace_path.write_text(json.dumps(changed))
    capsys.readouterr()
    assert main(["trace-replay", str(trace_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed trace: ") and err.count("\n") == 1
    with pytest.raises(TraceFormatError):
        trace_to_dot(changed)
    return err


def _entry_index(trace, tag, nth=0) -> int:
    """Index of the ``nth`` value-table entry tagged ``tag``."""
    return [i for i, e in enumerate(trace["values"]) if e[0] == tag][nth]


def test_trace_replay_rejects_a_json_array(tmp_path, capsys):
    assert "JSON object" in _replay_malformed(tmp_path, capsys, lambda t: [t])


def test_trace_replay_rejects_a_trace_without_a_root(tmp_path, capsys):
    def drop_root(trace):
        del trace["root"]
        return trace

    assert "'root'" in _replay_malformed(tmp_path, capsys, drop_root)


def test_trace_replay_rejects_a_trace_without_nodes(tmp_path, capsys):
    def drop_nodes(trace):
        trace.update(verdict="unsat", nodes=[], clash_nodes=[])
        trace["stats"].update(nodes_expanded=0, clashes=0)
        return trace

    assert "root node" in _replay_malformed(tmp_path, capsys, drop_nodes)


def test_trace_replay_rejects_an_unknown_strategy(tmp_path, capsys):
    def rename_strategy(trace):
        trace["strategy"] = "fast"
        return trace

    assert "'fast'" in _replay_malformed(tmp_path, capsys, rename_strategy)


def test_trace_replay_rejects_an_edge_index_out_of_range(tmp_path, capsys):
    # A node's parent comes before it, and its choice is not negative.
    for node in ([99, 0], [-1, 0], [1, 0], [0, -1]):
        def point_away(trace):
            trace["nodes"][1] = node
            return trace

        assert "node 1: [parent, k] " in _replay_malformed(tmp_path, capsys, point_away)


def test_trace_replay_rejects_a_reference_to_itself_or_a_later_value(tmp_path, capsys):
    for offset in (0, 1):
        def point_forward(trace):
            k = _entry_index(trace, "clause")
            trace["values"][k][1][0] = k + offset
            return trace

        err = _replay_malformed(tmp_path, capsys, point_forward)
        assert "is not an index below" in err


def test_trace_replay_rejects_a_clause_set_inside_a_clause(tmp_path, capsys):
    def nest(trace):
        k = _entry_index(trace, "clause", -1)
        trace["values"][k][1][0] = _entry_index(trace, "clause_set")
        return trace

    assert "is a clause set, not a literal" in _replay_malformed(tmp_path, capsys, nest)


def test_trace_replay_rejects_a_clause_as_an_edge_literal(tmp_path, capsys):
    # A trace records no edge literal any more: each literal an A1 step
    # picks is a member of a clause entry, so a clause there is refused.
    def swap(trace):
        k = _entry_index(trace, "clause", -1)
        trace["values"][k][1][0] = _entry_index(trace, "clause")
        return trace

    assert "is a clause, not a literal" in _replay_malformed(tmp_path, capsys, swap)


def test_trace_replay_rejects_a_literal_as_a_member(tmp_path, capsys):
    # The root clause set is the root node's one member.
    for tag, kind in (("pos", "literal"), ("clause", "clause")):
        def swap(trace):
            trace["root"] = _entry_index(trace, tag)
            return trace

        err = _replay_malformed(tmp_path, capsys, swap)
        assert err.startswith("malformed trace: root: ") and f"is a {kind}, not a clause set" in err


def test_trace_replay_rejects_an_unknown_tag(tmp_path, capsys):
    def retag(trace):
        trace["values"][_entry_index(trace, "neg")][0] = "not"
        return trace

    assert "unknown tag 'not'" in _replay_malformed(tmp_path, capsys, retag)


def test_trace_replay_rejects_a_malformed_value_table(tmp_path, capsys):
    def table(value):
        def change(trace):
            trace["values"] = value
            return trace

        return change

    def clause_entry(value):
        def change(trace):
            trace["values"][_entry_index(trace, "clause")] = value
            return trace

        return change

    for change, message in (
        (table({}), "the value table is not an array"),
        (clause_entry("clause"), "an entry is a non-empty array"),
        (clause_entry([]), "an entry is a non-empty array"),
        (clause_entry(["clause", [0], [0]]), "a clause entry is ['clause', [index, ...]]"),
        (clause_entry(["clause", 0]), "0 is not an array of indices"),
    ):
        assert message in _replay_malformed(tmp_path, capsys, change)


def test_trace_replay_rejects_an_unknown_verdict_or_stats_that_are_not_integers(tmp_path, capsys):
    def verdict(trace):
        trace["verdict"] = "maybe"
        return trace

    def stats(trace):
        trace["stats"]["clashes"] = "0"
        return trace

    assert "verdict 'maybe' is neither 'sat' nor 'unsat'" in _replay_malformed(tmp_path, capsys, verdict)
    assert "are not all integers" in _replay_malformed(tmp_path, capsys, stats)


def test_trace_replay_rejects_a_name_or_role_that_is_not_a_string(tmp_path, capsys):
    for tag in ("pos", "exists"):
        def rename(trace):
            trace["values"][_entry_index(trace, tag)][1] = 7
            return trace

        assert "string" in _replay_malformed(tmp_path, capsys, rename)


def test_trace_replay_rejects_a_member_index_past_the_table(tmp_path, capsys):
    def point_past(trace):
        trace["root"] = len(trace["values"])
        return trace

    assert "root: " in _replay_malformed(tmp_path, capsys, point_past)


def test_trace_replay_rejects_a_missing_or_other_format(tmp_path, capsys):
    def drop_format(trace):
        del trace["format"]
        return trace

    def format_1(trace):
        trace["format"] = 1
        return trace

    def format_2(trace):
        trace["format"] = 2
        return trace

    assert "trace format None, not 3" in _replay_malformed(tmp_path, capsys, drop_format)
    assert "trace format 1, not 3" in _replay_malformed(tmp_path, capsys, format_1)
    assert "trace format 2, not 3" in _replay_malformed(tmp_path, capsys, format_2)


#: The format-2 plus trace of (A | B) & !A & !B with a node appended
#: that no edge reaches, whose one member is the empty clause set, and
#: the verdict turned to ``sat``.  Format 2 wrote each node's family out
#: and never checked that a node derives from the root, so this replayed
#: with exit 0 and decoded with that family as its witness.
FORGED_FORMAT_2 = {
    "format": 2, "strategy": "plus", "verdict": "sat",
    "stats": {"nodes_expanded": 4, "clashes": 2, "max_depth": 1, "backjumps": 0},
    "values": [
        ["pos", "A"], ["pos", "B"], ["clause", [0, 1]], ["neg", "A"], ["clause", [3]],
        ["neg", "B"], ["clause", [5]], ["clause_set", [2, 4, 6]], ["clause", []],
        ["clause", [0]], ["clause_set", [8, 9, 6]], ["clause", [1]],
        ["clause_set", [8, 11, 4]], ["clause_set", []],
    ],
    "nodes": [
        {"members": [7], "edges": []}, {"members": [10], "edges": []},
        {"members": [12], "edges": []}, {"members": [13], "edges": []},
    ],
    "edges": [
        {"from": 0, "rule": "A1+", "member": 0, "clause": 2, "literal": 0, "to": 1},
        {"from": 0, "rule": "A1+", "member": 0, "clause": 2, "literal": 1, "to": 2},
    ],
    "clash_nodes": [1, 2],
}


@pytest.mark.parametrize(
    "nodes, code, err",
    [
        (None, 2, "malformed trace: trace format 2, not 3\n"),
        ([None, [0, 0], [0, 1], None], 2, "malformed trace: node 3: None is not [parent, k]\n"),
        ([None, [0, 0], [0, 1], [3, 0]], 2, "malformed trace: node 3: [parent, k] [3, 0] out of range\n"),
        ([None, [0, 0], [0, 1]], 1, "verdict sat but no complete clash-free node recorded\n"),
    ],
    ids=["format-2", "null-node", "own-parent", "sat-claim"],
)
def test_trace_replay_rejects_a_witness_the_root_does_not_derive(tmp_path, capsys, nodes, code, err):
    # Format 3 names a node only by the choice that derives it from its
    # parent, so a family the rules do not reach cannot be written down:
    # the forged file, a node without a parent and a node that is its
    # own parent are malformed, and a bare sat claim does not replay.
    trace = FORGED_FORMAT_2
    if nodes is not None:
        f = to_cnf(parse_concept("(A | B) & !A & !B"))
        trace = trace_to_json(decide_sat(f, Strategy.PLUS), Strategy.PLUS)
        trace.update(verdict="sat", nodes=nodes)
        trace["stats"]["nodes_expanded"] = len(nodes)
    trace_path = tmp_path / "t.json"
    trace_path.write_text(json.dumps(trace))
    assert main(["trace-replay", str(trace_path)]) == code
    assert capsys.readouterr().err == err


def test_trace_replay_rejects_repeated_clash_marks(tmp_path, capsys):
    # The search marks a clash node once, as it visits it, so its marks
    # are strictly increasing; a repeated mark once replayed, as the
    # stats check counted the distinct marks.
    f = to_cnf(parse_concept("(A | B) & !A & !B"))
    trace = trace_to_json(decide_sat(f, Strategy.PLUS), Strategy.PLUS)
    assert trace["clash_nodes"] == [1, 2]
    for marks in ([1, 2, 1], [1, 1, 2], [2, 1], [1, 3]):
        trace["clash_nodes"] = marks
        trace_path = tmp_path / "t.json"
        trace_path.write_text(json.dumps(trace))
        assert main(["trace-replay", str(trace_path)]) == 2
        assert capsys.readouterr().err == (
            "malformed trace: clash nodes are not strictly increasing node indices\n"
        )


def test_trace_replay_ignores_the_options_of_an_older_trace(tmp_path, capsys):
    # Traces once recorded the scheduler options; decoding ignores any
    # key it does not read, so such a trace still replays.
    trace_path = tmp_path / "t.json"
    assert main(["check", "--strategy", "basic", "--trace", str(trace_path), ANIMAL_TEXT]) == 0
    trace = json.loads(trace_path.read_text())
    assert "options" not in trace
    trace["options"] = {"a2_anywhere": False}
    trace_path.write_text(json.dumps(trace))
    capsys.readouterr()
    assert main(["trace-replay", str(trace_path)]) == 0
    assert capsys.readouterr().out == "trace ok: 11 nodes, 10 steps\n"


def test_trace_replay_rejects_an_a2_step_on_a_universal_inside_a_clause(tmp_path, capsys):
    # Both A1 picks clash, then A2 consumes the universal inside
    # (forall R.A | B): a step only the A2-order search of the test
    # reference offers.  The basic scheduler picks from that clause
    # instead, so the trace records the A2 as the root's third choice,
    # past its two-way plan, and the node it names cannot be derived.
    f = to_cnf(parse_concept("(forall R.A | B) & !B & exists R.!A"))
    root = Family((f,))
    steps = plan_with_a2_anywhere(root)
    assert [s[0] for s in steps] == ["A1", "A1", "A2"]
    nodes = [root] + [_apply_planned(root, s)[0] for s in steps]
    peel = _plan(nodes[3], Strategy.BASIC)[0]
    nodes.append(_apply_planned(nodes[3], peel)[0])
    tree = DerivationTree(
        nodes=nodes,
        edges=[TraceEdge(0, RuleApplication(*s), k) for k, s in enumerate(steps, 1)]
        + [TraceEdge(3, RuleApplication(*peel), 4)],
        clash_nodes=[1, 2, 4],
    )
    verdict = Verdict(False, None, tree, DecisionStats(5, 3, 2, 0), Strategy.BASIC)
    trace = trace_to_json(verdict, Strategy.BASIC)
    assert trace["nodes"] == [None, [0, 0], [0, 1], [0, 2], [3, 0]]
    trace_path = tmp_path / "t.json"
    trace_path.write_text(json.dumps(trace))
    assert main(["trace-replay", str(trace_path)]) == 1
    assert capsys.readouterr().err == "edge 0->3: not a step the basic scheduler offers\n"


def test_trace_demo_writes_traces_that_replay(tmp_path, capsys):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "trace_demo.py"), str(tmp_path / "out")],
        env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    for strategy in ("basic", "plus"):
        assert (tmp_path / "out" / f"animal_{strategy}.dot").read_text().startswith("digraph")
        assert main(["trace-replay", str(tmp_path / "out" / f"animal_{strategy}.json")]) == 0
    assert capsys.readouterr().out.count("trace ok") == 2


# Runs each command through ``alcsat.cli.main`` in one interpreter and
# prints its exit code after its output.
_COMMANDS_DRIVER = """
import json, sys
from alcsat.cli import main
for argv in json.loads(sys.argv[1]):
    print("exit", main(argv), flush=True)
"""


def test_no_output_depends_on_the_hash_seed(tmp_path):
    modal = modal_3cnf(random.Random(4), 7)[0]  # backjumps 4 times under plus
    a2 = "(forall R.A | B) & !B & exists R.!A"  # a universal inside a clause
    runs = [
        ("animal_basic", ["--strategy", "basic"], ANIMAL_TEXT),
        ("animal_plus", ["--model"], ANIMAL_TEXT),
        ("modal", [], modal),
        ("a2", ["--strategy", "basic"], a2),
    ]
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        out.mkdir()
        commands = [["cnf", text] for text in (ANIMAL_TEXT, modal, a2)]
        for name, flags, text in runs:
            for ext in ("json", "dot"):
                commands.append(["check", *flags, "--trace", str(out / f"{name}.{ext}"), text])
        result = subprocess.run(
            [sys.executable, "-c", _COMMANDS_DRIVER, json.dumps(commands)],
            env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((result.stdout, files))
    (stdout, files), other = outputs
    assert stdout.count("exit ") == 11 and "UNSAT" in stdout
    assert len(files) == 8
    assert json.loads(files["modal.json"])["stats"]["backjumps"] > 0
    edges = decode_trace(json.loads(files["animal_basic.json"])).tree.edges
    assert any(e.application.rule == "A2" for e in edges)
    assert (stdout, files) == other


def test_usage_error_exit_2():
    assert main(["check"]) == 2
    assert main(["check", "--a2-anywhere", "A"]) == 2  # no such option
    assert main(["no-such-command"]) == 2
