"""The plain records: what each class gives by hand (keyword
construction with defaults, value equality, hashing and immutability of
the frozen ones, the repr), and the modules a fresh ``import alcsat``
loads."""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys

import pytest

from alcsat.clause_model import Family, FamilyEdge
from alcsat.engine import (
    DecisionStats,
    DerivationTree,
    Strategy,
    TraceFormatError,
    decide_sat,
    decode_trace,
    replay_trace,
    trace_to_json,
)
from alcsat.harness import DEFAULT_WEIGHTS, GenConfig, NodeStats, Report
from alcsat.normal_form import Pos, to_cnf
from alcsat.oracle import _ModelNode
from alcsat.syntax import And, Exists, Forall, Name, Not, Or, Top, parse_concept
from alcsat.tableau import CnfTableau, Violation
from conftest import ROOT, cl, cs

# Modules that only code generation at import needs.
_CODEGEN_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize", "string"}


def _modules_after(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    result = subprocess.run(
        [sys.executable, "-c", f"import sys\n{statement}\nprint(*sys.modules)"],
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(result.stdout.split())


def test_import_loads_no_code_generation_modules():
    # Compared with a bare interpreter, not a fixed list: what ``site``
    # loads differs between installations.
    bare = _modules_after("pass")
    for statement in ("import alcsat", "import alcsat.cli"):
        new = _modules_after(statement) - bare
        assert "alcsat" in new
        assert not new & _CODEGEN_MODULES, statement


def test_defaults_construct_by_keyword():
    tree = DerivationTree()
    assert tree == DerivationTree(nodes=[], edges=[], clash_nodes=[])
    t = CnfTableau(frozenset({0}), {0: frozenset()}, {}, root=0)
    assert (t.root, t.subset_closed) == (0, False)
    cfg = GenConfig(seed=7)
    assert (cfg.max_depth, cfg.num_names, cfg.num_roles, cfg.seed) == (3, 4, 2, 7)
    assert cfg.connective_weights == DEFAULT_WEIGHTS
    assert cfg.connective_weights is not DEFAULT_WEIGHTS
    report = Report(3, 7)
    assert (report.trials, report.seed, report.disagreements, report.trial_log) == (3, 7, [], [])
    assert report.basic_nodes == report.plus_nodes == NodeStats(0, 0, 0)


def test_each_instance_gets_a_fresh_list_default():
    a, b = DerivationTree(), DerivationTree()
    a.nodes.append(Family((cs(cl(Pos("A"))),)))
    assert (b.nodes, b.edges, b.clash_nodes) == ([], [], [])
    assert a.edges is not b.edges and a.clash_nodes is not b.clash_nodes
    r, s = Report(1, 0), Report(1, 0)
    assert r.disagreements is not s.disagreements and r.trial_log is not s.trial_log
    assert r.basic_nodes is not s.basic_nodes and r.basic_nodes is not r.plus_nodes
    m, n = _ModelNode(frozenset()), _ModelNode(frozenset())
    assert m.children == [] and m.children is not n.children


def test_frozen_records_compare_and_hash_by_value():
    member = cs(cl(Pos("A")))
    edge = FamilyEdge(0, "R", 1)
    assert edge == FamilyEdge(0, "R", 1) and hash(edge) == hash(FamilyEdge(0, "R", 1))
    assert edge != FamilyEdge(0, "S", 1)
    fam = Family((member, member), (edge,))
    same = Family((member, member), (FamilyEdge(0, "R", 1),))
    assert fam == same and hash(fam) == hash(same)
    assert fam != Family((member, member)) and fam != Family((member,))
    v = Violation(2, (0,), "x")
    assert v == Violation(2, (0,), "x") and hash(v) == hash(Violation(2, (0,), "x"))
    assert v != Violation(3, (0,), "x")
    assert len({fam, same, edge, FamilyEdge(0, "R", 1), v}) == 3
    # A record equals only a record of its own class, whatever its values.
    assert edge != (0, "R", 1) and edge != Violation(0, "R", 1)


def test_mutable_records_compare_by_value_and_have_no_hash():
    assert NodeStats(1, 2, 2) == NodeStats(1, 2, 2) != NodeStats(1, 2, 3)
    with pytest.raises(TypeError):
        hash(NodeStats())


@pytest.mark.parametrize(
    "value, field",
    [
        (Name("A"), "name"),
        (Not(Top()), "body"),
        (And(Top(), Top()), "left"),
        (Or(Top(), Top()), "right"),
        (Forall("R", Top()), "role"),
        (Exists("R", Top()), "body"),
        (Family((cs(cl(Pos("A"))),)), "members"),
        (FamilyEdge(0, "R", 1), "child"),
        (Violation(1, (0,), "x"), "expr"),
        (GenConfig(), "seed"),
    ],
)
def test_frozen_record_fields_cannot_be_assigned(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


def test_records_have_a_field_by_field_repr():
    assert repr(Name("A")) == "Name(name='A')"
    assert repr(Top()) == "Top()"
    assert repr(Exists("R", Name("B"))) == "Exists(role='R', body=Name(name='B'))"
    assert repr(FamilyEdge(1, "R", 0)) == "FamilyEdge(parent=1, role='R', child=0)"
    assert repr(NodeStats(1, 2, 3)) == "NodeStats(count=1, total=2, max=3)"
    member = cs(cl(Pos("A")))
    message = r"edge out of range: FamilyEdge\(parent=1, role='R', child=0\)"
    with pytest.raises(ValueError, match=message):
        Family((member, member), (FamilyEdge(1, "R", 0),))


def test_records_copy_and_pickle_through_their_constructors():
    c = parse_concept("A & exists R.(B | !A)")
    fam = decide_sat(to_cnf(c), Strategy.PLUS).witness_family
    for value in (c, fam, Violation(1, (0,), "x"), GenConfig(seed=3), NodeStats(1, 2, 3)):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_trace_stats_are_the_decision_stats_fields_in_order():
    f = to_cnf(parse_concept("(A | B) & (C | D)"))
    trace = trace_to_json(decide_sat(f, Strategy.PLUS), Strategy.PLUS)
    assert list(trace["stats"]) == ["nodes_expanded", "clashes", "max_depth", "backjumps"]
    with pytest.raises(TypeError):
        DecisionStats(**trace["stats"], extra=0)
    trace["stats"]["extra"] = 0
    for read in (decode_trace, replay_trace):
        with pytest.raises(TraceFormatError, match="unexpected keyword argument 'extra'"):
            read(trace)
