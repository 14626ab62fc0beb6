"""Satisfiability decision toolkit for the description logic ALC.

Arbitrary concepts are normalized to a flat clause-set form (a set of
clauses, each clause a set of concept literals) and satisfiability is
decided by applying clause-set inference rules with backtracking.  Two
rule systems are provided: the basic one (A1, A2, A3) and an optimized
one (A1+, A2+, A3).  Every run yields a replayable derivation trace, and
satisfiable runs additionally yield a verifiable tableau witness and a
finite model.
"""

from alcsat.syntax import (
    And,
    Bottom,
    Concept,
    Exists,
    Forall,
    Name,
    Not,
    Or,
    ParseError,
    Top,
    parse_concept,
    render_concept,
)
from alcsat.normal_form import (
    Clause,
    ClauseBudgetError,
    ClauseSet,
    ExistsLit,
    ForallLit,
    Literal,
    Neg,
    Pos,
    clause_set_to_concept,
    complement,
    to_cnf,
)
from alcsat.clause_model import Family, FamilyEdge
from alcsat.engine import Strategy, Verdict, decide_sat
from alcsat.oracle import oracle_sat
from alcsat.tableau import (
    CnfTableau,
    Interpretation,
    check_tableau,
    eval_concept,
    extract_tableau,
    tableau_to_interpretation,
)
from alcsat.harness import GenConfig, gen_concept, run_differential

__all__ = [
    "And",
    "Bottom",
    "Clause",
    "ClauseBudgetError",
    "ClauseSet",
    "CnfTableau",
    "Concept",
    "Exists",
    "ExistsLit",
    "Family",
    "FamilyEdge",
    "Forall",
    "ForallLit",
    "GenConfig",
    "Interpretation",
    "Literal",
    "Name",
    "Neg",
    "Not",
    "Or",
    "ParseError",
    "Pos",
    "Strategy",
    "Top",
    "Verdict",
    "check_tableau",
    "clause_set_to_concept",
    "complement",
    "decide_sat",
    "eval_concept",
    "extract_tableau",
    "gen_concept",
    "oracle_sat",
    "parse_concept",
    "render_concept",
    "run_differential",
    "tableau_to_interpretation",
    "to_cnf",
]
