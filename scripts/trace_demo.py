#!/usr/bin/env python3
"""Run the animal example through both rule systems and export the traces.

Usage: ``python3 scripts/trace_demo.py [OUT_DIR]``, ``OUT_DIR`` defaulting
to ``out/`` at the top of the repository.

Writes ``animal_basic.{json,dot}`` and ``animal_plus.{json,dot}`` (format-3
traces, which ``alcsat trace-replay`` verifies) into ``OUT_DIR`` and
prints a short summary of each derivation.  Render the DOT files with
``dot -Tpdf out/animal_basic.dot -o basic.pdf``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from alcsat.engine import Strategy, decide_sat, trace_to_dot, trace_to_json
from alcsat.normal_form import clause_set_to_json, to_cnf
from alcsat.syntax import parse_concept
from alcsat.tableau import extract_tableau, tableau_to_interpretation

ANIMAL_TEXT = (
    "(Animal | (Black & forall hasPart.Small))"
    " & (!Animal | exists hasPart.(Leg & !Small))"
    " & !(exists hasPart.Leg & exists hasPart.Wing)"
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out", nargs="?", type=Path,
        default=Path(__file__).resolve().parent.parent / "out",
        help="directory the traces are written to (default: out/)",
    )
    out = parser.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    concept = parse_concept(ANIMAL_TEXT)
    cnf = to_cnf(concept)
    print("concept:", ANIMAL_TEXT)
    print("clause set:", json.dumps(clause_set_to_json(cnf)))
    for strategy in (Strategy.BASIC, Strategy.PLUS):
        verdict = decide_sat(cnf, strategy)
        trace = trace_to_json(verdict, strategy)
        stem = out / f"animal_{strategy.value}"
        stem.with_suffix(".json").write_text(json.dumps(trace, indent=2) + "\n")
        stem.with_suffix(".dot").write_text(trace_to_dot(trace))
        print(
            f"{strategy.value}: {'SAT' if verdict.satisfiable else 'UNSAT'}"
            f" in {verdict.stats.nodes_expanded} nodes"
            f" ({verdict.stats.clashes} clashed), trace at {stem}.json/.dot"
        )
        if verdict.satisfiable:
            interp = tableau_to_interpretation(extract_tableau(verdict))
            print("  model:", json.dumps(interp.to_json()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
