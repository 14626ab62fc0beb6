"""Command-line front end.

Subcommands::

    alcsat check [--strategy basic|plus] [--max-nodes N]
                 [--trace PATH(.json|.dot)] [--model] [--oracle] EXPR_OR_FILE
    alcsat cnf EXPR_OR_FILE
    alcsat fuzz --trials N [--seed N] [--max-depth N] [--names N] [--roles N]
                [--structured]
    alcsat trace-replay PATH

``check`` prints SAT or UNSAT and exits 0 on SAT, 1 on UNSAT, 2 on input
error (including quantifiers and parentheses nested deeper than
``syntax.MAX_NESTING``, a file that is not UTF-8 and a ``--max-nodes``
below 1), 3 when ``--oracle`` disagrees with the engine, 4 when the node
budget or the clause budget is exhausted, with one line on stderr (the
clause budget: a disjunction distributing to more than
``normal_form.MAX_CLAUSES`` clauses, in the input or in a complement
the search takes, which it takes for a quantified unit only when a unit
of the dual quantifier and the same role is present); ``cnf`` exits 4
on the clause budget too.  ``fuzz`` prints the differential report JSON (with
``plus_fewer_nodes``, the trials where plus expanded fewer nodes than
basic) and exits 0 when it is clean and 5 on any disagreement.
``check --trace PATH.json`` writes a format-3 trace
(``engine.trace_to_json``: the root clause set as a value table, each
later node as its parent and the index of its step in the parent's
plan, and the run's stats).  ``trace-replay`` re-derives every node and
exits 0 when the recorded trace replays exactly, 1 when it does not, 2
when the file cannot be read (not UTF-8 included) or is not a format-3
trace, an older trace of format 2 or without ``"format"`` included, and
4 when a step or a clash check takes a complement over the clause
budget (one line on stderr).

An argument naming an existing file is read as UTF-8 holding one concept;
``#`` starts a line comment.  Configuration is flags only, so runs are
reproducible in CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from alcsat.engine import (
    ResourceLimitError,
    Strategy,
    TraceFormatError,
    decide_sat,
    replay_trace,
    trace_to_dot,
    trace_to_json,
)
from alcsat.harness import DEFAULT_WEIGHTS, STRUCTURED_WEIGHTS, GenConfig, run_differential
from alcsat.normal_form import ClauseBudgetError, clause_set_to_json, to_cnf
from alcsat.oracle import oracle_sat
from alcsat.syntax import ParseError, parse_concept
from alcsat.tableau import extract_tableau, tableau_to_interpretation

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_INPUT_ERROR = 2
EXIT_ORACLE_DISAGREEMENT = 3
EXIT_RESOURCE_LIMIT = 4
EXIT_FUZZ_DISAGREEMENT = 5


class _InputError(Exception):
    pass


def _read_concept_arg(arg: str):
    if os.path.isfile(arg):
        try:
            with open(arg, encoding="utf-8") as handle:
                text = "\n".join(
                    line.split("#", 1)[0] for line in handle.read().splitlines()
                )
        except (OSError, UnicodeDecodeError) as exc:
            raise _InputError(f"cannot read {arg}: {exc}") from exc
    else:
        text = arg
    try:
        return parse_concept(text)
    except ParseError as exc:
        raise _InputError(f"parse error: {exc}") from exc


def _cmd_check(args: argparse.Namespace) -> int:
    if args.max_nodes < 1:
        print("check requires --max-nodes >= 1", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        concept = _read_concept_arg(args.expr)
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return _check_concept(args, concept)
    except (ResourceLimitError, ClauseBudgetError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT


def _check_concept(args: argparse.Namespace, concept) -> int:
    strategy = Strategy(args.strategy)
    verdict = decide_sat(to_cnf(concept), strategy, max_nodes=args.max_nodes)
    print("SAT" if verdict.satisfiable else "UNSAT")
    if args.trace:
        trace = trace_to_json(verdict, strategy)
        try:
            with open(args.trace, "w", encoding="utf-8") as handle:
                if args.trace.endswith(".dot"):
                    handle.write(trace_to_dot(trace))
                else:
                    json.dump(trace, handle, indent=2)
                    handle.write("\n")
        except OSError as exc:
            print(f"cannot write trace: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    if args.model and verdict.satisfiable:
        interp = tableau_to_interpretation(extract_tableau(verdict))
        print(json.dumps(interp.to_json()))
    if args.oracle:
        if oracle_sat(concept) != verdict.satisfiable:
            print("oracle disagrees with the engine", file=sys.stderr)
            return EXIT_ORACLE_DISAGREEMENT
    return EXIT_SAT if verdict.satisfiable else EXIT_UNSAT


def _cmd_cnf(args: argparse.Namespace) -> int:
    try:
        concept = _read_concept_arg(args.expr)
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        f = to_cnf(concept)
    except ClauseBudgetError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    print(json.dumps(clause_set_to_json(f)))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.trials < 1:
        print("fuzz requires --trials >= 1", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        cfg = GenConfig(
            max_depth=args.max_depth,
            num_names=args.names,
            num_roles=args.roles,
            connective_weights=STRUCTURED_WEIGHTS if args.structured else DEFAULT_WEIGHTS,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = run_differential(cfg, args.trials)
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.ok else EXIT_FUZZ_DISAGREEMENT


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    try:
        with open(args.path, encoding="utf-8") as handle:
            trace = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        print(f"cannot load trace: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        problems = replay_trace(trace)
    except TraceFormatError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ClauseBudgetError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    nodes = len(trace["nodes"])
    print(f"trace ok: {nodes} nodes, {nodes - 1} steps")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alcsat",
        description="Clause-set satisfiability for ALC concepts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide satisfiability of a concept")
    check.add_argument("expr", help="concept expression or path to a concept file")
    check.add_argument(
        "--strategy", choices=["basic", "plus"], default="plus",
        help="rule system (default: plus)",
    )
    check.add_argument(
        "--max-nodes", type=int, default=1_000_000,
        help="node budget before giving up (default: 1000000)",
    )
    check.add_argument("--trace", help="write the derivation trace (.json or .dot)")
    check.add_argument(
        "--model", action="store_true",
        help="print the extracted interpretation JSON on SAT",
    )
    check.add_argument(
        "--oracle", action="store_true",
        help="cross-check the verdict against the reference tableau",
    )
    check.set_defaults(func=_cmd_check)

    cnf = sub.add_parser("cnf", help="print the clause-set form of a concept")
    cnf.add_argument("expr", help="concept expression or path to a concept file")
    cnf.set_defaults(func=_cmd_cnf)

    fuzz = sub.add_parser("fuzz", help="differential testing against the oracle")
    fuzz.add_argument("--trials", type=int, required=True)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--max-depth", type=int, default=3)
    fuzz.add_argument("--names", type=int, default=4)
    fuzz.add_argument("--roles", type=int, default=2)
    fuzz.add_argument(
        "--structured", action="store_true",
        help="lean generation on connectives and quantifiers, so searches backtrack",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    replay = sub.add_parser("trace-replay", help="verify a recorded trace")
    replay.add_argument("path", help="trace JSON written by check --trace")
    replay.set_defaults(func=_cmd_trace_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which is also our input-error code
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
