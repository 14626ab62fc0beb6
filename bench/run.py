#!/usr/bin/env python3
"""alcsat benchmark.

    python3 bench/run.py --workload search|wide|fuzz|replay --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --selftest

Runs one workload from the root of a source checkout: one process, one
thread, closed loop (each operation starts when the previous one ends).
Set-up is timed first; then the workload's inputs are made from the
seed, the round's first operations run untimed for about a second to
warm the interpreter, and whole rounds run for at most ``--seconds``.
Each operation starts with the program's caches empty, as in a fresh
``alcsat`` process.  Every output is checked.  The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a span trace with
``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("search", "wide", "fuzz", "replay")
SETUP_LAUNCHES = 11
TAIL_BEYOND = 10
WARM_UP_SECONDS = 1.0
# String hashing is salted per process, which gives every process its
# own layout of the program's sets and dicts of literals; every run uses
# the same salt so that runs differ only in what they measure.
HASH_SEED = "0"
EXIT_NO_PROGRAM = 2
EXIT_CHECKER_BROKEN = 3


def fail(message: str, code: int) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def fixed_hash_seed(script: str) -> None:
    """Re-execute ``script`` with PYTHONHASHSEED fixed, unless it is."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        argv = [sys.executable, str(Path(script).resolve()), *sys.argv[1:]]
        sys.stdout.flush()
        os.execve(sys.executable, argv, env)


def load_program() -> None:
    """Import alcsat from this checkout's src/, and nothing else."""
    if not (SRC / "alcsat" / "__init__.py").is_file():
        fail(f"no alcsat sources under {SRC}; run from a source checkout", EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import alcsat

    if Path(alcsat.__file__).resolve().parent != SRC / "alcsat":
        fail(f"imported alcsat from {alcsat.__file__}, not from {SRC}", EXIT_NO_PROGRAM)


def measure_setup() -> float:
    """Median CPU time (user + system) of a fresh interpreter that imports
    alcsat.  CPU time, not wall time: a launch that waits for a core or
    for the disk does not count the wait."""
    cmd = [sys.executable, "-c", "import alcsat"]
    env = {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": HASH_SEED, "PATH": "/usr/bin:/bin"}
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            fail(f"`import alcsat` exited with code {proc.returncode}", EXIT_NO_PROGRAM)
        if i:  # the first launch writes the bytecode cache; not counted
            times.append(usage.ru_utime + usage.ru_stime)
    return statistics.median(times)


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def upper_quartile(values: list) -> float:
    """An operation's typical latency over the rounds of a run: the upper
    quartile of its latencies.  On a shared 2-core VM the interpreter ran
    in bursts of 10-60 s some 25-35 % faster than its usual speed; an
    operation's median flips to the burst speed when a burst covers half
    the run, its upper quartile only when one covers three quarters (see
    the README's *Stability*)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def tail(sorted_values: list) -> tuple[float, float]:
    """The value at the highest nearest-rank percentile that leaves
    TAIL_BEYOND values beyond it (the maximum when there are too few),
    and that percentile."""
    n = len(sorted_values)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return sorted_values[rank - 1], 100 * rank / n


class Rounds:
    """Runs whole rounds (every operation once, in order) and keeps each
    operation's latencies."""

    def __init__(self, ops, reset, tracer=None) -> None:
        self.ops = ops
        self.reset = reset
        self.tracer = tracer
        self.latencies: list[list[float]] = [[] for _ in ops]
        self.failed_ops: set[int] = set()
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.nodes_per_round: Optional[int] = None
        self.problems: list[str] = []
        self.failures: dict[str, str] = {}

    def run_one(self) -> None:
        nodes = 0
        tracer = self.tracer
        for i, op in enumerate(self.ops):
            self.attempted += 1
            self.reset()  # every operation starts with the program's caches empty
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.begin_op()
            try:
                result = op.run()
            except Exception as exc:  # a fault of the program: a failed operation
                self.failed += 1
                self.failed_ops.add(i)
                self.failures.setdefault(op.label, f"{type(exc).__name__}: {str(exc)[:120]}")
                continue
            finally:
                if tracer is not None:
                    tracer.end_op()
                self.latencies[i].append(time.perf_counter() - t0)
            problem, op_nodes = op.check(result)
            nodes += op_nodes
            if problem is not None:
                self.problems.append(f"{op.label}: {problem}")
        if self.nodes_per_round not in (None, nodes):
            self.problems.append(
                f"round {self.rounds} expanded {nodes} nodes, round 0 {self.nodes_per_round}"
            )
        self.nodes_per_round = nodes
        self.rounds += 1

    def run_for(self, seconds: float) -> "Rounds":
        """Whole rounds, at least one, as long as the next round, taking as
        long as the last, ends within ``seconds``."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self.run_one()
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                return self

    def op_seconds(self) -> float:
        """Wall time of every operation of every round, summed."""
        return math.fsum(math.fsum(lat) for lat in self.latencies)

    def typical(self) -> tuple[list[float], float]:
        """Each completed operation's typical latency over the rounds, and
        their sum over all operations, failed ones included: the time of
        a typical round."""
        typical = [upper_quartile(lat) for lat in self.latencies]
        completed = [m for i, m in enumerate(typical) if i not in self.failed_ops]
        return completed, math.fsum(typical)


def warm_up(ops, reset) -> None:
    """Untimed: the round's first operations, for about WARM_UP_SECONDS,
    so that the interpreter has specialised the program's bytecode and
    the allocator holds its arenas before timing starts.  Outputs are
    checked in the timed rounds."""
    start = time.perf_counter()
    for op in ops:
        reset()
        try:
            op.run()
        except Exception:  # counted when the timed rounds meet it
            pass
        if time.perf_counter() - start > WARM_UP_SECONDS:
            return


def selftest() -> tuple[int, int, list[str]]:
    """Runs the sabotaged operations; each must be reported as failed."""
    import workloads

    caught = []
    for op in workloads.sabotaged_ops():
        problem, _ = op.check(op.run())
        caught.append(f"{op.label}: {'caught: ' + problem if problem else 'NOT CAUGHT'}")
    missed = sum(1 for line in caught if line.endswith("NOT CAUGHT"))
    return len(caught), len(caught) - missed, caught


def end_to_end(name: str, runs: Rounds, setup_s: float) -> dict:
    completed, round_s = runs.typical()
    if not completed:
        fail("no operation completed", 1)
    lat = sorted(completed)
    tail_s, pct = tail(lat)
    print(f"bench: {name}: op_ms_tail is p{pct:.4g} of {len(lat)} completed operations",
          file=sys.stderr)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(lat) / round_s, "unit": "op/s"},
        "op_ms_p50": {"value": 1000 * percentile(lat, 50), "unit": "ms"},
        "op_ms_tail": {"value": 1000 * tail_s, "unit": "ms"},
        "nodes_expanded": {"value": runs.nodes_per_round, "unit": "count"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


SELF_TIMES = {
    "syntax.parse_s": "syntax.parse",
    "normal_form.to_cnf_s": "normal_form.to_cnf",
    "normal_form.complement_s": "normal_form.complement",
    "clause_model.codec_s": "clause_model.codec",
    "engine.search_self_s": "engine.decide",
    "engine.apply_s": "engine.apply",
    "engine.clash_s": "engine.clash",
    "engine.measure_s": "engine.measure",
    "engine.trace_to_json_s": "engine.trace_to_json",
    "engine.replay_s": "engine.replay",
    "tableau.extract_s": "tableau.extract",
    "tableau.check_s": "tableau.check",
    "tableau.model_eval_s": "tableau.model_eval",
    "oracle.sat_s": "oracle.sat",
    "harness.trial_self_s": "harness.trial",
    "cli.main_self_s": "cli.main",
    "bench.json_s": "bench.json",
    "bench.op_self_s": "bench.op",
}
CALLS = {
    "normal_form.complement_calls": "normal_form.complement",
    "engine.apply_calls": "engine.apply",
    "engine.clash_calls": "engine.clash",
    "engine.measure_calls": "engine.measure",
    "oracle.calls": "oracle.sat",
}
COUNTS = (
    "normal_form.clauses", "normal_form.literals", "engine.clashes", "engine.backtracks",
    "engine.rule.A1", "engine.rule.A1_plus", "engine.rule.A2", "engine.rule.A2_plus",
    "engine.rule.A3", "engine.trace_bytes", "tableau.labels", "tableau.domain",
)


# How far the traced operation time may stray from the operations'
# latencies measured outside the tracer (less the time the tracer kept
# off its clock): the tracer's own bookkeeping around each operation.
TRACE_CLOCK_TOLERANCE = 0.01


def per_layer(tracer, runs: Rounds) -> tuple[dict, list[str]]:
    """Per-round per-layer metrics, and any inconsistency in the trace."""
    self_s, calls, total = tracer.summary()
    rounds = runs.rounds
    problems = []
    if tracer.unbalanced:
        problems.append(f"{tracer.unbalanced} spans closed out of order")
    outside = runs.op_seconds() - tracer.excluded
    print(f"bench: traced operations took {total:.4f} s, {outside:.4f} s by their own clock "
          f"less {tracer.excluded:.4f} s kept off the trace clock", file=sys.stderr)
    if abs(total - outside) > TRACE_CLOCK_TOLERANCE * outside:
        problems.append(f"traced operations took {total:.4f} s, "
                        f"{outside:.4f} s by the operations' own clock")
    unknown = set(self_s) - set(SELF_TIMES.values())
    if unknown:
        problems.append(f"untracked layers {sorted(unknown)}")
    out = {}
    for metric, layer in SELF_TIMES.items():
        out[metric] = {"value": self_s.get(layer, 0.0) / rounds, "unit": "s/round"}
    out["engine.decide_s"] = {"value": tracer.inclusive("engine.decide") / rounds, "unit": "s/round"}
    out["traced.op_s"] = {"value": total / rounds, "unit": "s/round"}
    for metric, layer in CALLS.items():
        out[metric] = {"value": calls[layer] // rounds, "unit": "count"}
    for metric in COUNTS:
        unit = "B" if metric == "engine.trace_bytes" else "count"
        out[metric] = {"value": tracer.counts[metric] // rounds, "unit": unit}
    out["engine.max_depth"] = {"value": tracer.maxima["engine.max_depth"], "unit": "count"}
    trials = calls["harness.trial"]
    for metric, layer in (("harness.decide_per_trial", "engine.decide"),
                          ("harness.oracle_per_trial", "oracle.sat")):
        within = tracer.calls_within(layer, "harness.trial")
        out[metric] = {"value": within / trials if trials else 0.0, "unit": "call/trial"}
    return out, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_program()
    setup_s = measure_setup()
    import workloads

    attempted, caught, lines = selftest()
    if caught != attempted:
        fail("a check missed a corrupted output: " + "; ".join(lines), EXIT_CHECKER_BROKEN)

    ops = workloads.build(name, seed)
    warm_up(ops, workloads.clear_caches)
    tracer = saved = None
    if trace:
        import spans

        tracer = spans.Tracer()
        saved = spans.install(tracer, workloads)
    try:
        runs = Rounds(ops, workloads.clear_caches, tracer).run_for(seconds)
    finally:
        if saved is not None:
            spans.uninstall(saved)

    problems = runs.problems
    for label, reason in sorted(runs.failures.items()):
        print(f"bench: {name}: {label} failed: {reason}", file=sys.stderr)
    if trace:
        metrics, trace_problems = per_layer(tracer, runs)
        problems += trace_problems
    else:
        metrics = end_to_end(name, runs, setup_s)
    for problem in problems[:20]:
        print(f"bench: {name}: WRONG OUTPUT {problem}", file=sys.stderr)
    print(f"bench: {name}: seed {seed}, {runs.rounds} rounds of {len(ops)} operations, "
          f"{runs.failed} failed, {len(problems)} wrong", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn, each in a fresh process so that peak RSS
    belongs to one workload."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit code {proc.returncode}")
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32} {m['value']:>14.6g} {m['unit']}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the checks on the checkers and report each as an operation")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        fail("run without -O: the per-step termination-measure assert is part of "
             "the program being measured", EXIT_NO_PROGRAM)
    fixed_hash_seed(__file__)
    if args.selftest:
        load_program()
        attempted, caught, lines = selftest()
        for line in lines:
            print(line, file=sys.stderr)
        print(json.dumps({"correct": caught == attempted, "attempted": attempted,
                          "failed": caught, "metrics": {}}))
        return 0 if caught == attempted else EXIT_CHECKER_BROKEN
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
