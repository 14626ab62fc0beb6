#!/usr/bin/env python3
"""Reference figures for bench/README.md, measured outside the benchmark.

    python3 bench/reference.py

Prints, for this machine: the modal 3-CNF batch at L = 12 (20 instances
of the benchmark's fixed stream) under plus, with per-layer times from
the benchmark's tracer, and under basic (about a minute); the trace
round trip of that batch, the successor family, the
distribution family at k = 10, ``check_tableau`` at k = 5 and 6, a
900-term ``&`` chain, 500 structured fuzz trials at depth 5, and
interpreter start with and without ``import alcsat``.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time

import run

run.fixed_hash_seed(__file__)
run.load_program()

from alcsat import engine, harness, normal_form, syntax, tableau  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PLUS, BASIC = engine.Strategy.PLUS, engine.Strategy.BASIC


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def decide(text, strategy):
    return engine.decide_sat(normal_form.to_cnf(syntax.parse_concept(text)), strategy)


def modal_batch() -> None:
    rng = random.Random(workloads.MODAL_SEED)
    for clauses, count in workloads.SEARCH_MODAL:  # continue the benchmark's stream
        for _ in range(count):
            inputs.modal_cnf(rng, clauses)
    texts = [inputs.modal_cnf(rng, 12).text() for _ in range(20)]
    tracer = spans.Tracer()
    saved = spans.install(tracer, workloads)
    try:
        verdicts, nodes, times = [], [], []
        for text in texts:
            tracer.begin_op()
            verdict, dt = timed(decide, text, PLUS)
            tracer.end_op()
            verdicts.append(verdict)
            nodes.append(verdict.stats.nodes_expanded)
            times.append(dt)
    finally:
        spans.uninstall(saved)
    worst = max(range(20), key=nodes.__getitem__)
    print(f"modal 3-CNF L=12, 20 instances, plus: {sum(nodes)} nodes in {sum(times):.2f} s; "
          f"largest {nodes[worst]} nodes in {times[worst]:.2f} s; "
          f"{sum(not v.satisfiable for v in verdicts)} unsat")
    self_s, calls, total = tracer.summary()
    print(f"  traced total {total:.2f} s; per layer: inclusive / self seconds, calls")
    for layer in sorted(self_s, key=lambda k: -tracer.inclusive(k)):
        print(f"    {layer:24} {tracer.inclusive(layer):7.2f} / {self_s[layer]:6.2f}  {calls[layer]}")
    t0 = time.perf_counter()
    for verdict in verdicts:
        data = json.loads(json.dumps(engine.trace_to_json(verdict, PLUS)))
        assert not engine.replay_trace(data)
    print(f"  trace round trip and replay of the 20 traces: {time.perf_counter() - t0:.2f} s")
    results = [timed(decide, text, BASIC) for text in texts]
    assert [v.satisfiable for v, _ in results] == [v.satisfiable for v in verdicts]
    print(f"  basic: {sum(v.stats.nodes_expanded for v, _ in results)} nodes in "
          f"{sum(dt for _, dt in results):.1f} s")


def main() -> int:
    modal_batch()

    for strategy, ns in ((PLUS, range(1, 7)), (BASIC, range(1, 7))):
        counts = [decide(inputs.successor_family(n), strategy).stats.nodes_expanded for n in ns]
        print(f"successor family, {strategy.value}, n=1..6: {' / '.join(map(str, counts))} nodes")

    rng = random.Random(0)
    concept = syntax.parse_concept(inputs.distribution_family(rng, 10))
    f, cnf_s = timed(normal_form.to_cnf, concept)
    verdict, search_s = timed(engine.decide_sat, f, PLUS)
    print(f"distribution family k=10, plus: {len(f)} clauses; to_cnf {cnf_s:.3f} s, "
          f"search {search_s:.3f} s, {verdict.stats.nodes_expanded} nodes")
    for k in (5, 6):
        f = normal_form.to_cnf(syntax.parse_concept(inputs.distribution_family(rng, k)))
        tab = tableau.extract_tableau(engine.decide_sat(f, PLUS))
        _, check_s = timed(tableau.check_tableau, tab, f, True)
        print(f"check_tableau (restricted), distribution family k={k}: {check_s:.3f} s")

    _, chain_s = timed(workloads.model_path, inputs.and_chain(rng, 900), PLUS)
    print(f"900-term & chain, check --model path, plus: {chain_s:.2f} s")

    cfg = harness.GenConfig(max_depth=5, connective_weights=workloads.STRUCTURED_WEIGHTS, seed=1)
    report, fuzz_s = timed(harness.run_differential, cfg, 500)
    print(f"structured fuzz, depth 5, 500 trials: {fuzz_s:.2f} s, ok={report.ok}")

    env = {"PYTHONPATH": str(run.SRC), "PYTHONHASHSEED": run.HASH_SEED, "PATH": "/usr/bin:/bin"}
    for label, code in (("bare interpreter", "pass"), ("import alcsat", "import alcsat")):
        times = []
        for _ in range(11):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(time.perf_counter() - t0)
        print(f"{label}: median {statistics.median(times):.3f} s, "
              f"range {min(times):.3f}-{max(times):.3f} s over 11 launches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
