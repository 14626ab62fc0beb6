"""Span tracing for the traced run.

:func:`install` replaces, for the traced run only, the module attributes
through which the program calls its public functions (for example
``alcsat.engine.is_clash`` or ``alcsat.harness.decide_sat``) with
wrappers that record a span: layer, start, end, parent span and
operation id.  Spans stay in memory, in flat arrays, until the run ends;
:meth:`Tracer.summary` then turns them into per-layer self times (a
span's duration minus its child spans) and counts.  No file of the
program changes, and :func:`uninstall` puts every attribute back.

Counting work done on a function's result (rule counts from a verdict's
edges, label counts from a tableau) is kept off the span clock, so it
does not show up as anyone's self time.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter

import alcsat.cli
import alcsat.clause_model
import alcsat.engine
import alcsat.harness
import alcsat.normal_form
import alcsat.oracle
import alcsat.syntax
import alcsat.tableau

OP = "bench.op"  # the root span of each operation


class Tracer:
    def __init__(self) -> None:
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self._root = -1
        self.unbalanced = 0
        self.excluded = 0.0
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._op_layer = self.layer_id(OP)

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return self._layer_ids[name]

    def now(self) -> float:
        return time.perf_counter() - self.excluded

    def open(self, lid: int) -> int:
        idx = len(self.start)
        self.layer.append(lid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(self.now())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.now()
        if self.stack.pop() != idx:
            self.unbalanced += 1

    def begin_op(self) -> None:
        self.op_id += 1
        self._root = self.open(self._op_layer)

    def end_op(self) -> None:
        self.close(self._root)

    def off_clock(self, count, result) -> None:
        t0 = time.perf_counter()
        count(self, result)
        self.excluded += time.perf_counter() - t0

    def wrap(self, layer: str, fn, count=None):
        """``fn`` recording a span of ``layer``.  A call made while a span
        of the same layer is open (``apply_a2_plus`` calling ``apply_a2``)
        stays part of that span."""
        lid = self.layer_id(layer)
        tracer = self

        def traced(*args, **kwargs):
            top = tracer.stack[-1]
            if top >= 0 and tracer.layer[top] == lid:
                return fn(*args, **kwargs)
            idx = tracer.open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.off_clock(count, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- summary -------------------------------------------------------------

    def summary(self) -> tuple[dict, dict, float]:
        """(self seconds by layer, span count by layer, total operation
        seconds).  Self times of all layers add up to the total."""
        n = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        own = array("d", dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        # Plain sums, not fsum over per-layer lists: a list of millions of
        # floats would take more memory than the spans themselves.
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            name = self.layer_names[self.layer[i]]
            self_s[name] += own[i]
            calls[name] += 1
        total = math.fsum(dur[i] for i in range(n) if self.parent[i] < 0)
        return dict(self_s), calls, total

    def inclusive(self, layer: str) -> float:
        lid = self._layer_ids.get(layer)
        return math.fsum(
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.layer[i] == lid
        )

    def calls_within(self, layer: str, ancestor: str) -> int:
        """Spans of ``layer`` that have a span of ``ancestor`` above them."""
        lid, aid = self._layer_ids.get(layer), self._layer_ids.get(ancestor)
        found = 0
        for i in range(len(self.start)):
            if self.layer[i] != lid:
                continue
            p = self.parent[i]
            while p >= 0 and self.layer[p] != aid:
                p = self.parent[p]
            found += p >= 0
        return found


# --- what each wrapper counts, off the clock ----------------------------------

RULE_METRICS = {"A1": "A1", "A1+": "A1_plus", "A2": "A2", "A2+": "A2_plus", "A3": "A3"}


def _count_cnf(tracer: Tracer, f) -> None:
    tracer.counts["normal_form.clauses"] += len(f)
    tracer.counts["normal_form.literals"] += sum(len(c) for c in f)


def _count_verdict(tracer: Tracer, verdict) -> None:
    edges = verdict.tree.edges
    depth = {0: 0}
    parents = set()
    for e in edges:
        depth[e.child] = depth[e.parent] + 1
        parents.add(e.parent)
        tracer.counts["engine.rule." + RULE_METRICS.get(e.application.rule, e.application.rule)] += 1
    tracer.counts["engine.clashes"] += len(verdict.tree.clash_nodes)
    tracer.counts["engine.backtracks"] += len(edges) - len(parents)
    tracer.maxima["engine.max_depth"] = max(tracer.maxima["engine.max_depth"], max(depth.values()))


def _count_tableau(tracer: Tracer, tab) -> None:
    tracer.counts["tableau.labels"] += sum(len(v) for v in tab.labels.values())
    tracer.counts["tableau.domain"] += len(tab.individuals)


def _count_bytes(tracer: Tracer, text: str) -> None:
    tracer.counts["engine.trace_bytes"] += len(text)


_m = alcsat
# (module, attribute, layer, count, recursive).  ``recursive`` marks a
# function that calls itself through its own module attribute; the
# original is put back for the length of the outer call, so the
# recursion neither records spans nor doubles its stack depth.
PATCHES = [
    (_m.syntax, "parse_concept", "syntax.parse", None, False),
    (_m.cli, "parse_concept", "syntax.parse", None, False),
    (_m.normal_form, "to_cnf", "normal_form.to_cnf", _count_cnf, False),
    (_m.harness, "to_cnf", "normal_form.to_cnf", _count_cnf, False),
    (_m.cli, "to_cnf", "normal_form.to_cnf", _count_cnf, False),
    (_m.normal_form, "complement", "normal_form.complement", None, False),
    (_m.engine, "complement", "normal_form.complement", None, False),
    (_m.tableau, "complement", "normal_form.complement", None, False),
    (_m.clause_model, "family_to_json", "clause_model.codec", None, False),
    (_m.clause_model, "family_from_json", "clause_model.codec", None, False),
    (_m.engine, "family_to_json", "clause_model.codec", None, False),
    (_m.engine, "family_from_json", "clause_model.codec", None, False),
    (_m.engine, "decide_sat", "engine.decide", _count_verdict, False),
    (_m.harness, "decide_sat", "engine.decide", _count_verdict, False),
    (_m.cli, "decide_sat", "engine.decide", _count_verdict, False),
    (_m.engine, "apply_a1", "engine.apply", None, False),
    (_m.engine, "apply_a1_plus", "engine.apply", None, False),
    (_m.engine, "apply_a2", "engine.apply", None, False),
    (_m.engine, "apply_a2_plus", "engine.apply", None, False),
    (_m.engine, "apply_a3", "engine.apply", None, False),
    (_m.engine, "is_clash", "engine.clash", None, False),
    (_m.engine, "family_measure", "engine.measure", None, False),
    (_m.engine, "trace_to_json", "engine.trace_to_json", None, False),
    (_m.cli, "trace_to_json", "engine.trace_to_json", None, False),
    (_m.engine, "replay_trace", "engine.replay", None, False),
    (_m.cli, "replay_trace", "engine.replay", None, False),
    (_m.tableau, "extract_tableau", "tableau.extract", _count_tableau, False),
    (_m.harness, "extract_tableau", "tableau.extract", _count_tableau, False),
    (_m.cli, "extract_tableau", "tableau.extract", _count_tableau, False),
    (_m.tableau, "check_tableau", "tableau.check", None, False),
    (_m.tableau, "tableau_to_interpretation", "tableau.model_eval", None, False),
    (_m.harness, "tableau_to_interpretation", "tableau.model_eval", None, False),
    (_m.cli, "tableau_to_interpretation", "tableau.model_eval", None, False),
    (_m.tableau, "eval_concept", "tableau.model_eval", None, True),
    (_m.harness, "eval_concept", "tableau.model_eval", None, False),
    (_m.oracle, "oracle_sat", "oracle.sat", None, False),
    (_m.harness, "oracle_sat", "oracle.sat", None, False),
    (_m.cli, "oracle_sat", "oracle.sat", None, False),
    (_m.harness, "run_differential", "harness.trial", None, False),
    (_m.cli, "run_differential", "harness.trial", None, False),
    (_m.cli, "main", "cli.main", None, False),
]


def _restoring(module, attr: str, original, traced):
    def call(*args, **kwargs):
        setattr(module, attr, original)
        try:
            return traced(*args, **kwargs)
        finally:
            setattr(module, attr, call)

    return call


def install(tracer: Tracer, bench_module) -> list:
    """Patch every traced attribute; returns what :func:`uninstall` needs.

    ``bench_module`` is the benchmark's own module whose ``encode`` and
    ``decode`` (the JSON codec of the replay round trip) are timed as the
    ``bench.json`` layer.
    """
    patches = PATCHES + [
        (bench_module, "encode", "bench.json", _count_bytes, False),
        (bench_module, "decode", "bench.json", None, False),
    ]
    saved = []
    for module, attr, layer, count, recursive in patches:
        original = getattr(module, attr, None)
        if original is None:
            print(f"trace: {module.__name__}.{attr} not found, not traced", file=sys.stderr)
            continue
        traced = tracer.wrap(layer, original, count)
        if recursive:
            traced = _restoring(module, attr, original, traced)
        saved.append((module, attr, original))
        setattr(module, attr, traced)
    return saved


def uninstall(saved: list) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
