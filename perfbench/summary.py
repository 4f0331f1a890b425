"""Statistics over a run: percentiles, self times and per-layer metrics."""

from __future__ import annotations

import math
from collections import defaultdict

MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1)).  Refuses to report one with
    fewer than ``MIN_BEYOND`` samples above its rank."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {n} samples has {n - rank} beyond it; need {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans, leaves=()) -> list[float]:
    """Self time of each span: its duration minus the part of it covered by
    child spans on the same thread, minus the busy time of its leaves on the
    same thread.  Children on other threads run concurrently and leave the
    parent's self time alone."""
    children = defaultdict(list)
    for name, start, end, parent, thread in spans:
        if parent is not None and spans[parent][4] == thread:
            children[parent].append((start, end))
    leaf_busy = defaultdict(float)
    for name, parent, thread, calls, busy, work in leaves:
        if parent is not None and spans[parent][4] == thread:
            leaf_busy[parent] += busy
    out = []
    for i, (name, start, end, parent, thread) in enumerate(spans):
        covered = _union_length(children[i], start, end)
        out.append(end - start - covered - leaf_busy[i])
    return out


def _ancestor(spans, index, name: str):
    """Index of the nearest span called ``name`` at or above ``index``."""
    while index is not None and spans[index][0] != name:
        index = spans[index][3]
    return index


def layer_metrics(traces: list[dict], product_tuples: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its commands' exports."""
    calls = defaultdict(int)
    counts = defaultdict(int)
    seconds = defaultdict(float)
    self_s = defaultdict(float)
    busy = defaultdict(float)
    work = defaultdict(int)
    quantize_evals = 0
    quantize_other = 0.0
    memo = defaultdict(int)
    for tr in traces:
        spans, leaves = tr["spans"], tr["leaves"]
        for name, n in tr["calls"].items():
            calls[name] += n
        for name, n in tr["counts"].items():
            if name.endswith(".memo_entries"):
                memo[name] = max(memo[name], n)
            else:
                counts[name] += n
        for (name, start, end, _, _), own in zip(spans, self_times(spans, leaves)):
            seconds[name] += end - start
            self_s[name] += own
        eval_busy = defaultdict(float)
        eval_threads = defaultdict(set)
        for name, parent, thread, n_calls, b, w in leaves:
            busy[name] += b
            work[name] += w
            q = _ancestor(spans, parent, "dimlab.image_quantize")
            if name == "expr.eval_batch" and q is not None:
                quantize_evals += w
                eval_busy[q] += b
                eval_threads[q].add(thread)
        # wall time of each quantize call not spent evaluating, counting the
        # evaluation busy time of its threads as spread evenly over them
        for q, (name, start, end, _, _) in enumerate(spans):
            if name == "dimlab.image_quantize":
                quantize_other += end - start - eval_busy[q] / max(1, len(eval_threads[q]))

    zero_calls = calls["expr.zero_test"]
    m = {
        "expr.parse.s": seconds["expr.parse"],
        "expr.simplify.calls": calls["expr.simplify"],
        "expr.simplify.s": seconds["expr.simplify"],
        "expr.differentiate.calls": calls["expr.differentiate"],
        "expr.differentiate.s": seconds["expr.differentiate"],
        "expr.zero_test.calls": zero_calls,
        "expr.zero_test.s": seconds["expr.zero_test"],
        "expr.zero_test.symbolic_ratio": (
            counts["expr.zero_test.symbolic"] / zero_calls if zero_calls else 0.0
        ),
        "expr.compile.calls": calls["expr.compile"],
        "expr.compile.s": seconds["expr.compile"],
        "expr.eval_batch.tuples": work["expr.eval_batch"],
        "expr.eval_batch.busy_s": busy["expr.eval_batch"],
        "expr.eval_scalar.calls": calls["expr.eval_scalar"],
        "expr.eval_scalar.s": busy["expr.eval_scalar"],
        "expr.evaluate.calls": calls["expr.evaluate"],
        "expr.simplify.memo_entries": memo["expr.simplify.memo_entries"],
        "expr.differentiate.memo_entries": memo["expr.differentiate.memo_entries"],
        "degeneracy.classify.self_s": self_s["degeneracy.classify"],
        "degeneracy.certificate.s": seconds["degeneracy.certificate"],
        "degeneracy.cert.tree_nodes": counts["degeneracy.cert.tree_nodes"],
        "degeneracy.cert.dag_nodes": counts["degeneracy.cert.dag_nodes"],
        "foldgeom.fold_verify.s": seconds["foldgeom.fold_verify"],
        "foldgeom.implicit_phi.calls": calls["foldgeom.implicit_phi"],
        "specialform.recover.self_s": self_s["specialform.recover"],
        "specialform.integrand_evals": calls["specialform.integrand"],
        "specialform.residual.s": seconds["specialform.residual"],
        "fractal.points.s": seconds["fractal.points"],
        "fractal.points.count": counts["fractal.points.count"],
        "dimlab.image_quantize.s": seconds["dimlab.image_quantize"],
        "dimlab.quantize.evals_per_tuple": (
            quantize_evals / product_tuples if product_tuples else 0.0
        ),
        "dimlab.quantize.other_s": quantize_other,
        "dimlab.cells.ncells": counts["dimlab.cells.ncells"],
        "dimlab.cells.population": counts["dimlab.cells.population"],
        "dimlab.box_counts.s": seconds["dimlab.box_counts"],
        "dimlab.covered_fraction.s": seconds["dimlab.covered_fraction"],
        "dimlab.dim_estimate.s": seconds["dimlab.dim_estimate"],
        "cli.self_s": self_s["cli.main"],
    }
    return m
