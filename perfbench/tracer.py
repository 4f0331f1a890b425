"""Spans around the calls into each expandlab module, recorded from outside
the program.

``Tracer.install`` replaces each traced function in its defining module and
in every expandlab module that imported it by name; ``uninstall`` puts the
originals back.  The callables returned by ``compile_scalar`` and
``compile_batch`` are wrapped too.  Spans stay in memory until ``export``.

A span is ``[name, start, end, parent, thread]``; the command id is added
when a run merges the exports of its commands.  A call that re-enters a
function already open on the same thread counts toward ``calls`` but opens
no span.  A span opened on a thread with nothing open (a worker of a thread
pool) takes the main thread's innermost open span as its parent.

Compiled evaluators are called far too often for one span per call.  Their
calls are summed per (name, parent span, thread) into *leaves*
``[name, parent, thread, calls, busy_s, work]``, where work is the number of
points evaluated.  Leaves never overlap each other or a child span on the
same thread, so a parent's self time subtracts their busy time directly.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import numpy as np

# (module, function, span name, post-processing kind)
TARGETS = (
    ("expandlab.expr", "parse", "expr.parse", None),
    ("expandlab.expr", "simplify", "expr.simplify", None),
    ("expandlab.expr", "differentiate", "expr.differentiate", None),
    ("expandlab.expr", "is_identically_zero", "expr.zero_test", "zero_test"),
    ("expandlab.expr", "compile_scalar", "expr.compile", "compile_scalar"),
    ("expandlab.expr", "compile_batch", "expr.compile", "compile_batch"),
    ("expandlab.expr", "evaluate", "expr.evaluate", None),
    ("expandlab.degeneracy", "classify", "degeneracy.classify", None),
    ("expandlab.degeneracy", "kappa", "degeneracy.certificate", "certificate"),
    ("expandlab.degeneracy", "aux_trivariate", "degeneracy.certificate", "certificate"),
    ("expandlab.foldgeom", "fold_verify", "foldgeom.fold_verify", None),
    ("expandlab.foldgeom", "implicit_phi", "foldgeom.implicit_phi", None),
    ("expandlab.specialform", "recover_bivariate", "specialform.recover", None),
    ("expandlab.specialform", "recover_trivariate", "specialform.recover", None),
    ("expandlab.specialform", "reconstruction_residual", "specialform.residual", None),
    ("expandlab.fractal", "digit_points", "fractal.points", "points"),
    ("expandlab.fractal", "cantor_points", "fractal.points", "points"),
    ("expandlab.fractal", "load_points", "fractal.points", "points"),
    ("expandlab.dimlab", "image_quantize", "dimlab.image_quantize", "quantize"),
    ("expandlab.dimlab", "box_counts", "dimlab.box_counts", None),
    ("expandlab.dimlab", "covered_fraction", "dimlab.covered_fraction", None),
    ("expandlab.dimlab", "dim_estimate", "dimlab.dim_estimate", None),
    ("expandlab.dimlab", "expansion_experiment", "dimlab.expansion_experiment", None),
    ("expandlab.cli", "main", "cli.main", None),
)

# The quadrature integrand of special-form recovery is the ratio callable
# this private helper returns; its calls are counted, not timed.  The count
# reads 0 once the helper is gone.
INTEGRAND = ("expandlab.specialform", "_scalar_ratio_fn")

EVAL_SCALAR = "expr.eval_scalar"
EVAL_BATCH = "expr.eval_batch"


def tree_and_dag_nodes(e) -> tuple[int, int]:
    """Node count of an expression as a tree (shared subtrees counted once
    per occurrence) and as a DAG (structurally equal subtrees counted once)."""
    tree: dict = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if node in tree:
            stack.pop()
            continue
        pending = [a for a in node.args if a not in tree]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        tree[node] = 1 + sum(tree[a] for a in node.args)
    return tree[e], len(tree)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple, list] = {}
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.certificates: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._t0 = time.perf_counter()
        self._patched: list[tuple] = []
        self._originals: dict[str, object] = {}

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.active = Counter()
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main and threading.get_ident() != self._main else None

    def _span(self, key, name: str, fn, post):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            active = self._local.active
            with self._lock:
                self.calls[name] += 1
            if active[key]:
                return fn(*args, **kwargs)
            active[key] += 1
            tid = threading.get_ident()
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, time.perf_counter() - self._t0, None,
                                   self._parent(stack), tid])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter() - self._t0
                stack.pop()
                active[key] -= 1
            return post(result) if post else result

        return wrapper

    def _leaf(self, name: str, fn, work):
        def wrapper(*args):
            stack = self._stack()
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args)
            finally:  # a call that raises still counts, with no points
                busy = time.perf_counter() - t0
                key = (name, self._parent(stack), threading.get_ident())
                n = 0 if out is None else work(out)
                with self._lock:
                    self.calls[name] += 1
                    leaf = self.leaves.setdefault(key, [0, 0.0, 0])
                    leaf[0] += 1
                    leaf[1] += busy
                    leaf[2] += n
            return out

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args):
            with self._lock:
                self.calls[name] += 1
            return fn(*args)

        return wrapper

    # -- post-processing of results ---------------------------------------

    def _post(self, kind):
        if kind == "compile_scalar":
            return lambda fn: self._leaf(EVAL_SCALAR, fn, lambda out: 1)
        if kind == "compile_batch":
            return lambda fn: self._leaf(EVAL_BATCH, fn, lambda out: int(np.size(out)))
        if kind == "zero_test":
            return self._note_zero_test
        if kind == "certificate":
            return self._note_certificate
        if kind == "points":
            return self._note_points
        if kind == "quantize":
            return self._note_quantize
        return None

    def _note_zero_test(self, check):
        if check.symbolic:
            with self._lock:
                self.counts["expr.zero_test.symbolic"] += 1
        return check

    def _note_certificate(self, result):
        self.certificates.append(result)
        return result

    def _note_points(self, ps):
        with self._lock:
            self.counts["fractal.points.count"] += len(ps)
        return ps

    def _note_quantize(self, q):
        with self._lock:
            self.counts["dimlab.cells.ncells"] += int(q.ncells)
            self.counts["dimlab.cells.population"] += int(q.population)
        return q

    # -- patching -----------------------------------------------------------

    def _replace(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "expandlab" or mod_name.startswith("expandlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self):
        for key, (mod_name, attr, name, kind) in enumerate(TARGETS):
            original = getattr(sys.modules[mod_name], attr)
            self._originals[f"{mod_name}.{attr}"] = original
            self._replace(original, self._span(key, name, original, self._post(kind)))
        mod_name, attr = INTEGRAND
        helper = getattr(sys.modules[mod_name], attr, None)
        if helper is not None:
            counted = lambda *a, **k: self._counted("specialform.integrand", helper(*a, **k))
            self._replace(helper, counted)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- export -------------------------------------------------------------

    def export(self) -> dict:
        """Spans, leaves and counters as plain JSON data.  Thread ids become
        0 (the main thread), 1, 2, ... in order of first appearance."""
        threads = {self._main: 0}

        def tid(t):
            return threads.setdefault(t, len(threads))

        spans = [[n, s, e, p, tid(t)] for n, s, e, p, t in self.spans]
        leaves = [[n, p, tid(t), c, b, w] for (n, p, t), (c, b, w) in self.leaves.items()]
        counts = dict(self.counts)
        tree = dag = 0
        for result in self.certificates:
            for e in result if isinstance(result, tuple) else (result,):
                t, d = tree_and_dag_nodes(e)
                tree += t
                dag += d
        counts["degeneracy.cert.tree_nodes"] = tree
        counts["degeneracy.cert.dag_nodes"] = dag
        for name in ("simplify", "differentiate"):
            fn = self._originals.get(f"expandlab.expr.{name}")
            if fn is not None and hasattr(fn, "cache_info"):
                counts[f"expr.{name}.memo_entries"] = fn.cache_info().currsize
        return {"spans": spans, "leaves": leaves, "calls": dict(self.calls), "counts": counts}
