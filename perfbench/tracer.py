"""Spans and counters at uotpool's module boundaries, recorded from outside.

The tracer replaces the names a calling module binds (for example
``uotpool.pooling.sinkhorn_uot`` or ``uotpool.learning._solve_core``) with
wrappers that record a span: name, start, end, parent span and op id. Spans
stay in memory and are written out once, at the end of the run. A span's
self time is its duration minus the time its child spans cover. A binding
that a later version of uotpool no longer has is skipped and reported, so a
rename shows up as a missing metric rather than a crash.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

import numpy as np

# (module, attribute) -> span name. Each entry is the binding a caller uses,
# so a function reached through two modules is wrapped in both.
SPANS = {
    ("uotpool.solvers", "logsumexp_rows"): "numerics.lse",
    ("uotpool.solvers", "logsumexp_cols"): "numerics.lse",
    ("uotpool.pooling", "row_conditional"): "numerics.row_conditional",
    ("uotpool.solvers", "sinkhorn_init"): "solvers.init",
    ("uotpool.solvers", "badmm_init"): "solvers.init",
    ("uotpool.solvers", "sinkhorn_step"): "solvers.sinkhorn_step",
    ("uotpool.solvers", "badmm_primal_update"): "solvers.badmm_primal",
    ("uotpool.solvers", "badmm_auxiliary_update"): "solvers.badmm_aux",
    ("uotpool.solvers", "badmm_dual_update"): "solvers.badmm_dual",
    ("uotpool.solvers", "_solve_core"): "solvers.solve",
    ("uotpool.learning", "_solve_core"): "solvers.solve",
    ("uotpool.experiments", "_solve_core"): "solvers.solve",
    ("uotpool.pooling", "sinkhorn_uot"): "solvers.checked_solve",
    ("uotpool.pooling", "badmm_uot"): "solvers.checked_solve",
    ("uotpool", "pool_with_plan"): "pooling.pool_with_plan",
    ("uotpool.pooling", "pool_with_plan"): "pooling.pool_with_plan",
    ("uotpool.learning", "pool_with_plan"): "pooling.pool_with_plan",
    ("uotpool", "uot_pool"): "pooling.uot_pool",
    ("uotpool.pooling", "uot_pool"): "pooling.uot_pool",
    ("uotpool", "hierarchical_uot_pool"): "pooling.hierarchical",
    ("uotpool", "train_synthetic"): "learning.train",
    ("uotpool.learning", "generate_task_data"): "learning.generate_task_data",
    ("uotpool.cli", "main"): "cli.main",
}

# Per-layer metric -> (unit, how it is derived). "self" sums the self time of
# the listed spans, "calls" counts them, "count" reads a counter.
# ``solvers.solve`` covers the plan exp, the objective trace, the input checks
# and the diagnostics: the self time of both the core and the checked entry.
PER_LAYER = {
    "numerics.lse.calls": ("count", "calls", ("numerics.lse",)),
    "numerics.lse.self_ms": ("ms", "self", ("numerics.lse",)),
    "numerics.lse.bytes": ("computed_bytes", "count", "lse_bytes"),
    "numerics.row_conditional.self_ms": ("ms", "self", ("numerics.row_conditional",)),
    "pooling.pool_with_plan.self_ms": ("ms", "self", ("pooling.pool_with_plan",)),
    "solvers.sinkhorn_step.self_ms": ("ms", "self", ("solvers.sinkhorn_step",)),
    "solvers.badmm_primal.self_ms": ("ms", "self", ("solvers.badmm_primal",)),
    "solvers.badmm_aux.self_ms": ("ms", "self", ("solvers.badmm_aux",)),
    "solvers.badmm_dual.self_ms": ("ms", "self", ("solvers.badmm_dual",)),
    "solvers.init.self_ms": ("ms", "self", ("solvers.init",)),
    "solvers.solve.calls": ("count", "calls", ("solvers.solve",)),
    "solvers.solve.self_ms": ("ms", "self", ("solvers.solve", "solvers.checked_solve")),
    "solvers.nonfinite_plans": ("count", "count", "nonfinite_plans"),
    "pooling.degenerate_rows": ("count", "count", "degenerate_rows"),
    "pooling.uot_pool.self_ms": ("ms", "self", ("pooling.uot_pool",)),
    "pooling.hierarchical.self_ms": ("ms", "self", ("pooling.hierarchical",)),
    "learning.train.self_ms": ("ms", "self", ("learning.train",)),
    "learning.generate_task_data.self_ms": ("ms", "self", ("learning.generate_task_data",)),
    "experiments.cmd.self_ms": ("ms", "self", ("experiments.cmd",)),
    "experiments.bytes_written": ("bytes", "count", "bytes_written"),
    "cli.main.self_ms": ("ms", "self", ("cli.main",)),
}


class Tracer:
    """Records spans while installed; ``op_id`` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters = {"lse_bytes": 0, "nonfinite_plans": 0, "degenerate_rows": 0,
                         "bytes_written": 0}
        self.op_id = -1
        self._stack: list[int] = []
        # (namespace, key, original, replacement); a module's namespace is its __dict__.
        self._patches: list[tuple[dict, str, object, object]] = []
        self.unbound: list[str] = []
        after = {"numerics.lse": self._count_lse, "solvers.solve": self._count_plan}
        for (mod_name, attr), span in SPANS.items():
            self._patch(mod_name, attr, lambda fn, span=span: self._wrap(span, fn, after.get(span)))
        self._patch("uotpool.experiments", "_atomic_write", self._count_write)
        # The CLI dispatches through a table of function objects, not module names.
        commands = getattr(importlib.import_module("uotpool.cli"), "_COMMANDS", {})
        for name, (fn, *rest) in commands.items():
            self._patches.append((commands, name, commands[name],
                                  (self._wrap("experiments.cmd", fn), *rest)))
        if not commands:
            self.unbound.append("uotpool.cli._COMMANDS")

    def _patch(self, mod_name, attr, make):
        namespace = vars(importlib.import_module(mod_name))
        if attr in namespace:
            self._patches.append((namespace, attr, namespace[attr], make(namespace[attr])))
        else:
            self.unbound.append(f"{mod_name}.{attr}")

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_lse(self, args, result):
        self.counters["lse_bytes"] += args[0].nbytes + result.nbytes

    def _count_plan(self, args, result):
        plan = result[0]
        items = plan.reshape((-1,) + plan.shape[-2:])
        self.counters["nonfinite_plans"] += int((~np.isfinite(items).all(axis=(-2, -1))).sum())
        self.counters["degenerate_rows"] += int((plan.sum(axis=-1) == 0.0).sum())

    def _count_write(self, fn):
        def counted(path, text):
            self.counters["bytes_written"] += len(text.encode("utf-8"))
            return fn(path, text)

        return counted

    def install(self):
        for namespace, key, _, replacement in self._patches:
            namespace[key] = replacement

    def uninstall(self):
        for namespace, key, original, _ in self._patches:
            namespace[key] = original

    def self_times(self) -> list[float]:
        """Self time of each span, in seconds."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def metrics(self, n_ops: int, traced_op_s: float) -> dict:
        """Per-layer metrics per traced op, plus the share of op time the spans explain."""
        selfs = self.self_times()
        by_name_self: dict[str, float] = {}
        by_name_calls: dict[str, int] = {}
        for (name, *_), s in zip(self.spans, selfs):
            by_name_self[name] = by_name_self.get(name, 0.0) + s
            by_name_calls[name] = by_name_calls.get(name, 0) + 1
        out = {}
        for metric, (unit, how, source) in PER_LAYER.items():
            if how == "self":
                value = 1e3 * sum(by_name_self.get(s, 0.0) for s in source)
            elif how == "calls":
                value = sum(by_name_calls.get(s, 0) for s in source)
            else:
                value = self.counters[source]
            out[metric] = {"value": value / n_ops, "unit": unit}
        out["trace.self_cover_frac"] = {"value": sum(selfs) / traced_op_s, "unit": "ratio"}
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
