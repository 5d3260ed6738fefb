"""The benchmark's workloads: seeded inputs and the rotation of ops each run repeats.

An op is one top-level public call into uotpool. A run walks a workload's
rotation of slots in order, so every slot is measured about equally often.
``make_inputs`` uses numpy only, which lets the worker generate inputs
before it imports uotpool and keep that time out of ``setup_s``.
"""

from __future__ import annotations

import os
from typing import Any, Callable

import numpy as np

# Weights of ``uotpool bench`` and ``uotpool stability`` (alpha0 = 0.1, rest 1).
ALPHA0 = 0.1
TRAIN_EPOCHS = 1
TRAIN_LR = 3.0
SMALL_POOL = 16  # distinct inputs per small_calls slot
CLI_SEEDS = 4


def solve_batch(x, params, kind):
    """Final plan and objective trace of one batched solve.

    uotpool has no public batched solve yet, so this is the benchmark's only
    private import: ``solvers._solve_core``, the path ``uotpool bench``,
    ``learning`` and the acceptance test use. When a public ``uotpool.solve``
    exists, this line is the one to change. The attribute is looked up per
    call so that the tracer's wrapper is seen.
    """
    import uotpool.solvers
    return uotpool.solvers._solve_core(x, params, kind)


class BulkBatch:
    name = "bulk_batch"
    shape = (50, 100, 500)  # 20 MB per float64 array
    # K = 4 is two thirds of the ops, so the median op is a K = 4 solve
    # rather than the midpoint of the gap between the K = 4 and K = 8 modes.
    slots = (("sinkhorn", 4), ("badmm", 4), ("sinkhorn", 8), ("sinkhorn", 4), ("badmm", 4), ("badmm", 8))

    def make_inputs(self, seed: int) -> dict:
        return {"x": np.random.default_rng(seed).uniform(0.0, 1.0, self.shape)}

    def params(self, pkg) -> list:
        _, d, n = self.shape
        return [pkg.UotParams.uniform(d, n, k_iters=k, alpha0=ALPHA0) for _, k in self.slots]

    def ops(self, pkg, inputs: dict, workdir: str) -> list[Callable[[int], Any]]:
        x = inputs["x"]

        def op(kind, params):
            def call(r):
                plan, _ = solve_batch(x, params, kind)
                return pkg.pool_with_plan(x, plan)
            return call

        return [op(pkg.SolverKind(s), p) for (s, _), p in zip(self.slots, self.params(pkg))]

    def key(self, slot: int, r: int) -> str:
        return f"s{slot}"

    def encode(self, raw) -> dict:
        return {"pooled": raw.tolist()}


class SmallCalls:
    name = "small_calls"
    shape = (5, 10)
    # 12 of 20 calls are the interpolating K = 4 operator, so the median op
    # is one small solve; the K = 32 configs and the hierarchical pool set
    # the tail and most of the run time.
    slots = tuple(
        [("interp", "sinkhorn"), ("interp", "badmm")] * 6
        + [(cfg, s) for cfg in ("mean", "max", "attention") for s in ("sinkhorn", "badmm")]
        + [("hierarchical", "sinkhorn"), ("hierarchical", "badmm")]
    )

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.1, 1.0, self.shape[1])
        return {
            "x": rng.uniform(0.0, 1.0, (len(self.slots), SMALL_POOL) + self.shape),
            "omega": rng.uniform(0.2, 0.8, (len(self.slots), SMALL_POOL)),
            "q0": q / q.sum(),
        }

    def params(self, pkg, inputs: dict) -> dict:
        d, n = self.shape
        return {
            "interp": pkg.UotParams.uniform(d, n, k_iters=4, alpha0=ALPHA0),
            "mean": pkg.mean_config(d, n),
            "max": pkg.max_config(d, n),
            "attention": pkg.attention_config(d, inputs["q0"]),
        }

    def ops(self, pkg, inputs: dict, workdir: str) -> list[Callable[[int], Any]]:
        xs, omegas = inputs["x"], inputs["omega"]
        params = self.params(pkg, inputs)

        def op(j, cfg, solver):
            kind = pkg.SolverKind(solver)
            if cfg == "hierarchical":
                def call(r):
                    i = r % SMALL_POOL
                    return pkg.hierarchical_uot_pool(xs[j, i], omegas[j, i], kind), None
            else:
                p = params[cfg]

                def call(r):
                    pooled, diag = pkg.uot_pool(xs[j, r % SMALL_POOL], p, kind)
                    return pooled, diag.has_nan
            return call

        return [op(j, cfg, s) for j, (cfg, s) in enumerate(self.slots)]

    def key(self, slot: int, r: int) -> str:
        return f"s{slot}/i{r % SMALL_POOL}"

    def encode(self, raw) -> dict:
        pooled, has_nan = raw
        return {"pooled": pooled.tolist(), "has_nan": has_nan}


class TrainFd:
    name = "train_fd"
    # The ``uotpool train`` defaults: 200 bags of 8 x 16, max rule on feature 3.
    n_bags, dim, bag_size, k_iters = 200, 8, 16, 4
    slots = ("task0", "task1")

    def make_inputs(self, seed: int) -> dict:
        return {"task_seed": np.random.default_rng(seed).integers(0, 2**31, len(self.slots))}

    def spec(self, pkg):
        return pkg.UotSinkhornPooling(pkg.UotParams.uniform(self.dim, self.bag_size, k_iters=self.k_iters))

    def task(self, pkg, task_seed):
        return pkg.SyntheticTask(
            n_bags=self.n_bags, bag_size=self.bag_size, dim=self.dim,
            rule=pkg.MaxThreshold(feature=3, threshold=0.9), seed=int(task_seed),
        )

    def ops(self, pkg, inputs: dict, workdir: str) -> list[Callable[[int], Any]]:
        spec = self.spec(pkg)

        def op(task):
            return lambda r: pkg.train_synthetic(task, spec, epochs=TRAIN_EPOCHS, lr=TRAIN_LR)

        return [op(self.task(pkg, s)) for s in inputs["task_seed"]]

    def key(self, slot: int, r: int) -> str:
        return f"s{slot}"

    def encode(self, raw) -> dict:
        return {"loss": raw.tolist()}


class CliSweep:
    name = "cli_sweep"
    slots = tuple(f"seed{i}" for i in range(CLI_SEEDS))

    def make_inputs(self, seed: int) -> dict:
        return {"cli_seed": np.random.default_rng(seed).integers(0, 2**31, CLI_SEEDS)}

    def ops(self, pkg, inputs: dict, workdir: str) -> list[Callable[[int], Any]]:
        import uotpool.cli

        def op(j, seed):
            def call(r):
                out = os.path.join(workdir, f"r{r}-s{j}")
                return uotpool.cli.main(["stability", "--seed", str(seed), "--out", out]), out
            return call

        return [op(j, int(s)) for j, s in enumerate(inputs["cli_seed"])]

    def key(self, slot: int, r: int) -> str:
        return f"s{slot}"

    def encode(self, raw) -> dict:
        rc, out = raw
        return {"rc": rc, "out": out}


WORKLOADS = {w.name: w for w in (BulkBatch(), SmallCalls(), TrainFd(), CliSweep())}
