"""Print one SHA-256 per section over the outputs of a fixed set of solves.

    python3 tools/solve_digest.py [--quick]

Imports uotpool from the ``src/`` tree next to this script, so running it in
two checkouts tells whether a change keeps every output bit, and a change
meant to move one section shows the others unchanged. The sections, each
in a fixed order:

* ``stability``: the ``uotpool stability`` grid (5 x 10, weights over ten
  decades, where the Sinkhorn scheme overflows in some corners), for each
  solver config;
* ``stability_batched``: the same grid solved as one 100-item batch with
  per-item weights for each solver config, hashed per item: the plan, the
  trace column, ``has_nan``, ``total_mass`` and the ``pool_with_plan`` rows.
  Hashing each cell's own solve the same way gives the same digest;
* ``random``: 450 random solves: shapes, batch axes, priors and
  per-module weights in [1e-5, 1e4] drawn from fixed seeds, each solved with
  the default chunk budget and again with one item per chunk;
* ``vjp_plans`` and ``vjp_gradients``: the ``solve_vjp`` plan and weight
  gradient of each random solve; the gradients of the many-item batches
  are hashed into ``vjp_gradients`` too;
* ``many_items``: batches of many small items, which the solvers run
  feature-major (and 268 x 9 x 1, which they do not), through ``solve`` and
  ``solve_vjp`` for each config;
* ``bench``: the 50 x 100 x 500 bench batch at K = 4 and 8 for each solver
  config (``--quick`` skips it);
* ``task_data``: ``generate_task_data`` bags and labels for both rules over
  several seeds, bag counts, bag sizes and rule features;
* ``training``: a 3-epoch ``train_synthetic`` loss trace on the ``uotpool
  train`` task for each solver config.

For every solve it hashes the plan, every ``SolverDiagnostics`` field and the
``pool_with_plan`` rows, or the row and item a ``DegenerateRowError`` names.
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uotpool import (  # noqa: E402
    DegenerateRowError,
    MaxThreshold,
    MeanThreshold,
    Regularizer,
    SolverKind,
    SyntheticTask,
    UotBadmmPooling,
    UotParams,
    UotSinkhornPooling,
    generate_task_data,
    pool_with_plan,
    solve,
    solve_vjp,
    solvers,
    train_synthetic,
)

CONFIGS = (
    (SolverKind.SINKHORN, Regularizer.ENTROPIC),
    (SolverKind.BADMM, Regularizer.ENTROPIC),
    (SolverKind.BADMM, Regularizer.QUADRATIC),
)


SECTIONS = ("stability", "stability_batched", "random", "vjp_plans", "vjp_gradients",
            "many_items", "bench", "task_data", "training")


class Digest:
    def __init__(self):
        self.hashes = {section: hashlib.sha256() for section in SECTIONS}
        self.section = SECTIONS[0]
        self.count = 0

    def start(self, section: str) -> None:
        self.section = section

    def update(self, data: bytes, section: str | None = None) -> None:
        self.hashes[section or self.section].update(data)

    def array(self, a, section: str | None = None) -> None:
        a = np.ascontiguousarray(a, dtype=np.float64)
        self.update(repr(a.shape).encode(), section)
        self.update(a.tobytes(), section)

    def solve(self, x, params, kind) -> None:
        plan, diag = solve(x, params, kind)
        self.array(plan)
        self.array(diag.objective_trace)
        self.update(struct.pack("<?ddd", diag.has_nan, diag.total_mass,
                                diag.marginal_gap_row, diag.marginal_gap_col))
        self.pooled(x, plan)
        self.count += 1

    def pooled(self, x, plan) -> None:
        try:
            self.array(pool_with_plan(x, plan))
        except DegenerateRowError as err:
            # The parent's error has no item; hash what both name.
            self.update(f"degenerate row {err.row}".encode())

    def cell(self, x, plan, trace) -> None:
        """What ``uotpool stability`` reads from one cell, and its pooled rows."""
        self.array(plan)
        self.array(trace)
        self.update(struct.pack("<?d", not (np.isfinite(trace).all() and np.isfinite(plan).all()),
                                float(plan.sum())))
        self.pooled(x, plan)

    def vjp(self, x, params, kind, rng) -> None:
        """The plan into the current section, the gradient into ``vjp_gradients``."""
        plan, pullback = solve_vjp(x, params, kind)
        self.array(plan)
        self.array(pullback(rng.standard_normal(x.shape)), "vjp_gradients")
        self.count += 1


def stability_grid(dig: Digest) -> None:
    dig.start("stability")
    x = np.random.default_rng(0).uniform(0.0, 1.0, (5, 10))
    decades = [10.0 ** e for e in range(-5, 5)]
    for kind, reg in CONFIGS:
        for a0 in decades:
            for a12 in decades:
                params = UotParams.uniform(5, 10, k_iters=4, alpha0=a0, alpha1=a12,
                                           alpha2=a12, rho=1.0, reg=reg)
                dig.solve(x, params, kind)


def stability_batched(dig: Digest) -> None:
    dig.start("stability_batched")
    x = np.random.default_rng(0).uniform(0.0, 1.0, (5, 10))
    decades = np.array([10.0 ** e for e in range(-5, 5)])
    a0 = np.broadcast_to(np.repeat(decades, 10), (4, 100))
    a12 = np.broadcast_to(np.tile(decades, 10), (4, 100))
    for kind, reg in CONFIGS:
        params = UotParams.uniform(5, 10, k_iters=4, alpha0=a0, alpha1=a12, alpha2=a12,
                                   rho=1.0, reg=reg)
        plan, diag = solve(np.repeat(x[None], 100, axis=0), params, kind)
        for i in range(100):
            dig.cell(x, plan[i], diag.objective_trace[:, i])
        dig.count += 1


def random_solves(dig: Digest, cases: int = 450) -> None:
    for seed in range(cases):
        rng = np.random.default_rng(10_000 + seed)
        kind, reg = CONFIGS[seed % 3]
        k, d, n = int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 12))
        batch = tuple(int(b) for b in rng.integers(1, 4, rng.integers(0, 3)))
        weights = np.exp(rng.uniform(np.log(1e-5), np.log(1e4), (4, k)))
        params = UotParams(k, *weights, rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(n)), reg)
        x = rng.uniform(-3.0, 3.0, batch + (d, n))
        dig.start("random")
        dig.solve(x, params, kind)
        with mock.patch.object(solvers, "_CHUNK_BYTES", 1):
            dig.solve(x, params, kind)
        dig.start("vjp_plans")
        dig.vjp(x, params, kind, rng)


def many_items(dig: Digest) -> None:
    dig.start("many_items")
    for j, shape in enumerate(((200, 8, 16), (268, 9, 1), (64, 16, 16), (1000, 8, 16))):
        for kind, reg in CONFIGS:
            rng = np.random.default_rng(20_000 + j)
            d, n = shape[1:]
            weights = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), (4, 4)))
            p0, q0 = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(n))
            params = UotParams(4, *weights, p0, q0, reg)
            x = rng.uniform(0.0, 1.0, shape)
            dig.solve(x, params, kind)
            dig.vjp(x, params, kind, rng)


def bench_batch(dig: Digest) -> None:
    dig.start("bench")
    x = np.random.default_rng(0).uniform(0.0, 1.0, (50, 100, 500))
    for kind, reg in CONFIGS:
        for k in (4, 8):
            dig.solve(x, UotParams.uniform(100, 500, k_iters=k, alpha0=0.1, reg=reg), kind)


def training(dig: Digest) -> None:
    dig.start("task_data")
    for seed in range(20):
        for rule in (MaxThreshold, MeanThreshold):
            for n_bags, bag_size, dim in ((1, 1, 1), (7, 13, 4), (200, 16, 8)):
                for feature in (0, dim - 1):
                    x, y = generate_task_data(SyntheticTask(n_bags, bag_size, dim, rule(feature), seed))
                    dig.array(x)
                    dig.array(y)
    dig.start("training")
    task = SyntheticTask(200, 16, 8, MaxThreshold(feature=3, threshold=0.9), seed=0)
    for kind, reg in CONFIGS:
        pooling = UotSinkhornPooling if kind is SolverKind.SINKHORN else UotBadmmPooling
        dig.array(train_synthetic(task, pooling(UotParams.uniform(8, 16, k_iters=4, reg=reg)),
                                  epochs=3))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="skip the bench batch")
    args = parser.parse_args()
    dig = Digest()
    stability_grid(dig)
    stability_batched(dig)
    random_solves(dig)
    many_items(dig)
    if not args.quick:
        bench_batch(dig)
    training(dig)
    if args.quick:
        del dig.hashes["bench"]
    for section, h in dig.hashes.items():
        print(f"{section:18s} {h.hexdigest()}")
    print(f"{dig.count} solves")


if __name__ == "__main__":
    main()
