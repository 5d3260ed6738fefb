"""Reproducible experiment commands behind the command-line interface.

Each command draws its own seeded inputs, runs one study, and writes CSV
files plus a ``manifest.json`` into the output directory. Files are
written to a temporary name in the same directory and renamed into place,
so readers never observe a partially written file. Floating-point values
are serialized with 12 significant digits.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import secrets
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .learning import (
    MaxThreshold,
    NonFiniteLossError,
    SyntheticTask,
    train_synthetic,
)
from .pooling import (
    AttentionParams,
    UotSinkhornPooling,
    attention_config,
    attention_pool,
    max_config,
    max_pool,
    mean_config,
    mean_pool,
    mixed_pool,
    row_argmax,
    uot_pool,
)
from .solvers import Regularizer, SolverKind, UotParams, solve

__all__ = [
    "DEFAULT_SEEDS",
    "ExperimentConfig",
    "cmd_approx",
    "cmd_bench",
    "cmd_convergence",
    "cmd_stability",
    "cmd_train",
]

DEFAULT_SEEDS = {
    "approx": 25,
    "stability": 0,
    "convergence": 0,
    "bench": 0,
    "train": 7,
}

_DECADES = tuple(float(10.0) ** e for e in range(-5, 5))


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by the experiment commands.

    ``seed=None`` means "use the command's own default seed", so two runs
    of the same command without overrides are bitwise reproducible.
    """

    seed: int | None = None
    out: str = "uotpool-out"
    dims: tuple[int, int] = (5, 10)
    weight_grid: tuple[float, ...] = _DECADES
    k_list: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    solvers: tuple[str, ...] = ("sinkhorn", "badmm")
    k_iters: int = 4
    alpha0: float = 0.1
    alpha1: float = 1.0
    alpha2: float = 1.0
    rho: float = 1.0
    batch_size: int = 50
    batch_dims: tuple[int, int] = (100, 500)
    bench_k: tuple[int, ...] = (4, 8)
    trials: int = 10
    warmup: int = 2
    epochs: int = 30
    lr: float = 3.0
    n_bags: int = 200
    bag_size: int = 16
    feature_dim: int = 8

    def __post_init__(self):
        for name in ("dims", "weight_grid", "k_list", "solvers", "bench_k", "batch_dims"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        unknown = [s for s in self.solvers if s not in {k.value for k in SolverKind}]
        if unknown:
            raise ValueError(f"unknown solver name: {unknown[0]}")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must contain a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        for key in raw:
            if key not in known:
                raise ValueError(f"unknown config key: {key}")
        return cls(**raw)

    def resolve_seed(self, command: str) -> int:
        return DEFAULT_SEEDS[command] if self.seed is None else int(self.seed)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _atomic_write(path: str, text: str) -> None:
    # Opening a fresh name with "x" gives the file the mode a plain open()
    # would, under the process umask; mkstemp would leave it at 0600.
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{secrets.token_hex(8)}.part")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_outputs(config: ExperimentConfig, command: str, seed: int,
                   tables: dict[str, tuple[list[str], list[list]]],
                   notes: str | None = None) -> list[str]:
    """Write each ``{file name: (header, rows)}`` table as a CSV into
    ``config.out``, then the manifest; return the CSV file names."""
    os.makedirs(config.out, exist_ok=True)
    for fname, (header, rows) in tables.items():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        _atomic_write(os.path.join(config.out, fname), buf.getvalue())
    echo = dataclasses.asdict(config)
    echo["seed"] = seed
    manifest = {
        "command": command,
        "version": __version__,
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "files": sorted(tables),
        "config": echo,
    }
    if notes is not None:
        manifest["notes"] = notes
    _atomic_write(os.path.join(config.out, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return list(tables)


# ---- approx: transport plans against closed-form pooling targets ----

def cmd_approx(config: ExperimentConfig) -> list[str]:
    """Compare solved plans in the three limiting-weight regimes against
    the plans that reproduce mean, max and attention pooling exactly."""
    seed = config.resolve_seed("approx")
    rng = np.random.default_rng(seed)
    d, n = config.dims
    x = rng.uniform(0.0, 1.0, (d, n))
    q_raw = rng.uniform(0.1, 1.0, n)
    q0 = q_raw / q_raw.sum()

    mean_target = np.full((d, n), 1.0 / (d * n))
    max_target = np.zeros((d, n))
    max_target[np.arange(d), row_argmax(x)] = 1.0 / d
    attention_target = np.full((d, 1), 1.0 / d) * q0[None, :]

    cases = [
        ("mean", mean_config(d, n), mean_target),
        ("max", max_config(d, n), max_target),
        ("attention", attention_config(d, q0), attention_target),
    ]

    tables: dict[str, tuple[list[str], list[list]]] = {}
    summary_rows: list[list] = []
    for target_name, params, target in cases:
        for solver in config.solvers:
            plan, _ = solve(x, params, SolverKind(solver))
            err = np.abs(plan - target)
            rows = [
                [i, j, target[i, j], plan[i, j], err[i, j]]
                for i in range(d) for j in range(n)
            ]
            tables[f"approx_{target_name}_{solver}.csv"] = (
                ["row", "col", "target_plan", "solved_plan", "abs_error"], rows)
            summary_rows.append([target_name, solver, err.max()])
    tables["approx_summary.csv"] = (["target", "solver", "max_abs_error"], summary_rows)
    return _write_outputs(config, "approx", seed, tables)


# ---- stability: solver health over a grid of weight decades ----

_STABILITY_CONFIGS = (
    ("sinkhorn", SolverKind.SINKHORN, Regularizer.ENTROPIC),
    ("badmm_entropic", SolverKind.BADMM, Regularizer.ENTROPIC),
    ("badmm_quadratic", SolverKind.BADMM, Regularizer.QUADRATIC),
)


def cmd_stability(config: ExperimentConfig) -> list[str]:
    """Sweep alpha0 against tied alpha1 = alpha2 over decades and record,
    per solver configuration, whether the plan stayed finite and its mass."""
    seed = config.resolve_seed("stability")
    rng = np.random.default_rng(seed)
    d, n = config.dims
    x = rng.uniform(0.0, 1.0, (d, n))

    rows: list[list] = []
    for name, kind, reg in _STABILITY_CONFIGS:
        for a0 in config.weight_grid:
            for a12 in config.weight_grid:
                params = UotParams.uniform(
                    d, n, k_iters=config.k_iters,
                    alpha0=a0, alpha1=a12, alpha2=a12, rho=config.rho, reg=reg,
                )
                _, diag = solve(x, params, kind)
                rows.append([name, a0, a12, diag.has_nan, diag.total_mass])

    return _write_outputs(config, "stability", seed, {
        "stability.csv": (["solver", "alpha0", "alpha12", "has_nan", "total_mass"], rows),
    })


# ---- convergence: objective against iteration count ----

def cmd_convergence(config: ExperimentConfig) -> list[str]:
    """Record the mean final objective over a batch of random inputs as the
    number of solver iterations grows."""
    seed = config.resolve_seed("convergence")
    rng = np.random.default_rng(seed)
    d, n = config.batch_dims
    x = rng.uniform(0.0, 1.0, (config.batch_size, d, n))

    rows: list[list] = []
    for _, kind, reg in _STABILITY_CONFIGS:
        for k in config.k_list:
            params = UotParams.uniform(
                d, n, k_iters=k,
                alpha0=config.alpha0, alpha1=config.alpha1,
                alpha2=config.alpha2, rho=config.rho, reg=reg,
            )
            _, diag = solve(x, params, kind)
            rows.append([kind.value, reg.value, k, float(diag.objective_trace[-1].mean())])

    return _write_outputs(config, "convergence", seed, {
        "convergence.csv": (["solver", "reg", "k", "objective"], rows),
    })


# ---- bench: wall-clock timing of the pooling operators ----

def cmd_bench(config: ExperimentConfig) -> list[str]:
    """Time each pooling operator on one batch of random inputs.

    Reference operators run once per trial; transport pooling runs once
    per trial for each configured iteration count. Timings use the
    monotonic performance counter and are reported in milliseconds.
    """
    seed = config.resolve_seed("bench")
    rng = np.random.default_rng(seed)
    d, n = config.batch_dims
    x = rng.uniform(0.0, 1.0, (config.batch_size, d, n))
    att = AttentionParams(
        v_mat=rng.standard_normal((d, d)) / np.sqrt(d),
        w_vec=rng.standard_normal(d) / np.sqrt(d),
    )

    def run_uot(kind: SolverKind, k: int):
        params = UotParams.uniform(
            d, n, k_iters=k,
            alpha0=config.alpha0, alpha1=config.alpha1,
            alpha2=config.alpha2, rho=config.rho,
        )

        return lambda: uot_pool(x, params, kind)

    jobs: list[tuple[str, int, object]] = [
        ("mean", 0, lambda: mean_pool(x)),
        ("max", 0, lambda: max_pool(x)),
        ("attention", 0, lambda: attention_pool(x, att)),
        ("mixed", 0, lambda: mixed_pool(x, 0.5)),
    ]
    for k in config.bench_k:
        jobs.append(("uot_sinkhorn", k, run_uot(SolverKind.SINKHORN, k)))
        jobs.append(("uot_badmm", k, run_uot(SolverKind.BADMM, k)))

    rows: list[list] = []
    for method, k, body in jobs:
        for _ in range(config.warmup):
            body()
        times_ms = []
        for _ in range(config.trials):
            start = time.perf_counter()
            body()
            times_ms.append((time.perf_counter() - start) * 1e3)
        rows.append([
            method, k,
            statistics.fmean(times_ms),
            statistics.stdev(times_ms) if len(times_ms) > 1 else 0.0,
            statistics.median(times_ms),
        ])

    return _write_outputs(
        config, "bench", seed,
        {"bench.csv": (["method", "k", "mean_ms", "std_ms", "median_ms"], rows)},
        notes="timings cover the pooling operators only; no model baselines are included",
    )


# ---- train: synthetic bag classification ----

def cmd_train(config: ExperimentConfig) -> list[str]:
    """Train transport pooling plus a linear readout on a synthetic max-rule
    task and record the loss per epoch. If the loss diverges, the partial
    trace is written with one final ``nan`` row marking the abort."""
    seed = config.resolve_seed("train")
    task = SyntheticTask(
        n_bags=config.n_bags,
        bag_size=config.bag_size,
        dim=config.feature_dim,
        rule=MaxThreshold(feature=min(3, config.feature_dim - 1), threshold=0.9),
        seed=seed,
    )
    spec = UotSinkhornPooling(UotParams.uniform(
        config.feature_dim, config.bag_size, k_iters=config.k_iters,
        alpha0=1.0, alpha1=1.0, alpha2=1.0, rho=1.0,
    ))
    try:
        trace = train_synthetic(task, spec, epochs=config.epochs, lr=config.lr)
        rows = [[e, v] for e, v in enumerate(trace)]
    except NonFiniteLossError as err:
        rows = [[e, v] for e, v in enumerate(err.trace)]
        rows.append([len(err.trace), float("nan")])

    return _write_outputs(config, "train", seed, {"train.csv": (["epoch", "loss"], rows)})
