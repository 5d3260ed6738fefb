"""Expected outcomes from uotpool's public step functions, and the checker.

The reference chains ``sinkhorn_init``/``sinkhorn_step`` or ``badmm_init``
and the three BADMM updates, exponentiates, and pools through the
row-normalized plan. It runs in the benchmark's parent process, outside the
timed loop and outside ``setup_s``. Tolerances are fixed from float64:
pooled values agree within 1e-9 relative, loss traces within 1e-6 relative,
``has_nan`` flags exactly. Where the reference is non-finite or raises, the
op must be non-finite or raise the same error.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from workloads import TRAIN_EPOCHS, TRAIN_LR, WORKLOADS

POOLED_RTOL = 1e-9
LOSS_RTOL = 1e-6

# ``uotpool stability`` defaults: a 5 x 10 uniform input per seed, K = 4,
# rho = 1, alpha0 against tied alpha1 = alpha2 over ten decades.
STABILITY_DIMS = (5, 10)
STABILITY_DECADES = tuple(range(-5, 5))
STABILITY_CONFIGS = (
    ("sinkhorn", "sinkhorn", "entropic"),
    ("badmm_entropic", "badmm", "entropic"),
    ("badmm_quadratic", "badmm", "quadratic"),
)


def reference_plan(pkg, x, params, kind, on_module=None):
    """Final plan of the unrolled solve, built from the public step functions.

    ``on_module(k, plan)`` is called with the plan after each module when given.
    """
    w = [(float(params.alpha0[k]), float(params.alpha1[k]), float(params.alpha2[k]),
          float(params.rho[k])) for k in range(params.k_iters)]
    with np.errstate(all="ignore"):
        if kind is pkg.SolverKind.SINKHORN:
            state = pkg.sinkhorn_init(x, params)
            for k, (a0, a1, a2, _) in enumerate(w):
                state = pkg.sinkhorn_step(state, x, a0, a1, a2, params.p0, params.q0)
                if on_module:
                    on_module(k, np.exp(state.y))
            return np.exp(state.y)
        state = pkg.badmm_init(x, params)
        for k, (a0, a1, a2, rho) in enumerate(w):
            state = pkg.badmm_primal_update(state, x, a0, rho, params.reg)
            state = pkg.badmm_auxiliary_update(state, a0, a1, a2, rho, params.p0, params.q0, params.reg)
            state = pkg.badmm_dual_update(state, a0, rho)
            if on_module:
                on_module(k, np.exp(state.log_p))
        return np.exp(state.log_p)


def reference_plan_has_nan(pkg, x, params, kind):
    """Final plan and whether it or any module's objective is non-finite."""
    bad = []

    def check(k, plan):
        if not np.isfinite(plan).all():
            bad.append(k)
            return
        obj = pkg.uot_objective(x, plan, params.alpha0[k], params.alpha1[k], params.alpha2[k],
                                params.p0, params.q0, params.reg)
        if not math.isfinite(obj):
            bad.append(k)

    with np.errstate(all="ignore"):
        plan = reference_plan(pkg, x, params, kind, check)
    return plan, bool(bad)


def reference_pool(x, plan):
    """Row-normalized pooling; None where a plan row has zero mass (the op raises)."""
    sums = plan.sum(axis=-1, keepdims=True)
    if np.any(sums == 0.0):
        return None
    with np.errstate(invalid="ignore"):
        return (x * (plan / sums)).sum(axis=-1)


def _pooled(pooled, **extra) -> dict:
    if pooled is None:
        return {"raises": "DegenerateRowError", **extra}
    return {"pooled": pooled.tolist(), **extra}


def _expected_bulk(pkg, inputs, slots):
    wl = WORKLOADS["bulk_batch"]
    x = inputs["x"]
    by_config = {}
    for j, params in enumerate(wl.params(pkg)):
        if j in slots and wl.slots[j] not in by_config:
            kind = pkg.SolverKind(wl.slots[j][0])
            by_config[wl.slots[j]] = _pooled(reference_pool(x, reference_plan(pkg, x, params, kind)))
    return {f"s{j}": by_config[wl.slots[j]] for j in slots}


def _expected_small(pkg, inputs, keys):
    wl = WORKLOADS["small_calls"]
    params = wl.params(pkg, inputs)
    k_iters = 32
    out = {}
    for key in keys:
        j, i = (int(part[1:]) for part in key.split("/"))
        cfg, solver = wl.slots[j]
        kind = pkg.SolverKind(solver)
        x = inputs["x"][j, i]
        if cfg != "hierarchical":
            plan, has_nan = reference_plan_has_nan(pkg, x, params[cfg], kind)
            out[key] = _pooled(reference_pool(x, plan), has_nan=has_nan)
            continue
        d, n = x.shape
        stages = []
        for stage in (pkg.mean_config(d, n, k_iters), pkg.max_config(d, n, k_iters)):
            stages.append(reference_pool(x, reference_plan(pkg, x, stage, kind)))
        if any(s is None for s in stages):
            out[key] = _pooled(None, has_nan=None)
            continue
        stacked = np.stack(stages, axis=-1)
        omega = float(inputs["omega"][j, i])
        top = pkg.attention_config(d, np.array([omega, 1.0 - omega]), k_iters)
        out[key] = _pooled(reference_pool(stacked, reference_plan(pkg, stacked, top, kind)), has_nan=None)
    return out


def reference_train(pkg, task, base, epochs, lr):
    """Loss trace of gradient descent on central differences, solved by the step functions.

    Restates the documented ``train_synthetic`` algorithm: softplus weights,
    pooled features standardized by the uniform [0, 1] mean 1/2 and standard
    deviation 1/sqrt(12), mean logistic loss, full-batch steps.
    """
    x, y = pkg.generate_task_data(task)
    k, d = base.k_iters, task.dim
    vec = np.concatenate([pkg.softplus_inverse(w) for w in (base.alpha0, base.alpha1, base.alpha2, base.rho)]
                         + [np.zeros(d + 1)])

    def loss(v):
        weights = pkg.softplus(v[: 4 * k]).reshape(4, k)
        params = pkg.UotParams(k_iters=k, alpha0=weights[0], alpha1=weights[1], alpha2=weights[2],
                               rho=weights[3], p0=base.p0, q0=base.q0, reg=base.reg)
        pooled = reference_pool(x, reference_plan(pkg, x, params, pkg.SolverKind.SINKHORN))
        logits = ((pooled - 0.5) * np.sqrt(12.0)) @ v[4 * k: 4 * k + d] + v[-1]
        return float(np.logaddexp(0.0, -y * logits).mean())

    eps = 1e-5
    trace = [loss(vec)]
    for _ in range(epochs):
        grad = np.zeros_like(vec)
        for j in range(vec.size):
            probe = vec.copy()
            probe[j] = vec[j] + eps
            f_plus = loss(probe)
            probe[j] = vec[j] - eps
            grad[j] = (f_plus - loss(probe)) / (2.0 * eps)
        vec = vec - lr * grad
        trace.append(loss(vec))
    return trace


def _expected_train(pkg, inputs, slots):
    wl = WORKLOADS["train_fd"]
    base = wl.spec(pkg).params
    return {
        f"s{j}": {"loss": reference_train(pkg, wl.task(pkg, s), base, TRAIN_EPOCHS, TRAIN_LR)}
        for j, s in enumerate(inputs["task_seed"]) if j in slots
    }


def reference_stability(pkg, seed):
    """(solver, log10 alpha0, log10 alpha12) -> (has_nan, total_mass) for one sweep."""
    d, n = STABILITY_DIMS
    x = np.random.default_rng(seed).uniform(0.0, 1.0, (d, n))
    rows = {}
    for name, solver, reg in STABILITY_CONFIGS:
        for e0 in STABILITY_DECADES:
            for e12 in STABILITY_DECADES:
                a0, a12 = float(10.0) ** e0, float(10.0) ** e12
                params = pkg.UotParams.uniform(d, n, k_iters=4, alpha0=a0, alpha1=a12, alpha2=a12,
                                               rho=1.0, reg=pkg.Regularizer(reg))
                plan, has_nan = reference_plan_has_nan(pkg, x, params, pkg.SolverKind(solver))
                with np.errstate(invalid="ignore"):
                    rows[(name, e0, e12)] = (has_nan, float(np.abs(plan).sum()))
    return rows


def _expected_cli(pkg, inputs, slots):
    return {f"s{j}": {"rc": 0, "rows": reference_stability(pkg, int(s))}
            for j, s in enumerate(inputs["cli_seed"]) if j in slots}


def expected(pkg, workload: str, inputs: dict, keys: set[str]) -> dict:
    """Expected outcome for every key the run used."""
    if workload == "small_calls":
        return _expected_small(pkg, inputs, keys)
    slots = {int(k[1:]) for k in keys}
    return {"bulk_batch": _expected_bulk, "train_fd": _expected_train,
            "cli_sweep": _expected_cli}[workload](pkg, inputs, slots)


def _close(got, want, rtol) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    finite = np.isfinite(want)
    if not np.array_equal(np.isfinite(got), finite):
        return False
    return bool(np.all(np.abs(got[finite] - want[finite]) <= rtol * np.abs(want[finite])))


def _read_stability(path: str) -> dict | None:
    """Rows of a stability.csv keyed like :func:`reference_stability`, read by column name."""
    out = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["solver"], round(math.log10(float(row["alpha0"]))),
                       round(math.log10(float(row["alpha12"]))))
                out[key] = (row["has_nan"] == "true", float(row["total_mass"]))
    except (OSError, KeyError, ValueError):  # missing file, column or number: a failed op
        return None
    return out


def matches(outcome: dict, want: dict) -> bool:
    """Whether one op's outcome agrees with its expected outcome."""
    if "raises" in want or "raises" in outcome:
        return outcome.get("raises") == want.get("raises")
    if "pooled" in want:
        return outcome.get("has_nan") == want.get("has_nan") and _close(
            outcome["pooled"], want["pooled"], POOLED_RTOL)
    if "loss" in want:
        return _close(outcome["loss"], want["loss"], LOSS_RTOL)
    if outcome["rc"] != want["rc"]:
        return False
    got = outcome.get("rows")  # set only on a perturbed copy
    if got is None:
        got = _read_stability(os.path.join(outcome["out"], "stability.csv"))
    if got is None or got.keys() != want["rows"].keys():
        return False
    for key, (nan_want, mass_want) in want["rows"].items():
        nan_got, mass_got = got[key]
        if nan_got != nan_want or not _close(mass_got, mass_want, POOLED_RTOL):
            return False
    return True


def perturbed(outcome: dict) -> dict:
    """A copy of ``outcome`` changed just beyond tolerance, for the checker's self-test."""
    out = dict(outcome)
    if "pooled" in out or "loss" in out:
        field = "pooled" if "pooled" in out else "loss"
        arr = np.array(out[field], dtype=np.float64)
        flat = arr.reshape(-1)
        flat[np.flatnonzero(np.isfinite(flat))[0]] *= 1.0 + 1e-5
        out[field] = arr.tolist()
    elif "out" in out:
        rows = _read_stability(os.path.join(out["out"], "stability.csv"))
        key = next(k for k, (_, mass) in rows.items() if math.isfinite(mass))
        rows[key] = (rows[key][0], rows[key][1] * (1.0 + 1e-5))
        out["rows"] = rows
    else:
        out["raises"] = None
    return out
