"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single PASS or FAIL
line to the terminal, and enforces the stated tolerance and runtime
budget. Oracles are independent of the library code: closed-form limiting
plans, scalar reimplementations of the update rules, and the reference
pooling operators.
"""

import contextlib
import csv
import math
import time

import numpy as np
import pytest

from uotpool import (
    MaxThreshold,
    Regularizer,
    SolverKind,
    SyntheticTask,
    UotParams,
    UotSinkhornPooling,
    attention_config,
    attention_pool,
    AttentionParams,
    badmm_auxiliary_update,
    badmm_dual_update,
    badmm_init,
    badmm_primal_update,
    fd_gradient,
    materialize_params,
    max_config,
    max_pool,
    mean_config,
    mean_pool,
    mixed_pool,
    hierarchical_uot_pool,
    pool_with_plan,
    ReparamState,
    solve,
    sinkhorn_init,
    sinkhorn_step,
    train_synthetic,
    uot_pool,
)
from uotpool.experiments import ExperimentConfig, cmd_bench


@contextlib.contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d} ({description}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number:2d} ({description}): PASS")


def uniform_input(seed, d=5, n=10):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (d, n))


def test_criterion_01_mean_regime_plan(capsys):
    with criterion(capsys, 1, "mean-regime plan within 1e-3"):
        start = time.perf_counter()
        for seed in range(5):
            x = uniform_input(seed)
            for kind in (SolverKind.SINKHORN, SolverKind.BADMM):
                plan, diag = solve(x, mean_config(5, 10), kind)
                assert not diag.has_nan
                assert np.abs(plan - 1.0 / 50.0).max() <= 1e-3
        assert time.perf_counter() - start < 1.0


def test_criterion_02_max_regime_pooling(capsys):
    with criterion(capsys, 2, "max-regime pooling error bands"):
        start = time.perf_counter()
        for seed in range(300, 320):
            x = uniform_input(seed)
            target = max_pool(x)
            scale = np.abs(target).max()
            pooled_s, _ = uot_pool(x, max_config(5, 10), SolverKind.SINKHORN)
            pooled_b, _ = uot_pool(x, max_config(5, 10), SolverKind.BADMM)
            assert np.abs(pooled_s - target).max() / scale <= 0.02
            assert np.abs(pooled_b - target).max() / scale <= 0.10
        assert time.perf_counter() - start < 2.0


def test_criterion_03_attention_regime_pooling(capsys):
    with criterion(capsys, 3, "attention regime and solver ordering"):
        start = time.perf_counter()
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            x = rng.uniform(0.0, 1.0, (5, 10))
            raw = rng.uniform(0.1, 1.0, 10)
            q0 = raw / raw.sum()
            target = x @ q0
            config = attention_config(5, q0)
            pooled_s, _ = uot_pool(x, config, SolverKind.SINKHORN)
            pooled_b, _ = uot_pool(x, config, SolverKind.BADMM)
            err_s = np.abs(pooled_s - target).max()
            err_b = np.abs(pooled_b - target).max()
            assert err_s <= 1e-2
            assert err_b <= 1e-2
            assert err_b <= err_s
        assert time.perf_counter() - start < 1.0


def test_criterion_04_weight_grid_stability(capsys):
    with criterion(capsys, 4, "weight grid: stable splitting, fragile kernel"):
        start = time.perf_counter()
        x = uniform_input(0)
        decades = [10.0 ** e for e in range(-5, 5)]
        for reg in (Regularizer.ENTROPIC, Regularizer.QUADRATIC):
            for a0 in decades:
                for a12 in decades:
                    params = UotParams.uniform(5, 10, k_iters=4, alpha0=a0,
                                               alpha1=a12, alpha2=a12, rho=1.0,
                                               reg=reg)
                    plan, diag = solve(x, params, SolverKind.BADMM)
                    assert not diag.has_nan
                    assert abs(diag.total_mass - 1.0) <= 0.1
        nan_cells = 0
        for a0 in decades:
            for a12 in decades:
                params = UotParams.uniform(5, 10, k_iters=4, alpha0=a0,
                                           alpha1=a12, alpha2=a12, rho=1.0)
                _, diag = solve(x, params, SolverKind.SINKHORN)
                nan_cells += diag.has_nan
        assert nan_cells >= 1
        assert time.perf_counter() - start < 60.0


def test_criterion_05_objective_improves_with_depth(capsys):
    with criterion(capsys, 5, "objective vs module count on a large batch"):
        start = time.perf_counter()
        x = np.random.default_rng(0).uniform(0.0, 1.0, (50, 100, 500))
        depths = (1, 2, 4, 8, 16)
        for kind, reg in ((SolverKind.SINKHORN, Regularizer.ENTROPIC),
                          (SolverKind.BADMM, Regularizer.ENTROPIC),
                          (SolverKind.BADMM, Regularizer.QUADRATIC)):
            values = []
            for k in depths:
                params = UotParams.uniform(100, 500, k_iters=k, alpha0=0.1,
                                           alpha1=1.0, alpha2=1.0, rho=1.0, reg=reg)
                _, diag = solve(x, params, kind)
                values.append(float(diag.objective_trace[-1].mean()))
            for earlier, later in zip(values, values[1:]):
                assert later <= earlier + 1e-6
            rel_early = abs(values[2] - values[1]) / abs(values[1])
            rel_late = abs(values[4] - values[3]) / abs(values[3])
            assert rel_late <= rel_early
        assert time.perf_counter() - start < 30.0


def test_criterion_06_permutation_invariance(capsys):
    with criterion(capsys, 6, "permutation invariance, 100 input pairs"):
        att = AttentionParams(
            v_mat=np.random.default_rng(77).standard_normal((5, 5)),
            w_vec=np.random.default_rng(78).standard_normal(5),
        )
        params = UotParams.uniform(5, 10, k_iters=4, alpha0=0.1)
        for i in range(100):
            x = uniform_input(1000 + i)
            perm = np.random.default_rng(2000 + i).permutation(10)
            xp = x[:, perm]
            for pool in (mean_pool, max_pool,
                         lambda m: mixed_pool(m, 0.35),
                         lambda m: attention_pool(m, att)):
                assert np.abs(pool(xp) - pool(x)).max() <= 1e-12
            for solver in (SolverKind.SINKHORN, SolverKind.BADMM):
                pooled, _ = uot_pool(x, params, solver)
                pooled_perm, _ = uot_pool(xp, params, solver)
                assert np.abs(pooled_perm - pooled).max() <= 1e-6


def test_criterion_07_hierarchical_matches_mixed(capsys):
    with criterion(capsys, 7, "hierarchical pooling tracks the mean-max mix"):
        for omega in (0.1, 0.25, 0.5, 0.75, 0.9):
            for seed in range(4):
                x = uniform_input(700 + seed)
                h = hierarchical_uot_pool(x, omega)
                m = mixed_pool(x, omega)
                assert np.abs(h - m).max() / np.abs(m).max() <= 0.02


def _badmm_scalar_oracle(state, x, a0, a1, a2, rho, p0, q0, reg):
    """Scalar-loop replica of one full splitting module (primal, auxiliary,
    dual), returning the evolved fields as plain lists."""
    d, n = x.shape
    quad = reg is Regularizer.QUADRATIC
    log_p0 = [math.log(v) for v in p0]
    log_q0 = [math.log(v) for v in q0]
    log_s = [[state.log_s[i][j] for j in range(n)] for i in range(d)]
    log_mu = [state.log_mu[i] for i in range(d)]
    log_eta = [state.log_eta[j] for j in range(n)]
    z = [[state.z_mat[i][j] for j in range(n)] for i in range(d)]
    z1 = [state.z1[i] for i in range(d)]
    z2 = [state.z2[j] for j in range(n)]

    y = [[0.0] * n for _ in range(d)]
    for i in range(d):
        for j in range(n):
            correction = a0 * math.exp(log_s[i][j]) if quad else 0.0
            y[i][j] = log_s[i][j] + (x[i][j] - correction - z[i][j]) / rho
    log_p = [[0.0] * n for _ in range(d)]
    for i in range(d):
        norm = math.log(sum(math.exp(v) for v in y[i]))
        for j in range(n):
            log_p[i][j] = log_mu[i] - norm + y[i][j]

    for i in range(d):
        for j in range(n):
            if quad:
                y[i][j] = log_p[i][j] + (z[i][j] - a0 * math.exp(log_s[i][j])) / rho
            else:
                y[i][j] = (z[i][j] + rho * log_p[i][j]) / (a0 + rho)
    new_log_s = [[0.0] * n for _ in range(d)]
    for j in range(n):
        norm = math.log(sum(math.exp(y[i][j]) for i in range(d)))
        for i in range(d):
            new_log_s[i][j] = log_eta[j] - norm + y[i][j]
    new_log_mu = [(rho * log_mu[i] + a1 * log_p0[i] - z1[i]) / (rho + a1)
                  for i in range(d)]
    new_log_eta = [(rho * log_eta[j] + a2 * log_q0[j] - z2[j]) / (rho + a2)
                   for j in range(n)]

    for i in range(d):
        for j in range(n):
            z[i][j] += a0 * (math.exp(log_p[i][j]) - math.exp(new_log_s[i][j]))
    for i in range(d):
        row = sum(math.exp(log_p[i][j]) for j in range(n))
        z1[i] += rho * (math.exp(new_log_mu[i]) - row)
    for j in range(n):
        col = sum(math.exp(new_log_s[i][j]) for i in range(d))
        z2[j] += rho * (math.exp(new_log_eta[j]) - col)
    return log_p, new_log_s, new_log_mu, new_log_eta, z, z1, z2


def _sinkhorn_scalar_oracle(x, a, b, a0, a1, a2, p0, q0):
    """Direct plain-domain replica of one damped dual module."""
    d, n = x.shape
    g1 = a1 / (a0 + a1)
    g2 = a2 / (a0 + a2)

    def table(av, bv):
        return [[p0[i] * math.exp(av[i]) * math.exp(x[i][j] / a0)
                 * q0[j] * math.exp(bv[j]) for j in range(n)] for i in range(d)]

    t = table(a, b)
    new_a = [g1 * (a[i] + math.log(p0[i]) - math.log(sum(t[i])))
             for i in range(d)]
    t = table(new_a, b)
    new_b = [g2 * (b[j] + math.log(q0[j])
                   - math.log(sum(t[i][j] for i in range(d))))
             for j in range(n)]
    return new_a, new_b, table(new_a, new_b)


def test_criterion_08_step_updates_match_scalar_oracles(capsys):
    with criterion(capsys, 8, "update rules against scalar reimplementations"):
        for d, n in ((2, 2), (3, 4)):
            rng = np.random.default_rng(d * 10 + n)
            x = rng.uniform(0.0, 1.0, (d, n))
            params = UotParams.uniform(d, n)
            a0, a1, a2, rho = 0.7, 1.2, 0.9, 1.3
            for reg in (Regularizer.ENTROPIC, Regularizer.QUADRATIC):
                state = badmm_init(x, params)
                state.log_p = rng.uniform(-1.5, 0.0, (d, n))
                state.log_s = rng.uniform(-1.5, 0.0, (d, n))
                state.log_mu = rng.uniform(-1.5, 0.0, d)
                state.log_eta = rng.uniform(-1.5, 0.0, n)
                state.z_mat = rng.uniform(-0.5, 0.5, (d, n))
                state.z1 = rng.uniform(-0.5, 0.5, d)
                state.z2 = rng.uniform(-0.5, 0.5, n)
                expected = _badmm_scalar_oracle(state, x, a0, a1, a2, rho,
                                                params.p0, params.q0, reg)
                out = badmm_primal_update(state, x, a0, rho, reg)
                out = badmm_auxiliary_update(out, a0, a1, a2, rho,
                                             params.p0, params.q0, reg)
                out = badmm_dual_update(out, a0, rho)
                for got, want in zip(
                    (out.log_p, out.log_s, out.log_mu, out.log_eta,
                     out.z_mat, out.z1, out.z2),
                    expected,
                ):
                    np.testing.assert_allclose(got, np.asarray(want), atol=1e-10)

            duals = sinkhorn_init(x, params)
            duals.a = rng.uniform(-0.3, 0.3, d)
            duals.b = rng.uniform(-0.3, 0.3, n)
            want_a, want_b, want_t = _sinkhorn_scalar_oracle(
                x, duals.a, duals.b, a0, a1, a2, params.p0, params.q0)
            stepped = sinkhorn_step(duals, x, a0, a1, a2, params.p0, params.q0)
            np.testing.assert_allclose(stepped.a, want_a, atol=1e-8)
            np.testing.assert_allclose(stepped.b, want_b, atol=1e-8)
            np.testing.assert_allclose(np.exp(stepped.y), np.asarray(want_t),
                                       atol=1e-8)


def test_criterion_09_training_reduces_loss(capsys):
    with criterion(capsys, 9, "gradient checks and synthetic training"):
        state = ReparamState(np.array([0.3, -0.2]), np.array([0.1, 0.4]),
                             np.array([-0.3, 0.2]), np.array([0.5, -0.1]))
        grad = fd_gradient(lambda s: float((s.to_vector() ** 2).sum()), state)
        np.testing.assert_allclose(grad, 2.0 * state.to_vector(), atol=1e-9)

        x = uniform_input(42, 3, 4)

        def solver_loss(s):
            plan, _ = solve(x, materialize_params(s, x), SolverKind.SINKHORN)
            return float(pool_with_plan(x, plan).sum())

        small = ReparamState(*(np.zeros(2) for _ in range(4)))
        coarse = fd_gradient(solver_loss, small, eps=1e-5)
        fine = fd_gradient(solver_loss, small, eps=5e-6)
        assert np.abs(coarse - fine).max() <= 1e-4

        start = time.perf_counter()
        task = SyntheticTask(n_bags=200, bag_size=16, dim=8,
                             rule=MaxThreshold(feature=3, threshold=0.9), seed=7)
        spec = UotSinkhornPooling(UotParams.uniform(8, 16, k_iters=4))
        trace = train_synthetic(task, spec, epochs=30, lr=3.0)
        assert trace.shape == (31,)
        assert np.isfinite(trace).all()
        assert (trace[0] - trace[-1]) / trace[0] >= 0.20
        assert time.perf_counter() - start < 120.0


def test_criterion_10_doubling_depth_scales_runtime(capsys, tmp_path):
    with criterion(capsys, 10, "runtime ratio between 8 and 4 modules"):
        cmd_bench(ExperimentConfig(out=str(tmp_path)))
        with open(tmp_path / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        medians = {(r["method"], int(r["k"])): float(r["median_ms"]) for r in rows}
        for method in ("uot_sinkhorn", "uot_badmm"):
            ratio = medians[(method, 8)] / medians[(method, 4)]
            assert 1.5 <= ratio <= 2.8, f"{method} ratio {ratio:.3f}"
