import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uotpool import (
    MaxThreshold,
    NonFiniteLossError,
    Regularizer,
    SolverKind,
    SyntheticTask,
    UotBadmmPooling,
    UotParams,
    UotSinkhornPooling,
    badmm_auxiliary_update,
    badmm_dual_update,
    badmm_init,
    badmm_primal_update,
    hierarchical_uot_pool,
    max_config,
    max_pool,
    mean_config,
    pool_with_plan,
    sinkhorn_init,
    sinkhorn_step,
    solve,
    solve_vjp,
    train_synthetic,
    uot_objective,
    uot_pool,
)
from uotpool import DegenerateRowError, solvers
from uotpool.pooling import attention_config

SOLVER_CONFIGS = [
    (SolverKind.SINKHORN, Regularizer.ENTROPIC),
    (SolverKind.BADMM, Regularizer.ENTROPIC),
    (SolverKind.BADMM, Regularizer.QUADRATIC),
]


def kind_id(value):
    """Test id of a solver kind, ``<kind>_uot``; other values keep pytest's id."""
    return f"{value.value}_uot" if isinstance(value, SolverKind) else None


def random_input(seed, d=5, n=10):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (d, n))


def chained_solve(x, params, kind):
    """Plan and objective trace from chaining the public step functions.

    Trace entries of a module whose plan is not finite are NaN.
    """
    batch = x.shape[:-2]
    trace = []
    with np.errstate(all="ignore"):
        state = sinkhorn_init(x, params) if kind is SolverKind.SINKHORN else badmm_init(x, params)
        for k in range(params.k_iters):
            a0, a1, a2, rho = (float(w[k]) for w in
                               (params.alpha0, params.alpha1, params.alpha2, params.rho))
            if kind is SolverKind.SINKHORN:
                state = sinkhorn_step(state, x, a0, a1, a2, params.p0, params.q0)
                plan = np.exp(state.y)
            else:
                state = badmm_primal_update(state, x, a0, rho, params.reg)
                state = badmm_auxiliary_update(state, a0, a1, a2, rho, params.p0, params.q0,
                                               params.reg)
                state = badmm_dual_update(state, a0, rho)
                plan = np.exp(state.log_p)
            trace.append(np.reshape([
                uot_objective(x[i], plan[i], a0, a1, a2, params.p0, params.q0, params.reg)
                if np.isfinite(plan[i]).all() else np.nan
                for i in np.ndindex(batch)
            ], batch))
    return plan, np.stack(trace)


class TestUotParams:
    def test_scalar_weights_broadcast(self):
        p = UotParams.uniform(3, 4, k_iters=5, alpha0=2.0)
        assert p.alpha0.shape == (5,)
        np.testing.assert_array_equal(p.alpha0, 2.0)

    def test_per_module_weights_kept(self):
        p = UotParams.uniform(3, 4, k_iters=3, alpha1=[1.0, 2.0, 3.0])
        np.testing.assert_array_equal(p.alpha1, [1.0, 2.0, 3.0])

    def test_rejects_non_finite_prior_entry(self):
        # NaN passes both the sign and the sum check of a simplex test.
        with pytest.raises(ValueError, match="finite"):
            UotParams.constant(np.array([np.nan, 0.5, 0.5]), np.full(4, 0.25))
        with pytest.raises(ValueError, match="finite"):
            UotParams.constant(np.full(3, 1 / 3), np.array([0.5, np.nan, 0.25, 0.25]))

    def test_arrays_are_read_only(self):
        p = UotParams.uniform(3, 4)
        for arr in (p.alpha0, p.rho, p.p0, p.q0):
            with pytest.raises(ValueError):
                arr[0] = 9.0

    @pytest.mark.parametrize("kwargs", [
        {"k_iters": 0},
        {"alpha0": [1.0, 2.0]},
        {"alpha2": 0.0},
        {"rho": -1.0},
        {"alpha1": np.nan},
    ])
    def test_rejects_bad_weights(self, kwargs):
        with pytest.raises(ValueError):
            UotParams.uniform(3, 4, k_iters=kwargs.pop("k_iters", 4), **kwargs)

    def test_k_iters_must_be_integral(self):
        # int() used to truncate these to 2 and 3 modules, and to parse "3".
        for k in (2.7, np.float64(3.9), "3", True, False):
            with pytest.raises(ValueError, match="k_iters"):
                UotParams.uniform(3, 4, k_iters=k)
        for k in (4, np.int64(4)):
            p = UotParams.uniform(3, 4, k_iters=k)
            assert p.k_iters == 4 and type(p.k_iters) is int
            assert p.alpha0.shape == (4,)

    @pytest.mark.parametrize("p0,q0", [
        ([0.0, 0.5, 0.5], [0.25, 0.25, 0.25, 0.25]),
        ([0.5, 0.25, 0.25], [0.5, 0.0, 0.25, 0.25]),
    ])
    def test_rejects_zero_prior_entry(self, p0, q0):
        # log 0 = -inf made every entry of every plan NaN.
        with pytest.raises(ValueError, match="positive"):
            UotParams.constant(np.array(p0), np.array(q0))

    def test_rejects_non_simplex_priors(self):
        with pytest.raises(ValueError):
            UotParams.constant(np.array([0.4, 0.4]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            UotParams.constant(np.array([1.5, -0.5]), np.array([0.5, 0.5]))

    def test_per_item_weights_broadcast_shared_ones(self):
        alpha0 = np.linspace(0.1, 2.0, 4 * 6).reshape(4, 2, 3)
        p = UotParams.uniform(3, 4, alpha0=alpha0, alpha1=[1.0, 2.0, 3.0, 4.0], rho=0.5)
        for w in (p.alpha0, p.alpha1, p.alpha2, p.rho):
            assert w.shape == (4, 2, 3)
            with pytest.raises(ValueError):
                w[0, 0, 0] = 9.0
        np.testing.assert_array_equal(p.alpha0, alpha0)
        np.testing.assert_array_equal(p.alpha1[:, 1, 2], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(p.rho, 0.5)

    def test_weights_are_copies(self):
        # The caller's array used to be kept, and made read-only.
        for alpha0 in (np.full(4, 0.5), np.full((4, 3), 0.5)):
            p = UotParams.uniform(3, 4, alpha0=alpha0)
            assert alpha0.flags.writeable and not np.shares_memory(p.alpha0, alpha0)
            alpha0[0] = 9.0
            np.testing.assert_array_equal(p.alpha0, 0.5)

    @pytest.mark.parametrize("kwargs", [
        {"alpha0": np.ones(5)},  # (K + 1,)
        {"rho": np.ones(7)},  # (items,)
        {"alpha1": np.ones((3, 4))},  # (items, K)
        {"alpha0": np.ones((4, 3)), "alpha2": np.ones((4, 4))},
        {"alpha0": np.ones((4, 3)), "rho": np.ones((4, 1))},
    ])
    def test_shape_errors_name_both_weight_shapes(self, kwargs):
        with pytest.raises(ValueError, match=r"\(4,\) or .*\(4, \*batch\)"):
            UotParams.uniform(3, 4, **kwargs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_per_item_entries(self, bad):
        w = np.ones((4, 2, 3))
        w[2, 1, 0] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            UotParams.uniform(3, 4, alpha2=w)

    @pytest.mark.parametrize("reg", ["quadratic", "entropic", None, 0])
    def test_rejects_non_regularizer(self, reg):
        # A string used to be kept, and a BADMM solve then ran the entropic scheme.
        with pytest.raises(TypeError, match=f"reg must be a Regularizer, got {reg!r}"):
            UotParams.uniform(5, 10, reg=reg)


class TestObjective:
    def test_entropic_uniform_square(self):
        x = np.ones((2, 2))
        p = np.full((2, 2), 0.25)
        val = uot_objective(x, p, 1.0, 1.0, 1.0, [0.5, 0.5], [0.5, 0.5],
                            Regularizer.ENTROPIC)
        assert val == pytest.approx(-2.0 - math.log(4.0), abs=1e-12)

    def test_quadratic_uniform_square(self):
        x = np.ones((2, 2))
        p = np.full((2, 2), 0.25)
        val = uot_objective(x, p, 1.0, 1.0, 1.0, [0.5, 0.5], [0.5, 0.5],
                            Regularizer.QUADRATIC)
        assert val == pytest.approx(-0.75, abs=1e-12)

    def test_quadratic_single_cell_cancels(self):
        val = uot_objective([[1.0]], [[1.0]], 1.0, 1.0, 1.0, [1.0], [1.0],
                            Regularizer.QUADRATIC)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_entropic_single_cell(self):
        val = uot_objective([[0.0]], [[1.0]], 1.0, 1.0, 1.0, [1.0], [1.0],
                            Regularizer.ENTROPIC)
        assert val == pytest.approx(-1.0, abs=1e-15)

    def test_weighted_terms_assembled_from_scalar_math(self):
        x = np.array([[1.0, 2.0]])
        p = np.array([[1.0, 3.0]])
        cost = -(1.0 * 1.0 + 2.0 * 3.0)
        reg = (1.0 * math.log(1.0) - 1.0) + (3.0 * math.log(3.0) - 3.0)
        kl_row = 4.0 * math.log(4.0) - 4.0 + 1.0
        kl_col = (1.0 * math.log(1.0 / 0.5) + 3.0 * math.log(3.0 / 0.5)) - 4.0 + 1.0
        expected = cost + 1.0 * reg + 2.0 * kl_row + 3.0 * kl_col
        val = uot_objective(x, p, 1.0, 2.0, 3.0, [1.0], [0.5, 0.5],
                            Regularizer.ENTROPIC)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_zero_plan_entries_allowed(self):
        val = uot_objective([[0.0, 0.0]], [[1.0, 0.0]], 1.0, 1.0, 1.0,
                            [1.0], [0.5, 0.5], Regularizer.ENTROPIC)
        assert np.isfinite(val)

    def test_rejects_nan_input(self):
        with pytest.raises(ValueError, match="finite"):
            uot_objective([[np.nan]], [[1.0]], 1.0, 1.0, 1.0, [1.0], [1.0],
                          Regularizer.ENTROPIC)
        with pytest.raises(ValueError, match="finite"):
            uot_objective([[1.0]], [[np.inf]], 1.0, 1.0, 1.0, [1.0], [1.0],
                          Regularizer.ENTROPIC)

    def test_rejects_negative_plan(self):
        with pytest.raises(ValueError, match="nonnegative"):
            uot_objective([[1.0]], [[-0.5]], 1.0, 1.0, 1.0, [1.0], [1.0],
                          Regularizer.ENTROPIC)

    def test_rejects_zero_prior(self):
        with pytest.raises(ValueError, match="positive"):
            uot_objective([[1.0, 1.0]], [[0.5, 0.5]], 1.0, 1.0, 1.0,
                          [1.0], [1.0, 0.0], Regularizer.ENTROPIC)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            uot_objective(np.ones((2, 2)), np.ones((2, 3)), 1.0, 1.0, 1.0,
                          [0.5, 0.5], [0.5, 0.5], Regularizer.ENTROPIC)
        with pytest.raises(ValueError):
            uot_objective(np.ones((2, 2)), np.ones((2, 2)), 1.0, 1.0, 1.0,
                          [1.0], [0.5, 0.5], Regularizer.ENTROPIC)

    @pytest.mark.parametrize("shape", [(1, 2, 2), (3, 2, 2), (2,)])
    def test_rejects_anything_but_one_matrix(self, shape):
        # A batch, even of one, used to fail in float() with numpy's scalar TypeError.
        with pytest.raises(ValueError, match=re.escape(f"one (D, N) matrix, got shape {shape}")):
            uot_objective(np.ones(shape), np.full(shape, 0.25), 1.0, 1.0, 1.0,
                          [0.5, 0.5], [0.5, 0.5], Regularizer.ENTROPIC)

    @pytest.mark.parametrize("reg", ["entropic", "quadratic", None])
    def test_rejects_non_regularizer(self, reg):
        # "entropic" used to take the quadratic branch.
        with pytest.raises(TypeError, match=f"reg must be a Regularizer, got {reg!r}"):
            uot_objective(np.ones((2, 2)), np.full((2, 2), 0.25), 1.0, 1.0, 1.0,
                          [0.5, 0.5], [0.5, 0.5], reg)


class TestSinkhornSteps:
    def test_init_state(self):
        x = random_input(0, 3, 4)
        p = UotParams.uniform(3, 4, alpha0=2.0)
        state = sinkhorn_init(x, p)
        np.testing.assert_array_equal(state.a, np.zeros(3))
        np.testing.assert_array_equal(state.b, np.zeros(4))
        np.testing.assert_array_equal(state.y, x / 2.0)

    @pytest.mark.parametrize("items", [1, 2])
    def test_init_rejects_per_item_weights(self, items):
        p = UotParams.uniform(3, 4, alpha0=np.full((4, items), 2.0))
        with pytest.raises(ValueError, match=rf"per-item weights of shape \(4, {items}\)"):
            sinkhorn_init(np.zeros((items, 3, 4)), p)

    def test_zero_cost_uniform_is_fixed_point(self):
        x = np.zeros((4, 4))
        p = UotParams.uniform(4, 4)
        state = sinkhorn_init(x, p)
        state = sinkhorn_step(state, x, 1.0, 1.0, 1.0, p.p0, p.q0)
        np.testing.assert_allclose(state.a, 0.0, atol=1e-15)
        np.testing.assert_allclose(state.b, 0.0, atol=1e-15)
        np.testing.assert_allclose(np.exp(state.y), np.outer(p.p0, p.q0), atol=1e-15)

    def test_huge_row_weight_matches_row_marginal_in_one_step(self):
        x = random_input(1, 4, 6)
        p = UotParams.uniform(4, 6)
        state = sinkhorn_init(x, p)
        # alpha2 tiny keeps the column dual at zero, so the plan's row sums
        # reflect the row update alone.
        state = sinkhorn_step(state, x, 1.0, 1e12, 1e-12, p.p0, p.q0)
        np.testing.assert_allclose(np.exp(state.y).sum(axis=-1), p.p0, atol=1e-9)
        np.testing.assert_allclose(state.b, 0.0, atol=1e-9)

    def test_batched_step_matches_loop(self):
        xs = np.stack([random_input(s, 3, 5) for s in range(4)])
        p = UotParams.uniform(3, 5)
        batched = sinkhorn_step(sinkhorn_init(xs, p), xs, 0.5, 1.2, 0.8, p.p0, p.q0)
        for i in range(4):
            single = sinkhorn_step(sinkhorn_init(xs[i], p), xs[i], 0.5, 1.2, 0.8,
                                   p.p0, p.q0)
            np.testing.assert_array_equal(batched.y[i], single.y)
            np.testing.assert_array_equal(batched.a[i], single.a)


class TestBadmmSteps:
    @staticmethod
    def arbitrary_state(seed, d, n):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (d, n))
        params = UotParams.uniform(d, n)
        state = badmm_init(x, params)
        state.log_p = rng.uniform(-1.5, 0.0, (d, n))
        state.log_s = rng.uniform(-1.5, 0.0, (d, n))
        state.log_mu = rng.uniform(-1.5, 0.0, d)
        state.log_eta = rng.uniform(-1.5, 0.0, n)
        state.z_mat = rng.uniform(-0.5, 0.5, (d, n))
        state.z1 = rng.uniform(-0.5, 0.5, d)
        state.z2 = rng.uniform(-0.5, 0.5, n)
        return x, params, state

    def test_init_is_prior_product(self):
        x = random_input(0, 3, 4)
        params = UotParams.uniform(3, 4)
        state = badmm_init(x, params)
        np.testing.assert_allclose(np.exp(state.log_p), np.outer(params.p0, params.q0),
                                   atol=1e-15)
        np.testing.assert_array_equal(state.log_p, state.log_s)
        np.testing.assert_array_equal(state.z_mat, 0.0)
        np.testing.assert_array_equal(state.z1, 0.0)
        np.testing.assert_array_equal(state.z2, 0.0)

    @pytest.mark.parametrize("reg", [Regularizer.ENTROPIC, Regularizer.QUADRATIC])
    def test_primal_rows_match_relaxed_marginal(self, reg):
        x, params, state = self.arbitrary_state(3, 4, 6)
        out = badmm_primal_update(state, x, 0.7, 1.3, reg)
        np.testing.assert_allclose(np.exp(out.log_p).sum(axis=-1),
                                   np.exp(state.log_mu), atol=1e-10)

    @pytest.mark.parametrize("reg", [Regularizer.ENTROPIC, Regularizer.QUADRATIC])
    def test_auxiliary_columns_match_previous_marginal(self, reg):
        x, params, state = self.arbitrary_state(4, 4, 6)
        old_eta = np.exp(state.log_eta).copy()
        out = badmm_auxiliary_update(state, 0.7, 1.1, 0.9, 1.3, params.p0, params.q0, reg)
        np.testing.assert_allclose(np.exp(out.log_s).sum(axis=-2), old_eta, atol=1e-10)

    def test_marginal_moves_toward_prior_with_huge_weight(self):
        x, params, state = self.arbitrary_state(5, 4, 6)
        out = badmm_auxiliary_update(state, 0.7, 1e12, 1e12, 1.3,
                                     params.p0, params.q0, Regularizer.ENTROPIC)
        np.testing.assert_allclose(out.log_mu, np.log(params.p0), atol=1e-9)
        np.testing.assert_allclose(out.log_eta, np.log(params.q0), atol=1e-9)

    def test_marginal_frozen_with_tiny_weight(self):
        x, params, state = self.arbitrary_state(6, 4, 6)
        state.z1[:] = 0.0
        state.z2[:] = 0.0
        out = badmm_auxiliary_update(state, 0.7, 1e-12, 1e-12, 1.3,
                                     params.p0, params.q0, Regularizer.ENTROPIC)
        np.testing.assert_allclose(out.log_mu, state.log_mu, atol=1e-9)
        np.testing.assert_allclose(out.log_eta, state.log_eta, atol=1e-9)

    def test_dual_update_is_no_op_at_consensus(self):
        x, params, state = self.arbitrary_state(7, 3, 5)
        state.log_s = state.log_p.copy()
        state.log_mu = np.log(np.exp(state.log_p).sum(axis=-1))
        state.log_eta = np.log(np.exp(state.log_p).sum(axis=-2))
        out = badmm_dual_update(state, 0.7, 1.3)
        np.testing.assert_array_equal(out.z_mat, state.z_mat)
        np.testing.assert_allclose(out.z1, state.z1, atol=1e-15)
        np.testing.assert_allclose(out.z2, state.z2, atol=1e-15)

    def test_dual_update_accumulates_plan_gap(self):
        x, params, state = self.arbitrary_state(8, 3, 5)
        out = badmm_dual_update(state, 0.7, 1.3)
        expected = state.z_mat + 0.7 * (np.exp(state.log_p) - np.exp(state.log_s))
        np.testing.assert_allclose(out.z_mat, expected, atol=1e-15)

    def test_zero_cost_keeps_prior_product(self):
        params = UotParams.uniform(4, 6, k_iters=8)
        plan, diag = solve(np.zeros((4, 6)), params, SolverKind.BADMM)
        np.testing.assert_allclose(plan, np.outer(params.p0, params.q0), atol=1e-12)
        assert not diag.has_nan
        np.testing.assert_allclose(np.diff(diag.objective_trace), 0.0, atol=1e-12)


class TestSolverRegimes:
    @pytest.mark.parametrize("kind", list(SolverKind), ids=kind_id)
    def test_large_weights_recover_uniform_plan(self, kind):
        x = random_input(0)
        plan, diag = solve(x, mean_config(5, 10), kind)
        assert np.abs(plan - 1.0 / 50.0).max() < 1e-4
        assert not diag.has_nan

    def test_max_regime_concentrates_rows(self):
        x = random_input(2)
        plan, _ = solve(x, max_config(5, 10), SolverKind.SINKHORN)
        pooled = pool_with_plan(x, plan)
        target = max_pool(x)
        assert np.abs(pooled - target).max() / np.abs(target).max() < 0.02

    def test_max_regime_badmm_within_looser_band(self):
        x = random_input(2)
        plan, _ = solve(x, max_config(5, 10), SolverKind.BADMM)
        pooled = pool_with_plan(x, plan)
        target = max_pool(x)
        assert np.abs(pooled - target).max() / np.abs(target).max() < 0.10

    @pytest.mark.parametrize("kind", list(SolverKind), ids=kind_id)
    def test_attention_regime_recovers_rank_one_plan(self, kind):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, (5, 10))
        raw = rng.uniform(0.1, 1.0, 10)
        q0 = raw / raw.sum()
        plan, _ = solve(x, attention_config(5, q0), kind)
        target = np.outer(np.full(5, 0.2), q0)
        assert np.abs(plan - target).max() < 1e-3


class TestSolverInvariants:
    @pytest.mark.parametrize("kind", list(SolverKind), ids=kind_id)
    def test_bitwise_deterministic(self, kind):
        x = random_input(3)
        params = UotParams.uniform(5, 10, alpha0=0.1)
        p1, d1 = solve(x, params, kind)
        p2, d2 = solve(x, params, kind)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(d1.objective_trace, d2.objective_trace)

    @pytest.mark.parametrize("kind", list(SolverKind), ids=kind_id)
    def test_column_permutation_equivariance(self, kind):
        x = random_input(4)
        perm = np.random.default_rng(40).permutation(10)
        params = UotParams.uniform(5, 10, alpha0=0.1)
        plan, _ = solve(x, params, kind)
        plan_perm, _ = solve(x[:, perm], params, kind)
        assert np.abs(plan_perm - plan[:, perm]).max() < 1e-6

    @pytest.mark.parametrize("kind", list(SolverKind), ids=kind_id)
    def test_row_permutation_equivariance(self, kind):
        x = random_input(5)
        perm = np.random.default_rng(41).permutation(5)
        params = UotParams.uniform(5, 10, alpha0=0.1)
        plan, _ = solve(x, params, kind)
        plan_perm, _ = solve(x[perm, :], params, kind)
        assert np.abs(plan_perm - plan[perm, :]).max() < 1e-6

    def test_sinkhorn_row_gap_tightens_with_row_weight(self):
        x = random_input(6)
        gaps = {}
        for a1 in (0.5, 2.0, 8.0, 32.0):
            params = UotParams.uniform(5, 10, k_iters=8, alpha0=0.1,
                                       alpha1=a1, alpha2=1.0)
            _, diag = solve(x, params, SolverKind.SINKHORN)
            gaps[a1] = diag.marginal_gap_row
        assert gaps[8.0] < gaps[2.0] < gaps[0.5]
        assert gaps[32.0] < gaps[2.0]

    def test_badmm_row_gap_nonincreasing_in_row_weight(self):
        # The final plan is row-projected onto the relaxed marginal, which
        # never moves from p0, so the gap is pinned near zero at every weight.
        x = random_input(6)
        gaps = []
        for a1 in (1.0, 10.0, 100.0, 1e4):
            params = UotParams.uniform(5, 10, k_iters=32, alpha0=0.1,
                                       alpha1=a1, alpha2=1.0)
            _, diag = solve(x, params, SolverKind.BADMM)
            gaps.append(diag.marginal_gap_row)
        assert all(g < 1e-12 for g in gaps)
        assert all(b <= a + 1e-6 for a, b in zip(gaps, gaps[1:]))

    def test_badmm_plan_ignores_marginal_weights(self):
        # The relaxed marginals start at the priors and the marginal duals
        # at zero, so the marginal weights cancel from every update and the
        # plan depends only on the smoothing weight and the penalty.
        x = random_input(7)
        base, _ = solve(x, UotParams.uniform(5, 10, alpha0=0.7, rho=1.3), SolverKind.BADMM)
        alt, _ = solve(x, UotParams.uniform(5, 10, alpha0=0.7, alpha1=37.0,
                                            alpha2=0.03, rho=1.3), SolverKind.BADMM)
        assert np.abs(base - alt).max() < 1e-12

    @pytest.mark.parametrize("kind,reg", SOLVER_CONFIGS, ids=kind_id)
    def test_objective_trace_nonincreasing(self, kind, reg):
        for seed in range(3):
            x = random_input(100 + seed)
            params = UotParams.uniform(5, 10, k_iters=16, alpha0=0.1, reg=reg)
            _, diag = solve(x, params, kind)
            t = diag.objective_trace
            assert np.all(np.diff(t) <= 1e-9), t

    @pytest.mark.parametrize("kind", list(SolverKind), ids=kind_id)
    def test_trace_length_matches_module_count(self, kind):
        for k in (1, 3, 7):
            _, diag = solve(random_input(8), UotParams.uniform(5, 10, k_iters=k,
                                                              alpha0=0.1), kind)
            assert diag.objective_trace.shape == (k,)

    def test_final_trace_entry_matches_objective(self):
        x = random_input(9)
        params = UotParams.uniform(5, 10, k_iters=4, alpha0=0.5, alpha1=2.0,
                                   alpha2=0.8, rho=1.1)
        plan, diag = solve(x, params, SolverKind.BADMM)
        val = uot_objective(x, plan, 0.5, 2.0, 0.8, params.p0, params.q0, params.reg)
        assert diag.objective_trace[-1] == pytest.approx(val, rel=1e-12)

    def test_mini_weight_grid_badmm_stays_finite(self):
        x = random_input(10)
        for reg in (Regularizer.ENTROPIC, Regularizer.QUADRATIC):
            for a0 in (1e-5, 1e4):
                for a12 in (1e-5, 1e4):
                    params = UotParams.uniform(5, 10, alpha0=a0, alpha1=a12,
                                               alpha2=a12, reg=reg)
                    plan, diag = solve(x, params, SolverKind.BADMM)
                    assert not diag.has_nan
                    assert diag.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_diagnostics_flag_nan_blowup(self):
        # Tiny smoothing with tiny marginal weights overflows the kernel;
        # the solver must return rather than raise.
        x = random_input(11)
        params = UotParams.uniform(5, 10, k_iters=4, alpha0=1e-5, alpha1=1e-5,
                                   alpha2=1e-5)
        plan, diag = solve(x, params, SolverKind.SINKHORN)
        assert diag.has_nan

    def test_sinkhorn_rejects_quadratic(self):
        params = UotParams.uniform(3, 4, reg=Regularizer.QUADRATIC)
        with pytest.raises(ValueError, match="entropic"):
            solve(np.zeros((3, 4)), params, SolverKind.SINKHORN)

    @pytest.mark.parametrize("kind", list(SolverKind), ids=kind_id)
    def test_dimension_mismatch_rejected(self, kind):
        params = UotParams.uniform(3, 4)
        with pytest.raises(ValueError):
            solve(np.zeros((4, 3)), params, kind)
        with pytest.raises(ValueError):
            solve(np.zeros(4), params, kind)


class TestSolve:
    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_batch_matches_single_solves(self, kind):
        xs = np.stack([random_input(s) for s in (1, 2, 3)])
        params = UotParams.uniform(5, 10, k_iters=3, alpha0=0.1)
        plan, diag = solve(xs, params, kind)
        assert plan.shape == xs.shape
        assert diag.objective_trace.shape == (3, 3)
        singles = [solve(x, params, kind) for x in xs]
        for i, (p_i, d_i) in enumerate(singles):
            np.testing.assert_array_equal(plan[i], p_i)
            np.testing.assert_array_equal(diag.objective_trace[:, i], d_i.objective_trace)
        assert diag.total_mass == pytest.approx(sum(d.total_mass for _, d in singles))
        assert diag.marginal_gap_row == pytest.approx(
            sum(d.marginal_gap_row for _, d in singles))
        for p, d in [(plan, diag), *singles]:  # the gaps are the returned plan's
            assert d.marginal_gap_row == np.abs(p.sum(axis=-1) - params.p0).sum()
            assert d.marginal_gap_col == np.abs(p.sum(axis=-2) - params.q0).sum()

    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_has_nan_is_or_over_items(self, kind):
        # Tiny weights overflow the kernel scheme on random inputs but not
        # on a zero input, so the Sinkhorn batch mixes healthy and bad items.
        xs = np.stack([random_input(11), np.zeros((5, 10)), random_input(12)])
        params = UotParams.uniform(5, 10, k_iters=4, alpha0=1e-5, alpha1=1e-5,
                                   alpha2=1e-5)
        flags = [solve(x, params, kind)[1].has_nan for x in xs]
        if kind is SolverKind.SINKHORN:
            assert flags == [True, False, True]
        assert solve(xs, params, kind)[1].has_nan == any(flags)
        assert not solve(xs[1:2], params, kind)[1].has_nan

    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_rejects_bad_shapes(self, kind):
        params = UotParams.uniform(3, 4)
        with pytest.raises(ValueError, match="prior dimensions"):
            solve(np.zeros((4, 3)), params, kind)
        with pytest.raises(ValueError, match="prior dimensions"):
            solve(np.zeros(4), params, kind)

    def test_sinkhorn_rejects_quadratic(self):
        params = UotParams.uniform(3, 4, reg=Regularizer.QUADRATIC)
        with pytest.raises(ValueError, match="entropic"):
            solve(np.zeros((2, 3, 4)), params, SolverKind.SINKHORN)

    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_rejects_input_batch_unlike_weight_batch(self, kind):
        params = UotParams.uniform(3, 4, alpha0=np.ones((4, 2, 3)))
        for shape in ((3, 4), (6, 3, 4), (3, 2, 3, 4), (2, 3, 1, 3, 4)):
            with pytest.raises(ValueError, match=r"batch shape \(2, 3\), got"):
                solve(np.zeros(shape), params, kind)
        assert solve(np.zeros((2, 3, 3, 4)), params, kind)[0].shape == (2, 3, 3, 4)

    def test_rejects_kind_name(self):
        # Any non-Sinkhorn kind would otherwise run the BADMM branch.
        with pytest.raises(TypeError, match="SolverKind"):
            solve(np.zeros((3, 4)), UotParams.uniform(3, 4), "sinkhorn")


class TestSolveCoreMatchesSteps:
    """The solve loop against :func:`chained_solve` over the public steps."""

    # Weights stay within [0.05, 5]: from alpha0 of about 100 up, the BADMM
    # dual step z += alpha0 (P - S) amplifies rounding differences between
    # the two operation orders (up to 8e-8 relative at alpha0 = 1e4), so a
    # wider range would only measure that amplification.
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(SOLVER_CONFIGS),
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(1, 11),
        st.lists(st.integers(1, 3), max_size=2),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["whole", "item"]) | st.integers(1, 4096),
    )
    def test_plans_and_traces_match(self, config, k, d, n, batch, seed, chunk_bytes):
        kind, reg = config
        rng = np.random.default_rng(seed)
        weights = np.exp(rng.uniform(np.log(0.05), np.log(5.0), (4, k)))
        params = UotParams(k, *weights, rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(n)), reg)
        x = rng.uniform(-3.0, 3.0, tuple(batch) + (d, n))
        chunk_bytes = {"whole": 2**62, "item": x.itemsize * d * n}.get(chunk_bytes, chunk_bytes)
        with mock.patch.object(solvers, "_CHUNK_BYTES", chunk_bytes):
            plan, diag = solve(x, params, kind)
        ref_plan, ref_trace = chained_solve(x, params, kind)
        np.testing.assert_allclose(plan, ref_plan, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(diag.objective_trace, ref_trace, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind,reg", SOLVER_CONFIGS)
    def test_stability_grid_non_finite_parity(self, kind, reg):
        # The ``uotpool stability`` grid, where the kernel scheme overflows
        # in some corners: finiteness must match entry by entry.
        x = random_input(0)
        decades = [10.0 ** e for e in range(-5, 5)]
        for a0 in decades:
            for a12 in decades:
                params = UotParams.uniform(5, 10, k_iters=4, alpha0=a0, alpha1=a12,
                                           alpha2=a12, rho=1.0, reg=reg)
                plan, diag = solve(x, params, kind)
                ref_plan, ref_trace = chained_solve(x, params, kind)
                np.testing.assert_array_equal(np.isfinite(plan), np.isfinite(ref_plan))
                assert diag.has_nan == (not np.isfinite(ref_trace).all())

    @pytest.mark.parametrize("kind,reg", SOLVER_CONFIGS)
    def test_trace_finite_where_log_plan_is_minus_infinity(self, kind, reg):
        # x / alpha0 and x / rho overflow to -inf at one entry, so its log
        # plan is -inf and its plan entry 0; the trace must stay the finite
        # value of the direct evaluation, not 0 * -inf.
        x = random_input(3)
        x[1, 2] = -1e308
        params = UotParams.uniform(5, 10, k_iters=3, alpha0=0.5, rho=0.5, reg=reg)
        plan, diag = solve(x, params, kind)
        ref_plan, ref_trace = chained_solve(x, params, kind)
        assert plan[1, 2] == 0.0
        assert not diag.has_nan
        np.testing.assert_allclose(diag.objective_trace, ref_trace, rtol=1e-12, atol=1e-12)

    def test_non_finite_entries_evaluated_directly_per_module(self):
        # Over the ``uotpool stability`` grid, a batch of two items the kernel
        # scheme overflows on, a zero item and a finite item. In one cell the
        # first overflows from the second module on, the other from the last.
        x = random_input(0)
        xs = np.stack([x - 0.5, np.zeros((5, 10)), -x, x - 0.7])
        decades = [10.0 ** e for e in range(-5, 5)]
        mixed = 0
        for a0 in decades:
            for a12 in decades:
                params = UotParams.uniform(5, 10, k_iters=4, alpha0=a0, alpha1=a12, alpha2=a12)
                singles = [solve(x_i, params, SolverKind.SINKHORN)[1] for x_i in xs]
                with mock.patch.object(solvers, "_objective_core",
                                       wraps=solvers._objective_core) as core:
                    _, diag = solve(xs, params, SolverKind.SINKHORN)
                for i, d_i in enumerate(singles):
                    np.testing.assert_array_equal(diag.objective_trace[:, i], d_i.objective_trace)
                bad_per_module = (~np.isfinite(diag.objective_trace)).sum(axis=1)
                assert [len(c.args[0]) for c in core.call_args_list] == \
                    [n for n in bad_per_module if n]
                mixed += bad_per_module.tolist() == [0, 1, 1, 2]  # the cell named above
        assert mixed >= 1

    @pytest.mark.parametrize("batch", [(), (3,), (2, 4)])
    @pytest.mark.parametrize("kind,reg", SOLVER_CONFIGS)
    def test_finite_solve_runs_modules_once(self, kind, reg, batch):
        params = UotParams.uniform(5, 10, k_iters=3, alpha0=0.5, reg=reg)
        x = np.random.default_rng(5).uniform(0.0, 1.0, batch + (5, 10))
        with mock.patch.object(solvers, "_lse", wraps=solvers._lse) as lse, \
                mock.patch.object(solvers, "_objective_core") as core:
            _, diag = solve(x, params, kind)
        assert np.isfinite(diag.objective_trace).all()
        rows = [c for c in lse.call_args_list if c.args[1] == -1]
        assert len(rows) == params.k_iters
        core.assert_not_called()


class TestChunkedSolve:
    """Batches split into chunks of items on a thread pool."""

    @pytest.mark.parametrize("kind,reg", SOLVER_CONFIGS)
    def test_results_do_not_depend_on_thread_count(self, kind, reg):
        rng = np.random.default_rng(21)
        weights = np.exp(rng.uniform(np.log(0.05), np.log(5.0), (4, 3)))
        params = UotParams(3, *weights, rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(7)), reg)
        # Two batch axes of 12 items in all, each item every second row of a
        # larger array; chunks of 5 items make 3 chunks.
        x = rng.uniform(-3.0, 3.0, (3, 4, 12, 7))[..., ::2, :]
        whole_plan, whole_diag = solve(x, params, kind)
        with mock.patch.object(solvers, "_CHUNK_BYTES", 5 * x.itemsize * 6 * 7):
            for cpus in (1, 4):
                with mock.patch.object(os, "cpu_count", return_value=cpus), \
                        mock.patch.object(solvers, "ThreadPoolExecutor",
                                          wraps=ThreadPoolExecutor) as pool:
                    plan, diag = solve(x, params, kind)
                assert pool.call_args.args == (min(cpus, 3),)
                np.testing.assert_array_equal(plan, whole_plan)
                np.testing.assert_array_equal(diag.objective_trace, whole_diag.objective_trace)
            plan, diag = solve(np.zeros((0, 6, 7)), params, kind)
        assert plan.shape == (0, 6, 7)
        assert diag.objective_trace.shape == (3, 0)

    def test_overflow_in_worker_threads_stays_silent(self):
        # The Sinkhorn cells of the ``uotpool stability`` grid that overflow,
        # each solved as a batch of one-item chunks with warnings as errors.
        xs = np.stack([random_input(0), np.zeros((5, 10)), random_input(1), random_input(2)])
        decades = [10.0 ** e for e in range(-5, 5)]
        overflowing = 0
        for a0 in decades:
            for a12 in decades:
                params = UotParams.uniform(5, 10, k_iters=4, alpha0=a0, alpha1=a12, alpha2=a12)
                singles = [solve(x, params, SolverKind.SINKHORN) for x in xs]
                if not singles[0][1].has_nan:
                    continue
                overflowing += 1
                with warnings.catch_warnings(), mock.patch.object(solvers, "_CHUNK_BYTES", 1):
                    warnings.simplefilter("error")
                    plan, diag = solve(xs, params, SolverKind.SINKHORN)
                assert diag.has_nan == any(d.has_nan for _, d in singles)
                for i, (plan_i, _) in enumerate(singles):
                    np.testing.assert_array_equal(plan[i], plan_i)
        assert overflowing >= 1


    @pytest.mark.parametrize("kind,reg", SOLVER_CONFIGS)
    def test_epilogue_per_item_chunks_is_bitwise_one_chunk(self, kind, reg):
        # Diagnostics and pool_with_plan with one item per chunk, against one
        # chunk for the whole batch, on a batch whose item 4 holds a NaN.
        rng = np.random.default_rng(8)
        params = UotParams.uniform(6, 7, k_iters=3, alpha0=0.3, reg=reg)
        x = rng.uniform(-2.0, 2.0, (2, 3, 6, 7))
        for nan_item in (False, True):
            if nan_item:
                x[1, 1, 2, 5] = np.nan
            plan, diag = solve(x, params, kind)
            pooled = pool_with_plan(x, plan)
            with mock.patch.object(solvers, "_CHUNK_BYTES", 1), \
                    mock.patch.object(solvers, "ThreadPoolExecutor",
                                      wraps=ThreadPoolExecutor) as pool, \
                    mock.patch.object(solvers, "row_conditional",
                                      wraps=solvers.row_conditional) as rows:
                chunked_plan, chunked = solve(x, params, kind)
                assert pool.call_count == 1  # the diagnostics reuse the solve's sums
                chunked_pooled = pool_with_plan(x, chunked_plan)
            assert pool.call_count == 2  # pool_with_plan runs on the same chunk scheduler
            assert rows.call_count == 6
            np.testing.assert_array_equal(chunked_plan, plan)
            np.testing.assert_array_equal(chunked_pooled, pooled)
            np.testing.assert_array_equal(chunked.objective_trace, diag.objective_trace)
            for field in ("has_nan", "total_mass", "marginal_gap_row", "marginal_gap_col"):
                np.testing.assert_array_equal(getattr(chunked, field), getattr(diag, field))
            assert chunked.has_nan is nan_item
            assert np.isnan(chunked_pooled[1, 1]).any() == nan_item
            assert np.isfinite(np.delete(chunked_pooled.reshape(6, 6), 4, axis=0)).all()

    def test_has_nan_follows_entries_when_row_sums_overflow(self):
        # Plan entries are exp values: a NaN or inf entry makes its row sum
        # non-finite, but finite entries can also overflow a row sum, and
        # that alone neither sets has_nan nor warns.
        params = UotParams.uniform(2, 3, k_iters=1)
        trace = np.zeros((1, 3))
        plan = np.full((3, 2, 3), 0.1)

        def diagnostics():
            with np.errstate(over="ignore"):
                sums = plan.sum(axis=-1), plan.sum(axis=-2)
            return solvers._diagnostics(plan, trace, *sums, params)

        assert not diagnostics().has_nan
        plan[2, 1, 0] = np.inf
        assert diagnostics().has_nan
        plan[2, 1, 0] = 1.5e308
        plan[2, 1, 1] = 1.5e308
        diag = diagnostics()
        assert not diag.has_nan and diag.total_mass == np.inf
        plan[1, 0, 2] = np.nan
        assert diagnostics().has_nan

    def test_zero_plan_row_in_a_later_item_names_it(self):
        x = np.ones((2, 3, 4, 5))
        plan = np.full(x.shape, 0.05)
        plan[1, 2, 3] = 0.0
        for chunk_bytes in (1, 2**62):
            with mock.patch.object(solvers, "_CHUNK_BYTES", chunk_bytes), \
                    pytest.raises(DegenerateRowError, match="row 3 of item 5 ") as info:
                pool_with_plan(x, plan)
            assert (info.value.row, info.value.item) == (3, 5)


class TestChunkedPooling:
    """pool_with_plan weights a batch on the solve's chunks and threads."""

    def test_first_zero_row_in_batch_order_wins(self):
        # Zero rows in items 2 and 5, one item per chunk on four threads.
        # Item 2's chunk waits until item 5's has failed, so the error read
        # first in submission order is not the first one raised.
        x = np.ones((6, 4, 5))
        plan = np.full(x.shape, 0.05) * np.arange(1.0, 7.0)[:, None, None]
        plan[2, 1] = plan[5, 3] = 0.0
        later_failed, row_conditional = threading.Event(), solvers.row_conditional

        def rows(p):
            if p[0, 0, 0] == plan[2, 0, 0]:
                assert later_failed.wait(10)
            try:
                return row_conditional(p)
            finally:
                if p[0, 0, 0] == plan[5, 0, 0]:
                    later_failed.set()

        with mock.patch.object(os, "cpu_count", return_value=4), \
                mock.patch.object(solvers, "_CHUNK_BYTES", 1), \
                mock.patch.object(solvers, "row_conditional", side_effect=rows), \
                mock.patch.object(solvers, "ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pool, \
                pytest.raises(DegenerateRowError, match="row 1 of item 2 ") as info:
            pool_with_plan(x, plan)
        assert pool.call_args.args == (4,)
        assert (info.value.row, info.value.item) == (1, 2)

    def test_chunks_and_threads_keep_every_bit(self):
        # 12 items over two batch axes, 5 items per chunk: 3 chunks. A NaN and
        # an overflowing entry propagate to their own pooled rows only.
        rng = np.random.default_rng(40)
        x = rng.uniform(-3.0, 3.0, (3, 4, 6, 7))
        plan = rng.uniform(0.0, 1.0, x.shape)
        plan[1, 2, 3, 4], plan[2, 0, 5, 1] = np.nan, np.inf
        whole = pool_with_plan(x, plan)
        assert np.isnan(whole[1, 2, 3]) and np.isnan(whole[2, 0, 5])
        assert np.isfinite(whole).sum() == whole.size - 2
        with mock.patch.object(solvers, "_CHUNK_BYTES", 5 * x.itemsize * 6 * 7):
            for cpus in (1, 4):
                with mock.patch.object(os, "cpu_count", return_value=cpus), \
                        mock.patch.object(solvers, "ThreadPoolExecutor",
                                          wraps=ThreadPoolExecutor) as pool:
                    np.testing.assert_array_equal(pool_with_plan(x, plan), whole)
                assert pool.call_args.args == (min(cpus, 3),)

    def test_empty_batch(self):
        assert pool_with_plan(np.zeros((0, 6, 7)), np.zeros((0, 6, 7))).shape == (0, 6)


class TestCallerErrstate:
    def test_public_calls_raise_no_floating_point_error(self):
        # Over the ``uotpool stability`` grid, under a caller's
        # np.errstate(all="raise"): numerical failure shows in the outputs and
        # diagnostics, or as training's NonFiniteLossError, never as a
        # FloatingPointError.
        x = random_input(0)
        xs = np.stack([random_input(i) for i in range(3)])
        task = SyntheticTask(n_bags=6, bag_size=10, dim=5, rule=MaxThreshold(feature=2), seed=3)
        decades = [10.0 ** e for e in range(-5, 5)]
        with np.errstate(all="raise"):
            for kind, reg in SOLVER_CONFIGS:
                spec = UotSinkhornPooling if kind is SolverKind.SINKHORN else UotBadmmPooling
                for a0 in decades:
                    for a12 in decades:
                        params = UotParams.uniform(5, 10, k_iters=4, alpha0=a0, alpha1=a12,
                                                   alpha2=a12, reg=reg)
                        solve(x, params, kind)
                        uot_pool(x, params, kind)
                        with mock.patch.object(solvers, "_CHUNK_BYTES", 1):
                            uot_pool(xs, params, kind)
                        plan, pullback = solve_vjp(x, params, kind)
                        pullback(np.ones_like(plan))
                        try:
                            train_synthetic(task, spec(params), epochs=1)
                        except NonFiniteLossError:
                            pass
                hierarchical_uot_pool(x, 0.3, kind)


class TestFeatureMajorLayout:
    """Batches of many small items run feature-major with the same bits."""

    @staticmethod
    def outputs(x, params, kind, feature_major):
        with mock.patch.object(solvers, "_feature_major", feature_major):
            plan, diag = solve(x, params, kind)
            vjp_plan, pullback = solve_vjp(x, params, kind)
            grad = pullback(np.random.default_rng(0).standard_normal(x.shape))
        return [plan, diag.objective_trace, diag.has_nan, diag.total_mass,
                diag.marginal_gap_row, diag.marginal_gap_col, vjp_plan, grad]

    # Weights in [0.05, 5] per module, or the stability grid's decades,
    # where the Sinkhorn scheme overflows in some corners. Every layout the
    # rule may pick is drawn: with one sample per item it never picks
    # feature-major, so that is left out of the forced run.
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(SOLVER_CONFIGS),
        st.integers(1, 5),
        st.integers(1, 300),
        st.integers(1, 12),
        st.integers(1, 20),
        st.integers(0, 2**32 - 1),
        st.none() | st.tuples(st.integers(-5, 4), st.integers(-5, 4)),
    )
    def test_outputs_match_natural_layout(self, config, k, items, d, n, seed, decades):
        kind, reg = config
        rng = np.random.default_rng(seed)
        if decades is None:
            weights = np.exp(rng.uniform(np.log(0.05), np.log(5.0), (4, k)))
        else:
            weights = np.array([10.0 ** decades[0]] + [10.0 ** decades[1]] * 2 + [1.0])
        params = UotParams(k, *weights, rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(n)), reg)
        x = rng.uniform(-3.0, 3.0, (items, d, n))
        natural = self.outputs(x, params, kind, lambda x: False)
        forced = self.outputs(x, params, kind, lambda x: x.ndim == 3 and x.shape[2] > 1)
        for got, want in zip(forced, natural):
            np.testing.assert_array_equal(got, want)

    def test_rule(self):
        assert solvers._feature_major(np.empty((200, 8, 16)))
        assert solvers._feature_major(np.empty((268, 9, 2)))
        assert not solvers._feature_major(np.empty((268, 9, 1)))  # a column is contiguous
        assert not solvers._feature_major(np.empty((2, 100, 500)))  # the bench batch's chunk
        assert not solvers._feature_major(np.empty((16, 8)))  # one matrix


class TestPerItemWeights:
    """Weights of shape (K, *batch) give each item its own column, with the
    bits of a solve of that item alone with (K,) weights."""

    @staticmethod
    def assert_items_match_single_solves(x, params, kind):
        plan, diag = solve(x, params, kind)
        batch = x.shape[:-2]
        assert plan.shape == x.shape and diag.objective_trace.shape == (params.k_iters,) + batch
        non_finite = 0
        for i in np.ndindex(batch):
            col = (slice(None),) + i
            single = UotParams(params.k_iters, params.alpha0[col], params.alpha1[col],
                               params.alpha2[col], params.rho[col], params.p0, params.q0,
                               params.reg)
            plan_i, diag_i = solve(x[i], single, kind)
            np.testing.assert_array_equal(plan[i], plan_i)
            np.testing.assert_array_equal(diag.objective_trace[col], diag_i.objective_trace)
            non_finite += diag_i.has_nan
        assert diag.has_nan == (non_finite > 0)
        return non_finite

    @staticmethod
    def draw_weights(rng, k, batch, decade_share):
        """Weights in [0.05, 5] per module and item; a share of the items
        gets a cell of the stability grid (alpha0 and alpha1 = alpha2 over
        ten decades, rho = 1), where the Sinkhorn scheme overflows in some
        corners."""
        w = np.exp(rng.uniform(np.log(0.05), np.log(5.0), (4, k) + batch))
        grid = np.ones((4,) + batch)
        grid[0], grid[1] = 10.0 ** rng.integers(-5, 5, (2,) + batch)
        grid[2] = grid[1]
        return np.where(rng.random(batch) < decade_share, grid[:, None], w)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(SOLVER_CONFIGS),
        st.integers(1, 5),
        st.integers(1, 300),
        st.integers(1, 12),
        st.integers(1, 20),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_items_match_single_solves(self, config, k, items, d, n, seed, decade_share):
        kind, reg = config
        rng = np.random.default_rng(seed)
        w = self.draw_weights(rng, k, (items,), decade_share)
        params = UotParams(k, *w, rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(n)), reg)
        self.assert_items_match_single_solves(rng.uniform(-3.0, 3.0, (items, d, n)), params, kind)

    @pytest.mark.parametrize("kind,reg", SOLVER_CONFIGS)
    def test_two_batch_axes(self, kind, reg):
        rng = np.random.default_rng(30)
        w = self.draw_weights(rng, 4, (3, 4), 0.5)
        params = UotParams.uniform(5, 10, k_iters=4, alpha0=w[0], alpha1=w[1], alpha2=w[2],
                                   rho=1.0, reg=reg)
        self.assert_items_match_single_solves(rng.uniform(0.0, 1.0, (3, 4, 5, 10)), params, kind)

    @pytest.mark.parametrize("kind,reg", SOLVER_CONFIGS)
    def test_chunked_threaded_batch(self, kind, reg):
        # 2 items of 100 x 500 per 1 MiB chunk: 6 chunks, each solved with its own weights.
        rng = np.random.default_rng(31)
        w = self.draw_weights(rng, 3, (12,), 0.0)
        params = UotParams(3, *w, rng.dirichlet(np.ones(100)), rng.dirichlet(np.ones(500)), reg)
        x = rng.uniform(0.0, 1.0, (12, 100, 500))
        with mock.patch.object(os, "cpu_count", return_value=2), \
                mock.patch.object(solvers, "_solve_chunk", wraps=solvers._solve_chunk) as chunk, \
                mock.patch.object(solvers, "ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pool:
            self.assert_items_match_single_solves(x, params, kind)
        assert pool.call_args_list[0].args == (2,)
        assert [len(c.args[0]) for c in chunk.call_args_list[:6]] == [2] * 6

    def test_stability_grid_runs_non_finite_items_again(self):
        # The ``uotpool stability`` grid as one batch: the kernel scheme
        # overflows in some cells, whose trace entries are evaluated again.
        decades = np.array([10.0 ** e for e in range(-5, 5)])
        a0 = np.broadcast_to(np.repeat(decades, 10), (4, 100))
        a12 = np.broadcast_to(np.tile(decades, 10), (4, 100))
        params = UotParams.uniform(5, 10, k_iters=4, alpha0=a0, alpha1=a12, alpha2=a12)
        x = np.repeat(random_input(0)[None], 100, axis=0)
        with mock.patch.object(solvers, "_objective_core", wraps=solvers._objective_core) as core:
            assert self.assert_items_match_single_solves(x, params, SolverKind.SINKHORN) >= 1
        weights = [c.args[2:5] for c in core.call_args_list if np.ndim(c.args[2]) == 1]
        assert weights, "the batch's re-run path was not taken"
        for c in core.call_args_list:
            if np.ndim(c.args[2]) == 1:
                assert all(len(v) == len(c.args[0]) for v in c.args[2:5])


class TestBufferReuse:
    """The module generators allocate their full-size buffers once per chunk."""

    @staticmethod
    def full_size_allocations(x, params, kind):
        """Full-size arrays allocated during a solve on top of those already
        live, from tracemalloc's peak, summed over the stretches between
        modules (a module and the trace record its plan yields)."""
        modules, *rest = solvers._SCHEMES[kind]
        count, base = 0, 0

        def close_stretch():
            nonlocal count, base
            count += (tracemalloc.get_traced_memory()[1] - base) // x.nbytes
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]

        def counted(*args, **kwargs):
            close_stretch()
            for out in modules(*args, **kwargs):
                yield out
                close_stretch()

        with mock.patch.dict(solvers._SCHEMES, {kind: (counted, *rest)}):
            tracemalloc.start()
            try:
                solve(x, params, kind)
            finally:
                tracemalloc.stop()
        return count

    @classmethod
    def counts_at_depths_2_and_8(cls, shape, kind, reg):
        x = np.random.default_rng(4).uniform(0.0, 1.0, shape)
        return [cls.full_size_allocations(x, UotParams.uniform(*shape[1:], k_iters=k,
                                                               alpha0=0.5, reg=reg), kind)
                for k in (2, 8)]

    @pytest.mark.parametrize("kind,reg", SOLVER_CONFIGS)
    def test_deeper_solve_allocates_no_more_full_size_buffers(self, kind, reg):
        counts = self.counts_at_depths_2_and_8((3, 100, 200), kind, reg)  # one chunk
        assert counts[1] <= counts[0] <= 6

    # One chunk. With fewer samples per item, such as 300 x 8 x 16, the
    # (K, items, D) and (K, items, N) plan sums the solve keeps outweigh one
    # full-size array at K = 8 in either layout.
    @pytest.mark.parametrize("kind,reg", SOLVER_CONFIGS)
    def test_feature_major_solve_allocates_no_more_full_size_buffers(self, kind, reg):
        assert solvers._feature_major(np.empty((100, 40, 30)))
        counts = self.counts_at_depths_2_and_8((100, 40, 30), kind, reg)
        assert counts[1] <= counts[0] <= 6


class TestBlasThreadCount:
    """Gradients and training do not depend on the BLAS thread count.

    BLAS dot products split long vectors over threads, and the split changes
    the order of the sum; one subprocess per thread count hashes the bytes.
    """

    SCRIPT = """
import hashlib
import numpy as np
from uotpool import (MaxThreshold, Regularizer, SolverKind, SyntheticTask, UotBadmmPooling,
                     UotParams, UotSinkhornPooling, solve_vjp, train_synthetic)
h = hashlib.sha256()
for kind, reg in [(SolverKind.SINKHORN, Regularizer.ENTROPIC),
                  (SolverKind.BADMM, Regularizer.ENTROPIC),
                  (SolverKind.BADMM, Regularizer.QUADRATIC)]:
    # 200 x 8 x 16 has 25,600 plan entries; 1000 x 8 x 16 has 16,000 items x N.
    for shape in [(200, 8, 16), (1000, 8, 16)]:
        rng = np.random.default_rng(shape[0])
        x = rng.uniform(0.0, 1.0, shape)
        _, pullback = solve_vjp(x, UotParams.uniform(8, 16, alpha0=0.3, reg=reg), kind)
        h.update(pullback(rng.standard_normal(shape)).tobytes())
    pooling = UotSinkhornPooling if kind is SolverKind.SINKHORN else UotBadmmPooling
    for n_bags in (200, 2000):
        task = SyntheticTask(n_bags, 16, 8, MaxThreshold(feature=3, threshold=0.9), seed=0)
        h.update(train_synthetic(task, pooling(UotParams.uniform(8, 16, reg=reg)),
                                 epochs=5).tobytes())
print(h.hexdigest())
"""

    def test_gradients_and_training_traces_match_under_one_and_two_threads(self):
        src = str(Path(solvers.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            runs.append(subprocess.Popen([sys.executable, "-c", self.SCRIPT], env=env,
                                         stdout=subprocess.PIPE, text=True))
        digests = [run.communicate(timeout=300)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert digests[0] == digests[1]


class TestSolveVjp:
    """The pullback against central differences of ``<plan_bar, plan>``."""

    # Fourth-order central differences with steps of 1e-4 of each weight;
    # two-point ones at 1e-5 already carry up to 3e-6 relative rounding
    # error where the gradient is small. Gradients are compared relative to
    # the larger of their own size and 1e-3 of sum |plan_bar * plan|: below
    # that, the differences' rounding (up to about 2e-10 of that sum here)
    # swamps the gradient. With one sample column the BADMM row projection
    # fixes the plan, and the exact gradient is 0.
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(SOLVER_CONFIGS),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 8),
        st.lists(st.integers(1, 3), max_size=1),
        st.integers(0, 2**32 - 1),
    )
    def test_pullback_matches_central_differences(self, config, k, d, n, batch, seed):
        kind, reg = config
        rng = np.random.default_rng(seed)
        weights = np.exp(rng.uniform(np.log(0.05), np.log(5.0), (4, k)))
        p0, q0 = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(n))
        x = rng.uniform(-3.0, 3.0, tuple(batch) + (d, n))
        plan_bar = rng.standard_normal(x.shape)
        if seed % 2:  # alpha0 in runs of two modules, which share a scaled cost
            weights[0] = np.repeat(weights[0, ::2], 2)[:k]

        def objective(w):
            return float((plan_bar * solve(x, UotParams(k, *w, p0, q0, reg), kind)[0]).sum())

        plan, pullback = solve_vjp(x, UotParams(k, *weights, p0, q0, reg), kind)
        np.testing.assert_array_equal(plan, solve(x, UotParams(k, *weights, p0, q0, reg), kind)[0])
        grad = pullback(plan_bar)
        fd = np.zeros_like(weights)
        for i, j in np.ndindex(weights.shape):
            h = np.zeros_like(weights)
            h[i, j] = 1e-4 * weights[i, j]
            fd[i, j] = (8.0 * (objective(weights + h) - objective(weights - h))
                        - (objective(weights + 2 * h) - objective(weights - 2 * h))) / (12 * h[i, j])
        assert grad.shape == (4, k)
        scale = max(np.abs(fd).max(), 1e-3 * np.abs(plan_bar * plan).sum())
        assert np.abs(grad - fd).max() <= 1e-6 * scale
        if kind is SolverKind.SINKHORN:
            np.testing.assert_array_equal(grad[3], 0.0)
        else:
            np.testing.assert_array_equal(grad[1:3], 0.0)

    def test_checks_input_like_solve(self):
        params = UotParams.uniform(3, 4)
        with pytest.raises(TypeError, match="SolverKind"):
            solve_vjp(np.zeros((3, 4)), params, "sinkhorn")
        with pytest.raises(ValueError, match="prior dimensions"):
            solve_vjp(np.zeros((4, 3)), params, SolverKind.BADMM)
        with pytest.raises(ValueError, match="entropic"):
            solve_vjp(np.zeros((3, 4)), UotParams.uniform(3, 4, reg=Regularizer.QUADRATIC),
                      SolverKind.SINKHORN)

    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_rejects_per_item_weights(self, kind):
        params = UotParams.uniform(3, 4, rho=np.ones((4, 2)))
        with pytest.raises(ValueError, match="per-item weights"):
            solve_vjp(np.zeros((2, 3, 4)), params, kind)
        spec = UotSinkhornPooling if kind is SolverKind.SINKHORN else UotBadmmPooling
        task = SyntheticTask(2, 4, 3, MaxThreshold(feature=0), seed=0)
        with pytest.raises(ValueError, match="per-item weights"):
            train_synthetic(task, spec(params), epochs=1)

    @pytest.mark.parametrize("kind", list(SolverKind))
    def test_pullback_rejects_mismatched_cotangent(self, kind):
        _, pullback = solve_vjp(np.zeros((2, 3, 4)), UotParams.uniform(3, 4), kind)
        with pytest.raises(ValueError, match="plan_bar"):
            pullback(np.zeros((3, 4)))
