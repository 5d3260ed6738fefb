import math

import numpy as np
import pytest

from uotpool import (
    AttentionParams,
    DegenerateRowError,
    MeanMaxGate,
    SolverKind,
    UotParams,
    attention_config,
    attention_pool,
    attention_weights,
    gated_mean_max_pool,
    hierarchical_uot_pool,
    max_config,
    max_pool,
    mean_config,
    mean_pool,
    mixed_pool,
    pool_with_plan,
    row_argmax,
    uot_pool,
)

X_SMALL = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


class TestReferencePoolings:
    def test_mean_example(self):
        np.testing.assert_allclose(mean_pool(X_SMALL), [2.0, 5.0])

    def test_max_example(self):
        np.testing.assert_allclose(max_pool(X_SMALL), [3.0, 6.0])

    def test_mixed_example(self):
        np.testing.assert_allclose(mixed_pool(X_SMALL, 0.7), [2.3, 5.3], atol=1e-15)
        np.testing.assert_allclose(mixed_pool(X_SMALL, 0.25), [2.75, 5.75], atol=1e-15)

    def test_mixed_endpoints(self):
        np.testing.assert_allclose(mixed_pool(X_SMALL, 1.0), mean_pool(X_SMALL))
        np.testing.assert_allclose(mixed_pool(X_SMALL, 0.0), max_pool(X_SMALL))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_mixed_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            mixed_pool(X_SMALL, bad)

    def test_argmax_tie_breaks_low(self):
        assert row_argmax(np.array([[2.0, 2.0]])) == 0
        np.testing.assert_array_equal(row_argmax(X_SMALL), [2, 2])

    def test_batched_shapes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        assert mean_pool(x).shape == (2, 3)
        assert max_pool(x).shape == (2, 3)
        assert mixed_pool(x, 0.5).shape == (2, 3)


class TestPoolWithPlan:
    def test_row_conditional_weighting(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        plan = np.array([[1.0, 1.0], [2.0, 6.0]])
        np.testing.assert_allclose(pool_with_plan(x, plan), [1.5, 3.75], atol=1e-15)

    def test_rank_one_plan_reduces_to_weighted_average(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, (4, 7))
        p0 = rng.dirichlet(np.ones(4))
        q0 = rng.dirichlet(np.ones(7))
        pooled = pool_with_plan(x, np.outer(p0, q0))
        np.testing.assert_allclose(pooled, x @ q0, atol=1e-12)

    def test_degenerate_plan_row_raises(self):
        plan = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateRowError):
            pool_with_plan(np.ones((2, 2)), plan)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pool_with_plan(np.ones((2, 3)), np.ones((3, 2)))


class TestAttention:
    def test_zero_scorer_reduces_to_mean(self):
        params = AttentionParams(v_mat=np.zeros((2, 2)), w_vec=np.zeros(2))
        np.testing.assert_allclose(attention_pool(X_SMALL, params),
                                   mean_pool(X_SMALL), atol=1e-15)

    def test_zero_mixer_reduces_to_mean(self):
        params = AttentionParams(v_mat=np.eye(2), w_vec=np.zeros(2))
        np.testing.assert_allclose(attention_pool(X_SMALL, params),
                                   mean_pool(X_SMALL), atol=1e-15)

    def test_scalar_oracle_chain(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0]])
        v = np.array([[1.0, 0.0], [0.0, -1.0]])
        w = np.array([1.0, 2.0])
        scores = [
            1.0 * math.tanh(0.0) + 2.0 * math.tanh(-2.0),
            1.0 * math.tanh(1.0) + 2.0 * math.tanh(-3.0),
        ]
        z = [math.exp(s) for s in scores]
        weights = [zi / sum(z) for zi in z]
        pooled = [sum(x[d, j] * weights[j] for j in range(2)) for d in range(2)]
        params = AttentionParams(v_mat=v, w_vec=w)
        np.testing.assert_allclose(attention_weights(x, params), weights, atol=1e-14)
        np.testing.assert_allclose(attention_pool(x, params), pooled, atol=1e-14)

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 1.0, (3, 6))
        params = AttentionParams(v_mat=rng.standard_normal((3, 3)),
                                 w_vec=rng.standard_normal(3))
        a = attention_weights(x, params)
        assert a.shape == (6,)
        assert np.all(a > 0)
        assert a.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            attention_weights(X_SMALL, AttentionParams(v_mat=np.zeros((3, 3)),
                                                       w_vec=np.zeros(2)))
        with pytest.raises(ValueError):
            attention_weights(X_SMALL, AttentionParams(v_mat=np.zeros((2, 2)),
                                                       w_vec=np.zeros(3)))


class TestGatedPooling:
    def test_neutral_gate_averages(self):
        gate = MeanMaxGate(u_vec=np.zeros(2))
        expected = 0.5 * mean_pool(X_SMALL) + 0.5 * max_pool(X_SMALL)
        np.testing.assert_allclose(gated_mean_max_pool(X_SMALL, gate), expected,
                                   atol=1e-15)

    def test_saturated_gate_selects_mean(self):
        gate = MeanMaxGate(u_vec=np.zeros(2), bias=40.0)
        np.testing.assert_allclose(gated_mean_max_pool(X_SMALL, gate),
                                   mean_pool(X_SMALL), atol=1e-12)

    def test_saturated_gate_selects_max(self):
        gate = MeanMaxGate(u_vec=np.zeros(2), bias=-40.0)
        np.testing.assert_allclose(gated_mean_max_pool(X_SMALL, gate),
                                   max_pool(X_SMALL), atol=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            gated_mean_max_pool(X_SMALL, MeanMaxGate(u_vec=np.zeros(3)))


class TestPermutationInvariance:
    def test_references_invariant_to_sample_order(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 1.0, (4, 9))
        perm = rng.permutation(9)
        att = AttentionParams(v_mat=rng.standard_normal((4, 4)),
                              w_vec=rng.standard_normal(4))
        gate = MeanMaxGate(u_vec=rng.standard_normal(4), bias=0.3)
        for pool in (mean_pool, max_pool,
                     lambda m: mixed_pool(m, 0.4),
                     lambda m: attention_pool(m, att),
                     lambda m: gated_mean_max_pool(m, gate)):
            np.testing.assert_allclose(pool(x[:, perm]), pool(x), atol=1e-12)

    @pytest.mark.parametrize("solver", [SolverKind.SINKHORN, SolverKind.BADMM])
    def test_transport_pooling_invariant_to_sample_order(self, solver):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, (4, 9))
        perm = rng.permutation(9)
        params = UotParams.uniform(4, 9, alpha0=0.1)
        pooled, _ = uot_pool(x, params, solver)
        pooled_perm, _ = uot_pool(x[:, perm], params, solver)
        np.testing.assert_allclose(pooled_perm, pooled, atol=1e-6)


class TestPresetConfigs:
    def test_mean_config_weights(self):
        p = mean_config(3, 5)
        assert p.k_iters == 32
        for arr in (p.alpha0, p.alpha1, p.alpha2, p.rho):
            np.testing.assert_array_equal(arr, 1e4)
        np.testing.assert_allclose(p.p0, 1.0 / 3.0)

    def test_max_config_weights(self):
        p = max_config(3, 5)
        np.testing.assert_array_equal(p.alpha0, 1e-2)
        np.testing.assert_array_equal(p.alpha1, 1e4)
        np.testing.assert_array_equal(p.alpha2, 1e-2)
        np.testing.assert_array_equal(p.rho, 1e-2)

    def test_attention_config_pins_column_prior(self):
        q0 = np.array([0.2, 0.3, 0.5])
        p = attention_config(4, q0)
        np.testing.assert_array_equal(p.q0, q0)
        np.testing.assert_allclose(p.p0, 0.25)
        np.testing.assert_array_equal(p.rho, 1e6)


class TestUotPool:
    def test_returns_diagnostics(self):
        x = np.random.default_rng(4).uniform(0.0, 1.0, (5, 10))
        pooled, diag = uot_pool(x, mean_config(5, 10))
        assert pooled.shape == (5,)
        assert not diag.has_nan
        np.testing.assert_allclose(pooled, mean_pool(x), atol=1e-4)

    def test_mean_regime_matches_mean(self):
        x = np.random.default_rng(5).uniform(0.0, 1.0, (5, 10))
        for solver in (SolverKind.SINKHORN, SolverKind.BADMM):
            pooled, _ = uot_pool(x, mean_config(5, 10), solver)
            np.testing.assert_allclose(pooled, mean_pool(x), atol=1e-3)

    def test_attention_regime_matches_attention_target(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0.0, 1.0, (5, 10))
        raw = rng.uniform(0.1, 1.0, 10)
        q0 = raw / raw.sum()
        pooled, _ = uot_pool(x, attention_config(5, q0))
        np.testing.assert_allclose(pooled, x @ q0, atol=1e-2)


class TestHierarchical:
    @pytest.mark.parametrize("omega", [0.1, 0.5, 0.9])
    def test_matches_mixed_pooling(self, omega):
        x = np.random.default_rng(7).uniform(0.0, 1.0, (5, 10))
        h = hierarchical_uot_pool(x, omega)
        m = mixed_pool(x, omega)
        assert np.abs(h - m).max() / np.abs(m).max() < 0.02

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_boundary_omega(self, bad):
        with pytest.raises(ValueError):
            hierarchical_uot_pool(X_SMALL, bad)

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            hierarchical_uot_pool(np.ones(4), 0.5)
