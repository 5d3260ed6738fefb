import warnings

import numpy as np
import pytest

import uotpool.learning
from uotpool import (
    MaxThreshold,
    MeanPooling,
    MeanThreshold,
    NonFiniteLossError,
    Regularizer,
    ReparamState,
    SolverKind,
    SyntheticTask,
    UotBadmmPooling,
    UotParams,
    UotSinkhornPooling,
    fd_gradient,
    generate_task_data,
    materialize_params,
    pool_with_plan,
    softplus,
    softplus_inverse,
    solve,
    train_synthetic,
    uot_pool,
)


def zero_state(k=2):
    return ReparamState(*(np.zeros(k) for _ in range(4)))


class TestReparamState:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            ReparamState(np.zeros(2), np.zeros(2), np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            ReparamState(np.zeros((2, 2)), np.zeros(4), np.zeros(4), np.zeros(4))

    def test_vector_round_trip_fixed(self):
        state = ReparamState(np.array([0.1, 0.2]), np.array([0.3, 0.4]),
                             np.array([0.5, 0.6]), np.array([0.7, 0.8]))
        vec = state.to_vector()
        np.testing.assert_array_equal(vec, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        back = state.from_vector(vec)
        np.testing.assert_array_equal(back.to_vector(), vec)

    def test_from_vector_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            zero_state(2).from_vector(np.zeros(7))


class TestMaterializeParams:
    def test_zero_state_gives_log_two_weights(self):
        x = np.random.default_rng(0).uniform(0.0, 1.0, (3, 4))
        params = materialize_params(zero_state(2), x)
        np.testing.assert_allclose(params.alpha0, np.log(2.0), atol=1e-15)
        np.testing.assert_allclose(params.rho, np.log(2.0), atol=1e-15)
        assert params.k_iters == 2

    def test_fixed_mode_uses_uniform_priors_of_input_shape(self):
        x = np.zeros((3, 7))
        params = materialize_params(zero_state(2), x)
        np.testing.assert_allclose(params.p0, 1.0 / 3.0)
        np.testing.assert_allclose(params.q0, 1.0 / 7.0)

    def test_reg_is_forwarded(self):
        x = np.zeros((2, 2))
        params = materialize_params(zero_state(1), x, reg=Regularizer.QUADRATIC)
        assert params.reg is Regularizer.QUADRATIC

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ValueError):
            materialize_params(zero_state(1), np.zeros(4))


class TestFdGradient:
    def test_constant_loss_has_zero_gradient(self):
        grad = fd_gradient(lambda s: 3.5, zero_state(2))
        np.testing.assert_array_equal(grad, np.zeros(8))

    def test_linear_loss_is_exact(self):
        c = np.arange(1.0, 9.0)

        def loss(s):
            return float(s.to_vector() @ c)

        grad = fd_gradient(loss, zero_state(2))
        np.testing.assert_allclose(grad, c, atol=1e-6)

    def test_quadratic_loss_recovers_gradient(self):
        state = ReparamState(np.array([0.3, -0.2]), np.zeros(2),
                             np.zeros(2), np.zeros(2))

        def loss(s):
            return float((s.beta0 ** 2).sum())

        grad = fd_gradient(loss, state)
        np.testing.assert_allclose(grad[:2], [0.6, -0.4], atol=1e-9)
        np.testing.assert_allclose(grad[2:], 0.0, atol=1e-9)

    def test_antisymmetric_under_negation(self):
        x = np.random.default_rng(3).uniform(0.0, 1.0, (3, 4))

        def loss(s):
            params = materialize_params(s, x)
            plan, _ = solve(x, params, SolverKind.SINKHORN)
            return float((pool_with_plan(x, plan) ** 2).sum())

        state = zero_state(2)
        forward = fd_gradient(loss, state)
        backward = fd_gradient(lambda s: -loss(s), state)
        np.testing.assert_array_equal(backward, -forward)

    def test_richardson_consistency_on_solver_loss(self):
        x = np.random.default_rng(4).uniform(0.0, 1.0, (3, 4))

        def loss(s):
            params = materialize_params(s, x)
            plan, _ = solve(x, params, SolverKind.SINKHORN)
            return float(pool_with_plan(x, plan).sum())

        state = zero_state(2)
        coarse = fd_gradient(loss, state, eps=1e-5)
        fine = fd_gradient(loss, state, eps=5e-6)
        assert np.abs(coarse - fine).max() < 1e-4

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda s: 0.0, zero_state(1), eps=0.0)

    def test_non_finite_probe_names_coordinate(self):
        def loss(s):
            if s.beta1[0] != 0.0:
                return float("nan")
            return 1.0

        with pytest.raises(ValueError, match="coordinate 2"):
            fd_gradient(loss, zero_state(2))

    def test_non_finite_at_state_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fd_gradient(lambda s: float("inf"), zero_state(1))


class TestSyntheticTasks:
    def test_max_rule_labels_hold_by_construction(self):
        task = SyntheticTask(n_bags=30, bag_size=8, dim=5,
                             rule=MaxThreshold(feature=2, threshold=0.9), seed=0)
        x, y = generate_task_data(task)
        assert x.shape == (30, 5, 8)
        np.testing.assert_array_equal(np.unique(y), [-1.0, 1.0])
        assert abs(y.sum()) <= 1
        peaks = x[:, 2, :].max(axis=-1)
        assert np.all(peaks[y > 0] > 0.9)
        assert np.all(peaks[y < 0] < 0.6 + 1e-12)

    def test_max_rule_positives_have_single_peak(self):
        task = SyntheticTask(n_bags=20, bag_size=8, dim=5,
                             rule=MaxThreshold(feature=2, threshold=0.9), seed=1)
        x, y = generate_task_data(task)
        rows = x[y > 0, 2, :]
        assert np.all((rows > 0.9).sum(axis=-1) == 1)

    def test_mean_rule_labels_hold_by_construction(self):
        task = SyntheticTask(n_bags=30, bag_size=8, dim=5,
                             rule=MeanThreshold(feature=1, threshold=0.5), seed=2)
        x, y = generate_task_data(task)
        means = x[:, 1, :].mean(axis=-1)
        assert np.all(means[y > 0] > 0.5)
        assert np.all(means[y < 0] < 0.5)

    def test_deterministic(self):
        task = SyntheticTask(n_bags=10, bag_size=4, dim=3,
                             rule=MaxThreshold(feature=0, threshold=0.9), seed=3)
        x1, y1 = generate_task_data(task)
        x2, y2 = generate_task_data(task)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_rejects_bad_rule_settings(self):
        with pytest.raises(ValueError):
            generate_task_data(SyntheticTask(4, 4, 3, MaxThreshold(feature=5), seed=0))
        with pytest.raises(ValueError):
            generate_task_data(SyntheticTask(4, 4, 3,
                                             MaxThreshold(feature=0, threshold=1.5),
                                             seed=0))


MINI_TASK = SyntheticTask(n_bags=8, bag_size=4, dim=3,
                          rule=MaxThreshold(feature=1, threshold=0.9), seed=3)
MINI_SPEC = UotSinkhornPooling(UotParams.uniform(3, 4, k_iters=2))


def fd_train(task, spec, epochs, lr, eps=1e-5):
    """Loss trace of ``train_synthetic``'s algorithm on central differences.

    Softplus solver weights and a linear readout of the pooled features,
    standardized by the uniform [0, 1] mean 1/2 and standard deviation
    1/sqrt(12); mean logistic loss; full-batch steps on a central-difference
    gradient, each probe a full :func:`solve`.
    """
    x, y = generate_task_data(task)
    base = spec.params
    k, d = base.k_iters, task.dim
    vec = np.concatenate([softplus_inverse(w) for w in (base.alpha0, base.alpha1, base.alpha2,
                                                        base.rho)] + [np.zeros(d + 1)])

    def loss(v):
        weights = softplus(v[: 4 * k]).reshape(4, k)
        plan, _ = solve(x, UotParams(k, *weights, base.p0, base.q0, base.reg), spec.solver)
        logits = ((pool_with_plan(x, plan) - 0.5) * np.sqrt(12.0)) @ v[4 * k: 4 * k + d] + v[-1]
        return float(np.logaddexp(0.0, -y * logits).mean())

    trace = [loss(vec)]
    for _ in range(epochs):
        grad = np.zeros_like(vec)
        for j in range(vec.size):
            step = np.zeros_like(vec)
            step[j] = eps
            grad[j] = (loss(vec + step) - loss(vec - step)) / (2.0 * eps)
        vec = vec - lr * grad
        trace.append(loss(vec))
    return np.asarray(trace)


class TestTrainSynthetic:
    def test_initial_loss_is_log_two(self):
        trace = train_synthetic(MINI_TASK, MINI_SPEC, epochs=0, lr=1.0)
        assert trace.shape == (1,)
        assert trace[0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_zero_learning_rate_is_flat(self):
        trace = train_synthetic(MINI_TASK, MINI_SPEC, epochs=3, lr=0.0)
        assert trace.shape == (4,)
        np.testing.assert_array_equal(trace, trace[0])

    def test_loss_decreases_on_mini_task(self):
        trace = train_synthetic(MINI_TASK, MINI_SPEC, epochs=3, lr=3.0)
        assert trace[-1] < trace[0]
        assert trace.shape == (4,)

    def test_deterministic(self):
        t1 = train_synthetic(MINI_TASK, MINI_SPEC, epochs=2, lr=1.0)
        t2 = train_synthetic(MINI_TASK, MINI_SPEC, epochs=2, lr=1.0)
        np.testing.assert_array_equal(t1, t2)

    def test_rejects_non_transport_spec(self):
        with pytest.raises(TypeError):
            train_synthetic(MINI_TASK, MeanPooling(), epochs=1, lr=1.0)

    def test_rejects_mismatched_prior_dims(self):
        bad_spec = UotSinkhornPooling(UotParams.uniform(4, 4, k_iters=2))
        with pytest.raises(ValueError, match="task dims"):
            train_synthetic(MINI_TASK, bad_spec, epochs=1, lr=1.0)

    def test_sinkhorn_spec_rejects_quadratic(self):
        spec = UotSinkhornPooling(UotParams.uniform(3, 4, k_iters=2,
                                                    reg=Regularizer.QUADRATIC))
        with pytest.raises(ValueError, match="entropic"):
            train_synthetic(MINI_TASK, spec, epochs=1, lr=1.0)

    @pytest.mark.parametrize("spec", [
        MINI_SPEC,
        UotBadmmPooling(UotParams.uniform(3, 4, k_iters=2)),
        UotBadmmPooling(UotParams.uniform(3, 4, k_iters=2, reg=Regularizer.QUADRATIC)),
    ], ids=["sinkhorn", "badmm_entropic", "badmm_quadratic"])
    def test_matches_central_difference_training(self, spec):
        trace = train_synthetic(MINI_TASK, spec, epochs=3, lr=3.0)
        np.testing.assert_allclose(trace, fd_train(MINI_TASK, spec, epochs=3, lr=3.0),
                                   rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("epochs,lr", [(-3, 1.0), (2.7, 1.0), (1, float("nan")),
                                           (1, float("inf"))])
    def test_rejects_bad_arguments_before_solving(self, epochs, lr, monkeypatch):
        monkeypatch.setattr(uotpool.learning, "generate_task_data", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="epochs|lr"):
                train_synthetic(MINI_TASK, MINI_SPEC, epochs=epochs, lr=lr)

    def test_non_finite_gradient_aborts_with_partial_trace(self, monkeypatch):
        real = uotpool.learning.solve_vjp

        def nan_pullback(x, params, kind):
            plan, _ = real(x, params, kind)
            return plan, lambda plan_bar: np.full((4, params.k_iters), np.nan)

        initial = train_synthetic(MINI_TASK, MINI_SPEC, epochs=0, lr=1.0)
        monkeypatch.setattr(uotpool.learning, "solve_vjp", nan_pullback)
        with pytest.raises(NonFiniteLossError) as info:
            train_synthetic(MINI_TASK, MINI_SPEC, epochs=3, lr=1.0)
        assert info.value.epoch == 1
        np.testing.assert_array_equal(info.value.trace, initial)

    def test_abort_error_carries_partial_trace(self):
        err = NonFiniteLossError(3, np.array([0.7, 0.6, 0.5]))
        assert err.epoch == 3
        np.testing.assert_array_equal(err.trace, [0.7, 0.6, 0.5])
        assert "epoch 3" in str(err)


class TestPermutationInvarianceAtInit:
    @pytest.mark.parametrize("mode_name", ["fixed"])
    def test_pooled_output_invariant(self, mode_name):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, (3, 6))
        perm = rng.permutation(6)
        state = zero_state(2)
        pooled, _ = uot_pool(x, materialize_params(state, x), SolverKind.SINKHORN)
        pooled_perm, _ = uot_pool(x[:, perm], materialize_params(state, x[:, perm]),
                                  SolverKind.SINKHORN)
        np.testing.assert_allclose(pooled_perm, pooled, atol=1e-6)
