"""Unconstrained reparametrization of the solver weights, a finite-difference
gradient over it, and a small synthetic-task trainer.

Solver weights must stay strictly positive, so learnable weights live in
an unconstrained space: ``alpha_i = softplus(beta_i)`` and
``rho = softplus(tau)``. The trainer back-propagates through the unrolled
solver: every module is a smooth map, and :func:`solve_vjp` differentiates
the modules in reverse. :func:`fd_gradient` is a central-difference
gradient over the same ``beta0 | beta1 | beta2 | tau`` layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import expit, softplus, softplus_inverse
from .pooling import UotBadmmPooling, UotSinkhornPooling
from .solvers import Regularizer, UotParams, pool_with_plan, solve_vjp

__all__ = [
    "MaxThreshold",
    "MeanThreshold",
    "NonFiniteLossError",
    "ReparamState",
    "SyntheticTask",
    "fd_gradient",
    "generate_task_data",
    "materialize_params",
    "train_synthetic",
]


@dataclass(frozen=True)
class ReparamState:
    """Unconstrained solver weights: four length-K vectors.

    The flat-vector layout used by :meth:`to_vector`, :meth:`from_vector`
    and :func:`fd_gradient` is ``beta0 | beta1 | beta2 | tau``.
    """

    beta0: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.beta0, dtype=np.float64).shape
        for name in ("beta0", "beta1", "beta2", "tau"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.ndim != 1 or v.shape != k:
                raise ValueError(f"{name} must be a 1-D vector of length {k[0] if k else 0}")
            object.__setattr__(self, name, v)

    @property
    def k_iters(self) -> int:
        return self.beta0.shape[0]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.beta0, self.beta1, self.beta2, self.tau])

    def from_vector(self, vec: np.ndarray) -> "ReparamState":
        """Rebuild a state with this one's length from a flat vector."""
        vec = np.asarray(vec, dtype=np.float64)
        expected = 4 * self.k_iters
        if vec.shape != (expected,):
            raise ValueError(f"expected a flat vector of length {expected}, got shape {vec.shape}")
        return ReparamState(*vec.reshape(4, self.k_iters))


def materialize_params(
    state: ReparamState,
    x: np.ndarray,
    reg: Regularizer = Regularizer.ENTROPIC,
) -> UotParams:
    """Turn an unconstrained state into strictly positive solver weights,
    with uniform priors over the rows and columns of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"input must be a 2-D matrix, got {x.ndim} dimensions")
    return UotParams.uniform(
        *x.shape,
        k_iters=state.k_iters,
        alpha0=softplus(state.beta0),
        alpha1=softplus(state.beta1),
        alpha2=softplus(state.beta2),
        rho=softplus(state.tau),
        reg=reg,
    )


def fd_gradient(
    loss: Callable[[ReparamState], float],
    state: ReparamState,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of ``loss`` with respect to the flat state vector.

    The entry order matches :meth:`ReparamState.to_vector`. Every probe is
    an independent loss evaluation, so the result is deterministic for a
    pure loss. Raises if any probe returns a non-finite value, naming the
    coordinate.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    base = float(loss(state))
    if not np.isfinite(base):
        raise ValueError("loss is non-finite at the given state")
    vec = state.to_vector()
    grad = np.zeros_like(vec)
    for j in range(vec.size):
        probe = vec.copy()
        probe[j] = vec[j] + eps
        f_plus = float(loss(state.from_vector(probe)))
        probe[j] = vec[j] - eps
        f_minus = float(loss(state.from_vector(probe)))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"loss returned a non-finite value at a probe of coordinate {j}")
        grad[j] = (f_plus - f_minus) / (2.0 * eps)
    return grad


# ---- synthetic bag-classification tasks ----

@dataclass(frozen=True)
class MaxThreshold:
    """Positive label iff the per-bag maximum of one feature exceeds a threshold."""

    feature: int
    threshold: float = 0.9


@dataclass(frozen=True)
class MeanThreshold:
    """Positive label iff the per-bag mean of one feature exceeds a threshold."""

    feature: int
    threshold: float = 0.5


@dataclass(frozen=True)
class SyntheticTask:
    n_bags: int
    bag_size: int
    dim: int
    rule: MaxThreshold | MeanThreshold
    seed: int = 0


def generate_task_data(task: SyntheticTask) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic bags with labels that satisfy the rule by construction.

    Returns ``(x, y)`` with ``x`` of shape (n_bags, dim, bag_size) and
    labels in {-1, +1}, alternating so the classes are balanced. Bags are
    uniform noise on [0, 1] except for the rule's feature row, which is
    rewritten with a margin: for a max rule, positive bags get one entry
    well above the threshold and all other entries below it, while
    negative bags stay below two thirds of the threshold; for a mean rule,
    the whole feature row is shifted above or below the threshold.
    """
    rng = np.random.default_rng(task.seed)
    b, d, n = task.n_bags, task.dim, task.bag_size
    j = task.rule.feature
    if not 0 <= j < d:
        raise ValueError(f"rule feature {j} out of range for dim {d}")
    tau = float(task.rule.threshold)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"rule threshold must lie in (0, 1), got {tau}")
    x = rng.uniform(0.0, 1.0, (b, d, n))
    y = np.where(np.arange(b) % 2 == 0, 1.0, -1.0)
    if isinstance(task.rule, MaxThreshold):
        pos_low = tau + 0.5 * (1.0 - tau)
        neg_cap = 2.0 * tau / 3.0
        # Each bag's draws come in the order of a per-bag loop; the masked
        # write below walks the mask bag by bag, so each lands where that
        # loop would put it. A positive bag's peak is not redrawn.
        row = x[:, j, :]
        over = row >= np.where(y > 0, tau, neg_cap)[:, None]
        counts = over.sum(axis=-1).tolist()
        hits, peaks, draws = [], [], []
        for i in range(b):
            if i % 2 == 0:
                hits.append(rng.integers(n))
                peaks.append(rng.uniform(pos_low, 1.0))
                draws.append(rng.uniform(0.0, tau, counts[i] - over.item(i, hits[-1])))
            else:
                draws.append(rng.uniform(0.0, neg_cap, counts[i]))
        pos = np.arange(0, b, 2)
        over[pos, hits] = False
        row[pos, hits] = peaks
        row[over] = np.concatenate([np.empty(0), *draws])  # also with no bags
    else:
        for i in range(b):
            if y[i] > 0:
                x[i, j, :] = tau + (1.0 - tau) * rng.uniform(0.1, 1.0, n)
            else:
                x[i, j, :] = tau * rng.uniform(0.0, 0.9, n)
    return x, y


class NonFiniteLossError(RuntimeError):
    """Training aborted because the loss left the finite range.

    Attributes:
        trace: per-epoch losses recorded before the abort.
    """

    def __init__(self, epoch: int, trace: np.ndarray):
        self.epoch = int(epoch)
        self.trace = np.asarray(trace, dtype=np.float64)
        super().__init__(f"loss became non-finite at epoch {self.epoch}")


# Pooled features inherit the input's uniform [0, 1] scale, so the readout
# standardizes them with that distribution's mean 1/2 and std 1/sqrt(12).
_READOUT_CENTER = 0.5
_READOUT_SCALE = float(np.sqrt(12.0))


def train_synthetic(
    task: SyntheticTask,
    spec: UotSinkhornPooling | UotBadmmPooling,
    epochs: int = 30,
    lr: float = 3.0,
) -> np.ndarray:
    """Jointly train solver weights and a linear readout on a synthetic task.

    The loss is the mean logistic loss of ``w . standardized(pooled) + c``
    against the bag labels. All parameters (the unconstrained solver
    weights and the readout) move by plain gradient descent, one
    full-batch step per epoch. The gradient is exact reverse mode: the
    readout and pooling adjoints feed the pullback of :func:`solve_vjp`,
    so a step costs one forward and one backward pass through the
    unrolled solve. Returns the loss trace of length ``epochs + 1``,
    starting with the initial loss; raises :class:`NonFiniteLossError` if
    the loss or its gradient leaves the finite range. The pooling's weights
    must be shared ``(k_iters,)`` vectors, not per-item ones.
    """
    if not isinstance(spec, (UotSinkhornPooling, UotBadmmPooling)):
        raise TypeError("training requires a transport pooling specification")
    if not (float(epochs).is_integer() and epochs >= 0):
        raise ValueError(f"epochs must be a nonnegative integer, got {epochs!r}")
    if not np.isfinite(lr):
        raise ValueError(f"lr must be finite, got {lr!r}")
    base = spec.params
    if base.alpha0.ndim > 1:
        raise ValueError(f"training needs weights of shape ({base.k_iters},) shared by all bags, "
                         f"got per-item weights of shape {base.alpha0.shape}")
    d, n = task.dim, task.bag_size
    if base.p0.shape[0] != d or base.q0.shape[0] != n:
        raise ValueError(
            f"pooling priors sized ({base.p0.shape[0]}, {base.q0.shape[0]}) do not match "
            f"task dims ({d}, {n})"
        )
    x, y = generate_task_data(task)
    k = base.k_iters

    theta0 = [softplus_inverse(w) for w in (base.alpha0, base.alpha1, base.alpha2, base.rho)]
    vec = np.concatenate(theta0 + [np.zeros(d + 1)])

    def loss_and_gradient(v: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
        weights = softplus(v[: 4 * k]).reshape(4, k)
        params = UotParams(
            k_iters=k,
            alpha0=weights[0], alpha1=weights[1], alpha2=weights[2], rho=weights[3],
            p0=base.p0, q0=base.q0, reg=base.reg,
        )
        plan, pullback = solve_vjp(x, params, spec.solver)
        pooled, mass = pool_with_plan(x, plan), plan.sum(axis=-1)
        features = (pooled - _READOUT_CENTER) * _READOUT_SCALE
        logits = features @ v[4 * k: 4 * k + d] + v[-1]

        # Holds the row masses, not the plan, until the step is taken.
        def gradient() -> np.ndarray:
            logits_bar = -y * expit(-y * logits) / y.size
            pooled_bar = np.outer(logits_bar, v[4 * k: 4 * k + d] * _READOUT_SCALE)
            plan_bar = (pooled_bar / mass)[..., None] * (x - pooled[..., None])
            weights_bar = pullback(plan_bar) * expit(v[: 4 * k].reshape(4, k))
            return np.concatenate([weights_bar.ravel(), features.T @ logits_bar, [logits_bar.sum()]])

        with np.errstate(invalid="ignore"):  # a NaN plan's NaN loss aborts the caller
            return float(np.logaddexp(0.0, -y * logits).mean()), gradient

    current, gradient = loss_and_gradient(vec)
    trace = [current]
    if not np.isfinite(current):
        raise NonFiniteLossError(0, np.array([]))
    for epoch in range(int(epochs)):
        # A divergent step can underflow a softplus weight to exactly zero,
        # which the parameter validation rejects; report that the same way
        # as a NaN loss so callers see one abort signal.
        try:
            if lr != 0.0:
                grad = gradient()
                if not np.isfinite(grad).all():
                    raise NonFiniteLossError(epoch + 1, np.asarray(trace))
                vec = vec - lr * grad
            current, gradient = loss_and_gradient(vec)
        except ValueError as exc:
            raise NonFiniteLossError(epoch + 1, np.asarray(trace)) from exc
        if not np.isfinite(current):
            raise NonFiniteLossError(epoch + 1, np.asarray(trace))
        trace.append(current)
    return np.asarray(trace)
