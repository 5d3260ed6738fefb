"""Pooling operators built on transport plans, plus the classical poolings
they reproduce at extreme weight settings.

A pooled vector is always a length-D reduction of a (D, N) input along its
sample axis. The transport-based operator :func:`uot_pool` solves for a
plan and averages each feature row under the plan's row-conditional
weights; with large uniform weights it matches mean pooling, with a small
smoothing weight and a large row-marginal weight it approaches max
pooling, and with a target sample distribution ``q0`` it matches attention
pooling with those weights. :func:`hierarchical_uot_pool` composes three
such solves to reproduce the mixed mean-max pooling family.

All reference poolings broadcast over leading batch axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .numerics import expit, softmax
from .solvers import SolverDiagnostics, SolverKind, UotParams, pool_with_plan, solve

__all__ = [
    "AttentionParams",
    "MeanMaxGate",
    "UotBadmmPooling",
    "UotSinkhornPooling",
    "attention_config",
    "attention_pool",
    "attention_weights",
    "gated_mean_max_pool",
    "hierarchical_uot_pool",
    "max_config",
    "max_pool",
    "mean_config",
    "mean_pool",
    "mixed_pool",
    "row_argmax",
    "uot_pool",
]


# ---- reference poolings ----

def mean_pool(x: np.ndarray) -> np.ndarray:
    """Row means."""
    return np.asarray(x, dtype=np.float64).mean(axis=-1)


def max_pool(x: np.ndarray) -> np.ndarray:
    """Row maxima."""
    return np.asarray(x, dtype=np.float64).max(axis=-1)


def row_argmax(x: np.ndarray) -> np.ndarray:
    """Column index of each row maximum; ties break to the lowest index."""
    return np.argmax(np.asarray(x, dtype=np.float64), axis=-1)


@dataclass(frozen=True)
class AttentionParams:
    """Weights of the attention scorer.

    ``v_mat`` is D x D, ``w_vec`` length D; sample weights are
    ``softmax(w_vec . tanh(v_mat @ x))`` over columns.
    """

    v_mat: np.ndarray
    w_vec: np.ndarray


def _check_attention(x: np.ndarray, params: AttentionParams) -> tuple[np.ndarray, np.ndarray]:
    d = x.shape[-2]
    v = np.asarray(params.v_mat, dtype=np.float64)
    w = np.asarray(params.w_vec, dtype=np.float64)
    if v.shape != (d, d):
        raise ValueError(f"v_mat must be ({d}, {d}) for a {d}-row input, got {v.shape}")
    if w.shape != (d,):
        raise ValueError(f"w_vec must have length {d}, got shape {w.shape}")
    return v, w


def attention_weights(x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Softmax sample weights from a tanh scorer; a simplex vector of length N."""
    x = np.asarray(x, dtype=np.float64)
    v, w = _check_attention(x, params)
    scores = w @ np.tanh(v @ x)
    return softmax(scores)


def attention_pool(x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Weighted column average ``x @ attention_weights(x)``."""
    x = np.asarray(x, dtype=np.float64)
    a = attention_weights(x, params)
    return (x * a[..., None, :]).sum(axis=-1)


def mixed_pool(x: np.ndarray, omega: float) -> np.ndarray:
    """Convex combination ``omega * mean + (1 - omega) * max``."""
    omega = float(omega)
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    return omega * mean_pool(x) + (1.0 - omega) * max_pool(x)


@dataclass(frozen=True)
class MeanMaxGate:
    """Scalar sigmoid gate on pooled features: ``sigmoid(u_vec . mean + bias)``."""

    u_vec: np.ndarray
    bias: float = 0.0


def gated_mean_max_pool(x: np.ndarray, gate: MeanMaxGate) -> np.ndarray:
    """Mean-max mixture whose weight is a sigmoid of the mean-pooled input.

    Permutation-invariant because the gate only sees the (invariant) mean.
    """
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(gate.u_vec, dtype=np.float64)
    if u.shape != x.shape[-2:-1]:
        raise ValueError(f"gate u_vec must have length {x.shape[-2]}, got shape {u.shape}")
    m = mean_pool(x)
    g = expit((m * u).sum(axis=-1) + float(gate.bias))
    return g[..., None] * m + (1.0 - g)[..., None] * max_pool(x)


# ---- transport poolings ----

def uot_pool(
    x: np.ndarray,
    params: UotParams,
    solver: SolverKind = SolverKind.SINKHORN,
) -> tuple[np.ndarray, SolverDiagnostics]:
    """Solve for a transport plan and pool with it.

    ``x`` is one (D, N) matrix or a batch of them, as in :func:`solve`.
    Returns the pooled D-vector(s) along with the solver diagnostics. A
    plan row that lost all mass raises the degenerate-row error rather than
    silently producing zeros.
    """
    plan, diag = solve(x, params, solver)
    return pool_with_plan(x, plan), diag


# Finite stand-ins for the limiting weight settings: "very large" weights
# are 1e4 and "very small" ones 1e-2 throughout.
_LARGE = 1e4
_SMALL = 1e-2


def mean_config(d: int, n: int, k_iters: int = 32) -> UotParams:
    """Weights that drive the plan to the uniform product (mean pooling)."""
    return UotParams.uniform(
        d, n, k_iters=k_iters, alpha0=_LARGE, alpha1=_LARGE, alpha2=_LARGE, rho=_LARGE,
    )


def max_config(d: int, n: int, k_iters: int = 32) -> UotParams:
    """Weights that concentrate each row's mass on its maximum (max pooling).

    The column prior is uniform but effectively unconstrained because its
    weight is small.
    """
    return UotParams.uniform(
        d, n, k_iters=k_iters, alpha0=_SMALL, alpha1=_LARGE, alpha2=_SMALL, rho=_SMALL,
    )


def attention_config(d: int, q0: np.ndarray, k_iters: int = 32) -> UotParams:
    """Weights that pin the column marginal to ``q0`` (attention pooling)."""
    q0 = np.asarray(q0, dtype=np.float64)
    return UotParams.constant(
        np.full(d, 1.0 / d), q0,
        k_iters=k_iters, alpha0=_LARGE, alpha1=_LARGE, alpha2=_LARGE, rho=1e6,
    )


def hierarchical_uot_pool(
    x: np.ndarray,
    omega: float,
    solver: SolverKind = SolverKind.SINKHORN,
    k_iters: int = 32,
) -> np.ndarray:
    """Two-level pooling reproducing the mixed mean-max family.

    Pools ``x`` once with the mean configuration and once with the max
    configuration, stacks the two results into a (D, 2) matrix, and pools
    that with an attention configuration whose column prior is
    ``[omega, 1 - omega]``.
    """
    omega = float(omega)
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must lie strictly inside (0, 1), got {omega}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"input must be a 2-D matrix, got {x.ndim} dimensions")
    d, n = x.shape
    stage_mean, _ = uot_pool(x, mean_config(d, n, k_iters), solver)
    stage_max, _ = uot_pool(x, max_config(d, n, k_iters), solver)
    stacked = np.stack([stage_mean, stage_max], axis=-1)
    params = attention_config(d, np.array([omega, 1.0 - omega]), k_iters)
    pooled, _ = uot_pool(stacked, params, solver)
    return pooled


# ---- transport pooling specifications ----

@dataclass(frozen=True)
class UotSinkhornPooling:
    params: UotParams
    solver: ClassVar[SolverKind] = SolverKind.SINKHORN


@dataclass(frozen=True)
class UotBadmmPooling:
    params: UotParams
    solver: ClassVar[SolverKind] = SolverKind.BADMM
