"""Unrolled solvers for the regularized unbalanced optimal transport problem.

The problem solved here, for a cost-like input matrix ``X`` (features x
samples) and prior marginals ``p0`` (over the D feature dimensions) and
``q0`` (over the N samples), is

    minimize_{P >= 0}  <-X, P> + a0*R(P) + a1*KL(P 1_N | p0) + a2*KL(P^T 1_D | q0)

with ``R`` either the entropic regularizer <P, log P - 1> or the quadratic
regularizer <P, P>, and KL the generalized (unnormalized) divergence. Two
fixed-depth iterative schemes are provided, each executing exactly
``k_iters`` modules with per-module weights:

* ``SolverKind.SINKHORN`` -- alternating damped dual updates on a
  log-domain kernel anchored at the prior product ``p0 q0^T`` (entropic
  only);
* ``SolverKind.BADMM`` -- a Bregman ADMM splitting with auxiliary plan
  ``S`` and relaxed marginals ``mu``, ``eta``, all updates in the log
  domain (entropic or quadratic). The marginals are inert: each projection
  onto them keeps them at the priors and their duals at rounding level, so
  the weights ``a1`` and ``a2`` reach this scheme only through the
  objective.

Solvers never raise on numerical blow-up: overflow and NaN propagate to the
returned plan and are reported through :class:`SolverDiagnostics.has_nan`.
:func:`solve` is the one checked entry point, for one (D, N) matrix or a
batch of shape (..., D, N), and :func:`solve_vjp` adds reverse-mode
gradients. The module-level step functions broadcast over leading batch
axes. The solve loop does not call them: it runs a lean version of the
same updates, and the step functions are the reference it is tested
against.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .numerics import logsumexp_cols, logsumexp_rows, validate_simplex

__all__ = [
    "BadmmState",
    "Regularizer",
    "SinkhornState",
    "SolverDiagnostics",
    "SolverKind",
    "UotParams",
    "badmm_auxiliary_update",
    "badmm_dual_update",
    "badmm_init",
    "badmm_primal_update",
    "sinkhorn_init",
    "sinkhorn_step",
    "solve",
    "solve_vjp",
    "uot_objective",
]


class Regularizer(Enum):
    """Smoothing term applied to the transport plan."""

    ENTROPIC = "entropic"
    QUADRATIC = "quadratic"


class SolverKind(Enum):
    """Which unrolled scheme computes the plan."""

    SINKHORN = "sinkhorn"
    BADMM = "badmm"


@dataclass(frozen=True)
class UotParams:
    """Parameter bundle for one unrolled solve.

    ``alpha0``, ``alpha1``, ``alpha2`` and ``rho`` are per-module weight
    vectors of length ``k_iters`` (``rho`` is only consumed by the BADMM
    scheme). ``p0`` and ``q0`` are probability vectors over the feature and
    sample axes respectively; their lengths fix the (D, N) shape the solve
    expects.
    """

    k_iters: int
    alpha0: np.ndarray
    alpha1: np.ndarray
    alpha2: np.ndarray
    rho: np.ndarray
    p0: np.ndarray
    q0: np.ndarray
    reg: Regularizer = Regularizer.ENTROPIC

    def __post_init__(self):
        k = self.k_iters
        if not (isinstance(k, numbers.Real) and float(k).is_integer() and k >= 1):
            raise ValueError(f"k_iters must be a positive integer, got {k!r}")
        k = int(k)
        object.__setattr__(self, "k_iters", k)
        for name in ("alpha0", "alpha1", "alpha2", "rho"):
            w = np.asarray(getattr(self, name), dtype=np.float64)
            if w.ndim == 0:
                w = np.full(k, float(w))
            if w.shape != (k,):
                raise ValueError(f"{name} must be scalar or length {k}, got shape {w.shape}")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError(f"{name} entries must be finite and strictly positive")
            w.flags.writeable = False
            object.__setattr__(self, name, w)
        for name in ("p0", "q0"):
            v = validate_simplex(getattr(self, name), name).copy()
            if np.any(v <= 0):
                raise ValueError(f"{name} entries must be strictly positive")
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @classmethod
    def constant(
        cls,
        p0: np.ndarray,
        q0: np.ndarray,
        *,
        k_iters: int = 4,
        alpha0: float | np.ndarray = 1.0,
        alpha1: float | np.ndarray = 1.0,
        alpha2: float | np.ndarray = 1.0,
        rho: float | np.ndarray = 1.0,
        reg: Regularizer = Regularizer.ENTROPIC,
    ) -> "UotParams":
        """Build a parameter bundle, broadcasting scalar weights to all modules."""
        return cls(
            k_iters=k_iters,
            alpha0=np.asarray(alpha0, dtype=np.float64),
            alpha1=np.asarray(alpha1, dtype=np.float64),
            alpha2=np.asarray(alpha2, dtype=np.float64),
            rho=np.asarray(rho, dtype=np.float64),
            p0=p0,
            q0=q0,
            reg=reg,
        )

    @classmethod
    def uniform(
        cls,
        d: int,
        n: int,
        *,
        k_iters: int = 4,
        alpha0: float | np.ndarray = 1.0,
        alpha1: float | np.ndarray = 1.0,
        alpha2: float | np.ndarray = 1.0,
        rho: float | np.ndarray = 1.0,
        reg: Regularizer = Regularizer.ENTROPIC,
    ) -> "UotParams":
        """Constant weights with uniform priors over ``d`` features and ``n`` samples."""
        return cls.constant(
            np.full(d, 1.0 / d),
            np.full(n, 1.0 / n),
            k_iters=k_iters,
            alpha0=alpha0,
            alpha1=alpha1,
            alpha2=alpha2,
            rho=rho,
            reg=reg,
        )


@dataclass
class SolverDiagnostics:
    """Health report for one solve.

    ``objective_trace`` holds the objective value after each of the
    ``k_iters`` modules, evaluated with that module's weights. ``has_nan``
    is set when the final plan or any trace entry is NaN or infinite. For a
    batched :func:`solve` the scalar fields are totals over the items.
    """

    has_nan: bool
    total_mass: float
    objective_trace: np.ndarray
    marginal_gap_row: float
    marginal_gap_col: float


@dataclass
class SinkhornState:
    """Dual variables ``a`` (length D), ``b`` (length N) and the log-domain
    kernel ``y`` they induce. Freshly initialized states carry ``a = b = 0``
    and ``y`` equal to the scaled cost ``X / alpha0[0]``; each step rebuilds
    ``y`` from the duals before using it. The solve loop keeps only the
    duals; this state and :func:`sinkhorn_step` are its reference."""

    a: np.ndarray
    b: np.ndarray
    y: np.ndarray


@dataclass
class BadmmState:
    """Log-domain primal plan, auxiliary copies and scaled dual variables."""

    log_p: np.ndarray
    log_s: np.ndarray
    log_mu: np.ndarray
    log_eta: np.ndarray
    z_mat: np.ndarray
    z1: np.ndarray
    z2: np.ndarray


def _kernel(
    x: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    alpha0_k: float,
    log_p0: np.ndarray,
    log_q0: np.ndarray,
) -> np.ndarray:
    """Log-domain kernel: scaled cost plus prior-anchored duals on both axes."""
    return x / alpha0_k + (log_p0 + a)[..., :, None] + (log_q0 + b)[..., None, :]


def sinkhorn_init(x: np.ndarray, params: UotParams) -> SinkhornState:
    """Zero duals and the scaled cost as the initial kernel."""
    x = np.asarray(x, dtype=np.float64)
    a = np.zeros(x.shape[:-1])
    b = np.zeros(x.shape[:-2] + x.shape[-1:])
    with np.errstate(all="ignore"):
        y = x / float(params.alpha0[0])
    return SinkhornState(a=a, b=b, y=y)


def sinkhorn_step(
    state: SinkhornState,
    x: np.ndarray,
    alpha0_k: float,
    alpha1_k: float,
    alpha2_k: float,
    p0: np.ndarray,
    q0: np.ndarray,
) -> SinkhornState:
    """One module of damped alternating dual updates.

    The row dual moves toward the value that matches the row marginal to
    ``p0``, damped by ``alpha1 / (alpha0 + alpha1)``; when ``alpha1``
    dominates ``alpha0`` a single half step pins the row marginal to ``p0``
    exactly. The column dual follows with the freshly rebuilt kernel and
    damping ``alpha2 / (alpha0 + alpha2)``.
    """
    g1 = alpha1_k / (alpha0_k + alpha1_k)
    g2 = alpha2_k / (alpha0_k + alpha2_k)
    log_p0 = np.log(p0)
    log_q0 = np.log(q0)
    a, b = state.a, state.b
    with np.errstate(all="ignore"):
        y = _kernel(x, a, b, alpha0_k, log_p0, log_q0)
        a = g1 * (a + log_p0 - logsumexp_rows(y))
        y = _kernel(x, a, b, alpha0_k, log_p0, log_q0)
        b = g2 * (b + log_q0 - logsumexp_cols(y))
        y = _kernel(x, a, b, alpha0_k, log_p0, log_q0)
    return SinkhornState(a=a, b=b, y=y)


def badmm_init(x: np.ndarray, params: UotParams) -> BadmmState:
    """Product of the priors as both plans, priors as marginals, zero duals."""
    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[:-2]
    d, n = x.shape[-2], x.shape[-1]
    log_p0 = np.log(params.p0)
    log_q0 = np.log(params.q0)
    log_joint = np.broadcast_to(log_p0[:, None] + log_q0[None, :], batch + (d, n)).copy()
    return BadmmState(
        log_p=log_joint,
        log_s=log_joint.copy(),
        log_mu=np.broadcast_to(log_p0, batch + (d,)).copy(),
        log_eta=np.broadcast_to(log_q0, batch + (n,)).copy(),
        z_mat=np.zeros(batch + (d, n)),
        z1=np.zeros(batch + (d,)),
        z2=np.zeros(batch + (n,)),
    )


def badmm_primal_update(
    state: BadmmState,
    x: np.ndarray,
    alpha0_k: float,
    rho_k: float,
    reg: Regularizer,
) -> BadmmState:
    """Update the primal plan and project its row sums onto ``mu``.

    The unconstrained minimizer lives at ``y``; adding the row-wise
    normalizer ``log_mu - logsumexp(y)`` makes ``exp(log_p)`` satisfy
    ``P 1_N = mu`` exactly, by construction.
    """
    with np.errstate(all="ignore"):
        if reg is Regularizer.ENTROPIC:
            y = state.log_s + (x - state.z_mat) / rho_k
        else:
            s = np.exp(state.log_s)
            y = state.log_s + (x - alpha0_k * s - state.z_mat) / rho_k
        log_p = (state.log_mu - logsumexp_rows(y))[..., :, None] + y
    return replace(state, log_p=log_p)


def badmm_auxiliary_update(
    state: BadmmState,
    alpha0_k: float,
    alpha1_k: float,
    alpha2_k: float,
    rho_k: float,
    p0: np.ndarray,
    q0: np.ndarray,
    reg: Regularizer,
) -> BadmmState:
    """Update the auxiliary plan and the relaxed marginals.

    ``exp(log_s)`` is projected so its column sums equal the incoming
    ``eta``; the marginals then move toward the priors as weighted
    geometric means. Must run after :func:`badmm_primal_update` within a
    module, while ``log_s`` and ``log_eta`` still hold the previous
    module's values.
    """
    log_p0 = np.log(p0)
    log_q0 = np.log(q0)
    with np.errstate(all="ignore"):
        if reg is Regularizer.ENTROPIC:
            y = (state.z_mat + rho_k * state.log_p) / (alpha0_k + rho_k)
        else:
            s = np.exp(state.log_s)
            y = state.log_p + (state.z_mat - alpha0_k * s) / rho_k
        log_s = (state.log_eta - logsumexp_cols(y))[..., None, :] + y
        log_mu = (rho_k * state.log_mu + alpha1_k * log_p0 - state.z1) / (rho_k + alpha1_k)
        log_eta = (rho_k * state.log_eta + alpha2_k * log_q0 - state.z2) / (rho_k + alpha2_k)
    return replace(state, log_s=log_s, log_mu=log_mu, log_eta=log_eta)


def badmm_dual_update(state: BadmmState, alpha0_k: float, rho_k: float) -> BadmmState:
    """Additive dual steps on the plan gap and both marginal gaps.

    Exponentiates the current log-domain variables; the plan dual moves
    with step ``alpha0_k``, the marginal duals with step ``rho_k``.
    """
    with np.errstate(all="ignore"):
        p = np.exp(state.log_p)
        s = np.exp(state.log_s)
        z_mat = state.z_mat + alpha0_k * (p - s)
        z1 = state.z1 + rho_k * (np.exp(state.log_mu) - p.sum(axis=-1))
        z2 = state.z2 + rho_k * (np.exp(state.log_eta) - s.sum(axis=-2))
    return replace(state, z_mat=z_mat, z1=z1, z2=z2)


def _log0(v: np.ndarray) -> np.ndarray:
    """``log v`` with ``v`` clamped to the smallest normal float, so ``0 * _log0(0) = 0``."""
    return np.log(np.maximum(v, 2.2250738585072014e-308))


def _kl(v: np.ndarray, prior: np.ndarray, log_prior: np.ndarray) -> np.ndarray:
    """Generalized KL divergence of the vector(s) ``v`` from the positive ``prior``."""
    return np.add.reduce(v * (_log0(v) - (log_prior + 1.0)), -1) + prior.sum()


def _objective_core(
    x: np.ndarray,
    p: np.ndarray,
    alpha0: float,
    alpha1: float,
    alpha2: float,
    p0: np.ndarray,
    q0: np.ndarray,
    reg: Regularizer,
) -> np.ndarray:
    """Objective value(s); never raises, NaN and infinities pass through."""
    with np.errstate(all="ignore"):
        cost = -(x * p).sum(axis=(-2, -1))
        if reg is Regularizer.ENTROPIC:
            r = (p * _log0(p)).sum(axis=(-2, -1)) - p.sum(axis=(-2, -1))
        else:
            r = (p * p).sum(axis=(-2, -1))
        kl_row = _kl(p.sum(axis=-1), p0, np.log(p0))
        kl_col = _kl(p.sum(axis=-2), q0, np.log(q0))
        return cost + alpha0 * r + alpha1 * kl_row + alpha2 * kl_col


def uot_objective(
    x: np.ndarray,
    p: np.ndarray,
    alpha0: float,
    alpha1: float,
    alpha2: float,
    p0: np.ndarray,
    q0: np.ndarray,
    reg: Regularizer,
) -> float:
    """Evaluate the transport objective at a given plan.

    Rejects non-finite inputs, negative plan entries and priors with zero
    mass anywhere. This direct evaluation is the reference the solvers'
    objective traces are tested against; the solve loop builds its trace
    from sums it already has and falls back to this evaluation only for
    items whose trace entry is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if x.shape != p.shape:
        raise ValueError(f"input and plan shapes differ: {x.shape} vs {p.shape}")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(p)):
        raise ValueError("objective inputs must be finite")
    if np.any(p < 0):
        raise ValueError("plan entries must be nonnegative")
    p0 = np.asarray(p0, dtype=np.float64)
    q0 = np.asarray(q0, dtype=np.float64)
    if p0.shape != x.shape[-2:-1] or q0.shape != x.shape[-1:]:
        raise ValueError("prior lengths must match the plan dimensions")
    if np.any(p0 <= 0) or np.any(q0 <= 0):
        raise ValueError("priors must be strictly positive")
    return float(_objective_core(x, p, alpha0, alpha1, alpha2, p0, q0, reg))


def _sinkhorn_plans(
    x: np.ndarray,
    params: UotParams,
    log_p0: np.ndarray,
    log_q0: np.ndarray,
    tape: list | None = None,
):
    """Yield the plan after each module of :func:`sinkhorn_step`'s updates,
    with the duals ``(a, b)`` it was built from.

    With the scaled cost ``C = x / alpha0 + log p0 (+) log q0``, the identity
    ``lse_rows(C + a + b) = a + lse_rows(C + b)`` makes each module two
    reductions; the plan is ``exp(C + a + b)``, built in place. Each module
    reuses the buffer of the plan yielded before it. A module reads only the
    column dual ``b`` of the one before; ``tape`` records it with the
    module's two reduction results ``u_row`` and ``u_col``.
    """
    a = np.zeros(x.shape[:-1])
    b = np.zeros(x.shape[:-2] + x.shape[-1:])
    c = None
    for k in range(params.k_iters):
        a0, a1, a2 = float(params.alpha0[k]), float(params.alpha1[k]), float(params.alpha2[k])
        c = np.divide(x, a0, out=c)
        c += log_p0[:, None]
        c += log_q0
        u_row = log_p0 - logsumexp_rows(c + b[..., None, :])
        a = a1 / (a0 + a1) * u_row
        u_col = log_q0 - logsumexp_cols(c + a[..., :, None])
        if tape is not None:
            tape.append((b, u_row, u_col))
        b = a2 / (a0 + a2) * u_col
        c += a[..., :, None]
        c += b[..., None, :]
        yield np.exp(c, out=c), (a, b)


def _badmm_plans(
    x: np.ndarray,
    params: UotParams,
    log_p0: np.ndarray,
    log_q0: np.ndarray,
    tape: list | None = None,
):
    """Yield the plan after each module of the three BADMM updates, with
    the log plan it is the ``exp`` of.

    The relaxed marginals stay at the priors and their duals at rounding
    level, so the projections use ``log p0`` and ``log q0`` directly and only
    ``log_s`` and ``z`` are carried, recorded in ``tape`` as each module starts
    (``z`` is updated in place, so as a copy). Each update keeps the step
    functions' operation order; numpy reuses large temporaries in place.
    """
    quadratic = params.reg is Regularizer.QUADRATIC
    log_s = np.broadcast_to(log_p0[:, None] + log_q0, x.shape).copy()
    z = np.zeros(x.shape)
    for k in range(params.k_iters):
        if tape is not None:
            tape.append((log_s, z.copy()))
        a0, rho = float(params.alpha0[k]), float(params.rho[k])
        if quadratic:
            s = a0 * np.exp(log_s)
            log_p = (x - s - z) / rho + log_s
        else:
            log_p = (x - z) / rho + log_s
        log_p += (log_p0 - logsumexp_rows(log_p))[..., :, None]
        log_s = (z - s) / rho + log_p if quadratic else (rho * log_p + z) / (a0 + rho)
        log_s += (log_q0 - logsumexp_cols(log_s))[..., None, :]
        p = np.exp(log_p)
        z += a0 * (p - np.exp(log_s))
        yield p, log_p


def _sinkhorn_pullback(x, params, log_p0, log_q0, tape, plan_bar) -> np.ndarray:
    """Gradient of ``<plan_bar, plan>`` for the weights, modules in reverse.

    The taped reductions rebuild each module's row and column softmaxes;
    times the dual cotangents, they form the scaled cost's cotangent ``s``.
    """
    grad = np.zeros((4, params.k_iters))
    for k in reversed(range(params.k_iters)):
        a0, a1, a2 = float(params.alpha0[k]), float(params.alpha1[k]), float(params.alpha2[k])
        g1, g2 = a1 / (a0 + a1), a2 / (a0 + a2)
        b_prev, u_row, u_col = tape[k]
        c = np.divide(x, a0)
        c += log_p0[:, None]
        c += log_q0
        s = c + (g1 * u_row)[..., :, None]
        if k == params.k_iters - 1:
            s += (g2 * u_col)[..., None, :]
            np.exp(s, out=s)
            s *= plan_bar
            a_bar, b_bar, cx = s.sum(axis=-1), s.sum(axis=-2), np.vdot(s, x)
            np.add(c, (g1 * u_row)[..., :, None], out=s)
        else:
            a_bar, cx = np.zeros_like(u_row), 0.0
        s += (u_col - log_q0)[..., None, :]
        np.exp(s, out=s)
        s *= (-g2 * b_bar)[..., None, :]
        a_bar += s.sum(axis=-1)
        cx += np.vdot(s, x)
        g2_bar = np.vdot(b_bar, u_col)
        np.add(c, b_prev[..., None, :], out=s)
        s += (u_row - log_p0)[..., :, None]
        np.exp(s, out=s)
        s *= (-g1 * a_bar)[..., :, None]
        b_bar = s.sum(axis=-2)
        cx += np.vdot(s, x)
        g1_bar = np.vdot(a_bar, u_row)
        grad[0, k] = -cx / a0**2 - (g1_bar * a1 / (a0 + a1) ** 2 + g2_bar * a2 / (a0 + a2) ** 2)
        grad[1, k] = g1_bar * a0 / (a0 + a1) ** 2
        grad[2, k] = g2_bar * a0 / (a0 + a2) ** 2
    return grad


def _badmm_pullback(x, params, log_p0, log_q0, tape, plan_bar) -> np.ndarray:
    """Gradient of ``<plan_bar, plan>`` for the weights, modules in reverse.

    Each module is rebuilt from the ``(log_s, z)`` it read. ``y1`` and
    ``y2`` are the primal and auxiliary logits before their projections;
    ``s_bar`` and ``z_bar`` carry the state cotangents back one module.
    """
    quadratic = params.reg is Regularizer.QUADRATIC
    grad = np.zeros((4, params.k_iters))
    s_bar, z_bar = np.zeros(x.shape), np.zeros(x.shape)
    for k in reversed(range(params.k_iters)):
        log_s, z = tape[k]
        a0, rho = float(params.alpha0[k]), float(params.rho[k])
        e = np.exp(log_s) if quadratic else 0.0
        y1 = (x - a0 * e - z) / rho + log_s
        log_p = y1 + (log_p0 - logsumexp_rows(y1))[..., :, None]
        y2 = (z - a0 * e) / rho + log_p if quadratic else (rho * log_p + z) / (a0 + rho)
        s_new = np.exp(y2 + (log_q0 - logsumexp_cols(y2))[..., None, :])
        p = np.exp(log_p)
        grad[0, k] = np.vdot(z_bar, p - s_new)
        s_bar -= a0 * z_bar * s_new
        y2_bar = s_bar - s_new / params.q0 * s_bar.sum(axis=-2)[..., None, :]
        lp_bar = (a0 * z_bar + (plan_bar if k == params.k_iters - 1 else 0.0)) * p
        if quadratic:
            lp_bar += y2_bar
            z_bar = z_bar + y2_bar / rho
            grad[0, k] -= np.vdot(y2_bar, e) / rho
            grad[3, k] = -np.vdot(y2_bar, y2 - log_p) / rho
        else:
            lp_bar += rho / (a0 + rho) * y2_bar
            z_bar = z_bar + y2_bar / (a0 + rho)
            grad[0, k] -= np.vdot(y2_bar, y2) / (a0 + rho)
            grad[3, k] = np.vdot(y2_bar, log_p - y2) / (a0 + rho)
        y1_bar = lp_bar - p / params.p0[:, None] * lp_bar.sum(axis=-1)[..., :, None]
        z_bar -= y1_bar / rho
        grad[0, k] -= np.vdot(y1_bar, e) / rho if quadratic else 0.0
        grad[3, k] -= np.vdot(y1_bar, y1 - log_s) / rho
        s_bar = y1_bar - a0 / rho * e * (y1_bar + y2_bar) if quadratic else y1_bar
    return grad


def _sinkhorn_energy(duals, row, col, a0, log_p0, log_q0, reg) -> np.ndarray:
    """``<-x, P> + a0 (<P, log P> - m)`` from the duals and the plan's sums.

    ``log P = x / a0 + (log p0 + a) (+) (log q0 + b)``, so the ``x`` terms
    cancel and ``a0 (<r, log p0 + a> + <c, log q0 + b> - m)`` remains, with
    row sums ``r``, column sums ``c`` and mass ``m``.
    """
    a, b = duals
    return a0 * (((log_p0 + a) * row).sum(axis=-1) + ((log_q0 + b) * col).sum(axis=-1)
                 - row.sum(axis=-1))


def _badmm_record(x, plan, log_p, a0, reg) -> tuple:
    """A module's one full-matrix term: ``<P, a0 log P - x>`` (entropic) or ``<P, a0 P - x>``."""
    term = plan * (a0 * (plan if reg is Regularizer.QUADRATIC else log_p) - x)
    return (term.sum(axis=(-2, -1)),)


def _badmm_energy(terms, row, col, a0, log_p0, log_q0, reg) -> np.ndarray:
    """``<-x, P> + a0 R(P)``: the module's term, less ``a0 m`` when entropic."""
    return terms[0] if reg is Regularizer.QUADRATIC else terms[0] - a0 * row.sum(axis=-1)


# Per scheme: module generator, per-module trace record, energy over the stacked records, pullback.
_SCHEMES = {
    SolverKind.SINKHORN: (_sinkhorn_plans, lambda x, plan, duals, a0, reg: duals,
                          _sinkhorn_energy, _sinkhorn_pullback),
    SolverKind.BADMM: (_badmm_plans, _badmm_record, _badmm_energy, _badmm_pullback),
}


# Bytes of one full-size array per chunk of batch items: small enough that a
# chunk's temporaries stay in cache (5 items at 100 x 500), large enough
# that small batches run as one chunk.
_CHUNK_BYTES = 2 << 20


def _solve_chunk(x: np.ndarray, params: UotParams, kind: SolverKind):
    """Final plan and objective trace of one chunk of batch items.

    Each module keeps its plan's row and column sums and the scheme's record;
    after the loop, the energies and the KL terms of all modules are
    evaluated at once over the stacked sums. The items with a non-finite
    entry are solved again on their own, and those entries evaluated
    directly, so an entry is non-finite exactly where the direct evaluation
    of :func:`uot_objective` is.
    """
    modules, record, energy, _ = _SCHEMES[kind]
    log_p0, log_q0 = np.log(params.p0), np.log(params.q0)
    records = []
    for k, (plan, state) in enumerate(modules(x, params, log_p0, log_q0)):
        records.append((plan.sum(axis=-1), plan.sum(axis=-2),
                        *record(x, plan, state, float(params.alpha0[k]), params.reg)))
    row, col, *parts = map(np.array, zip(*records))
    a0, a1, a2 = (w.reshape(w.shape + (1,) * (x.ndim - 2))
                  for w in (params.alpha0, params.alpha1, params.alpha2))
    trace = (energy(parts, row, col, a0, log_p0, log_q0, params.reg)
             + a1 * _kl(row, params.p0, log_p0) + a2 * _kl(col, params.q0, log_q0))
    bad = ~np.isfinite(trace)
    if bad.any():  # items never share arithmetic: re-running a subset gives the same plans
        redo = bad.any(axis=0)
        for k, (p, _) in enumerate(modules(x[redo], params, log_p0, log_q0)):
            hit = bad[k, ...][redo]
            if hit.any():
                trace[k, ...][bad[k, ...]] = _objective_core(
                    x[redo][hit], p[hit], *(float(w.flat[k]) for w in (a0, a1, a2)),
                    params.p0, params.q0, params.reg)
    return plan, trace


def _solve_core(
    x: np.ndarray,
    params: UotParams,
    kind: SolverKind,
) -> tuple[np.ndarray, np.ndarray]:
    """Run all modules on a (possibly batched) input.

    Returns the final plan with shape matching ``x`` and the objective
    trace with shape ``(k_iters,) + batch_shape``. A batch larger than
    ``_CHUNK_BYTES`` per full-size array runs as chunks of items on up to
    ``os.cpu_count()`` threads, each writing its own slice of the result; a
    single matrix or a smaller batch runs on the calling thread. Items never
    share arithmetic, so the result does not depend on the thread count.
    """
    x = np.asarray(x, dtype=np.float64)
    batch, (d, n) = x.shape[:-2], x.shape[-2:]
    items = math.prod(batch)
    per_chunk = max(1, _CHUNK_BYTES // (x.itemsize * d * n))
    if items <= per_chunk:
        with np.errstate(all="ignore"):
            return _solve_chunk(x, params, kind)
    flat = x.reshape((items, d, n))
    plan = np.empty(flat.shape)
    trace = np.empty((params.k_iters, items))

    def run(start: int) -> None:
        chunk = slice(start, start + per_chunk)
        with np.errstate(all="ignore"):  # each thread starts at numpy's default state
            plan[chunk], trace[:, chunk] = _solve_chunk(flat[chunk], params, kind)

    starts = range(0, items, per_chunk)
    with ThreadPoolExecutor(min(os.cpu_count() or 1, len(starts))) as pool:
        for _ in pool.map(run, starts):  # reading each result re-raises a worker's error
            pass
    return plan.reshape(x.shape), trace.reshape((params.k_iters,) + batch)


def _diagnostics(plan: np.ndarray, trace: np.ndarray, params: UotParams) -> SolverDiagnostics:
    finite = bool(np.isfinite(plan).all()) and bool(np.isfinite(trace).all())
    with np.errstate(invalid="ignore"):
        return SolverDiagnostics(
            has_nan=not finite,
            total_mass=float(plan.sum()),  # plan entries are exp values: never negative
            objective_trace=trace,
            marginal_gap_row=float(np.abs(plan.sum(axis=-1) - params.p0).sum()),
            marginal_gap_col=float(np.abs(plan.sum(axis=-2) - params.q0).sum()),
        )


def solve(
    x: np.ndarray,
    params: UotParams,
    kind: SolverKind,
) -> tuple[np.ndarray, SolverDiagnostics]:
    """Solve one (D, N) matrix or a batch of shape (..., D, N) with ``kind``.

    The trailing shape must match the priors, and the Sinkhorn scheme needs
    the entropic regularizer. Returns the plan, shaped like ``x``, and
    diagnostics. For a batch, ``objective_trace`` has shape
    ``(k_iters,) + batch_shape`` and the other fields are totals over the
    items: ``has_nan`` is set if any item is non-finite, and ``total_mass``
    and the marginal gaps are sums. Numerical failure never raises. The
    trace is evaluated after the last module from each module's plan sums;
    items with a non-finite entry are solved again alone, and those entries
    evaluated directly. A batch over the chunk budget (about 2 MiB per
    full-size array) runs in chunks of items on up to ``os.cpu_count()``
    threads; a single matrix runs on the calling thread. Results do not
    depend on the thread count.
    """
    plan, trace = _solve_core(_checked_input(x, params, kind), params, kind)
    return plan, _diagnostics(plan, trace, params)


def solve_vjp(
    x: np.ndarray,
    params: UotParams,
    kind: SolverKind,
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The plan of :func:`solve` and its pullback for the solver weights.

    Same input and checks as :func:`solve`, same modules, but no objective
    trace or diagnostics; it records the small state each module reads.
    ``pullback(plan_bar)`` returns the gradient of ``sum(plan_bar * plan)``
    with respect to ``alpha0 | alpha1 | alpha2 | rho`` as a ``(4, k_iters)``
    array, summed over batch items, by differentiating the unrolled modules
    in reverse. Weights that do not reach the plan get exact zeros: ``rho``
    for Sinkhorn, ``alpha1`` and ``alpha2`` for BADMM. The pullback reads
    ``x``, which must not change in between. Non-finite values propagate.
    """
    x = _checked_input(x, params, kind)
    modules, _, _, pullback = _SCHEMES[kind]
    log_p0, log_q0 = np.log(params.p0), np.log(params.q0)
    tape: list = []
    with np.errstate(all="ignore"):
        for plan, _ in modules(x, params, log_p0, log_q0, tape):
            pass

    def vjp(plan_bar: np.ndarray) -> np.ndarray:
        plan_bar = np.asarray(plan_bar, dtype=np.float64)
        if plan_bar.shape != x.shape:
            raise ValueError(f"plan_bar shape {plan_bar.shape} does not match plan {x.shape}")
        with np.errstate(all="ignore"):
            return pullback(x, params, log_p0, log_q0, tape, plan_bar)

    return plan, vjp


def _checked_input(x: np.ndarray, params: UotParams, kind: SolverKind) -> np.ndarray:
    if not isinstance(kind, SolverKind):
        raise TypeError(f"kind must be a SolverKind, got {kind!r}")
    if kind is SolverKind.SINKHORN and params.reg is not Regularizer.ENTROPIC:
        raise ValueError("the Sinkhorn scheme supports only the entropic regularizer")
    x = np.asarray(x, dtype=np.float64)
    d, n = params.p0.shape[0], params.q0.shape[0]
    if x.shape[-2:] != (d, n):
        raise ValueError(f"input shape {x.shape} does not match prior dimensions ({d}, {n})")
    return x

