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

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .numerics import (DegenerateRowError, logsumexp_cols, logsumexp_rows, row_conditional,
                       validate_simplex)

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
    "pool_with_plan",
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


def _check_reg(reg) -> None:
    if not isinstance(reg, Regularizer):
        raise TypeError(f"reg must be a Regularizer, got {reg!r}")


class SolverKind(Enum):
    """Which unrolled scheme computes the plan."""

    SINKHORN = "sinkhorn"
    BADMM = "badmm"


@dataclass(frozen=True)
class UotParams:
    """Parameter bundle for one unrolled solve.

    ``alpha0``, ``alpha1``, ``alpha2`` and ``rho`` are per-module weights
    (``rho`` is only consumed by the BADMM scheme), each of shape
    ``(k_iters,)``, shared by every batch item, or ``(k_iters, *batch)``,
    one column per item of a batch of shape ``batch``. A scalar becomes a
    ``(k_iters,)`` vector; if any weight is per item, all per-item weights
    must have the same shape and the ``(k_iters,)`` ones are broadcast to it.
    Every entry must be finite and positive. The weights are kept as
    read-only copies. ``p0`` and ``q0`` are probability vectors over the
    feature and sample axes respectively; their lengths fix the (D, N)
    shape the solve expects. ``reg`` must be a :class:`Regularizer`.
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
        if isinstance(k, bool) or not (isinstance(k, numbers.Real) and float(k).is_integer()
                                       and k >= 1):
            raise ValueError(f"k_iters must be a positive integer, got {k!r}")
        k = int(k)
        object.__setattr__(self, "k_iters", k)
        weights = {}
        for name in ("alpha0", "alpha1", "alpha2", "rho"):
            w = np.array(getattr(self, name), dtype=np.float64)
            if w.ndim == 0:
                w = np.full(k, float(w))
            if w.shape[:1] != (k,):
                raise ValueError(f"{name} must be a scalar or have shape ({k},) or ({k}, *batch), "
                                 f"got shape {w.shape}")
            if not np.isfinite(w).all() or (w <= 0).any():
                raise ValueError(f"{name} entries must be finite and strictly positive")
            weights[name] = w
        shapes = {w.shape for w in weights.values() if w.ndim > 1}
        if len(shapes) > 1:
            raise ValueError(f"weights must all have shape ({k},) or one shared ({k}, *batch), "
                             f"got shapes {sorted(shapes)}")
        for name, w in weights.items():
            if shapes and w.ndim == 1:
                shape, = shapes
                w = np.broadcast_to(w.reshape((k,) + (1,) * (len(shape) - 1)), shape).copy()
            w.flags.writeable = False
            object.__setattr__(self, name, w)
        for name in ("p0", "q0"):
            v = validate_simplex(getattr(self, name), name).copy()
            if np.any(v <= 0):
                raise ValueError(f"{name} entries must be strictly positive")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        _check_reg(self.reg)

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
        return cls(k_iters, alpha0, alpha1, alpha2, rho, p0, q0, reg)

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
        p0, q0 = np.full(d, 1.0 / d), np.full(n, 1.0 / n)
        return cls(k_iters, alpha0, alpha1, alpha2, rho, p0, q0, reg)


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
    """Zero duals and the scaled cost as the initial kernel; weights must be shared ``(K,)``."""
    if params.alpha0.ndim > 1:
        raise ValueError("sinkhorn_init needs weights of shape (k_iters,), "
                         f"got per-item weights of shape {params.alpha0.shape}")
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
    """Evaluate the transport objective at one (D, N) plan.

    Rejects a batch, a ``reg`` that is not a :class:`Regularizer`,
    non-finite inputs, negative plan entries and priors with zero mass
    anywhere. This direct evaluation is the reference the solvers'
    objective traces are tested against; the solve loop builds its trace
    from sums it already has and falls back to this evaluation only for
    items whose trace entry is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if x.shape != p.shape:
        raise ValueError(f"input and plan shapes differ: {x.shape} vs {p.shape}")
    if x.ndim != 2:
        raise ValueError(f"uot_objective takes one (D, N) matrix, got shape {x.shape}")
    _check_reg(reg)
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


def _lse(m: np.ndarray, axis: int, buf: np.ndarray) -> np.ndarray:
    """``logsumexp_rows``/``cols`` unchecked, exponentiating in ``buf`` (may be ``m``)."""
    # A maximum is exact in any order; with ``initial`` it is about 2x faster on short rows.
    shift = np.maximum.reduce(m, axis, keepdims=True, initial=-np.inf)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.exp(np.subtract(m, shift, out=buf), out=buf)
        out = np.log(buf.sum(axis=axis))
    out += shift.squeeze(axis)
    return out


def _feature_major(x: np.ndarray) -> bool:
    """Whether the module generators run the (items, D, N) batch ``x`` as
    (D, items, N), where each column reduction is a few long passes over the
    leading axis instead of one short loop per item and row. It pays when
    there are more items than samples per item. With one sample, numpy sums
    each contiguous column pairwise, which the leading-axis sum would not."""
    return x.ndim == 3 and 1 < x.shape[2] < x.shape[0]


def _layout(x: np.ndarray, log_p0: np.ndarray) -> tuple:
    """The input the module generators run on, its column axis, the index
    that broadcasts a column dual against it, ``log p0`` shaped against a
    row dual, the map from their arrays to natural-layout views, and the
    index that broadcasts an ``(items,)`` weight against a full-size array
    (without its last axis, against a row dual). Elementwise ops and row
    reductions give the same bits in either layout, and numpy sums a
    strided column in order, as the leading-axis sum does."""
    if _feature_major(x):
        return (x.transpose(1, 0, 2), 0, (None,), log_p0[:, None], lambda m: m.swapaxes(0, 1),
                (None, slice(None), None))
    return x, -2, (..., None, slice(None)), log_p0, lambda m: m, (slice(None), None, None)


def _modules(w: tuple):
    """Each module's ``(alpha0, alpha1, alpha2, rho)`` from the weights
    ``w``: Python floats for shared ``(K,)`` weights, ``(items,)`` arrays
    for per-item ``(K, items)`` ones."""
    return zip(*w) if w[0].ndim == 2 else zip(*(v.tolist() for v in w))


def _take(w: tuple, items) -> tuple:
    """The weights of the batch items ``items`` (a slice or a mask)."""
    return tuple(v[:, items] for v in w) if w[0].ndim == 2 else w


def _sinkhorn_plans(
    x: np.ndarray,
    w: tuple,
    reg: Regularizer,
    log_p0: np.ndarray,
    log_q0: np.ndarray,
    tape: list | None = None,
):
    """Yield the plan after each module of :func:`sinkhorn_step`'s updates,
    with the duals ``(a, b)`` it was built from, as natural-layout views.

    With the scaled cost ``C = x / alpha0 + log p0 (+) log q0``, the identity
    ``lse_rows(C + a + b) = a + lse_rows(C + b)`` makes each module two
    reductions; the plan is ``exp((C + a) + b)``, built on the column
    reduction's input. ``C`` is rebuilt only when some item's ``alpha0``
    changes; each module reuses the yielded plan's buffer. The weights ``w``
    are ``(alpha0, alpha1, alpha2, rho)``, each ``(K,)`` or ``(K, items)``
    with one column per item of ``x``. A module reads only the column
    dual ``b`` of the one before; ``tape`` records it with the module's two
    reduction results ``u_row`` and ``u_col``, in C-ordered natural layout.
    """
    xl, ax, col, lp0, natural, item = _layout(x, log_p0)
    per_item, prev = w[0].ndim == 2, None
    b = np.zeros(x.shape[:-2] + x.shape[-1:])
    c, plan, tmp = np.empty(xl.shape), np.empty(xl.shape), np.empty(xl.shape)
    for a0, a1, a2, _ in _modules(w):
        g1, g2 = a1 / (a0 + a1), a2 / (a0 + a2)
        fresh = prev is None or (np.any(a0 != prev) if per_item else a0 != prev)
        prev = a0
        if per_item:
            a0, g1, g2 = a0[item], g1[item[:-1]], g2[:, None]
        if fresh:
            np.divide(xl, a0, out=c)
            c += lp0[..., None]
            c += log_q0
        u_row = lp0 - _lse(np.add(c, b[col], out=plan), -1, plan)
        a = g1 * u_row
        u_col = log_q0 - _lse(np.add(c, a[..., None], out=plan), ax, tmp)
        if tape is not None:
            tape.append((b, np.ascontiguousarray(natural(u_row)), u_col))
        b = g2 * u_col
        plan += b[col]
        yield natural(np.exp(plan, out=plan)), (natural(a), b)


def _badmm_plans(
    x: np.ndarray,
    w: tuple,
    reg: Regularizer,
    log_p0: np.ndarray,
    log_q0: np.ndarray,
    tape: list | None = None,
):
    """Yield the plan after each module of the three BADMM updates, with
    the log plan it is the ``exp`` of, both as natural-layout views, and a
    C-ordered buffer of ``x``'s shape for the trace record: the log plan's
    own in natural layout (faster there), else the scratch buffer.

    The relaxed marginals stay at the priors and their duals at rounding
    level, so the projections use ``log p0`` and ``log q0`` directly and only
    ``log_s`` and ``z`` are carried, copied into ``tape`` in natural layout
    as each module starts. Each update keeps the step functions' operation
    order in buffers that every module reuses; a module overwrites all three
    yielded arrays. The weights ``w`` are as for :func:`_sinkhorn_plans`.
    """
    quadratic = reg is Regularizer.QUADRATIC
    xl, ax, col, lp0, natural, item = _layout(x, log_p0)
    per_item = w[0].ndim == 2
    log_s = np.broadcast_to(lp0[..., None] + log_q0, xl.shape).copy()
    z = np.zeros(xl.shape)
    log_p, plan, tmp = np.empty(xl.shape), np.empty(xl.shape), np.empty(xl.shape)
    for a0, _, _, rho in _modules(w):
        if tape is not None:
            tape.append((natural(log_s).copy(), natural(z).copy()))
        if per_item:
            a0, rho = a0[item], rho[item]
        if quadratic:
            s = np.multiply(np.exp(log_s, out=tmp), a0, out=tmp)
            log_p = np.subtract(np.subtract(xl, s, out=log_p), z, out=log_p)
        else:
            log_p = np.subtract(xl, z, out=log_p)
        log_p /= rho
        log_p += log_s
        log_p += (lp0 - _lse(log_p, -1, plan))[..., None]
        if quadratic:
            np.subtract(z, s, out=log_s)
            log_s /= rho
            log_s += log_p
        else:
            np.multiply(log_p, rho, out=log_s)
            log_s += z
            log_s /= a0 + rho
        log_s += (log_q0 - _lse(log_s, ax, tmp))[col]
        np.exp(log_p, out=plan)
        z += np.multiply(np.subtract(plan, np.exp(log_s, out=tmp), out=tmp), a0, out=tmp)
        yield natural(plan), (natural(log_p), log_p if xl is x else tmp.reshape(x.shape))


def _sinkhorn_pullback(x, params, log_p0, log_q0, tape, plan_bar) -> np.ndarray:
    """Gradient of ``<plan_bar, plan>`` for the weights, modules in reverse.

    The taped reductions rebuild each module's row and column softmaxes;
    times the dual cotangents, they form the scaled cost's cotangent ``s``.
    The scaled cost ``C`` is rebuilt only when ``alpha0`` changes.
    """
    grad = np.zeros((4, params.k_iters))
    c, s = np.empty(x.shape), np.empty(x.shape)
    for k in reversed(range(params.k_iters)):
        a0, a1, a2 = float(params.alpha0[k]), float(params.alpha1[k]), float(params.alpha2[k])
        g1, g2 = a1 / (a0 + a1), a2 / (a0 + a2)
        b_prev, u_row, u_col = tape[k]
        if k == params.k_iters - 1 or a0 != params.alpha0[k + 1]:
            np.divide(x, a0, out=c)
            c += log_p0[:, None]
            c += log_q0
        np.add(c, (g1 * u_row)[..., :, None], out=s)
        if k == params.k_iters - 1:
            s += (g2 * u_col)[..., None, :]
            np.exp(s, out=s)
            s *= plan_bar
            a_bar, b_bar = s.sum(axis=-1), s.sum(axis=-2)
            cx = np.multiply(s, x, out=s).sum()
            np.add(c, (g1 * u_row)[..., :, None], out=s)
        else:
            a_bar, cx = np.zeros_like(u_row), 0.0
        s += (u_col - log_q0)[..., None, :]
        np.exp(s, out=s)
        s *= (-g2 * b_bar)[..., None, :]
        a_bar += s.sum(axis=-1)
        cx += np.multiply(s, x, out=s).sum()
        g2_bar = (b_bar * u_col).sum()
        np.add(c, b_prev[..., None, :], out=s)
        s += (u_row - log_p0)[..., :, None]
        np.exp(s, out=s)
        s *= (-g1 * a_bar)[..., :, None]
        b_bar = s.sum(axis=-2)
        cx += np.multiply(s, x, out=s).sum()
        g1_bar = (a_bar * u_row).sum()
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
    s_bar, z_bar, buf = np.zeros(x.shape), np.zeros(x.shape), np.empty(x.shape)
    for k in reversed(range(params.k_iters)):
        log_s, z = tape[k]
        a0, rho = float(params.alpha0[k]), float(params.rho[k])
        e = np.exp(log_s) if quadratic else 0.0
        y1 = (x - a0 * e - z) / rho + log_s
        log_p = y1 + (log_p0 - _lse(y1, -1, buf))[..., :, None]
        y2 = (z - a0 * e) / rho + log_p if quadratic else (rho * log_p + z) / (a0 + rho)
        s_new = np.exp(y2 + (log_q0 - _lse(y2, -2, buf))[..., None, :])
        p = np.exp(log_p)
        grad[0, k] = (z_bar * (p - s_new)).sum()
        s_bar -= a0 * z_bar * s_new
        y2_bar = s_bar - s_new / params.q0 * s_bar.sum(axis=-2)[..., None, :]
        lp_bar = (a0 * z_bar + (plan_bar if k == params.k_iters - 1 else 0.0)) * p
        if quadratic:
            lp_bar += y2_bar
            z_bar = z_bar + y2_bar / rho
            grad[0, k] -= (y2_bar * e).sum() / rho
            grad[3, k] = -(y2_bar * (y2 - log_p)).sum() / rho
        else:
            lp_bar += rho / (a0 + rho) * y2_bar
            z_bar = z_bar + y2_bar / (a0 + rho)
            grad[0, k] -= (y2_bar * y2).sum() / (a0 + rho)
            grad[3, k] = (y2_bar * (log_p - y2)).sum() / (a0 + rho)
        y1_bar = lp_bar - p / params.p0[:, None] * lp_bar.sum(axis=-1)[..., :, None]
        z_bar -= y1_bar / rho
        grad[0, k] -= (y1_bar * e).sum() / rho if quadratic else 0.0
        grad[3, k] -= (y1_bar * (y1 - log_s)).sum() / rho
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


def _badmm_record(x, plan, state, a0, reg) -> tuple:
    """A module's one full-matrix term: ``<P, a0 log P - x>`` (entropic) or
    ``<P, a0 P - x>``, built in the C-ordered buffer the module yields with
    its log plan, so the sum runs in natural-layout order."""
    log_p, out = state
    term = np.multiply(plan if reg is Regularizer.QUADRATIC else log_p, a0, out=out)
    term -= x
    term *= plan
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


# Bytes of one full-size array per chunk of batch items, in the solve and pool_with_plan:
# small enough that a chunk's few full-size buffers stay near a core's L2 (2 MiB
# here; 2 items at 100 x 500), large enough that small batches run as one chunk.
_CHUNK_BYTES = 1 << 20


def _for_chunks(x: np.ndarray, run: Callable[[slice], None]) -> None:
    """Call ``run`` on slices of the (items, D, N) array ``x`` within the chunk
    budget, on up to ``os.cpu_count()`` threads."""
    per_chunk = max(1, _CHUNK_BYTES // (x.itemsize * x.shape[-2] * x.shape[-1]))
    starts = range(0, len(x), per_chunk)
    if len(starts) <= 1:
        return run(slice(None))  # on the calling thread, in the caller's np.errstate

    def task(start: int) -> None:
        with np.errstate(all="ignore"):  # each thread starts at numpy's default state
            run(slice(start, start + per_chunk))

    with ThreadPoolExecutor(min(os.cpu_count() or 1, len(starts))) as pool:
        list(pool.map(task, starts))  # reading each result re-raises a worker's error


def pool_with_plan(x: np.ndarray, plan: np.ndarray) -> np.ndarray:
    """Average each feature row of ``x`` under the plan's row-conditional weights.

    ``output[d] = sum_n x[d, n] * plan[d, n] / sum_m plan[d, m]``. Raises a
    degenerate-row error, naming the first zero-mass plan row and its batch
    item, if any plan row carries zero mass. A single matrix is weighted on
    the calling thread; a batch on the solve's chunks of items and threads.
    Each pooled row comes from its own plan row only, so the chunking moves
    no bit.
    """
    x = np.asarray(x, dtype=np.float64)
    plan = np.asarray(plan, dtype=np.float64)
    if x.shape != plan.shape:
        raise ValueError(f"input and plan shapes differ: {x.shape} vs {plan.shape}")
    if x.ndim < 3:
        weights = row_conditional(plan)
        with np.errstate(under="ignore"):
            return np.multiply(weights, x, out=weights).sum(axis=-1)
    flat_x, flat_plan = (a.reshape((-1,) + a.shape[-2:]) for a in (x, plan))
    out = np.empty(flat_plan.shape[:-1])

    def run(chunk: slice) -> None:
        try:
            weights = row_conditional(flat_plan[chunk])
        except DegenerateRowError as err:  # name the item by its flat index in the batch
            raise DegenerateRowError(err.row, (chunk.start or 0) + err.item) from None
        with np.errstate(under="ignore"):
            np.multiply(weights, flat_x[chunk], out=weights).sum(axis=-1, out=out[chunk])

    _for_chunks(flat_plan, run)
    return out.reshape(x.shape[:-1])


def _solve_chunk(x: np.ndarray, params: UotParams, kind: SolverKind, w: tuple):
    """Final plan, objective trace and final row and column sums of one
    chunk of batch items, with the chunk's weights ``w`` (see
    :func:`_sinkhorn_plans`).

    Each module writes its plan's row and column sums into ``(K, items, D)``
    and ``(K, items, N)`` arrays and keeps the scheme's record; after the
    loop, the energies and the KL terms of all modules are evaluated at once
    over them. The items with a non-finite entry are solved again on their
    own, and those entries evaluated directly, so an entry is non-finite
    exactly where the direct evaluation of :func:`uot_objective` is.
    """
    modules, record, energy, _ = _SCHEMES[kind]
    log_p0, log_q0 = np.log(params.p0), np.log(params.q0)
    row = np.empty((params.k_iters,) + x.shape[:-1])
    col = np.empty((params.k_iters,) + x.shape[:-2] + x.shape[-1:])
    per_item = w[0].ndim == 2
    record_a0 = w[0][..., None, None] if per_item else w[0].tolist()
    records = []
    for k, (plan, state) in enumerate(modules(x, w, params.reg, log_p0, log_q0)):
        plan.sum(axis=-1, out=row[k])
        plan.sum(axis=-2, out=col[k])
        records.append(record(x, plan, state, record_a0[k], params.reg))
    parts = list(map(np.array, zip(*records)))
    a0, a1, a2 = (v.reshape(v.shape + (1,) * (x.ndim - 1 - v.ndim)) for v in w[:3])
    trace = (energy(parts, row, col, a0, log_p0, log_q0, params.reg)
             + a1 * _kl(row, params.p0, log_p0) + a2 * _kl(col, params.q0, log_q0))
    bad = ~np.isfinite(trace)
    if bad.any():  # items never share arithmetic: re-running a subset gives the same plans
        redo = bad.any(axis=0)
        w = _take(w, redo)
        for k, (p, _) in enumerate(modules(x[redo], w, params.reg, log_p0, log_q0)):
            hit = bad[k, ...][redo]
            if hit.any():
                trace[k, ...][bad[k, ...]] = _objective_core(
                    x[redo][hit], p[hit], *(v[k, hit] if per_item else float(v[k]) for v in w[:3]),
                    params.p0, params.q0, params.reg)
    return plan, trace, row[-1], col[-1]


def _solve_with_sums(x: np.ndarray, params: UotParams, kind: SolverKind) -> tuple:
    """Run all modules on a (possibly batched) input.

    Returns the final plan with shape matching ``x``, the objective trace
    with shape ``(k_iters,) + batch_shape``, and the final plan's row and
    column sums per item. A batch runs as chunks of items of at most
    ``_CHUNK_BYTES`` (1 MiB) per full-size array, on up to
    ``os.cpu_count()`` threads that each write their own slice of the result,
    each with its items' weights if they are per item. Items never share
    arithmetic, so the result does not depend on the thread count.
    """
    x = np.asarray(x, dtype=np.float64)
    w = params.alpha0, params.alpha1, params.alpha2, params.rho
    if x.ndim == 2:
        with np.errstate(all="ignore"):
            return _solve_chunk(x, params, kind, w)
    flat = x.reshape((-1,) + x.shape[-2:])
    if w[0].ndim > 1:
        w = tuple(v.reshape(len(v), -1) for v in w)
    plan, trace = np.empty(flat.shape), np.empty((params.k_iters, len(flat)))
    row, col = np.empty(flat.shape[:-1]), np.empty((len(flat), flat.shape[-1]))

    def run(chunk: slice) -> None:
        plan[chunk], trace[:, chunk], row[chunk], col[chunk] = _solve_chunk(
            flat[chunk], params, kind, _take(w, chunk))

    with np.errstate(all="ignore"):
        _for_chunks(flat, run)
    return plan.reshape(x.shape), trace.reshape((params.k_iters,) + x.shape[:-2]), row, col


def _solve_core(x: np.ndarray, params: UotParams, kind: SolverKind) -> tuple:
    """The plan and trace of :func:`_solve_with_sums`. Only the benchmark's
    batch adapter calls it; it goes when that adapter calls :func:`uot_pool`."""
    return _solve_with_sums(x, params, kind)[:2]


def _diagnostics(plan, trace, row, col, params: UotParams) -> SolverDiagnostics:
    """From the final plan's row and column sums. Plan entries are ``exp`` values,
    in [0, inf] or NaN: if every row sum is finite, so is every entry."""
    with np.errstate(all="ignore"):
        finite = np.isfinite(trace).all() and (np.isfinite(row).all() or np.isfinite(plan).all())
        return SolverDiagnostics(
            has_nan=not finite,
            total_mass=float(plan.sum()),  # plan entries are exp values: never negative
            objective_trace=trace,
            marginal_gap_row=float(np.abs(row - params.p0).sum()),
            marginal_gap_col=float(np.abs(col - params.q0).sum()),
        )


def solve(
    x: np.ndarray,
    params: UotParams,
    kind: SolverKind,
) -> tuple[np.ndarray, SolverDiagnostics]:
    """Solve one (D, N) matrix or a batch of shape (..., D, N) with ``kind``.

    The trailing shape must match the priors, and the Sinkhorn scheme needs
    the entropic regularizer. With per-item weights, of shape ``(k_iters,
    *batch)``, ``batch`` must equal ``x.shape[:-2]``, and each item is solved
    with its own column, bitwise as a solve of that item alone with
    ``(k_iters,)`` weights would; with ``(k_iters,)`` weights every item
    shares them. Returns the plan, shaped like ``x``, and
    diagnostics. For a batch, ``objective_trace`` has shape
    ``(k_iters,) + batch_shape`` and the other fields are totals over the
    items: ``has_nan`` is set if any item is non-finite, and ``total_mass``
    and the marginal gaps are sums. Numerical failure never raises. The
    trace is evaluated after the last module from each module's plan sums;
    items with a non-finite entry are solved again alone, and those entries
    evaluated directly. The marginal gaps come from the last module's plan
    sums. A batch over the chunk budget (1 MiB per full-size array, 2 items
    at 100 x 500) runs in chunks of items on up to ``os.cpu_count()``
    threads; a single matrix runs on the calling thread. A chunk with more
    items than samples per item, and more than one sample, runs feature-major,
    as (D, items, N), which keeps every output bit. Results depend neither on
    the thread count nor on the BLAS thread count: no step calls BLAS.
    """
    plan, trace, row, col = _solve_with_sums(_checked_input(x, params, kind), params, kind)
    return plan, _diagnostics(plan, trace, row, col, params)


def solve_vjp(
    x: np.ndarray,
    params: UotParams,
    kind: SolverKind,
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The plan of :func:`solve` and its pullback for the solver weights.

    Same input and checks as :func:`solve`, same modules, but no objective
    trace or diagnostics; it records the small state each module reads. The
    weights must be shared ``(k_iters,)`` vectors: per-item weights raise
    ``ValueError``, since the gradient is summed over the items.
    ``pullback(plan_bar)`` returns the gradient of ``sum(plan_bar * plan)``
    with respect to ``alpha0 | alpha1 | alpha2 | rho`` as a ``(4, k_iters)``
    array, summed over batch items, by differentiating the unrolled modules
    in reverse. Weights that do not reach the plan get exact zeros: ``rho``
    for Sinkhorn, ``alpha1`` and ``alpha2`` for BADMM. The pullback reads
    ``x``, which must not change in between. Non-finite values propagate.
    The forward modules follow :func:`solve`'s layout rule on the flattened
    batch; the pullback runs in natural layout, and forms its inner products
    with numpy's own sums rather than BLAS, so gradients do not depend on
    the BLAS thread count either.
    """
    if params.alpha0.ndim > 1:
        raise ValueError("solve_vjp needs weights of shape (k_iters,) shared by all items, "
                         f"got per-item weights of shape {params.alpha0.shape}")
    x = _checked_input(x, params, kind)
    flat = x.reshape((-1,) + x.shape[-2:]) if x.ndim > 2 else x
    modules, _, _, pullback = _SCHEMES[kind]
    log_p0, log_q0 = np.log(params.p0), np.log(params.q0)
    w = params.alpha0, params.alpha1, params.alpha2, params.rho
    tape: list = []
    with np.errstate(all="ignore"):
        for plan, _ in modules(flat, w, params.reg, log_p0, log_q0, tape):
            pass

    def vjp(plan_bar: np.ndarray) -> np.ndarray:
        plan_bar = np.asarray(plan_bar, dtype=np.float64)
        if plan_bar.shape != x.shape:
            raise ValueError(f"plan_bar shape {plan_bar.shape} does not match plan {x.shape}")
        with np.errstate(all="ignore"):
            return pullback(flat, params, log_p0, log_q0, tape, plan_bar.reshape(flat.shape))

    return np.ascontiguousarray(plan).reshape(x.shape), vjp


def _checked_input(x: np.ndarray, params: UotParams, kind: SolverKind) -> np.ndarray:
    if not isinstance(kind, SolverKind):
        raise TypeError(f"kind must be a SolverKind, got {kind!r}")
    if kind is SolverKind.SINKHORN and params.reg is not Regularizer.ENTROPIC:
        raise ValueError("the Sinkhorn scheme supports only the entropic regularizer")
    x = np.asarray(x, dtype=np.float64)
    d, n = params.p0.shape[0], params.q0.shape[0]
    if x.shape[-2:] != (d, n):
        raise ValueError(f"input shape {x.shape} does not match prior dimensions ({d}, {n})")
    if params.alpha0.ndim > 1 and x.shape[:-2] != params.alpha0.shape[1:]:
        raise ValueError(f"per-item weights of shape {params.alpha0.shape} need an input batch "
                         f"shape {params.alpha0.shape[1:]}, got {x.shape[:-2]}")
    return x

