"""Log-domain numerical kernels shared by the solvers and pooling operators.

Everything here operates on plain float64 numpy arrays. Functions accept
batched inputs (leading axes are broadcast through) even where the public
solver API only exposes single matrices; the last two axes are always
interpreted as (feature dimension D, sample index N).
"""

from __future__ import annotations

import numpy as np

# glibc raises its mmap threshold (128 KiB) to the size of the first mmapped block freed. Doing it
# here keeps a training epoch's ~200 KiB arrays on reused heap pages instead of fresh mmap pages.
np.empty(1 << 17)  # 1 MiB, never written, so never resident

__all__ = [
    "DegenerateRowError",
    "expit",
    "kl_divergence",
    "logsumexp_cols",
    "logsumexp_rows",
    "row_conditional",
    "softmax",
    "softplus",
    "softplus_inverse",
    "validate_simplex",
]


class DegenerateRowError(ValueError):
    """A matrix row that must carry positive mass sums to zero.

    Attributes:
        row: index of the first offending row.
    """

    def __init__(self, row: int):
        self.row = int(row)
        super().__init__(f"row {self.row} has zero total mass; cannot normalize")


def _require_matrix(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2:
        raise ValueError(f"{name} must have at least 2 dimensions, got {m.ndim}")
    if m.shape[-1] == 0 or m.shape[-2] == 0:
        raise ValueError(f"{name} must be nonempty, got shape {m.shape}")
    return m


def _logsumexp(m: np.ndarray, axis: int) -> np.ndarray:
    # A non-finite max is replaced by 0, as scipy does: all -inf reduces to
    # -inf, any +inf to +inf and any NaN to NaN. The exp runs in place in the
    # one temporary buffer.
    m = _require_matrix(m, "matrix")
    shift = m.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    tmp = np.subtract(m, shift)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.exp(tmp, out=tmp)
        out = np.log(tmp.sum(axis=axis))
    out += shift.squeeze(axis)
    return out


def logsumexp_rows(m: np.ndarray) -> np.ndarray:
    """Stable log(sum(exp(.))) over each row (reducing the sample axis N).

    For a (D, N) input the result is a D-vector; batched inputs reduce the
    last axis. Safe for entries up to about +-1e300 thanks to the max-shift.
    """
    return _logsumexp(m, -1)


def logsumexp_cols(m: np.ndarray) -> np.ndarray:
    """Stable log(sum(exp(.))) over each column (reducing the feature axis D)."""
    return _logsumexp(m, -2)


def softmax(v: np.ndarray) -> np.ndarray:
    """Max-shifted softmax along the last axis; rows sum to one exactly."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def expit(x: np.ndarray | float) -> np.ndarray | float:
    """Logistic sigmoid 1 / (1 + exp(-x)); exactly 0 where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(np.negative(x)))


def softplus(x: np.ndarray | float) -> np.ndarray | float:
    """ln(1 + exp(x)), computed without overflow for large |x|."""
    return np.logaddexp(0.0, x)


def softplus_inverse(y: np.ndarray | float) -> np.ndarray | float:
    """Inverse of :func:`softplus` for strictly positive y.

    Uses y + log(1 - exp(-y)), which stays finite where exp(y) would
    overflow and degrades gracefully to log(y) as y -> 0+.
    """
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("softplus_inverse requires strictly positive input")
    return y + np.log1p(-np.exp(-y))


def kl_divergence(a: np.ndarray, b: np.ndarray) -> float:
    """Generalized KL divergence sum(a log(a/b)) - sum(a) + sum(b).

    Inputs must be finite and need not be normalized; ``a`` may contain
    zeros (0 log 0 := 0) but ``b`` must be strictly positive. Nonnegative
    whenever both inputs are probability vectors.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("arguments must be finite")
    if np.any(a < 0):
        raise ValueError("first argument must be nonnegative")
    if np.any(b <= 0):
        raise ValueError("second argument must be strictly positive")
    # As scipy's rel_entr: 0 at a = 0, log1p near a/b = 1, log a - log b where a/b under/overflows.
    with np.errstate(all="ignore"):
        ratio, tiny = a / b, np.finfo(np.float64).tiny
        terms = a * np.select(
            [a == 0, (0.5 < ratio) & (ratio < 2.0), (tiny < ratio) & (ratio < np.inf)],
            [0.0, np.log1p((a - b) / b), np.log(ratio)], np.log(a) - np.log(b))
    return float(np.sum(terms) - np.sum(a) + np.sum(b))


def row_conditional(p: np.ndarray) -> np.ndarray:
    """Normalize each row of a nonnegative matrix to sum to one.

    Raises :class:`DegenerateRowError` for the first row whose total mass is
    exactly zero; a zero row signals a failed solve and must not be papered
    over with a uniform fallback. Non-finite rows are left to propagate so
    that NaN diagnostics remain visible downstream.
    """
    p = _require_matrix(p, "plan")
    sums = p.sum(axis=-1, keepdims=True)
    zero = sums == 0.0
    if np.any(zero):
        idx = int(np.argwhere(zero)[0][-2])
        raise DegenerateRowError(idx)
    with np.errstate(invalid="ignore"):
        return p / sums


def validate_simplex(v: np.ndarray, name: str = "weights") -> np.ndarray:
    """Check that ``v`` is a probability vector (finite, nonnegative, sums to one)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} entries must be finite")
    if np.any(v < 0):
        raise ValueError(f"{name} must be nonnegative")
    if abs(float(v.sum()) - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1, got {v.sum()!r}")
    return v
