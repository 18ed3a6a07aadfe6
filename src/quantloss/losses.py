"""Loss family with exact derivatives, plus the quantile-crossing penalty.

Residual convention, used everywhere in this package: ``r = prediction - target``.
The tilted and check losses weight r <= 0 by tau and r > 0 by 1 - tau, as Koenker and Bassett's
check function of target - prediction does: a check head at tau fits the tau-quantile.
``_batch_value_grad`` is the one per-kind table of values and derivatives in
r; since d r / d prediction = 1, these are also the per-example prediction
gradients.  ``eval_loss`` is that table at one point, and ``batch_loss``
applies the mean reduction over examples, so its gradient array is
d(mean loss)/d(predictions).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

_LOG2 = math.log(2.0)


class LossKind(str, enum.Enum):
    LOG_COSH = "logcosh"
    TILTED_LOG_COSH = "tilted-logcosh"
    CHECK = "check"
    HUBER = "huber"
    MSE = "mse"
    MAE = "mae"


@dataclass(frozen=True)
class LossSpec:
    """Selects a loss family member and its parameters.

    ``h`` scales log-cosh as logcosh(r / h); ``tau`` is the quantile level of
    the tilted/check losses, which cost a prediction below its target tau and
    one above it 1 - tau; ``delta`` is the Huber knot.
    """

    kind: LossKind
    h: float = 1.0
    tau: float = 0.5
    delta: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", LossKind(self.kind))
        if self.kind is LossKind.LOG_COSH and not self.h > 0.0:
            raise ValueError(f"h must be > 0, got {self.h}")
        if self.kind in (LossKind.TILTED_LOG_COSH, LossKind.CHECK):
            if not 0.0 < self.tau < 1.0:
                raise ValueError(f"tau must be inside (0, 1), got {self.tau}")
        if self.kind is LossKind.HUBER and not self.delta > 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")

    @classmethod
    def from_dict(cls, d: dict) -> "LossSpec":
        known = {"kind", "h", "tau", "delta"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown loss fields: {sorted(extra)}")
        return cls(**d)


@dataclass(frozen=True)
class LossEval:
    """Loss value with first and, where defined, second derivative in r.

    ``curvature`` is None for kinds that are not twice differentiable at the
    evaluated point (MAE, check loss, Huber exactly at the knot).
    """

    value: float
    grad: float
    curvature: float | None


def log_cosh(x):
    """Numerically stable log(cosh(x)).

    Evaluates |x| - log 2 + log1p(exp(-2|x|)); the naive form overflows near
    |x| ~ 710 in double precision.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    return ax - _LOG2 + np.log1p(np.exp(-2.0 * ax))


def _sech_sq(x):
    """sech^2(x) without overflow: 4 e^{-2|x|} / (1 + e^{-2|x|})^2."""
    e = np.exp(-2.0 * np.abs(np.asarray(x, dtype=float)))
    return 4.0 * e / (1.0 + e) ** 2


def _batch_value_grad(spec: LossSpec, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (value, d value / d r) for a residual array."""
    k = spec.kind
    if k is LossKind.LOG_COSH:
        u = r / spec.h
        return log_cosh(u), np.tanh(u) / spec.h
    if k is LossKind.TILTED_LOG_COSH:
        w = np.where(r > 0, 1.0 - spec.tau, spec.tau)
        return w * log_cosh(r), w * np.tanh(r)
    if k is LossKind.CHECK:
        w = np.where(r > 0, 1.0 - spec.tau, -spec.tau)
        return w * r, w.astype(float)
    if k is LossKind.HUBER:
        d = spec.delta
        small = np.abs(r) <= d
        rk = np.where(small, r, 0.0)  # square only the kept rows: a discarded one may overflow
        value = np.where(small, 0.5 * rk * rk, d * (np.abs(r) - 0.5 * d))
        grad = np.where(small, r, d * np.sign(r))
        return value, grad
    if k is LossKind.MSE:
        with np.errstate(over="ignore"):  # past |r| ~ 1.3e154 the square is past the float range: inf
            return r * r, 2.0 * r
    if k is LossKind.MAE:
        return np.abs(r), np.sign(r)
    raise ValueError(f"unknown loss kind {k!r}")


def slope_bound(spec: LossSpec, residual_norm: float) -> float:
    """Largest |d loss / d r| over r = +-residual_norm, in closed form.

    The regression layer constant takes the loss slope where its derivation
    evaluates it (outputs at g(0), so |r| = ||y||).  The check loss and MAE
    give their largest subgradient magnitude at every norm.
    """
    k = spec.kind
    if k is LossKind.LOG_COSH:
        return math.tanh(residual_norm / spec.h) / spec.h
    if k is LossKind.TILTED_LOG_COSH:
        return max(spec.tau, 1.0 - spec.tau) * math.tanh(residual_norm)
    if k is LossKind.CHECK:
        return max(spec.tau, 1.0 - spec.tau)
    if k is LossKind.HUBER:
        return min(residual_norm, spec.delta)
    if k is LossKind.MSE:
        return 2.0 * residual_norm
    if k is LossKind.MAE:
        return 1.0
    raise ValueError(f"unknown loss kind {k!r}")


def eval_loss(spec: LossSpec, residual: float) -> LossEval:
    """Evaluate one loss family member at a scalar residual.

    The value and gradient are the batch table (``_batch_value_grad``) at one
    point, so they equal ``batch_loss(..., reduction="none")`` bit for bit.
    """
    r = float(residual)
    if not math.isfinite(r):
        raise ValueError(f"residual must be finite, got {residual}")
    value, grad = _batch_value_grad(spec, np.float64(r))
    return LossEval(value=float(value), grad=float(grad), curvature=_curvature(spec, r))


def _curvature(spec: LossSpec, r: float) -> float | None:
    """d^2 loss / d r^2 at r, or None where the loss is not twice differentiable."""
    k = spec.kind
    if k is LossKind.LOG_COSH:
        return float(_sech_sq(r / spec.h)) / spec.h**2
    if k is LossKind.TILTED_LOG_COSH:
        return (1.0 - spec.tau if r > 0 else spec.tau) * float(_sech_sq(r))
    if k is LossKind.MSE:
        return 2.0
    if k is LossKind.HUBER and abs(r) != spec.delta:
        return 1.0 if abs(r) < spec.delta else 0.0
    return None  # MAE, check loss, Huber exactly at the knot


def tilted_log_cosh(residual: float, tau: float) -> LossEval:
    """Asymmetric log-cosh: tau logcosh(r) for r <= 0, (1-tau) logcosh(r) for r > 0.

    Smooth surrogate for the check loss at the same level tau; tau = 0.5 gives
    exactly half of the symmetric log-cosh.
    """
    return eval_loss(LossSpec(LossKind.TILTED_LOG_COSH, tau=tau), residual)


def quantile_crossing_penalty(q) -> float:
    """Sum over rows and adjacent quantile columns of max(0, Q[:, p] - Q[:, p+1]).

    Columns must be ordered by ascending quantile level; the result is zero
    iff every row is non-decreasing.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"expected a 2-d latent matrix, got shape {q.shape}")
    if q.shape[1] < 2:
        raise ValueError(f"need at least 2 quantile columns, got {q.shape[1]}")
    return float(np.maximum(0.0, q[:, :-1] - q[:, 1:]).sum())


def quantile_crossing_grad(q) -> np.ndarray:
    """Gradient of quantile_crossing_penalty with respect to the latent matrix."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] < 2:
        raise ValueError(f"expected a 2-d matrix with >= 2 columns, got shape {q.shape}")
    g = np.zeros_like(q)
    crossing = (q[:, :-1] - q[:, 1:]) > 0.0
    g[:, :-1] += crossing
    g[:, 1:] -= crossing
    return g


def batch_loss(spec: LossSpec, predictions, targets, reduction: str = "mean"):
    """Batch loss and gradient with respect to the predictions.

    Arrays may be (m,) or (m, d); multi-output rows are summed per example.
    With ``reduction="mean"`` returns (scalar mean-over-examples loss,
    gradient array shaped like predictions, already divided by m).  With
    ``reduction="none"`` returns (per-example loss array, per-element gradient
    without the 1/m factor).  Every kind but MSE is finite at any finite
    residual; MSE's value is inf, with no warning, once a residual's square
    (|r| above about 1.3e154), or the batch's sum of squares, passes the
    float range.
    """
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: predictions {p.shape} vs targets {t.shape}")
    if p.size == 0:
        raise ValueError("empty batch")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValueError("non-finite predictions or targets")
    value, grad = _batch_value_grad(spec, p - t)
    with np.errstate(over="ignore"):  # a sum of finite MSE values may pass the float range too: inf
        per_example = value if value.ndim == 1 else value.sum(axis=-1)
        if reduction == "none":
            return per_example, grad
        if reduction == "mean":
            m = per_example.shape[0]
            return float(per_example.mean()), grad / m
    raise ValueError(f"unknown reduction {reduction!r}")
