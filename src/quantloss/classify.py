"""Binary quantile classification: the smooth sBQC loss, its probability map,
joint multi-quantile training with the crossing penalty, and quantile curves.

Two latent conventions meet here and the code keeps them straight:

* ``sbqc_loss`` / ``predict_prob`` score a raw latent z through the
  probability map p = 1 - F_tau(z).
* Multi-quantile heads output Q_x(tau), the tau-quantile of the generative
  latent with y = 1{latent >= 0}.  Larger Q means more class-1 mass, Q rises
  with tau, and Q_x(tau) = 0 exactly when P(y=0 | x) = tau.  A head is trained
  by scoring -Q through ``sbqc_loss``, which makes its optimum that quantile;
  the crossing penalty and the curve solver then see ascending latents.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .losses import quantile_crossing_grad, quantile_crossing_penalty
from .network import LayerSpec, MLPModel, Workspace, backward, forward, init_model, stack_models
from .optim import AdamState, adam_step
from .secant_dist import QUARTER_PI, AsymmetricHSD

#: |z| at which e^{-|z|} is held in ``sbqc_loss``; the rest of |z| is added in log space
TAIL_CAP = 700.0


@dataclass(frozen=True)
class SBQCSpec:
    """Quantile marker plus the crossing-penalty weight for multi-quantile runs."""

    tau: float
    reg_weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be inside (0, 1), got {self.tau}")
        if self.reg_weight < 0.0:
            raise ValueError(f"reg_weight must be >= 0, got {self.reg_weight}")


def predict_prob(z, tau):
    """P(y = 1) for a latent z: 1 - F_tau(z), exact in both tails.

    Threshold 0.5 gives the label.  A vector of levels broadcasts along the
    last axis of z.
    """
    return AsymmetricHSD(tau).cdf(z, upper=True)


def sbqc_loss(y, z, tau):
    """Negative log-likelihood of a binary label under p = 1 - F_tau(z).

    Tail-exact, with no clamp.  The label's probability is either the tail
    t = w arctan(e^{-|z|}) / (pi/4) of z's side of 0 (w = tau left of 0,
    1 - tau from 0 on) or 1 - t.  On the tail side the value is -log t, taken
    as -log(w arctan(e^{-c}) / (pi/4)) + (|z| - c) with c = min(|z|, 700), so
    it keeps growing like |z|, and the slope is sech(z) / (2 arctan e^{-|z|})
    = u / (a (1 + u^2)) with u = e^{-c}, a = arctan(u), which tends to 1.  On
    the other side the value is -log1p(-t) and the slope pdf(z) / (1 - t).
    z = 0 counts as the right side, as in ``pdf``, so the slope there is the
    right-hand derivative.
    Accepts scalars or arrays that broadcast; returns (value, grad_z).  A
    vector of levels broadcasts along the last axis of z, one level per
    column, with each element computed as with its level alone.
    """
    dist = AsymmetricHSD(tau)
    y_arr = np.asarray(y, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    positive = y_arr == 1.0
    if not (positive | (y_arr == 0.0)).all():
        raise ValueError("labels must lie in {0, 1}")
    if not np.isfinite(z_arr).all():
        raise ValueError("latent values must be finite")
    right = z_arr >= 0.0
    abs_z = np.abs(z_arr)
    capped = np.minimum(abs_z, TAIL_CAP)
    u = np.exp(-capped)
    a = np.arctan(u)
    tail = np.where(right, 1.0 - dist.tau, dist.tau) * (a / QUARTER_PI)
    # the label's probability is the tail for y = 1 right of 0 and y = 0 left of it
    in_tail = right == positive
    value = np.where(in_tail, (abs_z - capped) - np.log(tail), -np.log1p(-tail))
    slope = np.where(in_tail, u / (a * (1.0 + u * u)), dist.pdf(z_arr) / (1.0 - tail))
    grad = np.where(positive, slope, -slope)
    if value.ndim == 0:
        return float(value), float(grad)
    return value, grad


def sbqc_batch_loss(y, z, tau) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean sBQC loss over a batch and its gradient with respect to z.

    With a vector of levels, z is an (m, levels) matrix, y broadcasts against
    it (an (m, 1) label column), and the value is the sum over levels of each
    level's batch mean.  With one level and a 2-d z, each row of z is its own
    batch of m = z.shape[1] latents (y broadcasts against z), and the value
    is one mean per row, each equal to ``np.mean`` of that row's losses
    alone.  The gradient is elementwise divided by m in every case.
    """
    z = np.asarray(z, float)
    value, grad = sbqc_loss(np.asarray(y, float), z, tau)
    if np.ndim(tau) == 0:
        m = z.shape[-1]
        if z.ndim == 2:
            # a contiguous row reduces in the order np.mean gives it alone
            return np.add.reduce(value, axis=1) / m, grad / m
        return float(np.mean(value)), grad / m
    m = z.shape[0]
    # one contiguous row per level, so each sum runs in a single level's order,
    # and dividing by m then gives what np.mean gives for that level alone
    sums = np.add.reduce(np.ascontiguousarray(value.T), axis=1)
    return sum((sums / m).tolist()), grad / m


@dataclass
class MultiQuantileModel:
    """One latent head per quantile level, trained on a shared grid."""

    tau_grid: tuple[float, ...]
    models: list[MLPModel]

    def latents(self, X: np.ndarray) -> np.ndarray:
        """Q_x(tau_p) matrix, rows = examples, columns = ascending grid levels."""
        cols = [forward(m, X)[0][:, 0] for m in self.models]
        return np.column_stack(cols)


def head_seed(seed: int, tau: float) -> int:
    """Deterministic per-head seed keyed by the quantile level."""
    ss = np.random.SeedSequence([int(seed), int(round(tau * 1e9))])
    return int(ss.generate_state(1)[0])


def multi_quantile_train(
    X,
    y,
    tau_grid,
    hidden_sizes=(100,),
    activation: str = "relu",
    reg_weight: float = 1.0,
    epochs: int = 100,
    batch_size: int = 64,
    lr: float = 0.01,
    seed: int = 0,
    penalty_history: list | None = None,
) -> MultiQuantileModel:
    """Jointly fit one head per quantile level with the crossing penalty.

    The batch objective is sum over levels of the mean sBQC loss plus
    reg_weight times the crossing penalty on the batch latent matrix.  With
    reg_weight = 0 the heads decouple and the result is identical to training
    each level separately with the same seeds.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    taus = [float(t) for t in tau_grid]
    if len(taus) == 0:
        raise ValueError("tau_grid must be non-empty")
    if any(not 0.0 < t < 1.0 for t in taus):
        raise ValueError(f"every tau must lie inside (0, 1), got {taus}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"tau_grid must be strictly increasing, got {taus}")
    if reg_weight < 0.0:
        raise ValueError(f"reg_weight must be >= 0, got {reg_weight}")
    if reg_weight > 0.0 and len(taus) < 2:
        raise ValueError("crossing penalty needs a grid of at least 2 levels")

    n = X.shape[0]
    spec = LayerSpec(
        input_dim=X.shape[1],
        hidden_sizes=tuple(hidden_sizes),
        output_dim=1,
        activation=activation,
        dropout=0.0,
    )
    # the heads train as one stack: one forward, sBQC, backward and Adam step per batch
    stack = stack_models([init_model(spec, head_seed(seed, t)) for t in taus])
    ws = Workspace(spec, stack.heads)
    state = AdamState.zeros(stack.params.size)
    levels = np.array(taus)
    batch_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xBA7C4]))

    for epoch in range(epochs):
        order = batch_rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = X[idx], y[idx]
            out, trace = forward(stack, xb, workspace=ws)
            q = out[..., 0].T  # (m, heads) latent matrix
            # sBQC scores the negated quantile head (see module docstring)
            _, g = sbqc_batch_loss(yb[:, None], -q, levels)
            grad_q = -g
            if reg_weight > 0.0:
                grad_q = grad_q + reg_weight * quantile_crossing_grad(q)
            backward(stack, trace, grad_q.T[..., None], workspace=ws)
            adam_step(state, stack.params, ws.grad, lr)
        if penalty_history is not None and len(taus) >= 2:
            penalty_history.append(quantile_crossing_penalty(
                MultiQuantileModel(tuple(taus), stack.unstack()).latents(X)))
    return MultiQuantileModel(tuple(taus), stack.unstack())


@dataclass
class QuantileCurve:
    """Per swept feature value, the level tau* at which the latent crosses zero.

    ``status`` is "ok" where a sign change was found, "below_grid" when every
    latent is positive (class 1 at every fitted quantile) and "above_grid"
    when every latent is negative; tau_star is NaN outside the grid.
    """

    feature_index: int
    tau_grid: tuple[float, ...]
    feature_values: np.ndarray
    tau_star: np.ndarray
    status: list[str] = field(default_factory=list)


def quantile_curve(
    mq: MultiQuantileModel,
    feature_index: int,
    sweep_values,
    background,
) -> QuantileCurve:
    """Solve Q_x(tau) = 0 along a one-feature sweep.

    ``background`` fixes the remaining features.  The root is linearly
    interpolated between the two adjacent grid levels whose latents straddle
    zero; rows whose latents all share one sign are marked out of range.
    """
    taus = np.asarray(mq.tau_grid, dtype=float)
    if taus.size < 2:
        raise ValueError("need a grid of at least 2 quantile levels")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("tau grid must be strictly increasing")
    sweep = np.asarray(sweep_values, dtype=float)
    if sweep.size == 0:
        raise ValueError("empty sweep")
    background = np.asarray(background, dtype=float)
    d = mq.models[0].spec.input_dim
    if background.shape != (d,):
        raise ValueError(f"background must have shape ({d},), got {background.shape}")
    if not 0 <= feature_index < d:
        raise ValueError(f"feature_index {feature_index} outside [0, {d})")

    X = np.tile(background, (sweep.size, 1))
    X[:, feature_index] = sweep
    q = mq.latents(X)

    tau_star = np.full(sweep.size, np.nan)
    status: list[str] = []
    for i in range(sweep.size):
        row = q[i]
        if np.all(row > 0):
            status.append("below_grid")
            continue
        if np.all(row < 0):
            status.append("above_grid")
            continue
        found = False
        for p in range(len(taus) - 1):
            a, b = row[p], row[p + 1]
            if a == 0.0:
                tau_star[i] = taus[p]
                found = True
                break
            if (a < 0 <= b) or (a > 0 >= b):
                tau_star[i] = taus[p] + (0.0 - a) * (taus[p + 1] - taus[p]) / (b - a)
                found = True
                break
        if not found and row[-1] == 0.0:
            tau_star[i] = taus[-1]
            found = True
        status.append("ok" if found else ("below_grid" if row[0] > 0 else "above_grid"))
    return QuantileCurve(feature_index, tuple(float(t) for t in taus), sweep, tau_star, status)


def curve_to_csv(curve: QuantileCurve, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["feature_value", "tau_star"])
        for x, t in zip(curve.feature_values, curve.tau_star):
            w.writerow([repr(float(x)), repr(float(t))])


def curve_to_json(curve: QuantileCurve, path) -> None:
    doc = {
        "feature_index": curve.feature_index,
        "tau_grid": list(curve.tau_grid),
        "feature_values": [float(v) for v in curve.feature_values],
        "tau_star": [None if math.isnan(t) else float(t) for t in curve.tau_star],
        "status": list(curve.status),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
