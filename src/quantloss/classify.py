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

from .losses import quantile_crossing_penalty
from .network import MLPModel, ModelStack, derive_seed, predict, stack_models
from .secant_dist import QUARTER_PI, AsymmetricHSD

#: |z| at which e^{-|z|} is held in ``sbqc_loss``; the rest of |z| is added in log space
TAIL_CAP = 700.0


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
        return _latent_matrix(stack_models(self.models), X)


def _latent_matrix(stack: ModelStack, X: np.ndarray) -> np.ndarray:
    """Each head's latents on X as one column, in a C-ordered matrix: the order the crossing
    penalty sums in, so its value is the same bit for bit for any way the columns were made."""
    return np.ascontiguousarray(predict(stack, X)[..., 0].T)


def _check_levels(taus, name: str = "tau_grid") -> tuple[float, ...]:
    """``taus`` as floats if they are non-empty, rise strictly and lie in (0, 1); else a ValueError naming ``name``."""
    taus = tuple(float(t) for t in taus)
    if not taus or any(not 0.0 < t < 1.0 for t in taus) or any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"{name} must be non-empty, rise strictly and lie in (0, 1), got {list(taus)}")
    return taus


def head_seed(seed: int, tau: float) -> int:
    """Deterministic per-head seed keyed by the quantile level."""
    return derive_seed(seed, round(tau * 1e9))


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
    config=None,
) -> MultiQuantileModel:
    """Jointly fit one head per quantile level with the crossing penalty.

    The batch objective is sum over levels of the mean sBQC loss plus
    reg_weight times the crossing penalty on the batch latent matrix.  With
    reg_weight = 0 the heads decouple and the result is identical to training
    each level separately with the same seeds.  The grid trains as one run of
    the trainer's Adam loop, with no validation split, and its final heads
    are returned.  A classification ``TrainConfig`` as ``config`` (another
    task is refused) sets the network, the optimizer (L-BFGS is refused: the
    grid has no line search), the lr policy, dropout, epochs, batch size and
    seed in place of the other arguments.  ``penalty_history`` receives the
    crossing penalty on X after each epoch.  A diverging head raises a
    ValueError naming its level and epoch.
    """
    from .trainer import OptimizerSpec, TrainConfig, _layer_spec, _train_adam  # trainer imports this module

    X, y, taus = np.asarray(X, dtype=float), np.asarray(y, dtype=float), _check_levels(tau_grid)
    if reg_weight < 0.0 or (reg_weight > 0.0 and len(taus) < 2):
        raise ValueError(f"reg_weight must be >= 0, and 0 for a grid of one level, got {reg_weight}")
    if config is None:
        config = TrainConfig(task="classification", hidden_sizes=tuple(hidden_sizes), activation=activation,
                             optimizer=OptimizerSpec(lr=lr), epochs=epochs, batch_size=batch_size, seed=seed)
    if config.task != "classification":
        raise ValueError(f"task {config.task!r} cannot train a tau grid, whose heads classify binary labels")
    if config.optimizer.kind == "lbfgs":
        raise ValueError("optimizer.kind 'lbfgs' cannot train a tau grid, which has no line search")

    def record_penalty(stack) -> None:
        penalty_history.append(quantile_crossing_penalty(_latent_matrix(stack, X)))

    spec = _layer_spec(config, X.shape[1], 1)
    (run,) = _train_adam(config, spec, X, y, None, None, [config.seed], taus, reg_weight,
                         record_penalty if penalty_history is not None and len(taus) >= 2 else None)
    if run.diverged:
        raise ValueError(f"tau = {taus[run.diverged_at[1]]:g} head diverged in epoch {run.diverged_at[0]}")
    heads = ModelStack(spec, tuple(head_seed(config.seed, t) for t in taus), run.final_params).unstack()
    return MultiQuantileModel(taus, heads)


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
    Levels whose latents are not finite along the sweep raise a ValueError
    naming them.
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
    bad = ~np.isfinite(q).all(axis=0)
    if bad.any():
        raise ValueError(f"latents are not finite at tau = {', '.join(f'{t:g}' for t in taus[bad])}")

    # a row's root is at the first level whose latent is 0, or whose latent and the
    # next level's straddle 0; a 0 at the last level is a straddle's upper end
    a, b = q[:, :-1], q[:, 1:]
    hit = (a == 0.0) | ((a < 0) & (b >= 0)) | ((a > 0) & (b <= 0))
    found = hit.any(axis=1)
    rows = np.nonzero(found)[0]
    p = hit[rows].argmax(axis=1)
    a, b, lo, hi = q[rows, p], q[rows, p + 1], taus[p], taus[p + 1]
    tau_star = np.full(sweep.size, np.nan)
    tau_star[rows] = lo
    s = a != 0.0  # interpolate the straddles only: a level whose latent is 0 is its own root
    tau_star[rows[s]] = lo[s] + (0.0 - a[s]) * (hi[s] - lo[s]) / (b[s] - a[s])
    status = np.where(found, "ok", np.where(q[:, 0] > 0, "below_grid", "above_grid")).tolist()
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
