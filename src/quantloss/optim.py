"""Optimizers and learning-rate policies.

Three pieces live here: bias-corrected Adam, the analytic Lipschitz constants
that drive the adaptive learning rate (regression final-layer constant and the
classification loss constant), and limited-memory BFGS with two-loop recursion
plus backtracking Armijo line search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .losses import LossKind, LossSpec, slope_bound

#: smallest layer constant we report; keeps 1/K finite for degenerate batches
K_FLOOR = 1e-12

#: default clamp window for the adaptive learning rate
LR_MIN_DEFAULT = 1e-4
LR_MAX_DEFAULT = 10.0

#: pairs with s.y at or below this are never stored (protects positive
#: definiteness of the implicit inverse Hessian)
CURVATURE_MIN = 1e-10


@dataclass(frozen=True)
class LipschitzContext:
    """Per-batch quantities entering the final-layer gradient constant.

    ``m`` is the batch size, ``y_norm`` the largest label-row 2-norm seen
    across batches, ``k_z`` the largest penultimate activation magnitude from
    the forward trace, ``g_at_zero`` the output activation at 0, and ``tau``
    the quantile marker when the classification loss is in play.  ``k_z`` may be a list of one value per
    head; ``y_norm`` and ``tau`` are then one value or a list as long, and the constants give one K per head.
    """

    m: int
    y_norm: float | list[float]
    k_z: float | list[float]
    g_at_zero: float = 0.0
    tau: float | list[float] | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"batch size must be >= 1, got {self.m}")
        for name in ("y_norm", "tau"):
            v = getattr(self, name)
            if isinstance(v, list) and not (isinstance(self.k_z, list) and len(v) == len(self.k_z)):
                raise ValueError(f"{name} has {len(v)} entries; a list needs one per entry of a list k_z")
        if min(self._heads("k_z"), default=0.0) < 0:
            raise ValueError(f"k_z must be >= 0, got {min(self._heads('k_z'))}")
        for name in ("y_norm", "k_z", "g_at_zero"):
            if not all(map(math.isfinite, self._heads(name))):
                raise ValueError(f"{name} must be finite")

    def _heads(self, name: str) -> list:
        """A field's value for each head: a list's entries, or its one value for every head."""
        v = getattr(self, name)
        return v if isinstance(v, list) else [v] * (len(self.k_z) if isinstance(self.k_z, list) else 1)


def regression_lipschitz_constant(ctx: LipschitzContext, loss: LossSpec = LossSpec(LossKind.LOG_COSH)) -> float | list:
    """Final-layer gradient constant for regression, by default under log-cosh with h = 1.

    K = (1/m) s(|g(0) - ||y|||) k_z with s the loss's ``slope_bound`` (tanh at log-cosh h = 1),
    floored at 1e-12.  The absolute value keeps K nonnegative whatever the sign of g(0) - ||y||.
    Each head's K is this scalar formula, with s taken once per distinct ||y|| (one per fold).
    """
    slopes = {y: slope_bound(loss, abs(ctx.g_at_zero - y)) for y in set(ctx._heads("y_norm"))}
    ks = [max((1.0 / ctx.m) * slopes[y] * k, K_FLOOR) for y, k in zip(ctx._heads("y_norm"), ctx._heads("k_z"))]
    return ks if isinstance(ctx.k_z, list) else ks[0]


def sbqc_lipschitz_constant(tau: float) -> float:
    """Slope constant of the binary quantile classification loss.

    (2/pi) max(1, (1-tau)/tau, tau/(1-tau)); the third ratio is taken in
    absolute value since a Lipschitz constant bounds absolute slopes.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be inside (0, 1), got {tau}")
    return (2.0 / math.pi) * max(1.0, (1.0 - tau) / tau, tau / (1.0 - tau))


def sbqc_layer_lipschitz_constant(ctx: LipschitzContext) -> float | list[float]:
    """Final-layer gradient constant for sBQC training.

    The batch-mean gradient of the loss with respect to a last-layer weight is
    a mean of per-example terms, each bounded by the loss slope constant times
    the penultimate activation, so K = sbqc_constant(tau) * k_z (floored), per head.
    """
    if ctx.tau is None:
        raise ValueError("context has no tau; required for the sBQC constant")
    constants = {tau: sbqc_lipschitz_constant(tau) for tau in set(ctx._heads("tau"))}
    ks = [max(constants[tau] * k, K_FLOOR) for tau, k in zip(ctx._heads("tau"), ctx._heads("k_z"))]
    return ks if isinstance(ctx.k_z, list) else ks[0]


def lalr_lr(K: float, lr_min: float = LR_MIN_DEFAULT, lr_max: float = LR_MAX_DEFAULT) -> float:
    """Adaptive learning rate clamp(1/K, lr_min, lr_max), recomputed per batch."""
    if not K > 0:
        raise ValueError(f"K must be > 0, got {K}")
    if not 0 < lr_min <= lr_max:
        raise ValueError(f"need 0 < lr_min <= lr_max, got [{lr_min}, {lr_max}]")
    return min(max(1.0 / K, lr_min), lr_max)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    exp_avg: np.ndarray
    exp_avg_sq: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    #: two buffers the update is computed in, so a step allocates no temporaries
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = np.shape(self.exp_avg)
        self.scratch = (np.empty(shape), np.empty(shape))

    @classmethod
    def zeros(cls, n: int, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0, beta1, beta2, eps)


def _head_rates(lr, size: int) -> np.ndarray:
    """A checked vector of per-head rates, as a (heads, 1) column."""
    rates = np.asarray(lr, dtype=float)
    if rates.ndim != 1 or rates.size == 0 or size % rates.size:
        raise ValueError(
            f"lr must be a scalar or one rate per equal head slice of {size} params, "
            f"got shape {rates.shape}"
        )
    bad = np.flatnonzero(~(np.isfinite(rates) & (rates > 0)))
    if bad.size:
        raise ValueError(f"lr[{bad[0]}] must be finite and > 0, got {rates[bad[0]]}")
    return rates[:, None]


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float | Sequence[float] | np.ndarray
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of ``params`` in place; returns (params, state).

    A float64 ``params`` array is updated in place and returned, so a buffer
    such as ``MLPModel.params`` holds the new values; any other input is
    converted to a new float64 array, which is updated and returned.  The
    state is mutated in place too.  ``lr`` is one rate, or a vector of one
    rate per head: ``params`` is then read as that many equal head slices
    (the layout of ``ModelStack.params``), and head j's slice steps exactly
    as it would alone at rate ``lr[j]``.  Every check runs before anything is
    written: mismatched shapes, a non-positive lr (or a per-head rate that is
    not finite and positive, or a vector that does not divide ``params``), a
    read-only ``params`` or a non-finite gradient raise ValueError and leave
    params and state unchanged.
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.exp_avg.shape:
        raise ValueError("params, grads and state must share one shape")
    if np.ndim(lr) == 0:
        if not lr > 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        rates = None
    else:
        rates = _head_rates(lr, params.size)
    if not params.flags.writeable:
        raise ValueError("params must be writable; the step updates them in place")
    if not np.isfinite(grads).all():
        raise ValueError("non-finite gradient; step rejected")
    state.step += 1
    # one operation per line, in the textbook formula's order, so the rounding is unchanged
    s, t = state.scratch
    state.exp_avg *= state.beta1
    state.exp_avg += np.multiply(grads, 1.0 - state.beta1, out=s)
    state.exp_avg_sq *= state.beta2
    np.multiply(grads, 1.0 - state.beta2, out=s)
    state.exp_avg_sq += np.multiply(s, grads, out=s)
    np.divide(state.exp_avg, 1.0 - state.beta1**state.step, out=s)  # m_hat
    if rates is None:
        s *= lr
    else:
        per_head = s.reshape(rates.shape[0], -1)
        per_head *= rates
    np.divide(state.exp_avg_sq, 1.0 - state.beta2**state.step, out=t)  # v_hat
    np.sqrt(t, out=t)
    t += state.eps
    s /= t
    params -= s
    return params, state


# ---------------------------------------------------------------------------
# L-BFGS
# ---------------------------------------------------------------------------

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass
class LBFGSMemory:
    """Ring of the most recent (s, y) displacement/gradient-change pairs."""

    m_hist: int = 10
    s_list: list[np.ndarray] = field(default_factory=list)
    y_list: list[np.ndarray] = field(default_factory=list)
    rho_list: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.s_list)

    def push(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Store the pair unless its curvature s.y is at or below the filter."""
        sy = float(s @ y)
        if sy <= CURVATURE_MIN:
            return False
        self.s_list.append(np.asarray(s, dtype=float))
        self.y_list.append(np.asarray(y, dtype=float))
        self.rho_list.append(1.0 / sy)
        if len(self.s_list) > self.m_hist:
            self.s_list.pop(0)
            self.y_list.pop(0)
            self.rho_list.pop(0)
        return True

    def clear(self) -> None:
        self.s_list.clear()
        self.y_list.clear()
        self.rho_list.clear()

    def curvatures(self) -> list[float]:
        return [1.0 / r for r in self.rho_list]


def lbfgs_direction(mem: LBFGSMemory, grad: np.ndarray) -> np.ndarray:
    """Two-loop recursion estimate of -H grad.

    The initial matrix is gamma I with gamma = s.y / y.y from the most recent
    pair (identity when the memory is empty).  If the result is not a descent
    direction it falls back to -grad.
    """
    g = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite gradient")
    q = g.copy()
    alphas: list[float] = []
    for s, y, rho in zip(reversed(mem.s_list), reversed(mem.y_list), reversed(mem.rho_list)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if mem.s_list:
        s_last, y_last = mem.s_list[-1], mem.y_list[-1]
        gamma = float(s_last @ y_last) / float(y_last @ y_last)
    else:
        gamma = 1.0
    r = gamma * q
    for (s, y, rho), a in zip(zip(mem.s_list, mem.y_list, mem.rho_list), reversed(alphas)):
        b = rho * float(y @ r)
        r += (a - b) * s
    p = -r
    if float(p @ g) >= 0.0:
        return -g
    return p


@dataclass
class LBFGSStep:
    params: np.ndarray
    value: float
    grad: np.ndarray
    accepted: bool
    step_size: float
    evaluations: int


def lbfgs_step(
    objective: Objective,
    params: np.ndarray,
    mem: LBFGSMemory,
    c1: float = 1e-4,
    max_backtracks: int = 25,
    value_grad: tuple[float, np.ndarray] | None = None,
) -> LBFGSStep:
    """One quasi-Newton step with backtracking Armijo line search.

    The step size starts at 1 and halves until f(x + t p) <= f(x) + c1 t g.p
    (at most ``max_backtracks`` trials).  On success the memory is updated
    with (s, y) subject to the curvature filter; on exhaustion the step is
    rejected, the memory cleared, and the caller notified via ``accepted``.
    The objective must be deterministic during the step (dropout off).
    """
    x0 = np.asarray(params, dtype=float)
    evals = 0
    if value_grad is None:
        f0, g0 = objective(x0)
        evals += 1
    else:
        f0, g0 = value_grad
    g0 = np.asarray(g0, dtype=float)
    p = lbfgs_direction(mem, g0)
    gp = float(g0 @ p)
    t = 1.0
    for _ in range(max_backtracks):
        x1 = x0 + t * p
        f1, g1 = objective(x1)
        evals += 1
        if math.isfinite(f1) and f1 <= f0 + c1 * t * gp:
            mem.push(x1 - x0, np.asarray(g1, dtype=float) - g0)
            return LBFGSStep(x1, float(f1), np.asarray(g1, dtype=float), True, t, evals)
        t *= 0.5
    mem.clear()
    return LBFGSStep(x0, float(f0), g0, False, 0.0, evals)


@dataclass
class MinimizeResult:
    x: np.ndarray
    value: float
    grad: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool
    values: list[float]


def minimize_lbfgs(
    objective: Objective,
    x0: np.ndarray,
    max_iter: int = 100,
    gtol: float = 1e-8,
    m_hist: int = 10,
    c1: float = 1e-4,
    max_backtracks: int = 25,
    callback: Callable[[int, LBFGSStep], bool] | None = None,
) -> MinimizeResult:
    """Run L-BFGS until the gradient 2-norm falls to gtol or max_iter is hit.

    ``callback(iteration, step)`` sees every ``lbfgs_step``; False ends the run at ``step.params``
    after iteration + 1 iterations.  A rejected step clears the memory, so the next starts from
    steepest descent; one rejected from an empty memory, which would only repeat, ends the run.
    """
    x = np.asarray(x0, dtype=float).copy()
    mem = LBFGSMemory(m_hist=m_hist)
    f, g = objective(x)
    g = np.asarray(g, dtype=float)
    values = [float(f)]

    def result(iterations: int) -> MinimizeResult:
        gnorm = float(np.linalg.norm(g))
        return MinimizeResult(x, float(f), g, gnorm, iterations, gnorm <= gtol, values)

    for it in range(max_iter):
        if float(np.linalg.norm(g)) <= gtol:
            return result(it)
        had_memory = len(mem) > 0
        step = lbfgs_step(objective, x, mem, c1, max_backtracks, value_grad=(f, g))
        if step.accepted:
            x, f, g = step.params, step.value, step.grad
            values.append(float(f))
        if callback is not None and not callback(it, step):
            return result(it + 1)
        if not (step.accepted or had_memory):
            return result(it)
    return result(max_iter)
