"""Property suite: every analytic invariant the library claims, measured.

Each check returns a PropertyResult with the measured extreme, the limit it
must respect, and the margin.  The CLI renders these as a table; the test
suite asserts them.  One check is expected to fail and is flagged as such:
the classification-loss slope bound at tau = 0.5 (see the README's "Known
bound defect" section).  ``run_all`` treats an expected failure that fails as
satisfied unless ``strict`` is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classify, losses, network, optim, secant_dist, synthetic, trainer

DIST_TAUS = (0.05, 0.25, 0.5, 0.75, 0.95)
SBQC_TAUS = (0.1, 0.25, 0.5, 0.75, 0.9)

#: the 8-row classification fixture of a source checkout (the tests load it)
TOY_CLASSIFICATION = Path(__file__).resolve().parents[2] / "data" / "fixtures" / "toy_classification.csv"


@dataclass
class PropertyResult:
    name: str
    measured: float
    limit: float
    passed: bool
    mode: str = "max"  # measured must stay <= limit ("max") or >= limit ("min")
    expected_failure: bool = False
    note: str = ""

    @property
    def margin(self) -> float:
        return self.limit - self.measured if self.mode == "max" else self.measured - self.limit


def _smooth_specs() -> list[losses.LossSpec]:
    return [
        losses.LossSpec(losses.LossKind.LOG_COSH, h=1.0),
        losses.LossSpec(losses.LossKind.LOG_COSH, h=0.7),
        losses.LossSpec(losses.LossKind.LOG_COSH, h=2.5),
        losses.LossSpec(losses.LossKind.TILTED_LOG_COSH, tau=0.25),
        losses.LossSpec(losses.LossKind.TILTED_LOG_COSH, tau=0.5),
        losses.LossSpec(losses.LossKind.TILTED_LOG_COSH, tau=0.9),
        losses.LossSpec(losses.LossKind.MSE),
        losses.LossSpec(losses.LossKind.HUBER, delta=1.0),
        losses.LossSpec(losses.LossKind.HUBER, delta=0.3),
    ]


def check_loss_gradients(seed: int = 0, cases: int = 200) -> PropertyResult:
    """Analytic gradients vs central differences (step 1e-5) on smooth kinds."""
    rng = np.random.default_rng(seed)
    specs = _smooth_specs()
    h = 1e-5
    worst = 0.0
    for _ in range(cases):
        spec = specs[rng.integers(len(specs))]
        r = float(rng.uniform(-8.0, 8.0))
        if spec.kind is losses.LossKind.HUBER and (
            abs(abs(r) - spec.delta) < 1e-3
        ):
            r += 2e-3  # keep the stencil off the knot
        if spec.kind is losses.LossKind.TILTED_LOG_COSH and abs(r) < 1e-3:
            r += 2e-3  # tilted weight switches at 0
        fd = (losses.eval_loss(spec, r + h).value - losses.eval_loss(spec, r - h).value) / (2 * h)
        worst = max(worst, abs(losses.eval_loss(spec, r).grad - fd))
    return PropertyResult("losses.gradient_fd", worst, 1e-6, worst <= 1e-6)


def check_convexity(seed: int = 0, instances: int = 20) -> PropertyResult:
    """Minimum eigenvalue of the linear log-cosh Hessian X^T D X over random instances."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(instances):
        m = int(rng.integers(1, 11))
        d = int(rng.integers(1, 11))
        X = rng.normal(size=(m, d))
        y = rng.normal(size=m)
        theta = rng.normal(size=d)
        r = y - X @ theta
        D = np.diag(1.0 / np.cosh(r) ** 2)
        H = X.T @ D @ X
        worst = min(worst, float(np.linalg.eigvalsh(H).min()))
    return PropertyResult("losses.convexity_min_eig", worst, -1e-10, worst >= -1e-10, mode="min")


def check_midpoint_convexity(seed: int = 0, pairs: int = 10_000) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for spec in _smooth_specs():
        a = rng.uniform(-12, 12, pairs)
        b = rng.uniform(-12, 12, pairs)
        va, _ = losses._batch_value_grad(spec, a)
        vb, _ = losses._batch_value_grad(spec, b)
        vm, _ = losses._batch_value_grad(spec, (a + b) / 2)
        worst = max(worst, float(np.max(vm - (va + vb) / 2)))
    return PropertyResult("losses.midpoint_convexity", worst, 1e-12, worst <= 1e-12)


def check_one_lipschitz(seed: int = 0, pairs: int = 100_000) -> PropertyResult:
    rng = np.random.default_rng(seed)
    a = rng.uniform(-30, 30, pairs)
    b = rng.uniform(-30, 30, pairs)
    num = np.abs(losses.log_cosh(a) - losses.log_cosh(b))
    den = np.abs(a - b)
    keep = den > 1e-12
    worst = float(np.max(num[keep] / den[keep]))
    return PropertyResult("losses.one_lipschitz", worst, 1.0 + 1e-12, worst <= 1.0 + 1e-12)


def check_noise_robustness(seed: int = 0, points: int = 10_000) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for eps in (1e-3, 1e-6):
        x = rng.uniform(-20, 20, points)
        delta = np.abs(losses.log_cosh(x + eps) - losses.log_cosh(x))
        worst = max(worst, float(np.max(delta - eps)))
    return PropertyResult("losses.noise_robustness", worst, 1e-12, worst <= 1e-12)


def check_asymptote() -> PropertyResult:
    x = np.concatenate([np.linspace(20, 700, 2000), np.linspace(-700, -20, 2000)])
    err = float(np.max(np.abs(losses.log_cosh(x) - (np.abs(x) - math.log(2.0)))))
    return PropertyResult("losses.asymptote", err, 1e-8, err <= 1e-8)


def check_tilted_interop() -> PropertyResult:
    r = np.linspace(-40, 40, 4001)
    worst = 0.0
    for ri in r:
        tv = losses.tilted_log_cosh(float(ri), 0.5).value
        worst = max(worst, abs(tv - 0.5 * float(losses.log_cosh(ri))))
    return PropertyResult("losses.tilted_half_logcosh", worst, 0.0, worst == 0.0)


def check_crossing_zero_iff_monotone(seed: int = 0, cases: int = 500) -> PropertyResult:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(cases):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(2, 6))
        q = rng.normal(size=(n, m))
        if rng.random() < 0.5:
            q = np.sort(q, axis=1)  # force the monotone case half the time
        penalty = losses.quantile_crossing_penalty(q)
        monotone = all(
            q[i, p] <= q[i, p + 1] for i in range(n) for p in range(m - 1)
        )
        if (penalty == 0.0) != monotone:
            bad += 1
    return PropertyResult("losses.crossing_zero_iff_monotone", float(bad), 0.0, bad == 0)


def check_pdf_quadrature() -> PropertyResult:
    """Simpson quadrature of the density over [-50, 50], split at the jump."""
    worst = 0.0
    for tau in DIST_TAUS:
        d = secant_dist.AsymmetricHSD(tau)
        total = _pdf_integral(d, -50.0, 0.0) + _pdf_integral(d, 0.0, 50.0)
        worst = max(worst, abs(total - 1.0))
    return PropertyResult("dist.pdf_quadrature", worst, 1e-6, worst <= 1e-6)


def _simpson(f, a: float, b: float, n: int = 4001) -> float:
    """Composite Simpson rule on n (odd) points."""
    if a == b:
        return 0.0
    x = np.linspace(a, b, n)
    y = f(x)
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _pdf_integral(d: secant_dist.AsymmetricHSD, a: float, b: float) -> float:
    """Quadrature of the density, split at the jump when straddling 0.

    Each half-line carries a constant weight times (2/pi) sech, so the weight
    is factored out; evaluating d.pdf at the jump itself would assign the
    closing endpoint the wrong one-sided value.
    """
    two_over_pi = 2.0 / math.pi

    def side(lo: float, hi: float, weight: float) -> float:
        return weight * two_over_pi * _simpson(secant_dist.sech, lo, hi)

    if b <= 0:
        return side(a, b, d.tau)
    if a >= 0:
        return side(a, b, 1.0 - d.tau)
    return side(a, 0.0, d.tau) + side(0.0, b, 1.0 - d.tau)


def check_cdf_antiderivative(seed: int = 0, intervals: int = 100) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for tau in DIST_TAUS:
        d = secant_dist.AsymmetricHSD(tau)
        for _ in range(intervals // len(DIST_TAUS) + 1):
            a, b = np.sort(rng.uniform(-15, 15, 2))
            integral = _pdf_integral(d, float(a), float(b))
            worst = max(worst, abs(float(d.cdf(b)) - float(d.cdf(a)) - integral))
    return PropertyResult("dist.cdf_antiderivative", worst, 1e-8, worst <= 1e-8)


def check_cdf_strictly_increasing(seed: int = 0, points: int = 10_000) -> PropertyResult:
    rng = np.random.default_rng(seed)
    bad = 0
    for tau in DIST_TAUS:
        d = secant_dist.AsymmetricHSD(tau)
        x = rng.uniform(-15, 15, points)
        bad += int(np.sum(d.cdf(x + 1e-6) <= d.cdf(x)))
    return PropertyResult("dist.cdf_strictly_increasing", float(bad), 0.0, bad == 0)


def check_cdf_symmetry() -> PropertyResult:
    d = secant_dist.AsymmetricHSD(0.5)
    x = np.linspace(-25, 25, 5001)
    err = float(np.max(np.abs(d.cdf(-x) - (1.0 - d.cdf(x)))))
    return PropertyResult("dist.tau_half_symmetry", err, 1e-12, err <= 1e-12)


def check_inv_cdf_roundtrip() -> PropertyResult:
    """Both round trips: through p at 1e-9, and through x at 1e-7 up to the float64 conditioning
    floor ulp/pdf(x) in the far thin tail, and from -20 to -700 at 1e-12 relative."""
    worst = 0.0
    ok = True
    x = np.linspace(-20, 20, 2001)
    left = -np.geomspace(20, 700, 200)
    p = np.linspace(1e-6, 1 - 1e-6, 2001)
    ulp = np.finfo(float).eps
    for tau in DIST_TAUS:
        d = secant_dist.AsymmetricHSD(tau)
        worst = max(worst, float(np.max(np.abs(d.cdf(d.inv_cdf(p)) - p))))
        err_x = np.abs(d.inv_cdf(d.cdf(x)) - x)
        allowed = np.maximum(1e-7, 4.0 * ulp / np.maximum(d.pdf(x), 1e-300))
        ok = ok and bool(np.all(err_x <= allowed))
        ok = ok and bool(np.all(np.abs(d.inv_cdf(d.cdf(left)) / left - 1.0) <= 1e-12))
    return PropertyResult("dist.invcdf_cdf_identity", worst, 1e-9, ok and worst <= 1e-9)


def check_sample_ks(seed: int = 0, n: int = 100_000) -> PropertyResult:
    worst = 0.0
    for tau in DIST_TAUS:
        d = secant_dist.AsymmetricHSD(tau)
        s = np.sort(d.sample(seed, n))
        F = d.cdf(s)
        i = np.arange(1, n + 1)
        ks = max(float(np.max(i / n - F)), float(np.max(F - (i - 1) / n)))
        worst = max(worst, ks)
    return PropertyResult("dist.sample_ks", worst, 0.01, worst <= 0.01)


def check_sbqc_gradients(seed: int = 0, cases: int = 10_000) -> PropertyResult:
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    per_tau = cases // len(SBQC_TAUS)
    for tau in SBQC_TAUS:
        y = rng.integers(0, 2, per_tau).astype(float)
        z = rng.uniform(-8, 8, per_tau)
        # keep the stencil off z = 0 where the density jumps
        z = np.where(np.abs(z) < 2 * h, z + 3 * h, z)
        _, g = classify.sbqc_loss(y, z, tau)
        vp, _ = classify.sbqc_loss(y, z + h, tau)
        vm, _ = classify.sbqc_loss(y, z - h, tau)
        worst = max(worst, float(np.max(np.abs(g - (vp - vm) / (2 * h)))))
    return PropertyResult("classify.sbqc_gradient_fd", worst, 1e-6, worst <= 1e-6)


def check_backprop_gradients(seed: int = 0) -> PropertyResult:
    """Backpropagated parameter gradients vs central differences (step 1e-5).

    Five 4-3-2-1 nets under the mean squared error on 6 random rows, with
    relu, tanh and identity activations in turn.  Zero initial biases can
    leave a relu pre-activation at exactly 0, where the loss has a kink, so
    a relu net compares only the coordinates whose +-h stencil leaves the
    sign of every hidden pre-activation unchanged.
    """
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    for trial in range(5):
        spec = network.LayerSpec(4, (3, 2), 1, activation=("relu", "tanh", "identity")[trial % 3])
        model = network.init_model(spec, seed + trial)
        X = rng.normal(size=(6, 4))
        y = rng.normal(size=(6, 1))

        def loss_and_signs(flat):
            network.set_flat_params(model, flat)
            out, trace = network.forward(model, X)
            return float(np.mean((out - y) ** 2)), np.sign(np.concatenate(trace.pre_activations[:-1], axis=1))

        flat = network.flatten_params(model)
        _, signs = loss_and_signs(flat)
        out, trace = network.forward(model, X)
        g = network.flatten_arrays(*network.backward(model, trace, 2.0 * (out - y) / out.size))
        for k in range(flat.size):
            e = np.zeros_like(flat)
            e[k] = h
            (up, up_signs), (down, down_signs) = loss_and_signs(flat + e), loss_and_signs(flat - e)
            if spec.activation == "relu" and not (np.array_equal(up_signs, signs)
                                                  and np.array_equal(down_signs, signs)):
                continue  # the stencil straddles a relu kink
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(g[k] - fd) / max(1.0, abs(fd)))
    return PropertyResult("network.backprop_fd", worst, 1e-5, worst <= 1e-5)


def check_sbqc_calibration() -> PropertyResult:
    worst = 0.0
    for tau in SBQC_TAUS:
        worst = max(worst, abs(classify.predict_prob(0.0, tau) - (1.0 - tau)))
    return PropertyResult("classify.predict_prob_calibration", worst, 0.0, worst == 0.0)


def check_sbqc_nll_identity(seed: int = 0) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(2000):
        z = float(rng.uniform(-8, 8))
        tau = float(rng.uniform(0.05, 0.95))
        v, _ = classify.sbqc_loss(1.0, z, tau)
        p = classify.predict_prob(z, tau)
        worst = max(worst, abs(v + math.log(p)))
    return PropertyResult("classify.nll_identity", worst, 1e-12, worst <= 1e-12)


def check_sbqc_tail_slope() -> PropertyResult:
    """Slope of the loss on the tail side far out: it tends to 1.

    The label's probability is the tail there (y = 1 at +z, y = 0 at -z), so
    the loss grows like |z| with slope sech(z) / (2 arctan e^{-|z|}) -> 1.
    A clamped probability would freeze the loss and let the slope fall to 0.
    """
    z = np.array([30.0, 50.0, 100.0, 1e3])
    worst = 0.0
    for tau in SBQC_TAUS:
        _, up = classify.sbqc_loss(1.0, z, tau)
        _, down = classify.sbqc_loss(0.0, -z, tau)
        worst = max(worst, float(np.max(np.abs(up - 1.0))), float(np.max(np.abs(down + 1.0))))
    return PropertyResult("classify.tail_slope", worst, 1e-9, worst <= 1e-9)


def check_sbqc_tau_half_is_bce(seed: int = 0) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(2000):
        z = float(rng.uniform(-8, 8))
        y = float(rng.integers(0, 2))
        v, _ = classify.sbqc_loss(y, z, 0.5)
        p = classify.predict_prob(z, 0.5)
        bce = -(y * math.log(p) + (1 - y) * math.log(1 - p))
        worst = max(worst, abs(v - bce))
    return PropertyResult("classify.tau_half_bce", worst, 1e-12, worst <= 1e-12)


def sbqc_slope_check(tau: float, seed: int = 0, n: int = 100_000) -> PropertyResult:
    """Empirical slope of the classification loss vs the slope constant.

    The tau = 0.5 case is a known defect of the stated bound: the loss
    slope tends to 1 in the tails while the constant is 2/pi; it is flagged
    expected_failure (analysis in the README).
    """
    rng = np.random.default_rng(seed)
    z1 = rng.uniform(-6, 6, n)
    z2 = rng.uniform(-6, 6, n)
    y = rng.integers(0, 2, n).astype(float)
    v1, _ = classify.sbqc_loss(y, z1, tau)
    v2, _ = classify.sbqc_loss(y, z2, tau)
    den = np.abs(z2 - z1)
    keep = den > 1e-9
    worst = float(np.max(np.abs(v2 - v1)[keep] / den[keep]))
    limit = optim.sbqc_lipschitz_constant(tau) + 1e-6
    expected_fail = abs(tau - 0.5) < 1e-12
    return PropertyResult(
        f"optim.sbqc_slope[tau={tau:g}]",
        worst,
        limit,
        worst <= limit,
        expected_failure=expected_fail,
        note="known bound defect at tau=0.5; slope tends to 1 in the tails" if expected_fail else "",
    )


def check_regression_gradient_bound(seed: int = 0, nets: int = 200) -> PropertyResult:
    """Per-example final-layer gradient terms vs the layer constant.

    Nets are evaluated at the configuration the constant describes: a freshly
    initialized network whose final layer is zeroed, so the outputs sit at
    g(0).  Each example's contribution (1/m) |tanh(a_j - y_j)| |a_i| must stay
    below (1/m) tanh(|g(0) - ||y|||) K_z.
    """
    rng = np.random.default_rng(seed)
    worst_excess = -math.inf
    for t in range(nets):
        m = int(rng.integers(2, 33))
        d_in = int(rng.integers(2, 9))
        hidden = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 3))))
        d_out = int(rng.integers(1, 5))
        spec = network.LayerSpec(d_in, hidden, d_out, activation="relu", dropout=0.0)
        model = network.init_model(spec, seed=1009 + t)
        model.weights[-1][...] = 0.0
        model.biases[-1][...] = 0.0
        X = rng.normal(size=(m, d_in))
        Y = rng.normal(size=(m, d_out))
        out, trace = network.forward(model, X)
        a_prev = trace.activations[-2]
        per_example = np.abs(np.tanh(out - Y))[:, None, :] * np.abs(a_prev)[:, :, None] / m
        y_norm = float(np.max(np.linalg.norm(Y, axis=1)))
        ctx = optim.LipschitzContext(m=m, y_norm=y_norm, k_z=trace.k_z, g_at_zero=0.0)
        K = optim.regression_lipschitz_constant(ctx)
        worst_excess = max(worst_excess, float(np.max(per_example)) - K)
    return PropertyResult(
        "optim.regression_gradient_bound", worst_excess, 1e-8, worst_excess <= 1e-8
    )


def check_lbfgs_monotonic(seed: int = 0) -> PropertyResult:
    rng = np.random.default_rng(seed)
    n = 12
    A = rng.normal(size=(n, n))
    A = A @ A.T + np.eye(n)
    c = rng.normal(size=n)

    def obj(x):
        d = x - c
        return float(losses.log_cosh(np.linalg.norm(d)) + 0.5 * d @ A @ d), A @ d + np.tanh(
            np.linalg.norm(d)
        ) * (d / max(np.linalg.norm(d), 1e-12))

    res = optim.minimize_lbfgs(obj, rng.normal(size=n) * 3, max_iter=50, gtol=1e-10)
    increases = sum(1 for a, b in zip(res.values, res.values[1:]) if b > a)
    return PropertyResult("optim.lbfgs_monotonic", float(increases), 0.0, increases == 0)


def check_lbfgs_curvature_filter(seed: int = 0) -> PropertyResult:
    rng = np.random.default_rng(seed)
    mem = optim.LBFGSMemory(m_hist=8)
    n = 6
    A = rng.normal(size=(n, n))
    A = A @ A.T + 0.5 * np.eye(n)

    def obj(x):
        return 0.5 * float(x @ A @ x), A @ x

    x = rng.normal(size=n) * 2
    for _ in range(30):
        step = optim.lbfgs_step(obj, x, mem)
        x = step.params
    worst = min(mem.curvatures(), default=1.0)
    return PropertyResult(
        "optim.lbfgs_curvature_filter", worst, optim.CURVATURE_MIN, worst > optim.CURVATURE_MIN,
        mode="min",
    )


def check_lbfgs_descent_directions(seed: int = 0, grads: int = 1000) -> PropertyResult:
    rng = np.random.default_rng(seed)
    n = 10
    A = rng.normal(size=(n, n))
    A = A @ A.T + np.eye(n)
    mem = optim.LBFGSMemory(m_hist=10)
    for _ in range(10):
        s = rng.normal(size=n)
        mem.push(s, A @ s)
    worst = -math.inf
    for _ in range(grads):
        g = rng.normal(size=n)
        g = g / np.linalg.norm(g)
        p = optim.lbfgs_direction(mem, g)
        worst = max(worst, float(p @ g))
    return PropertyResult("optim.lbfgs_descent", worst, 0.0, worst < 0.0)


def check_stacked_repeats() -> PropertyResult:
    """Fields of stacked runs that differ from the same runs trained alone.

    ``train_single`` trains the repeats of a fold, and the folds of a
    worker's bin, as one ``ModelStack`` and promises each run bit for bit
    what it gives alone.  That holds only if this machine's BLAS multiplies
    each head of a batched matmul exactly as it multiplies one matrix, so it
    is measured here: LALR-Adam with dropout 0.1 on 8 synthetic banknote
    rows, built in-process so that no data file is needed, 2 epochs of 3-row
    batches, for a 2-run stack on those rows and for a stack across two
    folds, those rows and the last 7 of them, whose last batches hold 2 rows
    and 1 row.  The second fold is validated on the rows in reverse.
    """
    ds = synthetic.banknote_like(n=8)
    config = trainer.TrainConfig(
        task="classification", hidden_sizes=(16,), dropout=0.1,
        optimizer=trainer.OptimizerSpec(kind="lalr-adam"), epochs=2, batch_size=3,
    )
    folds = [(ds.X, ds.y, ds.X, ds.y), (ds.X[1:], ds.y[1:], ds.X[::-1], ds.y[::-1])]
    differ = 0
    for splits, seeds in (([folds[0]], [[11, 12]]), (folds, [[11, 12], [13]])):
        stacked = trainer.train_single(config, *map(list, zip(*splits)), seeds)
        for split, fold_seeds, runs in zip(splits, seeds, stacked):
            for seed, got in zip(fold_seeds, runs):
                alone = trainer.train_single(config, *split, seed)
                for name, value in vars(alone).items():
                    other = getattr(got, name)
                    same = np.array_equal(other, value) if isinstance(value, np.ndarray) else other == value
                    differ += not same
    return PropertyResult("trainer.stacked_repeats", differ, 0, differ == 0)


def run_all(seed: int = 0) -> list[PropertyResult]:
    results = [
        check_loss_gradients(seed),
        check_convexity(seed),
        check_midpoint_convexity(seed),
        check_one_lipschitz(seed),
        check_noise_robustness(seed),
        check_asymptote(),
        check_tilted_interop(),
        check_crossing_zero_iff_monotone(seed),
        check_pdf_quadrature(),
        check_cdf_antiderivative(seed),
        check_cdf_strictly_increasing(seed),
        check_cdf_symmetry(),
        check_inv_cdf_roundtrip(),
        check_sample_ks(seed),
        check_sbqc_gradients(seed),
        check_sbqc_calibration(),
        check_sbqc_nll_identity(seed),
        check_sbqc_tail_slope(),
        check_sbqc_tau_half_is_bce(seed),
        check_regression_gradient_bound(seed),
        check_lbfgs_monotonic(seed),
        check_lbfgs_curvature_filter(seed),
        check_lbfgs_descent_directions(seed),
        check_stacked_repeats(),
    ]
    results.extend(sbqc_slope_check(tau, seed) for tau in SBQC_TAUS)
    return results


def violations(results: list[PropertyResult], strict: bool = False) -> list[PropertyResult]:
    """Results that count as failures.

    Non-strict mode tolerates exactly the flagged expected failure (and flags
    it if it unexpectedly passes, since that would mean the analysis is
    stale).
    """
    out = []
    for r in results:
        if r.expected_failure and not strict:
            if r.passed:
                out.append(r)  # unexpected pass: the recorded defect analysis is stale
            continue
        if not r.passed:
            out.append(r)
    return out
