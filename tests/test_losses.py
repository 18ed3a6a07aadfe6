"""Loss family: frozen values, derivative checks, and the documented invariants.

Expected constants were computed with a 40-digit mpmath oracle (direct
evaluation of log((e^x + e^-x)/2) and the tilted case split).
"""

import math

import numpy as np
import pytest

from quantloss.losses import (
    LossKind,
    LossSpec,
    batch_loss,
    eval_loss,
    log_cosh,
    quantile_crossing_grad,
    quantile_crossing_penalty,
    tilted_log_cosh,
)

LOGCOSH_1 = 0.4337808304830272       # log(cosh(1))
LOGCOSH_2 = 1.3250027473578644       # log(cosh(2))
LOGCOSH_10 = 9.306852821501208       # log(cosh(10)); asymptote 10 - log 2 + 2.06e-9


class TestEvalLoss:
    def test_logcosh_at_zero(self):
        e = eval_loss(LossSpec(LossKind.LOG_COSH), 0.0)
        assert e.value == 0.0
        assert e.grad == 0.0
        assert e.curvature == 1.0

    def test_logcosh_large_residual_matches_oracle_and_asymptote(self):
        e = eval_loss(LossSpec(LossKind.LOG_COSH), 10.0)
        assert e.value == pytest.approx(LOGCOSH_10, abs=1e-12)
        assert e.value == pytest.approx(10.0 - math.log(2.0), abs=1e-8)

    def test_tilted_half_at_two(self):
        e = eval_loss(LossSpec(LossKind.TILTED_LOG_COSH, tau=0.5), 2.0)
        assert e.value == pytest.approx(0.5 * LOGCOSH_2, abs=1e-12)

    def test_huber_quadratic_branch(self):
        e = eval_loss(LossSpec(LossKind.HUBER, delta=1.0), 0.5)
        assert e.value == 0.125
        assert e.grad == 0.5
        assert e.curvature == 1.0

    def test_huber_knot_has_no_curvature(self):
        assert eval_loss(LossSpec(LossKind.HUBER, delta=1.0), 1.0).curvature is None

    def test_scaled_logcosh_derivatives(self):
        for h in (0.7, 1.0, 2.5):
            for r in (-3.2, -0.1, 0.4, 7.0):
                e = eval_loss(LossSpec(LossKind.LOG_COSH, h=h), r)
                assert e.grad == pytest.approx(math.tanh(r / h) / h, abs=1e-15)
                assert e.curvature == pytest.approx(
                    (1.0 / math.cosh(r / h)) ** 2 / h**2, abs=1e-12
                )

    def test_logcosh_grad_bounded_by_inverse_h(self):
        rng = np.random.default_rng(3)
        for h in (0.5, 1.0, 3.0):
            spec = LossSpec(LossKind.LOG_COSH, h=h)
            for r in rng.uniform(-50, 50, 200):
                assert abs(eval_loss(spec, float(r)).grad) <= 1.0 / h + 1e-15

    def test_check_at_zero_takes_the_tau_side(self):
        # the subgradient a prediction at its target gets, as one an epsilon below it
        assert eval_loss(LossSpec(LossKind.CHECK, tau=0.2), 0.0).grad == -0.2
        assert eval_loss(LossSpec(LossKind.CHECK, tau=0.2), -1e-9).grad == -0.2

    def test_nonsmooth_kinds_have_no_curvature(self):
        assert eval_loss(LossSpec(LossKind.MAE), 1.3).curvature is None
        assert eval_loss(LossSpec(LossKind.CHECK, tau=0.3), 1.3).curvature is None

    def test_stability_up_to_1e8(self):
        e = eval_loss(LossSpec(LossKind.LOG_COSH), 1e8)
        assert math.isfinite(e.value)
        assert e.value == pytest.approx(1e8 - math.log(2.0), rel=1e-15)

    def test_non_finite_residual_rejected(self):
        with pytest.raises(ValueError):
            eval_loss(LossSpec(LossKind.LOG_COSH), float("nan"))
        with pytest.raises(ValueError):
            eval_loss(LossSpec(LossKind.MSE), float("inf"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LossSpec(LossKind.LOG_COSH, h=0.0)
        with pytest.raises(ValueError):
            LossSpec(LossKind.TILTED_LOG_COSH, tau=1.0)
        with pytest.raises(ValueError):
            LossSpec(LossKind.HUBER, delta=-1.0)


class TestTiltedLogCosh:
    def test_zero_residual(self):
        for tau in (0.1, 0.5, 0.9):
            assert tilted_log_cosh(0.0, tau).value == 0.0

    def test_negative_branch(self):
        # a prediction below its target costs tau
        e = tilted_log_cosh(-1.0, 0.25)
        assert e.value == pytest.approx(0.25 * LOGCOSH_1, abs=1e-12)
        assert e.grad == pytest.approx(0.25 * math.tanh(-1.0), abs=1e-15)

    def test_nonnegative_branch(self):
        e = tilted_log_cosh(1.0, 0.25)
        assert e.value == pytest.approx(0.75 * LOGCOSH_1, abs=1e-12)

    def test_half_tau_is_half_logcosh_exactly(self):
        for r in np.linspace(-40, 40, 801):
            assert tilted_log_cosh(float(r), 0.5).value == 0.5 * float(log_cosh(r))

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            tilted_log_cosh(1.0, 0.0)
        with pytest.raises(ValueError):
            tilted_log_cosh(1.0, 1.0)

    def test_zero_uses_tau_branch(self):
        # case split puts r = 0 on the tau side; curvature follows it
        assert tilted_log_cosh(0.0, 0.2).curvature == pytest.approx(0.2)


class TestQuantileLevel:
    """The constant that fits a sample under the check loss at tau is its tau-quantile, as under
    Koenker and Bassett's check loss; under the tilted loss it lies on tau's side of the median."""

    SAMPLE = np.random.default_rng(0).normal(size=1001)  # n * tau is never an integer

    @staticmethod
    def _minimiser(spec, candidates, y):
        values = [batch_loss(spec, np.full_like(y, c), y)[0] for c in candidates]
        return candidates[int(np.argmin(values))]

    @pytest.mark.parametrize("tau", [0.1, 0.25, 0.75, 0.9])
    def test_check_minimiser_is_the_empirical_quantile(self, tau):
        y = self.SAMPLE
        c = self._minimiser(LossSpec(LossKind.CHECK, tau=tau), np.sort(y), y)
        assert np.mean(y < c) <= tau <= np.mean(y <= c)

    @pytest.mark.parametrize("tau", [0.1, 0.25, 0.75, 0.9])
    def test_tilted_minimiser_lies_on_the_tau_side_of_the_median(self, tau):
        y = self.SAMPLE
        c = self._minimiser(LossSpec(LossKind.TILTED_LOG_COSH, tau=tau), np.linspace(-3.0, 3.0, 1201), y)
        assert (c - np.median(y)) * (tau - 0.5) > 0


class TestCrossingPenalty:
    def test_monotone_row_is_zero(self):
        assert quantile_crossing_penalty([[1.0, 2.0, 3.0]]) == 0.0

    def test_single_inversion(self):
        assert quantile_crossing_penalty([[2.0, 1.0, 3.0]]) == 1.0

    def test_two_rows(self):
        assert quantile_crossing_penalty([[0.0, 0.0, 0.0], [5.0, 4.0, 4.0]]) == 1.0

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            quantile_crossing_penalty([[1.0]])

    def test_zero_iff_monotone_property(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            q = rng.normal(size=(rng.integers(1, 5), rng.integers(2, 6)))
            if rng.random() < 0.5:
                q = np.sort(q, axis=1)
            brute = sum(
                max(0.0, q[i, p] - q[i, p + 1])
                for i in range(q.shape[0])
                for p in range(q.shape[1] - 1)
            )
            penalty = quantile_crossing_penalty(q)
            assert penalty == pytest.approx(brute, abs=1e-12)
            assert (penalty == 0.0) == all(
                q[i, p] <= q[i, p + 1]
                for i in range(q.shape[0])
                for p in range(q.shape[1] - 1)
            )

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(5, 4))
        g = quantile_crossing_grad(q)
        h = 1e-7
        for i in range(5):
            for j in range(4):
                qp = q.copy()
                qp[i, j] += h
                qm = q.copy()
                qm[i, j] -= h
                fd = (quantile_crossing_penalty(qp) - quantile_crossing_penalty(qm)) / (2 * h)
                assert g[i, j] == pytest.approx(fd, abs=1e-6)


class TestBatchLoss:
    def test_perfect_predictions(self):
        v, g = batch_loss(LossSpec(LossKind.LOG_COSH), [1.0, 2.0], [1.0, 2.0])
        assert v == 0.0
        assert np.all(g == 0.0)

    def test_logcosh_mean_reduction(self):
        v, g = batch_loss(LossSpec(LossKind.LOG_COSH), [1.0, -1.0], [0.0, 0.0])
        assert v == pytest.approx(LOGCOSH_1, abs=1e-12)
        np.testing.assert_allclose(
            g, [math.tanh(1.0) / 2, -math.tanh(1.0) / 2], atol=1e-15
        )

    def test_mse_single_point(self):
        v, g = batch_loss(LossSpec(LossKind.MSE), [3.0], [1.0])
        assert v == 4.0
        np.testing.assert_allclose(g, [4.0])

    def test_errors(self):
        spec = LossSpec(LossKind.MSE)
        with pytest.raises(ValueError):
            batch_loss(spec, [1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            batch_loss(spec, [], [])

    def test_per_example_reduction(self):
        spec = LossSpec(LossKind.MSE)
        v, g = batch_loss(spec, [1.0, 3.0], [0.0, 0.0], reduction="none")
        np.testing.assert_allclose(v, [1.0, 9.0])
        np.testing.assert_allclose(g, [2.0, 6.0])

    def test_multi_output_rows_sum(self):
        spec = LossSpec(LossKind.MSE)
        v, g = batch_loss(spec, [[1.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        assert v == pytest.approx((1.0 + 4.0 + 0.0) / 2)
        np.testing.assert_allclose(g, [[1.0, 2.0], [0.0, 0.0]])

    def test_batch_matches_scalar_evaluator(self):
        rng = np.random.default_rng(9)
        specs = [
            LossSpec(LossKind.LOG_COSH, h=0.8),
            LossSpec(LossKind.TILTED_LOG_COSH, tau=0.3),
            LossSpec(LossKind.CHECK, tau=0.7),
            LossSpec(LossKind.HUBER, delta=0.6),
            LossSpec(LossKind.MSE),
            LossSpec(LossKind.MAE),
        ]
        for spec in specs:
            p = rng.uniform(-5, 5, 16)
            t = rng.uniform(-5, 5, 16)
            v, g = batch_loss(spec, p, t)
            scalar = [eval_loss(spec, float(r)) for r in p - t]
            assert v == pytest.approx(np.mean([e.value for e in scalar]), abs=1e-12)
            np.testing.assert_allclose(g, [e.grad / 16 for e in scalar], atol=1e-12)


class TestInvariants:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(0)
        specs = [
            LossSpec(LossKind.LOG_COSH, h=1.0),
            LossSpec(LossKind.LOG_COSH, h=0.7),
            LossSpec(LossKind.TILTED_LOG_COSH, tau=0.25),
            LossSpec(LossKind.TILTED_LOG_COSH, tau=0.9),
            LossSpec(LossKind.MSE),
            LossSpec(LossKind.HUBER, delta=1.0),
        ]
        h = 1e-5
        for _ in range(200):
            spec = specs[rng.integers(len(specs))]
            r = float(rng.uniform(-8, 8))
            if spec.kind is LossKind.HUBER and abs(abs(r) - spec.delta) < 1e-3:
                r += 2e-3
            if spec.kind is LossKind.TILTED_LOG_COSH and abs(r) < 1e-3:
                r += 2e-3
            fd = (eval_loss(spec, r + h).value - eval_loss(spec, r - h).value) / (2 * h)
            assert abs(eval_loss(spec, r).grad - fd) <= 1e-6

    def test_curvature_matches_grad_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(100):
            r = float(rng.uniform(-6, 6))
            spec = LossSpec(LossKind.LOG_COSH, h=float(rng.uniform(0.5, 2.0)))
            fd = (eval_loss(spec, r + h).grad - eval_loss(spec, r - h).grad) / (2 * h)
            assert abs(eval_loss(spec, r).curvature - fd) <= 1e-6

    def test_hessian_convexity_linear_model(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 11))
            d = int(rng.integers(1, 11))
            X = rng.normal(size=(m, d))
            y = rng.normal(size=m)
            theta = rng.normal(size=d)
            D = np.diag(1.0 / np.cosh(y - X @ theta) ** 2)
            H = X.T @ D @ X
            assert np.linalg.eigvalsh(H).min() >= -1e-10

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(5)
        specs = [
            LossSpec(LossKind.LOG_COSH),
            LossSpec(LossKind.TILTED_LOG_COSH, tau=0.3),
            LossSpec(LossKind.MSE),
            LossSpec(LossKind.HUBER, delta=1.0),
        ]
        a = rng.uniform(-12, 12, 10_000)
        b = rng.uniform(-12, 12, 10_000)
        for spec in specs:
            la = np.array([eval_loss(spec, float(x)).value for x in a[:50]])
            # vectorized midpoint check over the full draw, scalar spot checks above
            va, _ = batch_loss(spec, a, np.zeros_like(a), reduction="none")
            vb, _ = batch_loss(spec, b, np.zeros_like(b), reduction="none")
            vm, _ = batch_loss(spec, (a + b) / 2, np.zeros_like(a), reduction="none")
            assert np.max(vm - (va + vb) / 2) <= 1e-12
            assert la.shape == (50,)

    def test_one_lipschitz(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(-30, 30, 100_000)
        b = rng.uniform(-30, 30, 100_000)
        num = np.abs(log_cosh(a) - log_cosh(b))
        den = np.abs(a - b)
        keep = den > 1e-12
        assert np.max(num[keep] / den[keep]) <= 1.0 + 1e-12

    def test_label_noise_robustness(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-20, 20, 10_000)
        for eps in (1e-3, 1e-6):
            delta = np.abs(log_cosh(x + eps) - log_cosh(x))
            assert np.max(delta) <= eps + 1e-12

    def test_asymptote(self):
        x = np.concatenate([np.linspace(20, 600, 1000), np.linspace(-600, -20, 1000)])
        assert np.max(np.abs(log_cosh(x) - (np.abs(x) - math.log(2.0)))) <= 1e-8
