"""Classification loss, probability map, joint multi-quantile training, curves."""

import json
import math

import numpy as np
import pytest

from quantloss.classify import (
    MultiQuantileModel,
    curve_to_csv,
    curve_to_json,
    head_seed,
    multi_quantile_train,
    predict_prob,
    quantile_curve,
    sbqc_loss,
)
from quantloss.losses import quantile_crossing_penalty
from quantloss.network import flatten_params
from quantloss.secant_dist import AsymmetricHSD

MINUS_LOG_HALF = 0.6931471805599453
MINUS_LOG_QUARTER = 1.3862943611198906


class TestSbqcLoss:
    def test_confident_correct_label_is_free(self):
        v, _ = sbqc_loss(1.0, -30.0, 0.5)
        assert v == pytest.approx(0.0, abs=1e-8)

    def test_median_at_zero(self):
        v, _ = sbqc_loss(1.0, 0.0, 0.5)
        assert v == pytest.approx(MINUS_LOG_HALF, abs=1e-12)

    def test_quarter_at_zero_label_zero(self):
        v, _ = sbqc_loss(0.0, 0.0, 0.25)
        assert v == pytest.approx(MINUS_LOG_QUARTER, abs=1e-12)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            sbqc_loss(0.5, 0.0, 0.5)
        with pytest.raises(ValueError):
            sbqc_loss(2.0, 0.0, 0.5)

    def test_non_finite_latent(self):
        with pytest.raises(ValueError):
            sbqc_loss(1.0, float("nan"), 0.5)

    def test_loss_nonnegative_and_equals_nll(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            z = float(rng.uniform(-8, 8))
            tau = float(rng.uniform(0.05, 0.95))
            v, _ = sbqc_loss(1.0, z, tau)
            assert v >= 0.0
            assert v == pytest.approx(-math.log(predict_prob(z, tau)), abs=1e-12)

    def test_gradient_vs_central_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-5
        for tau in (0.1, 0.25, 0.5, 0.75, 0.9):
            y = rng.integers(0, 2, 2000).astype(float)
            z = rng.uniform(-8, 8, 2000)
            z = np.where(np.abs(z) < 2 * h, z + 3 * h, z)  # density jumps at 0
            _, g = sbqc_loss(y, z, tau)
            vp, _ = sbqc_loss(y, z + h, tau)
            vm, _ = sbqc_loss(y, z - h, tau)
            np.testing.assert_allclose(g, (vp - vm) / (2 * h), atol=1e-6)

    def test_tau_half_is_bce_through_the_link(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            z = float(rng.uniform(-8, 8))
            y = float(rng.integers(0, 2))
            p = predict_prob(z, 0.5)
            bce = -(y * math.log(p) + (1 - y) * math.log(1 - p))
            v, _ = sbqc_loss(y, z, 0.5)
            assert v == pytest.approx(bce, abs=1e-12)


class TestPredictProb:
    def test_calibration_identity(self):
        for tau in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95):
            assert predict_prob(0.0, tau) == 1.0 - tau

    def test_anchor_values(self):
        assert predict_prob(0.0, 0.5) == 0.5
        assert predict_prob(0.0, 0.9) == pytest.approx(0.1, abs=1e-15)
        assert predict_prob(float("inf"), 0.3) == 0.0

    def test_matches_distribution(self):
        z = np.linspace(-5, 5, 101)
        for tau in (0.2, 0.5, 0.8):
            np.testing.assert_allclose(
                predict_prob(z, tau), 1.0 - AsymmetricHSD(tau).cdf(z), atol=1e-15
            )


def _separable_toy(n=160, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
    return X, y


class TestMultiQuantileTrain:
    def test_grid_validation(self):
        X, y = _separable_toy()
        with pytest.raises(ValueError):
            multi_quantile_train(X, y, [0.5, 0.25], epochs=1)
        with pytest.raises(ValueError):
            multi_quantile_train(X, y, [], epochs=1)
        with pytest.raises(ValueError):
            multi_quantile_train(X, y, [0.5], reg_weight=1.0, epochs=1)
        with pytest.raises(ValueError):
            multi_quantile_train(X, y, [0.2, 0.8], reg_weight=-0.5, epochs=1)

    def test_lambda_zero_equals_independent_training(self):
        X, y = _separable_toy()
        grid = [0.25, 0.5, 0.75]
        joint = multi_quantile_train(X, y, grid, hidden_sizes=(8,), epochs=5,
                                     reg_weight=0.0, seed=3)
        for k, tau in enumerate(grid):
            solo = multi_quantile_train(X, y, [tau], hidden_sizes=(8,), epochs=5,
                                        reg_weight=0.0, seed=3)
            np.testing.assert_array_equal(
                flatten_params(joint.models[k]), flatten_params(solo.models[0])
            )

    def test_lambda_zero_equals_independent_training_with_a_remainder_batch(self):
        # 614 rows (the pima pool size) leave a 38-row batch at every epoch end
        rng = np.random.default_rng(11)
        X = rng.normal(size=(614, 4))
        y = (X[:, 0] - 0.7 * X[:, 2] + rng.logistic(size=614) > 0).astype(float)
        grid = [0.25, 0.5, 0.75]
        joint = multi_quantile_train(X, y, grid, hidden_sizes=(8,), epochs=20,
                                     reg_weight=0.0, seed=3)
        for k, tau in enumerate(grid):
            solo = multi_quantile_train(X, y, [tau], hidden_sizes=(8,), epochs=20,
                                        reg_weight=0.0, seed=3)
            np.testing.assert_array_equal(
                flatten_params(joint.models[k]), flatten_params(solo.models[0])
            )

    def test_single_tau_grid_is_plain_training(self):
        X, y = _separable_toy()
        mq = multi_quantile_train(X, y, [0.5], hidden_sizes=(8,), epochs=3, seed=1,
                                  reg_weight=0.0)
        assert len(mq.models) == 1
        assert mq.latents(X).shape == (X.shape[0], 1)

    def test_penalty_drives_crossings_to_zero_on_separable_toy(self):
        X, y = _separable_toy(seed=5)
        mq = multi_quantile_train(X, y, [0.4, 0.6], hidden_sizes=(8,), epochs=60,
                                  reg_weight=1.0, seed=5)
        assert quantile_crossing_penalty(mq.latents(X)) == pytest.approx(0.0, abs=1e-9)

    def test_penalty_history_mostly_non_increasing(self):
        # full batch keeps the joint-objective descent clean; mini-batch
        # sampling noise would otherwise cause occasional tiny bounces
        X, y = _separable_toy(seed=6)
        history = []
        multi_quantile_train(X, y, [0.25, 0.5, 0.75], hidden_sizes=(8,), epochs=100,
                             reg_weight=1.0, seed=6, batch_size=len(y),
                             penalty_history=history)
        drops = sum(1 for a, b in zip(history, history[1:]) if b <= a + 1e-12)
        assert drops >= 0.95 * (len(history) - 1)
        assert history[0] > 1.0
        assert history[-1] == pytest.approx(0.0, abs=1e-9)

    def test_heads_learn_ascending_quantiles(self):
        # overlapping classes keep the optimal latents finite, so the fitted
        # quantiles order by level even without the penalty
        rng = np.random.default_rng(7)
        X = rng.normal(size=(400, 2))
        y = (X[:, 0] + 0.5 * X[:, 1] + 1.2 * rng.logistic(size=400) > 0).astype(float)
        mq = multi_quantile_train(X, y, [0.25, 0.5, 0.75], hidden_sizes=(8,),
                                  epochs=60, reg_weight=0.0, seed=7)
        q = mq.latents(X)
        means = q.mean(axis=0)
        assert means[0] < means[1] < means[2]

    def test_head_seed_is_tau_keyed(self):
        assert head_seed(1, 0.25) == head_seed(1, 0.25)
        assert head_seed(1, 0.25) != head_seed(1, 0.5)
        assert head_seed(1, 0.25) != head_seed(2, 0.25)


class TestQuantileCurve:
    def _stub(self, rows):
        class Stub:
            def __init__(self, rows, d):
                self._rows = np.asarray(rows, dtype=float)
                from quantloss.network import LayerSpec, init_model
                self.models = [init_model(LayerSpec(d, (), 1), 0)]
                self.tau_grid = None

            def latents(self, X):
                return self._rows

        return Stub(rows, 2)

    def test_linear_interpolation_example(self):
        mq = MultiQuantileModel.__new__(MultiQuantileModel)
        mq.tau_grid = (0.4, 0.6)
        rows = np.array([[-1.0, 1.0]])
        mq.models = multi_quantile_train(*_separable_toy(16), [0.4, 0.6],
                                         hidden_sizes=(4,), epochs=1, seed=0,
                                         reg_weight=0.0).models
        mq.latents = lambda X: rows
        curve = quantile_curve(mq, 0, [0.0], np.zeros(2))
        assert curve.tau_star[0] == pytest.approx(0.5)
        assert curve.status == ["ok"]

    def test_all_positive_marks_below_grid(self):
        mq = MultiQuantileModel.__new__(MultiQuantileModel)
        mq.tau_grid = (0.25, 0.5, 0.75)
        mq.models = multi_quantile_train(*_separable_toy(16), [0.25, 0.5, 0.75],
                                         hidden_sizes=(4,), epochs=1, seed=0,
                                         reg_weight=0.0).models
        mq.latents = lambda X: np.array([[0.5, 1.0, 2.0]])
        curve = quantile_curve(mq, 0, [0.0], np.zeros(2))
        assert math.isnan(curve.tau_star[0])
        assert curve.status == ["below_grid"]

    def test_all_negative_marks_above_grid(self):
        mq = MultiQuantileModel.__new__(MultiQuantileModel)
        mq.tau_grid = (0.25, 0.75)
        mq.models = multi_quantile_train(*_separable_toy(16), [0.25, 0.75],
                                         hidden_sizes=(4,), epochs=1, seed=0,
                                         reg_weight=0.0).models
        mq.latents = lambda X: np.array([[-2.0, -1.0]])
        curve = quantile_curve(mq, 0, [0.0], np.zeros(2))
        assert curve.status == ["above_grid"]

    def test_curve_decreases_along_a_risk_factor_sweep(self):
        # heart-rate style shape: the feature raises the class-1 rate, so the
        # chance of being classified 0 (tau*) falls along the sweep
        rng = np.random.default_rng(10)
        X = rng.normal(size=(400, 1))
        y = (X[:, 0] + 0.8 * rng.logistic(size=400) > 0).astype(float)
        mq = multi_quantile_train(X, y, [0.2, 0.35, 0.5, 0.65, 0.8],
                                  hidden_sizes=(16,), epochs=80, reg_weight=1.0,
                                  seed=11)
        sweep = np.linspace(-1.5, 1.5, 9)
        curve = quantile_curve(mq, 0, sweep, np.zeros(1))
        ok = [t for t, s in zip(curve.tau_star, curve.status) if s == "ok"]
        assert len(ok) >= 4
        assert np.all(np.diff(ok) <= 1e-9)

    def test_validation_errors(self):
        X, y = _separable_toy(16)
        mq = multi_quantile_train(X, y, [0.4, 0.6], hidden_sizes=(4,), epochs=1,
                                  seed=0, reg_weight=0.0)
        with pytest.raises(ValueError):
            quantile_curve(mq, 0, [], np.zeros(2))
        with pytest.raises(ValueError):
            quantile_curve(mq, 5, [0.0], np.zeros(2))
        with pytest.raises(ValueError):
            quantile_curve(mq, 0, [0.0], np.zeros(3))

    def test_export_csv_and_json(self, tmp_path):
        X, y = _separable_toy(64, seed=2)
        mq = multi_quantile_train(X, y, [0.3, 0.7], hidden_sizes=(4,), epochs=10,
                                  seed=2, reg_weight=0.0)
        curve = quantile_curve(mq, 0, np.linspace(-2, 2, 7), np.zeros(2))
        cpath = tmp_path / "curve.csv"
        jpath = tmp_path / "curve.json"
        curve_to_csv(curve, cpath)
        curve_to_json(curve, jpath)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "feature_value,tau_star"
        assert len(lines) == 8
        doc = json.loads(jpath.read_text())
        assert doc["tau_grid"] == [0.3, 0.7]
        assert len(doc["tau_star"]) == 7
        assert set(doc["status"]) <= {"ok", "below_grid", "above_grid"}


def test_quantile_curve_names_the_levels_whose_latents_are_not_finite():
    mq = multi_quantile_train(*_separable_toy(16), [0.25, 0.5, 0.75], hidden_sizes=(4,), epochs=1,
                              seed=0, reg_weight=0.0)
    mq.models[1].params[-1] = np.nan  # the output bias of the tau = 0.5 head
    with pytest.raises(ValueError, match=r"not finite at tau = 0\.5$"):
        quantile_curve(mq, 0, [0.0, 1.0], np.zeros(2))
