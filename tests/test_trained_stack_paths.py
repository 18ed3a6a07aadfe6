"""One path per job around a trained stack, and the ``quantiles`` refusals that come before training.

Trained heads are read out by one stacked ``predict``, and Adam's step has
one failure mask: the references below are the per-head readouts these
paths replaced, and must match them bit for bit.  Every epoch is scored
through ``_head_losses``, the training step's loss, so a run's validation
loss at its best epoch is that of ``predict`` at its best params.  A tau
grid refuses a config whose task is not classification, and ``quantiles``
refuses a bad ``--sweep-points`` or ``--tau-grid`` before it trains.
"""

import json

import numpy as np
import pytest

from quantloss import trainer
from quantloss.classify import multi_quantile_train
from quantloss.cli import main
from quantloss.data import standardize_apply, subset, stratified_kfold
from quantloss.losses import LossKind, LossSpec, quantile_crossing_penalty
from quantloss.network import LayerSpec, init_model, predict, set_flat_params
from quantloss.synthetic import pima_like, wine_like
from quantloss.trainer import BEST_METRIC, OptimizerSpec, TrainConfig, _score, derive_seed, train

GRID = (0.25, 0.5, 0.75)


def _model_with(spec: LayerSpec, params: np.ndarray):
    """A single network that holds ``params``, made the way trained runs were once scored."""
    model = init_model(spec, 0)
    set_flat_params(model, params)
    return model


class TestGridRefusesOtherTasks:
    def test_multi_quantile_train_names_task(self):
        ds = pima_like(n=120)
        config = TrainConfig(task="regression", hidden_sizes=(4,), loss=LossSpec(LossKind.MSE), epochs=1)
        with pytest.raises(ValueError, match="task"):
            multi_quantile_train(ds.X, ds.y, GRID, config=config)

    def test_quantiles_exits_1_naming_task(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a regression config reached the grid's training")

        monkeypatch.setattr(trainer, "_train_adam", no_training)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "regression", "dataset": {"synthetic": "pima"},
                                   "loss": {"kind": "mse"}, "train": {"epochs": 1}}))
        rc = main(["quantiles", "--config", str(cfg), "--out", str(tmp_path / "q")])
        assert rc == 1
        assert "task" in capsys.readouterr().err


class TestQuantilesFlags:
    @pytest.fixture
    def config(self, tmp_path, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the flags")

        monkeypatch.setattr("quantloss.cli.multi_quantile_train", no_training)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "classification", "dataset": {"synthetic": "pima"}}))
        return cfg

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_sweep_points_below_one(self, points, config, tmp_path, capsys):
        out = tmp_path / "q"
        rc = main(["quantiles", "--config", str(config), "--out", str(out), "--sweep-points", points])
        assert rc == 1
        assert f"--sweep-points must be at least 1, got {points}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.25,x", "0.25,,0.75"])
    def test_tau_grid_not_numbers(self, grid, config, tmp_path, capsys):
        out = tmp_path / "q"
        rc = main(["quantiles", "--config", str(config), "--out", str(out), "--tau-grid", grid])
        assert rc == 1
        assert f"--tau-grid {grid!r}" in capsys.readouterr().err
        assert not out.exists()


def test_another_adam_step_error_propagates(monkeypatch):
    """An ``adam_step`` error on a finite gradient is raised, not recorded as a divergence."""
    calls = []

    def refuse(state, params, grads, lr):
        assert np.isfinite(grads).all()
        calls.append(1)
        raise ValueError("params must be writable; the step updates them in place")

    monkeypatch.setattr(trainer, "adam_step", refuse)
    ds = pima_like(n=120)
    config = TrainConfig(task="classification", hidden_sizes=(4,), epochs=2, batch_size=32)
    with pytest.raises(ValueError, match="must be writable"):
        trainer.train_single(config, ds.X[:80], ds.y[:80], ds.X[80:], ds.y[80:], [0, 1])
    assert calls == [1]


class TestOneInferencePath:
    def test_grid_latents_and_penalty_match_per_head_predict(self):
        # at 200 rows a column-ordered latent matrix sums this penalty in another order, to another value
        ds = pima_like(n=200)
        history = []
        mq = multi_quantile_train(ds.X, ds.y, GRID, hidden_sizes=(6,), epochs=3, batch_size=32,
                                  penalty_history=history)
        columns = np.column_stack([predict(m, ds.X)[:, 0] for m in mq.models])
        np.testing.assert_array_equal(mq.latents(ds.X), columns)
        assert len(history) == 3
        assert history[-1] == quantile_crossing_penalty(columns)

    @pytest.mark.parametrize("config, ds", [
        (TrainConfig(task="classification", hidden_sizes=(6,), optimizer=OptimizerSpec(kind="lalr-adam"),
                     epochs=3, batch_size=32, repeats=2, seed=3), pima_like(n=120)),
        (TrainConfig(task="regression", hidden_sizes=(6,), loss=LossSpec(LossKind.LOG_COSH),
                     optimizer=OptimizerSpec(kind="lbfgs"), epochs=3, repeats=2, seed=5), wine_like(n=90)),
    ], ids=["classification-lalr", "regression-lbfgs"])
    def test_records_and_best_model(self, config, ds):
        plan = stratified_kfold(ds, 2, 0.2, seed=config.seed)
        report = train(config, plan, ds)
        spec = report.best_model.spec
        for rec in report.records:
            model = _model_with(spec, rec.best_params)
            test = standardize_apply(rec.standardizer, subset(ds, plan.folds[rec.fold][1]))
            val = standardize_apply(rec.standardizer, subset(ds, plan.val_idx))
            assert rec.test_metrics == _score(config.task, config.sbqc_tau, predict(model, test.X), test.y)
            assert rec.val_metrics == _score(config.task, config.sbqc_tau, predict(model, val.X), val.y)

        key, higher = BEST_METRIC[config.task]
        best = max((r for r in report.records if not r.diverged),
                   key=lambda r: r.val_metrics[key] if higher else -r.val_metrics[key])
        np.testing.assert_array_equal(report.best_model.params, best.best_params)
        assert report.best_model.params is not best.best_params
        assert report.best_model.seed == derive_seed(config.seed, best.fold, best.repeat)
        assert report.best_standardizer is best.standardizer


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


class TestHeadLosses:
    CLASSIFICATION = TrainConfig(task="classification", sbqc_tau=0.3)
    REGRESSION = TrainConfig(task="regression", loss=LossSpec(LossKind.LOG_COSH))

    @staticmethod
    def _outputs_and_labels(heads, m):
        rng = np.random.default_rng(0)
        outputs = rng.normal(scale=4.0, size=(heads, m, 1))
        outputs.flat[:6] = [0.0, -0.0, 750.0, -750.0, 1e-300, 30.0]  # zeros and both tails
        return outputs, (rng.random(m) < 0.5).astype(float)

    @pytest.mark.parametrize("bad_heads", [[], [2], [0, 4], [0, 1, 2, 3, 4]])
    def test_a_non_finite_head_gets_nan_and_a_zero_gradient(self, bad_heads):
        outputs, y = self._outputs_and_labels(5, 40)
        outputs[bad_heads, 3, 0] = np.nan
        for config in (self.CLASSIFICATION, self.REGRESSION):
            target = y if config.task == "classification" else y[:, None]
            values, grad = trainer._head_losses(config, outputs, target)
            for j, out in enumerate(outputs):
                if j in bad_heads:
                    assert np.isnan(values[j]) and not grad[j].any()
                else:
                    one_value, one_grad = trainer._head_losses(config, out[None], target)
                    assert _bits(values[j]) == _bits(one_value[0])
                    assert _bits(grad[j]) == _bits(one_grad[0])

    def test_a_bad_label_of_a_finite_head_raises(self):
        outputs, y = self._outputs_and_labels(3, 10)
        y[4] = 0.5
        outputs[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="labels must lie in"):
            trainer._head_losses(self.CLASSIFICATION, outputs, y)


@pytest.mark.parametrize("kind", ["adam", "lalr-adam", "lbfgs"])
@pytest.mark.parametrize("task", ["classification", "regression"])
def test_the_best_epochs_val_loss_is_head_losses_at_its_params(kind, task):
    """The epoch evaluation's validation loss is ``_head_losses`` of ``predict`` at the recorded params."""
    ds = pima_like(n=120) if task == "classification" else wine_like(n=90)
    loss = LossSpec(LossKind.LOG_COSH) if task == "regression" else None
    config = TrainConfig(task=task, hidden_sizes=(6,), loss=loss, optimizer=OptimizerSpec(kind=kind),
                         epochs=4, batch_size=32, seed=3)
    X, y = (ds.X - ds.X.mean(axis=0)) / ds.X.std(axis=0), ds.y
    runs = trainer.train_single(config, X[:70], y[:70], X[70:], y[70:], [0, 1, 2])
    y_val = y[70:] if task == "classification" else y[70:, None]
    spec = trainer._layer_spec(config, X.shape[1], 1)
    for run in runs:
        assert not run.diverged and len(run.val_loss) == config.epochs
        values, _ = trainer._head_losses(config, predict(_model_with(spec, run.best_params), X[70:])[None], y_val)
        assert _bits(run.val_loss[run.best_epoch]) == _bits(values[0])
