"""One home per training rule, and the edges they guard.

The regression layer constant, the ``lalr-adam`` rate policy and the metric
that picks the best epoch each have one definition; an L-BFGS run whose
trial outputs overflow is recorded as diverged, as an Adam run is; ``verify``
runs from the package alone; and a config cannot name two datasets.
"""

import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quantloss.classify import predict_prob
from quantloss.cli import main
from quantloss.losses import LossKind, LossSpec, slope_bound
from quantloss.metrics import ConfusionMatrix, classification_metrics, rmse
from quantloss.optim import K_FLOOR, LipschitzContext, regression_lipschitz_constant
from quantloss.trainer import (
    OptimizerSpec, TrainConfig, _head_val_metrics, _layer_constant, train_single,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quantloss"


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


REGRESSION_LOSSES = [
    LossSpec(LossKind.LOG_COSH),
    LossSpec(LossKind.LOG_COSH, h=0.7),
    LossSpec(LossKind.TILTED_LOG_COSH, tau=0.25),
    LossSpec(LossKind.CHECK, tau=0.9),
    LossSpec(LossKind.HUBER, delta=0.5),
    LossSpec(LossKind.MSE),
    LossSpec(LossKind.MAE),
]
CONTEXTS = [
    LipschitzContext(m=64, y_norm=2.5, k_z=3.0),
    LipschitzContext(m=7, y_norm=0.3, k_z=11.0, g_at_zero=1.0),
    LipschitzContext(m=256, y_norm=1e-3, k_z=0.0),  # floored
]


class TestLayerConstant:
    @pytest.mark.parametrize("loss", REGRESSION_LOSSES,
                             ids=["logcosh", "logcosh-h0.7", "tilted-0.25", "check-0.9", "huber-0.5", "mse", "mae"])
    @pytest.mark.parametrize("ctx", CONTEXTS)
    def test_the_trainer_reads_the_one_formula(self, loss, ctx):
        config = TrainConfig(task="regression", loss=loss)
        closed = max((1.0 / ctx.m) * slope_bound(loss, abs(ctx.g_at_zero - ctx.y_norm)) * ctx.k_z, K_FLOOR)
        got = _layer_constant(config, ctx)
        assert _bits(got) == _bits(regression_lipschitz_constant(ctx, config.loss)) == _bits(closed)

    @pytest.mark.parametrize("ctx", CONTEXTS)
    def test_the_default_loss_is_log_cosh_with_h_1(self, ctx):
        tanh_form = max((1.0 / ctx.m) * math.tanh(abs(ctx.g_at_zero - ctx.y_norm)) * ctx.k_z, K_FLOOR)
        assert _bits(regression_lipschitz_constant(ctx)) == _bits(tanh_form)


class TestLalrAdamPolicy:
    def test_the_constructor_refuses_an_explicit_constant(self):
        with pytest.raises(ValueError, match="optimizer.kind 'lalr-adam'.*train.lr_policy must be 'lalr'"):
            TrainConfig(task="classification", optimizer=OptimizerSpec(kind="lalr-adam"), lr_policy="constant")

    def test_an_unset_policy_resolves_per_optimizer(self):
        assert TrainConfig(task="classification").lr_policy == "constant"
        assert TrainConfig(task="classification", optimizer=OptimizerSpec(kind="lbfgs")).lr_policy == "constant"
        lalr = TrainConfig(task="classification", optimizer=OptimizerSpec(kind="lalr-adam"))
        assert lalr.lr_policy == "lalr"
        assert lalr == TrainConfig(task="classification", optimizer=OptimizerSpec(kind="lalr-adam"), lr_policy="lalr")
        assert lalr.to_dict()["train"]["lr_policy"] == "lalr"
        assert TrainConfig.from_dict(lalr.to_dict()) == lalr


class TestValMetric:
    def test_classification_is_the_accuracy_of_the_confusion_matrix(self):
        rng = np.random.default_rng(3)
        outputs, y = rng.normal(size=(3, 41, 1)), (rng.random(41) < 0.4).astype(float)
        config = TrainConfig(task="classification", sbqc_tau=0.3)
        for out, head in zip(outputs, _head_val_metrics(config, outputs, y)):
            pred = (predict_prob(out[:, 0], 0.3) >= 0.5).astype(float)
            accuracy = classification_metrics(ConfusionMatrix.from_labels(y, pred)).accuracy
            assert _bits(head) == _bits(accuracy)

    def test_regression_is_the_rmse(self):
        rng = np.random.default_rng(4)
        outputs, y = rng.normal(size=(2, 30, 1)), rng.normal(size=(30, 1))
        config = TrainConfig(task="regression", loss=LossSpec(LossKind.MSE))
        for out, head in zip(outputs, _head_val_metrics(config, outputs, y)):
            assert _bits(head) == _bits(rmse(out.ravel(), y.ravel()))


def _huge_targets(tmp_path: Path) -> Path:
    """60 rows whose targets near 1e160 overflow the MSE of any first step."""
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(60, 3)), 1e160 * (1.0 + rng.random(60))
    path = tmp_path / "huge.csv"
    path.write_text("a,b,c,t\n" + "".join(",".join(map(repr, [*r, t])) + "\n"
                                          for r, t in zip(X.tolist(), y.tolist())))
    return path


class TestLbfgsDivergence:
    @pytest.mark.parametrize("kind", ["adam", "lbfgs"])
    def test_overflowing_targets_are_diverged_runs(self, tmp_path, capsys, kind):
        doc = {"task": "regression", "dataset": {"path": str(_huge_targets(tmp_path)), "target": "t"},
               "model": {"hidden_sizes": [8]}, "loss": {"kind": "mse"}, "optimizer": {"kind": kind},
               "train": {"epochs": 5, "repeats": 1, "folds": 2}}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cpath), "--out", str(tmp_path / "out")]) == 0
        assert "all 2 runs diverged" in capsys.readouterr().err
        records = json.loads((tmp_path / "out" / "report.json").read_text())["records"]
        assert [(r["diverged"], len(r["val_metric"])) for r in records] == [(True, 0), (True, 0)]

    def test_train_single_records_where_it_diverged(self):
        rng = np.random.default_rng(1)
        X, y = rng.normal(size=(40, 3)), 1e160 * (1.0 + rng.random(40))
        config = TrainConfig(task="regression", hidden_sizes=(8,), loss=LossSpec(LossKind.MSE),
                             optimizer=OptimizerSpec(kind="lbfgs"), epochs=5)
        run = train_single(config, X, y, X[:10], y[:10], seed=3)
        assert run.diverged and run.diverged_at == (0, 0) and run.val_metric == []


def test_verify_runs_from_the_package_alone(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "quantloss", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "quantloss", "verify"], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(tmp_path)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "trainer.stacked_repeats" in done.stdout and "all properties satisfied" in done.stdout


def test_a_config_naming_a_path_and_a_synthetic_set_is_refused(tmp_path, capsys):
    doc = {"task": "classification",
           "dataset": {"synthetic": "banknote", "path": "missing.csv", "target": "label"},
           "model": {"hidden_sizes": [2]},
           "train": {"epochs": 1, "batch_size": 512, "repeats": 1, "folds": 2}}
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cpath), "--out", str(tmp_path / "out")]) == 1
    assert "field dataset" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
