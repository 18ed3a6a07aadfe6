"""The tau grid trained in the trainer's Adam loop: optimizer kinds, lr
policies, dropout and divergence, through ``multi_quantile_train`` and
``quantloss quantiles``."""

import json

import numpy as np
import pytest

import quantloss.trainer as trainer
from quantloss.classify import multi_quantile_train
from quantloss.cli import main
from quantloss.data import write_csv
from quantloss.network import flatten_params
from quantloss.optim import lalr_lr, sbqc_lipschitz_constant
from quantloss.synthetic import pima_like
from quantloss.trainer import OptimizerSpec, TrainConfig

GRID = [0.25, 0.5, 0.75]


@pytest.fixture
def grid_config(tmp_path):
    """A LALR-Adam quantiles config on a small pima-like CSV; returns (path, doc)."""
    csv = tmp_path / "pima.csv"
    write_csv(pima_like(n=200), csv)
    doc = {
        "task": "classification",
        "dataset": {"path": str(csv), "target": "diabetes"},
        "model": {"hidden_sizes": [8], "activation": "relu"},
        "sbqc": {"tau": 0.5, "tau_grid": GRID},
        "optimizer": {"kind": "lalr-adam"},
        "train": {"epochs": 3, "seed": 1},
    }
    return tmp_path / "config.json", doc


def _quantiles(cpath, doc, out, *extra):
    cpath.write_text(json.dumps(doc))
    return main(["quantiles", "--config", str(cpath), "--out", str(out), *extra])


def _toy(n=160, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.logistic(size=n) > 0).astype(float)
    return X, y


def test_lalr_config_trains_each_level_at_its_own_rate(grid_config, tmp_path, monkeypatch):
    cpath, doc = grid_config
    opt = OptimizerSpec(kind="lalr-adam")
    steps = []
    real_forward, real_adam_step = trainer.forward, trainer.adam_step

    def spy_forward(model, batch, *args, **kwargs):
        out, trace = real_forward(model, batch, *args, **kwargs)
        steps.append({"k_z": trace.head_k_z.tolist()})
        return out, trace

    def spy_adam_step(state, params, grads, lr):
        steps[-1]["lr"] = lr
        return real_adam_step(state, params, grads, lr)

    monkeypatch.setattr(trainer, "forward", spy_forward)
    monkeypatch.setattr(trainer, "adam_step", spy_adam_step)
    assert _quantiles(cpath, doc, tmp_path / "q") == 0
    # 200 rows in batches of 64 for 3 epochs
    assert len(steps) == 3 * 4
    for step in steps:
        assert len(step["k_z"]) == len(GRID)
        want = [lalr_lr(sbqc_lipschitz_constant(tau) * k_z, opt.lr_min, opt.lr_max)
                for tau, k_z in zip(GRID, step["k_z"])]
        assert step["lr"] == want


def test_lbfgs_config_exits_1_naming_optimizer_kind(grid_config, tmp_path, capsys):
    cpath, doc = grid_config
    doc["optimizer"] = {"kind": "lbfgs"}
    out = tmp_path / "q"
    assert _quantiles(cpath, doc, out) == 1
    assert "optimizer.kind" in capsys.readouterr().err
    assert not out.exists()


def test_diverging_grid_exits_1_naming_level_and_epoch(grid_config, tmp_path, capsys):
    cpath, doc = grid_config
    doc["optimizer"] = {"kind": "adam", "lr": 1e300}
    with np.errstate(all="ignore"):
        assert _quantiles(cpath, doc, tmp_path / "q") == 1
    err = capsys.readouterr().err
    assert "head diverged in epoch 0" in err
    assert any(f"tau = {tau:g} head" in err for tau in GRID)


def test_a_diverging_head_fails_naming_its_level_and_epoch():
    X, y = _toy()
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"tau = 0\.\d+ head diverged in epoch 0"):
        multi_quantile_train(X, y, GRID, hidden_sizes=(8,), epochs=3, lr=1e300, seed=0)


def test_the_first_failing_head_is_named(monkeypatch):
    X, y = _toy()
    real_forward, calls = trainer.forward, []

    def forward_with_a_bad_head(model, batch, *args, **kwargs):
        out, trace = real_forward(model, batch, *args, **kwargs)
        calls.append(None)
        if len(calls) == 7:  # 160 rows in batches of 64: the first batch of epoch 2
            out[1, 0, 0] = np.nan
        return out, trace

    monkeypatch.setattr(trainer, "forward", forward_with_a_bad_head)
    with pytest.raises(ValueError, match=r"^tau = 0\.5 head diverged in epoch 2$"):
        multi_quantile_train(X, y, GRID, hidden_sizes=(8,), epochs=4, seed=0)


@pytest.mark.parametrize("kind, policy", [("lalr-adam", "lalr"), ("adam", "exponential")])
def test_lambda_zero_equals_independent_training_with_dropout(kind, policy):
    """Each head keeps its own initialisation, dropout masks and rate, so with
    the penalty off it equals the run of its level alone."""
    X, y = _toy(150, seed=4)
    config = TrainConfig(task="classification", hidden_sizes=(8,), dropout=0.2,
                         optimizer=OptimizerSpec(kind=kind, lr=0.02), lr_policy=policy,
                         epochs=4, batch_size=32, seed=6)
    joint = multi_quantile_train(X, y, GRID, reg_weight=0.0, config=config)
    no_dropout = TrainConfig(task="classification", hidden_sizes=(8,), optimizer=config.optimizer,
                             lr_policy=policy, epochs=4, batch_size=32, seed=6)
    plain = multi_quantile_train(X, y, GRID, reg_weight=0.0, config=no_dropout)
    for k, tau in enumerate(GRID):
        solo = multi_quantile_train(X, y, [tau], reg_weight=0.0, config=config)
        np.testing.assert_array_equal(flatten_params(joint.models[k]), flatten_params(solo.models[0]))
        assert not np.array_equal(flatten_params(joint.models[k]), flatten_params(plain.models[k]))


def test_penalty_history_follows_the_config_epochs():
    X, y = _toy()
    history = []
    config = TrainConfig(task="classification", hidden_sizes=(8,), optimizer=OptimizerSpec(kind="lalr-adam"),
                         epochs=7, batch_size=32, seed=2)
    mq = multi_quantile_train(X, y, GRID, penalty_history=history, config=config)
    assert len(history) == 7
    assert len(mq.models) == len(GRID)
    assert mq.tau_grid == tuple(GRID)


def test_grid_runs_of_one_stack_equal_their_solo_runs():
    """Two seeds' grids stacked together: each run's heads equal its grid trained alone."""
    X, y = _toy(120, seed=8)
    config = TrainConfig(task="classification", hidden_sizes=(6,), dropout=0.1,
                         optimizer=OptimizerSpec(kind="lalr-adam"), epochs=3, batch_size=32)
    spec = trainer._layer_spec(config, X.shape[1], 1)
    stacked = trainer._train_adam(config, spec, X, y, None, None, [5, 9], GRID, 1.0)
    for seed, run in zip([5, 9], stacked):
        (solo,) = trainer._train_adam(config, spec, X, y, None, None, [seed], GRID, 1.0)
        assert not run.diverged and run.best_epoch == 0 and run.val_metric == []
        np.testing.assert_array_equal(run.final_params, solo.final_params)
        assert run.lr_trace == solo.lr_trace and len(run.lr_trace) == 3 * 4 * len(GRID)
