"""Trainer protocol: reproducibility, adaptive-lr traces, leakage guards,
divergence tolerance, threshold queries."""

import json
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from quantloss.data import Dataset, standardize_fit, stratified_kfold, subset
from quantloss.losses import LossKind, LossSpec
from quantloss.optim import lalr_lr
from quantloss.synthetic import pima_like
from quantloss.trainer import (
    OptimizerSpec,
    TrainConfig,
    _pool_size,
    _usable_cpus,
    epochs_to_threshold,
    train,
    worker_count,
)


def _toy_regression(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=n)
    return Dataset(X, y, ["a", "b", "c"], "y", "regression")


def _small_cls_config(**kw):
    base = dict(
        task="classification",
        hidden_sizes=(16,),
        optimizer=OptimizerSpec(kind="lalr-adam"),
        lr_policy="lalr",
        epochs=8,
        batch_size=32,
        repeats=2,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_epochs_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(task="classification", epochs=0)

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(task="classification", repeats=0)

    def test_regression_needs_loss(self):
        with pytest.raises(ValueError):
            TrainConfig(task="regression", epochs=5)

    def test_lbfgs_with_lalr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(
                task="classification",
                optimizer=OptimizerSpec(kind="lbfgs"),
                lr_policy="lalr",
            )

    def test_lalr_adam_implies_lalr_policy(self):
        cfg = TrainConfig(task="classification", optimizer=OptimizerSpec(kind="lalr-adam"))
        assert cfg.lr_policy == "lalr"

    def test_from_dict_defaults(self):
        cfg = TrainConfig.from_dict({"task": "classification"})
        assert cfg.epochs == 50 and cfg.batch_size == 64 and cfg.repeats == 20
        cfg = TrainConfig.from_dict(
            {"task": "regression", "loss": {"kind": "logcosh"}}
        )
        assert cfg.epochs == 500 and cfg.batch_size == 256

    def test_round_trip_through_dict(self):
        cfg = _small_cls_config()
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestTrain:
    def test_reports_are_byte_identical(self, tmp_path):
        ds = pima_like(n=200)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=1)
        cfg = _small_cls_config(epochs=4, repeats=2, seed=3)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        train(cfg, plan, ds).to_json(p1)
        train(cfg, plan, ds).to_json(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lalr_trace_is_clamped_reciprocal_of_k(self):
        ds = pima_like(n=200)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=1)
        cfg = _small_cls_config(epochs=3, repeats=1)
        report = train(cfg, plan, ds)
        for rec in report.records:
            assert rec.lr_trace and rec.k_trace
            for lr, k in zip(rec.lr_trace, rec.k_trace):
                assert cfg.optimizer.lr_min <= lr <= cfg.optimizer.lr_max
                assert lr == lalr_lr(k, cfg.optimizer.lr_min, cfg.optimizer.lr_max)

    def test_train_loss_decreases_on_convex_toy(self):
        # linear data, adam with a small constant lr: the first epochs descend
        ds = _toy_regression()
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        cfg = TrainConfig(
            task="regression",
            hidden_sizes=(),
            activation="identity",
            loss=LossSpec(LossKind.LOG_COSH),
            optimizer=OptimizerSpec(kind="adam", lr=0.05),
            epochs=10,
            batch_size=32,
            repeats=1,
            seed=0,
        )
        report = train(cfg, plan, ds)
        losses = report.records[0].train_loss
        assert all(b < a for a, b in zip(losses[:10], losses[1:10]))

    def test_task_mismatch_rejected(self):
        ds = _toy_regression()
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        with pytest.raises(ValueError):
            train(_small_cls_config(), plan, ds)

    def test_divergent_run_is_recorded_not_raised(self):
        # an absurd constant lr reliably blows up the regression net
        ds = _toy_regression(seed=2)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        cfg = TrainConfig(
            task="regression",
            hidden_sizes=(8,),
            loss=LossSpec(LossKind.MSE),
            optimizer=OptimizerSpec(kind="adam", lr=1e4, lr_max=1e9),
            epochs=12,
            batch_size=16,
            repeats=2,
            seed=0,
        )
        report = train(cfg, plan, ds)
        assert len(report.records) == 4
        diverged = [r for r in report.records if r.diverged]
        healthy = [r for r in report.records if not r.diverged]
        # the protocol carries on either way; aggregates skip diverged runs
        assert len(diverged) + len(healthy) == 4
        if diverged:
            assert report.aggregates["rmse"]["n"] == len(healthy)

    def test_no_leakage_validation_standardized_with_train_stats(self):
        # deliberately leaky recomputation must disagree with the report
        ds = _toy_regression(seed=5)
        rng = np.random.default_rng(0)
        ds.X[:, 0] = ds.X[:, 0] * 10 + 50  # a feature with a big offset
        plan = stratified_kfold(ds, k=2, val_fraction=0.3, seed=0)
        cfg = TrainConfig(
            task="regression",
            hidden_sizes=(),
            activation="identity",
            loss=LossSpec(LossKind.MSE),
            optimizer=OptimizerSpec(kind="adam", lr=0.05),
            epochs=5,
            batch_size=32,
            repeats=1,
            seed=0,
        )
        report = train(cfg, plan, ds)
        rec = report.records[0]
        from quantloss.data import standardize_apply
        from quantloss.network import forward, init_model, set_flat_params
        from quantloss.trainer import _layer_spec, derive_seed

        train_idx, _ = plan.folds[rec.fold]
        tr = subset(ds, train_idx)
        val = subset(ds, plan.val_idx)
        _, stats = standardize_fit(tr)
        spec = _layer_spec(cfg, 3, 1)
        model = init_model(spec, derive_seed(cfg.seed, rec.fold, rec.repeat))
        set_flat_params(model, rec.best_params)
        honest, _ = forward(model, standardize_apply(stats, val).X)
        leaky_ds, _ = standardize_fit(val)  # refit on validation = leakage
        leaky, _ = forward(model, leaky_ds.X)
        from quantloss.metrics import rmse as _rmse

        assert _rmse(honest.ravel(), val.y) == pytest.approx(
            rec.val_metrics["rmse"], abs=1e-12
        )
        assert _rmse(leaky.ravel(), val.y) != pytest.approx(
            rec.val_metrics["rmse"], abs=1e-9
        )

    def test_exported_standardizer_is_the_best_runs_fold_fit(self, monkeypatch):
        # a constant feature floors its variance: one warning per fold job, none from train()
        monkeypatch.setenv("QUANTLOSS_THREADS", "1")
        ds = _toy_regression(seed=5)
        ds.X[:, 1] = 3.0
        plan = stratified_kfold(ds, k=3, val_fraction=0.2, seed=0)
        cfg = TrainConfig(task="regression", hidden_sizes=(4,), loss=LossSpec(LossKind.MSE),
                          optimizer=OptimizerSpec(kind="adam", lr=0.05), epochs=2, batch_size=32,
                          repeats=2, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = train(cfg, plan, ds)
        assert sum("variance floored" in str(w.message) for w in caught) == 3
        best = min(report.records, key=lambda r: r.val_metrics["rmse"])
        assert report.best_standardizer is best.standardizer
        with pytest.warns(RuntimeWarning, match="floored"):
            _, want = standardize_fit(subset(ds, plan.folds[best.fold][0]))
        np.testing.assert_array_equal(report.best_standardizer.mean, want.mean)
        np.testing.assert_array_equal(report.best_standardizer.scale, want.scale)
        assert report.best_standardizer.floored == want.floored == (1,)

    def test_lbfgs_path_trains_regression(self):
        ds = _toy_regression(seed=7)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        cfg = TrainConfig(
            task="regression",
            hidden_sizes=(8,),
            loss=LossSpec(LossKind.LOG_COSH),
            optimizer=OptimizerSpec(kind="lbfgs"),
            epochs=40,
            batch_size=64,
            repeats=1,
            seed=0,
        )
        report = train(cfg, plan, ds)
        rec = report.records[0]
        assert not rec.diverged
        assert rec.val_metrics["rmse"] < 0.5

    @pytest.mark.parametrize("kind,params", [
        ("check", {"tau": 0.3}),
        ("huber", {"delta": 0.8}),
        ("mae", {}),
        ("mse", {}),
        ("logcosh", {"h": 0.7}),
    ])
    def test_lalr_runs_with_every_regression_loss(self, kind, params):
        # the tanh-based constant covers plain log-cosh; other kinds fall back
        # to the generic slope bound with the same (1/m) slope k_z structure
        ds = _toy_regression(seed=9)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        cfg = TrainConfig(
            task="regression",
            hidden_sizes=(8,),
            loss=LossSpec(LossKind(kind), **params),
            optimizer=OptimizerSpec(kind="lalr-adam"),
            lr_policy="lalr",
            epochs=3,
            batch_size=32,
            repeats=1,
            seed=0,
        )
        report = train(cfg, plan, ds)
        rec = report.records[0]
        assert not rec.diverged
        assert rec.lr_trace
        for lr, k in zip(rec.lr_trace, rec.k_trace):
            assert lr == lalr_lr(k, cfg.optimizer.lr_min, cfg.optimizer.lr_max)

    def test_exponential_policy_decays(self):
        from quantloss.trainer import _epoch_lr

        cfg = TrainConfig(
            task="regression",
            loss=LossSpec(LossKind.MSE),
            optimizer=OptimizerSpec(kind="adam", lr=0.9),
            lr_policy="exponential",
            epochs=2,
        )
        lrs = [_epoch_lr(cfg, e) for e in range(5000)]
        assert lrs[0] == 0.9
        assert all(b < a for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] == pytest.approx(0.9 * np.exp(-1e-4 * 4999))


class TestEpochsToThreshold:
    def _report(self, trace):
        ds = pima_like(n=150)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        cfg = _small_cls_config(epochs=len(trace), repeats=1)
        report = train(cfg, plan, ds)
        for rec in report.records:
            rec.val_metric = list(trace)
        return report

    def test_threshold_below_initial_is_zero(self):
        report = self._report([0.6, 0.7, 0.8])
        assert epochs_to_threshold(report, "accuracy", 0.5) == 0

    def test_never(self):
        report = self._report([0.6, 0.7, 0.8])
        assert epochs_to_threshold(report, "accuracy", 0.99) is None

    def test_crossing_epoch(self):
        report = self._report([0.1, 0.2, 0.3, 0.45, 0.7, 0.9])
        assert epochs_to_threshold(report, "accuracy", 0.7) == 4

    def test_unknown_metric(self):
        report = self._report([0.5])
        with pytest.raises(ValueError):
            epochs_to_threshold(report, "auc", 0.5)


class TestReportSerialization:
    def test_summary_csv_and_metric_records(self, tmp_path):
        ds = pima_like(n=150)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        cfg = _small_cls_config(epochs=3, repeats=1)
        report = train(cfg, plan, ds)
        csv_path = tmp_path / "summary.csv"
        report.summary_csv(csv_path)
        text = csv_path.read_text()
        assert "accuracy" in text and "mean" in text
        records = report.metric_records("pima", "sbqc", "lalr-adam")
        assert all(r["dataset"] == "pima" for r in records)
        assert {r["metric"] for r in records} >= {"accuracy", "f1", "jaccard", "kappa"}

    def test_json_round_trip(self, tmp_path):
        ds = pima_like(n=150)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        report = train(_small_cls_config(epochs=2, repeats=1), plan, ds)
        p = tmp_path / "report.json"
        report.to_json(p)
        doc = json.loads(p.read_text())
        assert set(doc) == {"config", "records", "aggregates"}
        assert doc["aggregates"]["accuracy"]["n"] == 2


class TestWorkerCount:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("QUANTLOSS_THREADS", raising=False)
        assert worker_count() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QUANTLOSS_THREADS", "4")
        assert worker_count() == 4
        monkeypatch.setenv("QUANTLOSS_THREADS", "bogus")
        assert worker_count() == 1

    def test_parallel_matches_sequential(self, monkeypatch):
        ds = pima_like(n=150)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        cfg = _small_cls_config(epochs=3, repeats=2)
        monkeypatch.delenv("QUANTLOSS_THREADS", raising=False)
        seq = train(cfg, plan, ds)
        monkeypatch.setenv("QUANTLOSS_THREADS", "4")
        par = train(cfg, plan, ds)
        assert seq.to_dict() == par.to_dict()


class TestProcessPool:
    def test_pool_size_caps_at_usable_cpus_and_jobs(self, monkeypatch):
        monkeypatch.setenv("QUANTLOSS_THREADS", "100000")
        cpus = len(os.sched_getaffinity(0))
        assert _usable_cpus() == cpus
        assert _pool_size(25) == min(cpus, 25)
        assert _pool_size(1) == 1
        monkeypatch.setattr("quantloss.trainer._usable_cpus", lambda: 64)
        assert _pool_size(25) == 25
        monkeypatch.setenv("QUANTLOSS_THREADS", "3")
        assert _pool_size(25) == 3
        monkeypatch.delenv("QUANTLOSS_THREADS")
        assert _pool_size(25) == 1

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cpus() == 1

    @pytest.mark.parametrize("caller_blas", [None, "3"])
    def test_spawn_fallback_matches_sequential_and_restores_blas_setting(
        self, monkeypatch, caller_blas
    ):
        ds = pima_like(n=120)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        cfg = _small_cls_config(epochs=2, repeats=1)
        if caller_blas is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller_blas)
        monkeypatch.delenv("QUANTLOSS_THREADS", raising=False)
        seq = train(cfg, plan, ds)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr("quantloss.trainer._usable_cpus", lambda: 2)
        monkeypatch.setenv("QUANTLOSS_THREADS", "2")
        par = train(cfg, plan, ds)
        assert seq.to_dict() == par.to_dict()
        assert os.environ.get("OPENBLAS_NUM_THREADS") == caller_blas


def test_a_plan_without_validation_rows_is_refused_naming_val_fraction():
    ds = pima_like(n=120)
    plan = stratified_kfold(ds, k=2, val_fraction=0.0, seed=0)
    assert plan.val_idx.size == 0
    with pytest.raises(ValueError, match=r"train\.val_fraction"):
        train(_small_cls_config(epochs=1, repeats=1), plan, ds)
