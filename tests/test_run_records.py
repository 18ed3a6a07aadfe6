"""One record per run: a ``train()`` record is its run, as ``train_single`` trains it alone.

``RunRecord`` extends ``SingleRun``, so every per-run field reaches the
record: here each record's ``SingleRun`` fields must equal, bit for bit,
those of the run its seed trains alone on the same standardized fold, for a
diverging Adam run and for L-BFGS runs with rejected line searches.  Only
``final_params`` is left out of a record, and ``to_dict()`` keeps its 11 keys.
"""

import dataclasses

import numpy as np

from quantloss.data import Dataset, standardize_apply, standardize_fit, stratified_kfold, subset
from quantloss.losses import LossKind, LossSpec
from quantloss.trainer import OptimizerSpec, RunRecord, SingleRun, TrainConfig, derive_seed, train, train_single

REPORTED = {"fold", "repeat", "diverged", "best_epoch", "train_loss", "val_loss", "val_metric",
            "lr_trace", "k_trace", "test_metrics", "val_metrics"}
RUN_FIELDS = [f.name for f in dataclasses.fields(SingleRun)]


def _regression(scale: float) -> Dataset:
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 3))
    y = scale * (X @ np.array([1.0, -2.0, 0.5]))
    return Dataset(X=X, y=y, feature_names=["a", "b", "c"], target_name="t", task="regression")


def _solo(config: TrainConfig, plan, ds: Dataset, rec: RunRecord) -> SingleRun:
    """The run of ``rec``'s seed trained alone on its fold, standardized as ``train()`` does."""
    train_idx, _ = plan.folds[rec.fold]
    tr, stats = standardize_fit(subset(ds, train_idx))
    val = standardize_apply(stats, subset(ds, plan.val_idx))
    return train_single(config, tr.X, tr.y, val.X, val.y, derive_seed(config.seed, rec.fold, rec.repeat))


def _assert_records_are_their_runs(config: TrainConfig, ds: Dataset) -> list[RunRecord]:
    plan = stratified_kfold(ds, 2, 0.2, seed=0)
    records = train(config, plan, ds).records
    for rec in records:
        solo = _solo(config, plan, ds, rec)
        for name in RUN_FIELDS:
            got, want = getattr(rec, name), getattr(solo, name)
            if name == "final_params":
                assert got is None and want is not None
            elif isinstance(want, np.ndarray):
                np.testing.assert_array_equal(got, want)
            else:
                assert got == want, name
        assert set(rec.to_dict()) == REPORTED
    return records


def test_a_diverging_adam_run_carries_where_it_diverged():
    # one Adam step of ~1e100 per weight puts the outputs near 1e200, whose square overflows
    config = TrainConfig(task="regression", hidden_sizes=(8,), loss=LossSpec(LossKind.MSE),
                         optimizer=OptimizerSpec(kind="adam", lr=1e100), epochs=4, batch_size=16, repeats=2)
    records = _assert_records_are_their_runs(config, _regression(1.0))
    assert all(rec.diverged and rec.diverged_at == (0, 0) for rec in records)
    assert all(rec.to_dict()["diverged"] for rec in records)


def test_lbfgs_records_carry_their_line_search_failures():
    config = TrainConfig(task="regression", hidden_sizes=(8,), loss=LossSpec(LossKind.MSE),
                         optimizer=OptimizerSpec(kind="lbfgs", max_line_search=1), epochs=6, repeats=2)
    records = _assert_records_are_their_runs(config, _regression(50.0))
    assert any(rec.line_search_failures > 0 for rec in records)
    assert all(not rec.diverged and rec.diverged_at is None for rec in records)


def test_a_classification_record_carries_its_best_metric():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(90, 4))
    y = (X[:, 0] - X[:, 1] + 0.5 * rng.normal(size=90) > 0).astype(float)
    ds = Dataset(X=X, y=y, feature_names=list("abcd"), target_name="y", task="classification")
    config = TrainConfig(task="classification", hidden_sizes=(6,), optimizer=OptimizerSpec(kind="lalr-adam"),
                         epochs=3, batch_size=16, repeats=2)
    for rec in _assert_records_are_their_runs(config, ds):
        assert rec.higher_better and rec.best_metric == rec.val_metric[rec.best_epoch]
        assert len(rec.lr_trace) == len(rec.k_trace) > 0
