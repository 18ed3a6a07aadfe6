"""A worker's bin trained as one stack across its folds.

Every run of a cross-fold stack must equal, field for field and bit for bit,
the run its seed trains alone on its own fold, so every comparison here is
exact.  The folds differ in their rows, their row counts (so the last batch
of an epoch differs between them), their label norms and their validation
rows.
"""

import concurrent.futures.process
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quantloss import trainer, verify
from quantloss.data import stratified_kfold
from quantloss.losses import LossKind, LossSpec
from quantloss.network import LayerSpec, ModelStack, Workspace, backward, forward, init_model, stack_models
from quantloss.synthetic import pima_like
from quantloss.trainer import OptimizerSpec, TrainConfig, train_single

REPO = Path(__file__).resolve().parent.parent


def _fields_that_differ(got, want) -> list[str]:
    out = []
    for name, value in vars(want).items():
        other = getattr(got, name)
        same = np.array_equal(other, value) if isinstance(value, np.ndarray) else other == value
        if not same:
            out.append(name)
    return out


def _folds(task, sizes, n_val=30, outputs=1, label_scales=None, seed=0):
    """One (X, y, X_val, y_val) per fold, each fold with its own rows and its
    own standardization of the validation rows."""
    rng = np.random.default_rng(seed)
    X_val = rng.normal(size=(n_val, 4))
    folds = []
    for f, n in enumerate(sizes):
        X = rng.normal(size=(n, 4))
        signal, val_signal = X @ np.array([1.0, -2.0, 0.5, 0.0]), X_val @ np.array([1.0, -2.0, 0.5, 0.0])
        if task == "classification":
            y, yv = (signal + 0.5 * rng.normal(size=n) > 0).astype(float), (val_signal > 0).astype(float)
        elif outputs == 1:
            y, yv = signal + 0.1 * rng.normal(size=n), val_signal
        else:
            y = np.column_stack([signal, np.sin(X[:, 0])])
            yv = np.column_stack([val_signal, np.sin(X_val[:, 0])])
        scale = 1.0 if label_scales is None else label_scales[f]
        shift = 0.1 * f
        folds.append((X, scale * y, (X_val - shift) / (1.0 + shift), scale * yv))
    return folds


def _train_folds(config, folds, seeds):
    return train_single(config, *map(list, zip(*folds)), seeds)


def _assert_each_run_equals_its_solo_run(config, folds, seeds):
    stacked = _train_folds(config, folds, seeds)
    assert [len(runs) for runs in stacked] == [len(s) for s in seeds]
    for split, fold_seeds, runs in zip(folds, seeds, stacked):
        for seed, got in zip(fold_seeds, runs):
            assert _fields_that_differ(got, train_single(config, *split, seed)) == []
    return stacked


SBQC_DROPOUT = TrainConfig(task="classification", hidden_sizes=(12,), dropout=0.1, sbqc_tau=0.3,
                           optimizer=OptimizerSpec(kind="lalr-adam"), epochs=4, batch_size=16)
LALR_REGRESSION = TrainConfig(task="regression", hidden_sizes=(12,), loss=LossSpec(LossKind.LOG_COSH),
                              optimizer=OptimizerSpec(kind="lalr-adam"), epochs=3, batch_size=16)
LOGCOSH_EXPDECAY = TrainConfig(task="regression", hidden_sizes=(8,), activation="tanh",
                               loss=LossSpec(LossKind.LOG_COSH), optimizer=OptimizerSpec(kind="adam", lr=0.05),
                               lr_policy="exponential", epochs=3, batch_size=256)


class TestCrossFoldStackEqualsSoloRuns:
    def test_sbqc_lalr_adam_with_dropout(self):
        # six batches a fold; last batches of 10, 13, 11 and 10 rows, so folds
        # 0 and 3 share a row-count group while folds 0 and 2 do not sit together
        folds = _folds("classification", (90, 93, 91, 90))
        stacked = _assert_each_run_equals_its_solo_run(SBQC_DROPOUT, folds, [[1, 2], [3], [4, 5], [6]])
        assert all(len(run.lr_trace) == 4 * 6 for runs in stacked for run in runs)

    def test_lalr_regression_with_a_label_norm_per_fold(self):
        folds = _folds("regression", (40, 45, 47), label_scales=(1.0, 3.0, 0.5))
        stacked = _assert_each_run_equals_its_solo_run(LALR_REGRESSION, folds, [[1, 2], [3, 4], [5]])
        # each fold's label norm sets its own layer constant
        first_k = [runs[0].k_trace[0] for runs in stacked]
        assert len(set(first_k)) == 3

    def test_two_output_lalr_regression_with_dropout(self):
        config = TrainConfig(task="regression", hidden_sizes=(16, 8), dropout=0.1,
                             loss=LossSpec(LossKind.LOG_COSH), optimizer=OptimizerSpec(kind="lalr-adam"),
                             epochs=3, batch_size=16)
        folds = _folds("regression", (50, 63), outputs=2, label_scales=(1.0, 2.0))
        _assert_each_run_equals_its_solo_run(config, folds, [[7], [8, 9]])

    def test_logcosh_adam_with_exponential_decay_and_255_and_256_row_last_batches(self):
        folds = _folds("regression", (512, 511, 512))
        _assert_each_run_equals_its_solo_run(LOGCOSH_EXPDECAY, folds, [[1], [2, 3], [4]])

    def test_one_fold_in_a_list_equals_the_plain_call(self):
        (split,) = folds = _folds("classification", (70,))
        (runs,) = _train_folds(SBQC_DROPOUT, folds, [[1, 2, 3]])
        plain = train_single(SBQC_DROPOUT, *split, [1, 2, 3])
        assert [_fields_that_differ(a, b) for a, b in zip(runs, plain)] == [[], [], []]


class TestDivergenceAcrossFolds:
    CONFIG = TrainConfig(task="regression", hidden_sizes=(8,), loss=LossSpec(LossKind.LOG_COSH),
                         optimizer=OptimizerSpec(kind="adam", lr=0.05), epochs=6, batch_size=16)
    #: four batches a fold, the last of 12, 10 and 7 rows
    SIZES = (60, 58, 55)
    SEEDS = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    @staticmethod
    def _failing_loss(high, low, short_only=False):
        """Log-cosh whose value is NaN for an example with |prediction| >
        high and whose slope is +inf where low < |prediction| <= high; with
        ``short_only``, only in batches of fewer than 16 rows (an epoch's
        last).  Decided example by example, so a stack and a solo run agree."""
        original = trainer.batch_loss

        def patched(spec, predictions, targets, reduction="mean"):
            value, grad = original(spec, predictions, targets, reduction)
            if short_only and predictions.shape[-2] >= 16:
                return value, grad
            size = np.abs(predictions)
            nan_at, inf_at = size > high, (size > low) & (size <= high)
            if reduction == "none":
                value = np.where(nan_at.any(axis=-1), np.nan, value)
            elif nan_at.any():
                value = np.nan
            return value, np.where(inf_at, np.inf, grad)
        return patched

    @pytest.mark.parametrize("high, low, label_scales, short_only", [
        (10.0, 8.0, (2.0, 1.0, 2.0), False),
        (9.0, 7.0, (2.5, 1.5, 2.0), True),
    ], ids=["any-batch", "last-batch"])
    def test_runs_that_diverge_stop_alone_and_the_others_go_on(self, monkeypatch, high, low, label_scales,
                                                                short_only):
        monkeypatch.setattr(trainer, "batch_loss", self._failing_loss(high, low, short_only))
        folds = _folds("regression", self.SIZES, label_scales=label_scales)
        stacked = _assert_each_run_equals_its_solo_run(self.CONFIG, folds, self.SEEDS)
        diverged = [[run.diverged for run in runs] for runs in stacked]
        assert any(any(d) and not all(d) for d in diverged)  # a fold with a diverged and a healthy run

    def test_a_fold_that_diverges_whole_leaves_the_other_fold_its_own_last_batch(self, monkeypatch):
        # the 60-row fold's runs stop in epochs 3 and 2; the 55-row fold's
        # last batches then hold their own 7 rows, not the bigger fold's 12
        monkeypatch.setattr(trainer, "batch_loss", self._failing_loss(9.0, 7.0))
        folds = _folds("regression", (55, 60), label_scales=(1.0, 20.0))
        stacked = _assert_each_run_equals_its_solo_run(self.CONFIG, folds, [[1, 2], [3, 4]])
        assert [[run.diverged for run in runs] for runs in stacked] == [[False, False], [True, True]]

    @pytest.mark.filterwarnings("error")
    def test_a_huge_rate_diverges_without_a_warning(self):
        config = TrainConfig(task="classification", hidden_sizes=(8,),
                             optimizer=OptimizerSpec(kind="adam", lr=1e300, lr_max=1e308), epochs=3, batch_size=16)
        folds = _folds("classification", (40, 45))
        stacked = _assert_each_run_equals_its_solo_run(config, folds, [[1, 2], [3]])
        assert all(run.diverged for runs in stacked for run in runs)


class TestStacksPerBatchCount:
    def test_folds_with_unequal_batch_counts_train_as_separate_stacks(self, monkeypatch):
        calls = []
        original = trainer._train_adam

        def spy(config, spec, X_train, y_train, X_val, y_val, seeds, *args, **kwargs):
            calls.append(([len(X) for X in X_train], seeds))
            return original(config, spec, X_train, y_train, X_val, y_val, seeds, *args, **kwargs)

        monkeypatch.setattr(trainer, "_train_adam", spy)
        # 64 and 63 rows make one batch of 64, 65 and 100 make two
        folds = _folds("classification", (64, 65, 63, 100))
        config = TrainConfig(task="classification", hidden_sizes=(8,), epochs=2, batch_size=64)
        seeds = [[1], [2, 3], [4], [5]]
        stacked = _train_folds(config, folds, seeds)
        assert calls[:2] == [([64, 63], [[1], [4]]), ([65, 100], [[2, 3], [5]])]
        for split, fold_seeds, runs in zip(folds, seeds, stacked):
            for seed, got in zip(fold_seeds, runs):
                assert _fields_that_differ(got, train_single(config, *split, seed)) == []

    def test_one_stack_rejects_folds_with_unequal_batch_counts(self):
        folds = _folds("classification", (64, 65))
        spec = trainer._layer_spec(SBQC_DROPOUT, 4, 1)
        with pytest.raises(ValueError, match=r"one batch count per epoch, got \[1, 2\]"):
            trainer._train_adam(TrainConfig(task="classification", batch_size=64), spec,
                                *map(list, zip(*folds)), [[1], [2]])

    def test_mismatched_fold_lists_are_rejected(self):
        folds = _folds("classification", (40, 41))
        X, y, Xv, yv = map(list, zip(*folds))
        with pytest.raises(ValueError, match="one training split, validation split and seed list per fold"):
            train_single(SBQC_DROPOUT, X, y, Xv, yv, [[1]])
        with pytest.raises(ValueError, match="need at least one seed"):
            train_single(SBQC_DROPOUT, X, y, Xv, yv, [[1], []])


class TestBins:
    def test_a_bin_is_one_train_single_call_with_the_records_of_its_pieces(self, monkeypatch):
        ds = pima_like(n=150)
        plan = stratified_kfold(ds, k=3, val_fraction=0.2, seed=0)
        config = TrainConfig(task="classification", hidden_sizes=(8,), dropout=0.2,
                             optimizer=OptimizerSpec(kind="lalr-adam"), epochs=3, batch_size=16, repeats=3)
        inputs = trainer._job_inputs(config, plan, ds)
        pieces = [(0, (1, 2)), (1, (0, 1, 2)), (2, (0,))]
        apart = [rec for piece in pieces for rec in trainer._run_bin([piece], inputs)]
        calls = []
        original = trainer.train_single
        monkeypatch.setattr(trainer, "train_single", lambda *a: calls.append(a) or original(*a))
        together = trainer._run_bin(pieces, inputs)
        assert len(calls) == 1
        assert [r.to_dict() for r in together] == [r.to_dict() for r in apart]
        assert all(np.array_equal(a.best_params, b.best_params) for a, b in zip(together, apart))
        assert [(r.fold, r.repeat) for r in together] == [(f, r) for f, rs in pieces for r in rs]


class TestHeadRanges:
    def test_a_head_range_shares_parameters_and_fills_its_slice_of_the_gradient(self):
        spec = LayerSpec(3, (5,), 1)
        stack = stack_models([init_model(spec, s) for s in range(4)])
        ws = Workspace(spec, 4)
        part, part_ws = stack.head_range(1, 3), ws.head_range(1, 3)
        assert isinstance(part, ModelStack) and part.seeds == (1, 2) and part_ws.heads == 2
        assert np.shares_memory(part.params, stack.params) and np.shares_memory(part_ws.grad, ws.grad)
        X = np.random.default_rng(0).normal(size=(2, 7, 3))
        out, trace = forward(part, X, workspace=part_ws)
        backward(part, trace, np.ones_like(out), workspace=part_ws)
        size = spec.num_params()
        assert not ws.grad[:size].any() and not ws.grad[3 * size :].any()
        for j, seed in enumerate((1, 2)):
            model = init_model(spec, seed)
            alone = Workspace(spec)
            out1, trace1 = forward(model, X[j], workspace=alone)
            backward(model, trace1, np.ones_like(out1), workspace=alone)
            np.testing.assert_array_equal(ws.grad[(1 + j) * size : (2 + j) * size], alone.grad)
            np.testing.assert_array_equal(out[j], out1)


class TestForkserverPath:
    @pytest.mark.parametrize("caller_path", [None, "elsewhere"])
    def test_the_package_root_is_on_pythonpath_while_the_pool_starts(self, monkeypatch, caller_path):
        seen = []

        class Recording(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                seen.append(os.environ.get("PYTHONPATH"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recording)
        if caller_path is None:
            monkeypatch.delenv("PYTHONPATH", raising=False)
        else:
            monkeypatch.setenv("PYTHONPATH", caller_path)
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("QUANTLOSS_THREADS", "2")
        ds = pima_like(n=120)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        trainer.train(TrainConfig(task="classification", hidden_sizes=(4,), epochs=1, repeats=1), plan, ds)
        root = str(REPO / "src")
        assert seen == [root if caller_path is None else os.pathsep.join([caller_path, root])]
        assert os.environ.get("PYTHONPATH") == caller_path

    def test_a_root_already_on_pythonpath_is_not_added_twice(self, monkeypatch):
        seen = []

        class Recording(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                seen.append(os.environ.get("PYTHONPATH"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recording)
        caller_path = os.pathsep.join([str(REPO / "src"), "elsewhere"])
        monkeypatch.setenv("PYTHONPATH", caller_path)
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("QUANTLOSS_THREADS", "2")
        ds = pima_like(n=120)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        trainer.train(TrainConfig(task="classification", hidden_sizes=(4,), epochs=1, repeats=1), plan, ds)
        assert seen == [caller_path]

    @pytest.mark.parametrize("where", ["site", "user site"])
    @pytest.mark.parametrize("caller_path", [None, "elsewhere"])
    def test_an_installed_package_leaves_pythonpath_alone(self, monkeypatch, where, caller_path):
        """A site-packages directory on PYTHONPATH would shadow the standard library."""
        seen = []

        class Started(Exception):
            pass

        class Recording(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                seen.append(os.environ.get("PYTHONPATH"))
                raise Started  # the pool is not needed, only the environment it starts with

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recording)
        installed = str(REPO / "src")
        if where == "site":
            monkeypatch.setattr(trainer.site, "getsitepackages", lambda: ["/nowhere", installed])
        else:
            monkeypatch.setattr(trainer.site, "getusersitepackages", lambda: installed)
        if caller_path is None:
            monkeypatch.delenv("PYTHONPATH", raising=False)
        else:
            monkeypatch.setenv("PYTHONPATH", caller_path)
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("QUANTLOSS_THREADS", "2")
        ds = pima_like(n=120)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        with pytest.raises(Started):
            trainer.train(TrainConfig(task="classification", hidden_sizes=(4,), epochs=1, repeats=1), plan, ds)
        assert seen == [caller_path]
        assert os.environ.get("PYTHONPATH") == caller_path


class TestWarningsAsErrors:
    """A diverging run is a recorded outcome, also where warnings are errors."""

    @staticmethod
    def _run(tmp_path, command, doc):
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(doc))
        env = dict(os.environ, QUANTLOSS_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "quantloss", command,
             "--config", str(cpath), "--out", str(tmp_path / "out")],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )

    DOC = {
        "task": "classification",
        "dataset": {"path": str(REPO / "data/fixtures/toy_classification.csv"), "target": "label"},
        "model": {"hidden_sizes": [4]},
        "optimizer": {"kind": "adam", "lr": 1e300},
        "train": {"epochs": 3, "batch_size": 4, "repeats": 2, "folds": 2, "seed": 3},
    }

    def test_train_records_the_diverged_runs(self, tmp_path):
        proc = self._run(tmp_path, "train", self.DOC)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["diverged"] for r in report["records"]] == [True] * 4

    def test_quantiles_exits_1_naming_the_level(self, tmp_path):
        proc = self._run(tmp_path, "quantiles", self.DOC)
        assert proc.returncode == 1, proc.stderr
        assert "head diverged in epoch 0" in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_the_verify_check_covers_a_stack_across_two_folds(monkeypatch):
    heads = []
    original = trainer.adam_step

    def counting(state, params, grads, lr):
        heads.append(np.size(lr))
        return original(state, params, grads, lr)

    monkeypatch.setattr(trainer, "adam_step", counting)
    assert verify.check_stacked_repeats().passed
    assert 3 in heads


class TestFrozenRuns:
    def test_a_finished_run_stays_at_its_final_params_while_the_stack_trains_on(self, monkeypatch):
        """Seed 3's run diverges mid-training (in epoch 4 of 6); seeds 0 and 1 never do."""
        monkeypatch.setattr(trainer, "batch_loss", TestDivergenceAcrossFolds._failing_loss(10.0, 8.0))
        config = TestDivergenceAcrossFolds.CONFIG
        ((X, y, X_val, y_val),) = _folds("regression", (60,), label_scales=(1.6,))
        spec = trainer._layer_spec(config, X.shape[1], 1)
        seen = []
        runs = trainer._train_adam(config, spec, X, y[:, None], X_val, y_val[:, None], [0, 3, 1],
                                   epoch_end=lambda stack: seen.append(stack.params.reshape(3, -1).copy()))
        assert [run.diverged for run in runs] == [False, True, False]
        epoch = runs[1].diverged_at[0]
        assert 0 < epoch < config.epochs - 1 and len(seen) == config.epochs
        for params in seen[epoch + 1 :]:
            np.testing.assert_array_equal(params[1], runs[1].final_params)
        for j in (0, 2):  # the others go on training
            assert not np.array_equal(seen[epoch][j], seen[-1][j])
            np.testing.assert_array_equal(seen[-1][j], runs[j].final_params)
        for seed, run in zip([0, 3, 1], runs):
            assert _fields_that_differ(run, train_single(config, X, y, X_val, y_val, seed)) == []
