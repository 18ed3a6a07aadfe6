"""One code path per job: fold plans, config defaults, quantile roots, ``predict``
without a workspace, and what ``train`` prints when every run diverged.

The references below are the two-branch fold dealer and the per-row root
loop these paths replaced; the plans and roots must match them exactly.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quantloss import cli, data
from quantloss.classify import quantile_curve
from quantloss.cli import main
from quantloss.data import Dataset, stratified_kfold
from quantloss.losses import LossSpec
from quantloss.network import LayerSpec, Workspace, forward, init_model, predict, stack_models
from quantloss.synthetic import GENERATORS
from quantloss.trainer import OptimizerSpec, TrainConfig

REPO = Path(__file__).resolve().parent.parent


def ref_stratified_kfold(ds, k, val_fraction=0.2, seed=0):
    """The dealer with one branch per task: (folds, val_idx)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    rng = np.random.default_rng(seed)
    n = ds.n
    fold_members = [[] for _ in range(k)]
    if ds.task == "classification":
        val_parts = []
        classes = sorted(set(ds.y.tolist()))
        for c in classes:
            idx = np.nonzero(ds.y == c)[0]
            idx = rng.permutation(idx)
            n_val = int(round(val_fraction * idx.size))
            val_parts.append(idx[:n_val])
            pool_c = idx[n_val:]
            if pool_c.size < k:
                raise ValueError(f"class {c:g} has only {pool_c.size} pool members, fewer than k={k}")
            for j, i in enumerate(pool_c):
                fold_members[j % k].append(int(i))
        val_idx = np.sort(np.concatenate(val_parts)) if val_parts else np.empty(0, int)
    else:
        idx = rng.permutation(n)
        n_val = int(round(val_fraction * n))
        val_idx = np.sort(idx[:n_val])
        pool = idx[n_val:]
        if pool.size < k:
            raise ValueError(f"pool of {pool.size} examples cannot form k={k} folds")
        for j, i in enumerate(pool):
            fold_members[j % k].append(int(i))
    pool_all = np.sort(np.concatenate([np.asarray(f, int) for f in fold_members]))
    folds = []
    for j in range(k):
        test = np.sort(np.asarray(fold_members[j], dtype=int))
        folds.append((np.setdiff1d(pool_all, test), test))
    return folds, np.asarray(val_idx, dtype=int)


class TestFoldPlanMatchesTheTwoBranchDealer:
    @pytest.mark.parametrize("name", ["banknote", "pima", "wine"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    @pytest.mark.parametrize("val_fraction", [0.0, 0.2, 0.33])
    def test_same_folds_and_validation_rows(self, name, seed, k, val_fraction):
        ds = GENERATORS[name](n=120)
        plan = stratified_kfold(ds, k, val_fraction, seed)
        folds, val_idx = ref_stratified_kfold(ds, k, val_fraction, seed)
        np.testing.assert_array_equal(plan.val_idx, val_idx)
        assert plan.val_idx.dtype == val_idx.dtype
        assert len(plan.folds) == len(folds)
        for (train, test), (ref_train, ref_test) in zip(plan.folds, folds):
            np.testing.assert_array_equal(train, ref_train)
            np.testing.assert_array_equal(test, ref_test)
            assert train.dtype == ref_train.dtype and test.dtype == ref_test.dtype

    @pytest.mark.parametrize("name, rows, message", [
        ("pima", 9, "class"),
        ("wine", 4, "pool of 3 examples cannot form k=5 folds"),
    ])
    def test_same_error_for_too_small_a_pool(self, name, rows, message):
        ds = data.subset(GENERATORS[name](n=120), np.arange(rows))
        with pytest.raises(ValueError) as ref:
            ref_stratified_kfold(ds, 5)
        with pytest.raises(ValueError) as got:
            stratified_kfold(ds, 5)
        assert str(got.value) == str(ref.value)
        assert message in str(got.value)

    def test_an_empty_classification_set_gives_empty_folds(self):
        ds = Dataset(np.empty((0, 2)), np.empty(0), ["a", "b"], "y", "classification")
        plan = stratified_kfold(ds, 3)
        folds, val_idx = ref_stratified_kfold(ds, 3)
        assert plan.val_idx.size == val_idx.size == 0
        assert all(a.size == b.size == 0 for fold, ref in zip(plan.folds, folds) for a, b in zip(fold, ref))


def ref_roots(q, taus):
    """The per-row root loop: (tau_star, status)."""
    tau_star = np.full(q.shape[0], np.nan)
    status = []
    for i in range(q.shape[0]):
        row = q[i]
        if np.all(row > 0):
            status.append("below_grid")
            continue
        if np.all(row < 0):
            status.append("above_grid")
            continue
        found = False
        for p in range(len(taus) - 1):
            a, b = row[p], row[p + 1]
            if a == 0.0:
                tau_star[i] = taus[p]
                found = True
                break
            if (a < 0 <= b) or (a > 0 >= b):
                tau_star[i] = taus[p] + (0.0 - a) * (taus[p + 1] - taus[p]) / (b - a)
                found = True
                break
        if not found and row[-1] == 0.0:
            tau_star[i] = taus[-1]
            found = True
        status.append("ok" if found else ("below_grid" if row[0] > 0 else "above_grid"))
    return tau_star, status


class _FixedLatents:
    """A grid whose latents are given: ``quantile_curve`` reads only these."""

    def __init__(self, taus, q):
        self.tau_grid, self.q = tuple(taus), q
        self.models = [init_model(LayerSpec(1, (2,), 1), 0)]

    def latents(self, X):
        assert X.shape[0] == self.q.shape[0]
        return self.q


class TestQuantileRootsMatchTheRowLoop:
    @pytest.mark.parametrize("levels", [2, 3, 9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_latents_with_exact_zeros(self, levels, seed):
        rng = np.random.default_rng(seed)
        taus = np.linspace(0.1, 0.9, levels)
        q = rng.normal(size=(400, levels)) + rng.normal(size=(400, 1))
        q[rng.random(q.shape) < 0.15] = 0.0
        q[:20] = np.abs(q[:20]) + 0.5                     # every latent positive
        q[20:40] = -np.abs(q[20:40]) - 0.5                # every latent negative
        q[40:60] = np.abs(q[40:60]) + 0.5
        q[40:60, -1] = 0.0                                # a zero only at the last level
        q[60:80] = -np.abs(q[60:80]) - 0.5
        q[60:80, -1] = 0.0
        q[80:90] = 0.0                                    # zero everywhere
        self._assert_matches(taus, q)

    def test_hand_picked_rows(self):
        taus = np.array([0.25, 0.5, 0.75])
        q = np.array([
            [1.0, 2.0, 3.0], [-1.0, -2.0, -3.0], [-3.0, -1.0, 0.0], [3.0, 1.0, 0.0], [0.0, 0.0, 0.0],
            [0.0, 1.0, 2.0], [-1.0, 0.0, 1.0], [2.0, -1.0, 3.0], [-2.0, 1e-300, -1.0], [1.0, 1.0, -1.0],
        ])
        self._assert_matches(taus, q)

    @staticmethod
    def _assert_matches(taus, q):
        curve = quantile_curve(_FixedLatents(taus, q), 0, np.zeros(q.shape[0]), np.zeros(1))
        want_tau, want_status = ref_roots(q, taus)
        np.testing.assert_array_equal(curve.tau_star, want_tau)
        assert curve.status == want_status
        assert all(type(s) is str for s in curve.status)


class TestConfigDefaults:
    def test_an_empty_document_is_the_dataclass_default(self):
        assert TrainConfig.from_dict({"task": "classification"}) == TrainConfig(task="classification")

    def test_a_regression_document_trains_500_epochs_of_256_rows(self):
        doc = {"task": "regression", "loss": {"kind": "logcosh"}}
        assert TrainConfig.from_dict(doc) == TrainConfig(
            task="regression", loss=LossSpec.from_dict({"kind": "logcosh"}), epochs=500, batch_size=256)

    def test_a_document_integer_written_as_a_float_is_an_int(self):
        cfg = TrainConfig.from_dict({"task": "classification", "train": {"epochs": 3.0, "seed": 2.0}})
        assert (cfg.epochs, cfg.seed) == (3, 2) and type(cfg.epochs) is int and type(cfg.seed) is int

    def test_hidden_sizes_become_a_tuple(self):
        assert TrainConfig(task="classification", hidden_sizes=[4, 3]).hidden_sizes == (4, 3)

    @pytest.mark.parametrize("policy", ["exponential", "constant"])
    def test_lalr_adam_refuses_a_document_policy_other_than_lalr(self, policy):
        doc = {"task": "classification", "optimizer": {"kind": "lalr-adam"}, "train": {"lr_policy": policy}}
        with pytest.raises(ValueError, match="optimizer.kind 'lalr-adam'.*train.lr_policy"):
            TrainConfig.from_dict(doc)

    def test_lalr_adam_accepts_a_document_policy_of_lalr(self):
        doc = {"task": "classification", "optimizer": {"kind": "lalr-adam"}, "train": {"lr_policy": "lalr"}}
        assert TrainConfig.from_dict(doc).lr_policy == "lalr"

    def test_lalr_adam_refuses_an_explicit_exponential_policy(self):
        with pytest.raises(ValueError, match="optimizer.kind 'lalr-adam'.*train.lr_policy"):
            TrainConfig(task="classification", optimizer=OptimizerSpec(kind="lalr-adam"), lr_policy="exponential")

    def test_the_cli_exits_1_naming_both_fields(self, tmp_path, capsys):
        doc = {"task": "classification",
               "dataset": {"path": str(REPO / "data/fixtures/toy_classification.csv"), "target": "label"},
               "optimizer": {"kind": "lalr-adam"}, "train": {"lr_policy": "exponential", "folds": 2}}
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cpath), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "optimizer.kind 'lalr-adam'" in err and "train.lr_policy" in err
        assert not (tmp_path / "out").exists()


def _peak_bytes(call):
    """The call's result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPredictWithoutWorkspace:
    spec = LayerSpec(100, (100,), 1)

    def test_allocates_no_gradient(self):
        model = init_model(self.spec, 0)
        x = np.random.default_rng(0).normal(size=(2, 100))
        out, peak = _peak_bytes(lambda: predict(model, x))
        # the (100 + 1) * 100 + 101 parameter gradient alone is 81,608 bytes
        assert peak < 16_000
        np.testing.assert_array_equal(out, forward(model, x)[0])
        np.testing.assert_array_equal(out, predict(model, x, workspace=Workspace(self.spec)))

    def test_a_stack_matches_its_heads(self):
        models = [init_model(LayerSpec(3, (5, 4), 2), seed) for seed in (1, 2, 3)]
        stack = stack_models(models)
        x = np.random.default_rng(1).normal(size=(3, 6, 3))
        out = predict(stack, x)
        assert out.shape == (3, 6, 2)
        for j, model in enumerate(models):
            np.testing.assert_array_equal(out[j], predict(model, x[j]))
        np.testing.assert_array_equal(out, predict(stack, x, workspace=Workspace(stack.spec, 3)))


def test_k_z_is_the_largest_head_k_z():
    stack = stack_models([init_model(LayerSpec(3, (5,), 1, "tanh"), seed) for seed in (1, 2, 3)])
    x = np.random.default_rng(2).normal(size=(7, 3))
    _, trace = forward(stack, x)
    assert trace.k_z == float(np.max(np.abs(trace.activations[-2])))
    assert trace.k_z == max(trace.head_k_z)
    _, empty = forward(stack, np.empty((0, 3)))
    assert empty.k_z == 0.0


class TestResolveDataset:
    def test_the_override_replaces_a_synthetic_set(self):
        doc = {"task": "classification", "dataset": {"synthetic": "pima", "target": "label"}}
        ds = cli._resolve_dataset(doc, str(REPO / "data/fixtures/toy_classification.csv"))
        assert ds.feature_names == ["f1", "f2", "f3"] and ds.target_name == "label"

    def test_a_synthetic_set_wins_over_a_path(self):
        doc = {"task": "classification", "dataset": {"synthetic": "pima", "path": "missing.csv", "target": "y"}}
        assert cli._resolve_dataset(doc, None).n == GENERATORS["pima"]().n

    def test_no_dataset_is_a_cli_error(self):
        with pytest.raises(cli.CliError, match="no dataset section"):
            cli._resolve_dataset({"task": "classification"}, None)


@pytest.mark.parametrize("header", [True, False])
def test_load_csv_refuses_an_empty_file_either_way(tmp_path, header):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="empty file"):
        data.load_csv(path, "0" if not header else "y", header=header)


class TestEveryRunDiverged:
    DOC = {
        "task": "classification",
        "dataset": {"path": str(REPO / "data/fixtures/toy_classification.csv"), "target": "label"},
        "model": {"hidden_sizes": [4]},
        "optimizer": {"kind": "adam", "lr": 1e300},
        "train": {"epochs": 3, "batch_size": 4, "repeats": 2, "folds": 2, "seed": 3},
    }

    def _train(self, tmp_path, capsys, monkeypatch, doc):
        monkeypatch.setenv("QUANTLOSS_THREADS", "1")
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(doc))
        code = main(["train", "--config", str(cpath), "--out", str(tmp_path / "out"),
                     "--threshold", "0.5", "--threshold-metric", "accuracy"])
        return code, capsys.readouterr()

    def test_train_says_so_and_exits_0(self, tmp_path, capsys, monkeypatch):
        code, out = self._train(tmp_path, capsys, monkeypatch, self.DOC)
        assert code == 0
        report = tmp_path / "out" / "report.json"
        assert f"all 4 runs diverged (see {report})" in out.err
        assert "no aggregates and no checkpoint" in out.err
        assert "epochs_to_threshold[accuracy @ 0.5]: n/a (all runs diverged)" in out.out
        assert "never" not in out.out
        assert not (tmp_path / "out" / "checkpoint.json").exists()

    def test_a_run_that_trained_says_nothing_of_divergence(self, tmp_path, capsys, monkeypatch):
        doc = {**self.DOC, "optimizer": {"kind": "adam", "lr": 0.01}}
        code, out = self._train(tmp_path, capsys, monkeypatch, doc)
        assert code == 0
        assert "diverged" not in out.err and "n/a (all runs diverged)" not in out.out
        assert (tmp_path / "out" / "checkpoint.json").exists()
