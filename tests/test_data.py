"""CSV ingestion, standardization, stratified folds, synthetic stand-ins."""

import numpy as np
import pytest

from quantloss.data import (
    Dataset,
    load_csv,
    standardize_apply,
    standardize_fit,
    stratified_kfold,
    subset,
    write_csv,
)
from quantloss.synthetic import banknote_like, pima_like, wine_like


class TestLoadCsv:
    def test_three_row_toy(self, toy_csv):
        ds = load_csv(toy_csv, target="target")
        assert ds.n == 3
        np.testing.assert_array_equal(ds.X, [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_array_equal(ds.y, [0.5, 1.5, 2.5])
        assert ds.feature_names == ["a", "b"]
        assert ds.task == "regression"

    def test_bad_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,target\n1.0,oops,0.0\n")
        with pytest.raises(ValueError, match="row 1.*'b'.*'oops'"):
            load_csv(p, target="target")

    @pytest.mark.parametrize("cell, column", [
        ("nan", "b"), ("-inf", "b"), ("inf", "target"), ("NaN", "target"),
    ])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell, column):
        p = tmp_path / "nonfinite.csv"
        row = {"a": "1.0", "b": "2.0", "target": "0.5"} | {column: cell}
        p.write_text("a,b,target\n3.0,4.0,1.5\n" + ",".join(row.values()) + "\n")
        with pytest.raises(ValueError, match=f"nonfinite.csv: row 2, column '{column}': "
                                             f"non-finite value '{cell}'"):
            load_csv(p, target="target")

    def test_header_only_is_empty_dataset(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,b,target\n")
        with pytest.raises(ValueError, match="empty dataset"):
            load_csv(p, target="target")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", target="y")

    def test_missing_target_column(self, toy_csv):
        with pytest.raises(ValueError, match="'z' not found"):
            load_csv(toy_csv, target="z")

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1.0\n")
        with pytest.raises(ValueError, match="row 1 has 1 fields"):
            load_csv(p, target="b")

    def test_headerless_with_index_target(self, tmp_path):
        p = tmp_path / "nohdr.csv"
        p.write_text("1.0,2.0,1\n3.0,4.0,0\n")
        ds = load_csv(p, target=2, header=False)
        assert ds.task == "classification"
        np.testing.assert_array_equal(ds.y, [1.0, 0.0])

    def test_classification_inference(self, tmp_path):
        p = tmp_path / "cls.csv"
        p.write_text("a,label\n0.1,0\n0.2,1\n0.3,1\n")
        assert load_csv(p, target="label").task == "classification"

    def test_explicit_task_validation(self, toy_csv):
        with pytest.raises(ValueError, match="classification targets"):
            load_csv(toy_csv, target="target", task="classification")

    def test_round_trip_through_write_csv(self, tmp_path):
        ds = pima_like(n=50)
        p = tmp_path / "out.csv"
        write_csv(ds, p)
        back = load_csv(p, target=ds.target_name)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)


class TestStandardize:
    def test_train_becomes_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(5, 3, size=(200, 4)), rng.normal(size=200),
                     [f"f{i}" for i in range(4)], "y", "regression")
        std, stats = standardize_fit(ds)
        np.testing.assert_allclose(std.X.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(std.X.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_floors_with_warning(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        ds = Dataset(X, np.zeros(10), ["c", "v"], "y", "regression")
        with pytest.warns(RuntimeWarning, match="floored"):
            std, stats = standardize_fit(ds)
        assert np.all(std.X[:, 0] == 0.0)
        assert stats.floored == (0,)

    def test_apply_uses_train_statistics_only(self):
        rng = np.random.default_rng(1)
        tr = Dataset(rng.normal(0, 1, (100, 2)), np.zeros(100), ["a", "b"], "y", "regression")
        te = Dataset(rng.normal(5, 2, (50, 2)), np.zeros(50), ["a", "b"], "y", "regression")
        _, stats = standardize_fit(tr)
        te_applied = standardize_apply(stats, te)
        independent, _ = standardize_fit(te)
        # leakage guard: applying train stats differs from refitting on test
        assert not np.allclose(te_applied.X, independent.X)
        assert abs(te_applied.X.mean()) > 1.0

    def test_empty_dataset_rejected(self):
        ds = Dataset(np.empty((0, 2)), np.empty(0), ["a", "b"], "y", "regression")
        with pytest.raises(ValueError):
            standardize_fit(ds)


class TestStratifiedKFold:
    def _balanced(self, n=100, seed=0):
        rng = np.random.default_rng(seed)
        y = np.array([0.0, 1.0] * (n // 2))
        return Dataset(rng.normal(size=(n, 3)), y, ["a", "b", "c"], "y", "classification")

    def test_spec_arithmetic_100_balanced(self):
        ds = self._balanced(100)
        plan = stratified_kfold(ds, k=5, val_fraction=0.2, seed=0)
        assert plan.val_idx.size == 20
        assert np.sum(ds.y[plan.val_idx]) == 10  # 10 of each class
        for train_idx, test_idx in plan.folds:
            assert test_idx.size == 16
            assert np.sum(ds.y[test_idx]) == 8
            assert train_idx.size == 64

    def test_partition_property(self):
        ds = self._balanced(104, seed=3)
        plan = stratified_kfold(ds, k=5, val_fraction=0.2, seed=3)
        all_test = np.concatenate([t for _, t in plan.folds])
        assert len(set(all_test.tolist())) == all_test.size
        assert set(all_test.tolist()).isdisjoint(set(plan.val_idx.tolist()))
        pool = np.sort(np.concatenate([all_test]))
        for train_idx, test_idx in plan.folds:
            assert set(train_idx.tolist()).isdisjoint(set(test_idx.tolist()))
            np.testing.assert_array_equal(np.sort(np.concatenate([train_idx, test_idx])), pool)

    def test_deterministic(self):
        ds = self._balanced(60, seed=1)
        a = stratified_kfold(ds, 3, 0.2, seed=9)
        b = stratified_kfold(ds, 3, 0.2, seed=9)
        np.testing.assert_array_equal(a.val_idx, b.val_idx)
        for (ta, sa), (tb, sb) in zip(a.folds, b.folds):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(sa, sb)

    def test_stratification_within_two_examples_over_seeds(self):
        rng = np.random.default_rng(5)
        n = 90
        y = (rng.random(n) < 0.35).astype(float)
        ds = Dataset(rng.normal(size=(n, 2)), y, ["a", "b"], "y", "classification")
        pool_frac = None
        for seed in range(100):
            plan = stratified_kfold(ds, k=5, val_fraction=0.2, seed=seed)
            pool_idx = np.concatenate([t for _, t in plan.folds])
            pool_pos = np.sum(ds.y[pool_idx])
            for _, test_idx in plan.folds:
                expected = pool_pos * test_idx.size / pool_idx.size
                assert abs(np.sum(ds.y[test_idx]) - expected) <= 2.0

    def test_small_class_error_names_class(self):
        y = np.array([0.0] * 20 + [1.0] * 3)
        ds = Dataset(np.zeros((23, 2)), y, ["a", "b"], "y", "classification")
        with pytest.raises(ValueError, match="class 1"):
            stratified_kfold(ds, k=5, val_fraction=0.2, seed=0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            stratified_kfold(self._balanced(), k=1)

    def test_regression_uses_plain_shuffle(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.normal(size=(50, 2)), rng.normal(size=50), ["a", "b"], "y", "regression")
        plan = stratified_kfold(ds, k=5, val_fraction=0.2, seed=0)
        assert plan.val_idx.size == 10
        sizes = sorted(t.size for _, t in plan.folds)
        assert sum(sizes) == 40


class TestSynthetic:
    def test_shapes_and_determinism(self):
        a, b = banknote_like(), banknote_like()
        np.testing.assert_array_equal(a.X, b.X)
        assert a.X.shape == (1372, 4)
        assert pima_like().X.shape == (768, 8)
        assert wine_like().X.shape == (1599, 11)

    def test_banknote_is_balanced_binary(self):
        ds = banknote_like()
        assert ds.task == "classification"
        assert 0.35 <= ds.y.mean() <= 0.65

    def test_pima_has_class_overlap(self):
        ds = pima_like()
        assert ds.task == "classification"
        assert 0.25 <= ds.y.mean() <= 0.45

    def test_wine_mean_prediction_is_not_enough(self):
        # the regression acceptance gate is 1.1; the trivial predictor must fail it
        ds = wine_like()
        assert ds.task == "regression"
        assert ds.y.std() > 1.1
        assert set(np.unique(ds.y)).issubset(set(np.arange(3.0, 9.0)))


class TestSubset:
    def test_subset_picks_rows(self):
        ds = pima_like(n=20)
        sub = subset(ds, np.array([1, 3, 5]))
        np.testing.assert_array_equal(sub.X, ds.X[[1, 3, 5]])
        np.testing.assert_array_equal(sub.y, ds.y[[1, 3, 5]])
