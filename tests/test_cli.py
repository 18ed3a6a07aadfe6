"""CLI: exit codes, schema validation messages, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quantloss.cli import main
from quantloss.data import load_csv, standardize_fit, write_csv
from quantloss.losses import LossKind
from quantloss.network import LayerSpec, forward, init_model, save_checkpoint
from quantloss.optim import LipschitzContext
from quantloss.synthetic import pima_like, wine_like
from quantloss.trainer import TrainConfig, _layer_constant, _layer_spec

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def cls_setup(tmp_path):
    ds = pima_like(n=200)
    csv = tmp_path / "pima.csv"
    write_csv(ds, csv)
    config = {
        "task": "classification",
        "dataset": {"path": str(csv), "target": "diabetes"},
        "model": {"hidden_sizes": [8], "activation": "relu"},
        "sbqc": {"tau": 0.5, "tau_grid": [0.25, 0.5, 0.75]},
        "optimizer": {"kind": "lalr-adam"},
        "train": {"epochs": 3, "repeats": 1, "folds": 2, "seed": 1},
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    return tmp_path, cpath, config


class TestValidation:
    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 1
        assert "nope.json" in capsys.readouterr().err

    def test_schema_violation_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"task": "classification", "train": {"epochs": 0}}))
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "train/epochs" in err

    def test_unknown_task_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"task": "ranking"}))
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1

    def test_invalid_json_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestTrainCommand:
    def test_end_to_end_artifacts(self, cls_setup, capsys):
        tmp_path, cpath, _ = cls_setup
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cpath), "--out", str(out)])
        assert rc == 0
        assert (out / "report.json").exists()
        assert (out / "summary.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "checkpoint.json").exists()
        assert (out / "standardizer.json").exists()
        stdout = capsys.readouterr().out
        assert "accuracy" in stdout
        records = json.loads((out / "metrics.json").read_text())
        assert {r["metric"] for r in records} >= {"accuracy", "f1", "jaccard", "kappa"}

    def test_deterministic_under_seed(self, cls_setup):
        tmp_path, cpath, _ = cls_setup
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cpath), "--out", str(a), "--seed", "7"]) == 0
        assert main(["train", "--config", str(cpath), "--out", str(b), "--seed", "7"]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_dataset_override(self, cls_setup, tmp_path):
        _, cpath, _ = cls_setup
        other = pima_like(n=160, seed=5)
        other_csv = tmp_path / "other.csv"
        write_csv(other, other_csv)
        out = tmp_path / "ovr"
        cfg = json.loads(cpath.read_text())
        cfg["dataset"]["target"] = "diabetes"
        cpath.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(cpath), "--out", str(out),
                   "--dataset", str(other_csv)])
        assert rc == 0


def test_report_identical_across_worker_settings(tmp_path):
    """`python -m quantloss train` writes the same report sequentially and on workers."""
    config = {
        "task": "classification",
        "dataset": {"path": str(REPO / "data/fixtures/toy_classification.csv"),
                    "target": "label"},
        "model": {"hidden_sizes": [4]},
        "optimizer": {"kind": "lalr-adam"},
        "train": {"epochs": 3, "batch_size": 4, "repeats": 2, "folds": 2, "seed": 3},
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, QUANTLOSS_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "quantloss", "train", "--config", str(cpath), "--out", str(out)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


class TestEvalCommand:
    def test_eval_scores_checkpoint(self, cls_setup, capsys, tmp_path):
        tp, cpath, config = cls_setup
        out = tp / "run"
        assert main(["train", "--config", str(cpath), "--out", str(out)]) == 0
        rc = main([
            "eval",
            "--checkpoint", str(out / "checkpoint.json"),
            "--dataset", config["dataset"]["path"],
            "--target", "diabetes",
        ])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out



class TestEvalStandardizer:
    def _trained(self, cls_setup):
        tp, cpath, config = cls_setup
        out = tp / "run"
        assert main(["train", "--config", str(cpath), "--out", str(out)]) == 0
        return out, config["dataset"]["path"]

    def _eval(self, ckpt, dataset, *extra):
        return main(["eval", "--checkpoint", str(ckpt), "--dataset", dataset,
                     "--target", "diabetes", *extra])

    def test_missing_explicit_standardizer_names_the_file(self, cls_setup, capsys):
        out, dataset = self._trained(cls_setup)
        missing = out / "no_such_standardizer.json"
        assert self._eval(out / "checkpoint.json", dataset, "--standardizer", str(missing)) == 1
        assert "no_such_standardizer.json" in capsys.readouterr().err

    def test_standardizer_of_another_width_names_the_file(self, cls_setup, capsys):
        out, dataset = self._trained(cls_setup)
        narrow = out / "narrow.json"
        narrow.write_text(json.dumps({"mean": [0.0, 0.0], "scale": [1.0, 1.0]}))
        assert self._eval(out / "checkpoint.json", dataset, "--standardizer", str(narrow)) == 1
        assert "narrow.json" in capsys.readouterr().err

    def test_omitted_flag_without_a_saved_standardizer_scores_raw_features(self, cls_setup, capsys):
        out, dataset = self._trained(cls_setup)
        (out / "standardizer.json").unlink()
        assert self._eval(out / "checkpoint.json", dataset) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_scoring_raw_features_warns_with_the_missing_path(self, cls_setup, capsys):
        out, dataset = self._trained(cls_setup)
        capsys.readouterr()
        assert self._eval(out / "checkpoint.json", dataset) == 0
        assert "warning" not in capsys.readouterr().err
        (out / "standardizer.json").unlink()
        assert self._eval(out / "checkpoint.json", dataset) == 0
        err = capsys.readouterr().err
        assert f"warning: no standardizer at {out / 'standardizer.json'}; scoring raw features" in err


def test_train_runs_clean_in_dev_mode_with_warnings_as_errors(tmp_path):
    """Worker pool and training buffers leak no resource and raise no warning."""
    config = {
        "task": "classification",
        "dataset": {"path": str(REPO / "data/fixtures/toy_classification.csv"),
                    "target": "label"},
        "model": {"hidden_sizes": [4]},
        "optimizer": {"kind": "lalr-adam"},
        "train": {"epochs": 3, "batch_size": 4, "repeats": 2, "folds": 2, "seed": 3},
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    env = dict(os.environ, QUANTLOSS_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "quantloss", "train",
         "--config", str(cpath), "--out", str(tmp_path / "run")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_quantiles_runs_clean_in_dev_mode_with_warnings_as_errors(tmp_path):
    """The default 9-level grid trains and exports its curve without a warning."""
    config = {
        "task": "classification",
        "dataset": {"path": str(REPO / "data/fixtures/toy_classification.csv"),
                    "target": "label"},
        "model": {"hidden_sizes": [4]},
        "train": {"epochs": 5, "seed": 3},
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "quantloss", "quantiles",
         "--config", str(cpath), "--out", str(tmp_path / "curve")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "curve" / "quantile_curve_f1.json").read_text())
    assert len(doc["tau_grid"]) == 9


class TestLipschitzCommand:
    def test_prints_thm4_constant(self, capsys):
        assert main(["lipschitz", "--tau", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "1.9099" in out or "1.909859" in out

    def test_config_batch_constant(self, cls_setup, capsys):
        _, cpath, _ = cls_setup
        assert main(["lipschitz", "--config", str(cpath)]) == 0
        out = capsys.readouterr().out
        assert "sbqc layer constant" in out
        assert "lalr lr" in out

    def test_requires_some_input(self, capsys):
        assert main(["lipschitz"]) == 1

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_regression_constant_matches_trainer(self, kind, tmp_path, capsys):
        csv = tmp_path / "wine.csv"
        write_csv(wine_like(n=100), csv)
        doc = {
            "task": "regression",
            "dataset": {"path": str(csv), "target": "quality"},
            "model": {"hidden_sizes": [8]},
            "loss": {"kind": kind.value, "tau": 0.3, "delta": 0.5},
            "train": {"batch_size": 32, "seed": 2},
        }
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(doc))
        assert main(["lipschitz", "--config", str(cpath)]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("regression layer constant"))

        config = TrainConfig.from_dict(doc)
        ds, _ = standardize_fit(load_csv(csv, "quality"))
        model = init_model(_layer_spec(config, ds.X.shape[1], 1), config.seed)
        batch, yb = ds.X[:32], ds.y[:32]
        _, trace = forward(model, batch)
        ctx = LipschitzContext(m=32, y_norm=float(np.max(np.abs(yb))), k_z=trace.k_z)
        expected = _layer_constant(config, ctx)
        assert line.endswith(f"): {expected:.6g}")


class TestQuantilesCommand:
    def test_writes_curve_files(self, cls_setup, tmp_path):
        _, cpath, _ = cls_setup
        out = tmp_path / "q"
        rc = main(["quantiles", "--config", str(cpath), "--out", str(out),
                   "--feature", "1", "--sweep-points", "9"])
        assert rc == 0
        csvs = list(out.glob("quantile_curve_*.csv"))
        jsons = list(out.glob("quantile_curve_*.json"))
        assert len(csvs) == 1 and len(jsons) == 1
        doc = json.loads(jsons[0].read_text())
        assert doc["tau_grid"] == [0.25, 0.5, 0.75]
        assert len(doc["feature_values"]) == 9

    def test_tau_grid_flag(self, cls_setup, tmp_path):
        _, cpath, _ = cls_setup
        out = tmp_path / "q2"
        rc = main(["quantiles", "--config", str(cpath), "--out", str(out),
                   "--tau-grid", "0.3,0.7", "--sweep-points", "5"])
        assert rc == 0
        doc = json.loads(next(out.glob("*.json")).read_text())
        assert doc["tau_grid"] == [0.3, 0.7]

    def test_regression_dataset_rejected(self, tmp_path):
        ds = wine_like(n=100)
        csv = tmp_path / "wine.csv"
        write_csv(ds, csv)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "task": "classification",
            "dataset": {"path": str(csv), "target": "quality"},
        }))
        assert main(["quantiles", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("feature", [3, 99, -1])
    def test_feature_out_of_range_fails_before_training(self, feature, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking --feature")

        monkeypatch.setattr("quantloss.cli.multi_quantile_train", no_training)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "task": "classification",
            "dataset": {"path": str(REPO / "data" / "fixtures" / "toy_classification.csv"),
                        "target": "label"},
        }))
        out = tmp_path / "q"
        rc = main(["quantiles", "--config", str(cfg), "--out", str(out), "--feature", str(feature)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--feature {feature}" in err and "[0, 2]" in err
        assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("lipschitz", "--tau", "1.5"),
    ("lipschitz", "--tau", "nan"),
    ("eval", "--tau", "1.5"),
    ("eval", "--tau", "0"),
    ("quantiles", "--tau-grid", "0.5,0.25"),
    ("quantiles", "--tau-grid", "0.25,1.0"),
    ("quantiles", "--tau-grid", ""),
])
def test_a_bad_level_exits_1_naming_its_flag_before_any_work(command, flag, value, tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError(f"trained before checking {flag}")

    monkeypatch.setattr("quantloss.cli.multi_quantile_train", no_training)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "classification",
        "dataset": {"path": str(REPO / "data" / "fixtures" / "toy_classification.csv"), "target": "label"},
    }))
    rest = {"lipschitz": [],
            # no checkpoint exists, so only a check made before loading it can name the flag
            "eval": ["--checkpoint", str(tmp_path / "none.json"), "--dataset", "none.csv", "--target", "y"],
            "quantiles": ["--config", str(cfg), "--out", str(tmp_path / "q")]}[command]
    assert main([command, *rest, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and not (tmp_path / "q").exists()


class TestGradcheckCommand:
    def test_exit_zero_and_prints_margins(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "losses.gradient_fd" in out
        assert "network.backprop_fd" in out


class TestVerifyCommand:
    def test_clean_build_exits_zero_with_margin_table(self, capsys):
        rc = main(["verify", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "property" in out and "margin" in out
        assert "losses.convexity_min_eig" in out
        assert "dist.pdf_quadrature" in out
        # the known defect is visible, flagged, and tolerated
        assert "optim.sbqc_slope[tau=0.5]" in out
        assert "expected" in out

    def test_strict_mode_counts_the_known_defect(self, capsys):
        rc = main(["verify", "--seed", "0", "--strict"])
        assert rc == 2
        assert "optim.sbqc_slope[tau=0.5]" in capsys.readouterr().out


def test_train_without_validation_rows_exits_1_naming_val_fraction(cls_setup, capsys):
    tp, cpath, config = cls_setup
    config["train"]["val_fraction"] = 0
    cpath.write_text(json.dumps(config))
    out = tp / "run"
    assert main(["train", "--config", str(cpath), "--out", str(out)]) == 1
    assert "train.val_fraction" in capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()


class TestEvalNamesTheFaultyArtifact:
    @pytest.fixture
    def artifacts(self, tmp_path):
        """A 4-input checkpoint, its JSON document and an 8-feature pima-like CSV."""
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(init_model(LayerSpec(4, (3,), 1), 0), ckpt)
        csv = tmp_path / "pima.csv"
        write_csv(pima_like(n=40), csv)
        return ckpt, json.loads(ckpt.read_text()), csv

    def _eval(self, ckpt, csv):
        return main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv), "--target", "diabetes"])

    def test_truncated_checkpoint(self, artifacts, capsys):
        ckpt, _, csv = artifacts
        ckpt.write_text(ckpt.read_text()[:40])
        assert self._eval(ckpt, csv) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "not valid JSON" in err

    def test_checkpoint_without_spec(self, artifacts, capsys):
        ckpt, doc, csv = artifacts
        del doc["spec"]
        ckpt.write_text(json.dumps(doc))
        assert self._eval(ckpt, csv) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "no field 'spec'" in err

    def test_dataset_of_another_width(self, artifacts, capsys):
        ckpt, _, csv = artifacts
        assert self._eval(ckpt, csv) == 1
        err = capsys.readouterr().err
        assert f"dataset {csv} has 8 features, but checkpoint {ckpt} takes 4 inputs" in err

    @pytest.mark.parametrize("text, where", [
        (json.dumps({"mean": [0.0] * 8}), "field (top level): 'scale' is a required property"),
        (json.dumps([1, 2]), "field (top level): [1, 2] is not of type 'object'"),
        ("not json", "is not valid JSON"),
        (json.dumps({"mean": [0.0, "a"] + [0.0] * 6, "scale": [1.0] * 8}), "field mean/1: 'a' is not of type"),
        (json.dumps({"mean": [0.0] * 8, "scale": [0.0] + [1.0] * 7}), "field scale/0: 0.0 is less than or equal"),
        (json.dumps({"mean": [0.0] * 8, "scale": [float("nan")] * 8}), "field scale/0: NaN is not a finite"),
    ])
    def test_faulty_standardizer(self, tmp_path, capsys, text, where):
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(init_model(LayerSpec(8, (3,), 1), 0), ckpt)
        csv = tmp_path / "pima.csv"
        write_csv(pima_like(n=40), csv)
        std = tmp_path / "std.json"
        std.write_text(text)
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(csv), "--target", "diabetes",
                     "--standardizer", str(std)]) == 1
        err = capsys.readouterr().err
        assert f"standardizer {std}" in err and where in err


class TestThresholdFlags:
    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trained before checking the threshold flags")

        monkeypatch.setattr("quantloss.cli.train", refuse)

    @pytest.mark.parametrize("flags, missing", [
        (["--threshold", "0.5"], "--threshold-metric"),
        (["--threshold-metric", "accuracy"], "--threshold"),
    ])
    def test_one_flag_without_the_other_exits_1_naming_the_missing_one(self, cls_setup, capsys, flags, missing):
        tp, cpath, _ = cls_setup
        out = tp / "run"
        assert main(["train", "--config", str(cpath), "--out", str(out), *flags]) == 1
        assert f"{missing} is missing" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task, metric", [("regression", "accuracy"), ("classification", "rmse")])
    def test_a_metric_the_task_does_not_trace_exits_1_naming_both(self, tmp_path, capsys, task, metric):
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps({"task": task}))
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cpath), "--out", str(out),
                   "--threshold", "0.5", "--threshold-metric", metric])
        assert rc == 1
        assert f"metric '{metric}' is not traced by a {task} run" in capsys.readouterr().err
        assert not out.exists()


def test_train_prints_epochs_to_threshold_with_both_flags(cls_setup, capsys):
    tp, cpath, _ = cls_setup
    rc = main(["train", "--config", str(cpath), "--out", str(tp / "run"),
               "--threshold", "0.01", "--threshold-metric", "accuracy"])
    assert rc == 0
    assert "epochs_to_threshold[accuracy @ 0.01]: 0" in capsys.readouterr().out
