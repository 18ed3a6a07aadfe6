"""L-BFGS sets its own step by line search, so it takes only the constant rate policy."""

import json
from pathlib import Path

import pytest

from quantloss.cli import main
from quantloss.trainer import OptimizerSpec, TrainConfig

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "fixtures" / "toy_classification.csv"


@pytest.mark.parametrize("policy", ["exponential", "lalr"])
def test_a_rate_policy_lbfgs_ignores_is_refused(policy):
    message = f"optimizer.kind 'lbfgs' sets its own rate: train.lr_policy must be 'constant', got '{policy}'"
    with pytest.raises(ValueError, match=message):
        TrainConfig(task="classification", optimizer=OptimizerSpec(kind="lbfgs"), lr_policy=policy)
    assert TrainConfig(task="classification", optimizer=OptimizerSpec(kind="lbfgs"),
                       lr_policy="constant").lr_policy == "constant"


def test_train_exits_1_naming_the_policy(tmp_path, capsys):
    doc = {"task": "classification", "dataset": {"path": str(FIXTURE), "target": "label"},
           "model": {"hidden_sizes": [4]}, "optimizer": {"kind": "lbfgs"},
           "train": {"epochs": 2, "repeats": 1, "folds": 2, "lr_policy": "exponential"}}
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cpath), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "train.lr_policy" in err and "optimizer.kind 'lbfgs'" in err
    assert not (tmp_path / "out" / "report.json").exists()
