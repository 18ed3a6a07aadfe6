"""A config number that is NaN or ±Infinity (``json.loads`` accepts all three) is
refused with exit code 1, naming its field, before the schema is consulted."""

import json

import pytest

from quantloss.cli import CliError, load_config, main

FIELDS = {
    "task": '{"task": %s}',
    "optimizer/lr": '{"task": "classification", "optimizer": {"kind": "adam", "lr": %s}}',
    "optimizer/lr_max": '{"task": "classification", "optimizer": {"kind": "lalr-adam", "lr_max": %s}}',
    "loss/h": '{"task": "regression", "loss": {"kind": "logcosh", "h": %s}}',
    "sbqc/tau_grid/1": '{"task": "classification", "sbqc": {"tau_grid": [0.25, %s, 0.75]}}',
    "model/dropout/0": '{"task": "classification", "model": {"dropout": [%s]}}',
    "(top level)": "%s",
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_non_finite_number_exits_1_naming_its_field(tmp_path, capsys, field, token):
    path = tmp_path / "config.json"
    path.write_text(FIELDS[field] % token)
    assert main(["lipschitz", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: config {path}: field {field}: {token} is not a finite number\n"


def test_the_first_non_finite_number_in_document_order_is_named(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"task": "regression", "loss": {"kind": "huber", "delta": -Infinity, "h": NaN},'
                    ' "optimizer": {"lr": Infinity}}')
    with pytest.raises(CliError, match="field loss/delta: -Infinity is not"):
        load_config(str(path))


def test_train_refuses_an_infinite_lr_instead_of_diverging_every_run(tmp_path, capsys):
    doc = {"task": "classification", "dataset": {"synthetic": "banknote"},
           "optimizer": {"kind": "adam", "lr": 1.0}, "train": {"epochs": 1}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace("1.0", "Infinity"))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert "field optimizer/lr: Infinity is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
