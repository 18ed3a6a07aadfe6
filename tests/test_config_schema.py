"""The packaged config schema, and ``cli.load_config``'s validation against it.

``load_config`` reports ``jsonschema.validate``'s best-matching error without
re-checking the schema itself on every call; the schema is checked here,
once.
"""

import importlib.resources
import json

import jsonschema
import pytest

from quantloss.cli import CliError, load_config


def _schema():
    return json.loads(importlib.resources.files("quantloss").joinpath("config_schema.json").read_text())


def test_the_packaged_schema_is_a_valid_schema():
    schema = _schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


BAD_CONFIGS = {
    "no-task": {"dataset": {"synthetic": "pima"}},
    "unknown-task": {"task": "ranking"},
    "extra-top-level-field": {"task": "classification", "colour": "blue"},
    "wrong-type-nested": {"task": "classification", "model": {"hidden_sizes": [100, "wide"]}},
    "below-minimum": {"task": "classification", "model": {"hidden_sizes": [0]}},
    "dropout-at-one": {"task": "classification", "model": {"dropout": 1.0}},
    "path-and-synthetic": {"task": "classification", "dataset": {"path": "a.csv", "target": "y",
                                                                 "synthetic": "pima"}},
    "dataset-without-source": {"task": "classification", "dataset": {"header": True}},
    "unknown-loss": {"task": "regression", "loss": {"kind": "cauchy"}},
    "tau-out-of-range": {"task": "classification", "sbqc": {"tau": 1.5}},
    "not-an-object": ["task", "classification"],
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_a_bad_config_gives_jsonschema_validates_error(tmp_path, name):
    doc = BAD_CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, _schema())
    where = "/".join(str(k) for k in want.value.absolute_path) or "(top level)"
    with pytest.raises(CliError) as got:
        load_config(str(path))
    assert str(got.value) == f"config {path}: field {where}: {want.value.message}"


def test_a_good_config_loads_as_written(tmp_path):
    doc = {"task": "classification", "dataset": {"synthetic": "banknote"}, "model": {"hidden_sizes": [10]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert load_config(str(path)) == doc
