"""``cli._valid``, the config check that runs without jsonschema, agrees with
jsonschema on valid presets and on presets mutated one to three times."""

import copy
import importlib.resources
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quantloss.cli import _valid

SCHEMA = json.loads(importlib.resources.files("quantloss").joinpath("config_schema.json").read_text())
AUTHORITY = jsonschema.validators.validator_for(SCHEMA)(SCHEMA).is_valid
REPO = Path(__file__).resolve().parent.parent

INTERPRETED = {"type", "enum", "required", "properties", "additionalProperties", "items", "minItems",
               "minimum", "exclusiveMinimum", "exclusiveMaximum", "minLength", "maxLength", "anyOf", "not"}
ANNOTATIONS = {"$schema", "title"}


def _subschemas(s):
    yield s
    for key in ("items", "not"):
        if key in s:
            yield from _subschemas(s[key])
    for sub in [*s.get("properties", {}).values(), *s.get("anyOf", ())]:
        yield from _subschemas(sub)


def test_the_schema_uses_only_keywords_the_fast_check_reads():
    used = set().union(*(s.keys() for s in _subschemas(SCHEMA)))
    assert used <= INTERPRETED | ANNOTATIONS
    assert all(s.get("additionalProperties", False) is False for s in _subschemas(SCHEMA))


@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.name)
def test_every_preset_passes_both(path):
    doc = json.loads(path.read_text())
    assert _valid(doc, SCHEMA) and AUTHORITY(doc)


@pytest.mark.parametrize("doc, valid", [
    ({"task": "classification", "train": {"epochs": 1.0}}, True),          # an integral float is an integer
    ({"task": "classification", "train": {"epochs": 1.5}}, False),
    ({"task": "classification", "train": {"epochs": True}}, False),        # a bool is no number
    ({"task": "regression", "loss": {"kind": "mse", "h": False}}, False),
    ({"task": "regression", "loss": {"kind": "mse", "h": 0}}, False),      # exclusiveMinimum edge
    ({"task": "classification", "optimizer": {"beta1": 0}}, True),         # minimum edge
    ({"task": "classification", "model": {"dropout": [0, 0.5]}}, True),
    ({"task": "classification", "model": {"dropout": [1]}}, False),
    ({"task": "classification", "dataset": {"synthetic": "pima", "delimiter": ";;"}}, False),
    ({"task": "classification", "dataset": {"synthetic": "pima", "delimiter": ""}}, False),
    ({"task": "classification", "dataset": {"path": "a.csv", "target": 3}}, True),
    ({"task": "classification", "dataset": {"path": "a.csv", "target": 3.0}}, True),
    ({"task": "classification", "dataset": {"path": "a.csv", "target": True}}, False),
    ({"task": "classification", "dataset": {"path": "a.csv", "target": "y", "synthetic": "pima"}}, False),
    ({"task": "classification", "sbqc": {"tau_grid": []}}, False),
    ({"task": True}, False),
    ([], False),
])
def test_known_cases(doc, valid):
    assert _valid(doc, SCHEMA) is valid
    assert AUTHORITY(doc) is valid


def _instance(s):
    """A strategy for documents of the shape ``s`` describes, mostly valid ones."""
    if "enum" in s:
        return st.sampled_from(s["enum"])
    if "anyOf" in s and "type" not in s:
        return st.one_of(*(_instance(sub) for sub in s["anyOf"]))
    types = s["type"] if isinstance(s["type"], list) else [s["type"]]
    if len(types) > 1:
        return st.one_of(*(_instance({**s, "type": t}) for t in types))
    kind = types[0]
    if kind == "object":
        props = s.get("properties", {})
        required = st.sampled_from([a["required"] for a in s["anyOf"]]) if "anyOf" in s else st.just(s.get("required", []))
        return required.flatmap(lambda req: st.fixed_dictionaries(
            {k: _instance(props[k]) for k in req},
            optional={k: _instance(v) for k, v in props.items() if k not in req}))
    if kind == "array":
        return st.lists(_instance(s["items"]), min_size=s.get("minItems", 0), max_size=4)
    if kind == "string":
        return st.text(min_size=s.get("minLength", 0), max_size=s.get("maxLength", 8))
    if kind == "boolean":
        return st.booleans()
    if kind == "integer":
        return st.integers(min_value=s.get("minimum", 0), max_value=s.get("minimum", 0) + 300)
    low = s.get("minimum", s.get("exclusiveMinimum", 0))
    return st.floats(min_value=low, max_value=s.get("exclusiveMaximum", 10.0),
                     exclude_min="exclusiveMinimum" in s, exclude_max="exclusiveMaximum" in s)


VALID_DOCS = _instance(SCHEMA).filter(AUTHORITY)


def _bounds(s, name=None, out=None):
    """Each property name's numeric bounds in the schema (its minimum and exclusive edges)."""
    out = {} if out is None else out
    out.setdefault(name, set()).update(s[k] for k in ("minimum", "exclusiveMinimum", "exclusiveMaximum") if k in s)
    for key, sub in s.get("properties", {}).items():
        _bounds(sub, key, out)
    for sub in [*s.get("anyOf", ()), *([s["items"]] if "items" in s else [])]:
        _bounds(sub, name, out)
    return out


BOUNDS = _bounds(SCHEMA)


def _edges(where):
    """The bounds of the field at ``where`` (all bounds where it has none), each as int and as
    float, the floats either side of it, and the bools."""
    name = next((k for k in reversed(where) if isinstance(k, str)), None)
    bounds = BOUNDS.get(name) or set().union(*BOUNDS.values())
    return sorted({x for b in bounds for x in (b, float(b), math.nextafter(b, -math.inf), math.nextafter(b, math.inf))},
                  key=lambda x: (x, type(x).__name__)) + [True, False]


def _numeric_fields(s=SCHEMA, where=()):
    """(path, wrap) for every numeric field, where ``wrap`` makes the field's value from one
    number: the number itself, or a one-item array of it."""
    for key, sub in s.get("properties", {}).items():
        yield from _numeric_fields(sub, (*where, key))
    for sub in [s, *s.get("anyOf", ())]:
        if sub.get("type") in ("number", "integer"):
            yield where, lambda x: x
        if sub.get("items", {}).get("type") in ("number", "integer"):
            yield where, lambda x: [x]


def test_every_numeric_field_at_each_of_its_edges():
    fields = list(_numeric_fields())
    assert len(fields) == 22
    disagree = []
    for where, wrap in fields:
        for x in _edges(where):
            doc = _set({"task": "regression", "loss": {"kind": "huber"}}, where, wrap(x))
            if _valid(doc, SCHEMA) != AUTHORITY(doc):
                disagree.append(doc)
    assert disagree == []


ODD_VALUES = [None, True, False, 0, 1, -1, 1.0, 0.5, 1.5, 10**20, "", "x", ";;", "pima", "a.csv", [], [0.5], {},
              {"kind": "mse"}]
KEYS = sorted({k for s in _subschemas(SCHEMA) for k in s.get("properties", {})} | {"colour"})


def _paths(doc, where=()):
    yield where
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, (*where, k))


def _set(doc, where, value):
    """``doc`` with ``value`` at ``where``, making the objects on the way that are missing;
    ``doc`` unchanged where a step of ``where`` cannot be taken."""
    if not where:
        return value
    node = doc
    for k in where[:-1]:
        if isinstance(node, dict):
            node = node.setdefault(k, {})
        elif isinstance(node, list) and isinstance(k, int) and k < len(node):
            node = node[k]
        else:
            return doc
    if isinstance(node, dict) or (isinstance(node, list) and isinstance(where[-1], int) and where[-1] < len(node)):
        node[where[-1]] = value
    return doc


def _at(doc, where):
    for k in where:
        doc = doc[k]
    return doc


def _mutate(doc, data):
    kind = data.draw(st.sampled_from(["replace", "edge", "edge", "int-as-float", "add-key", "drop-key",
                                      "path-and-synthetic", "empty-tau-grid", "delimiter"]))
    paths = list(_paths(doc))
    if kind in ("edge", "int-as-float"):
        paths = [p for p in paths if type(_at(doc, p)) in (int, float)] or paths
    where = data.draw(st.sampled_from(paths))
    node = _at(doc, where)
    if kind == "replace":
        return _set(doc, where, data.draw(st.sampled_from(ODD_VALUES)))
    if kind == "edge":
        return _set(doc, where, data.draw(st.sampled_from(_edges(where))))
    if kind == "int-as-float" and type(node) is int:
        return _set(doc, where, float(node))
    if kind == "add-key" and isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS))] = data.draw(st.sampled_from(ODD_VALUES))
    if kind == "drop-key" and isinstance(node, dict) and node:
        del node[data.draw(st.sampled_from(sorted(node)))]
    if kind == "path-and-synthetic":
        doc = _set(_set(doc, ("dataset", "path"), "a.csv"), ("dataset", "synthetic"), "pima")
    if kind == "empty-tau-grid":
        doc = _set(doc, ("sbqc", "tau_grid"), [])
    if kind == "delimiter":
        doc = _set(doc, ("dataset", "delimiter"), data.draw(st.sampled_from(["", ";;"])))
    return doc


@settings(derandomize=True, database=None, max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.data())
def test_the_fast_check_agrees_with_jsonschema_on_mutated_presets(data):
    doc = data.draw(VALID_DOCS)
    assert _valid(doc, SCHEMA)
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    assert _valid(doc, SCHEMA) == AUTHORITY(doc), doc
