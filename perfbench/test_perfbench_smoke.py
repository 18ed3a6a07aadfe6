"""Smoke tests of the benchmark on its tiny case (two folds, one repeat, two epochs).

They check that every metric ``BENCHMARK.json`` names is emitted with its
unit, that layers a workload bypasses report zero calls, and that the tracer
survives a public name disappearing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON = ("network.forward", "network.backward", "network.param_copy")
SBQC = ("classify.sbqc_batch_loss", "secant_dist.cdf", "secant_dist.pdf", "classify.predict_prob",
        "optim.adam_step")
LBFGS = ("optim.lbfgs_step", "optim.lbfgs_direction")
#: layers each workload must exercise, and layers it must bypass
CALLED = {
    "banknote_lalr": COMMON + SBQC + ("optim.lalr", "trainer.train_single", "metrics.classification_metrics",
                                      "data.standardize", "data.subset"),
    "wine_lbfgs": COMMON + LBFGS + ("losses.batch_loss", "metrics.rmse", "trainer.train_single"),
    "pima_quantiles": COMMON + SBQC + ("losses.crossing", "classify.multi_quantile_train",
                                       "classify.quantile_curve"),
}
BYPASSED = {
    "banknote_lalr": LBFGS,
    "wine_lbfgs": ("classify.sbqc_batch_loss", "classify.predict_prob", "secant_dist.cdf", "secant_dist.pdf",
                   "optim.adam_step", "classify.multi_quantile_train", "classify.quantile_curve"),
    "pima_quantiles": LBFGS,
}


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=150)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_case_emits_every_metric_with_its_unit(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert isinstance(result["correct"], bool)
        assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        if trace:
            values = {k: v["value"] for k, v in result["metrics"].items()}
            assert all(values[f"{layer}.calls"] > 0 for layer in CALLED[workload])
            assert all(values[f"{layer}.calls"] == 0 for layer in BYPASSED[workload])
            assert values["trace.missing"] == 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("wine_lbfgs", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_follows_imported_names_and_reports_missing_ones(monkeypatch):
    import quantloss.network as network
    import quantloss.trainer as trainer

    import layers

    original = network.forward
    monkeypatch.delattr(network, "set_flat_params")
    tracer = layers.make_tracer()
    tracer.install()
    try:
        # trainer bound forward with ``from .network import forward``
        assert trainer.forward is network.forward is not original
        model = network.init_model(network.LayerSpec(3, (4,), 1), seed=0)
        trainer.forward(model, np.ones((2, 3)))
    finally:
        tracer.uninstall()
    assert network.forward is original and trainer.forward is original
    values, missing = layers.layer_metrics(tracer)
    assert values["network.forward.calls"] == 1
    assert "network.set_flat_params" in missing
    assert values["trace.missing"] == len(missing)
