"""Property-suite plumbing: margins, expected-failure semantics, full run."""

import math
from pathlib import Path

import numpy as np
import pytest

from quantloss import classify, network
from quantloss.secant_dist import AsymmetricHSD
from quantloss.verify import (
    PropertyResult,
    check_backprop_gradients,
    check_sbqc_tail_slope,
    run_all,
    violations,
)

REPO = Path(__file__).resolve().parent.parent


class TestViolations:
    def test_plain_pass_and_fail(self):
        ok = PropertyResult("a", 0.5, 1.0, True)
        bad = PropertyResult("b", 2.0, 1.0, False)
        assert violations([ok, bad]) == [bad]

    def test_expected_failure_tolerated_when_failing(self):
        known = PropertyResult("k", 2.0, 1.0, False, expected_failure=True)
        assert violations([known]) == []
        assert violations([known], strict=True) == [known]

    def test_unexpected_pass_of_known_defect_is_flagged(self):
        # if the defect case starts passing, the recorded analysis is stale
        stale = PropertyResult("k", 0.5, 1.0, True, expected_failure=True)
        assert violations([stale]) == [stale]

    def test_margin_sign_convention(self):
        assert PropertyResult("a", 0.4, 1.0, True).margin == 0.6
        assert PropertyResult("a", 1.0, 0.4, True, mode="min").margin == 0.6


class TestFullSuite:
    def test_run_all_clean_except_known_defect(self):
        results = run_all(seed=0)
        names = {r.name for r in results}
        assert "losses.convexity_min_eig" in names
        assert "dist.sample_ks" in names
        assert "optim.regression_gradient_bound" in names
        bad = violations(results)
        assert bad == []
        known = [r for r in results if r.expected_failure]
        assert len(known) == 1
        assert known[0].name == "optim.sbqc_slope[tau=0.5]"
        assert not known[0].passed


class TestTailSlope:
    @staticmethod
    def _clamped_sbqc_loss(y, z, tau):
        """The earlier kernel: p = 1 - F(z) clamped into [1e-12, 1 - 1e-12]."""
        dist = AsymmetricHSD(tau)
        y, z = np.asarray(y, float), np.asarray(z, float)
        scale = np.where(z <= 0, 4.0 * tau, 4.0 * (1.0 - tau)) / math.pi
        F = np.clip(tau + scale * np.arctan(np.tanh(z / 2.0)), 0.0, 1.0)
        p = np.clip(1.0 - F, 1e-12, 1.0 - 1e-12)
        value = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
        return value, (y / p - (1.0 - y) / (1.0 - p)) * dist.pdf(z)

    def test_passes_on_the_tail_exact_kernel(self):
        result = check_sbqc_tail_slope()
        assert result.name == "classify.tail_slope"
        assert result.passed and result.measured <= 1e-9

    def test_fails_on_a_clamped_probability(self, monkeypatch):
        monkeypatch.setattr(classify, "sbqc_loss", self._clamped_sbqc_loss)
        result = check_sbqc_tail_slope()
        assert not result.passed
        # the clamped slope has collapsed to about 0 by z = 50
        assert result.measured > 0.9


class TestBackpropGradients:
    @pytest.mark.parametrize("seed", range(16))
    def test_passes_at_every_seed(self, seed):
        # zero initial biases put some relu pre-activations at exactly 0
        result = check_backprop_gradients(seed)
        assert result.name == "network.backprop_fd" and result.limit == 1e-5
        assert result.passed, result.measured

    def test_fails_on_a_slightly_scaled_backward(self, monkeypatch):
        original = network.backward

        def scaled_backward(*args, **kwargs):
            weight_grads, bias_grads = original(*args, **kwargs)
            return [w * (1 + 1e-3) for w in weight_grads], [b * (1 + 1e-3) for b in bias_grads]

        monkeypatch.setattr(network, "backward", scaled_backward)
        for seed in (0, 2):
            assert not check_backprop_gradients(seed).passed


class TestRepoArtifacts:
    def test_preset_configs_validate(self):
        from quantloss.cli import load_config

        for p in sorted((REPO / "configs").glob("*.json")):
            doc = load_config(str(p))
            assert doc["task"] in ("regression", "classification")

    def test_fixture_csvs_load(self):
        from quantloss.data import load_csv

        reg = load_csv(REPO / "data" / "fixtures" / "toy_regression.csv", target="target")
        assert reg.task == "regression" and reg.n == 6
        cls = load_csv(REPO / "data" / "fixtures" / "toy_classification.csv", target="label")
        assert cls.task == "classification" and cls.n == 8

    def test_manifest_entries_are_complete(self):
        import json

        manifest = json.loads((REPO / "data" / "uci_manifest.json").read_text())
        expected = {
            "banknote", "pima", "wbc", "haberman", "ionosphere", "sonar",
            "heart", "titanic", "abalone", "boston", "concrete", "energy", "wine",
        }
        assert set(manifest) == expected
        for entry in manifest.values():
            assert {"url", "target", "delimiter", "header", "task"} <= set(entry)
