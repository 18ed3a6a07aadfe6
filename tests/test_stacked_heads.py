"""Stacked heads: one forward/backward over a ModelStack, vector-tau sBQC.

A stack must reproduce each head's single-network numbers bit for bit, so
every comparison here is exact.
"""

import tracemalloc

import numpy as np
import pytest

from quantloss.classify import predict_prob, sbqc_batch_loss, sbqc_loss
from quantloss.network import (
    LayerSpec,
    ModelStack,
    Workspace,
    backward,
    forward,
    init_model,
    stack_models,
)
from quantloss.secant_dist import AsymmetricHSD

LEVELS = [0.1, 0.25, 0.5, 0.75, 0.9]


def _heads(spec, n=3):
    return [init_model(spec, seed) for seed in range(10, 10 + n)]


class TestStackedForwardBackward:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    def test_each_head_matches_its_single_network(self, activation):
        spec = LayerSpec(5, (7, 6), 2, activation=activation)
        models = _heads(spec)
        stack = stack_models(models)
        ws = Workspace(spec, stack.heads)
        rng = np.random.default_rng(0)
        # two row counts share the workspace; 38 rows come back after 64
        for rows in (64, 38, 64, 38):
            x = rng.normal(size=(rows, 5))
            g = rng.normal(size=(stack.heads, rows, 2))
            out, trace = forward(stack, x, workspace=ws)
            assert out.shape == (stack.heads, rows, 2)
            wg, bg = backward(stack, trace, g, workspace=ws)
            grads = ws.grad.reshape(stack.heads, -1)
            for j, model in enumerate(models):
                want_out, want_trace = forward(model, x)
                np.testing.assert_array_equal(out[j], want_out)
                for got, want in zip(trace.pre_activations, want_trace.pre_activations):
                    np.testing.assert_array_equal(got[j], want)
                want_wg, want_bg = backward(model, want_trace, g[j])
                for got, want in zip(wg, want_wg):
                    np.testing.assert_array_equal(got[j], want)
                for got, want in zip(bg, want_bg):
                    np.testing.assert_array_equal(got[j], want)
                single_ws = Workspace(spec)
                backward(model, want_trace, g[j], workspace=single_ws)
                np.testing.assert_array_equal(grads[j], single_ws.grad)

    def test_stack_unstack_round_trips_exactly(self):
        spec = LayerSpec(4, (5,), 1)
        models = _heads(spec, 4)
        stack = stack_models(models)
        assert not any(np.shares_memory(stack.params, m.params) for m in models)
        # head j's slice is laid out like its own flat vector
        for j, m in enumerate(models):
            np.testing.assert_array_equal(stack.params.reshape(4, -1)[j], m.params)
            np.testing.assert_array_equal(stack.weights[0][j], m.weights[0])
            np.testing.assert_array_equal(stack.biases[1][j, 0], m.biases[1])
        back = stack.unstack()
        assert [m.seed for m in back] == [m.seed for m in models]
        for got, want in zip(back, models):
            assert got.spec == want.spec
            np.testing.assert_array_equal(got.params, want.params)
            assert not np.shares_memory(got.params, stack.params)

    def test_stacking_rejects_mixed_shapes_and_mismatched_workspaces(self):
        a, b = init_model(LayerSpec(3, (4,), 1), 0), init_model(LayerSpec(3, (5,), 1), 0)
        with pytest.raises(ValueError):
            stack_models([a, b])
        with pytest.raises(ValueError):
            stack_models([])
        with pytest.raises(ValueError):
            ModelStack(a.spec, (0, 1), a.params.copy())
        stack = stack_models([a, a])
        for ws in (Workspace(a.spec), Workspace(a.spec, 3)):
            with pytest.raises(ValueError):
                forward(stack, np.ones((2, 3)), workspace=ws)
        with pytest.raises(ValueError):
            forward(a, np.ones((2, 3)), workspace=Workspace(a.spec, 2))


def test_backward_does_not_depend_on_the_output_gradient_layout():
    spec = LayerSpec(8, (100,), 1)
    model = init_model(spec, 0)
    rng = np.random.default_rng(1)
    for _ in range(30):
        x = rng.normal(size=(38, 8))
        # a strided column, as slicing one head out of a latent matrix gives
        wide = rng.normal(size=(38, 3))
        column = wide[:, 1:2]
        _, trace = forward(model, x)
        strided = [a.copy() for a in backward(model, trace, column)[0]]
        contiguous = backward(model, trace, np.ascontiguousarray(column))[0]
        for got, want in zip(strided, contiguous):
            np.testing.assert_array_equal(got, want)


def test_backward_scratch_is_shared_across_row_counts():
    spec = LayerSpec(11, (100,), 1)
    model = init_model(spec, 0)
    ws = Workspace(spec)
    rng = np.random.default_rng(0)
    _, trace = forward(model, rng.normal(size=(500, 11)), workspace=ws)
    backward(model, trace, rng.normal(size=(500, 1)), workspace=ws)
    x, g = rng.normal(size=(300, 11)), rng.normal(size=(300, 1))
    tracemalloc.start()
    try:
        _, trace = forward(model, x, workspace=ws)
        backward(model, trace, g, workspace=ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a new row count gets its own pre-activations and activations (2 x 240 KB);
    # backward reuses the 500-row scratch instead of adding two more such arrays
    assert peak < 3 * 300 * 100 * 8


class TestVectorTau:
    def test_cdf_and_pdf_match_per_level_calls(self):
        z = np.random.default_rng(2).normal(scale=4.0, size=(50, len(LEVELS)))
        z[0] = 0.0
        dist = AsymmetricHSD(LEVELS)
        cdf, pdf = dist.cdf(z), dist.pdf(z)
        for j, t in enumerate(LEVELS):
            np.testing.assert_array_equal(cdf[:, j], AsymmetricHSD(t).cdf(z[:, j]))
            np.testing.assert_array_equal(pdf[:, j], AsymmetricHSD(t).pdf(z[:, j]))
            np.testing.assert_array_equal(predict_prob(z, LEVELS)[:, j], predict_prob(z[:, j], t))

    @pytest.mark.parametrize("m", [1, 38, 64])
    def test_batch_loss_matches_per_level_calls(self, m):
        rng = np.random.default_rng(m)
        z = rng.normal(scale=3.0, size=(m, len(LEVELS)))
        y = (rng.random(m) < 0.5).astype(float)
        value, grad = sbqc_batch_loss(y[:, None], z, np.array(LEVELS))
        assert grad.shape == z.shape
        want_value = 0.0
        for j, t in enumerate(LEVELS):
            v, g = sbqc_batch_loss(y, z[:, j], t)
            np.testing.assert_array_equal(grad[:, j], g)
            want_value += v
        assert value == want_value
        elementwise, _ = sbqc_loss(y[:, None], z, LEVELS)
        for j, t in enumerate(LEVELS):
            np.testing.assert_array_equal(elementwise[:, j], sbqc_loss(y, z[:, j], t)[0])

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_a_level_outside_the_open_interval_is_named(self, bad):
        levels = [0.25, bad, 0.75]
        for call in (
            lambda: AsymmetricHSD(levels),
            lambda: sbqc_batch_loss(np.ones((2, 1)), np.zeros((2, 3)), levels),
            lambda: predict_prob(np.zeros((2, 3)), levels),
        ):
            with pytest.raises(ValueError, match=f"got {bad}"):
                call()

    def test_levels_must_be_a_non_empty_vector(self):
        for bad in ([], [[0.5]]):
            with pytest.raises(ValueError):
                AsymmetricHSD(bad)
