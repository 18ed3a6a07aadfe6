"""Backpropagation below a one-column layer, which never forms the rank-one delta.

The reference is the outer-product formula, written out here: the full
(rows, width) delta of every layer, with the dropout mask and the activation
slope applied to it in turn.  The factored ``backward`` must match it to
rounding, and stay bit-identical to it wherever no layer has one column.
"""

import numpy as np
import pytest

from quantloss.network import (ForwardTrace, LayerSpec, Workspace, backward, forward, init_model,
                               set_flat_params, stack_models)

HEADS = 3


def outer_product_backward(model, trace, g):
    """Weight and bias gradients with every layer's delta formed in full."""
    kind = model.spec.activation
    weight_grads, bias_grads = [], []
    delta = g
    for layer in range(len(model.weights) - 1, -1, -1):
        weight_grads.insert(0, np.matmul(trace.activations[layer].swapaxes(-1, -2), delta))
        bias_grads.insert(0, delta.sum(axis=-2))
        if layer > 0:
            w_t = model.weights[layer].swapaxes(-1, -2)
            da = delta * w_t if w_t.shape[-2] == 1 else np.matmul(delta, w_t)
            mask = trace.dropout_masks[layer - 1]
            if mask is not None:
                da = da * mask
            z = trace.pre_activations[layer - 1]
            if kind == "relu":
                da = da * np.greater(z, 0.0)
            elif kind == "tanh":
                t = np.tanh(z)
                da = da * np.subtract(1.0, t * t)
            delta = da
    return weight_grads, bias_grads


def _setup(activation, dropout, hidden, mode, m, output_dim=1, seed=0):
    """A model, its batch, its forward trace and an output gradient."""
    rng = np.random.default_rng(seed)
    spec = LayerSpec(4, hidden, output_dim, activation, dropout)
    if mode == "single":
        model, x = init_model(spec, 11), rng.standard_normal((m, 4))
    else:
        model = stack_models([init_model(spec, 11 + j) for j in range(HEADS)])
        x = rng.standard_normal((m, 4) if mode == "shared" else (HEADS, m, 4))
    # nonzero biases, so relu pre-activations sit away from the kink
    model.params[...] += 0.1 * rng.standard_normal(model.params.size)
    seeds = 5 if mode == "single" else [5 + j for j in range(HEADS)]
    out, trace = forward(model, x, train_mode=dropout > 0, seed=seeds)
    return model, x, trace, rng.standard_normal(out.shape)


@pytest.mark.parametrize("m", [1, 64])
@pytest.mark.parametrize("mode", ["single", "shared", "per-head"])
@pytest.mark.parametrize("hidden", [(7,), (6, 5)])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_factored_backward_matches_outer_product(activation, dropout, hidden, mode, m):
    model, _, trace, g = _setup(activation, dropout, hidden, mode, m)
    want_w, want_b = outer_product_backward(model, trace, g)
    got_w, got_b = backward(model, trace, g)
    for got, want in zip(got_w + got_b, want_w + want_b):
        scale = float(np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * scale)


@pytest.mark.parametrize("mode", ["single", "shared", "per-head"])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_two_output_columns_stay_bit_identical(activation, dropout, mode):
    model, _, trace, g = _setup(activation, dropout, (6, 5), mode, 64, output_dim=2)
    want_w, want_b = outer_product_backward(model, trace, g)
    got_w, got_b = backward(model, trace, g)
    for got, want in zip(got_w + got_b, want_w + want_b):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("mode", ["shared", "per-head"])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stack_head_equals_single_network(activation, dropout, mode):
    stack, x, trace, g = _setup(activation, dropout, (6, 5), mode, 64)
    ws = Workspace(stack.spec, stack.heads)
    backward(stack, trace, g, workspace=ws)
    for j, model in enumerate(stack.unstack()):
        xj = x if mode == "shared" else x[j]
        _, trace_j = forward(model, xj, train_mode=dropout > 0, seed=5 + j)
        ws_j = Workspace(model.spec)
        backward(model, trace_j, g[j], workspace=ws_j)
        np.testing.assert_array_equal(ws.grad.reshape(stack.heads, -1)[j], ws_j.grad)


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_finite_differences_on_a_2_5_1_net(activation):
    rng = np.random.default_rng(3)
    spec = LayerSpec(2, (5,), 1, activation)
    model = init_model(spec, 2)
    model.params[...] += 0.1 * rng.standard_normal(model.params.size)
    x, y = rng.standard_normal((8, 2)), rng.standard_normal((8, 1))

    def loss(flat):
        set_flat_params(model, flat)
        return 0.5 * float(np.mean((forward(model, x)[0] - y) ** 2))

    theta = model.params.copy()
    out, trace = forward(model, x)
    ws = Workspace(spec)
    backward(model, trace, (out - y) / len(x), workspace=ws)
    h = 1e-6
    fd = np.array([(loss(theta + h * e) - loss(theta - h * e)) / (2 * h) for e in np.eye(theta.size)])
    np.testing.assert_allclose(ws.grad, fd, rtol=1e-6, atol=1e-9)


def test_head_k_z_equals_max_abs_bit_for_bit():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((7, 5, 3))
    a[1] = 0.0
    a[2] = -0.0
    a[3] = np.where(rng.random((5, 3)) < 0.5, 0.0, -0.0)
    a[4, 2, 1] = np.nan
    a[5] = -np.abs(a[5])
    a[6, 0, 0] = -np.inf
    for acts in (a, a[2], a[4], a[6]):
        trace = ForwardTrace([], [acts, acts, acts[..., :1]], [])
        want = np.max(np.abs(acts), axis=(-2, -1))
        assert trace.head_k_z.shape == want.shape
        assert trace.head_k_z.tobytes() == want.tobytes()
