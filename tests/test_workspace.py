"""Flat parameters and the reusable forward/backward workspace.

The reference below is the plain allocating numpy forward/backward the
workspace path replaced; the arithmetic is unchanged, so results must match
it exactly.
"""

import tracemalloc

import numpy as np
import pytest

from quantloss.network import (
    LayerSpec,
    MLPModel,
    Workspace,
    backward,
    flatten_arrays,
    forward,
    init_model,
    predict,
    set_flat_params,
    unflatten_params,
)


def _ref_act(kind, z):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _ref_act_grad(kind, z):
    if kind == "relu":
        return (z > 0).astype(float)
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


def ref_forward(model, x, train_mode=False, seed=0):
    """Returns (outputs, pre-activations, activations, dropout masks)."""
    rng = np.random.default_rng(seed) if train_mode else None
    n_layers = len(model.weights)
    pre, acts, masks = [], [x], []
    a = x
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        if layer == n_layers - 1:
            a = z
            masks.append(None)
        else:
            a = _ref_act(model.spec.activation, z)
            p = model.spec.dropout[layer]
            if train_mode and p > 0.0:
                mask = (rng.random(a.shape) >= p) / (1.0 - p)
                a = a * mask
                masks.append(mask)
            else:
                masks.append(None)
        acts.append(a)
    return acts[-1], pre, acts, masks


def ref_backward(model, pre, acts, masks, g):
    n_layers = len(model.weights)
    weight_grads = [None] * n_layers
    bias_grads = [None] * n_layers
    delta = g
    for layer in range(n_layers - 1, -1, -1):
        weight_grads[layer] = acts[layer].T @ delta
        bias_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            da = delta @ model.weights[layer].T
            if masks[layer - 1] is not None:
                da = da * masks[layer - 1]
            delta = da * _ref_act_grad(model.spec.activation, pre[layer - 1])
    return weight_grads, bias_grads


def _assert_lists_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            np.testing.assert_array_equal(a, b)


class TestWorkspaceMatchesReference:
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    def test_bit_identical_across_row_counts_and_batches(self, activation, dropout):
        spec = LayerSpec(5, (7, 6), 2, activation=activation, dropout=dropout)
        model = init_model(spec, 4)
        ws = Workspace(spec)
        rng = np.random.default_rng(0)
        train_mode = dropout > 0
        # two row counts share the workspace; rows 9 come back twice in a row
        for call, rows in enumerate([9, 4, 9, 9]):
            x = rng.normal(size=(rows, 5))
            g = rng.normal(size=(rows, 2))
            want_out, pre, acts, masks = ref_forward(model, x, train_mode, seed=call)
            want_wg, want_bg = ref_backward(model, pre, acts, masks, g)

            out, trace = forward(model, x, train_mode=train_mode, seed=call, workspace=ws)
            np.testing.assert_array_equal(out, want_out)
            _assert_lists_equal(trace.pre_activations, pre)
            _assert_lists_equal(trace.activations, acts)
            _assert_lists_equal(trace.dropout_masks, masks)
            assert trace.k_z == np.max(np.abs(acts[-2]))
            wg, bg = backward(model, trace, g, workspace=ws)
            _assert_lists_equal(wg, want_wg)
            _assert_lists_equal(bg, want_bg)
            np.testing.assert_array_equal(ws.grad, flatten_arrays(want_wg, want_bg))

    def test_without_workspace_results_are_fresh_arrays(self):
        model = init_model(LayerSpec(3, (4,), 1), 0)
        x = np.ones((5, 3))
        out1, trace1 = forward(model, x)
        out2, trace2 = forward(model, x)
        assert not np.shares_memory(out1, out2)
        wg1, _ = backward(model, trace1, np.ones((5, 1)))
        wg2, _ = backward(model, trace2, np.ones((5, 1)))
        assert not np.shares_memory(wg1[0], wg2[0])

    def test_workspace_rejects_another_shape(self):
        ws = Workspace(LayerSpec(3, (4,), 1))
        other = init_model(LayerSpec(3, (5,), 1), 0)
        with pytest.raises(ValueError):
            forward(other, np.ones((2, 3)), workspace=ws)


class TestFlatParams:
    def test_weights_and_biases_are_views_of_params(self):
        model = init_model(LayerSpec(3, (4,), 2), 1)
        model.weights[1][2, 1] = 5.0
        model.biases[0][3] = -2.0
        np.testing.assert_array_equal(model.params, flatten_arrays(model.weights, model.biases))
        model.params[:] = 0.0
        assert all(np.all(w == 0.0) for w in model.weights)

    def test_constructor_and_updates_copy_their_inputs(self):
        spec = LayerSpec(2, (3,), 1)
        weights = [np.ones((2, 3)), np.ones((3, 1))]
        biases = [np.zeros(3), np.zeros(1)]
        model = MLPModel(spec=spec, seed=0, weights=weights, biases=biases)
        assert not any(np.shares_memory(model.params, a) for a in weights + biases)
        flat = np.arange(spec.num_params(), dtype=float)
        set_flat_params(model, flat)
        np.testing.assert_array_equal(model.params, flat)
        assert not np.shares_memory(model.params, flat)
        other = unflatten_params(model, flat)
        assert not np.shares_memory(other.params, flat)

    def test_constructor_rejects_arrays_off_the_spec(self):
        with pytest.raises(ValueError):
            MLPModel(spec=LayerSpec(2, (3,), 1), seed=0,
                     weights=[np.ones((2, 3)), np.ones((2, 1))], biases=[np.zeros(3), np.zeros(1)])


def test_reused_workspace_allocates_less_than_one_activation_array():
    spec = LayerSpec(11, (100,), 1)
    model = init_model(spec, 0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2000, 11))
    g = rng.normal(size=(2000, 1))
    activation_bytes = 2000 * 100 * 8

    def peak_of_step(ws):
        tracemalloc.start()
        try:
            _, trace = forward(model, x, workspace=ws)
            backward(model, trace, g, workspace=ws)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ws = Workspace(spec)
    peak_of_step(ws)  # the first step allocates the buffers
    # a fresh workspace's peak shows the measurement sees array allocations
    assert peak_of_step(Workspace(spec)) > activation_bytes
    assert peak_of_step(ws) < activation_bytes


def _peak_bytes(call):
    """The call's result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneBufferSetPerCallKind:
    """A call with fewer rows than an earlier one borrows a prefix of that
    call's buffers and allocates none; a head range allocates no gradient."""

    spec = LayerSpec(11, (100,), 1)
    activation_bytes = 300 * 100 * 8

    def test_forward_at_fewer_rows_reuses_the_larger_buffers(self):
        model = init_model(self.spec, 0)
        ws = Workspace(self.spec)
        rng = np.random.default_rng(0)
        forward(model, rng.normal(size=(500, 11)), workspace=ws)
        x = rng.normal(size=(300, 11))
        (out, trace), peak = _peak_bytes(lambda: forward(model, x, workspace=ws))
        assert peak < self.activation_bytes
        want_out, pre, acts, _ = ref_forward(model, x)
        np.testing.assert_array_equal(out, want_out)
        _assert_lists_equal(trace.pre_activations, pre)
        _assert_lists_equal(trace.activations, acts)
        assert all(a.flags.c_contiguous for a in trace.pre_activations + trace.activations)

    def test_forward_at_more_rows_after_fewer_matches_the_reference(self):
        model = init_model(self.spec, 1)
        ws = Workspace(self.spec)
        rng = np.random.default_rng(1)
        for rows in (3, 8, 5):
            x = rng.normal(size=(rows, 11))
            out, trace = forward(model, x, workspace=ws)
            want_out, pre, acts, _ = ref_forward(model, x)
            np.testing.assert_array_equal(out, want_out)
            _assert_lists_equal(trace.activations, acts)

    def test_predict_at_fewer_rows_allocates_only_its_result(self):
        model = init_model(self.spec, 0)
        ws = Workspace(self.spec)
        rng = np.random.default_rng(0)
        predict(model, rng.normal(size=(500, 11)), workspace=ws)
        x = rng.normal(size=(300, 11))
        out, peak = _peak_bytes(lambda: predict(model, x, workspace=ws))
        # beside the result, only transients: the batch's finiteness flags and
        # numpy's 64 KB ufunc buffer for the broadcast bias add
        assert peak - out.nbytes < self.activation_bytes // 2
        np.testing.assert_array_equal(out, forward(model, x)[0])

    def test_head_range_allocates_no_gradient(self):
        ws = Workspace(self.spec, 50)
        part, peak = _peak_bytes(lambda: ws.head_range(5, 45))
        size = self.spec.num_params()
        assert part.grad.shape == (40 * size,)
        assert np.shares_memory(part.grad, ws.grad[5 * size : 45 * size])
        assert peak < part.grad.nbytes // 10
