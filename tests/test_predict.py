"""``network.predict``: the outputs of ``forward`` in inference mode, computed
one head at a time without a trace, bit for bit."""

import numpy as np
import pytest

from quantloss.network import (
    LayerSpec,
    Workspace,
    forward,
    init_model,
    predict,
    stack_models,
)

HEADS = 3


def _randomised(model, rng):
    """Random biases too, so no pre-activation sits exactly at a relu kink."""
    model.params[...] = rng.normal(scale=0.7, size=model.params.size)
    return model


def _models(spec, rng):
    single = _randomised(init_model(spec, 0), rng)
    stack = stack_models([_randomised(init_model(spec, s), rng) for s in range(HEADS)])
    return single, stack


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("hidden", [(100,), (8, 5)])
def test_predict_equals_forward_bit_for_bit(activation, hidden):
    spec = LayerSpec(4, hidden, 1, activation)
    rng = np.random.default_rng(len(hidden))
    single, stack = _models(spec, rng)
    ws_single, ws_stack = Workspace(spec), Workspace(spec, HEADS)
    for m in (1, 63, 64, 65, 878):
        X = rng.normal(size=(m, 4))
        per_head = rng.normal(size=(HEADS, m, 4))
        for model, batch, ws in ((single, X, ws_single), (stack, X, ws_stack), (stack, per_head, ws_stack)):
            want = forward(model, batch)[0]
            got = predict(model, batch, workspace=ws)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(predict(model, batch), want)


@pytest.mark.parametrize("m", [64, 333, 1344, 1409, 1600])
def test_wide_inputs_many_rows_and_wide_outputs(m):
    """30 features and up to 1600 rows, around where this BLAS switches GEMM
    kernels, with two hidden layers and two outputs."""
    spec = LayerSpec(30, (100, 40), 2, "tanh")
    rng = np.random.default_rng(m)
    single, stack = _models(spec, rng)
    X = rng.normal(size=(m, 30))
    np.testing.assert_array_equal(predict(single, X), forward(single, X)[0])
    np.testing.assert_array_equal(predict(stack, X), forward(stack, X)[0])


def test_returns_a_new_array_and_leaves_forward_buffers_alone():
    spec = LayerSpec(4, (16,), 1)
    rng = np.random.default_rng(2)
    model = _randomised(init_model(spec, 0), rng)
    ws = Workspace(spec)
    X = rng.normal(size=(70, 4))
    out, trace = forward(model, X, workspace=ws)
    kept = (out.copy(), [a.copy() for a in trace.activations])
    first = predict(model, X, workspace=ws)
    second = predict(model, 2 * X, workspace=ws)
    assert first is not second and not np.shares_memory(first, second)
    np.testing.assert_array_equal(out, kept[0])
    for a, b in zip(trace.activations, kept[1]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(first, forward(model, X)[0])


def test_empty_batch():
    spec = LayerSpec(4, (8,), 2)
    assert predict(init_model(spec, 0), np.zeros((0, 4))).shape == (0, 2)
    assert predict(stack_models([init_model(spec, s) for s in range(2)]), np.zeros((0, 4))).shape == (2, 0, 2)


@pytest.mark.parametrize("heads, batch", [
    (None, np.ones((5, 3))),
    (None, np.ones((1, 5, 4))),
    (None, np.ones(4)),
    (3, np.ones((2, 5, 4))),
    (3, np.ones((3, 5, 2))),
    (None, np.array([[0.0, np.nan, 1.0, 2.0]])),
    (3, np.array([[0.0, np.inf, 1.0, 2.0]])),
])
def test_bad_inputs_raise_as_in_forward(heads, batch):
    spec = LayerSpec(4, (8,), 1)
    model = init_model(spec, 0) if heads is None else stack_models([init_model(spec, s) for s in range(heads)])
    with pytest.raises(ValueError) as from_forward:
        forward(model, batch)
    with pytest.raises(ValueError) as from_predict:
        predict(model, batch)
    assert str(from_predict.value) == str(from_forward.value)


def test_rejects_a_workspace_of_another_shape():
    spec = LayerSpec(4, (8,), 1)
    with pytest.raises(ValueError, match="different network shape"):
        predict(init_model(spec, 0), np.ones((2, 4)), workspace=Workspace(spec, 2))
