"""The first layer computed as [x | 1] @ [W1; b1].

``forward`` and ``predict`` take the first layer's bias as the last term of
its matrix product instead of adding it in a separate pass.  The reference
here is that separate pass, ``x @ W1`` then ``+ b1``.  On every BLAS the two
agree within one rounding of the sum per element, (d + 1)·eps·(|x||W| + |b|).
Bit-identity is a property of the BLAS kernel, not of this code: OpenBLAS
accumulates the inner dimension in order with fused multiply-adds, so the
product's last term ``fma(1, b, acc)`` rounds like ``acc + b``, and at the
presets' input widths (4, 8 and 11 features) and two rows or more the fold
is exact.  The exact comparisons run only when numpy reports OpenBLAS.
Elsewhere (one row at an odd width, wide inputs) the bound is all there is.
"""

import numpy as np
import pytest

from quantloss.network import LayerSpec, Workspace, forward, init_model, predict, stack_models

EPS = np.finfo(float).eps


def _numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()
    except (TypeError, KeyError):  # a numpy without mode="dicts", or no BLAS entry
        return ""


OPENBLAS = "openblas" in _numpy_blas()


def _reference_first_layer(model, x):
    """x @ W1 + b1 the way it was taken before the fold: a product, then a bias pass."""
    z = np.matmul(x, model.weights[0])
    z += model.biases[0]
    return z


def _assert_first_layer(z, model, x, exact):
    """``z`` is x @ W1 + b1 within one rounding of the sum, and bit for bit if ``exact``."""
    want = _reference_first_layer(model, x)
    scale = np.matmul(np.abs(x), np.abs(model.weights[0])) + np.abs(model.biases[0])
    assert np.all(np.abs(z - want) <= (x.shape[-1] + 1) * EPS * scale)
    if exact:
        assert np.array_equal(z, want)


def _reference_outputs(model, z1, masks):
    """The network's outputs from the first layer's pre-activations ``z1``, with the trace's dropout masks."""
    kind = model.spec.activation
    z = z1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        if layer > 0:
            z = np.matmul(a, w) + b
        if layer == len(model.weights) - 1:
            return z
        a = {"relu": lambda v: np.maximum(v, 0.0), "tanh": np.tanh, "identity": lambda v: v}[kind](z)
        if masks[layer] is not None:
            a = a * masks[layer]


def _model(d, activation, dropout, heads, seed=0):
    spec = LayerSpec(d, (100,), 1, activation=activation, dropout=dropout)
    rng = np.random.default_rng(seed)
    models = [init_model(spec, seed + j) for j in range(heads or 1)]
    for m in models:  # nonzero biases, so the fold has a bias to take
        m.params[...] += 0.3 * rng.normal(size=m.params.shape)
    return models[0] if heads is None else stack_models(models)


def _batch(model, m, per_head, seed=1):
    rng = np.random.default_rng(seed)
    d = model.spec.input_dim
    return rng.normal(size=(model.heads, m, d) if per_head else (m, d)) * 2.0


SHAPES = [(None, False), (3, False), (3, True)]  # single net; stack on a shared batch; on per-head batches


class TestFoldIsExactAtThePresetWidths:
    """Within the bound on every BLAS; bit for bit when numpy reports OpenBLAS."""

    @pytest.mark.parametrize("d", [4, 8, 11])
    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("heads, per_head", SHAPES, ids=["single", "stack-shared", "stack-per-head"])
    def test_forward_and_predict_equal_the_separate_bias_pass(self, d, activation, dropout, heads, per_head):
        model = _model(d, activation, dropout, heads)
        ws = Workspace(model.spec, model.heads)
        for m in (2, 3, 64, 65, 300):
            x = _batch(model, m, per_head, seed=m)
            out, trace = forward(model, x, train_mode=dropout > 0, seed=7, workspace=ws)
            _assert_first_layer(trace.pre_activations[0], model, x, exact=OPENBLAS)
            assert np.array_equal(out, _reference_outputs(model, trace.pre_activations[0], trace.dropout_masks))
            if dropout == 0.0:
                assert np.array_equal(predict(model, x, workspace=ws), out)

    def test_the_ones_column_survives_other_row_counts(self):
        # prefix views of one buffer overlap: a call with fewer rows writes x where a bigger call's ones were
        model = _model(4, "relu", 0.0, 3)
        ws = Workspace(model.spec, model.heads)
        x_big, x_small = _batch(model, 64, False), _batch(model, 30, True)
        first = forward(model, x_big, workspace=ws)[0].copy()
        first_predict = predict(model, x_big, workspace=ws)
        forward(model, x_small, workspace=ws)
        predict(model, x_small, workspace=ws)
        assert np.array_equal(forward(model, x_big, workspace=ws)[0], first)
        assert np.array_equal(predict(model, x_big, workspace=ws), first_predict)

    def test_a_network_without_hidden_layers_folds_its_output_layer(self):
        spec = LayerSpec(4, (), 2)
        model = init_model(spec, 0)
        model.params[...] += np.random.default_rng(0).normal(size=model.params.shape)
        x = _batch(model, 10, False)
        out, _ = forward(model, x)
        _assert_first_layer(out, model, x, exact=OPENBLAS)
        assert np.array_equal(predict(model, x), out)


class TestFoldIsWithinOneRoundingElsewhere:
    @pytest.mark.parametrize("d, m", [(30, 2), (30, 64), (30, 877), (5, 1), (11, 1), (30, 1)])
    @pytest.mark.parametrize("heads, per_head", SHAPES, ids=["single", "stack-shared", "stack-per-head"])
    def test_pre_activations_within_the_bound(self, d, m, heads, per_head):
        model = _model(d, "relu", 0.0, heads)
        x = _batch(model, m, per_head)
        _, trace = forward(model, x)
        _assert_first_layer(trace.pre_activations[0], model, x, exact=False)
        assert np.array_equal(predict(model, x), forward(model, x)[0])
