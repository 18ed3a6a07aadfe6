"""Minimal fully-connected feed-forward network with inverted dropout.

The forward pass records per-layer pre-activations and activations so the
learning-rate machinery can read off the largest penultimate activation
(``ForwardTrace.k_z``) and backpropagation can reuse them; ``predict`` gives
the same outputs without that trace, for evaluation.  The output layer is
always linear: regression heads emit raw predictions and classification heads
emit the latent score that the sBQC loss maps to a probability.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")


def activation_at_zero(kind: str) -> float:
    """Value of the activation function at 0 (the g(0) of the layer constant)."""
    if kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation {kind!r}")
    return 0.0


@dataclass(frozen=True)
class LayerSpec:
    """Network shape: input width, hidden widths, output width, activation, dropout.

    ``dropout`` is a single rate shared by every hidden layer or one rate per
    hidden layer; the output layer never drops.
    """

    input_dim: int
    hidden_sizes: tuple[int, ...]
    output_dim: int
    activation: str = "relu"
    dropout: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"zero-width hidden layer in {self.hidden_sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        d = self.dropout
        if isinstance(d, (int, float)):
            d = (float(d),) * len(self.hidden_sizes)
        else:
            d = tuple(float(p) for p in d)
            if len(d) == 0:
                d = (0.0,) * len(self.hidden_sizes)
        if len(d) != len(self.hidden_sizes):
            raise ValueError(
                f"need one dropout rate per hidden layer ({len(self.hidden_sizes)}), got {len(d)}"
            )
        if any(not 0.0 <= p < 1.0 for p in d):
            raise ValueError(f"dropout rates must lie in [0, 1), got {d}")
        object.__setattr__(self, "dropout", d)

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        sizes = [self.input_dim, *self.hidden_sizes, self.output_dim]
        return list(zip(sizes[:-1], sizes[1:]))

    def num_params(self) -> int:
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in self.layer_dims)

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_sizes": list(self.hidden_sizes),
            "output_dim": self.output_dim,
            "activation": self.activation,
            "dropout": list(self.dropout),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        return cls(
            input_dim=d["input_dim"],
            hidden_sizes=tuple(d["hidden_sizes"]),
            output_dim=d["output_dim"],
            activation=d.get("activation", "relu"),
            dropout=tuple(d.get("dropout", ())),
        )


def _param_views(
    spec: LayerSpec, flat: np.ndarray, heads: int | None = None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a flat vector laid out W1, b1, W2, b2, ...

    With ``heads`` the vector holds that many such layouts one after another,
    and every view gains a leading head axis.
    """
    lead = () if heads is None else (heads,)
    rows = flat.reshape(lead + (-1,))
    weights, biases = [], []
    k = 0
    for fan_in, fan_out in spec.layer_dims:
        weights.append(rows[..., k : k + fan_in * fan_out].reshape(lead + (fan_in, fan_out)))
        k += fan_in * fan_out
        biases.append(rows[..., k : k + fan_out])
        k += fan_out
    return weights, biases


@dataclass
class MLPModel:
    """A network's parameters, held in one flat float64 vector ``params``.

    ``weights`` and ``biases`` are reshaped views into ``params`` (order W1,
    b1, W2, b2, ..., row-major), so writing either one writes the other.  The
    constructor copies the arrays it is given into a new vector; it never
    aliases them.  Rebinding ``params`` or a list entry breaks the views.
    """

    spec: LayerSpec
    seed: int
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)
    params: np.ndarray = field(init=False, repr=False, compare=False)
    #: a single network has no head axis (see ``ModelStack``)
    heads: ClassVar[None] = None

    def __post_init__(self) -> None:
        dims = self.spec.layer_dims
        if len(self.weights) != len(dims) or len(self.biases) != len(dims) or any(
            np.shape(w) != (fan_in, fan_out) or np.shape(b) != (fan_out,)
            for (fan_in, fan_out), w, b in zip(dims, self.weights, self.biases)
        ):
            raise ValueError("parameter arrays do not match the declared spec")
        self.params = np.asarray(flatten_arrays(self.weights, self.biases), dtype=float)
        self.weights, self.biases = _param_views(self.spec, self.params)


@dataclass
class ModelStack:
    """Same-shape networks stacked along a leading head axis, in one flat vector.

    ``params`` holds the heads one after another: head j's slice is laid out
    exactly like its ``MLPModel.params``.  ``weights[l]`` are views of shape
    (heads, fan_in, fan_out) and ``biases[l]`` of shape (heads, 1, fan_out),
    so ``forward`` and ``backward`` run every head on one shared input batch
    through the code path of a single network, with outputs and gradients
    gaining the leading head axis.  ``np.matmul`` runs the same kernel on each
    head's matrices, so each head's numbers equal its single-network ones bit
    for bit.
    """

    spec: LayerSpec
    seeds: tuple[int, ...]
    params: np.ndarray = field(repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)
    heads: int = field(init=False)

    def __post_init__(self) -> None:
        self.heads = len(self.seeds)
        if self.heads < 1 or self.params.shape != (self.heads * self.spec.num_params(),):
            raise ValueError("stacked parameters do not match the declared spec and head count")
        self.weights, biases = _param_views(self.spec, self.params, self.heads)
        self.biases = [b[:, None, :] for b in biases]

    def head_range(self, start: int, stop: int) -> "ModelStack":
        """Heads start..stop-1 as a stack whose parameters are a view of this
        one's, so an update of either shows in both."""
        size = self.spec.num_params()
        return ModelStack(self.spec, self.seeds[start:stop], self.params[start * size : stop * size])

    def unstack(self) -> list[MLPModel]:
        """One ``MLPModel`` per head, each with a copy of that head's parameters."""
        return [
            MLPModel(self.spec, seed, *_param_views(self.spec, row))
            for seed, row in zip(self.seeds, self.params.reshape(self.heads, -1))
        ]


def stack_models(models: list[MLPModel]) -> ModelStack:
    """Stack same-shape networks into a ``ModelStack`` (their parameters are copied)."""
    if not models:
        raise ValueError("need at least one model to stack")
    spec = models[0].spec
    if any(m.spec != spec for m in models):
        raise ValueError("stacked models must share one network shape")
    return ModelStack(spec, tuple(m.seed for m in models), np.concatenate([m.params for m in models]))


@dataclass
class ForwardTrace:
    """Per-layer records of one forward pass.

    ``activations[0]`` is the input batch and ``activations[-2]`` is the input
    to the final layer, whose largest magnitude over the batch (and over every
    head of a ``ModelStack``) is ``k_z``; ``head_k_z`` holds each head's own.
    Dropout masks already include the inverted-dropout 1/(1-p) scaling.
    """

    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    dropout_masks: list[np.ndarray | None]

    @functools.cached_property
    def k_z(self) -> float:
        """Largest |activation| entering the final layer, computed on first access."""
        a = self.activations[-2]
        return float(np.max(np.abs(a))) if a.size else 0.0

    @functools.cached_property
    def head_k_z(self) -> np.ndarray:
        """Each head's ``k_z``, the largest |activation| over its last two axes.

        A (heads, m, width) final-layer input gives one value per head, each
        equal to the ``k_z`` of that head's single-network trace; a single
        network's (m, width) input gives a 0-d array.
        """
        a = self.activations[-2]
        if a.shape[-2] == 0:
            return np.zeros(a.shape[:-2])
        return np.max(np.abs(a), axis=(-2, -1))


class _RowBuffers:
    """Forward buffers for one batch row count (see ``Workspace``)."""

    def __init__(self, spec: LayerSpec, lead: tuple[int, ...], m: int):
        dims = spec.layer_dims
        hidden = [fan_out for _, fan_out in dims[:-1]]
        self.pre = [np.empty(lead + (m, fan_out)) for _, fan_out in dims]
        self.act = [np.empty(lead + (m, h)) for h in hidden]
        self.mask = [np.empty(lead + (m, h)) if p > 0.0 else None for h, p in zip(hidden, spec.dropout)]


class _BackwardScratch:
    """Backward-only buffers shared by every row count: flat arrays sized for
    the most rows seen so far, handed out as C-contiguous views of a prefix."""

    def __init__(self, spec: LayerSpec, lead: tuple[int, ...]):
        self.lead = lead
        self.heads = int(np.prod(lead))
        self.hidden = [fan_out for _, fan_out in spec.layer_dims[:-1]]
        # relu's derivative is 0 or 1, so a bool flag carries it exactly
        slope = {"relu": bool, "tanh": float}.get(spec.activation)
        self.layout = [(spec.output_dim, float)] + [(h, float) for h in self.hidden]
        if slope is not None:
            self.layout += [(h, slope) for h in self.hidden]
        self.rows = 0
        self.views: dict[int, tuple] = {}

    def get(self, m: int) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """For m rows: (output gradient, d loss / d activations per hidden
        layer, activation slope per hidden layer; empty for identity)."""
        views = self.views.get(m)
        if views is None:
            if m > self.rows:
                self.rows, self.views = m, {}
                self.flat = [np.empty(self.heads * m * w, dtype) for w, dtype in self.layout]
            v = [
                f[: self.heads * m * w].reshape(self.lead + (m, w))
                for f, (w, _) in zip(self.flat, self.layout)
            ]
            n = len(self.hidden)
            views = self.views[m] = (v[0], v[1 : n + 1], v[n + 1 :])
        return views


class Workspace:
    """Reusable buffers for ``forward`` and ``backward`` on one network shape.

    Forward buffers are kept per batch row count, so a loop that alternates
    minibatches with whole-split evaluation allocates each set once; the
    backward-only scratch is shared by all row counts.  The arrays a call
    returns are these buffers: outputs and trace arrays stay valid only until
    the next ``forward`` on this workspace with the same row count, and
    gradients (``grad`` and the per-layer views ``backward`` returns) until
    the next ``backward`` on it.  Copy what must outlive that.  A workspace
    for a ``ModelStack`` is built with its head count; its buffers have a
    leading head axis and serve a batch shared by every head, (m, d), and
    one batch per head, (heads, m, d), alike.  ``predict`` borrows one
    buffer of one head's m rows per hidden layer, which the next ``predict``
    on this workspace overwrites; it touches no ``forward`` buffer.
    """

    def __init__(self, spec: LayerSpec, heads: int | None = None):
        self.spec = spec
        self.heads = heads
        lead = () if heads is None else (heads,)
        #: flat gradient vector, laid out like ``MLPModel.params`` (or ``ModelStack.params``)
        self.grad = np.zeros((heads or 1) * spec.num_params())
        self._grad_views = _param_views(spec, self.grad, heads)
        self._lead = lead
        self._rows: dict[int, _RowBuffers] = {}
        self._scratch = _BackwardScratch(spec, lead)
        self._hidden: dict[int, list[np.ndarray]] = {}

    def head_range(self, start: int, stop: int) -> "Workspace":
        """A workspace for ``ModelStack.head_range(start, stop)`` of this one's stack.

        Its ``grad`` is a view of those heads' slice of this one's, so a
        ``backward`` into it fills that slice; it lends the same ``predict``
        buffers and keeps forward and backward buffers of its own.
        """
        ws = Workspace(self.spec, stop - start)
        size = self.spec.num_params()
        ws.grad = self.grad[start * size : stop * size]
        ws._grad_views = _param_views(self.spec, ws.grad, stop - start)
        ws._hidden = self._hidden
        return ws

    def _check(self, model: MLPModel | ModelStack) -> None:
        if model.heads != self.heads or (model.spec is not self.spec and model.spec != self.spec):
            raise ValueError("workspace was built for a different network shape")

    def _buffers(self, model: MLPModel | ModelStack, m: int) -> _RowBuffers:
        self._check(model)
        bufs = self._rows.get(m)
        if bufs is None:
            bufs = self._rows[m] = _RowBuffers(self.spec, self._lead, m)
        return bufs

    def _hidden_rows(self, m: int) -> list[np.ndarray]:
        """``predict``'s (m, width) buffer per hidden layer, shared by the heads."""
        bufs = self._hidden.get(m)
        if bufs is None:
            bufs = self._hidden[m] = [np.empty((m, h)) for h in self.spec.hidden_sizes]
        return bufs


def init_model(spec: LayerSpec, seed: int) -> MLPModel:
    """Fan-in-scaled uniform weights (bound sqrt(6/fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in spec.layer_dims:
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(spec=spec, seed=seed, weights=weights, biases=biases)


def _checked_batch(model: MLPModel | ModelStack, batch: np.ndarray) -> np.ndarray:
    """The batch as a float array, after the shape and finiteness checks of
    ``forward`` and ``predict``."""
    x = np.asarray(batch, dtype=float)
    heads, d = model.heads, model.spec.input_dim
    if x.ndim not in (2, 3) or x.shape[-1] != d or (x.ndim == 3 and x.shape[0] != heads):
        expected = f"(m, {d})" if heads is None else f"(m, {d}) or ({heads}, m, {d})"
        raise ValueError(f"batch must be {expected}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite values in input batch")
    return x


def _dense(a: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ w + b, written into ``out``."""
    z = np.matmul(a, w, out=out)
    z += b
    return z


def _activate(kind: str, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The hidden activation of z, written into ``out`` (which may be z); z for identity."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(z, out=out)
    return z


def forward(
    model: MLPModel | ModelStack,
    batch: np.ndarray,
    train_mode: bool = False,
    seed: int | Sequence[int] = 0,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Run the batch through the network, recording the trace.

    Dropout is applied to hidden activations only when ``train_mode`` is set,
    with inverted scaling so inference needs no rescale.  The outputs and the
    trace live in ``workspace``'s buffers (see ``Workspace`` for how long they
    stay valid); without one, a fresh workspace makes them new arrays.  A
    ``ModelStack`` runs every head on an (m, d) batch, or head j on row j of a
    (heads, m, d) batch; its outputs are (heads, m, out).  With dropout,
    ``seed`` may be one seed per head: head j's masks are then drawn by its
    own generator into its own slice, so they equal its single-network masks.
    """
    x = _checked_batch(model, batch)
    heads = model.heads
    bufs = (workspace or Workspace(model.spec, heads))._buffers(model, x.shape[-2])
    rng = head_rngs = None
    if train_mode and np.ndim(seed) == 0:
        rng = np.random.default_rng(seed)
    elif train_mode:
        if heads is None or len(seed) != heads:
            expected = "one seed" if heads is None else f"one seed or {heads}, one per head"
            raise ValueError(f"dropout needs {expected}, got {len(seed)} seeds")
        head_rngs = [np.random.default_rng(s) for s in seed]
    kind = model.spec.activation
    last = len(model.weights) - 1
    pre, acts, masks = [], [x], []
    a = x
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = _dense(a, w, b, bufs.pre[layer])
        pre.append(z)
        mask = None
        if layer == last:
            a = z
        else:
            a = _activate(kind, z, bufs.act[layer])
            p = model.spec.dropout[layer]
            if train_mode and p > 0.0:
                mask = bufs.mask[layer]
                if rng is not None:
                    rng.random(out=mask)
                else:
                    for head_rng, head_mask in zip(head_rngs, mask):
                        head_rng.random(out=head_mask)
                np.greater_equal(mask, p, out=mask)
                mask /= 1.0 - p
                a = np.multiply(a, mask, out=bufs.act[layer])
        masks.append(mask)
        acts.append(a)
    return a, ForwardTrace(pre, acts, masks)


def predict(
    model: MLPModel | ModelStack,
    batch: np.ndarray,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """The outputs of ``forward`` in inference mode, without a trace.

    A ``ModelStack`` runs one head at a time over the whole batch, through
    one (m, width) buffer per hidden layer with the activation applied in
    place, so each matrix product is the one ``forward`` makes for that head
    and the outputs equal ``forward(model, batch)[0]`` bit for bit.  Returns
    a new (m, out) array, or (heads, m, out) for a stack; the workspace lends
    only the hidden-layer buffers.  The batch is checked as in ``forward``,
    with the same errors.
    """
    x = _checked_batch(model, batch)
    spec, m = model.spec, x.shape[-2]
    ws = workspace or Workspace(spec, model.heads)
    ws._check(model)
    out = np.empty(ws._lead + (m, spec.output_dim))
    if model.heads is None:
        runs = [(x, model.weights, model.biases, out)]
    else:
        runs = [
            (x[j] if x.ndim == 3 else x, [w[j] for w in model.weights], [b[j] for b in model.biases], out[j])
            for j in range(model.heads)
        ]
    hidden = ws._hidden_rows(m)
    for a, weights, biases, head_out in runs:
        for w, b, z in zip(weights[:-1], biases[:-1], hidden):
            a = _activate(spec.activation, _dense(a, w, b, z), z)
        _dense(a, weights[-1], biases[-1], head_out)
    return out


def backward(
    model: MLPModel | ModelStack,
    trace: ForwardTrace,
    output_grad: np.ndarray,
    workspace: Workspace | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backpropagate d(loss)/d(outputs) to parameter gradients.

    Returns (weight_grads, bias_grads) shaped like the model parameters: views
    into ``workspace.grad``, the flat gradient in ``MLPModel.params`` order,
    valid until the next ``backward`` on that workspace.  Without a workspace
    a fresh one makes them new arrays.  Dropout masks recorded in the trace
    are reused, so the gradient matches the exact function computed by the
    forward pass.  An ``output_grad`` that is not C-contiguous is copied into
    a contiguous buffer first, so the gradient does not depend on its layout.
    """
    n_layers = len(model.weights)
    if len(trace.activations) != n_layers + 1:
        raise ValueError("trace does not match model depth")
    g = np.asarray(output_grad, dtype=float)
    if g.shape != trace.activations[-1].shape:
        raise ValueError(
            f"output_grad shape {g.shape} does not match outputs {trace.activations[-1].shape}"
        )
    workspace = workspace or Workspace(model.spec, model.heads)
    workspace._check(model)
    out_grad, da_bufs, slopes = workspace._scratch.get(g.shape[-2])
    if not (g.flags.c_contiguous and g.flags.aligned):
        # a strided gradient can take another BLAS path and change the rounding
        np.copyto(out_grad, g)
        g = out_grad
    weight_grads, bias_grads = workspace._grad_views
    kind = model.spec.activation
    delta = g  # output layer is linear, so d loss / d z_L = output_grad
    for layer in range(n_layers - 1, -1, -1):
        a_prev = trace.activations[layer]
        if a_prev.shape[-1] != model.weights[layer].shape[-2]:
            raise ValueError("trace does not match model shapes")
        np.matmul(a_prev.swapaxes(-1, -2), delta, out=weight_grads[layer])
        delta.sum(axis=-2, out=bias_grads[layer])
        if layer > 0:
            # d loss / d activations of the layer's input; becomes the next delta
            w_t = model.weights[layer].swapaxes(-1, -2)
            if w_t.shape[-2] == 1:
                # one output column: an outer product, formed as the weight row
                # copied to every row and scaled in place, without BLAS's
                # inner-dimension-1 gemm
                da = da_bufs[layer - 1]
                np.copyto(da, w_t)
                da *= delta
            else:
                da = np.matmul(delta, w_t, out=da_bufs[layer - 1])
            mask = trace.dropout_masks[layer - 1]
            if mask is not None:
                da *= mask
            z = trace.pre_activations[layer - 1]
            if kind == "relu":
                da *= np.greater(z, 0.0, out=slopes[layer - 1])
            elif kind == "tanh":
                slope = slopes[layer - 1]
                np.tanh(z, out=slope)
                slope *= slope
                da *= np.subtract(1.0, slope, out=slope)
            delta = da
    return list(weight_grads), list(bias_grads)


def flatten_arrays(weights: list[np.ndarray], biases: list[np.ndarray]) -> np.ndarray:
    """Concatenate parameter arrays in the fixed order W1, b1, W2, b2, ... (row-major)."""
    parts = []
    for w, b in zip(weights, biases):
        parts.append(np.ravel(w))
        parts.append(np.ravel(b))
    return np.concatenate(parts)


def flatten_params(model: MLPModel) -> np.ndarray:
    """A copy of the model's flat parameter vector."""
    return model.params.copy()


def _checked_flat(model: MLPModel, flat) -> np.ndarray:
    flat = np.asarray(flat, dtype=float)
    if flat.shape != model.params.shape:
        raise ValueError(f"expected a flat vector of length {model.params.size}, got {flat.shape}")
    return flat


def unflatten_params(model: MLPModel, flat: np.ndarray) -> MLPModel:
    """New model with parameters taken from the flat vector (inverse of flatten)."""
    weights, biases = _param_views(model.spec, _checked_flat(model, flat))
    return MLPModel(spec=model.spec, seed=model.seed, weights=weights, biases=biases)


def set_flat_params(model: MLPModel, flat: np.ndarray) -> None:
    """Copy a flat parameter vector into ``model.params`` (and so its views)."""
    model.params[...] = _checked_flat(model, flat)


def save_checkpoint(model: MLPModel, path) -> None:
    """Write the model as a single JSON document (weights row-major).

    JSON floats round-trip exactly, so a loaded checkpoint reproduces
    predictions bit for bit on the same platform.
    """
    doc = {
        "spec": model.spec.to_dict(),
        "seed": model.seed,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def load_checkpoint(path) -> MLPModel:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    spec = LayerSpec.from_dict(doc["spec"])
    weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
    biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
    return MLPModel(spec=spec, seed=int(doc["seed"]), weights=weights, biases=biases)
