"""Training orchestration: epochs, batching, optimizer dispatch, per-batch
adaptive learning rates, k-fold/repeat protocols, and run reports."""

from __future__ import annotations

import atexit
import csv
import json
import math
import os
import site
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from .classify import head_seed, predict_prob, sbqc_batch_loss
from .data import Dataset, FoldPlan, StandardizeStats, standardize_apply, standardize_fit, subset
from .losses import LossSpec, batch_loss, quantile_crossing_grad
from .metrics import ConfusionMatrix, classification_metrics, rmse
from .network import (
    LayerSpec,
    ModelStack,
    Workspace,
    activation_at_zero,
    backward,
    derive_seed,
    flatten_params,
    forward,
    init_model,
    predict,
    set_flat_params,
    stack_models,
)
from .optim import (
    LR_MAX_DEFAULT,
    LR_MIN_DEFAULT,
    AdamState,
    LipschitzContext,
    adam_step,
    lalr_lr,
    minimize_lbfgs,
    regression_lipschitz_constant,
    sbqc_layer_lipschitz_constant,
)

LR_POLICIES = ("constant", "exponential", "lalr")
OPTIMIZER_KINDS = ("adam", "lalr-adam", "lbfgs")
#: the one rate policy of each optimizer that sets its own rate; any other takes any policy, "constant" if unset
_OWN_POLICY = {"lalr-adam": "lalr", "lbfgs": "constant"}

#: decay rate of the exponential comparator schedule lr(epoch) = lr0 e^(-RATE epoch)
EXP_DECAY_RATE = 1e-4


def worker_count() -> int:
    """Worker cap from QUANTLOSS_THREADS (default 1, sequential)."""
    raw = os.environ.get("QUANTLOSS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _pool_size(n_jobs: int) -> int:
    """Worker processes for n_jobs jobs: never more than the usable CPUs."""
    return min(worker_count(), _usable_cpus(), n_jobs)


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adam"
    lr: float = 0.01
    lr_min: float = LR_MIN_DEFAULT
    lr_max: float = LR_MAX_DEFAULT
    beta1: float = 0.9
    beta2: float = 0.999
    m_hist: int = 10
    max_line_search: int = 25

    def __post_init__(self) -> None:
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"optimizer kind must be one of {OPTIMIZER_KINDS}, got {self.kind!r}")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0 < self.lr_min <= self.lr_max:
            raise ValueError(f"need 0 < lr_min <= lr_max, got [{self.lr_min}, {self.lr_max}]")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name in ("m_hist", "max_line_search"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerSpec":
        return cls(**d)


@dataclass(frozen=True)
class TrainConfig:
    task: str
    hidden_sizes: tuple[int, ...] = (100,)
    activation: str = "relu"
    dropout: Any = 0.0
    loss: LossSpec | None = None          # regression loss
    sbqc_tau: float = 0.5                 # classification quantile marker
    optimizer: OptimizerSpec = OptimizerSpec()
    lr_policy: str | None = None          # None: "lalr" under lalr-adam, else "constant"
    epochs: int = 50
    batch_size: int = 64
    repeats: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        kind = self.optimizer.kind
        if self.lr_policy is None:
            object.__setattr__(self, "lr_policy", _OWN_POLICY.get(kind, "constant"))
        if self.task not in ("regression", "classification"):
            raise ValueError(f"task must be regression or classification, got {self.task!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr_policy not in LR_POLICIES:
            raise ValueError(f"lr_policy must be one of {LR_POLICIES}, got {self.lr_policy!r}")
        if self.task == "regression" and self.loss is None:
            raise ValueError("regression config needs a loss spec")
        if not 0.0 < self.sbqc_tau < 1.0:
            raise ValueError(f"sbqc tau must be inside (0, 1), got {self.sbqc_tau}")
        if kind in _OWN_POLICY and self.lr_policy != _OWN_POLICY[kind]:
            raise ValueError(f"optimizer.kind {kind!r} sets its own rate: "
                             f"train.lr_policy must be {_OWN_POLICY[kind]!r}, got {self.lr_policy!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """Build a config from the CLI's JSON document layout.  A field the document omits takes
        the dataclass default, but a regression document trains 500 epochs of 256-row batches."""
        model, train, sbqc = (doc.get(name, {}) for name in ("model", "train", "sbqc"))
        fields = {name: model[name] for name in ("hidden_sizes", "activation", "dropout") if name in model}
        if doc["task"] == "regression":
            fields.update(epochs=500, batch_size=256)
        # int(): a JSON document may write an integer such as 50 as 50.0
        fields.update({name: int(train[name]) for name in ("epochs", "batch_size", "repeats", "seed")
                       if name in train})
        if "lr_policy" in train:
            fields["lr_policy"] = train["lr_policy"]
        if "tau" in sbqc:
            fields["sbqc_tau"] = sbqc["tau"]
        if "loss" in doc:
            fields["loss"] = LossSpec.from_dict(doc["loss"])
        return cls(task=doc["task"], optimizer=OptimizerSpec.from_dict(doc.get("optimizer", {})), **fields)

    def to_dict(self) -> dict:
        d: dict[str, Any] = {
            "task": self.task,
            "model": {
                "hidden_sizes": list(self.hidden_sizes),
                "activation": self.activation,
                "dropout": self.dropout if isinstance(self.dropout, (int, float))
                else list(self.dropout),
            },
            "optimizer": asdict(self.optimizer),
            "train": {
                "epochs": self.epochs,
                "batch_size": self.batch_size,
                "repeats": self.repeats,
                "seed": self.seed,
                "lr_policy": self.lr_policy,
            },
        }
        if self.loss is not None:
            d["loss"] = {**asdict(self.loss), "kind": self.loss.kind.value}
        if self.task == "classification":
            d["sbqc"] = {"tau": self.sbqc_tau}
        return d


@dataclass
class SingleRun:
    """One model trained on one (train, validation) split, from ``start`` through each epoch's
    ``record`` to ``finish``: its traces, its best-validation epoch and how it ended."""

    train_loss: list[float]
    val_loss: list[float]
    val_metric: list[float]      # accuracy (classification) or rmse (regression)
    lr_trace: list[float] | None
    k_trace: list[float] | None
    higher_better: bool          # the direction of the task's BEST_METRIC
    best_metric: float
    best_epoch: int
    best_params: np.ndarray | None = field(repr=False, compare=False)
    final_params: np.ndarray | None = field(repr=False, compare=False)
    diverged: bool
    line_search_failures: int = 0
    #: (epoch, head) where a run diverged; head is a tau-grid level's index, else 0
    diverged_at: tuple[int, int] | None = None

    @classmethod
    def start(cls, higher_better: bool, lalr: bool) -> "SingleRun":
        """A run with no epoch recorded; it traces its LALR rates and constants if ``lalr``."""
        return cls([], [], [], [] if lalr else None, [] if lalr else None, higher_better,
                   -math.inf if higher_better else math.inf, -1, None, None, False)

    def record(self, tl: float, vl: float, vm: float, params: np.ndarray) -> None:
        """Append one epoch; keep a copy of ``params`` if its metric is the best yet."""
        self.train_loss.append(tl)
        self.val_loss.append(vl)
        self.val_metric.append(vm)
        if (vm > self.best_metric) if self.higher_better else (vm < self.best_metric):
            self.best_metric = vm
            self.best_epoch = len(self.val_metric) - 1
            self.best_params = params.copy()

    def finish(self, params: np.ndarray, diverged: bool) -> "SingleRun":
        """End the run at ``params``; with no epoch recorded, they are its best."""
        if self.best_epoch < 0:
            self.best_epoch, self.best_params = 0, params.copy()
        self.final_params, self.diverged = params, diverged
        return self


def _layer_spec(config: TrainConfig, input_dim: int, output_dim: int) -> LayerSpec:
    dropout = config.dropout
    if config.optimizer.kind == "lbfgs":
        # line search needs a deterministic objective
        dropout = 0.0
    return LayerSpec(
        input_dim=input_dim,
        hidden_sizes=config.hidden_sizes,
        output_dim=output_dim,
        activation=config.activation,
        dropout=dropout,
    )


def _score(task: str, tau: float, outputs: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Metrics of (m, out) outputs against y: of the labels predict_prob >= 0.5, or the rmse."""
    if task == "classification":
        pred = (predict_prob(outputs[:, 0], tau) >= 0.5).astype(float)
        return classification_metrics(ConfusionMatrix.from_labels(y, pred)).as_dict()
    return {"rmse": rmse(outputs.ravel(), y.ravel())}


#: per task, the validation metric that picks the best epoch and run, and whether higher is better
BEST_METRIC = {"classification": ("accuracy", True), "regression": ("rmse", False)}


def _head_val_metrics(config: TrainConfig, outputs: np.ndarray, y: np.ndarray) -> list[float]:
    """The task's ``BEST_METRIC`` of each head of (heads, m, out) outputs.

    Classification scores every head with one ``predict_prob`` call, as
    hits / m, which equals ``classification_metrics``' (tp + tn) / n bit for
    bit.
    """
    if config.task == "classification":
        hits = (predict_prob(outputs[..., 0], config.sbqc_tau) >= 0.5) == (y == 1.0)
        return (np.count_nonzero(hits, axis=1) / outputs.shape[1]).tolist()
    return [rmse(out.ravel(), y.ravel()) for out in outputs]


def _epoch_lr(config: TrainConfig, epoch: int) -> float:
    if config.lr_policy == "exponential":
        return config.optimizer.lr * math.exp(-EXP_DECAY_RATE * epoch)
    return config.optimizer.lr


def _layer_constant(config: TrainConfig, ctx: LipschitzContext) -> float | list[float]:
    """Per-batch final-layer constant K of the LALR rate, for either task (one per head of a
    per-head context): the sBQC constant, or ``regression_lipschitz_constant`` under the config's loss."""
    if config.task == "classification":
        return sbqc_layer_lipschitz_constant(ctx)
    return regression_lipschitz_constant(ctx, config.loss)


def train_single(
    config: TrainConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    seed: int | Sequence[int] | Sequence[Sequence[int]],
) -> SingleRun | list[SingleRun] | list[list[SingleRun]]:
    """Train one network per seed; returns loss/metric traces and best-validation params.

    ``seed`` is one seed, which returns one ``SingleRun``, or a list or tuple
    of seeds, which returns one ``SingleRun`` per seed, each equal, field for
    field and bit for bit, to the run that seed trains alone.  For several
    folds, ``X_train``, ``y_train``, ``X_val`` and ``y_val`` are lists of one
    array per fold and ``seed`` is a list of one list of seeds per fold; the
    result is one list of runs per fold.  Adam and LALR-Adam train together,
    as one ``ModelStack``, every run of the folds that have one number of
    batches per epoch (see ``_train_adam``); L-BFGS trains the runs one
    after another, one ``minimize_lbfgs`` call each, as its line search is per run.
    """
    several = isinstance(X_train, (list, tuple))
    if several:
        seed_lists = [[int(s) for s in fold_seeds] for fold_seeds in seed]
        if not len(X_train) == len(y_train) == len(X_val) == len(y_val) == len(seed_lists):
            raise ValueError("need one training split, validation split and seed list per fold")
    else:
        X_train, y_train, X_val, y_val = [X_train], [y_train], [X_val], [y_val]
        seed_lists = [[int(seed)] if np.ndim(seed) == 0 else [int(s) for s in seed]]
    if not all(seed_lists):
        raise ValueError("need at least one seed")
    out_dim = 1
    if config.task == "regression":  # targets get their output axis: (m,) -> (m, 1)
        y_train = [y.reshape(len(y), -1) for y in y_train]
        y_val = [y.reshape(len(y), -1) for y in y_val]
        out_dim = y_train[0].shape[1]
    spec = _layer_spec(config, X_train[0].shape[1], out_dim)
    folds = list(zip(X_train, y_train, X_val, y_val))
    if config.optimizer.kind == "lbfgs":
        runs = [[_train_lbfgs(config, spec, *split, s) for s in seeds]
                for split, seeds in zip(folds, seed_lists)]
    else:
        # the runs of a stack share Adam's step count, so their folds share the batches per epoch
        stacks: dict[int, list[int]] = {}
        for f, X in enumerate(X_train):
            stacks.setdefault(-(-len(X) // config.batch_size), []).append(f)
        runs = [[] for _ in folds]
        for members in stacks.values():
            trained = iter(_train_adam(config, spec, *map(list, zip(*(folds[f] for f in members))),
                                       [seed_lists[f] for f in members]))
            for f in members:
                runs[f] = [next(trained) for _ in seed_lists[f]]
    if several:
        return runs
    return runs[0][0] if np.ndim(seed) == 0 else runs[0]


@np.errstate(over="ignore", invalid="ignore")  # non-finite outputs and losses are checked for
def _train_lbfgs(
    config: TrainConfig, spec: LayerSpec,
    X_train: np.ndarray, y_train: np.ndarray, X_val: np.ndarray, y_val: np.ndarray, seed: int,
) -> SingleRun:
    """Full-batch L-BFGS for one run, as one ``minimize_lbfgs`` call, whose rules restart and end it: each
    accepted or rejected step is an epoch, scored by ``_train_adam``'s per-head helpers as a stack of one."""
    model = init_model(spec, seed)
    ws = Workspace(spec)
    run = SingleRun.start(BEST_METRIC[config.task][1], lalr=False)

    # the line search keeps x0 and the returned gradients, so neither may alias the model's parameters or
    # the workspace's gradient.  Non-finite outputs score NaN with a zero gradient, which the line search
    # rejects (backpropagated through their activations, the zero would be NaN).
    def objective(p: np.ndarray) -> tuple[float, np.ndarray]:
        set_flat_params(model, p)
        out, trace = forward(model, X_train, workspace=ws)
        if not np.isfinite(out).all():
            return math.nan, np.zeros_like(p)
        value, pred_grad = _head_losses(config, out[None], y_train)
        backward(model, trace, pred_grad[0], workspace=ws)
        return float(value[0]), ws.grad.copy()

    def record(epoch: int, step) -> bool:
        """Record the epoch at ``step.params``; False, which ends the run as diverged, when the training loss
        or the validation loss is not finite.  A label outside {0, 1} raises, as in ``_train_adam``."""
        run.line_search_failures += not step.accepted
        if math.isfinite(step.value):
            set_flat_params(model, step.params)
            out_val = predict(model, X_val, workspace=ws)[None]
            vl = float(_head_losses(config, out_val, y_val)[0][0])
            if math.isfinite(vl):
                run.record(step.value, vl, _head_val_metrics(config, out_val, y_val)[0], step.params)
                return True
        run.diverged_at = (epoch, 0)
        return False

    # no gtol: only the epochs and the line search end a run, even at a zero gradient
    result = minimize_lbfgs(objective, flatten_params(model), config.epochs, gtol=-math.inf,
                            m_hist=config.optimizer.m_hist, max_backtracks=config.optimizer.max_line_search,
                            callback=record)
    return run.finish(result.x, run.diverged_at is not None)


def _finite_heads(score: Callable, outputs: np.ndarray, y: np.ndarray, y_shape: tuple):
    """``score(outputs, y)`` -> (values, grad) of the finite heads in one call, ``y`` broadcast to
    ``y_shape`` to pick theirs; a head with non-finite outputs gets NaN and a zero gradient.  That is the one
    reason a head's loss raises, so the finite heads' ValueError (a label outside {0, 1}) propagates."""
    finite = np.isfinite(outputs).all(axis=(1, 2))
    if finite.all():
        return score(outputs, y)
    values, grad = np.full(len(outputs), np.nan), np.zeros_like(outputs)
    if finite.any():
        values[finite], grad[finite] = score(outputs[finite], np.broadcast_to(y, y_shape)[finite])
    return values, grad


def _head_losses(config: TrainConfig, outputs: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-head mean batch loss and d loss / d outputs for (heads, m, out) outputs (NaN and 0 where
    ``_finite_heads`` says).  ``y`` is one batch of targets per head or one batch shared by every head
    (regression targets with their output axis).  Head j's value is the mean over its own row, as
    ``np.mean`` takes it alone, and the gradient is divided by m, so each head's numbers equal its solo run's.
    """
    if config.task == "classification":
        def score(outputs, y):
            values, grad = sbqc_batch_loss(y, outputs[..., 0], config.sbqc_tau)
            return values, grad[..., None]
        return _finite_heads(score, outputs, y, outputs.shape[:-1])

    def score(outputs, y):
        per_example, grad = batch_loss(config.loss, outputs, np.broadcast_to(y, outputs.shape), reduction="none")
        m = outputs.shape[1]
        return np.add.reduce(per_example, axis=1) / m, grad / m
    return _finite_heads(score, outputs, y, outputs.shape)


def _grid_losses(levels: np.ndarray, reg_weight: float,
                 outputs: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-run values and d loss / d outputs for runs of one head per level;
    ``y`` is one batch of labels per run.  A run's value sums the mean sBQC
    loss of -Q at each level (see ``classify``); its gradient adds reg_weight
    times the crossing penalty's.  A run with a non-finite output gets NaN
    and a zero gradient."""
    L = len(levels)
    values, grad = np.full(len(y), np.nan), np.zeros(outputs.shape)
    for r, q in enumerate(outputs[..., 0].reshape(len(y), L, -1)):
        if not np.isfinite(q).all():
            continue
        q = q.T
        values[r], g = sbqc_batch_loss(y[r][:, None], -q, levels)
        g = -g
        if reg_weight > 0.0:
            g = g + reg_weight * quantile_crossing_grad(q)
        grad[r * L : (r + 1) * L, :, 0] = g.T
    return values, grad


@np.errstate(over="ignore", invalid="ignore")  # non-finite outputs, losses and gradients are checked for
def _train_adam(
    config: TrainConfig, spec: LayerSpec, X_train, y_train, X_val, y_val,
    seeds: list[int] | list[list[int]], levels: Sequence[float] | None = None, reg_weight: float = 0.0,
    epoch_end: Callable[[ModelStack], None] | None = None,
) -> list[SingleRun]:
    """Adam or LALR-Adam for every seed at once, as one ``ModelStack``.

    The splits are one fold's arrays, or lists of one array per fold with
    ``seeds`` a list of one seed list per fold; the runs come back in fold
    order, in one list.  The runs share Adam's step count, so the folds must
    share the number of batches per epoch.  Each batch makes one forward,
    one loss call, one backward and one ``adam_step`` for all of them, each
    run gathering its rows from its own fold.  Only an epoch's last batch,
    whose row count differs between folds of different sizes, makes the
    forward, loss and backward once per row count, each on its runs' slice of
    the stack and of the workspace gradient, before the one ``adam_step``.
    Each run keeps its own initialisation, batch order, dropout masks, LALR
    rate (from its fold's label norm) and best epoch, and its slice of every
    operation is the arithmetic of its solo run.  Each step decides once
    which runs are over: a run whose loss or gradient is not finite is
    finished where its solo run stops, before the step; a run whose epoch
    evaluation, on its fold's own training and validation rows, is not
    finite is finished after the epoch.  The others go on.  The stack keeps
    its size and every run its position: a finished run is frozen, its first
    moment zeroed once and its gradient before every step, so that Adam
    leaves its heads exactly where they finished.  They still compute, with
    no rate, trace or epoch recorded, until the stack ends or every run has
    finished.

    With a tau grid, ``levels``, a run is one head per level, scored by
    ``_grid_losses``: its heads share its batch order, head l starts from
    ``head_seed(seed, levels[l])`` with its own dropout masks and LALR rate,
    and one head's failure ends the run.  Without a validation split (a
    grid's case) no epoch is evaluated.  ``epoch_end`` sees each epoch's end.
    """
    opt = config.optimizer
    classification = config.task == "classification"
    lalr = config.lr_policy == "lalr"
    use_dropout = any(p > 0 for p in spec.dropout)
    g0 = activation_at_zero("identity")  # output layer is linear
    if isinstance(X_train, np.ndarray):  # one fold
        X_train, y_train, X_val, y_val, seeds = [X_train], [y_train], [X_val], [y_val], [seeds]
    bs = config.batch_size
    sizes = [len(X) for X in X_train]
    batches = {-(-n // bs) for n in sizes}
    if len(batches) > 1:
        raise ValueError(f"the folds of one stack need one batch count per epoch, got {sorted(batches)}")
    last = (batches.pop() - 1) * bs  # where each epoch's last batch starts
    # the label-norm bound is the max row 2-norm across all of a fold's training batches
    y_norms = [0.0 if classification else float(np.max(np.linalg.norm(y, axis=1))) for y in y_train]
    # every fold's rows in one array, so that one gather serves runs of different folds
    X_rows, y_rows = X_train[0], y_train[0]
    if len(sizes) > 1:
        X_rows, y_rows = np.concatenate(X_train), np.concatenate(y_train)
    first_row = np.cumsum([0] + sizes[:-1]).tolist()
    fold_of = [f for f, fold_seeds in enumerate(seeds) for _ in fold_seeds]
    seeds = [s for fold_seeds in seeds for s in fold_seeds]

    if levels is None:
        taus, loss, init_seeds = [config.sbqc_tau], partial(_head_losses, config), seeds
    else:
        taus, loss = list(levels), partial(_grid_losses, np.array(levels), reg_weight)
        init_seeds = [head_seed(s, t) for s in seeds for t in levels]
    L = len(taus)  # heads per run
    runs = [SingleRun.start(BEST_METRIC[config.task][1], lalr) for _ in seeds]
    batch_rngs = [np.random.default_rng(np.random.SeedSequence([s, 0xBA7C4])) for s in seeds]
    mask_rngs = [np.random.default_rng(np.random.SeedSequence([s, 0xD809])) for s in init_seeds]

    def heads_of(positions: list[int]) -> list[int]:  # the stack heads of the runs at these positions
        return [j * L + h for j in positions for h in range(L)]

    # the run at each stack position, L heads each: a fold's runs, and folds of one size, sit together
    pos = sorted(range(len(seeds)), key=lambda i: (sizes[fold_of[i]], fold_of[i]))
    stack = stack_models([init_model(spec, init_seeds[h]) for h in heads_of(pos)])
    state = AdamState.zeros(stack.params.size, opt.beta1, opt.beta2)
    ws = Workspace(spec, stack.heads)
    params, grads, moments = (a.reshape(len(pos), -1) for a in (stack.params, ws.grad, state.exp_avg))
    done = np.zeros(len(pos), dtype=bool)  # the finished runs, whose heads stay where they finished

    def spans(keys: list[int]) -> list[tuple]:
        """The stack positions in spans of one key: (first, end, key, stack, workspace) for positions
        first..end-1, with a stack and workspace of their heads; a span of the whole stack keeps its
        workspace, whose buffers then lend the last batch a prefix."""
        edges = [0, *(j for j in range(1, len(keys)) if keys[j] != keys[j - 1]), len(keys)]
        return [(a, b, keys[a], *((stack, ws) if b - a == len(keys) else
                                  (stack.head_range(a * L, b * L), ws.head_range(a * L, b * L))))
                for a, b in zip(edges, edges[1:])]

    # the runs in spans of one last-batch row count, and in spans of one fold
    tails = spans([sizes[fold_of[i]] - last for i in pos])
    folds = spans([fold_of[i] for i in pos])

    def finish(failed: np.ndarray, epoch: int, outs: list[np.ndarray]) -> bool:
        """Finish the flagged runs as diverged at ``epoch`` and at their first head whose output (``outs``,
        in stack order) or gradient is not finite, and freeze them: with a zero gradient and first moment,
        Adam's update of their heads is 0 at every later step.  Returns whether every run has finished."""
        finite = (np.concatenate([np.isfinite(out).all(axis=(1, 2)) for out in outs])
                  & np.isfinite(ws.grad.reshape(stack.heads, -1)).all(axis=1))
        culprit = np.argmin(finite.reshape(len(pos), L), axis=1)
        for j in np.flatnonzero(failed):
            runs[pos[j]].diverged_at = (epoch, int(culprit[j]))
            runs[pos[j]].finish(params[j].copy(), True)
        done[failed] = True
        grads[failed] = moments[failed] = 0.0
        return done.all()

    def batch(model: ModelStack, work: Workspace, idx: np.ndarray, first: int):
        """Forward, loss and backward of the runs at stack positions first.. on
        their rows ``idx``; returns the outputs, which runs are ok (their loss
        is finite, or they have finished) and, with LALR, each head's rate."""
        here = pos[first : first + len(idx)]
        finished = done[first : first + len(idx)]
        xb, yb = X_rows[idx], y_rows[idx]
        if L > 1:  # a run's heads share its batch
            xb = xb[0] if len(here) == 1 else xb.repeat(L, axis=0)
        mask_seeds = [int(mask_rngs[h].integers(0, 2**63)) for h in heads_of(here)] if use_dropout else 0
        out, trace = forward(model, xb, train_mode=use_dropout, seed=mask_seeds, workspace=work)
        values, pred_grad = loss(out, yb)
        backward(model, trace, pred_grad, workspace=work)
        ok = np.isfinite(values)
        if not lalr:
            return out, ok | finished, None
        # a run whose loss failed stops before its rate; one whose gradient fails, after
        live, k_z = np.flatnonzero(np.repeat(ok & ~finished, L)).tolist(), trace.head_k_z.tolist()
        ctx = LipschitzContext(m=idx.shape[1], y_norm=[y_norms[fold_of[here[j // L]]] for j in live],
                               k_z=[k_z[j] for j in live], g_at_zero=g0, tau=[taus[j % L] for j in live])
        rates = [1.0] * model.heads
        for j, K in zip(live, _layer_constant(config, ctx)):
            i = here[j // L]
            rates[j] = lalr_lr(K, opt.lr_min, opt.lr_max)
            runs[i].k_trace.append(K)
            runs[i].lr_trace.append(rates[j])
        return out, ok | finished, rates

    for epoch in range(config.epochs):
        lr = _epoch_lr(config, epoch)
        order = np.zeros((len(pos), max(sizes)), dtype=np.intp)  # a smaller fold's run leaves its row's end unused
        for row, i in zip(order, pos):
            n = sizes[fold_of[i]]
            row[:n] = batch_rngs[i].permutation(n) + first_row[fold_of[i]]
        for start in range(0, last + 1, bs):
            groups = tails if start == last else [(0, len(pos), bs, stack, ws)]
            outs, oks, part_rates = zip(*(batch(model, work, order[a:b, start : start + m], a)
                                          for a, b, m, model, work in groups))
            ok = np.concatenate(oks)
            if lalr:
                lr = [r for part in part_rates for r in part]
            grads[done] = 0.0
            failed = ~(ok & np.isfinite(grads).all(axis=1))
            if failed.any() and finish(failed, epoch, outs):
                return runs
            adam_step(state, stack.params, ws.grad, lr)

        if epoch_end is not None:
            epoch_end(stack)
        if X_val[0] is None:
            continue
        oks, outs = [], []
        for a, b, f, model, work in folds:
            tl = _head_losses(config, predict(model, X_train[f], workspace=work), y_train[f])[0]
            out_val = predict(model, X_val[f], workspace=work)
            vl = _head_losses(config, out_val, y_val[f])[0]
            ok = np.isfinite(tl) & np.isfinite(vl)
            scored = np.flatnonzero(ok & ~done[a:b])
            for j, vm in zip(scored, _head_val_metrics(config, out_val[scored], y_val[f])):
                runs[pos[a + j]].record(float(tl[j]), float(vl[j]), vm, params[a + j])
            oks.append(ok | done[a:b])
            outs.append(out_val)
        ok = np.concatenate(oks)
        if not ok.all() and finish(~ok, epoch, outs):
            return runs

    for j in np.flatnonzero(~done):
        runs[pos[j]].finish(params[j].copy(), diverged=False)
    return runs


@dataclass(kw_only=True)
class RunRecord(SingleRun):
    """A ``train()`` run with its place in the protocol and its scores at the best epoch."""

    fold: int
    repeat: int
    test_metrics: dict[str, float]
    val_metrics: dict[str, float]
    #: the standardizer fitted on the fold's training split
    standardizer: StandardizeStats | None = field(repr=False, compare=False)

    #: the fields ``report.json`` holds of each run
    REPORTED = ("fold", "repeat", "diverged", "best_epoch", "train_loss", "val_loss", "val_metric",
                "lr_trace", "k_trace", "test_metrics", "val_metrics")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.REPORTED}


@dataclass
class RunReport:
    config: dict
    records: list[RunRecord]
    aggregates: dict[str, dict[str, float | None]]
    best_model: Any = field(default=None, repr=False, compare=False)
    best_standardizer: Any = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "aggregates": self.aggregates,
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, sort_keys=True, indent=1)

    def summary_csv(self, path) -> None:
        names = sorted({k for r in self.records for k in r.test_metrics})
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["fold", "repeat", "diverged", *names])
            for r in self.records:
                w.writerow([r.fold, r.repeat, int(r.diverged)]
                           + [r.test_metrics.get(k, "") for k in names])
            w.writerow([])
            w.writerow(["aggregate", "", "", *names])
            w.writerow(["mean", "", ""]
                       + [self.aggregates.get(k, {}).get("mean", "") for k in names])
            w.writerow(["std", "", ""]
                       + [self.aggregates.get(k, {}).get("std", "") for k in names])

    def metric_records(self, dataset: str, loss: str, optimizer: str) -> list[dict]:
        out = []
        for r in self.records:
            for name, value in r.test_metrics.items():
                out.append({
                    "dataset": dataset, "loss": loss, "optimizer": optimizer,
                    "fold": r.fold, "repeat": r.repeat, "metric": name, "value": value,
                })
        return out


def _metrics_for(config: TrainConfig, model_params, spec, X, y) -> dict[str, float]:
    return _score(config.task, config.sbqc_tau, predict(ModelStack(spec, (0,), model_params), X)[0], y)


def _job_inputs(config: TrainConfig, fold_plan: FoldPlan, dataset: Dataset) -> tuple:
    """(config, fold_plan, dataset, validation slice, network shape): what ``_run_bin`` needs of a
    ``train()`` call."""
    spec = _layer_spec(config, dataset.X.shape[1], 1 if dataset.y.ndim == 1 else dataset.y.shape[1])
    return config, fold_plan, dataset, subset(dataset, fold_plan.val_idx), spec


def _run_bin(pieces: list[tuple[int, tuple[int, ...]]], inputs: tuple) -> list[RunRecord]:
    """Train and score one bin of (fold, repeats) pieces, in order, from ``_job_inputs``.

    The sequential path and every pool worker make this same call.  Each
    piece's fold is standardized once, and the bin's runs are trained by one
    ``train_single`` call, which for Adam is one stack for each number of
    batches per epoch among its folds (one stack on every preset).
    """
    config, fold_plan, dataset, val_ds, spec = inputs
    trains, tests, vals, standardizers = [], [], [], []
    for fold, _ in pieces:
        train_idx, test_idx = fold_plan.folds[fold]
        tr_std, stats = standardize_fit(subset(dataset, train_idx))
        trains.append(tr_std)
        tests.append(standardize_apply(stats, subset(dataset, test_idx)))
        vals.append(standardize_apply(stats, val_ds))
        standardizers.append(stats)
    seeds = [[derive_seed(config.seed, fold, repeat) for repeat in repeats] for fold, repeats in pieces]
    runs = train_single(config, [tr.X for tr in trains], [tr.y for tr in trains],
                        [val.X for val in vals], [val.y for val in vals], seeds)
    records = []
    for (fold, repeats), te_std, val_std, stats, fold_runs in zip(pieces, tests, vals, standardizers, runs):
        for repeat, run in zip(repeats, fold_runs):
            if run.diverged:
                test_m: dict[str, float] = {}
                val_m: dict[str, float] = {}
            else:
                test_m = _metrics_for(config, run.best_params, spec, te_std.X, te_std.y)
                val_m = _metrics_for(config, run.best_params, spec, val_std.X, val_std.y)
            # a record crosses the process boundary, and the report needs only the best parameters
            records.append(RunRecord(**{**vars(run), "final_params": None}, fold=fold, repeat=repeat,
                                     test_metrics=test_m, val_metrics=val_m, standardizer=stats))
    return records


def _jobs(config: TrainConfig, n_folds: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Bins of (fold, repeats) pieces, one bin per worker task, in (fold, repeat) order.

    L-BFGS gets one single-run bin per run: its runs differ in length, and
    single-run tasks let the pool balance them (Adam's balanced bins measured
    slower on the wine L-BFGS preset).  Adam cuts the (fold, repeat) grid, in
    order, into min(workers, runs) contiguous bins whose run counts differ by
    at most one, and splits each bin at fold edges into pieces, one per fold:
    on 2 CPUs, 5 folds x 5 repeats go out as 5 + 5 + 3 and 2 + 5 + 5 runs,
    and ``_run_bin`` trains each bin as one stack.
    """
    runs = n_folds * config.repeats
    if config.optimizer.kind == "lbfgs":
        n_bins = runs
    else:
        n_bins = _pool_size(runs)
    bins = []
    for part in np.array_split(np.arange(runs), n_bins):
        folds, repeats = np.divmod(part, config.repeats)
        bins.append([(int(f), tuple(repeats[folds == f].tolist())) for f in np.unique(folds)])
    return bins


#: the process's worker pool as ((workers, start method), pool); None until a parallel call
_pool: tuple | None = None
os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))  # never the parent's pool


@atexit.register
def _close_pool() -> None:
    """Empty the pool slot and shut its pool down, queued tasks cancelled."""
    global _pool
    slot, _pool = _pool, None
    if slot is not None:
        slot[1].shutdown(cancel_futures=True)


def _exit_with_owner() -> None:
    """Pool-worker initializer: exit once the process that owns the pool ends, even by a signal that
    runs no exit handler; an idle worker would otherwise keep itself and the forkserver alive."""
    import multiprocessing.connection
    import threading
    owner = multiprocessing.parent_process().sentinel
    threading.Thread(target=lambda: (multiprocessing.connection.wait([owner]), os._exit(1)), daemon=True).start()


def _run_jobs_in_processes(
    run: Callable[[list[tuple[int, tuple[int, ...]]]], list[RunRecord]],
    bins: list[list[tuple[int, tuple[int, ...]]]], n_workers: int,
) -> list[RunRecord]:
    """Map ``run``, a ``_run_bin`` partial, over ``n_workers`` processes, each with one BLAS thread.

    One pool serves the process's calls, which must come from one thread at a
    time.  It is rebuilt when the worker count or start method changes, after a
    call raises, and once within a call whose reused pool lost a worker since
    the last call; a forked child starts without it.  Each worker exits when
    the process that owns the pool ends.  Workers fork from a forkserver that
    has already imported this module (spawn where forkserver is unavailable);
    each task ships ``run``, the call's inputs with it, and one bin, so no
    worker keeps state.  The first task starts the forkserver, which keeps the
    pinned BLAS setting.
    Python 3.11's forkserver ignores the caller's ``sys.path``, so where the
    package does not sit in a site-packages directory (where any interpreter
    finds it), its parent directory is put on ``PYTHONPATH`` too, for the
    server's import to find the package where only ``sys.path`` named it.
    A site-packages directory is never added: ``PYTHONPATH`` comes before
    the standard library, which its modules would then shadow.
    """
    global _pool
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    if "forkserver" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload([__name__])
    else:
        ctx = multiprocessing.get_context("spawn")
    pinned = {"OPENBLAS_NUM_THREADS": "1"}
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    site_dirs = {os.path.realpath(d) for d in (*site.getsitepackages(), site.getusersitepackages())}
    path = os.environ.get("PYTHONPATH", "")
    if os.path.realpath(package_root) not in site_dirs and package_root not in path.split(os.pathsep):
        pinned["PYTHONPATH"] = os.pathsep.join(filter(None, (path, package_root)))
    caller = {name: os.environ.get(name) for name in pinned}
    os.environ.update(pinned)
    try:
        key = (n_workers, ctx.get_start_method())
        for fresh in (_pool is None or _pool[0] != key, True):  # a broken reused pool gets one retry
            if fresh:
                _close_pool()
                _pool = (key, ProcessPoolExecutor(n_workers, mp_context=ctx, initializer=_exit_with_owner))
            try:
                return [rec for recs in _pool[1].map(run, bins) for rec in recs]
            except BaseException as e:
                _close_pool()
                if fresh or not isinstance(e, BrokenProcessPool):
                    raise
    finally:
        for name, value in caller.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def train(config: TrainConfig, fold_plan: FoldPlan, dataset: Dataset) -> RunReport:
    """Run the full folds x repeats protocol and aggregate the metrics.

    Each (fold, repeat) run trains on its fold's standardized training
    split, scores the fold's test split and the shared validation slice with
    the best-validation parameters, and is seeded independently.  The work
    goes out as one bin of runs per worker (see ``_jobs``), cut at fold
    edges into pieces of one fold's contiguous repeats: a piece standardizes
    its fold once, and a bin trains as one stack across its folds (see
    ``_run_bin``).  Every run equals the run its seed trains alone, so
    results are identical whatever the binning, the job order or the number
    of worker processes (``QUANTLOSS_THREADS``).
    """
    if config.task != dataset.task:
        raise ValueError(f"config task {config.task!r} does not match dataset task {dataset.task!r}")
    if fold_plan.val_idx.size == 0:
        # with no validation rows no epoch is scored, and every run would end diverged at epoch 0
        raise ValueError("the fold plan has no validation rows: train.val_fraction must leave at least one")
    bins = _jobs(config, len(fold_plan.folds))
    n_workers = _pool_size(len(bins))
    inputs = _job_inputs(config, fold_plan, dataset)
    run = partial(_run_bin, inputs=inputs)
    if n_workers > 1:
        records = _run_jobs_in_processes(run, bins, n_workers)
    else:
        records = [rec for pieces in bins for rec in run(pieces)]

    def aggregate(vals: list[float]) -> dict[str, float | None]:
        return {
            "mean": float(np.mean(vals)) if vals else None,
            "std": float(np.std(vals, ddof=1)) if len(vals) >= 2 else None,
            "n": len(vals),
        }

    done = [r for r in records if not r.diverged]
    aggregates: dict[str, dict[str, float | None]] = {}
    for name in sorted({k for r in records for k in r.test_metrics}):
        aggregates[name] = aggregate([r.test_metrics[name] for r in done if name in r.test_metrics])
        aggregates["val_" + name] = aggregate([r.val_metrics[name] for r in done if name in r.val_metrics])

    # the exported model is the best-validation run's best-epoch parameters,
    # with the standardizer fitted on its fold's training split
    best_model = best_stats = None
    key, higher = BEST_METRIC[config.task]
    best_rec = max(
        (rec for rec in records if not rec.diverged and key in rec.val_metrics),
        key=lambda rec: rec.val_metrics[key] if higher else -rec.val_metrics[key],
        default=None,
    )
    if best_rec is not None:
        seed = derive_seed(config.seed, best_rec.fold, best_rec.repeat)
        (best_model,) = ModelStack(inputs[-1], (seed,), best_rec.best_params).unstack()
        best_stats = best_rec.standardizer

    return RunReport(
        config=config.to_dict(),
        records=records,
        aggregates=aggregates,
        best_model=best_model,
        best_standardizer=best_stats,
    )


def _check_threshold_metric(metric: str, task: str) -> None:
    """Raise a ValueError unless a ``task`` run traces ``metric``: its ``BEST_METRIC``
    (accuracy or rmse) or the validation loss ("loss" or "val_loss")."""
    traced = {metric: t for t, (metric, _) in BEST_METRIC.items()} | {"loss": task, "val_loss": task}
    if metric not in traced:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(traced)}")
    if traced[metric] != task:
        raise ValueError(f"metric {metric!r} is not traced by a {task} run")


def epochs_to_threshold(report: RunReport, metric: str, threshold: float):
    """First epoch at which the mean validation-metric trace reaches the threshold.

    Higher-is-better metrics (accuracy) must meet or exceed it; lower-is-better
    ones (rmse, loss) must meet or fall below it.  Returns None when the trace
    never reaches the threshold.  A metric the report's task does not trace
    (accuracy of a regression, rmse of a classification) raises ValueError.
    """
    _check_threshold_metric(metric, report.config["task"])
    traces = [
        r.val_loss if metric in ("loss", "val_loss") else r.val_metric
        for r in report.records
        if not r.diverged
    ]
    traces = [t for t in traces if t]
    if not traces:
        return None
    n_epochs = min(len(t) for t in traces)
    mean_trace = np.mean([t[:n_epochs] for t in traces], axis=0)
    higher = BEST_METRIC[report.config["task"]] == (metric, True)
    for epoch, v in enumerate(mean_trace):
        if (higher and v >= threshold) or (not higher and v <= threshold):
            return epoch
    return None
