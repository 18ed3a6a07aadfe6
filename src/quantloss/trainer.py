"""Training orchestration: epochs, batching, optimizer dispatch, per-batch
adaptive learning rates, k-fold/repeat protocols, and run reports."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .classify import predict_prob, sbqc_batch_loss
from .data import Dataset, FoldPlan, standardize_apply, standardize_fit, subset
from .losses import LossSpec, batch_loss
from .metrics import ConfusionMatrix, classification_metrics, rmse
from .network import (
    LayerSpec,
    Workspace,
    activation_at_zero,
    backward,
    flatten_params,
    forward,
    init_model,
    set_flat_params,
)
from .optim import (
    AdamState,
    LBFGSMemory,
    LipschitzContext,
    adam_step,
    lalr_lr,
    lbfgs_step,
    regression_lipschitz_constant,
    sbqc_layer_lipschitz_constant,
)

LR_POLICIES = ("constant", "exponential", "lalr")
OPTIMIZER_KINDS = ("adam", "lalr-adam", "lbfgs")

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


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adam"
    lr: float = 0.01
    lr_min: float = 1e-4
    lr_max: float = 10.0
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
    lr_policy: str = "constant"
    epochs: int = 50
    batch_size: int = 64
    repeats: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
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
        if self.optimizer.kind == "lbfgs" and self.lr_policy == "lalr":
            raise ValueError("lbfgs owns its step size; lalr policy does not apply")
        if self.optimizer.kind == "lalr-adam" and self.lr_policy != "lalr":
            object.__setattr__(self, "lr_policy", "lalr")

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """Build a config from the JSON document layout used by the CLI."""
        task = doc["task"]
        model = doc.get("model", {})
        train = doc.get("train", {})
        opt = OptimizerSpec.from_dict(doc.get("optimizer", {}))
        loss = None
        if "loss" in doc:
            loss = LossSpec.from_dict(doc["loss"])
        sbqc = doc.get("sbqc", {})
        defaults_epochs = 50 if task == "classification" else 500
        defaults_batch = 64 if task == "classification" else 256
        policy = train.get("lr_policy", "lalr" if opt.kind == "lalr-adam" else "constant")
        return cls(
            task=task,
            hidden_sizes=tuple(model.get("hidden_sizes", [100])),
            activation=model.get("activation", "relu"),
            dropout=model.get("dropout", 0.0),
            loss=loss,
            sbqc_tau=float(sbqc.get("tau", 0.5)),
            optimizer=opt,
            lr_policy=policy,
            epochs=int(train.get("epochs", defaults_epochs)),
            batch_size=int(train.get("batch_size", defaults_batch)),
            repeats=int(train.get("repeats", 20)),
            seed=int(train.get("seed", 0)),
        )

    def to_dict(self) -> dict:
        d: dict[str, Any] = {
            "task": self.task,
            "model": {
                "hidden_sizes": list(self.hidden_sizes),
                "activation": self.activation,
                "dropout": self.dropout if isinstance(self.dropout, (int, float))
                else list(self.dropout),
            },
            "optimizer": {
                "kind": self.optimizer.kind,
                "lr": self.optimizer.lr,
                "lr_min": self.optimizer.lr_min,
                "lr_max": self.optimizer.lr_max,
                "beta1": self.optimizer.beta1,
                "beta2": self.optimizer.beta2,
                "m_hist": self.optimizer.m_hist,
                "max_line_search": self.optimizer.max_line_search,
            },
            "train": {
                "epochs": self.epochs,
                "batch_size": self.batch_size,
                "repeats": self.repeats,
                "seed": self.seed,
                "lr_policy": self.lr_policy,
            },
        }
        if self.loss is not None:
            d["loss"] = {"kind": self.loss.kind.value, "h": self.loss.h,
                         "tau": self.loss.tau, "delta": self.loss.delta}
        if self.task == "classification":
            d["sbqc"] = {"tau": self.sbqc_tau}
        return d


@dataclass
class SingleRun:
    """Trace of one model trained on one (train, validation) split."""

    train_loss: list[float]
    val_loss: list[float]
    val_metric: list[float]      # accuracy (classification) or rmse (regression)
    lr_trace: list[float] | None
    k_trace: list[float] | None
    best_epoch: int
    best_params: np.ndarray
    final_params: np.ndarray
    diverged: bool
    line_search_failures: int = 0


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


def _loss_and_pred_grad(config: TrainConfig, outputs: np.ndarray, y: np.ndarray):
    if config.task == "classification":
        value, grad = sbqc_batch_loss(y, outputs[:, 0], config.sbqc_tau)
        return value, grad.reshape(-1, 1)
    target = y if y.ndim == 2 else y.reshape(-1, 1)
    return batch_loss(config.loss, outputs, target)


def _val_metric(config: TrainConfig, outputs: np.ndarray, y: np.ndarray) -> float:
    if config.task == "classification":
        prob = predict_prob(outputs[:, 0], config.sbqc_tau)
        pred = (prob >= 0.5).astype(float)
        cm = ConfusionMatrix.from_labels(y, pred)
        return classification_metrics(cm).accuracy
    target = y if y.ndim == 2 else y.reshape(-1, 1)
    return rmse(outputs.ravel(), target.ravel())


def _epoch_lr(config: TrainConfig, epoch: int) -> float:
    if config.lr_policy == "exponential":
        return config.optimizer.lr * math.exp(-EXP_DECAY_RATE * epoch)
    return config.optimizer.lr


def _loss_slope_bound(loss: LossSpec, y_norm: float) -> float:
    """Loss-gradient magnitude at the critical residual |r| = y_norm.

    Generalizes the log-cosh final-layer constant to the other regression
    losses: it is the |d loss / d r| each loss attains where the layer
    constant's derivation evaluates it (outputs at g(0), so r = -y).
    """
    from .losses import LossKind

    k = loss.kind
    if k is LossKind.LOG_COSH:
        return math.tanh(y_norm / loss.h) / loss.h
    if k is LossKind.TILTED_LOG_COSH:
        return max(loss.tau, 1.0 - loss.tau) * math.tanh(y_norm)
    if k is LossKind.CHECK:
        return max(loss.tau, 1.0 - loss.tau)
    if k is LossKind.MAE:
        return 1.0
    if k is LossKind.HUBER:
        return min(y_norm, loss.delta)
    if k is LossKind.MSE:
        return 2.0 * y_norm
    raise ValueError(f"no slope bound for loss kind {k!r}")


def _regression_layer_constant(config: TrainConfig, ctx: LipschitzContext) -> float:
    """Per-batch layer constant for the configured regression loss.

    Plain log-cosh uses the tanh-based formula verbatim; the other kinds use
    the same (1/m) slope k_z structure with their own slope bound.
    """
    loss = config.loss
    if loss.kind.value == "logcosh" and loss.h == 1.0:
        return regression_lipschitz_constant(ctx)
    k = (1.0 / ctx.m) * _loss_slope_bound(loss, abs(ctx.g_at_zero - ctx.y_norm)) * ctx.k_z
    return max(k, 1e-12)


def train_single(
    config: TrainConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    seed: int,
) -> SingleRun:
    """Train one network; returns loss/metric traces and best-validation params."""
    out_dim = 1 if y_train.ndim == 1 else y_train.shape[1]
    if config.task == "classification":
        out_dim = 1
    spec = _layer_spec(config, X_train.shape[1], out_dim)
    model = init_model(spec, seed)
    ws = Workspace(spec)
    params = flatten_params(model)

    n = X_train.shape[0]
    higher_better = config.task == "classification"
    best_metric = -math.inf if higher_better else math.inf
    best_epoch = -1
    best_params = params.copy()
    train_loss: list[float] = []
    val_loss: list[float] = []
    val_metric: list[float] = []
    lalr = config.lr_policy == "lalr"
    lr_trace: list[float] | None = [] if lalr else None
    k_trace: list[float] | None = [] if lalr else None
    diverged = False
    ls_failures = 0

    # the label-norm bound is the max row 2-norm across all training batches
    y2 = y_train if y_train.ndim == 2 else y_train.reshape(-1, 1)
    y_norm = float(np.max(np.linalg.norm(y2, axis=1))) if config.task == "regression" else 0.0
    g0 = activation_at_zero("identity")  # output layer is linear

    def evaluate_epoch(p: np.ndarray, tl: float | None = None) -> bool:
        """Record the epoch traces; False when the model state is non-finite.

        ``tl`` is the full training loss at ``p`` when the caller already has it.
        """
        nonlocal best_metric, best_epoch, best_params
        try:
            if p is not model.params:
                set_flat_params(model, p)
            if tl is None:
                out, _ = forward(model, X_train, workspace=ws)
                tl = float(_loss_and_pred_grad(config, out, y_train)[0])
            out_val, _ = forward(model, X_val, workspace=ws)
            vl, _ = _loss_and_pred_grad(config, out_val, y_val)
            vm = _val_metric(config, out_val, y_val)
        except ValueError:
            return False
        if not (math.isfinite(tl) and math.isfinite(float(vl))):
            return False
        train_loss.append(tl)
        val_loss.append(float(vl))
        val_metric.append(vm)
        better = vm > best_metric if higher_better else vm < best_metric
        if better:
            best_metric = vm
            best_epoch = len(val_metric) - 1
            best_params = p.copy()
        return True

    if config.optimizer.kind == "lbfgs":
        mem = LBFGSMemory(m_hist=config.optimizer.m_hist)

        # params stays the line search's own vector: lbfgs_step keeps x0 and
        # the returned gradients across objective calls, so neither may alias
        # the model's parameters or the workspace's gradient
        def objective(p: np.ndarray) -> tuple[float, np.ndarray]:
            set_flat_params(model, p)
            out, trace = forward(model, X_train, workspace=ws)
            value, pred_grad = _loss_and_pred_grad(config, out, y_train)
            backward(model, trace, pred_grad, workspace=ws)
            return float(value), ws.grad.copy()

        cached = objective(params)
        consecutive_failures = 0
        for _ in range(config.epochs):
            step = lbfgs_step(
                objective, params, mem,
                max_backtracks=config.optimizer.max_line_search,
                value_grad=cached,
            )
            # step.value is the full training loss at the returned params;
            # a rejected step returns the unchanged params and their value
            if not step.accepted:
                ls_failures += 1
                consecutive_failures += 1
                if not evaluate_epoch(params, step.value):
                    diverged = True
                    break
                if consecutive_failures >= 2:
                    # steepest descent could not improve either; converged
                    break
                cached = (step.value, step.grad)
                continue
            consecutive_failures = 0
            params = step.params
            cached = (step.value, step.grad)
            if not evaluate_epoch(params, step.value):
                diverged = True
                break
    else:
        params = model.params  # adam_step updates the model in place
        state = AdamState.zeros(params.size, config.optimizer.beta1, config.optimizer.beta2)
        batch_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C4]))
        mask_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD809]))
        use_dropout = any(p > 0 for p in spec.dropout)
        for epoch in range(config.epochs):
            order = batch_rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                xb, yb = X_train[idx], y_train[idx]
                out, trace = forward(
                    model, xb, train_mode=use_dropout,
                    seed=int(mask_rng.integers(0, 2**63)) if use_dropout else 0,
                    workspace=ws,
                )
                try:
                    value, pred_grad = _loss_and_pred_grad(config, out, yb)
                except ValueError:
                    diverged = True
                    break
                if not math.isfinite(value):
                    diverged = True
                    break
                backward(model, trace, pred_grad, workspace=ws)
                if lalr:
                    ctx = LipschitzContext(
                        m=len(idx), y_norm=y_norm, k_z=trace.k_z, g_at_zero=g0,
                        tau=config.sbqc_tau if config.task == "classification" else None,
                    )
                    K = (
                        sbqc_layer_lipschitz_constant(ctx)
                        if config.task == "classification"
                        else _regression_layer_constant(config, ctx)
                    )
                    lr = lalr_lr(K, config.optimizer.lr_min, config.optimizer.lr_max)
                    k_trace.append(K)
                    lr_trace.append(lr)
                else:
                    lr = _epoch_lr(config, epoch)
                try:
                    adam_step(state, params, ws.grad, lr)
                except ValueError:
                    diverged = True
                    break
            if diverged:
                break
            if not evaluate_epoch(params):
                diverged = True
                break

    if best_epoch < 0:
        best_params = params.copy()
        best_epoch = 0
    return SingleRun(
        train_loss=train_loss,
        val_loss=val_loss,
        val_metric=val_metric,
        lr_trace=lr_trace,
        k_trace=k_trace,
        best_epoch=best_epoch,
        best_params=best_params,
        final_params=params,
        diverged=diverged,
        line_search_failures=ls_failures,
    )


@dataclass
class RunRecord:
    fold: int
    repeat: int
    diverged: bool
    best_epoch: int
    train_loss: list[float]
    val_loss: list[float]
    val_metric: list[float]
    lr_trace: list[float] | None
    k_trace: list[float] | None
    test_metrics: dict[str, float]
    val_metrics: dict[str, float]
    best_params: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "fold": self.fold,
            "repeat": self.repeat,
            "diverged": self.diverged,
            "best_epoch": self.best_epoch,
            "train_loss": self.train_loss,
            "val_loss": self.val_loss,
            "val_metric": self.val_metric,
            "lr_trace": self.lr_trace,
            "k_trace": self.k_trace,
            "test_metrics": self.test_metrics,
            "val_metrics": self.val_metrics,
        }


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
    model = init_model(spec, 0)
    set_flat_params(model, model_params)
    out, _ = forward(model, X)
    if config.task == "classification":
        prob = predict_prob(out[:, 0], config.sbqc_tau)
        pred = (prob >= 0.5).astype(float)
        cm = ConfusionMatrix.from_labels(y, pred)
        return classification_metrics(cm).as_dict()
    target = y if y.ndim == 2 else y.reshape(-1, 1)
    return {"rmse": rmse(out.ravel(), target.ravel())}


#: (config, fold_plan, dataset, validation slice) of the train() call this
#: pool worker serves; set once per worker process by ``_init_worker``
_WORKER_INPUTS: tuple | None = None


def _job_inputs(config: TrainConfig, fold_plan: FoldPlan, dataset: Dataset) -> tuple:
    return config, fold_plan, dataset, subset(dataset, fold_plan.val_idx)


def _init_worker(config: TrainConfig, fold_plan: FoldPlan, dataset: Dataset) -> None:
    global _WORKER_INPUTS
    _WORKER_INPUTS = _job_inputs(config, fold_plan, dataset)


def _run_job(job: tuple[int, int], inputs: tuple | None = None) -> RunRecord:
    """Train and score one (fold, repeat) run; a pool worker uses its own inputs."""
    config, fold_plan, dataset, val_ds = inputs or _WORKER_INPUTS
    fold, repeat = job
    train_idx, test_idx = fold_plan.folds[fold]
    tr = subset(dataset, train_idx)
    te = subset(dataset, test_idx)
    tr_std, stats = standardize_fit(tr)
    te_std = standardize_apply(stats, te)
    val_std = standardize_apply(stats, val_ds)
    seed = derive_seed(config.seed, fold, repeat)
    run = train_single(config, tr_std.X, tr_std.y, val_std.X, val_std.y, seed)
    out_dim = 1 if dataset.y.ndim == 1 else dataset.y.shape[1]
    spec = _layer_spec(config, tr_std.X.shape[1], out_dim)
    if run.diverged:
        test_m: dict[str, float] = {}
        val_m: dict[str, float] = {}
    else:
        test_m = _metrics_for(config, run.best_params, spec, te_std.X, te_std.y)
        val_m = _metrics_for(config, run.best_params, spec, val_std.X, val_std.y)
    return RunRecord(
        fold=fold, repeat=repeat, diverged=run.diverged, best_epoch=run.best_epoch,
        train_loss=run.train_loss, val_loss=run.val_loss, val_metric=run.val_metric,
        lr_trace=run.lr_trace, k_trace=run.k_trace,
        test_metrics=test_m, val_metrics=val_m, best_params=run.best_params,
    )


def _run_jobs_in_processes(
    jobs: list[tuple[int, int]], n_workers: int,
    config: TrainConfig, fold_plan: FoldPlan, dataset: Dataset,
) -> list[RunRecord]:
    """Map ``_run_job`` over ``n_workers`` processes, each with one BLAS thread.

    Workers fork from a forkserver that has already imported this module
    (spawn where forkserver is unavailable) and receive the inputs once,
    through the pool initializer.  The first call in a process starts the
    forkserver; it reads the pinned BLAS setting and keeps it for later pools.
    """
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    if "forkserver" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("forkserver")
        ctx.set_forkserver_preload([__name__])
    else:
        ctx = multiprocessing.get_context("spawn")
    caller_blas = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with ProcessPoolExecutor(
            n_workers, mp_context=ctx,
            initializer=_init_worker, initargs=(config, fold_plan, dataset),
        ) as pool:
            return list(pool.map(_run_job, jobs))
    finally:
        if caller_blas is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = caller_blas


def train(config: TrainConfig, fold_plan: FoldPlan, dataset: Dataset) -> RunReport:
    """Run the full folds x repeats protocol and aggregate the metrics.

    Each (fold, repeat) run standardizes on its own training split, scores
    the fold's test split and the shared validation slice with the
    best-validation parameters, and is seeded independently so repeats and
    folds can run in any order (or in worker processes, see
    ``QUANTLOSS_THREADS``) with identical results.
    """
    if config.task != dataset.task:
        raise ValueError(f"config task {config.task!r} does not match dataset task {dataset.task!r}")
    jobs = [(f, r) for f in range(len(fold_plan.folds)) for r in range(config.repeats)]
    n_workers = _pool_size(len(jobs))
    if n_workers > 1:
        records = _run_jobs_in_processes(jobs, n_workers, config, fold_plan, dataset)
    else:
        inputs = _job_inputs(config, fold_plan, dataset)
        records = [_run_job(job, inputs) for job in jobs]

    names = sorted({k for r in records for k in r.test_metrics})
    aggregates: dict[str, dict[str, float | None]] = {}
    for name in names:
        vals = [r.test_metrics[name] for r in records if not r.diverged and name in r.test_metrics]
        aggregates[name] = {
            "mean": float(np.mean(vals)) if vals else None,
            "std": float(np.std(vals, ddof=1)) if len(vals) >= 2 else None,
            "n": len(vals),
        }
        vvals = [r.val_metrics[name] for r in records if not r.diverged and name in r.val_metrics]
        aggregates["val_" + name] = {
            "mean": float(np.mean(vvals)) if vvals else None,
            "std": float(np.std(vvals, ddof=1)) if len(vvals) >= 2 else None,
            "n": len(vvals),
        }

    # the exported model is the best-validation run's best-epoch parameters
    best_model = None
    key = "accuracy" if config.task == "classification" else "rmse"
    higher = config.task == "classification"
    best_rec = max(
        (rec for rec in records if not rec.diverged and key in rec.val_metrics),
        key=lambda rec: rec.val_metrics[key] if higher else -rec.val_metrics[key],
        default=None,
    )
    best_stats = None
    if best_rec is not None and best_rec.best_params is not None:
        out_dim = 1 if dataset.y.ndim == 1 else dataset.y.shape[1]
        spec = _layer_spec(config, dataset.X.shape[1], out_dim)
        model = init_model(spec, derive_seed(config.seed, best_rec.fold, best_rec.repeat))
        set_flat_params(model, best_rec.best_params)
        best_model = model
        train_idx, _ = fold_plan.folds[best_rec.fold]
        _, best_stats = standardize_fit(subset(dataset, train_idx))

    return RunReport(
        config=config.to_dict(),
        records=records,
        aggregates=aggregates,
        best_model=best_model,
        best_standardizer=best_stats,
    )


def epochs_to_threshold(report: RunReport, metric: str, threshold: float):
    """First epoch at which the mean validation-metric trace reaches the threshold.

    Higher-is-better metrics (accuracy) must meet or exceed it; lower-is-better
    ones (rmse, loss) must meet or fall below it.  Returns None when the trace
    never reaches the threshold.
    """
    known = {"accuracy": True, "rmse": False, "loss": False, "val_loss": False}
    if metric not in known:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(known)}")
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
    higher = known[metric]
    for epoch, v in enumerate(mean_trace):
        if (higher and v >= threshold) or (not higher and v <= threshold):
            return epoch
    return None
