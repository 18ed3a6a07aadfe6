"""Per-layer metrics: which spans make up each layer, and the counts taken
where the work happens.

A layer metric sums the self time of its member spans and counts the calls of
its entry spans.  A member that no longer exists in the package (for example
after a refactor deletes ``set_flat_params``) is listed under ``missing`` and
contributes 0 calls; it never raises.
"""

from __future__ import annotations

import numpy as np

from tracer import END, NAME, PARENT, START, TAG, Tracer

TRAIN_SINGLE = "trainer.train_single"

#: metric prefix -> (entry spans counted as calls, member spans whose self time is summed, stats)
LAYERS: dict[str, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {
    "network.forward": (("network.forward",), ("network.forward",), ("calls", "self_s", "us_per_call")),
    "network.backward": (("network.backward",), ("network.backward",), ("calls", "self_s", "us_per_call")),
    "network.param_copy": (
        ("network.set_flat_params", "network.flatten_arrays"),
        ("network.set_flat_params", "network.flatten_arrays", "network.LayerSpec.num_params"),
        ("calls", "self_s"),
    ),
    "classify.sbqc_batch_loss": (
        ("classify.sbqc_batch_loss",),
        ("classify.sbqc_batch_loss", "classify.sbqc_loss"),
        ("calls", "self_s", "us_per_call"),
    ),
    "secant_dist.cdf": (
        ("secant_dist.AsymmetricHSD.cdf",), ("secant_dist.AsymmetricHSD.cdf",),
        ("calls", "self_s", "us_per_call"),
    ),
    "secant_dist.pdf": (
        ("secant_dist.AsymmetricHSD.pdf",), ("secant_dist.AsymmetricHSD.pdf", "secant_dist.sech"),
        ("calls", "self_s", "us_per_call"),
    ),
    "classify.predict_prob": (
        ("classify.predict_prob",), ("classify.predict_prob",), ("calls", "self_s", "us_per_call"),
    ),
    "optim.adam_step": (("optim.adam_step",), ("optim.adam_step",), ("calls", "self_s", "us_per_call")),
    "optim.lalr": (
        ("optim.lalr_lr",),
        ("optim.lalr_lr", "optim.sbqc_layer_lipschitz_constant", "optim.sbqc_lipschitz_constant",
         "optim.regression_lipschitz_constant"),
        ("calls", "self_s"),
    ),
    "optim.lbfgs_step": (("optim.lbfgs_step",), ("optim.lbfgs_step",), ("calls", "self_s", "us_per_call")),
    "optim.lbfgs_direction": (("optim.lbfgs_direction",), ("optim.lbfgs_direction",), ("calls", "self_s")),
    "losses.batch_loss": (
        ("losses.batch_loss",), ("losses.batch_loss", "losses.log_cosh"),
        ("calls", "self_s", "us_per_call"),
    ),
    "losses.crossing": (
        ("losses.quantile_crossing_penalty", "losses.quantile_crossing_grad"),
        ("losses.quantile_crossing_penalty", "losses.quantile_crossing_grad"),
        ("calls", "self_s", "us_per_call"),
    ),
    "classify.multi_quantile_train": (
        ("classify.multi_quantile_train",), ("classify.multi_quantile_train",), ("calls", "self_s"),
    ),
    "classify.quantile_curve": (("classify.quantile_curve",), ("classify.quantile_curve",), ("calls", "self_s")),
    "trainer.train_single": ((TRAIN_SINGLE,), (TRAIN_SINGLE,), ("calls", "self_s")),
    "data.standardize": (
        ("data.standardize_fit", "data.standardize_apply"),
        ("data.standardize_fit", "data.standardize_apply"),
        ("calls", "self_s"),
    ),
    "data.subset": (("data.subset",), ("data.subset",), ("calls", "self_s")),
    "metrics.classification_metrics": (
        ("metrics.classification_metrics",),
        ("metrics.classification_metrics", "metrics.ConfusionMatrix.from_labels",
         "metrics.ClassificationMetrics.as_dict"),
        ("calls", "self_s"),
    ),
    "metrics.rmse": (("metrics.rmse",), ("metrics.rmse",), ("calls", "self_s")),
}

STAT_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}

#: metrics taken outside the span table, with their units
EXTRA_UNITS = {
    "optim.lalr.clamp_frac": "ratio",
    "optim.lbfgs.evals_per_step": "count",
    "optim.lbfgs.accept_frac": "ratio",
    "trainer.eval_s": "s",
    "trainer.eval_forward_calls": "count",
    "trainer.parallel_speedup": "ratio",
    "trainer.report_write_s": "s",
    "trainer.report_bytes": "bytes",
    "trainer.diverged": "count",
    "data.stratified_kfold_s": "s",
    "synthetic.generate_s": "s",
    "cli.load_config_s": "s",
    "setup.import_s": "s",
    "quality.test_accuracy": "ratio",
    "quality.val_rmse": "rating",
    "quality.held_out_crossing": "sum",
    "quality.failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.missing": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {f"{prefix}.{stat}": STAT_UNITS[stat] for prefix, (_, _, stats) in LAYERS.items() for stat in stats}
    units.update(EXTRA_UNITS)
    return units


# -- counts taken where the work happens ------------------------------------

def _rows(args, kwargs) -> int | None:
    """Row count of the first array argument (the batch a call works on)."""
    for a in (*args, *kwargs.values()):
        if isinstance(a, np.ndarray) and a.ndim >= 1:
            return a.shape[0]
    return None


def _train_single_rows(spans, rec, args, kwargs):
    """Tag a training run with the row counts of its full train/validation arrays."""
    return frozenset(a.shape[0] for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray))


def _eval_if_full_arrays(spans, rec, args, kwargs):
    """A forward/loss call made by the training loop itself on a whole split is evaluation.

    Optimizer-step calls either see a minibatch (Adam) or run inside
    ``lbfgs_step`` (L-BFGS), whose span then is their parent.
    """
    parent = spans[rec[PARENT]] if rec[PARENT] >= 0 else None
    if parent is not None and parent[NAME] == TRAIN_SINGLE and _rows(args, kwargs) in parent[TAG]:
        return "eval"
    return None


def _eval_if_in_loop(spans, rec, args, kwargs):
    """Metric calls made by the training loop only ever score whole splits."""
    parent = spans[rec[PARENT]] if rec[PARENT] >= 0 else None
    return "eval" if parent is not None and parent[NAME] == TRAIN_SINGLE else None


def _count_lalr(counters, args, kwargs, lr):
    counters["lalr_calls"] = counters.get("lalr_calls", 0) + 1
    K = args[0] if args else kwargs.get("K")
    # an unclamped rate is exactly 1/K
    if lr != 1.0 / K:
        counters["lalr_clamped"] = counters.get("lalr_clamped", 0) + 1


def _count_lbfgs(counters, args, kwargs, step):
    counters["lbfgs_steps"] = counters.get("lbfgs_steps", 0) + 1
    counters["lbfgs_evals"] = counters.get("lbfgs_evals", 0) + getattr(step, "evaluations", 0)
    counters["lbfgs_accepted"] = counters.get("lbfgs_accepted", 0) + bool(getattr(step, "accepted", False))


def make_tracer() -> Tracer:
    pre = {TRAIN_SINGLE: _train_single_rows}
    for name in ("network.forward", "losses.batch_loss", "classify.sbqc_batch_loss"):
        pre[name] = _eval_if_full_arrays
    for name in ("classify.predict_prob", "metrics.classification_metrics", "metrics.rmse"):
        pre[name] = _eval_if_in_loop
    post = {"optim.lalr_lr": _count_lalr, "optim.lbfgs_step": _count_lbfgs}
    return Tracer(pre_hooks=pre, post_hooks=post)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from a finished traced run, and the missing span names."""
    agg = tracer.aggregate()
    out: dict[str, float] = {}
    missing: set[str] = set()
    for prefix, (entries, members, stats) in LAYERS.items():
        missing.update(n for n in (*entries, *members) if n not in tracer.wrapped)
        calls = sum(agg.get(n, {}).get("calls", 0) for n in entries)
        self_s = sum(agg.get(n, {}).get("self_s", 0.0) for n in members)
        values = {"calls": calls, "self_s": self_s, "us_per_call": 1e6 * self_s / calls if calls else 0.0}
        for stat in stats:
            out[f"{prefix}.{stat}"] = values[stat]

    eval_s = 0.0
    eval_forward = 0
    for spans in tracer.span_lists():
        for rec in spans:
            if rec[TAG] == "eval":
                eval_s += rec[END] - rec[START]
                eval_forward += rec[NAME] == "network.forward"
    out["trainer.eval_s"] = eval_s
    out["trainer.eval_forward_calls"] = eval_forward

    c = tracer.counters
    out["optim.lalr.clamp_frac"] = c.get("lalr_clamped", 0) / c["lalr_calls"] if c.get("lalr_calls") else 0.0
    steps = c.get("lbfgs_steps", 0)
    out["optim.lbfgs.evals_per_step"] = c.get("lbfgs_evals", 0) / steps if steps else 0.0
    out["optim.lbfgs.accept_frac"] = c.get("lbfgs_accepted", 0) / steps if steps else 0.0
    out["trace.spans"] = tracer.span_count()
    missing.update(f"{m}.*" for m in tracer.missing_modules)
    out["trace.missing"] = len(missing)
    return out, sorted(missing)
