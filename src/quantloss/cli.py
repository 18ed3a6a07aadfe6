"""Command-line entry point: train, eval, gradcheck, lipschitz, quantiles, verify.

Exit codes: 0 success, 1 configuration/validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import synthetic
from .classify import curve_to_csv, curve_to_json, multi_quantile_train, quantile_curve
from .data import StandardizeStats, load_csv, standardize_apply, standardize_fit, stratified_kfold
from .network import forward, init_model, load_checkpoint, predict, save_checkpoint
from .optim import LipschitzContext, lalr_lr, sbqc_lipschitz_constant
from .trainer import (TrainConfig, _check_threshold_metric, _layer_constant, _layer_spec, _score,
                      epochs_to_threshold, train)


class CliError(Exception):
    """Validation failure; maps to exit code 1."""


#: the standardizer file ``train`` writes beside its checkpoint; ``standardize_fit`` floors each scale above 0
_STANDARDIZER_SCHEMA = {"type": "object", "required": ["mean", "scale"], "properties": {
    "mean": {"type": "array", "items": {"type": "number"}},
    "scale": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}}}}


def load_config(path: str) -> dict:
    schema = json.loads(importlib.resources.files("quantloss").joinpath("config_schema.json").read_text())
    return _load_checked(path, schema, "config")


def _load_checked(path, schema: dict, what: str):
    """The JSON document at ``path`` if ``schema`` accepts it; else a CliError naming file and field."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"{what} file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise CliError(f"{what} {path} is not valid JSON: {e}") from e
    bad = _first_non_finite(doc)
    if bad is not None:
        where, x = bad
        raise CliError(f"{what} {path}: field {_field(where)}: {json.dumps(x)} is not a finite number")
    if _valid(doc, schema):
        return doc
    # jsonschema decides every rejection and words its error; importing it costs ~0.1 s of
    # start-up, so a valid file never pays it.
    import jsonschema
    e = jsonschema.exceptions.best_match(jsonschema.validators.validator_for(schema)(schema).iter_errors(doc))
    if e is not None:
        raise CliError(f"{what} {path}: field {_field(e.absolute_path)}: {e.message}") from e
    return doc


def _field(where) -> str:
    return "/".join(str(k) for k in where) or "(top level)"


def _first_non_finite(doc, where: tuple = ()):
    """(path, value) of the first NaN or ±Infinity in ``doc``, in document order, or None.
    ``json.loads`` accepts them, and every range check passes NaN."""
    if isinstance(doc, float) and not math.isfinite(doc):
        return where, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        bad = _first_non_finite(v, (*where, k))
        if bad is not None:
            return bad
    return None


def _is_type(x, name: str) -> bool:
    """JSON Schema's type rules: a bool is no number, and an integral float is an integer."""
    if name in ("number", "integer"):
        return (isinstance(x, (int, float)) and not isinstance(x, bool)
                and (name == "number" or isinstance(x, int) or x.is_integer()))
    return isinstance(x, {"object": dict, "array": list, "string": str, "boolean": bool}[name])


def _valid(doc, schema: dict) -> bool:
    """Whether ``doc`` satisfies ``schema``, read through the keywords config_schema.json uses:
    type, enum (scalars, compared by type and value), required, properties,
    additionalProperties (false only), items, minItems, minimum, exclusiveMinimum,
    exclusiveMaximum, minLength, maxLength, anyOf and not."""
    s = schema
    types = s.get("type", ())
    if types and not any(_is_type(doc, t) for t in ([types] if isinstance(types, str) else types)):
        return False
    if "enum" in s and not any(doc == e and isinstance(doc, bool) == isinstance(e, bool) for e in s["enum"]):
        return False
    if "anyOf" in s and not any(_valid(doc, sub) for sub in s["anyOf"]):
        return False
    if "not" in s and _valid(doc, s["not"]):
        return False
    if isinstance(doc, dict):
        props = s.get("properties", {})
        return (all(k in doc for k in s.get("required", ()))
                and (s.get("additionalProperties") is not False or all(k in props for k in doc))
                and all(_valid(v, props[k]) for k, v in doc.items() if k in props))
    if isinstance(doc, list):
        return len(doc) >= s.get("minItems", 0) and all(_valid(v, s.get("items", {})) for v in doc)
    if isinstance(doc, str):
        return s.get("minLength", 0) <= len(doc) <= s.get("maxLength", len(doc))
    if _is_type(doc, "number"):
        return (doc >= s.get("minimum", doc) and doc > s.get("exclusiveMinimum", -math.inf)
                and doc < s.get("exclusiveMaximum", math.inf))
    return True


def _resolve_dataset(doc: dict, dataset_override: str | None):
    ds_cfg = doc.get("dataset", {})
    if "synthetic" in ds_cfg and not dataset_override:
        return synthetic.GENERATORS[ds_cfg["synthetic"]]()
    path = dataset_override or ds_cfg.get("path")
    if path is None:
        raise CliError("config has no dataset section (and no --dataset override given)")
    return load_csv(path, ds_cfg.get("target", "target"),
                    delimiter=ds_cfg.get("delimiter", ","), header=ds_cfg.get("header", True))


def cmd_train(args) -> int:
    if (args.threshold is None) != (args.threshold_metric is None):
        missing = "--threshold-metric" if args.threshold_metric is None else "--threshold"
        raise CliError(f"--threshold and --threshold-metric go together; {missing} is missing")
    doc = load_config(args.config)
    if args.threshold_metric is not None:
        _check_threshold_metric(args.threshold_metric, doc["task"])
    if args.seed is not None:
        doc.setdefault("train", {})["seed"] = args.seed
    ds = _resolve_dataset(doc, args.dataset)
    config = TrainConfig.from_dict(doc)
    train_cfg = doc.get("train", {})
    plan = stratified_kfold(
        ds,
        k=int(train_cfg.get("folds", 5)),
        val_fraction=float(train_cfg.get("val_fraction", 0.2)),
        seed=config.seed,
    )
    report = train(config, plan, ds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_json(out / "report.json")
    report.summary_csv(out / "summary.csv")
    records = report.metric_records(
        dataset=doc.get("dataset", {}).get("synthetic", doc.get("dataset", {}).get("path", "?")),
        loss=doc.get("loss", {}).get("kind", "sbqc" if config.task == "classification" else "?"),
        optimizer=config.optimizer.kind,
    )
    (out / "metrics.json").write_text(json.dumps(records, indent=1, sort_keys=True))
    if report.best_model is not None:
        save_checkpoint(report.best_model, out / "checkpoint.json")
        if report.best_standardizer is not None:
            std = report.best_standardizer
            (out / "standardizer.json").write_text(json.dumps({
                "mean": std.mean.tolist(), "scale": std.scale.tolist(),
            }))
    for name, agg in sorted(report.aggregates.items()):
        mean = agg.get("mean")
        std_v = agg.get("std")
        mean_s = "n/a" if mean is None else f"{mean:.4f}"
        std_s = "n/a" if std_v is None else f"{std_v:.4f}"
        print(f"{name}: mean {mean_s} std {std_s} (n={agg.get('n')})")
    all_diverged = all(r.diverged for r in report.records)
    if all_diverged:
        print(f"warning: all {len(report.records)} runs diverged (see {out / 'report.json'}): "
              "there are no aggregates and no checkpoint", file=sys.stderr)
    if args.threshold_metric is not None:
        e = epochs_to_threshold(report, args.threshold_metric, args.threshold)
        shown = "n/a (all runs diverged)" if all_diverged else "never" if e is None else e
        print(f"epochs_to_threshold[{args.threshold_metric} @ {args.threshold}]: {shown}")
    print(f"artifacts written to {out}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    ds = load_csv(args.dataset, args.target, delimiter=args.delimiter,
                  header=not args.no_header)
    if ds.X.shape[1] != model.spec.input_dim:
        raise CliError(f"dataset {args.dataset} has {ds.X.shape[1]} features, but checkpoint "
                       f"{args.checkpoint} takes {model.spec.input_dim} inputs")
    std_path = Path(args.standardizer or Path(args.checkpoint).parent / "standardizer.json")
    if args.standardizer or std_path.exists():
        std = _load_checked(std_path, _STANDARDIZER_SCHEMA, "standardizer")
        mean, scale = np.asarray(std["mean"], dtype=float), np.asarray(std["scale"], dtype=float)
        if mean.shape != (ds.X.shape[1],) or scale.shape != (ds.X.shape[1],):
            raise CliError(f"standardizer {std_path} has mean/scale shapes {mean.shape}/{scale.shape}, "
                           f"but the dataset has {ds.X.shape[1]} features")
        ds = standardize_apply(StandardizeStats(mean, scale, ()), ds)
    m = _score(ds.task, args.tau, predict(model, ds.X), ds.y)
    for k, v in sorted(m.items()):
        print(f"{k}: {v:.6f}")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "eval.json").write_text(json.dumps(m, indent=1, sort_keys=True))
    return 0


def cmd_gradcheck(args) -> int:
    from . import verify
    results = [
        verify.check_loss_gradients(args.seed),
        verify.check_sbqc_gradients(args.seed),
        verify.check_backprop_gradients(args.seed),
    ]
    _print_results(results)
    return 0 if all(r.passed for r in results) else 2


def cmd_lipschitz(args) -> int:
    printed = False
    if args.tau is not None:
        k = sbqc_lipschitz_constant(args.tau)
        print(f"sbqc constant (tau={args.tau:g}): {k:.6f}")
        print(f"lalr lr: {lalr_lr(k):.6f}")
        printed = True
    if args.config:
        doc = load_config(args.config)
        ds = _resolve_dataset(doc, args.dataset)
        config = TrainConfig.from_dict(doc)
        tr_std, _ = standardize_fit(ds)
        out_dim = 1 if ds.y.ndim == 1 else ds.y.shape[1]
        spec = _layer_spec(config, ds.X.shape[1], out_dim)
        model = init_model(spec, config.seed)
        batch = tr_std.X[: config.batch_size]
        yb = tr_std.y[: config.batch_size]
        _, trace = forward(model, batch)
        regression = config.task == "regression"
        y_norm = float(np.max(np.linalg.norm(yb.reshape(len(yb), -1), axis=1))) if regression else 0.0
        ctx = LipschitzContext(m=batch.shape[0], y_norm=y_norm, k_z=trace.k_z, tau=config.sbqc_tau)
        k = _layer_constant(config, ctx)
        if regression:
            print(f"regression layer constant ({config.loss.kind.value}, m={ctx.m}, "
                  f"||y||={ctx.y_norm:.4f}, K_z={ctx.k_z:.4f}): {k:.6g}")
        else:
            print(f"sbqc layer constant (tau={config.sbqc_tau:g}, K_z={ctx.k_z:.4f}): {k:.6g}")
        print(f"lalr lr: {lalr_lr(k, config.optimizer.lr_min, config.optimizer.lr_max):.6f}")
        printed = True
    if not printed:
        raise CliError("lipschitz needs --tau and/or --config")
    return 0


def cmd_quantiles(args) -> int:
    doc = load_config(args.config)
    ds = _resolve_dataset(doc, args.dataset)
    if ds.task != "classification":
        raise CliError("quantile curves need a classification dataset")
    n_features = ds.X.shape[1]
    if not 0 <= args.feature < n_features:
        raise CliError(f"--feature {args.feature} is out of range: the dataset has {n_features} "
                       f"features, so it must lie in [0, {n_features - 1}]")
    if args.sweep_points < 1:
        raise CliError(f"--sweep-points must be at least 1, got {args.sweep_points}")
    sbqc = doc.get("sbqc", {})
    if args.tau_grid:
        try:
            grid = [float(t) for t in args.tau_grid.split(",")]
        except ValueError as e:
            raise CliError(f"--tau-grid {args.tau_grid!r} is not a comma list of numbers: {e}") from e
    else:
        grid = sbqc.get("tau_grid", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    train_cfg = doc.setdefault("train", {})
    train_cfg.setdefault("epochs", 100)  # the grid's default; train's is 50
    if args.seed is not None:
        train_cfg["seed"] = args.seed
    config = TrainConfig.from_dict(doc)
    ds_std, _ = standardize_fit(ds)
    mq = multi_quantile_train(ds_std.X, ds_std.y, grid, reg_weight=float(sbqc.get("reg_weight", 1.0)),
                              config=config)
    f_idx = args.feature
    lo, hi = ds_std.X[:, f_idx].min(), ds_std.X[:, f_idx].max()
    sweep = np.linspace(lo, hi, args.sweep_points)
    background = np.median(ds_std.X, axis=0)
    curve = quantile_curve(mq, f_idx, sweep, background)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = ds.feature_names[f_idx]
    curve_to_csv(curve, out / f"quantile_curve_{name}.csv")
    curve_to_json(curve, out / f"quantile_curve_{name}.json")
    n_ok = sum(1 for s in curve.status if s == "ok")
    print(f"swept feature {f_idx} ({name}): {n_ok}/{len(curve.status)} points cross the grid")
    print(f"curve written to {out}")
    return 0


def cmd_verify(args) -> int:
    from . import verify
    results = verify.run_all(seed=args.seed)
    _print_results(results)
    bad = verify.violations(results, strict=args.strict)
    if bad:
        print(f"\n{len(bad)} violated propert{'y' if len(bad) == 1 else 'ies'}:")
        for r in bad:
            print(f"  {r.name}: measured {r.measured:.6g} vs limit {r.limit:.6g}")
        return 2
    print("\nall properties satisfied"
          + (" (known expected failure tolerated; run with --strict to count it)"
             if any(r.expected_failure and not r.passed for r in results) else ""))
    return 0


def _print_results(results) -> None:
    width = max(len(r.name) for r in results)
    print(f"{'property':<{width}}  {'measured':>12}  {'limit':>12}  {'margin':>12}  status")
    for r in results:
        if r.passed:
            status = "ok"
        elif r.expected_failure:
            status = "FAIL (expected; known bound defect)"
        else:
            status = "FAIL"
        print(f"{r.name:<{width}}  {r.measured:>12.4g}  {r.limit:>12.4g}  "
              f"{r.margin:>12.4g}  {status}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quantloss", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training config end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="runs/latest")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dataset", default=None, help="CSV path overriding the config dataset")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--threshold-metric", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a CSV dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--delimiter", default=",")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--standardizer", default=None)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("lipschitz", help="print layer constants and the adaptive lr")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--dataset", default=None)
    p.set_defaults(func=cmd_lipschitz)

    p = sub.add_parser("quantiles", help="train a tau grid and export the quantile curve")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="runs/quantiles")
    p.add_argument("--dataset", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tau-grid", default=None, help='comma list, e.g. "0.25,0.5,0.75"')
    p.add_argument("--feature", type=int, default=0)
    p.add_argument("--sweep-points", type=int, default=41)
    p.set_defaults(func=cmd_quantiles)

    p = sub.add_parser("verify", help="run the full property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true",
                   help="count the known expected failure as a violation")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
