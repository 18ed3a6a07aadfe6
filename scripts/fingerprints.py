#!/usr/bin/env python3
"""Print one sha256 per case of quantloss's fixed-seed outputs, to check that a
change leaves them bit-identical.

Usage:
    PYTHONPATH=src python scripts/fingerprints.py [--full] [--dump DIR] > fingerprints.txt
    python scripts/fingerprints.py --compare DIR_A DIR_B

Run it on two checkouts and diff the outputs.  Where a change alters the
arithmetic on purpose, run both with ``--dump``: it also writes every case's
numeric leaves (array elements, and the numbers in its JSON parts in sorted
key order) as one float64 vector per case.  ``--compare`` then prints each
case's largest absolute and relative deviation between two such dumps.  The
cases are:

- ``plan``: ``stratified_kfold`` of the synthetic banknote, pima and wine
  sets for seeds 0, 1 and 7, k = 2, 3 and 5 and val_fraction 0, 0.2 and
  0.33, and its error message on each set's first 4 rows at k = 5;
- ``train``: ``RunReport.to_dict()``, every record's ``best_params`` and the
  exported model and standardizer of each train preset in ``configs/``, at
  seeds 0 and 1 and ``QUANTLOSS_THREADS`` 1 and 2.  Presets are cut to 6
  epochs and 2 repeats unless ``--full`` is given;
- ``train`` of the paths no preset reaches, hashed as above at seeds 0 and
  1 with one worker, always cut to 6 epochs and 2 repeats: the wine preset
  under ``lalr-adam`` with each regression loss kind (log-cosh at h = 1 and
  0.7), and the banknote preset under L-BFGS;
- ``grid``: the pima preset's tau grid trained on the fold plan's pool, its
  latents on the validation rows and its quantile curve, at seeds 0 and 1;
- ``single``: every ``SingleRun`` field by name, ``final_params``,
  ``diverged_at`` and ``line_search_failures`` among them, which no report
  holds.  One ``train_single`` call trains 2 repeats on each of a preset's
  first two folds, standardized as ``train()`` does them, cut to 6 epochs,
  at seeds 0 and 1: the banknote preset under ``lalr-adam`` (one stack
  across the two folds), the wine L-BFGS preset with ``max_line_search`` 1,
  whose first step is rejected, and the wine MSE preset under Adam at lr
  1e100, whose runs diverge.
"""

import argparse
import hashlib
import json
import os
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from quantloss import classify, cli, data, synthetic, trainer  # noqa: E402

GRID_PRESET = "pima_quantiles.json"

#: (case name, preset, the sections that replace the preset's) for the paths no preset reaches
UNREACHED = [
    *(("wine lalr-adam " + "-".join(map(str, loss.values())), "wine_logcosh_adam_lr001.json",
       {"loss": loss, "optimizer": {"kind": "lalr-adam"}})
      for loss in ({"kind": "logcosh"}, {"kind": "logcosh", "h": 0.7}, {"kind": "tilted-logcosh", "tau": 0.25},
                   {"kind": "check", "tau": 0.9}, {"kind": "huber", "delta": 0.5}, {"kind": "mse"},
                   {"kind": "mae"})),
    ("banknote lbfgs", "banknote_sbqc_lalr.json", {"optimizer": {"kind": "lbfgs"}}),
]

#: (case name, preset, the sections that replace the preset's) for the ``single`` cases
SINGLE = [
    ("banknote lalr-adam", "banknote_sbqc_lalr.json", {}),
    ("wine lbfgs max_line_search=1", "wine_logcosh_lbfgs.json",
     {"optimizer": {"kind": "lbfgs", "max_line_search": 1}}),
    ("wine mse adam lr=1e100", "wine_mse_adam_lr01.json", {"optimizer": {"kind": "adam", "lr": 1e100}}),
]

#: the fields of a ``SingleRun`` that the ``single`` cases hash, by name
SINGLE_FIELDS = ("train_loss", "val_loss", "val_metric", "lr_trace", "k_trace", "best_epoch", "best_params",
                 "final_params", "diverged", "line_search_failures", "diverged_at")


def digest(*parts) -> str:
    """sha256 over the parts: arrays by their bytes, anything else as sorted JSON."""
    h = hashlib.sha256()
    for part in parts:
        if hasattr(part, "tobytes"):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(part.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def leaves(*parts) -> np.ndarray:
    """The parts' numeric leaves as one float64 vector, in the order ``digest`` reads them."""
    out = []

    def walk(node):
        if hasattr(node, "tobytes"):
            out.extend(np.asarray(node, dtype=float).ravel().tolist())
        elif isinstance(node, dict):
            for key in sorted(node):
                walk(node[key])
        elif isinstance(node, (list, tuple)):
            for item in node:
                walk(item)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out.append(float(node))

    walk(list(parts))
    return np.array(out, dtype=float)


def compare(dir_a: Path, dir_b: Path) -> None:
    """Print each case's max absolute and max relative deviation between two dumps."""
    names_a = (dir_a / "cases.txt").read_text().splitlines()
    names_b = (dir_b / "cases.txt").read_text().splitlines()
    print("max_abs    max_rel    case")
    for i, name in enumerate(names_a):
        if name not in names_b:
            print(f"{'-':10} {'-':10} {name} (missing in {dir_b})")
            continue
        a = np.load(dir_a / f"{i:04d}.npy")
        b = np.load(dir_b / f"{names_b.index(name):04d}.npy")
        if a.shape != b.shape:
            print(f"{'-':10} {'-':10} {name} ({a.size} leaves against {b.size})")
            continue
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        diff = np.where(same, 0.0, np.abs(a - b))
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
        print(f"{diff.max(initial=0.0):<10.3g} {rel.max(initial=0.0):<10.3g} {name}")


def plan_cases():
    for name in ("banknote", "pima", "wine"):
        ds = synthetic.GENERATORS[name]()
        for seed in (0, 1, 7):
            for k in (2, 3, 5):
                for val_fraction in (0.0, 0.2, 0.33):
                    plan = data.stratified_kfold(ds, k, val_fraction, seed)
                    parts = [a for fold in plan.folds for a in fold]
                    yield f"plan {name} seed={seed} k={k} val={val_fraction}", [plan.val_idx, *parts]
        try:
            data.stratified_kfold(data.subset(ds, list(range(4))), 5)
        except ValueError as e:
            yield f"plan {name} first-4-rows k=5 error", [str(e)]


def train_parts(doc: dict, seed: int, threads: str, cut: bool) -> list:
    """The hashed parts of ``train()`` on a config document at ``seed`` with ``QUANTLOSS_THREADS`` = threads."""
    train_cfg = doc["train"]
    train_cfg["seed"] = seed
    if cut:
        train_cfg.update(epochs=6, repeats=2)
    ds = cli._resolve_dataset(doc, None)
    plan = data.stratified_kfold(ds, int(train_cfg.get("folds", 5)),
                                 float(train_cfg.get("val_fraction", 0.2)), seed)
    os.environ["QUANTLOSS_THREADS"] = threads
    report = trainer.train(trainer.TrainConfig.from_dict(doc), plan, ds)
    parts = [report.to_dict()] + [r.best_params for r in report.records if r.best_params is not None]
    if report.best_model is not None:
        parts += [report.best_model.spec.to_dict(), report.best_model.params]
    if report.best_standardizer is not None:
        parts += [report.best_standardizer.mean, report.best_standardizer.scale]
    return parts


def train_cases(full: bool):
    presets = sorted(p.name for p in (ROOT / "configs").glob("*.json") if p.name != GRID_PRESET)
    for preset in presets:
        for seed in (0, 1):
            for threads in ("1", "2"):
                doc = cli.load_config(str(ROOT / "configs" / preset))
                yield f"train {preset} seed={seed} threads={threads}", train_parts(doc, seed, threads, not full)


def unreached_cases():
    for name, preset, sections in UNREACHED:
        for seed in (0, 1):
            doc = {**cli.load_config(str(ROOT / "configs" / preset)), **sections}
            yield f"train {name} seed={seed}", train_parts(doc, seed, "1", cut=True)


def single_cases():
    for name, preset, sections in SINGLE:
        for seed in (0, 1):
            doc = {**cli.load_config(str(ROOT / "configs" / preset)), **sections}
            doc["train"].update(epochs=6, seed=seed)
            ds = cli._resolve_dataset(doc, None)
            plan = data.stratified_kfold(ds, int(doc["train"]["folds"]), 0.2, seed)
            splits = []
            for train_idx, _ in plan.folds[:2]:
                tr, stats = data.standardize_fit(data.subset(ds, train_idx))
                val = data.standardize_apply(stats, data.subset(ds, plan.val_idx))
                splits.append((tr.X, tr.y, val.X, val.y))
            seeds = [[trainer.derive_seed(seed, fold, repeat) for repeat in range(2)] for fold in range(2)]
            runs = trainer.train_single(trainer.TrainConfig.from_dict(doc), *map(list, zip(*splits)), seeds)
            yield f"single {name} seed={seed}", [part for fold_runs in runs for run in fold_runs
                                                 for field in SINGLE_FIELDS for part in (field, getattr(run, field))]


def grid_cases():
    for seed in (0, 1):
        doc = cli.load_config(str(ROOT / "configs" / GRID_PRESET))
        sbqc, model_cfg, train_cfg = doc["sbqc"], doc["model"], doc["train"]
        ds = cli._resolve_dataset(doc, None)
        plan = data.stratified_kfold(ds, int(train_cfg["folds"]), 0.2, seed)
        pool_idx = sorted(int(i) for _, test in plan.folds for i in test)
        pool, stats = data.standardize_fit(data.subset(ds, pool_idx))
        held = data.standardize_apply(stats, data.subset(ds, plan.val_idx))
        mq = classify.multi_quantile_train(
            pool.X, pool.y, sbqc["tau_grid"], hidden_sizes=tuple(model_cfg["hidden_sizes"]),
            activation=model_cfg["activation"], reg_weight=sbqc["reg_weight"], epochs=train_cfg["epochs"],
            batch_size=train_cfg["batch_size"], lr=doc["optimizer"]["lr"], seed=seed,
        )
        col = pool.X[:, 1].tolist()
        lo, hi = min(col), max(col)
        sweep = [lo + (hi - lo) * i / 40 for i in range(41)]
        background = [statistics.median(c) for c in pool.X.T.tolist()]
        curve = classify.quantile_curve(mq, 1, sweep, background)
        yield f"grid {GRID_PRESET} seed={seed}", [mq.latents(held.X), curve.tau_star, curve.status]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="train the presets at their own size")
    parser.add_argument("--dump", type=Path, metavar="DIR", help="also write each case's numeric leaves into DIR")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="print each case's largest deviation between two dumps, and run nothing")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    names = []
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    for cases in (plan_cases(), train_cases(args.full), unreached_cases(), grid_cases(), single_cases()):
        for name, parts in cases:
            print(f"{digest(*parts)}  {name}", flush=True)
            if args.dump:
                np.save(args.dump / f"{len(names):04d}.npy", leaves(*parts))
                names.append(name)
    if args.dump:
        (args.dump / "cases.txt").write_text("".join(n + "\n" for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
