"""The benchmark's workloads, driven through quantloss's public API.

Each workload has a set-up (load and validate the preset, generate the
synthetic data from the workload seed, plan the folds) and a run that
trains, scores and writes its artifacts.  A run returns an ``Outcome``: the
steps it completed, counted from the result, its quality numbers and whether
they clear the output gate.  Gates mirror tier-1 acceptance criteria 6 to 8.

Functions are looked up on their modules at call time, so a tracer that
rebinds module attributes sees every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import quantloss.classify as classify
import quantloss.cli as cli
import quantloss.data as data
import quantloss.losses as losses
import quantloss.network as network
import quantloss.synthetic as synthetic
import quantloss.trainer as trainer

#: the generators' own default seeds; workload seed 0 reproduces the presets
GENERATOR_SEEDS = {"banknote": 7, "pima": 11, "wine": 13}

BANKNOTE_MIN_ACCURACY = 0.99
WINE_MAX_VAL_RMSE = 1.1
PIMA_CURVE_FEATURE = 1      # glucose-style dominant factor
PIMA_SWEEP_POINTS = 41


@dataclass
class Inputs:
    doc: dict
    dataset: object
    plan: object
    phases: dict[str, float]


@dataclass
class Outcome:
    steps: int
    runs: int
    diverged: int
    gate_ok: bool
    gate: str
    quality: dict[str, float]
    report_write_s: float
    report_bytes: int
    fingerprint: str = ""
    report: object = field(default=None, repr=False)  # kept for ``score``


def _fingerprint(obj) -> str:
    """Hash of a result's quality numbers, to check runs are bit-identical."""
    text = json.dumps(obj, sort_keys=True, default=lambda a: np.asarray(a, float).tolist())
    return hashlib.sha256(text.encode()).hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class Workload:
    name = ""
    preset = ""
    generator = ""

    def setup(self, root: Path, seed: int, tiny: bool) -> Inputs:
        phases = {}
        t = time.perf_counter()
        doc = cli.load_config(str(root / "configs" / self.preset))
        phases["cli.load_config_s"] = time.perf_counter() - t
        doc.setdefault("train", {})["seed"] = seed
        if tiny:
            self.shrink(doc)
        t = time.perf_counter()
        ds = synthetic.GENERATORS[self.generator](seed=GENERATOR_SEEDS[self.generator] + seed)
        phases["synthetic.generate_s"] = time.perf_counter() - t
        train_cfg = doc["train"]
        t = time.perf_counter()
        plan = data.stratified_kfold(ds, k=int(train_cfg.get("folds", 5)),
                                     val_fraction=float(train_cfg.get("val_fraction", 0.2)), seed=seed)
        phases["data.stratified_kfold_s"] = time.perf_counter() - t
        return Inputs(doc, ds, plan, phases)

    def shrink(self, doc: dict) -> None:
        """Tiny case for the smoke test: two folds, one repeat, two epochs."""
        doc["train"].update(folds=2, repeats=1, epochs=2)

    def jobs(self, inputs: Inputs) -> int:
        """Training runs one execution attempts."""
        return len(inputs.plan.folds) * int(inputs.doc["train"].get("repeats", 1))

    def run(self, inputs: Inputs, out_dir: Path) -> Outcome:
        raise NotImplementedError

    def score(self, inputs: Inputs, outcome: Outcome) -> None:
        """Quality numbers that take extra work, computed after the timed region."""
        outcome.report = None


class GridWorkload(Workload):
    """The folds x repeats protocol of a preset, as ``quantloss train`` runs it."""

    def run(self, inputs: Inputs, out_dir: Path) -> Outcome:
        config = trainer.TrainConfig.from_dict(inputs.doc)
        report = trainer.train(config, inputs.plan, inputs.dataset)
        t = time.perf_counter()
        report.to_json(out_dir / "report.json")
        report.summary_csv(out_dir / "summary.csv")
        if report.best_model is not None:
            network.save_checkpoint(report.best_model, out_dir / "checkpoint.json")
        write_s = time.perf_counter() - t
        records = report.records
        diverged = sum(1 for r in records if r.diverged)
        steps = sum(len(r.val_metric) * self.steps_per_epoch(config, inputs.plan.folds[r.fold][0].size)
                    for r in records)
        gate_ok, gate, quality = self.check(config, report)
        return Outcome(
            steps=steps, runs=len(records), diverged=diverged, gate_ok=gate_ok, gate=gate,
            quality=quality, report_write_s=write_s, report_bytes=_dir_bytes(out_dir),
            fingerprint=_fingerprint(report.aggregates), report=report,
        )

    def steps_per_epoch(self, config, n_train: int) -> int:
        return math.ceil(n_train / config.batch_size)

    def check(self, config, report):
        raise NotImplementedError


class BanknoteLALR(GridWorkload):
    name = "banknote_lalr"
    preset = "banknote_sbqc_lalr.json"
    generator = "banknote"

    def check(self, config, report):
        acc = report.aggregates.get("accuracy", {})
        runs = len(report.records)
        mean = acc.get("mean")
        ok = mean is not None and acc.get("n") == runs and mean >= BANKNOTE_MIN_ACCURACY
        gate = f"mean test accuracy {mean} >= {BANKNOTE_MIN_ACCURACY} over {acc.get('n')}/{runs} runs"
        return ok, gate, {"test_accuracy": mean if mean is not None else 0.0}


class WineLBFGS(GridWorkload):
    name = "wine_lbfgs"
    preset = "wine_logcosh_lbfgs.json"
    generator = "wine"

    def steps_per_epoch(self, config, n_train: int) -> int:
        return 1  # one full-batch L-BFGS iteration per recorded epoch

    def check(self, config, report):
        val = report.aggregates.get("val_rmse", {})
        runs = len(report.records)
        mean = val.get("mean")
        ok = mean is not None and val.get("n") == runs and mean <= WINE_MAX_VAL_RMSE
        gate = f"mean validation RMSE {mean} <= {WINE_MAX_VAL_RMSE} over {val.get('n')}/{runs} runs"
        return ok, gate, {"val_rmse": mean if mean is not None else math.inf}

    def score(self, inputs: Inputs, outcome: Outcome) -> None:
        outcome.quality["test_accuracy"] = self.rating_accuracy(inputs, outcome.report)
        super().score(inputs, outcome)

    @staticmethod
    def rating_accuracy(inputs: Inputs, report) -> float:
        """Share of test-fold rows whose prediction rounds to the true rating.

        This is the tolerance-0.5 accuracy used for the wine-quality data,
        averaged over the runs, each scored with its best-validation
        parameters on its fold's standardized test split.
        """
        config = trainer.TrainConfig.from_dict(inputs.doc)
        ds = inputs.dataset
        accs = []
        for rec in report.records:
            if rec.diverged or rec.best_params is None:
                continue
            train_idx, test_idx = inputs.plan.folds[rec.fold]
            _, stats = data.standardize_fit(data.subset(ds, train_idx))
            test = data.standardize_apply(stats, data.subset(ds, test_idx))
            spec = network.LayerSpec(test.X.shape[1], config.hidden_sizes, 1, config.activation)
            model = network.unflatten_params(network.init_model(spec, 0), rec.best_params)
            pred, _ = network.forward(model, test.X)
            accs.append(float(np.mean(np.abs(pred[:, 0] - test.y) < 0.5)))
        return float(np.mean(accs)) if accs else 0.0


class PimaQuantiles(Workload):
    """Acceptance criterion 8's set-up with the preset's settings: joint
    tau-grid heads on the fold plan's pool, a quantile curve, held-out scoring."""

    name = "pima_quantiles"
    preset = "pima_quantiles.json"
    generator = "pima"

    def shrink(self, doc: dict) -> None:
        doc["train"].update(epochs=2)

    def jobs(self, inputs: Inputs) -> int:
        return 1

    def run(self, inputs: Inputs, out_dir: Path) -> Outcome:
        doc, ds, plan = inputs.doc, inputs.dataset, inputs.plan
        sbqc, model_cfg, train_cfg = doc["sbqc"], doc["model"], doc["train"]
        grid = [float(t) for t in sbqc["tau_grid"]]
        pool_idx = np.sort(np.concatenate([test for _, test in plan.folds]))
        pool_std, stats = data.standardize_fit(data.subset(ds, pool_idx))
        held = data.standardize_apply(stats, data.subset(ds, plan.val_idx))
        epochs, batch = int(train_cfg["epochs"]), int(train_cfg["batch_size"])
        mq = classify.multi_quantile_train(
            pool_std.X, pool_std.y, grid,
            hidden_sizes=tuple(model_cfg["hidden_sizes"]), activation=model_cfg["activation"],
            reg_weight=float(sbqc["reg_weight"]), epochs=epochs, batch_size=batch,
            lr=float(doc["optimizer"]["lr"]), seed=int(train_cfg["seed"]),
        )
        col = pool_std.X[:, PIMA_CURVE_FEATURE]
        sweep = np.linspace(col.min(), col.max(), PIMA_SWEEP_POINTS)
        curve = classify.quantile_curve(mq, PIMA_CURVE_FEATURE, sweep, np.median(pool_std.X, axis=0))
        latents = mq.latents(held.X)
        crossing = losses.quantile_crossing_penalty(latents)
        # heads are scored through the negated latent (see classify's docstring)
        prob = classify.predict_prob(-latents[:, grid.index(0.5)], 0.5)
        accuracy = float(np.mean((prob >= 0.5) == (held.y == 1.0)))
        t = time.perf_counter()
        classify.curve_to_csv(curve, out_dir / "quantile_curve.csv")
        classify.curve_to_json(curve, out_dir / "quantile_curve.json")
        write_s = time.perf_counter() - t

        finite = bool(np.all(np.isfinite(latents)))
        n_ok = sum(1 for s in curve.status if s == "ok")
        ok = finite and n_ok >= 1
        steps = epochs * math.ceil(pool_std.X.shape[0] / batch) * len(grid)
        return Outcome(
            steps=steps, runs=1, diverged=0 if finite else 1, gate_ok=ok,
            gate=f"held-out latents finite={finite}, {n_ok}/{len(curve.status)} curve points ok",
            quality={"test_accuracy": accuracy, "held_out_crossing": crossing},
            report_write_s=write_s, report_bytes=_dir_bytes(out_dir),
            fingerprint=_fingerprint([latents, curve.tau_star, curve.status]),
        )


WORKLOADS = {w.name: w for w in (BanknoteLALR(), WineLBFGS(), PimaQuantiles())}
