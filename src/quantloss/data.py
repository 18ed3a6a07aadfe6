"""Dataset ingestion, standardization, and stratified cross-validation splits."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

VARIANCE_FLOOR = 1e-12


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    target_name: str
    task: str  # "regression" | "classification"

    def __post_init__(self) -> None:
        if self.task not in ("regression", "classification"):
            raise ValueError(f"task must be regression or classification, got {self.task!r}")
        if self.task == "classification" and not np.all(np.isin(self.y, (0.0, 1.0))):
            raise ValueError("classification targets must lie in {0, 1}")

    @property
    def n(self) -> int:
        return self.X.shape[0]


def load_csv(
    path,
    target,
    delimiter: str = ",",
    header: bool = True,
    task: str = "infer",
) -> Dataset:
    """Load a numeric CSV into a Dataset.

    ``target`` names the target column (or gives its index when there is no
    header).  Any unparseable or non-finite cell (``nan``, ``inf``) raises an
    error naming its row and column; row order is preserved.
    """
    try:
        f = open(path, "r", encoding="utf-8", newline="")
    except OSError as e:
        raise FileNotFoundError(f"cannot read dataset file {path}: {e}") from e
    with f:
        reader = csv.reader(f, delimiter=delimiter)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    names = [c.strip() for c in rows[0]] if header else [f"f{i}" for i in range(len(rows[0]))]
    data_rows = rows[1:] if header else rows
    if not data_rows:
        raise ValueError(f"{path}: empty dataset (no data rows)")

    if isinstance(target, int) or (isinstance(target, str) and target.isdigit() and not header):
        t_idx = int(target)
        if not 0 <= t_idx < len(names):
            raise ValueError(f"target column index {t_idx} outside 0..{len(names) - 1}")
    else:
        if target not in names:
            raise ValueError(f"target column {target!r} not found in {names}")
        t_idx = names.index(target)

    width = len(names)
    values = np.empty((len(data_rows), width))
    for i, row in enumerate(data_rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} fields, expected {width}")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {i + 1}, column {names[j]!r}: cannot parse {cell!r}"
                ) from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: row {i + 1}, column {names[j]!r}: non-finite value {data_rows[i][j]!r}")

    y = values[:, t_idx]
    X = np.delete(values, t_idx, axis=1)
    feature_names = [n for k, n in enumerate(names) if k != t_idx]
    if task == "infer":
        task = "classification" if np.all(np.isin(y, (0.0, 1.0))) else "regression"
    return Dataset(X=X, y=y, feature_names=feature_names, target_name=names[t_idx], task=task)


@dataclass(frozen=True)
class StandardizeStats:
    mean: np.ndarray
    scale: np.ndarray  # sqrt of floored variance
    floored: tuple[int, ...]  # feature indices whose variance hit the floor


def standardize_fit(train: Dataset) -> tuple[Dataset, StandardizeStats]:
    """Zero-mean unit-variance transform fitted on the training data only."""
    if train.n == 0:
        raise ValueError("cannot standardize an empty dataset")
    mean = train.X.mean(axis=0)
    var = train.X.var(axis=0)
    floored = tuple(int(i) for i in np.nonzero(var < VARIANCE_FLOOR)[0])
    if floored:
        warnings.warn(
            f"variance floored at {VARIANCE_FLOOR} for features {floored}",
            RuntimeWarning,
            stacklevel=2,
        )
    scale = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
    stats = StandardizeStats(mean=mean, scale=scale, floored=floored)
    return standardize_apply(stats, train), stats


def standardize_apply(stats: StandardizeStats, ds: Dataset) -> Dataset:
    """Apply a fitted affine map to another split (no refitting, no leakage)."""
    if ds.X.shape[1] != stats.mean.shape[0]:
        raise ValueError("feature count does not match the fitted statistics")
    X = (ds.X - stats.mean) / stats.scale
    return Dataset(X=X, y=ds.y.copy(), feature_names=list(ds.feature_names),
                   target_name=ds.target_name, task=ds.task)


@dataclass
class FoldPlan:
    """k train/test folds over the pool plus a disjoint validation slice."""

    folds: list[tuple[np.ndarray, np.ndarray]]
    val_idx: np.ndarray
    seed: int


def stratified_kfold(ds: Dataset, k: int, val_fraction: float = 0.2, seed: int = 0) -> FoldPlan:
    """Carve out validation first, then split the pool into k folds.

    Each stratum (one per class for classification, every row for
    regression) is shuffled by one seeded generator, in class order, gives
    its first ``val_fraction`` to validation and is dealt round-robin over
    the folds.  A class with fewer pool members than k raises an error
    naming the class; a regression pool that small, one naming its size.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    if ds.task == "classification":
        strata = [(np.nonzero(ds.y == c)[0], f"class {c:g} has only {{}} pool members, fewer than k={k}")
                  for c in sorted(set(ds.y.tolist()))]
    else:
        strata = [(np.arange(ds.n), f"pool of {{}} examples cannot form k={k} folds")]
    rng = np.random.default_rng(seed)
    val_parts, fold_parts = [np.empty(0, int)], [[np.empty(0, int)] for _ in range(k)]
    for idx, too_few in strata:
        idx = rng.permutation(idx)
        n_val = int(round(val_fraction * idx.size))
        val_parts.append(idx[:n_val])
        pool = idx[n_val:]
        if pool.size < k:
            raise ValueError(too_few.format(pool.size))
        for j, parts in enumerate(fold_parts):  # deal the pool round-robin
            parts.append(pool[j::k])
    tests = [np.sort(np.concatenate(parts)) for parts in fold_parts]
    pool_all = np.concatenate(tests)
    return FoldPlan([(np.setdiff1d(pool_all, test), test) for test in tests],
                    np.sort(np.concatenate(val_parts)), seed)


def subset(ds: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(X=ds.X[idx], y=ds.y[idx], feature_names=list(ds.feature_names),
                   target_name=ds.target_name, task=ds.task)


def write_csv(ds: Dataset, path) -> None:
    """Write a Dataset back out as a headered CSV (features then target)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow([*ds.feature_names, ds.target_name])
        for xi, yi in zip(ds.X, ds.y):
            w.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])
