"""LALR rates of a stack, taken as one list of layer constants per step.

The trainer hands every live head's ``k_z`` to one ``LipschitzContext``.  Each
head's K and rate must equal, bit for bit, the scalar formula applied to that
head alone: K = max(c k_z, 1e-12), with c the sBQC constant of the head's
level or (1/m) s(|g(0) - ||y|||) for regression under the fold's label norm,
and the rate clamp(1/K, lr_min, lr_max).  The references below are those
scalar formulas, applied to the ``k_z`` that each run's solo training records
(a stacked run equals its solo run step for step).
"""

import math

import numpy as np
import pytest

from quantloss import trainer
from quantloss.losses import LossKind, LossSpec, slope_bound
from quantloss.optim import (
    K_FLOOR,
    LipschitzContext,
    lalr_lr,
    regression_lipschitz_constant,
    sbqc_layer_lipschitz_constant,
    sbqc_lipschitz_constant,
)
from quantloss.trainer import OptimizerSpec, TrainConfig, train_single


def _scalar_sbqc_k(tau, k_z):
    return max((2.0 / math.pi) * max(1.0, (1.0 - tau) / tau, tau / (1.0 - tau)) * k_z, K_FLOOR)


def _scalar_regression_k(loss, m, y_norm, k_z):
    return max((1.0 / m) * slope_bound(loss, abs(0.0 - y_norm)) * k_z, K_FLOOR)


def _recording_forward(monkeypatch):
    """Patch the trainer's ``forward`` to record (rows, each head's k_z) of every training step."""
    calls = []
    original = trainer.forward

    def recording(model, batch, *args, **kwargs):
        out, trace = original(model, batch, *args, **kwargs)
        calls.append((np.shape(batch)[-2], trace.head_k_z.tolist()))
        return out, trace
    monkeypatch.setattr(trainer, "forward", recording)
    return calls


def _expected_traces(config, calls, y_norm):
    """The scalar formula's K and rate at each recorded step of a one-head run."""
    opt = config.optimizer
    if config.task == "classification":
        ks = [_scalar_sbqc_k(config.sbqc_tau, k_z[0]) for _, k_z in calls]
    else:
        ks = [_scalar_regression_k(config.loss, m, y_norm, k_z[0]) for m, k_z in calls]
    return ks, [lalr_lr(k, opt.lr_min, opt.lr_max) for k in ks]


def _folds(task, sizes, label_scales, seed=0):
    rng = np.random.default_rng(seed)
    X_val = rng.normal(size=(25, 4))
    folds = []
    for n, scale in zip(sizes, label_scales):
        X = rng.normal(size=(n, 4))
        w = np.array([1.0, -2.0, 0.5, 0.0])
        if task == "classification":
            y, yv = (X @ w + 0.5 * rng.normal(size=n) > 0).astype(float), (X_val @ w > 0).astype(float)
        else:
            y, yv = scale * (X @ w + 0.1 * rng.normal(size=n)), scale * (X_val @ w)
        folds.append((X, y, X_val, yv))
    return folds


def _assert_traces_follow_the_scalar_formula(monkeypatch, config, folds, seeds):
    """Train the folds as one stack; check each run's traces against the scalar formula on the
    ``k_z`` its solo run records.  Returns the stacked runs."""
    stacked = train_single(config, *map(list, zip(*folds)), seeds)
    calls = _recording_forward(monkeypatch)
    for (X, y, Xv, yv), fold_seeds, runs in zip(folds, seeds, stacked):
        y_norm = 0.0 if config.task == "classification" else float(np.max(np.abs(y)))
        for seed, run in zip(fold_seeds, runs):
            calls.clear()
            train_single(config, X, y, Xv, yv, seed)
            ks, rates = _expected_traces(config, calls, y_norm)
            if run.diverged:  # a run whose loss failed stops before that step's K
                assert len(run.k_trace) in (len(ks) - 1, len(ks))
                ks, rates = ks[: len(run.k_trace)], rates[: len(run.k_trace)]
            assert run.k_trace == ks
            assert run.lr_trace == rates
    return stacked


SBQC = TrainConfig(task="classification", hidden_sizes=(12,), dropout=0.1, sbqc_tau=0.3,
                   optimizer=OptimizerSpec(kind="lalr-adam"), epochs=3, batch_size=16)
REGRESSION = TrainConfig(task="regression", hidden_sizes=(12,), loss=LossSpec(LossKind.LOG_COSH),
                         optimizer=OptimizerSpec(kind="lalr-adam"), epochs=3, batch_size=16)


class TestStackTracesEqualTheScalarFormula:
    def test_sbqc_across_folds(self, monkeypatch):
        folds = _folds("classification", (90, 93, 91), (1.0, 1.0, 1.0))
        _assert_traces_follow_the_scalar_formula(monkeypatch, SBQC, folds, [[1, 2], [3], [4, 5]])

    @pytest.mark.parametrize("loss", [LossSpec(LossKind.LOG_COSH), LossSpec(LossKind.LOG_COSH, h=0.7),
                                      LossSpec(LossKind.HUBER, delta=0.5), LossSpec(LossKind.CHECK, tau=0.9)],
                             ids=lambda s: s.kind.value + f"-{s.h}")
    def test_regression_with_a_label_norm_per_fold(self, monkeypatch, loss):
        config = TrainConfig(task="regression", hidden_sizes=(12,), loss=loss,
                             optimizer=OptimizerSpec(kind="lalr-adam"), epochs=3, batch_size=16)
        folds = _folds("regression", (40, 45, 47), (1.0, 3.0, 0.5))
        stacked = _assert_traces_follow_the_scalar_formula(monkeypatch, config, folds, [[1, 2], [3, 4], [5]])
        if loss.kind is not LossKind.CHECK:  # the check loss's slope bound does not depend on the norm
            assert len({runs[0].k_trace[0] for runs in stacked}) == 3

    def test_a_stack_with_a_frozen_run(self, monkeypatch):
        # the value is NaN once a prediction passes 6: at rates clamped to 0.05 the second
        # fold's runs stop in their sixth step, frozen in the stack, and the first fold's train on
        original = trainer.batch_loss

        def failing(spec, predictions, targets, reduction="mean"):
            value, grad = original(spec, predictions, targets, reduction)
            too_big = np.abs(predictions) > 6.0
            if reduction == "none":
                return np.where(too_big.any(axis=-1), np.nan, value), grad
            return (np.nan if too_big.any() else value), grad
        monkeypatch.setattr(trainer, "batch_loss", failing)
        folds = _folds("regression", (40, 45), (1.0, 20.0))
        config = TrainConfig(task="regression", hidden_sizes=(12,), loss=LossSpec(LossKind.LOG_COSH),
                             optimizer=OptimizerSpec(kind="lalr-adam", lr_max=0.05), epochs=3, batch_size=16)
        stacked = _assert_traces_follow_the_scalar_formula(monkeypatch, config, folds, [[1, 2], [3, 4]])
        assert [[(run.diverged, len(run.k_trace)) for run in runs] for runs in stacked] == [
            [(False, 9), (False, 9)], [(True, 5), (True, 5)]]


class TestTauGridTraces:
    def test_each_level_takes_its_own_constant(self, monkeypatch):
        levels = (0.25, 0.5, 0.75)
        config = TrainConfig(task="classification", hidden_sizes=(10,),
                             optimizer=OptimizerSpec(kind="lalr-adam"), epochs=3, batch_size=32)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=100) > 0).astype(float)
        calls = _recording_forward(monkeypatch)
        spec = trainer._layer_spec(config, 3, 1)
        (run,) = trainer._train_adam(config, spec, X, y, None, None, [4], levels, 1.0)
        assert len(run.k_trace) == len(calls) * len(levels)
        # each step appends one K per level, in level order
        ks = [_scalar_sbqc_k(t, k_z) for _, head_k_z in calls for t, k_z in zip(levels, head_k_z)]
        assert run.k_trace == ks
        assert run.lr_trace == [lalr_lr(k, config.optimizer.lr_min, config.optimizer.lr_max) for k in ks]
        assert len(set(ks[: len(levels)])) == len(levels)


class TestPerHeadContexts:
    """A per-head context's constants equal its scalar contexts' one by one."""

    def test_sbqc(self):
        rng = np.random.default_rng(0)
        k_z, taus = rng.uniform(0.0, 50.0, size=40).tolist(), rng.choice([0.1, 0.5, 0.77], size=40).tolist()
        k_z[:3] = 0.0, 1e-14, 3.0
        got = sbqc_layer_lipschitz_constant(LipschitzContext(m=64, y_norm=0.0, k_z=k_z, tau=taus))
        want = [sbqc_layer_lipschitz_constant(LipschitzContext(m=64, y_norm=0.0, k_z=k, tau=t))
                for k, t in zip(k_z, taus)]
        assert got == want == [_scalar_sbqc_k(t, k) for k, t in zip(k_z, taus)]
        one_level = sbqc_layer_lipschitz_constant(LipschitzContext(m=64, y_norm=0.0, k_z=k_z, tau=0.3))
        assert one_level == [_scalar_sbqc_k(0.3, k) for k in k_z]

    @pytest.mark.parametrize("loss", [LossSpec(LossKind.LOG_COSH), LossSpec(LossKind.TILTED_LOG_COSH, tau=0.2),
                                      LossSpec(LossKind.MSE), LossSpec(LossKind.MAE)],
                             ids=lambda s: s.kind.value)
    def test_regression_with_one_label_norm_per_fold(self, loss):
        rng = np.random.default_rng(1)
        y_norms = np.repeat(rng.uniform(0.0, 4.0, size=3), [4, 5, 4]).tolist()
        k_z = rng.uniform(0.0, 20.0, size=13).tolist()
        got = regression_lipschitz_constant(LipschitzContext(m=37, y_norm=y_norms, k_z=k_z, g_at_zero=0.0), loss)
        want = [regression_lipschitz_constant(LipschitzContext(m=37, y_norm=y, k_z=k), loss)
                for y, k in zip(y_norms, k_z)]
        assert got == want == [_scalar_regression_k(loss, 37, y, k) for y, k in zip(y_norms, k_z)]

    def test_no_live_head_gives_no_constant(self):
        ctx = LipschitzContext(m=8, y_norm=[], k_z=[], tau=[])
        assert sbqc_layer_lipschitz_constant(ctx) == regression_lipschitz_constant(ctx) == []

    def test_scalar_contexts_still_give_floats(self):
        assert type(sbqc_lipschitz_constant(0.3)) is float
        assert type(sbqc_layer_lipschitz_constant(LipschitzContext(m=1, y_norm=0.0, k_z=2.0, tau=0.3))) is float
        assert type(regression_lipschitz_constant(LipschitzContext(m=4, y_norm=1.0, k_z=2.0))) is float

    @pytest.mark.parametrize("k_z, match", [([1.0, -1.0], "k_z must be >= 0, got -1.0"),
                                            ([1.0, np.nan], "k_z must be finite"),
                                            ([np.inf, 1.0], "k_z must be finite")])
    def test_one_bad_head_fails_the_context(self, k_z, match):
        with pytest.raises(ValueError, match=match):
            LipschitzContext(m=8, y_norm=[0.0, 0.0], k_z=k_z)
        with pytest.raises(ValueError, match="y_norm must be finite"):
            LipschitzContext(m=8, y_norm=[0.0, np.inf], k_z=[1.0, 1.0])

    @pytest.mark.parametrize("fields, match", [
        (dict(y_norm=[0.0, 1.0, 2.0], k_z=[1.0, 1.0]), "y_norm has 3 entries"),
        (dict(y_norm=0.0, k_z=[1.0, 1.0], tau=[0.3]), "tau has 1 entries"),
        (dict(y_norm=[0.0, 1.0], k_z=1.0), "y_norm has 2 entries"),
        (dict(y_norm=0.0, k_z=1.0, tau=[0.3]), "tau has 1 entries"),
    ])
    def test_a_list_must_match_a_list_k_z(self, fields, match):
        # the constants zip the lists, so an extra or missing entry would be dropped without a word
        with pytest.raises(ValueError, match=match):
            LipschitzContext(m=8, **fields)


class TestInvalidKzOfALiveHead:
    @staticmethod
    def _poison_k_z(monkeypatch, head):
        original = trainer.forward

        def poisoned(model, batch, *args, **kwargs):
            out, trace = original(model, batch, *args, **kwargs)
            k_z = trace.head_k_z.copy()
            k_z[head] = np.nan
            trace.__dict__["head_k_z"] = k_z  # the cached property's slot
            return out, trace
        monkeypatch.setattr(trainer, "forward", poisoned)

    def test_raises_the_contexts_error(self, monkeypatch):
        self._poison_k_z(monkeypatch, 1)
        folds = _folds("classification", (50,), (1.0,))
        with pytest.raises(ValueError, match="k_z must be finite"):
            train_single(SBQC, *folds[0], [1, 2, 3])

    def test_a_finished_head_is_not_checked(self, monkeypatch):
        # head 0's loss fails at its first step, so its k_z never enters a context
        self._poison_k_z(monkeypatch, 0)
        original = trainer.batch_loss

        def failing_head_0(spec, predictions, targets, reduction="mean"):
            value, grad = original(spec, predictions, targets, reduction)
            if reduction == "none":
                value = value.copy()
                value[0] = np.nan
            return value, grad
        monkeypatch.setattr(trainer, "batch_loss", failing_head_0)
        X, y, Xv, yv = _folds("regression", (50,), (1.0,))[0]
        runs = train_single(REGRESSION, X, y, Xv, yv, [1, 2])
        assert runs[0].diverged and runs[0].k_trace == []
        assert not runs[1].diverged and len(runs[1].k_trace) == 3 * 4
