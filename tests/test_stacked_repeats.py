"""Stacked repeats: a fold's runs trained as one ModelStack.

Every run of a stack must equal, field for field and bit for bit, the run
its seed trains alone, so every comparison here is exact.  The solo runs
are checked in turn against ``_reference_run``, the single-network Adam loop
that ``train_single`` ran before runs were stacked.
"""

import math

import numpy as np
import pytest

from quantloss import optim, trainer, verify
from quantloss.classify import sbqc_batch_loss
from quantloss.data import load_csv
from quantloss.losses import LossKind, LossSpec
from quantloss.network import LayerSpec, Workspace, backward, forward, init_model, stack_models
from quantloss.optim import (
    AdamState,
    LipschitzContext,
    adam_step,
    lalr_lr,
    lbfgs_step,
    sbqc_layer_lipschitz_constant,
)
from quantloss.trainer import OptimizerSpec, SingleRun, TrainConfig, train_single

SEEDS = [101, 202, 303, 404, 505]


def _split(task, outputs=1, n=90, n_val=30, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n + n_val, 4))
    signal = X @ np.array([1.0, -2.0, 0.5, 0.0])
    if task == "classification":
        y = (signal + 0.5 * rng.normal(size=n + n_val) > 0).astype(float)
    elif outputs == 1:
        y = signal + 0.1 * rng.normal(size=n + n_val)
    else:
        y = np.column_stack([signal, np.sin(X[:, 0])]) + 0.1 * rng.normal(size=(n + n_val, 2))
    return X[:n], y[:n], X[n:], y[n:]


CASES = {
    "sbqc-lalr-adam": (
        TrainConfig(task="classification", hidden_sizes=(12,), sbqc_tau=0.3,
                    optimizer=OptimizerSpec(kind="lalr-adam"), epochs=4, batch_size=16),
        _split("classification"),
    ),
    "logcosh-adam-exponential": (
        TrainConfig(task="regression", hidden_sizes=(12,), activation="tanh",
                    loss=LossSpec(LossKind.LOG_COSH), optimizer=OptimizerSpec(kind="adam", lr=0.05),
                    lr_policy="exponential", epochs=4, batch_size=16),
        _split("regression"),
    ),
    # the shape of acceptance criterion 10, shrunk: multi-output, LALR, dropout 0.1
    "two-output-lalr-dropout": (
        TrainConfig(task="regression", hidden_sizes=(16, 8), dropout=0.1,
                    loss=LossSpec(LossKind.LOG_COSH), optimizer=OptimizerSpec(kind="lalr-adam"),
                    epochs=4, batch_size=16),
        _split("regression", outputs=2),
    ),
}


def _differences(got: SingleRun, want: SingleRun) -> list[str]:
    out = [
        name for name in ("train_loss", "val_loss", "val_metric", "lr_trace", "k_trace", "best_epoch",
                          "diverged", "line_search_failures")
        if getattr(got, name) != getattr(want, name)
    ]
    return out + [name for name in ("best_params", "final_params")
                  if not np.array_equal(getattr(got, name), getattr(want, name))]


def _loss(config, out, y):
    """Mean batch loss and d loss / d outputs of one network's (m, out) outputs; the regression
    loss is ``trainer.batch_loss``, which some tests replace by a faulty one."""
    if config.task == "classification":
        value, grad = sbqc_batch_loss(y, out[:, 0], config.sbqc_tau)
        return value, grad.reshape(-1, 1)
    return trainer.batch_loss(config.loss, out, y.reshape(out.shape))


def _reference_run(config, X, y, Xv, yv, seed) -> SingleRun:
    """One run on a single network, one batch at a time, as before stacking."""
    out_dim = 1 if config.task == "classification" or y.ndim == 1 else y.shape[1]
    spec = trainer._layer_spec(config, X.shape[1], out_dim)
    model = init_model(spec, seed)
    ws = Workspace(spec)
    log = SingleRun.start(config.task == "classification", config.lr_policy == "lalr")
    y2 = y if y.ndim == 2 else y.reshape(-1, 1)
    y_norm = float(np.max(np.linalg.norm(y2, axis=1))) if config.task == "regression" else 0.0
    state = AdamState.zeros(model.params.size, config.optimizer.beta1, config.optimizer.beta2)
    batch_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C4]))
    mask_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD809]))
    dropout = any(p > 0 for p in spec.dropout)
    for epoch in range(config.epochs):
        order = batch_rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], config.batch_size):
            idx = order[start : start + config.batch_size]
            mask_seed = int(mask_rng.integers(0, 2**63)) if dropout else 0
            out, trace = forward(model, X[idx], train_mode=dropout, seed=mask_seed, workspace=ws)
            try:
                value, pred_grad = _loss(config, out, y[idx])
            except ValueError:
                return log.finish(model.params.copy(), diverged=True)
            if not math.isfinite(value):
                return log.finish(model.params.copy(), diverged=True)
            backward(model, trace, pred_grad, workspace=ws)
            if log.lr_trace is not None:
                ctx = LipschitzContext(m=len(idx), y_norm=y_norm, k_z=trace.k_z,
                                       tau=config.sbqc_tau if config.task == "classification" else None)
                K = (sbqc_layer_lipschitz_constant(ctx) if config.task == "classification"
                     else trainer._layer_constant(config, ctx))
                lr = lalr_lr(K, config.optimizer.lr_min, config.optimizer.lr_max)
                log.k_trace.append(K)
                log.lr_trace.append(lr)
            else:
                lr = trainer._epoch_lr(config, epoch)
            try:
                adam_step(state, model.params, ws.grad, lr)
            except ValueError:
                return log.finish(model.params.copy(), diverged=True)
        try:
            out, _ = forward(model, X, workspace=ws)
            tl = float(_loss(config, out, y)[0])
            out_val, _ = forward(model, Xv, workspace=ws)
            vl = float(_loss(config, out_val, yv)[0])
            vm = trainer._head_val_metrics(config, out_val[None], yv)[0]
        except ValueError:
            return log.finish(model.params.copy(), diverged=True)
        if not (math.isfinite(tl) and math.isfinite(vl)):
            return log.finish(model.params.copy(), diverged=True)
        log.record(tl, vl, vm, model.params)
    return log.finish(model.params.copy(), diverged=False)


class TestStackEqualsSoloRuns:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("runs", [1, 2, 5])
    def test_each_run_of_a_stack_equals_its_solo_run(self, case, runs):
        config, split = CASES[case]
        seeds = SEEDS[:runs]
        stacked = train_single(config, *split, seeds)
        assert isinstance(stacked, list) and len(stacked) == runs
        for seed, got in zip(seeds, stacked):
            solo = train_single(config, *split, seed)
            assert isinstance(solo, SingleRun)
            assert _differences(got, solo) == []
            assert not got.diverged and len(got.val_metric) == config.epochs

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solo_run_equals_the_single_network_loop(self, case):
        config, split = CASES[case]
        for seed in SEEDS[:2]:
            solo = train_single(config, *split, seed)
            assert _differences(solo, _reference_run(config, *split, seed)) == []

    def test_seed_tuple_and_empty_sequence(self):
        config, split = CASES["sbqc-lalr-adam"]
        runs = train_single(config, *split, (7, 8))
        assert [_differences(r, train_single(config, *split, s)) for r, s in zip(runs, (7, 8))] == [[], []]
        with pytest.raises(ValueError, match="at least one seed"):
            train_single(config, *split, [])


def _diverging_split():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([1.0, -2.0, 0.5])
    Xv = rng.normal(size=(20, 3))
    yv = Xv @ np.array([1.0, -2.0, 0.5])
    return X, y, Xv, yv


def _huge_lr_config(task, loss, activation, lr):
    return TrainConfig(task=task, loss=loss, hidden_sizes=(8,), activation=activation,
                       optimizer=OptimizerSpec(kind="adam", lr=lr, lr_max=1e308), epochs=6, batch_size=16)


def _infinite_slope_above(threshold):
    """Log-cosh whose slope is +inf wherever |prediction| > threshold: finite
    values, a non-finite gradient, decided element by element."""
    original = trainer.batch_loss

    def patched(spec, predictions, targets, reduction="mean"):
        value, grad = original(spec, predictions, targets, reduction)
        return value, np.where(np.abs(predictions) > threshold, np.inf, grad)
    return patched


def _nan_value_above_infinite_slope_below(high, low, stacked_steps):
    """Log-cosh whose value is NaN for an example with |prediction| > high and
    whose slope is +inf where low < |prediction| <= high.  Each stacked
    minibatch call appends to ``stacked_steps`` the heads it finishes by
    their value and the heads it finishes by their gradient alone."""
    original = trainer.batch_loss

    def patched(spec, predictions, targets, reduction="mean"):
        value, grad = original(spec, predictions, targets, reduction)
        size = np.abs(predictions)
        nan_at, inf_at = size > high, (size > low) & (size <= high)
        if reduction == "none":  # (heads, m, out) predictions, one value per head and example
            value = np.where(nan_at.any(axis=-1), np.nan, value)
            by_value, by_slope = nan_at.any(axis=(1, 2)), inf_at.any(axis=(1, 2))
            if len(predictions) > 1 and predictions.shape[1] <= 16:
                stacked_steps.append((np.flatnonzero(by_value).tolist(),
                                      np.flatnonzero(by_slope & ~by_value).tolist()))
        elif nan_at.any():
            value = np.nan
        return value, np.where(inf_at, np.inf, grad)
    return patched


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
class TestDivergenceInsideAStack:
    """Huge rates blow some runs up and not others; each run must stop where
    its solo run stops, and the rest must train on unchanged."""

    CASES = {
        # the sBQC loss raises on an overflowed latent (seed 5, in epoch 6)
        "sbqc-valueerror": _huge_lr_config("classification", None, "relu", 1e153),
        # mse overflows to a non-finite batch value in epoch 0 (all seeds but 1)
        "nonfinite-batch-value": _huge_lr_config("regression", LossSpec(LossKind.MSE), "tanh", 1e153),
        # the epoch evaluation overflows on the whole split (seed 4, after one epoch)
        "failed-evaluation": _huge_lr_config("regression", LossSpec(LossKind.LOG_COSH), "tanh", 9.04e305),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_diverged_and_healthy_runs_equal_their_solo_runs(self, case):
        config = self.CASES[case]
        X, y, Xv, yv = _diverging_split()
        if config.task == "classification":
            y, yv = (y > 0).astype(float), (yv > 0).astype(float)
        seeds = list(range(6))
        stacked = train_single(config, X, y, Xv, yv, seeds)
        for seed, got in zip(seeds, stacked):
            solo = train_single(config, X, y, Xv, yv, seed)
            assert _differences(got, solo) == []
            assert _differences(solo, _reference_run(config, X, y, Xv, yv, seed)) == []
        diverged = [r.diverged for r in stacked]
        assert any(diverged) and not all(diverged)

    def test_nonfinite_gradient_stops_only_its_run(self, monkeypatch):
        # seeds 0, 1 and 5 stop in epochs 4, 3 and 1; seeds 2-4 train all 6
        monkeypatch.setattr(trainer, "batch_loss", _infinite_slope_above(6.0))
        config = TrainConfig(task="regression", hidden_sizes=(8,), loss=LossSpec(LossKind.LOG_COSH),
                             optimizer=OptimizerSpec(kind="adam", lr=0.05), epochs=6, batch_size=16)
        X, y, Xv, yv = _diverging_split()
        seeds = list(range(6))
        stacked = train_single(config, X, y, Xv, yv, seeds)
        for seed, got in zip(seeds, stacked):
            assert _differences(got, train_single(config, X, y, Xv, yv, seed)) == []
            assert _differences(got, _reference_run(config, X, y, Xv, yv, seed)) == []
        diverged = [r.diverged for r in stacked]
        assert any(diverged) and not all(diverged)

    def test_one_step_finishes_a_run_by_its_loss_and_another_by_its_gradient(self, monkeypatch):
        # in one step of the 4 heads still alive, one prediction passes 6.9
        # (NaN loss) and another head's largest lands in (5.9, 6.9] (infinite
        # slope); seed 4 trains all 6 epochs
        stacked_steps = []
        monkeypatch.setattr(trainer, "batch_loss", _nan_value_above_infinite_slope_below(6.9, 5.9, stacked_steps))
        config = TrainConfig(task="regression", hidden_sizes=(8,), loss=LossSpec(LossKind.LOG_COSH),
                             optimizer=OptimizerSpec(kind="adam", lr=0.2), epochs=6, batch_size=16)
        X, y, Xv, yv = _diverging_split()
        seeds = list(range(6))
        stacked = train_single(config, X, y, Xv, yv, seeds)
        assert any(by_value and by_slope for by_value, by_slope in stacked_steps)
        for seed, got in zip(seeds, stacked):
            assert _differences(got, train_single(config, X, y, Xv, yv, seed)) == []
            assert _differences(got, _reference_run(config, X, y, Xv, yv, seed)) == []
        diverged = [r.diverged for r in stacked]
        assert any(diverged) and not all(diverged)

    @pytest.mark.parametrize("seed", [0, [0, 1, 2]])
    def test_a_label_outside_zero_one_raises(self, seed):
        config, (X, y, Xv, yv) = CASES["sbqc-lalr-adam"]
        y = y.copy()
        y[5] = 2.0
        with pytest.raises(ValueError, match=r"labels must lie in \{0, 1\}"):
            train_single(config, X, y, Xv, yv, seed)

    @pytest.mark.parametrize("kind", ["lalr-adam", "lbfgs"])
    @pytest.mark.parametrize("seed", [0, [0, 1, 2]])
    def test_a_validation_label_outside_zero_one_raises(self, kind, seed):
        # L-BFGS used to record such a run as diverged after 0 epochs
        ds = load_csv(verify.TOY_CLASSIFICATION, "label")
        config = TrainConfig(task="classification", hidden_sizes=(8,), optimizer=OptimizerSpec(kind=kind),
                             epochs=2, batch_size=4)
        yv = ds.y.copy()
        yv[3] = 2.0
        with pytest.raises(ValueError, match=r"labels must lie in \{0, 1\}"):
            train_single(config, ds.X, ds.y, ds.X, yv, seed)

    def test_lbfgs_non_finite_validation_outputs_end_the_run(self, monkeypatch):
        monkeypatch.setattr(trainer, "predict", lambda *args, **kwargs: np.full((30, 1), np.nan))
        config = TrainConfig(task="regression", hidden_sizes=(8,), loss=LossSpec(LossKind.MSE),
                             optimizer=OptimizerSpec(kind="lbfgs"), epochs=5)
        X, y, Xv, yv = _split("regression")
        run = train_single(config, X, y, Xv, yv, 0)
        assert run.diverged and run.train_loss == [] and run.best_epoch == 0

    def test_lbfgs_rejected_first_step_ends_the_run(self, monkeypatch):
        # from an empty memory, a rejected line search would fail again from
        # the same point, gradient and direction: one epoch, one line search
        steps = []

        def counting_lbfgs_step(*args, **kwargs):
            steps.append(lbfgs_step(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(optim, "lbfgs_step", counting_lbfgs_step)
        config = TrainConfig(task="regression", hidden_sizes=(8,), loss=LossSpec(LossKind.MSE),
                             optimizer=OptimizerSpec(kind="lbfgs", max_line_search=1), epochs=5)
        X, y, Xv, yv = _diverging_split()
        run = train_single(config, X, 50 * y, Xv, 50 * yv, 0)
        assert [s.accepted for s in steps] == [False]
        assert len(run.train_loss) == 1 and run.line_search_failures == 1
        assert not run.diverged and run.best_epoch == 0


class TestJobs:
    def test_chunks_follow_workers_per_fold(self, monkeypatch):
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 8)
        adam = TrainConfig(task="classification", repeats=5)
        monkeypatch.setenv("QUANTLOSS_THREADS", "2")
        every = (0, 1, 2, 3, 4)
        assert trainer._jobs(adam, 5) == [
            [(0, every), (1, every), (2, (0, 1, 2))],
            [(2, (3, 4)), (3, every), (4, every)],
        ]
        monkeypatch.setenv("QUANTLOSS_THREADS", "8")
        assert trainer._jobs(adam, 5) == [
            [(0, (0, 1, 2, 3))], [(0, (4,)), (1, (0, 1))], [(1, (2, 3, 4))], [(2, (0, 1, 2))],
            [(2, (3, 4)), (3, (0,))], [(3, (1, 2, 3))], [(3, (4,)), (4, (0, 1))], [(4, (2, 3, 4))],
        ]
        assert len(trainer._jobs(TrainConfig(task="classification", repeats=1), 2)) == 2
        lbfgs = TrainConfig(task="classification", repeats=3, optimizer=OptimizerSpec(kind="lbfgs"))
        assert trainer._jobs(lbfgs, 2) == [[(f, (r,))] for f in range(2) for r in range(3)]

    @pytest.mark.parametrize("workers", range(1, 9))
    def test_bins_cover_the_grid_in_order_and_balance_it(self, monkeypatch, workers):
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 8)
        monkeypatch.setenv("QUANTLOSS_THREADS", str(workers))
        for folds in range(2, 6):
            for repeats in range(1, 8):
                bins = trainer._jobs(TrainConfig(task="classification", repeats=repeats), folds)
                runs = [(f, r) for pieces in bins for f, part in pieces for r in part]
                assert runs == [(f, r) for f in range(folds) for r in range(repeats)]
                assert len(bins) == min(workers, folds * repeats)
                sizes = [sum(len(part) for _, part in pieces) for pieces in bins]
                assert max(sizes) - min(sizes) <= 1
                # each piece is one fold's contiguous repeats, and a bin has one piece per fold
                for pieces in bins:
                    assert [f for f, _ in pieces] == sorted({f for f, _ in pieces})
                    assert all(part == tuple(range(part[0], part[-1] + 1)) for _, part in pieces)
                if workers == 1:
                    assert bins == [[(f, tuple(range(repeats))) for f in range(folds)]]
                lbfgs = TrainConfig(task="classification", repeats=repeats, optimizer=OptimizerSpec(kind="lbfgs"))
                assert trainer._jobs(lbfgs, folds) == [
                    [(f, (r,))] for f in range(folds) for r in range(repeats)
                ]

    def test_records_do_not_depend_on_the_chunking(self):
        from quantloss.data import stratified_kfold
        from quantloss.synthetic import pima_like

        ds = pima_like(n=150)
        plan = stratified_kfold(ds, k=2, val_fraction=0.2, seed=0)
        config = TrainConfig(task="classification", hidden_sizes=(8,), dropout=0.2,
                             optimizer=OptimizerSpec(kind="lalr-adam"), epochs=3, batch_size=32, repeats=3)
        inputs = trainer._job_inputs(config, plan, ds)
        whole = trainer._run_bin([(1, (0, 1, 2))], inputs)
        split = trainer._run_bin([(1, (0,))], inputs) + trainer._run_bin([(1, (1, 2))], inputs)
        assert [r.to_dict() for r in whole] == [r.to_dict() for r in split]
        assert all(np.array_equal(a.best_params, b.best_params) for a, b in zip(whole, split))


class TestPerHeadAdamRates:
    def test_vector_rate_equals_scalar_steps_on_each_head_slice(self):
        rng = np.random.default_rng(0)
        heads, size = 3, 7
        params = rng.normal(size=heads * size)
        alone = [params[j * size : (j + 1) * size].copy() for j in range(heads)]
        state = AdamState.zeros(heads * size)
        states = [AdamState.zeros(size) for _ in range(heads)]
        for _ in range(20):
            grads = rng.normal(size=heads * size)
            rates = rng.uniform(1e-3, 1.0, size=heads)
            adam_step(state, params, grads, rates)
            for j in range(heads):
                adam_step(states[j], alone[j], grads[j * size : (j + 1) * size], float(rates[j]))
        for j in range(heads):
            np.testing.assert_array_equal(params[j * size : (j + 1) * size], alone[j])
            np.testing.assert_array_equal(state.exp_avg[j * size : (j + 1) * size], states[j].exp_avg)
            np.testing.assert_array_equal(state.exp_avg_sq[j * size : (j + 1) * size], states[j].exp_avg_sq)

    @pytest.mark.parametrize("rates, match", [
        ([0.1, 0.2, 0.3, 0.4], "one rate per equal head slice"),
        ([[0.1, 0.2]], "one rate per equal head slice"),
        ([0.1, 0.0, 0.3], r"lr\[1\] must be finite and > 0, got 0.0"),
        ([0.1, 0.2, -0.3], r"lr\[2\] must be finite and > 0, got -0.3"),
        ([np.nan, 0.2, 0.3], r"lr\[0\] must be finite and > 0, got nan"),
        ([0.1, np.inf, 0.3], r"lr\[1\] must be finite and > 0, got inf"),
    ])
    def test_bad_rates_are_named_and_change_nothing(self, rates, match):
        rng = np.random.default_rng(1)
        params = rng.normal(size=9)
        state = AdamState.zeros(9)
        adam_step(state, params, rng.normal(size=9), [0.1, 0.2, 0.3])
        before = (params.copy(), state.exp_avg.copy(), state.exp_avg_sq.copy(), state.step)
        with pytest.raises(ValueError, match=match):
            adam_step(state, params, rng.normal(size=9), rates)
        np.testing.assert_array_equal(params, before[0])
        np.testing.assert_array_equal(state.exp_avg, before[1])
        np.testing.assert_array_equal(state.exp_avg_sq, before[2])
        assert state.step == before[3]


class TestStackedForwardShapes:
    def test_three_d_batch_must_lead_with_the_head_count(self):
        spec = LayerSpec(4, (6,), 1)
        stack = stack_models([init_model(spec, s) for s in (1, 2, 3)])
        with pytest.raises(ValueError, match=r"batch must be \(m, 4\) or \(3, m, 4\), got \(2, 5, 4\)"):
            forward(stack, np.zeros((2, 5, 4)))
        with pytest.raises(ValueError, match=r"\(3, m, 4\), got \(3, 5, 2\)"):
            forward(stack, np.zeros((3, 5, 2)))

    def test_single_network_rejects_a_three_d_batch(self):
        model = init_model(LayerSpec(4, (6,), 1), 0)
        with pytest.raises(ValueError, match=r"batch must be \(m, 4\), got \(1, 5, 4\)"):
            forward(model, np.zeros((1, 5, 4)))
        with pytest.raises(ValueError, match="dropout needs one seed, got 1 seeds"):
            forward(init_model(LayerSpec(4, (6,), 1, dropout=0.5), 0), np.zeros((5, 4)),
                    train_mode=True, seed=[1])

    def test_per_head_batches_masks_and_k_z_equal_solo_calls(self):
        spec = LayerSpec(4, (6, 5), 2, activation="tanh", dropout=(0.3, 0.2))
        models = [init_model(spec, s) for s in (1, 2, 3)]
        stack = stack_models(models)
        ws = Workspace(spec, stack.heads)
        rng = np.random.default_rng(0)
        for rows in (16, 7, 16):
            x = rng.normal(size=(3, rows, 4))
            seeds = [int(s) for s in rng.integers(0, 2**63, size=3)]
            out, trace = forward(stack, x, train_mode=True, seed=seeds, workspace=ws)
            for j, model in enumerate(models):
                want_out, want = forward(model, x[j], train_mode=True, seed=seeds[j])
                np.testing.assert_array_equal(out[j], want_out)
                # the output layer never drops, so its mask is None
                for got_mask, want_mask in zip(trace.dropout_masks[:-1], want.dropout_masks[:-1]):
                    np.testing.assert_array_equal(got_mask[j], want_mask)
                assert trace.head_k_z[j] == want.k_z
            assert trace.k_z == max(trace.head_k_z)
            grad = rng.normal(size=(3, rows, 2))
            backward(stack, trace, grad, workspace=ws)
            for j, model in enumerate(models):
                _, want = forward(model, x[j], train_mode=True, seed=seeds[j])
                single = Workspace(spec)
                backward(model, want, grad[j], workspace=single)
                np.testing.assert_array_equal(ws.grad.reshape(3, -1)[j], single.grad)


class TestRowwiseSbqcBatchLoss:
    @pytest.mark.parametrize("m", [1, 9, 64, 129, 300])
    def test_each_row_equals_its_own_batch(self, m):
        rng = np.random.default_rng(m)
        z = rng.normal(scale=3.0, size=(4, m))
        y = (rng.random(size=(4, m)) > 0.5).astype(float)
        values, grad = sbqc_batch_loss(y, z, 0.3)
        assert values.shape == (4,) and grad.shape == (4, m)
        for j in range(4):
            value, g = sbqc_batch_loss(y[j], z[j], 0.3)
            assert values[j] == value
            np.testing.assert_array_equal(grad[j], g)
        # a label vector shared by every row broadcasts
        shared, _ = sbqc_batch_loss(y[0], z, 0.3)
        assert shared[2] == sbqc_batch_loss(y[0], z[2], 0.3)[0]


class TestVerifyCheck:
    def test_passes(self):
        result = verify.check_stacked_repeats()
        assert result.name == "trainer.stacked_repeats"
        assert result.passed and result.measured == 0 and result.limit == 0

    def test_fails_when_one_head_is_perturbed(self, monkeypatch):
        def nudged_adam_step(state, params, grads, lr):
            out = adam_step(state, params, grads, lr)
            if np.ndim(lr) == 1 and len(lr) == 2:
                params[-1] += 1e-9  # the last head's last parameter
            return out

        monkeypatch.setattr(trainer, "adam_step", nudged_adam_step)
        result = verify.check_stacked_repeats()
        assert not result.passed and result.measured >= 1
