"""Optimizers and layer constants.

Frozen constants come from the 40-digit mpmath oracle.  The L-BFGS exactness
oracle is a dense linear solve; the conjugate-pair construction makes the
two-loop implicit matrix equal the true inverse after n updates.

The empirical slope check for the classification loss at tau = 0.5 is a known
defect of the stated bound and is marked as a strict expected failure; the
analysis lives in README.md ("Known bound defect").
"""

import math

import numpy as np
import pytest

from quantloss.classify import sbqc_loss
from quantloss.network import LayerSpec, forward, init_model
from quantloss.optim import (
    CURVATURE_MIN,
    AdamState,
    LBFGSMemory,
    LipschitzContext,
    adam_step,
    lalr_lr,
    lbfgs_direction,
    lbfgs_step,
    minimize_lbfgs,
    regression_lipschitz_constant,
    sbqc_lipschitz_constant,
)

THM2_EXAMPLE = 0.3807970779778824     # 0.25 tanh(1) 2
LALR_EXAMPLE = 2.6260705709986626     # 1 / THM2_EXAMPLE
SIX_OVER_PI = 1.9098593171027440
TWO_OVER_PI = 0.6366197723675813


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        state = AdamState.zeros(3)
        p, state = adam_step(state, np.ones(3), np.zeros(3), lr=0.1)
        np.testing.assert_array_equal(p, np.ones(3))
        assert state.step == 1

    def test_first_step_is_signed(self):
        state = AdamState.zeros(4)
        g = np.array([3.0, -0.5, 0.0, 1e-3])
        p, _ = adam_step(state, np.zeros(4), g, lr=0.01)
        assert p[0] < 0 and p[1] > 0 and p[2] == 0 and p[3] < 0
        # magnitude ~ lr for nonzero entries (first-step property of Adam)
        assert abs(p[0]) == pytest.approx(0.01, rel=1e-4)

    def test_deterministic_trajectory(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(20, 5))

        def run():
            state = AdamState.zeros(5)
            p = np.zeros(5)
            for g in grads:
                p, state = adam_step(state, p, g, lr=0.05)
            return p

        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_rejected(self):
        state = AdamState.zeros(2)
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(2), np.array([1.0, np.nan]), lr=0.1)
        assert state.step == 0  # state untouched by the rejected step


class TestLipschitzConstants:
    def test_regression_example(self):
        ctx = LipschitzContext(m=4, y_norm=1.0, k_z=2.0, g_at_zero=0.0)
        assert regression_lipschitz_constant(ctx) == pytest.approx(THM2_EXAMPLE, abs=1e-12)

    def test_degenerate_floors(self):
        ctx = LipschitzContext(m=4, y_norm=0.0, k_z=2.0, g_at_zero=0.0)
        assert regression_lipschitz_constant(ctx) == 1e-12
        ctx = LipschitzContext(m=4, y_norm=1.0, k_z=0.0)
        assert regression_lipschitz_constant(ctx) == 1e-12

    def test_doubling_batch_halves_constant(self):
        a = regression_lipschitz_constant(LipschitzContext(m=8, y_norm=2.0, k_z=3.0))
        b = regression_lipschitz_constant(LipschitzContext(m=16, y_norm=2.0, k_z=3.0))
        assert a == pytest.approx(2 * b, rel=1e-12)

    def test_sbqc_constant_values(self):
        assert sbqc_lipschitz_constant(0.5) == pytest.approx(TWO_OVER_PI, abs=1e-15)
        assert sbqc_lipschitz_constant(0.25) == pytest.approx(SIX_OVER_PI, abs=1e-15)
        assert sbqc_lipschitz_constant(0.75) == pytest.approx(SIX_OVER_PI, abs=1e-15)

    def test_sbqc_tau_domain(self):
        with pytest.raises(ValueError):
            sbqc_lipschitz_constant(0.0)
        with pytest.raises(ValueError):
            sbqc_lipschitz_constant(1.0)

    def test_lalr_clamping(self):
        assert lalr_lr(THM2_EXAMPLE) == pytest.approx(LALR_EXAMPLE, abs=1e-12)
        assert lalr_lr(1e9) == 1e-4
        assert lalr_lr(1e-12) == 10.0

    def test_context_validation(self):
        with pytest.raises(ValueError):
            LipschitzContext(m=0, y_norm=1.0, k_z=1.0)
        with pytest.raises(ValueError):
            LipschitzContext(m=1, y_norm=float("inf"), k_z=1.0)


class TestLBFGSDirection:
    def test_empty_memory_gives_negative_gradient(self):
        g = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(lbfgs_direction(LBFGSMemory(), g), -g)

    def test_conjugate_pairs_reproduce_inverse(self):
        # with A-conjugate pairs (s, As) the implicit matrix equals A^-1
        rng = np.random.default_rng(4)
        for n in (2, 3, 5):
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            A = Q @ np.diag(rng.uniform(0.5, 5.0, n)) @ Q.T
            vs = []
            for k in range(n):
                v = np.eye(n)[k].astype(float)
                for s in vs:
                    v -= (s @ A @ v) / (s @ A @ s) * s
                vs.append(v)
            mem = LBFGSMemory(m_hist=n + 2)
            for s in vs:
                mem.push(s, A @ s)
            for _ in range(20):
                g = rng.normal(size=n)
                oracle = -np.linalg.solve(A, g)  # brute-force linear solve
                np.testing.assert_allclose(lbfgs_direction(mem, g), oracle, atol=1e-8)

    def test_descent_for_random_gradients(self):
        rng = np.random.default_rng(5)
        n = 10
        A = rng.normal(size=(n, n))
        A = A @ A.T + np.eye(n)
        mem = LBFGSMemory(m_hist=10)
        for _ in range(10):
            s = rng.normal(size=n)
            mem.push(s, A @ s)
        for _ in range(1000):
            g = rng.normal(size=n)
            assert lbfgs_direction(mem, g) @ g < 0

    def test_non_finite_gradient(self):
        with pytest.raises(ValueError):
            lbfgs_direction(LBFGSMemory(), np.array([np.inf, 0.0]))

    def test_curvature_filter_rejects_flat_pairs(self):
        mem = LBFGSMemory()
        assert not mem.push(np.zeros(3), np.ones(3))
        assert not mem.push(np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]))
        assert len(mem) == 0

    def test_ring_evicts_oldest(self):
        mem = LBFGSMemory(m_hist=2)
        for k in range(1, 5):
            mem.push(np.array([float(k), 0.0]), np.array([float(k), 0.0]))
        assert len(mem) == 2
        assert mem.s_list[0][0] == 3.0


class TestLBFGSStep:
    def test_stationary_point_keeps_params(self):
        def obj(x):
            return float(x @ x), 2 * x

        step = lbfgs_step(obj, np.zeros(3), LBFGSMemory())
        np.testing.assert_array_equal(step.params, np.zeros(3))
        assert step.accepted

    def test_line_search_exhaustion_clears_memory(self):
        mem = LBFGSMemory()
        mem.push(np.ones(2), np.ones(2))

        calls = {"n": 0}

        def hostile(x):
            # a gradient pointing uphill everywhere off the start
            calls["n"] += 1
            if calls["n"] == 1:
                return 0.0, np.array([1.0, 0.0])
            return 1.0, np.array([1.0, 0.0])

        step = lbfgs_step(hostile, np.zeros(2), mem, max_backtracks=5)
        assert not step.accepted
        assert len(mem) == 0
        np.testing.assert_array_equal(step.params, np.zeros(2))

    def test_memory_pairs_satisfy_curvature_filter(self):
        rng = np.random.default_rng(6)
        n = 8
        A = rng.normal(size=(n, n))
        A = A @ A.T + 0.5 * np.eye(n)

        def obj(x):
            return 0.5 * float(x @ A @ x), A @ x

        mem = LBFGSMemory(m_hist=6)
        x = rng.normal(size=n) * 3
        for _ in range(25):
            step = lbfgs_step(obj, x, mem)
            x = step.params
        assert all(c > CURVATURE_MIN for c in mem.curvatures())

    def test_accepted_steps_never_increase_objective(self):
        rng = np.random.default_rng(7)
        n = 10
        A = rng.normal(size=(n, n))
        A = A @ A.T + np.eye(n)
        b = rng.normal(size=n)

        def obj(x):
            return 0.5 * float(x @ A @ x) - float(b @ x), A @ x - b

        res = minimize_lbfgs(obj, rng.normal(size=n) * 2, max_iter=60, gtol=1e-12)
        assert all(v2 <= v1 for v1, v2 in zip(res.values, res.values[1:]))


class TestMinimize:
    def test_sphere_50d_converges_fast(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=50)

        def obj(x):
            d = x - c
            return float(d @ d), 2 * d

        res = minimize_lbfgs(obj, rng.normal(size=50) * 10, max_iter=60, gtol=1e-8)
        assert res.converged
        assert res.iterations <= 60
        assert res.grad_norm <= 1e-8

    def test_scalar_logcosh_finds_three(self):
        def obj(x):
            r = x[0] - 3.0
            a = abs(r)
            return a - math.log(2.0) + math.log1p(math.exp(-2 * a)), np.array([math.tanh(r)])

        res = minimize_lbfgs(obj, np.array([-20.0]), max_iter=30, gtol=1e-9)
        # bisection oracle: the unique root of tanh(x - 3)
        assert abs(res.x[0] - 3.0) <= 1e-6
        assert res.iterations <= 30


def _quadratic(scale: float = 1.0, seed: int = 1, n: int = 6):
    """0.5 x.Ax with A's eigenvalues in scale * [0.05, 1.9], and a start point.  At scale 1 and
    ``max_backtracks=1`` the sixth step is rejected from a full memory; at scale 10 the first
    step, from an empty one."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = Q @ np.diag(scale * rng.uniform(0.05, 1.9, size=n)) @ Q.T
    return (lambda x: (0.5 * float(x @ A @ x), A @ x)), rng.normal(size=n) * 3


def _reference_minimize(objective, x0, max_iter, gtol, m_hist, max_backtracks):
    """``minimize_lbfgs`` before it took a callback, as a plain loop."""
    x, mem = np.asarray(x0, dtype=float).copy(), LBFGSMemory(m_hist=m_hist)
    f, g = objective(x)
    values = [float(f)]
    for it in range(max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= gtol:
            return x, f, g, gnorm, it, True, values
        had_memory = len(mem) > 0
        step = lbfgs_step(objective, x, mem, 1e-4, max_backtracks, value_grad=(f, g))
        if not step.accepted:
            if not had_memory:
                return x, f, g, gnorm, it, False, values
            continue
        x, f, g = step.params, step.value, step.grad
        values.append(float(f))
    gnorm = float(np.linalg.norm(g))
    return x, f, g, gnorm, max_iter, gnorm <= gtol, values


class TestMinimizeCallback:
    KW = {"max_iter": 30, "gtol": 1e-12, "m_hist": 3, "max_backtracks": 1}

    def _seen(self, scale: float):
        """The run at ``scale`` and the (iteration, accepted, params) of every step its callback saw."""
        seen = []

        def callback(it, step):
            seen.append((it, step.accepted, step.params.copy()))
            return True

        obj, x0 = _quadratic(scale)
        return minimize_lbfgs(obj, x0, **self.KW, callback=callback), seen

    def test_sees_every_iteration_rejected_steps_included(self):
        res, seen = self._seen(1.0)
        accepted = [a for _, a, _ in seen]
        assert [it for it, _, _ in seen] == list(range(res.iterations)) and res.iterations == 30
        assert accepted.index(False) == 5 and accepted[6:] == [True] * 24  # the run restarts after it
        res, seen = self._seen(10.0)
        assert [(it, a) for it, a, _ in seen] == [(0, False)] and res.iterations == 0

    @pytest.mark.parametrize("k", [0, 5, 12])  # 5 is the rejected step
    def test_false_at_iteration_k_ends_the_run_at_that_step(self, k):
        _, seen = self._seen(1.0)
        obj, x0 = _quadratic()
        calls = []

        def callback(it, step):
            calls.append(it)
            return it != k

        res = minimize_lbfgs(obj, x0, **self.KW, callback=callback)
        assert calls == list(range(k + 1)) and res.iterations == k + 1
        np.testing.assert_array_equal(res.x, seen[k][2])
        assert res.value == obj(res.x)[0]

    @pytest.mark.parametrize("scale, kw", [
        (1.0, KW), (10.0, KW), (1.0, {"max_iter": 60, "gtol": 1e-8, "m_hist": 10, "max_backtracks": 25}),
    ])
    def test_no_callback_gives_the_plain_loops_result_bit_for_bit(self, scale, kw):
        obj, x0 = _quadratic(scale)
        res = minimize_lbfgs(obj, x0, **kw)
        x, f, g, gnorm, iterations, converged, values = _reference_minimize(obj, x0, **kw)
        assert (res.x.tobytes(), res.grad.tobytes()) == (x.tobytes(), g.tobytes())
        assert (res.value, res.grad_norm, res.iterations, res.converged, res.values) == (
            f, gnorm, iterations, converged, values)


class TestEmpiricalLipschitz:
    @pytest.mark.parametrize("tau", [0.1, 0.25, 0.75, 0.9])
    def test_sbqc_slopes_within_constant(self, tau):
        rng = np.random.default_rng(123)
        z1 = rng.uniform(-6, 6, 100_000)
        z2 = rng.uniform(-6, 6, 100_000)
        y = rng.integers(0, 2, 100_000).astype(float)
        v1, _ = sbqc_loss(y, z1, tau)
        v2, _ = sbqc_loss(y, z2, tau)
        den = np.abs(z2 - z1)
        keep = den > 1e-9
        worst = np.max(np.abs(v2 - v1)[keep] / den[keep])
        assert worst <= sbqc_lipschitz_constant(tau) + 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason="the slope constant 2/pi is not a global bound at tau=0.5: the "
        "loss slope tends to 1 in the tails (proof only checks the z->0 "
        "limits); see README 'Known bound defect' and the decisions ledger",
    )
    def test_sbqc_slopes_within_constant_tau_half(self):
        tau = 0.5
        rng = np.random.default_rng(123)
        z1 = rng.uniform(-6, 6, 100_000)
        z2 = rng.uniform(-6, 6, 100_000)
        y = rng.integers(0, 2, 100_000).astype(float)
        v1, _ = sbqc_loss(y, z1, tau)
        v2, _ = sbqc_loss(y, z2, tau)
        den = np.abs(z2 - z1)
        keep = den > 1e-9
        worst = np.max(np.abs(v2 - v1)[keep] / den[keep])
        assert worst <= sbqc_lipschitz_constant(tau) + 1e-6

    def test_sbqc_slope_constant_tight_where_valid(self):
        # near z = 0 the largest slope over both labels approaches the
        # constant from below, so the bound is tight where it holds
        for tau in (0.1, 0.25, 0.75, 0.9):
            z = np.linspace(-0.05, 0.05, 2001)
            worst = 0.0
            for y in (0.0, 1.0):
                v, _ = sbqc_loss(np.full(z.shape, y), z, tau)
                q = np.abs(np.diff(v)) / np.diff(z)
                assert np.max(q) <= sbqc_lipschitz_constant(tau) + 1e-6
                worst = max(worst, float(np.max(q)))
            assert worst >= 0.999 * sbqc_lipschitz_constant(tau)

    def test_regression_gradient_bound_at_critical_configuration(self):
        # the constant bounds each example's contribution to dE/dW at the
        # configuration the derivation evaluates: outputs at g(0)
        rng = np.random.default_rng(321)
        for t in range(100):
            m = int(rng.integers(2, 33))
            d_in = int(rng.integers(2, 9))
            hidden = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 3))))
            d_out = int(rng.integers(1, 5))
            spec = LayerSpec(d_in, hidden, d_out, activation="relu")
            model = init_model(spec, 5000 + t)
            model.weights[-1][...] = 0.0
            model.biases[-1][...] = 0.0
            X = rng.normal(size=(m, d_in))
            Y = rng.normal(size=(m, d_out))
            out, trace = forward(model, X)
            a_prev = trace.activations[-2]
            per_example = (
                np.abs(np.tanh(out - Y))[:, None, :] * np.abs(a_prev)[:, :, None] / m
            )
            y_norm = float(np.max(np.linalg.norm(Y, axis=1)))
            ctx = LipschitzContext(m=m, y_norm=y_norm, k_z=trace.k_z, g_at_zero=0.0)
            assert np.max(per_example) <= regression_lipschitz_constant(ctx) + 1e-8


class TestAdamInPlace:
    @staticmethod
    def _ref_step(state, params, grads, lr):
        """The allocating update, on copies of the state arrays."""
        m = state.beta1 * state.exp_avg + (1.0 - state.beta1) * grads
        v = state.beta2 * state.exp_avg_sq + (1.0 - state.beta2) * grads * grads
        m_hat = m / (1.0 - state.beta1 ** (state.step + 1))
        v_hat = v / (1.0 - state.beta2 ** (state.step + 1))
        return params - lr * m_hat / (np.sqrt(v_hat) + state.eps)

    def test_updates_and_returns_the_input_buffer(self):
        rng = np.random.default_rng(1)
        state = AdamState.zeros(6)
        params = rng.normal(size=6)
        for g in rng.normal(size=(5, 6)):
            want = self._ref_step(state, params.copy(), g, 0.03)
            out, _ = adam_step(state, params, g, lr=0.03)
            assert out is params
            np.testing.assert_array_equal(params, want)

    @pytest.mark.parametrize("bad", [
        {"grads": np.array([1.0, np.inf, 0.0])},
        {"grads": np.array([1.0, np.nan, 0.0])},
        {"lr": 0.0},
        {"grads": np.zeros(4)},
    ])
    def test_rejected_step_leaves_params_and_state_bit_unchanged(self, bad):
        state = AdamState.zeros(3)
        params = np.array([0.5, -1.0, 2.0])
        adam_step(state, params, np.array([0.1, 0.2, -0.3]), lr=0.1)
        before = (params.tobytes(), state.exp_avg.tobytes(), state.exp_avg_sq.tobytes(), state.step)
        kwargs = {"grads": np.array([1.0, 1.0, 1.0]), "lr": 0.1, **bad}
        with pytest.raises(ValueError):
            adam_step(state, params, kwargs["grads"], lr=kwargs["lr"])
        assert (params.tobytes(), state.exp_avg.tobytes(), state.exp_avg_sq.tobytes(),
                state.step) == before

    def test_read_only_params_rejected_before_any_state_change(self):
        state = AdamState.zeros(2)
        params = np.zeros(2)
        params.flags.writeable = False
        with pytest.raises(ValueError):
            adam_step(state, params, np.ones(2), lr=0.1)
        assert state.step == 0 and not state.exp_avg.any()

    def test_step_allocates_no_parameter_sized_arrays(self):
        import tracemalloc

        n = 3003
        rng = np.random.default_rng(2)
        state = AdamState.zeros(n)
        params, grads = rng.normal(size=n), rng.normal(size=n)
        adam_step(state, params, grads, lr=0.01)
        tracemalloc.start()
        try:
            adam_step(state, params, grads, lr=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the finiteness check's bool mask (n bytes) is the only array left
        assert peak < 8 * n // 2

    def test_many_steps_match_the_allocating_formula(self):
        rng = np.random.default_rng(3)
        state = AdamState.zeros(50, beta1=0.8, beta2=0.99, eps=1e-6)
        params = rng.normal(size=50)
        for step in range(300):
            g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=50)
            want = self._ref_step(state, params.copy(), g, 0.05)
            adam_step(state, params, g, lr=0.05)
            np.testing.assert_array_equal(params, want)
