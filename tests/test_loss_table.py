"""The loss table across the whole residual range: every LossKind at |r| <= 1e8.

``eval_loss`` reads ``_batch_value_grad`` at one point, so the scalar and
batch losses agree bit for bit, and every regression kind's layer constant
comes from one formula over ``slope_bound``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quantloss.losses import LossKind, LossSpec, batch_loss, eval_loss, slope_bound
from quantloss.optim import LipschitzContext, regression_lipschitz_constant, sbqc_layer_lipschitz_constant
from quantloss.trainer import TrainConfig, _layer_constant

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

R_MAX = 1e8
residuals = st.floats(-R_MAX, R_MAX)
EPS = np.finfo(float).eps


@st.composite
def specs(draw) -> LossSpec:
    return LossSpec(
        draw(st.sampled_from(list(LossKind))),
        h=draw(st.floats(1e-3, 1e3)),
        tau=draw(st.floats(0.01, 0.99)),
        delta=draw(st.floats(1e-3, 1e3)),
    )


def _bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


@PROPERTY
@given(spec=specs(), predictions=st.lists(st.floats(-R_MAX / 2, R_MAX / 2), min_size=1, max_size=30),
       data=st.data())
def test_scalar_loss_is_the_batch_table_bit_for_bit(spec, predictions, data):
    targets = data.draw(st.lists(st.floats(-R_MAX / 2, R_MAX / 2), min_size=len(predictions),
                                 max_size=len(predictions)))
    # r = 0 of both signs and the Huber knot on both sides, as (prediction, target) pairs
    pairs = list(zip(predictions, targets)) + [
        (0.0, 0.0), (-0.0, 0.0), (1.5, 1.5), (spec.delta, 0.0), (-spec.delta, 0.0), (0.0, spec.delta),
    ]
    p, t = np.array(pairs).T
    values, grads = batch_loss(spec, p, t, reduction="none")
    for i, (pi, ti) in enumerate(pairs):
        e = eval_loss(spec, pi - ti)
        assert (_bits(e.value), _bits(e.grad)) == (_bits(values[i]), _bits(grads[i])), (spec, pi, ti)


@PROPERTY
@given(spec=specs(), r=residuals)
def test_value_grad_and_curvature_are_finite(spec, r):
    e = eval_loss(spec, r)
    assert math.isfinite(e.value) and math.isfinite(e.grad)
    assert e.curvature is None or (math.isfinite(e.curvature) and e.curvature >= 0.0)


@PROPERTY
@given(spec=specs(), r=residuals)
def test_slope_bound_is_the_largest_table_slope_at_that_norm(spec, r):
    bound = slope_bound(spec, abs(r))
    assert math.isfinite(bound) and bound >= 0.0
    slopes = [abs(eval_loss(spec, s).grad) for s in (r, -r)]
    # the closed form takes math.tanh, the table np.tanh: they may differ in the last bit
    tol = 4 * EPS * bound
    assert max(slopes) <= bound + tol
    if r != 0.0:
        assert max(slopes) >= bound - tol


@PROPERTY
@given(m=st.integers(1, 10_000), y_norm=st.floats(0.0, R_MAX), k_z=st.floats(0.0, R_MAX),
       g_at_zero=st.floats(-1e3, 1e3))
def test_logcosh_h1_layer_constant_is_the_published_formula(m, y_norm, k_z, g_at_zero):
    config = TrainConfig(task="regression", loss=LossSpec(LossKind.LOG_COSH, h=1.0))
    ctx = LipschitzContext(m=m, y_norm=y_norm, k_z=k_z, g_at_zero=g_at_zero)
    assert _bits(_layer_constant(config, ctx)) == _bits(regression_lipschitz_constant(ctx))


@PROPERTY
@given(tau=st.floats(0.01, 0.99), k_z=st.floats(0.0, R_MAX))
def test_classification_layer_constant_is_the_sbqc_constant(tau, k_z):
    config = TrainConfig(task="classification", sbqc_tau=tau)
    ctx = LipschitzContext(m=64, y_norm=0.0, k_z=k_z, tau=tau)
    assert _layer_constant(config, ctx) == sbqc_layer_lipschitz_constant(ctx)
