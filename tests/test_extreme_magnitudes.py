"""The distribution, sBQC and every regression loss across the whole float range.

Magnitudes are sampled log-spaced from 1e-300 to 1e300, of both signs, and
probabilities log-spaced down to 1e-300 and up to 1 - 1e-16.  Every value
and gradient must be finite, except MSE's value, which is inf once the
residual's square passes the float range; none may be NaN, and none may
raise a numpy warning (pytest turns warnings into errors).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quantloss.classify import sbqc_batch_loss, sbqc_loss
from quantloss.losses import LossKind, LossSpec, batch_loss, eval_loss
from quantloss.secant_dist import AsymmetricHSD

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

exponents = st.floats(-300.0, 300.0)
signs = st.sampled_from([-1.0, 1.0])
levels = st.floats(0.01, 0.99)
labels = st.sampled_from([0.0, 1.0])
SPECS = [LossSpec(LossKind.LOG_COSH), LossSpec(LossKind.LOG_COSH, h=0.7),
         LossSpec(LossKind.TILTED_LOG_COSH, tau=0.25), LossSpec(LossKind.CHECK, tau=0.9),
         LossSpec(LossKind.HUBER, delta=0.5), LossSpec(LossKind.MSE), LossSpec(LossKind.MAE)]


def _magnitude(exponent: float, sign: float) -> float:
    return sign * 10.0**exponent


@PROPERTY
@given(e=exponents, sign=signs, tau=levels)
def test_cdf_and_pdf_are_finite(e, sign, tau):
    x = _magnitude(e, sign)
    dist = AsymmetricHSD(tau)
    for value in (dist.cdf(x), dist.cdf(x, upper=True)):
        assert 0.0 <= float(value) <= 1.0
    density = float(dist.pdf(x))
    assert math.isfinite(density) and density >= 0.0


@PROPERTY
@given(e=st.floats(-300.0, -1e-3), tau=levels, upper=st.booleans())
def test_inv_cdf_is_finite_in_both_tails(e, tau, upper):
    # p = 10^e down to 1e-300, or 1 - 10^e for 10^e at least 1e-16
    p = 1.0 - max(10.0**e, 1e-16) if upper else 10.0**e
    x = float(AsymmetricHSD(tau).inv_cdf(p))
    assert math.isfinite(x)
    assert (x > 0.0) == (p > tau) and (x < 0.0) == (p < tau)  # cdf(0) = tau


@PROPERTY
@given(e=exponents, sign=signs, tau=levels, y=labels)
def test_sbqc_loss_is_finite_for_both_labels(e, sign, tau, y):
    z = _magnitude(e, sign)
    value, grad = sbqc_loss(y, z, tau)
    assert math.isfinite(value) and value >= 0.0
    assert math.isfinite(grad)
    batch_value, batch_grad = sbqc_batch_loss(np.array([y]), np.array([z]), tau)
    assert math.isfinite(float(batch_value)) and np.isfinite(batch_grad).all()


@PROPERTY
@given(e=exponents, sign=signs, target=st.floats(-1.0, 1.0))
def test_every_loss_kind_is_finite_or_mse_inf(e, sign, target):
    r = _magnitude(e, sign)
    predictions = np.array([target + r, target - r])
    for spec in SPECS:
        point = eval_loss(spec, r)
        value, grad = batch_loss(spec, predictions, np.full(2, target))
        per_example, _ = batch_loss(spec, predictions, np.full(2, target), reduction="none")
        for v in (point.value, value, *per_example):
            assert not math.isnan(v)
            assert math.isfinite(v) or (spec.kind is LossKind.MSE and v == math.inf)
            assert v >= 0.0
        assert math.isfinite(point.grad) and np.isfinite(grad).all()


def test_huber_tail_is_linear_and_mse_overflows_to_inf():
    huber, mse = LossSpec(LossKind.HUBER, delta=0.5), LossSpec(LossKind.MSE)
    for r in (1e200, -1e300):
        assert eval_loss(huber, r).value == 0.5 * (abs(r) - 0.25)
        assert eval_loss(mse, r).value == math.inf and eval_loss(mse, r).grad == 2.0 * r
    # each square is finite here, and their sum is not
    r = np.array([[1.2e154, -1.2e154], [1.0, 2.0]])
    assert batch_loss(mse, r, np.zeros_like(r))[0] == math.inf
    assert batch_loss(mse, r[0], np.zeros(2))[0] == math.inf
    assert batch_loss(mse, r, np.zeros_like(r), reduction="none")[0][0] == math.inf
    # inside the knot Huber is the kept rows' square, as before
    assert eval_loss(huber, 0.3).value == 0.5 * 0.3 * 0.3
