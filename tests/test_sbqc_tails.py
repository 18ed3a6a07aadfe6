"""The sBQC kernel across the whole latent range: closed-form tails, no clamp.

Properties run on |z| up to 1e3 and tau in [0.01, 0.99].  The strict tau = 0.5
slope-bound xfail in test_acceptance samples only |z| <= 6 and is unrelated.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantloss.classify import predict_prob, sbqc_batch_loss, sbqc_loss
from quantloss.secant_dist import AsymmetricHSD

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

latents = st.floats(-1e3, 1e3)
levels = st.floats(0.01, 0.99)
labels = st.sampled_from([0.0, 1.0])


@PROPERTY
@given(z=latents, tau=levels, y=labels)
def test_value_and_gradient_are_finite_with_the_label_sign(z, tau, y):
    value, grad = sbqc_loss(y, z, tau)
    assert math.isfinite(value) and value >= 0.0
    assert math.isfinite(grad)
    # beyond |z| ~ 745 the density underflows, so the far side's slope is 0
    if y == 1.0:
        assert grad >= 0.0 and (grad > 0.0 or abs(z) > 700.0)
    else:
        assert grad <= 0.0 and (grad < 0.0 or abs(z) > 700.0)


@PROPERTY
@given(z=st.floats(40.0, 1e3), tau=levels)
def test_tail_slope_is_one(z, tau):
    # the label's probability is the tail: y = 1 at +z, y = 0 at -z
    assert abs(sbqc_loss(1.0, z, tau)[1] - 1.0) <= 1e-9
    assert abs(sbqc_loss(0.0, -z, tau)[1] + 1.0) <= 1e-9


@PROPERTY
@given(z=st.floats(-1e3, 700.0), tau=levels)
def test_value_is_minus_log_predict_prob(z, tau):
    value, _ = sbqc_loss(1.0, z, tau)
    assert math.isclose(value, -math.log(predict_prob(z, tau)), rel_tol=1e-12, abs_tol=1e-12)


@PROPERTY
@given(z=latents.filter(lambda v: abs(v) > 1e-4), tau=levels, y=labels)
def test_gradient_matches_central_differences(z, tau, y):
    # a step relative to |z| keeps the value's rounding ~1e-10 after dividing by 2h
    h = 1e-6 * max(1.0, abs(z))
    vp, _ = sbqc_loss(y, z + h, tau)
    vm, _ = sbqc_loss(y, z - h, tau)
    assert sbqc_loss(y, z, tau)[1] == pytest.approx((vp - vm) / (2 * h), abs=1e-6)


@PROPERTY
@given(tau=levels)
def test_zero_latent_gives_tau_exactly(tau):
    assert AsymmetricHSD(tau).cdf(0.0) == tau
    assert predict_prob(0.0, tau) == 1.0 - tau


def test_value_grows_with_the_latent_past_the_old_clamp():
    # tau = 0.5: -log(arctan(e^-z) / (pi/2)) = z + log(pi/2) once e^-2z is negligible
    for z in (30.0, 50.0, 100.0, 1e3):
        value, grad = sbqc_loss(1.0, z, 0.5)
        assert value == pytest.approx(z + math.log(math.pi / 2), rel=1e-15)
        assert abs(grad - 1.0) <= 1e-9


def test_cdf_at_infinities_is_exact():
    for tau in (0.01, 0.5, 0.99, [0.25, 0.5, 0.75]):
        dist = AsymmetricHSD(tau)
        x = np.array([-np.inf, np.inf]) if np.ndim(tau) == 0 else np.array([[-np.inf] * 3, [np.inf] * 3])
        lo, hi = dist.cdf(x)
        assert np.all(lo == 0.0) and np.all(hi == 1.0)
        lo, hi = dist.cdf(x, upper=True)
        assert np.all(lo == 1.0) and np.all(hi == 0.0)
        lo, hi = predict_prob(x, tau)
        assert np.all(lo == 1.0) and np.all(hi == 0.0)


class TestDegenerateBatches:
    LEVELS = np.array([0.25, 0.5, 0.75])

    @pytest.mark.parametrize("z", [-1e3, -35.0, 0.0, 2.5, 1e3])
    @pytest.mark.parametrize("y", [0.0, 1.0])
    def test_one_row(self, y, z):
        value, grad = sbqc_batch_loss(np.array([y]), np.array([z]), 0.5)
        v, g = sbqc_loss(y, z, 0.5)
        assert grad.shape == (1,)
        assert value == v and grad[0] == g
        value, grad = sbqc_batch_loss(np.array([[y]]), np.full((1, 3), z), self.LEVELS)
        assert grad.shape == (1, 3)
        assert math.isfinite(value)
        for j, t in enumerate(self.LEVELS):
            v, g = sbqc_batch_loss(np.array([y]), np.array([z]), t)
            assert grad[0, j] == g
        assert value == sum(sbqc_batch_loss(np.array([y]), np.array([z]), t)[0] for t in self.LEVELS)

    @pytest.mark.parametrize("y", [0.0, 1.0])
    def test_one_class(self, y):
        z = np.random.default_rng(int(y)).normal(scale=300.0, size=(40, 3))
        labels = np.full(40, y)
        value, grad = sbqc_batch_loss(labels[:, None], z, self.LEVELS)
        assert math.isfinite(value) and np.all(np.isfinite(grad))
        assert np.all(grad >= 0.0) if y == 1.0 else np.all(grad <= 0.0)
        for j, t in enumerate(self.LEVELS):
            v, g = sbqc_batch_loss(labels, z[:, j], t)
            np.testing.assert_array_equal(grad[:, j], g)
            assert v == pytest.approx(np.mean(sbqc_loss(labels, z[:, j], t)[0]), rel=1e-15)
            np.testing.assert_array_equal(g, sbqc_loss(labels, z[:, j], t)[1] / 40)
