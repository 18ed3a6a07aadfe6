"""``inv_cdf`` recovers the far left tail, where ``cdf`` keeps full relative precision."""

import numpy as np
import pytest

from quantloss.secant_dist import AsymmetricHSD


@pytest.mark.parametrize("z", [-30.0, -40.0, -100.0, -600.0])
def test_left_tail_round_trip(z):
    d = AsymmetricHSD(0.3)
    assert d.inv_cdf(d.cdf(z)) == pytest.approx(z, rel=1e-12)


@pytest.mark.parametrize("tau", [0.05, 0.3, 0.5, 0.95])
def test_left_tail_round_trip_down_to_700(tau):
    d = AsymmetricHSD(tau)
    x = -np.geomspace(20.0, 700.0, 50)
    np.testing.assert_allclose(d.inv_cdf(d.cdf(x)), x, rtol=1e-12)


def test_right_tail_rounds_to_one_and_is_refused():
    d = AsymmetricHSD(0.3)
    assert d.cdf(40.0) == 1.0
    with pytest.raises(ValueError):
        d.inv_cdf(d.cdf(40.0))


def test_vector_of_levels_inverts_each_level():
    taus = np.array([0.1, 0.5, 0.9])
    z = np.array([[-50.0, 0.0, 3.0]])
    np.testing.assert_allclose(AsymmetricHSD(taus).inv_cdf(AsymmetricHSD(taus).cdf(z)), z, rtol=1e-12, atol=1e-15)
