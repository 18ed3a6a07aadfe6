"""The value of the sBQC batch loss that the epoch evaluation scores.

The epoch evaluation takes its training and validation losses from
``sbqc_batch_loss``'s value.  That value must be ``np.mean`` of
``sbqc_loss``'s per-latent values, bit for bit: one mean per batch, one per
row of a stack of batches, and the sum over a vector of levels of each
level's mean, taken in level order.  Its gradient is ``sbqc_loss``'s divided
by the batch size, and a bad label or a non-finite latent raises the error
``sbqc_loss`` raises.
"""

import numpy as np
import pytest

from quantloss.classify import sbqc_batch_loss, sbqc_loss


def _latents(shape, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=4.0, size=shape)
    z.flat[:6] = [0.0, -0.0, 750.0, -750.0, 1e-300, 30.0][: z.size]  # zeros and both tails
    return z


def _labels(shape, seed=1):
    return (np.random.default_rng(seed).random(shape) < 0.5).astype(float)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("tau", [0.5, 0.1, 0.93])
class TestValuesEqualTheBatchLoss:
    def test_one_batch(self, tau):
        z, y = _latents(77), _labels(77)
        value, grad = sbqc_batch_loss(y, z, tau)
        losses, slopes = sbqc_loss(y, z, tau)
        assert type(value) is float and _bits(value) == _bits(np.mean(losses))
        assert _bits(grad) == _bits(slopes / 77)

    @pytest.mark.parametrize("per_head_labels", [False, True])
    def test_one_row_per_head(self, tau, per_head_labels):
        z = _latents((13, 64))
        y = _labels((13, 64) if per_head_labels else 64)
        values, grad = sbqc_batch_loss(y, z, tau)
        losses, slopes = sbqc_loss(y, z, tau)
        assert _bits(values) == _bits([np.mean(row) for row in losses])
        assert _bits(grad) == _bits(slopes / 64)

    def test_a_vector_of_levels(self, tau):
        levels = np.array([0.25, tau, 0.75])
        z, y = _latents((50, 3)), _labels((50, 1))
        value, grad = sbqc_batch_loss(y, z, levels)
        alone = [sbqc_loss(y[:, 0], z[:, j].copy(), t) for j, t in enumerate(levels)]
        assert _bits(value) == _bits(sum(float(np.mean(losses)) for losses, _ in alone))
        assert _bits(grad) == _bits(np.stack([slopes for _, slopes in alone], axis=1) / 50)


def test_bad_inputs_raise_as_the_batch_loss_does():
    for y, z in [(np.array([0.0, 2.0]), np.zeros(2)), (np.zeros(2), np.array([0.0, np.inf]))]:
        with pytest.raises(ValueError) as want:
            sbqc_loss(y, z, 0.3)
        with pytest.raises(ValueError) as got:
            sbqc_batch_loss(y, z, 0.3)
        assert str(got.value) == str(want.value)
