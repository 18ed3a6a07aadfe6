"""The value-only sBQC loss of the epoch evaluation.

``sbqc_batch_value`` shares ``sbqc_loss``'s value formula and
``sbqc_batch_loss``'s reduction, and skips the slope, ``pdf`` and gradient;
its values must equal ``sbqc_batch_loss``'s bit for bit, and the trainer's
``_head_values`` must equal ``_head_losses``' values, NaN heads included.
"""

import numpy as np
import pytest

from quantloss import trainer
from quantloss.classify import sbqc_batch_loss, sbqc_batch_value
from quantloss.losses import LossKind, LossSpec
from quantloss.trainer import TrainConfig


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
        value = sbqc_batch_value(y, z, tau)
        assert type(value) is float and _bits(value) == _bits(sbqc_batch_loss(y, z, tau)[0])

    @pytest.mark.parametrize("per_head_labels", [False, True])
    def test_one_row_per_head(self, tau, per_head_labels):
        z = _latents((13, 64))
        y = _labels((13, 64) if per_head_labels else 64)
        assert _bits(sbqc_batch_value(y, z, tau)) == _bits(sbqc_batch_loss(y, z, tau)[0])

    def test_a_vector_of_levels(self, tau):
        levels = np.array([0.25, tau, 0.75])
        z, y = _latents((50, 3)), _labels((50, 1))
        assert _bits(sbqc_batch_value(y, z, levels)) == _bits(sbqc_batch_loss(y, z, levels)[0])


def test_bad_inputs_raise_as_the_batch_loss_does():
    for y, z in [(np.array([0.0, 2.0]), np.zeros(2)), (np.zeros(2), np.array([0.0, np.inf]))]:
        with pytest.raises(ValueError) as want:
            sbqc_batch_loss(y, z, 0.3)
        with pytest.raises(ValueError) as got:
            sbqc_batch_value(y, z, 0.3)
        assert str(got.value) == str(want.value)


class TestHeadValues:
    CLASSIFICATION = TrainConfig(task="classification", sbqc_tau=0.3)
    REGRESSION = TrainConfig(task="regression", loss=LossSpec(LossKind.LOG_COSH))

    @pytest.mark.parametrize("bad_heads", [[], [2], [0, 4], [0, 1, 2, 3, 4]])
    def test_values_equal_head_losses(self, bad_heads):
        outputs, y = _latents((5, 40, 1)), _labels(40)
        outputs[bad_heads, 3, 0] = np.nan
        for config in (self.CLASSIFICATION, self.REGRESSION):
            target = y if config.task == "classification" else y[:, None]
            values, _ = trainer._head_losses(config, outputs, target)
            assert _bits(trainer._head_values(config, outputs, target)) == _bits(values)

    def test_a_bad_label_of_a_finite_head_raises(self):
        outputs, y = _latents((3, 10, 1)), _labels(10)
        y[4] = 0.5
        outputs[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="labels must lie in"):
            trainer._head_values(self.CLASSIFICATION, outputs, y)
