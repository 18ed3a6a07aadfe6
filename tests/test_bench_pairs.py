"""The verdict of ``scripts/bench_pairs.py``: wins per pair, quartiles, and the
rule that a claimed gain needs nine tenths of the pairs and a median gap
wider than the parent's interquartile range."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_interpolate_linearly():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize("change, higher_better, wins, rule", [
    ([p - 0.1 for p in PARENT], False, 10, True),                     # clear gain, lower is better
    ([p - 0.1 for p in PARENT[:-1]] + [1.5], False, 9, True),         # nine of ten still holds
    ([p - 0.1 for p in PARENT[:-2]] + [1.5, 1.5], False, 8, False),   # eight of ten does not
    ([p - 0.01 for p in PARENT], False, 10, False),                   # every pair, but inside the IQR
    ([p + 0.1 for p in PARENT], True, 10, True),                      # higher is better
    (list(PARENT), False, 0, False),                                  # ties count for neither side
])
def test_the_gain_rule(change, higher_better, wins, rule):
    verdict = bench_pairs.judge(PARENT, change, higher_better)
    assert (verdict["wins"], verdict["rule"]) == (wins, rule)
