"""The no-regression verdict of ``scripts/bench_pairs.py``: a change's median may be worse
than the parent's by at most the metric's bound, a fraction of the parent's median, and a
parent spread wider than the bound leaves the verdict unresolved."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]   # IQR 0.035
WIDE = [0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0]              # IQR 0.375


@pytest.mark.parametrize("parent, change, higher_better, bound, verdict", [
    (PARENT, [p + 0.2 for p in PARENT], False, 0.25, "within"),     # 20 % slower, bound 25 %
    (PARENT, [p + 0.3 for p in PARENT], False, 0.25, "worse"),      # 30 % slower
    (PARENT, [p - 0.3 for p in PARENT], True, 0.25, "worse"),       # 30 % lower, higher is better
    (PARENT, [p - 0.5 for p in PARENT], False, 0.25, "within"),     # a gain is within any bound
    (WIDE, [w + 0.05 for w in WIDE], False, 0.25, "unresolved"),    # spread 37.5 % > bound 25 %
    (WIDE, [w - 0.9 for w in WIDE], False, 0.25, "within"),         # every change run beats every parent run
    (WIDE, [w + 0.05 for w in WIDE], False, 0.5, "within"),         # the same spread inside a wider bound
])
def test_the_no_regression_verdict(parent, change, higher_better, bound, verdict):
    assert bench_pairs.no_worse(parent, change, higher_better, bound) == verdict
