"""Asymmetric hyperbolic secant distribution HSD(tau).

Density (2/pi) sech(x) [tau 1{x<0} + (1-tau) 1{x>=0}], so the quantile marker
tau is exactly the mass left of zero: cdf(0) = tau.  The distribution function
is taken in closed form on each half-line: the mass beyond x on its own side
of zero is w arctan(e^{-|x|}) / (pi/4), with w = tau left of zero and 1 - tau
right of it (the Gudermannian form of the integrated density).  Neither tail
is formed as 1 minus a number near 1, so both stay exact far out.

``tau`` may also be a vector of levels, one distribution per level: it
broadcasts along the last axis of x, and each element's arithmetic is the
same as with that level alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: arctan(1), which numpy rounds to exactly this; a tail divided by it is its
#: weight at 0, so cdf(0) = tau and 1 - cdf(0) = 1 - tau hold exactly
QUARTER_PI = math.pi / 4.0


def sech(x):
    """sech(x) = 2 e^{-|x|} / (1 + e^{-2|x|}), overflow-free."""
    ax = np.abs(np.asarray(x, dtype=float))
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


@dataclass(frozen=True)
class AsymmetricHSD:
    """Hyperbolic secant distribution tilted by the quantile marker tau.

    ``tau`` is a level or a 1-d vector of levels (kept as a read-only array);
    ``pdf`` and ``cdf`` broadcast a vector along the last axis of x.
    """

    tau: float | np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.tau) == 0:
            if not 0.0 < self.tau < 1.0:
                raise ValueError(f"tau must be inside (0, 1), got {self.tau}")
            return
        levels = np.array(self.tau, dtype=float)
        if levels.ndim != 1 or levels.size == 0:
            raise ValueError(
                f"tau must be a level or a non-empty 1-d vector of levels, got shape {levels.shape}"
            )
        inside = (levels > 0.0) & (levels < 1.0)
        if not inside.all():
            bad = float(levels[~inside][0])
            raise ValueError(f"every tau must lie inside (0, 1), got {bad} in {levels.tolist()}")
        levels.flags.writeable = False
        object.__setattr__(self, "tau", levels)

    def pdf(self, x):
        """Density at x; symmetric about 0 when tau = 0.5."""
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError("pdf requires finite x")
        weight = np.where(x < 0, self.tau, 1.0 - self.tau)
        out = (2.0 / math.pi) * sech(x) * weight
        return float(out) if out.ndim == 0 else out

    def cdf(self, x, upper: bool = False):
        """Distribution function F(x), or the upper tail 1 - F(x) with ``upper``.

        Closed form on each side of 0 (see the module docstring), with no
        clamp: the side's own tail is exact down to underflow, and the other
        side is 1 minus it.  x = 0 takes the tau side, so cdf(0) = tau
        exactly.  Accepts +-inf: cdf(-inf) = 0 and cdf(inf) = 1 exactly.
        """
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ValueError("cdf requires non-NaN x")
        lower = x <= 0
        ratio = np.arctan(np.exp(-np.abs(x))) / QUARTER_PI
        tail = np.where(lower, self.tau, 1.0 - self.tau) * ratio
        out = np.where(lower == upper, 1.0 - tail, tail)
        return float(out) if out.ndim == 0 else out

    def inv_cdf(self, p):
        """Quantile function, the algebraic inverse of each cdf branch.

        For p <= tau: ln(tan(pi p / (4 tau))); for p > tau its mirror on 1 - p
        and 1 - tau.  The left tail keeps full relative precision to x = -705,
        and p = tau gives 0 exactly.  p must lie strictly in (0, 1): cdf(x)
        rounds to 1 from x = 37 or so (cdf(40) == 1.0), and inv_cdf refuses it.
        """
        p = np.asarray(p, dtype=float)
        if not np.all((p > 0.0) & (p < 1.0)):
            raise ValueError("inv_cdf requires p strictly inside (0, 1)")
        lower = p <= self.tau
        ratio = np.where(lower, p / self.tau, (1.0 - p) / (1.0 - self.tau))
        tail = np.where(ratio < 1.0, np.log(np.tan(QUARTER_PI * ratio)), 0.0)  # tan(QUARTER_PI) < 1
        out = np.where(lower, tail, -tail)
        return float(out) if out.ndim == 0 else out

    def sample(self, seed: int, n: int) -> np.ndarray:
        """Inverse-transform sample of size n, deterministic given the seed."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        # keep u strictly inside (0, 1); the endpoints map to +-inf
        u = np.clip(rng.random(n), 1e-15, 1.0 - 1e-15)
        return self.inv_cdf(u)
