"""Weighted binomial significance functions and the machinery built on them.

The weight C interpolates between the strict upper tail (C = 0) and the
inclusive one (C = 1).  At fixed data the significance function, viewed as
a function of the success probability, is a distribution function for that
parameter: the Clopper-Pearson pair (1 - C) Beta(x + 1, N - x) +
C Beta(x, N - x + 1), where Beta(0, N + 1) is an atom at 0 and
Beta(N + 1, 0) an atom at 1.  Its inverse yields one-sided interval
endpoints and an inverse-CDF sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import _log_binomial_pmf

_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200

SIDE_LOWER = "lower_bounded"
SIDE_UPPER = "upper_bounded"


class SignificanceRangeError(ValueError):
    """Requested significance level is not attained by any parameter value."""


@dataclass(frozen=True)
class ConfidenceDistribution:
    """Binomial data (trials, successes) plus the tail weight C."""

    trials: int
    successes: int
    weight: float

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials}")
        if not 0 <= self.successes <= self.trials:
            raise ValueError(
                f"successes must lie in [0, {self.trials}], got {self.successes}"
            )
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight}")


def _significance_arrays(trials, x, weight, pi):
    """Pr(X > x; pi) + weight * Pr(X = x; pi), broadcasting over x and pi."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    x_b, pi_b = np.broadcast_arrays(x, pi)
    sf = np.zeros(x_b.shape)
    inner = x_b < trials
    if inner.any():
        xi = x_b[inner]
        sf[inner] = special.betainc(xi + 1.0, trials - xi, pi_b[inner])
    pmf = np.exp(_log_binomial_pmf(trials, x_b, pi_b))
    return sf + weight * pmf


def significance(cd: ConfidenceDistribution, pi: float) -> float:
    """Weighted upper-tail probability at success probability ``pi``."""
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"pi must lie in [0, 1], got {pi}")
    return float(_significance_arrays(cd.trials, cd.successes, cd.weight, pi)[0])


def attainable_range(cd: ConfidenceDistribution) -> tuple[float, float]:
    """Closed range of the significance function over pi in [0, 1].

    The lower end is C when x = 0 (otherwise 0); the upper end is C when
    x = trials (otherwise 1).
    """
    low = cd.weight if cd.successes == 0 else 0.0
    high = 1.0 if cd.successes < cd.trials else cd.weight
    return low, high


def _quantile(trials, x, weight, u):
    """Inverse of the significance function in pi, broadcasting over x and u.

    The significance function is monotone in pi but its derivative vanishes
    at the boundaries, so plain bisection is used rather than Newton steps;
    every element halves the same bracket each step, so the loop runs in
    lock-step.  Values of u below the attainable range land on the atom of
    the confidence distribution at 0 (x = 0), values above it on the atom
    at 1 (x = trials), which makes this a proper inverse-CDF sampler.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x_b, u_b = np.broadcast_arrays(x, u)
    lo = np.zeros(x_b.shape)
    hi = np.ones(x_b.shape)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        below = _significance_arrays(trials, x_b, weight, mid) < u_b
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if float(np.max(hi - lo)) <= _BISECT_TOL:
            break
    low = np.where(x_b == 0, weight, 0.0)
    high = np.where(x_b < trials, 1.0, weight)
    return np.where(u_b < low, 0.0, np.where(u_b > high, 1.0, 0.5 * (lo + hi)))


def inverse_significance(cd: ConfidenceDistribution, s: float) -> float:
    """The pi with significance(cd, pi) = s.

    Raises SignificanceRangeError when s is outside the attainable range or
    when the significance function is constant (x = 0 with C = 1, or
    x = trials with C = 0), where no unique inverse exists.
    """
    low, high = attainable_range(cd)
    if low == high:
        raise SignificanceRangeError(
            f"significance is constant at {low} for x={cd.successes}, "
            f"N={cd.trials}, C={cd.weight}; inverse undefined"
        )
    if not low <= s <= high:
        raise SignificanceRangeError(
            f"s={s} outside the attainable range [{low}, {high}] "
            f"for x={cd.successes}, N={cd.trials}, C={cd.weight}"
        )
    return float(_quantile(cd.trials, cd.successes, cd.weight, s)[0])


def one_sided_interval(
    cd: ConfidenceDistribution, alpha: float, side: str
) -> tuple[float, float]:
    """One-sided (1 - alpha) confidence interval for the success probability.

    The tail weight is forced per side regardless of cd.weight: the strict
    tail (C = 0) bounds from above, the inclusive tail (C = 1) from below.
    Degenerate data (x = trials for the upper side, x = 0 for the lower)
    yield the trivial endpoint.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if side == SIDE_UPPER:
        strict = ConfidenceDistribution(cd.trials, cd.successes, 0.0)
        try:
            upper = inverse_significance(strict, 1.0 - alpha)
        except SignificanceRangeError:
            upper = 1.0
        return 0.0, upper
    if side == SIDE_LOWER:
        inclusive = ConfidenceDistribution(cd.trials, cd.successes, 1.0)
        try:
            lower = inverse_significance(inclusive, alpha)
        except SignificanceRangeError:
            lower = 0.0
        return lower, 1.0
    raise ValueError(f"side must be {SIDE_LOWER!r} or {SIDE_UPPER!r}, got {side!r}")


def sample_parameter(cd: ConfidenceDistribution, n_draws: int, seed) -> np.ndarray:
    """Draw parameter values distributed according to the significance curve.

    The generator is owned by this call; the same seed always reproduces the
    same draws.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")
    rng = np.random.default_rng(seed)
    return _quantile(cd.trials, cd.successes, cd.weight, rng.random(n_draws))
