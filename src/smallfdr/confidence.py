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

from .distributions import _log_binomial_coef, _log_binomial_pmf

# The inverse is the midpoint of the cell of width 2**-40 < 1e-12 that 40
# halvings of [0, 1] reach; every cell along the way is a dyadic interval.
_BISECT_STEPS = 40

# Relative margin by which the curve at each end of the bracket certified
# around the estimate must clear u.  While one curve value is off by at most
# half of it, every midpoint that bisection would have compared beyond an end
# compares the same way, so skipping those comparisons changes no bit.
# Against mpmath the rounding that varies with pi (the log-coefficient's is
# shared by every pi of one x) was at most 3e-13 at N = 10**5 and 4e-15 at
# N = 30, which leaves room for larger N.  The bracket's half-width is four
# margins of u over the density, so a root within about three quarters of
# it of the estimate still lets both ends clear.
_CELL_MARGIN = 1e-11

# Newton stops once a step is this short, far inside the certified bracket;
# an element still moving after _NEWTON_STEPS evaluations is left to the check.
_NEWTON_TOL = 1e-13
_NEWTON_STEPS = 8

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


class _Curve:
    """pi -> Pr(X > x; pi) + weight * Pr(X = x; pi), one x and one pi per element.

    The binomial log-coefficient, the Beta parameters (x + 1, N - x) of the
    strict tail and the x < trials elements depend on x alone, so they are
    computed once per curve rather than at every evaluation; ``take`` keeps
    them for a subset of the elements.  Each element's value depends only on
    its own x and pi, whichever elements are evaluated with it.
    """

    def __init__(self, trials, x, weight, log_coef=None):
        self.trials, self.x, self.weight = trials, x, weight
        self.log_coef = _log_binomial_coef(trials, x) if log_coef is None else log_coef
        self.inner = np.flatnonzero(x < trials)
        self.a, self.b = x[self.inner] + 1.0, trials - x[self.inner]

    def take(self, i):
        return _Curve(self.trials, self.x[i], self.weight, self.log_coef[i])

    def terms(self, pi):
        """The strict tail and the binomial mass at ``pi``."""
        sf = np.zeros(pi.shape)
        sf[self.inner] = special.betainc(self.a, self.b, pi[self.inner])
        return sf, np.exp(_log_binomial_pmf(self.trials, self.x, pi, self.log_coef))

    def __call__(self, pi):
        sf, pmf = self.terms(pi)
        return sf + self.weight * pmf


def significance(cd: ConfidenceDistribution, pi: float) -> float:
    """Weighted upper-tail probability at success probability ``pi``."""
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"pi must lie in [0, 1], got {pi}")
    curve = _Curve(cd.trials, np.asarray([float(cd.successes)]), cd.weight)
    return float(curve(np.asarray([pi], dtype=float))[0])


def attainable_range(cd: ConfidenceDistribution) -> tuple[float, float]:
    """Closed range of the significance function over pi in [0, 1].

    The lower end is C when x = 0 (otherwise 0); the upper end is C when
    x = trials (otherwise 1).
    """
    low = cd.weight if cd.successes == 0 else 0.0
    high = 1.0 if cd.successes < cd.trials else cd.weight
    return low, high


def _solve(trials, x, weight, u):
    """Midpoint of the 2**-40 cell that bisecting [0, 1] on curve(pi) < u reaches.

    ``x`` and ``u`` are flat and every curve is non-constant with u in its
    range.  For C in {0, 1} the curve is the Clopper-Pearson Beta(x + 1 - C,
    N - x + C) distribution function, whose quantile is the root itself, so
    no Newton step runs.  For C in (0, 1) the curve is C pi**N at x = N and
    1 - (1 - C)(1 - pi)**N at x = 0, whose roots are in closed form, again
    without Newton.  The other elements start from the normal approximation
    to logit pi under Beta(a, b) = Beta(x + 1 - C, N - x + C): mean
    digamma(a) - digamma(b) and variance trigamma(a) + trigamma(b), computed
    once per distinct x.  A bracketed Newton solve refines that start; the
    density (1 - C) Beta(x + 1, N - x) + C Beta(x, N - x + 1) is the
    binomial mass times (1 - C)(N - x)/(1 - pi) + C x/pi.

    The estimate is then bracketed by [L, R], a half-width of four margins of
    u over the density (at least a few ulps) on either side, and the curve is
    evaluated at both ends (an end at 0 or 1 needs no check).  When both ends
    clear u by the margin, every bisection midpoint <= L compares below and
    every one >= R does not; otherwise the bracket is [0, 1].  Bisection
    reaches the deepest dyadic cell holding [L, R] without an evaluation, and
    below it only the midpoints strictly inside (L, R) are evaluated.  Every
    comparison that is made is one that plain bisection makes, so the result
    is the same to the bit.
    """
    curve = _Curve(trials, x, weight)
    if weight in (0.0, 1.0):
        pi = special.betaincinv(x + 1.0 - weight, trials - x + weight, u)
        active = np.arange(0)
    else:
        distinct, index = np.unique(x, return_inverse=True)
        a, b = distinct + 1.0 - weight, trials - distinct + weight
        mean = special.digamma(a) - special.digamma(b)
        sd = np.sqrt(special.polygamma(1, a) + special.polygamma(1, b))
        pi = special.expit(mean[index] + sd[index] * special.ndtri(u))
        top, bottom = np.flatnonzero(x == trials), np.flatnonzero(x == 0)
        pi[top] = (u[top] / weight) ** (1.0 / trials)
        pi[bottom] = 1.0 - ((1.0 - u[bottom]) / (1.0 - weight)) ** (1.0 / trials)
        active = np.flatnonzero((x > 0) & (x < trials))
    lo, hi = np.zeros(x.size), np.ones(x.size)
    for _ in range(_NEWTON_STEPS):
        if active.size == 0:
            break
        sub, p = curve.take(active), pi[active]
        sf, pmf = sub.terms(p)
        excess = sf + weight * pmf - u[active]
        below = excess < 0.0
        lo[active] = np.where(below, p, lo[active])
        hi[active] = np.where(below, hi[active], p)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scale = (1.0 - weight) * (trials - sub.x) / (1.0 - p) + weight * sub.x / p
            density = pmf * scale
            step = p - excess / density
        inside = (lo[active] <= step) & (step <= hi[active])
        pi[active] = np.where(inside, step, 0.5 * (lo[active] + hi[active]))
        active = active[~(np.abs(pi[active] - p) <= _NEWTON_TOL)]

    # the density as in the Newton step, a term whose coefficient is 0 taken
    # as 0 so that a root at 0 or 1 keeps a finite width; a width that is
    # not finite (no density, or a nan estimate) gives the bracket [0, 1]
    pmf = np.exp(_log_binomial_pmf(trials, x, pi, curve.log_coef))
    upper, lower = (1.0 - weight) * (trials - x), weight * x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.where(upper > 0.0, upper / (1.0 - pi), 0.0)
        scale += np.where(lower > 0.0, lower / pi, 0.0)
        width = np.maximum(4.0 * _CELL_MARGIN * u / (pmf * scale), 4.0 * np.spacing(pi))
        left, right = np.fmax(pi - width, 0.0), np.fmin(pi + width, 1.0)
    # bisection never compares at 0 or 1, so an end there needs no check
    at_left, at_right = np.flatnonzero(left > 0.0), np.flatnonzero(right < 1.0)
    ends = curve.take(np.concatenate([at_left, at_right]))(
        np.concatenate([left[at_left], right[at_right]])
    )
    clear = np.ones(x.size, dtype=bool)
    clear[at_left] = ends[: at_left.size] < u[at_left] * (1.0 - _CELL_MARGIN)
    clear[at_right] &= ends[at_left.size :] > u[at_right] * (1.0 + _CELL_MARGIN)
    left, right = np.where(clear, left, 0.0), np.where(clear, right, 1.0)

    # The deepest dyadic cell holding [L, R] shares the high bits of the
    # 2**-40 cells of L and R; the midpoints above it all lie outside (L, R).
    cells = 2.0**_BISECT_STEPS
    index = np.minimum(np.stack([left, right]) * cells, cells - 1.0).astype(np.int64)
    shift = np.frexp((index[0] ^ index[1]).astype(float))[1]
    lo = (index[0] >> shift << shift) / cells
    for level in range(_BISECT_STEPS - shift.max(initial=0) + 1, _BISECT_STEPS + 1):
        live = np.flatnonzero(shift > _BISECT_STEPS - level)
        mid = lo[live] + 2.0**-level
        below = mid <= left[live]
        inside = np.flatnonzero(~below & (mid < right[live]))
        if inside.size:
            below[inside] = curve.take(live[inside])(mid[inside]) < u[live[inside]]
        lo[live] = np.where(below, mid, lo[live])
    return lo + 0.5 / cells


def _quantile(trials, x, weight, u):
    """Inverse of the significance function in pi, broadcasting over x and u.

    The value is the midpoint of the 2**-40 cell that bisecting [0, 1] on
    significance < u reaches; ``_solve`` finds it to the same bits from a
    start that is the root (the Beta quantile for C in {0, 1}, a closed form
    at x = 0 and x = N) or a closed-form approximation refined by Newton
    steps, then a bracket certified around it, inside which only the few
    midpoints bisection compares are evaluated.  Each element
    depends only on its own (x, u), so a stack of rows gives exactly the
    per-row results.  Values of u below the attainable range land on the
    atom of the confidence distribution at 0 (x = 0), values above it on
    the atom at 1 (x = trials), and a constant curve (x = 0 with C = 1,
    x = trials with C = 0) is its atom for every u, which makes this a
    proper inverse-CDF sampler.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    shape = np.broadcast_shapes(x.shape, u.shape)
    low = np.where(x == 0, weight, 0.0)
    high = np.where(x < trials, 1.0, weight)
    to_zero = np.broadcast_to((u < low) | (low == 1.0), shape)
    to_one = np.broadcast_to((u > high) | (high == 0.0), shape)
    pi = np.where(to_zero, 0.0, 1.0)
    inside = ~(to_zero | to_one)
    pi[inside] = _solve(
        trials, np.broadcast_to(x, shape)[inside], weight, np.broadcast_to(u, shape)[inside]
    )
    return pi


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
