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

from . import _special as special
from .distributions import _check_count, _check_unit, _log_binomial_coef, _log_binomial_pmf

# The inverse is the midpoint of the cell of width 2**-40 < 1e-12 that 40
# halvings of [0, 1] reach; every cell along the way is a dyadic interval.
_BISECT_STEPS = 40

# Relative margin by which the curve at each end of the bracket certified
# around the estimate must clear u: _MARGIN_PER_UNIT (N - ln u) machine
# epsilons, at most _MARGIN_CAP.  While one curve value is off by at most
# half of it, every midpoint that bisection would have compared beyond an end
# compares the same way, so skipping those comparisons changes no bit.
# Against mpmath, with the binomial coefficient taken as computed (its
# rounding is shared by every pi of one x: it scales the mass term and leaves
# the curve monotone), the rounding that varies with pi was at most
# 1.3 (N - ln u) eps for N <= 2000, at roots of uniform u and of u down to
# 1e-250 of either end.  The - ln u term is the log-space mass: in the lower
# tail the rounding reached 25 N eps at N = 16.  The margin is 49 times that
# bound, more than 16 times twice the rounding.  The cap is reached near
# N = 700; at N = 10**5 the rounding reached 3.8e-12 (x <= 5, pi near x/N).
# The bracket's half-width is four margins of u over the density, so a root
# within about three quarters of it of the estimate still lets both ends
# clear.
_MARGIN_PER_UNIT = 64.0
_MARGIN_CAP = 1e-11

# A Halley step shorter than this share of the distance to the nearer end of
# [0, 1] is the last, taken without evaluating the curve again: its error is
# about cubic in the step, far inside the certified bracket.  (An absolute
# 1e-6 failed the check for one draw in seven at N = 10**5, where the curve
# bends on the scale of the Beta spread, not of pi.)  An element still moving
# after _HALLEY_STEPS evaluations is left to the check.
_HALLEY_TOL = 1e-6
_HALLEY_STEPS = 8

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
        _check_count("trials", self.trials, 1)
        _check_count("successes", self.successes, 0, self.trials)
        _check_unit("weight", self.weight)


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
    _check_unit("pi", pi)
    curve = _Curve(cd.trials, np.asarray([float(cd.successes)]), cd.weight)
    return float(curve(np.asarray([pi], dtype=float))[0])


def _range(trials, x, weight):
    """Ends of the significance function's range over pi in [0, 1], broadcasting
    over ``x``: C at x = 0 (otherwise 0) and C at x = trials (otherwise 1)."""
    return np.where(x == 0, weight, 0.0), np.where(x < trials, 1.0, weight)


def attainable_range(cd: ConfidenceDistribution) -> tuple[float, float]:
    """Closed range of the significance function over pi in [0, 1]."""
    low, high = _range(cd.trials, cd.successes, cd.weight)
    return float(low), float(high)


def _margin(trials, u):
    """The relative margin of the bracket check for each level ``u``."""
    with np.errstate(divide="ignore"):
        scale = trials - np.log(u)
    return np.minimum(_MARGIN_CAP, _MARGIN_PER_UNIT * np.finfo(float).eps * scale)


def _solve(trials, x, weight, u):
    """Midpoint of the 2**-40 cell that bisecting [0, 1] on curve(pi) < u reaches.

    ``x`` and ``u`` are flat and every curve is non-constant with u in its
    range.  For C in {0, 1} the curve is the Clopper-Pearson Beta(x + 1 - C,
    N - x + C) distribution function, whose quantile is the root itself, so
    no Halley step runs.  For C in (0, 1) the curve is C pi**N at x = N and
    1 - (1 - C)(1 - pi)**N at x = 0, whose roots are in closed form, and
    u = 0 and u = 1 have the roots 0 and 1, again without Halley.  The other
    elements start from the normal approximation to logit pi under
    Beta(a, b) = Beta(x + 1 - C, N - x + C): mean digamma(a) - digamma(b)
    and variance trigamma(a) + trigamma(b), computed once per distinct x.
    Bracketed Halley steps refine that start.  The density is the mixture
    (1 - C) f1 + C f2 of f1 = Beta(x + 1, N - x) and f2 = Beta(x, N - x + 1),
    the binomial mass times (N - x)/(1 - pi) and x/pi, and its slope is
    (1 - C) f1 (x/pi - (N - x - 1)/(1 - pi)) + C f2 ((x - 1)/pi - (N - x)/(1 - pi)).
    A step shorter than _HALLEY_TOL min(pi, 1 - pi) is the last; one that
    leaves the bracket of the evaluated points halves it instead.

    The estimate is then bracketed by [L, R], a half-width of four margins of
    u over the density (at least a few ulps) on either side, and the curve is
    evaluated at both ends (an end at 0 or 1 needs no check).  The margin,
    _MARGIN_PER_UNIT (N - ln u) epsilons capped at _MARGIN_CAP, covers the
    curve's rounding.  When the curve at L is below u by the margin and the
    curve at R is at least u by it, every bisection midpoint <= L compares
    below and every one >= R does not; otherwise the bracket is [0, 1].  At
    u = 0 the root is the estimate 0 itself and R is a few ulps above it:
    the curve, a sum of nonnegative terms, never compares below 0.
    Bisection reaches the deepest dyadic cell holding [L, R] without an
    evaluation, and below it only the midpoints strictly inside (L, R) are
    evaluated.  Every comparison that is made is one that plain bisection
    makes, so the result is the same to the bit.
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
        active = np.flatnonzero((x > 0) & (x < trials) & (u > 0.0) & (u < 1.0))
    lo, hi = np.zeros(x.size), np.ones(x.size)
    for _ in range(_HALLEY_STEPS):
        if active.size == 0:
            break
        sub, p = curve.take(active), pi[active]
        sf, pmf = sub.terms(p)
        excess = sf + weight * pmf - u[active]
        below = excess < 0.0
        lo[active] = np.where(below, p, lo[active])
        hi[active] = np.where(below, hi[active], p)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f1 = (1.0 - weight) * pmf * (trials - sub.x) / (1.0 - p)
            f2 = weight * pmf * sub.x / p
            density = f1 + f2
            slope = f1 * (sub.x / p - (trials - sub.x - 1.0) / (1.0 - p)) + f2 * (
                (sub.x - 1.0) / p - (trials - sub.x) / (1.0 - p)
            )
            newton = excess / density
            step = newton / (1.0 - 0.5 * newton * slope / density)
            new = p - step
        inside = (lo[active] <= new) & (new <= hi[active])
        pi[active] = np.where(inside, new, 0.5 * (lo[active] + hi[active]))
        active = active[~(inside & (np.abs(step) <= _HALLEY_TOL * np.minimum(p, 1.0 - p)))]

    # the density as in the Halley step, a term whose coefficient is 0 taken
    # as 0 so that a root at 0 or 1 keeps a finite width; a width that is
    # not finite (no density, or a nan estimate) gives the bracket [0, 1]
    margin = _margin(trials, u)
    pmf = np.exp(_log_binomial_pmf(trials, x, pi, curve.log_coef))
    upper, lower = (1.0 - weight) * (trials - x), weight * x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.where(upper > 0.0, upper / (1.0 - pi), 0.0)
        scale += np.where(lower > 0.0, lower / pi, 0.0)
        width = np.where(u > 0.0, 4.0 * margin * u / (pmf * scale), 0.0)
        width = np.maximum(width, 4.0 * np.spacing(pi))
        left, right = np.fmax(pi - width, 0.0), np.fmin(pi + width, 1.0)
    # bisection never compares at 0 or 1, so an end there needs no check
    at_left, at_right = np.flatnonzero(left > 0.0), np.flatnonzero(right < 1.0)
    ends = curve.take(np.concatenate([at_left, at_right]))(
        np.concatenate([left[at_left], right[at_right]])
    )
    clear = np.ones(x.size, dtype=bool)
    clear[at_left] = ends[: at_left.size] < u[at_left] * (1.0 - margin[at_left])
    clear[at_right] &= ends[at_left.size :] >= u[at_right] * (1.0 + margin[at_right])
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
    at x = 0 and x = N) or a closed-form approximation refined by Halley
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
    low, high = _range(trials, x, weight)
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
    give the constant curve's atom, the trivial endpoint.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if side == SIDE_UPPER:
        return 0.0, float(_quantile(cd.trials, cd.successes, 0.0, 1.0 - alpha)[0])
    if side == SIDE_LOWER:
        return float(_quantile(cd.trials, cd.successes, 1.0, alpha)[0]), 1.0
    raise ValueError(f"side must be {SIDE_LOWER!r} or {SIDE_UPPER!r}, got {side!r}")


def sample_parameter(cd: ConfidenceDistribution, n_draws: int, seed) -> np.ndarray:
    """Draw parameter values distributed according to the significance curve.

    The generator is owned by this call; the same seed always reproduces the
    same draws.
    """
    u = np.random.default_rng(seed).random(_check_count("n_draws", n_draws, 1))
    return _quantile(cd.trials, cd.successes, cd.weight, u)
