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

import math
from dataclasses import dataclass

import numpy as np

from . import _special as special
from .distributions import _check_count, _check_seed, _check_unit

# For C in {0, 1} the inverse is the midpoint of the cell of width
# 2**-40 < 1e-12 that 40 halvings of [0, 1] reach; every cell along the way
# is a dyadic interval.
_BISECT_STEPS = 40

# Relative margin by which the curve at each end of the bracket certified
# around the C in {0, 1} estimate must clear u: _MARGIN_PER_UNIT (N - ln u) machine
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
# about cubic in the step.  (An absolute 1e-6 fails at N = 10**5, where the
# curve bends on the scale of the Beta spread, not of pi.)  _HALLEY_STEPS only
# bounds the loop; the bracket halves wherever a step would leave it.
_HALLEY_TOL = 1e-6
_HALLEY_STEPS = 64
_LEAST_SUBNORMAL = np.finfo(float).smallest_subnormal

# Below the mean, an element whose binomial mass is under
# exp(-min(_DEEP_PER_SUCCESS x, _DEEP_FLOOR)) takes the curve from the mass
# and a power series instead of betainc, whose relative error grows with the
# log of its value and which loses digits where pi**x underflows.
_DEEP_PER_SUCCESS = 20.0
_DEEP_FLOOR = 500.0

_LOG_2PI = math.log(2.0 * math.pi)

# log n! - (n log n - n + log(2 pi n) / 2) for n = 1..15, from mpmath
_STIRLING_ERRORS = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])

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


def _curve(trials, x, weight, pi, log_coef=None):
    """Pr(X > x; pi) + weight * Pr(X = x; pi), one x and one pi per element.

    ``log_coef`` is log(trials choose x), by default ``_log_choose``'s for
    0 < x < trials and 0 at x in {0, trials}.  Each element's value depends
    only on its own x, pi and coefficient, whichever elements are evaluated
    with it.
    """
    if log_coef is None:
        log_coef = np.zeros(x.size)
        between = np.flatnonzero((x > 0) & (x < trials))
        log_coef[between] = _log_choose(trials, x[between])
    inner = np.flatnonzero(x < trials)
    sf = np.zeros(pi.shape)
    sf[inner] = special.betainc(x[inner] + 1.0, trials - x[inner], pi[inner])
    return sf + weight * np.exp(_log_binomial_pmf(trials, x, pi, log_coef))


def significance(cd: ConfidenceDistribution, pi: float) -> float:
    """Weighted upper-tail probability at success probability ``pi``."""
    _check_unit("pi", pi)
    x = np.asarray([float(cd.successes)])
    return float(_curve(cd.trials, x, cd.weight, np.asarray([pi], dtype=float))[0])


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


def _bisection_cell(trials, x, weight, u):
    """Midpoint of the 2**-40 cell that bisecting [0, 1] on curve(pi) < u
    reaches, for C in {0, 1}.

    ``x`` and ``u`` are flat and every curve is non-constant with u in its
    range.  The curve is the Clopper-Pearson Beta(x + 1 - C, N - x + C)
    distribution function, and its quantile (betaincinv) is the estimate.
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
    log_coef = _log_binomial_coef(trials, x)
    pi = special.betaincinv(x + 1.0 - weight, trials - x + weight, u)

    # the density, a term whose coefficient is 0 taken as 0 so that a root at
    # 0 or 1 keeps a finite width; a width that is not finite (no density, or
    # a nan estimate) gives the bracket [0, 1]
    margin = _margin(trials, u)
    pmf = np.exp(_log_binomial_pmf(trials, x, pi, log_coef))
    upper, lower = (1.0 - weight) * (trials - x), weight * x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.where(upper > 0.0, upper / (1.0 - pi), 0.0)
        scale += np.where(lower > 0.0, lower / pi, 0.0)
        width = np.where(u > 0.0, 4.0 * margin * u / (pmf * scale), 0.0)
        width = np.maximum(width, 4.0 * np.spacing(pi))
        left, right = np.fmax(pi - width, 0.0), np.fmin(pi + width, 1.0)
    # bisection never compares at 0 or 1, so an end there needs no check
    at_left, at_right = np.flatnonzero(left > 0.0), np.flatnonzero(right < 1.0)
    at = np.concatenate([at_left, at_right])
    ends = _curve(
        trials, x[at], weight, np.concatenate([left[at_left], right[at_right]]), log_coef[at]
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
            at = live[inside]
            below[inside] = _curve(trials, x[at], weight, mid[inside], log_coef[at]) < u[at]
        lo[live] = np.where(below, mid, lo[live])
    return lo + 0.5 / cells


def _stirling_error(n):
    """log n! - (n log n - n + log(2 pi n) / 2) for whole n >= 1: its series
    above 15, a table (mpmath's values, rounded) at or below it."""
    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n
    table = _STIRLING_ERRORS[np.minimum(n, 15.0).astype(int) - 1]
    return np.where(n > 15.0, series, table)


def _log_choose(trials, x):
    """log(trials choose x) for 0 < x < trials, to a few ulps of its own size.

    Loader's (2000) saddle-point form: the Stirling errors of N, x and N - x,
    the two nonnegative terms x log(1 + (N - x)/x) and (N - x) log(1 + x/(N - x)), less
    half the log of 2 pi x (N - x)/N.  The difference of log-gammas that
    ``_log_binomial_coef`` takes is off by ulps of log N! instead, 1e-12 at
    N = 1000.
    """
    rest = trials - x
    return (
        _stirling_error(np.float64(trials)) - _stirling_error(x) - _stirling_error(rest)
        + x * np.log1p(rest / x) + rest * np.log1p(x / rest)
        - 0.5 * (_LOG_2PI + np.log(x) + np.log(rest / trials))
    )


def _log_binomial_coef(trials, x):
    """log(trials choose x) as a difference of log-gammas, broadcasting over
    ``x``.  Only the C in {0, 1} certificate (``_bisection_cell``) takes it,
    since its bits rest on it; every other curve takes ``_log_choose``."""
    gammaln = special.gammaln
    return gammaln(trials + 1.0) - gammaln(x + 1.0) - gammaln(trials - x + 1.0)


def _log_binomial_pmf(trials, x, p, log_coef):
    """Log binomial mass given ``log_coef`` = log(trials choose x), in log
    space so that trial counts up to about 10**6 stay finite.

    Broadcasts over ``x`` and ``p``; xlogy/xlog1py give the correct
    0*log(0) = 0 limits at p = 0 and p = 1.
    """
    return log_coef + special.xlogy(x, p) + special.xlog1py(trials - x, -p)


def _log_excess(trials, x, weight, pi, upper, target, log_coef):
    """log(side / target) for 0 < pi < 1, and its first two derivatives in the
    log of the side's variable: the curve F in pi, or 1 - F in 1 - pi where
    ``upper``.

    F = Pr(X > x) + C m and 1 - F = Pr(X < x) + (1 - C) m, with the mass
    m = Pr(X = x) from ``log_coef`` = log(N choose x).  At or below the mean
    of Beta(x + 1, N - x) the strict tail Pr(X > x) is betainc at pi; above
    it the lower tail Pr(X < x) is betainc at 1 - pi, rounded to q, and the
    rounding 1 - pi - q (exact in floating point) times the Beta(x, N - x + 1)
    density at pi is added back.  betainc is called only on the side of its
    mean, where it does not take 1 - pi itself, and the side that is small
    keeps its relative accuracy.  Far below the mean F is m (C + S), with
    S = Pr(X > x)/m summed term by term (each term is at most half the one
    before) and pi**x and the target scaled by powers of 2, so that neither
    the log of pi nor an underflow costs digits.
    """
    q = 1.0 - pi
    rest = trials - x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        odds = pi / q
        log_mass = log_coef + x * np.log(pi) + rest * np.log1p(-pi)
        mass = np.exp(log_mass)
        swap = pi > (x + 1.0) / (trials + 1.0)
        tail = special.betainc(
            np.where(swap, rest + 1.0, x + 1.0), np.where(swap, x, rest), np.where(swap, q, pi)
        )
        tail += np.where(swap, ((1.0 - q) - pi) * mass * x / pi, 0.0)
        # the upper side takes Pr(X < x), the lower Pr(X > x): the tail that
        # betainc gave, or 1 less it and the mass
        side = np.where(swap == upper, tail, 1.0 - tail - mass) + np.where(
            upper, 1.0 - weight, weight
        ) * mass
        share = mass / side
        excess = np.log(side / target)
        far = np.flatnonzero(~np.isfinite(excess))
        excess[far] = np.log(side[far]) - np.log(target[far])
        ratio = rest / (x + 1.0) * odds
        deep = np.flatnonzero(
            ~upper & (ratio < 0.5) & (log_mass < -np.minimum(_DEEP_PER_SUCCESS * x, _DEEP_FLOOR))
        )
        if deep.size:
            xd, pd, od = x[deep], pi[deep], odds[deep]
            term = ratio[deep]
            series, j = term.copy(), 1.0
            while np.any(term > 2.0**-60 * series):
                term = term * (trials - xd - j) / (xd + 1.0 + j) * od
                series += term
                j += 1.0
            # log(m / target) with pi**x / target split into mantissas and a
            # power of 2, which is near 1 at the root
            (mant, expo), (mant_t, expo_t) = np.frexp(pd), np.frexp(target[deep])
            log_ratio = log_coef[deep] + rest[deep] * np.log1p(-pd) + xd * np.log(mant)
            excess[deep] = (
                log_ratio - np.log(mant_t) + (xd * expo - expo_t) * math.log(2.0)
                + np.log(weight + series)
            )
            share[deep] = 1.0 / (weight + series)
        # pi times the density over m, (1 - C)(N - x) pi/(1 - pi) + C x, in two
        # terms, and pi times the density's log-slope; no term overflows
        # at a subnormal pi
        w1, w2 = (1.0 - weight) * rest * odds, weight * x
        spread = w1 + w2
        slope = (w1 * (x - (rest - 1.0) * odds) + w2 * (x - 1.0 - rest * odds)) / spread
        # d/d log(1 - pi) = -(1 - pi)/pi d/d log pi
        turn = np.where(upper, -q / pi, 1.0)
        elasticity = np.abs(turn) * spread * share
        bend = elasticity * (1.0 + turn * slope - elasticity)
    return excess, elasticity, bend


def _halley(trials, x, weight, u):
    """The root of curve(pi) = u for C in (0, 1), to about 1e-15 of itself.

    ``x`` and ``u`` are flat and u lies in each curve's range.  The curve is
    C pi**N at x = N and 1 - (1 - C)(1 - pi)**N at x = 0, whose roots are in
    closed form, and u = 0 and u = 1 have the roots 0 and 1; none of these
    evaluates the curve.  The other elements start from the Cornish-Fisher
    approximation to logit pi under Beta(a, b) = Beta(x + 1 - C, N - x + C)
    to the third cumulant, mean + sd (z + skew (z**2 - 1) / 6) with
    z = ndtri(u): mean digamma(a) - digamma(b), variance trigamma(a) +
    trigamma(b) and skewness (polygamma(2, a) - polygamma(2, b)) / sd**3,
    computed once per distinct x; past the turn of the quadratic in z the
    skew term is dropped.  Bracketed Halley steps in log pi on
    log F - log u (u <= 1/2), or in log(1 - pi) on the log of the
    complementary curve (u > 1/2), refine the start (``_log_excess``); in a
    far tail the curve is close to a power of pi or of 1 - pi, which these
    steps solve in one.  A step that would leave the bracket of the
    evaluated points halves it instead, and a step shorter than
    _HALLEY_TOL min(pi, 1 - pi) is the last.  A step in pi (u <= 1/2) whose
    end underflows to 0 ends at the least subnormal instead; one that
    underflows from there is the last and gives 0, the root rounded.
    """
    pi = np.empty(x.size)
    top, bottom = np.flatnonzero(x == trials), np.flatnonzero(x == 0)
    level = u[top] / weight
    root = level ** (1.0 / trials)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        # one Newton step on pi**N = level: the rounding of the exponent 1/N
        # alone moves the root by up to 1e-14 of itself when level is small;
        # a subnormal level has lost digits, which the logs of u and C keep
        fix = root * (level / root**trials - 1.0) / trials
        tiny = (np.log(u[top]) - math.log(weight)) / trials
        pi[top] = np.where(level >= np.finfo(float).tiny, root + fix, np.exp(tiny))
        # (1 - pi)**N = 1 + (C - u)/(1 - C): log1p keeps a root near 0
        # accurate, the quotient one near 1; 0.0 - turns a root -0.0 into 0.0
        shift = (weight - u[bottom]) / (1.0 - weight)
        log_rest = np.where(
            shift > -0.5, np.log1p(shift), np.log((1.0 - u[bottom]) / (1.0 - weight))
        )
        pi[bottom] = 0.0 - np.expm1(log_rest / trials)

    # the skew-corrected start only where 0 < x < N: at x = N, b is the weight, whose
    # digamma overflows when it is subnormal
    interior = np.flatnonzero((x > 0) & (x < trials))
    distinct, index = np.unique(x[interior], return_inverse=True)
    a, b = distinct + 1.0 - weight, trials - distinct + weight
    # digamma is psi, the trigamma polygamma(1, .) is the Hurwitz zeta(2, .)
    # and polygamma(2, .) is -2 zeta(3, .)
    mean = special.psi(a) - special.psi(b)
    sd = np.sqrt(special._zeta(2.0, a) + special._zeta(2.0, b))
    skew = (2.0 * (special._zeta(3.0, b) - special._zeta(3.0, a)) / sd**3)[index]
    # u = 0 and u = 1 keep z = -inf and +inf, and so their roots 0 and 1; past
    # the turn of z + skew (z**2 - 1) / 6, at skew z = -3, the term is dropped
    z = special.ndtri(u[interior])
    finite = np.where(np.isfinite(z), z, 0.0)
    shift = np.where(skew * finite < -3.0, 0.0, skew * (finite**2 - 1.0) / 6.0)
    pi[interior] = special.expit(mean[index] + sd[index] * (z + shift))
    log_coef = np.zeros(x.size)
    log_coef[interior] = _log_choose(trials, distinct)[index]

    upper = u > 0.5
    index = interior[(u[interior] > 0.0) & (u[interior] < 1.0)]
    # the unfinished elements, compacted as they finish
    state = [index, x[index], upper[index], np.where(upper, 1.0 - u, u)[index], log_coef[index]]
    p, lo, hi = pi[index], np.zeros(index.size), np.ones(index.size)
    for _ in range(_HALLEY_STEPS):
        if p.size == 0:
            break
        index, xs, up, target, coef = state
        excess, elasticity, bend = _log_excess(trials, xs, weight, p, up, target, coef)
        below = np.where(up, excess > 0.0, excess < 0.0)
        lo, hi = np.where(below, p, lo), np.where(below, hi, p)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            # Halley's factor, or Newton's 1 where it strays (far from the root)
            halley = 1.0 - 0.5 * excess * bend / elasticity**2
            halley = np.where((halley > 0.5) & (halley < 2.0), halley, 1.0)
            # no finite slope (1 - pi rounded to nearly 0) halves the bracket
            step = np.where(np.isfinite(elasticity), excess / (elasticity * halley), np.nan)
            new = np.where(up, p - (1.0 - p) * np.expm1(-step), p * np.exp(-step))
        underflow = ~up & (new == 0.0)
        zero = underflow & (p == _LEAST_SUBNORMAL)
        new = np.where(underflow & ~zero, _LEAST_SUBNORMAL, new)
        inside = (lo <= new) & (new <= hi) & (new > 0.0) & (new < 1.0)
        last = zero | inside & (np.abs(new - p) <= _HALLEY_TOL * np.minimum(p, 1.0 - p))
        p = np.where(inside | zero, new, 0.5 * (lo + hi))
        pi[index[last]] = p[last]
        keep = ~last
        state = [a[keep] for a in state]
        p, lo, hi = p[keep], lo[keep], hi[keep]
    pi[state[0]] = p
    return pi


def _quantile(trials, x, weight, u):
    """Inverse of the significance function in pi, broadcasting over x and u.

    For C in {0, 1} the value is the midpoint of the 2**-40 cell that
    bisecting [0, 1] on significance < u reaches (``_bisection_cell``), and
    for C in (0, 1) the root itself to about 1e-15 of its size
    (``_halley``).  Each element depends only on its own (x, u), so a stack
    of rows gives exactly the per-row results.  Values of u below the
    attainable range land on the atom of the confidence distribution at 0
    (x = 0), values above it on the atom at 1 (x = trials), and a constant
    curve (x = 0 with C = 1, x = trials with C = 0) is its atom for every u,
    which makes this a proper inverse-CDF sampler.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    shape = np.broadcast_shapes(x.shape, u.shape)
    low, high = _range(trials, x, weight)
    to_zero = np.broadcast_to((u < low) | (low == 1.0), shape)
    to_one = np.broadcast_to((u > high) | (high == 0.0), shape)
    pi = np.where(to_zero, 0.0, 1.0)
    inside = ~(to_zero | to_one)
    solve = _bisection_cell if weight in (0.0, 1.0) else _halley
    pi[inside] = solve(
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
    u = np.random.default_rng(_check_seed("seed", seed)).random(_check_count("n_draws", n_draws, 1))
    return _quantile(cd.trials, cd.successes, cd.weight, u)
