"""Point estimators of the chance that a rejected null hypothesis is true.

All three estimators substitute 1 for the unknown proportion of true nulls
and differ in how they estimate the marginal discovery probability from the
observed discovery count x out of N tests: the plug-in ratio uses x/N, the
corrected estimator uses the median of the confidence distribution of the
discovery probability, and the mean estimator averages the capped ratio
over that whole distribution.

Each estimator is one array function (``_mle``, ``_corrected``,
``_mean_exact`` and the Monte Carlo ``_mean_mc``) that broadcasts over the
level and the count; the scalar functions, the rank-doubling estimates, the
step-up rule and the exact coverage all call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _special as special
from . import confidence
from .confidence import _quantile, _range
from .distributions import _check_choice, _check_count, _check_seed, _check_unit
# Kept as a module attribute: perfbench/tracing.py wraps nfdr.inverse_significance.
from .confidence import inverse_significance  # noqa: F401

KIND_MLE = "mle"
KIND_CORRECTED = "corrected_median"
KIND_MEAN = "posterior_mean"
ESTIMATOR_KINDS = (KIND_MLE, KIND_CORRECTED, KIND_MEAN)
MEAN_METHODS = ("monte_carlo", "quadrature")

# Relative margin of the Monte Carlo mean's cap screen (``_mean_mc``): it
# must exceed the curve's rounding, with the saddle-point binomial
# coefficient up to 6e-12 at N = 10**6 against mpmath, and the 1e-14 of the
# 0 < C < 1 root.
# A draw within the margin of the screen's edge is solved, about a share m
# of the draws.
_SCREEN_MARGIN = 1e-6


class NumericFailure(RuntimeError):
    """A numerical routine produced a non-finite or unusable result."""


@dataclass(frozen=True)
class NfdrEstimate:
    """An estimated nonlocal false discovery rate and how it was obtained.

    ``capped`` is True when the unit bound or a zero-discovery convention
    determined the value rather than the raw ratio.  ``weight`` is the tail
    weight C for the corrected and mean kinds and None for the plug-in MLE,
    which does not use one.
    """

    value: float
    kind: str
    alpha: float
    successes: int
    trials: int
    weight: float | None
    capped: bool


def _check_basic(alpha: float, x: int, trials: int) -> None:
    _check_count("trials", trials, 1)
    _check_count("x", x, 0, trials)
    _check_unit("alpha", alpha)


def _mle(alpha, x, trials):
    """Plug-in ratio alpha N / x capped at 1, and whether the cap applied.

    Broadcasts over ``alpha`` and ``x``; x = 0 gives the capped value 1.
    """
    alpha = np.asarray(alpha, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(np.asarray(x) == 0, np.inf, alpha * trials / x)
    return np.minimum(raw, 1.0), raw > 1.0


def _corrected(alpha, x, trials, weight):
    """alpha over the median of the confidence distribution, capped at 1, and
    whether the cap applied.

    Broadcasts over ``alpha`` and ``x``, with one median solved per element
    of ``x``.  The median counts as 0, which gives the capped value 1, when
    it does not exist (1/2 above the top of the significance function's
    range: x = N with C < 1/2) or is 0: the atom at 0 (x = 0 with C > 1/2),
    or the root 0 at x = 0 with C = 1/2, where the range starts at 1/2.
    """
    x = np.asarray(x)
    median = _quantile(trials, x, weight, 0.5).reshape(x.shape)
    degenerate = (median == 0.0) | (_range(trials, x, weight)[1] < 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(degenerate, np.inf, alpha / median)
    return np.minimum(raw, 1.0), raw > 1.0


def _beta_mean(alpha, a, b):
    """Mean of min(alpha/pi, 1) under Beta(a, b), elementwise over flat arrays.

    Beta(0, b) is the atom at 0, where the capped ratio is 1, and Beta(a, 0)
    the atom at 1.  Above alpha the density weighted by 1/pi is
    (a + b - 1)/(a - 1) times the Beta(a - 1, b) density; at a = 1 that
    integral is b * sum_{j >= b} (1 - alpha)^j / j, summed as the full
    series -log(alpha) less its first b - 1 terms (alpha = 0 gives 0).  The
    a = 1 elements of one b sum their terms as the rows of one array, which
    gives the bits of one sum per element.
    """
    below = special.betainc(a, b, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        # I_{1-alpha}(b, a - 1) is 1 - I_alpha(a - 1, b) without cancellation;
        # the a = 1 elements divide by zero here and are replaced below.
        above = (a + b - 1.0) / (a - 1.0) * special.betainc(b, a - 1.0, 1.0 - alpha)
        value = below + alpha * above
    ones = np.flatnonzero(a == 1.0)
    for count in np.unique(b[ones]):
        i = ones[b[ones] == count]
        j = np.arange(1.0, count)
        terms = (1.0 - alpha[i, None]) ** j / j
        series = special.xlogy(alpha[i], alpha[i]) + alpha[i] * np.sum(terms, axis=1)
        value[i] = below[i] - count * series
    return np.where(b == 0.0, alpha, np.where(a == 0.0, 1.0, value))


def _mean_exact(alpha, x, trials, weight):
    """Mean of min(alpha/pi, 1) under the confidence distribution, in closed
    form, and whether it reaches the cap 1.

    The distribution is (1 - C) Beta(x + 1, N - x) + C Beta(x, N - x + 1).
    Broadcasts over ``alpha`` and ``x``.
    """
    alpha, x = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(x, dtype=float))
    shape = x.shape
    alpha, x = alpha.ravel(), x.ravel()
    value = (1.0 - weight) * _beta_mean(alpha, x + 1.0, trials - x) + weight * _beta_mean(
        alpha, x, trials - x + 1.0
    )
    bad = np.flatnonzero(~np.isfinite(value))
    if bad.size:
        i = bad[0]
        raise NumericFailure(
            f"the mean estimator evaluated to {value[i]} "
            f"(alpha={alpha[i]}, x={int(x[i])}, N={trials}, C={weight})"
        )
    value = np.minimum(np.maximum(value, 0.0), 1.0).reshape(shape)
    return value, value >= 1.0


def _mean_mc(alpha, x, trials, weight, u):
    """Monte Carlo mean of min(alpha/pi, 1), and whether it reaches the cap 1.

    The draws pi invert the significance function at the uniforms ``u``;
    each ratio is capped before the mean along the last axis of ``u``, whose
    leading axes broadcast with ``alpha`` and ``x``; pi = 0 gives the capped
    ratio 1.  Every mean depends only on its own level, count and uniforms.

    For 0 < C < 1, where the inverse is the root to 1e-14 of itself, a draw
    below F(alpha (1 - m)) (1 - m), F the curve and m = _SCREEN_MARGIN, has
    its root below alpha (1 - m), so its solved pi is at most alpha and its
    capped ratio is 1; it is given 1 without being solved.  For C in {0, 1}
    the inverse is a bisection midpoint, which can lie above a small alpha,
    and every draw is solved.
    """
    alpha, x, u = np.broadcast_arrays(
        np.asarray(alpha, dtype=float)[..., None], np.asarray(x)[..., None], u
    )
    solve = np.ones(u.shape, dtype=bool)
    if 0.0 < weight < 1.0:
        level = alpha[..., 0] * (1.0 - _SCREEN_MARGIN)
        f = confidence._curve(trials, x[..., 0].ravel(), weight, level.ravel())
        top = f.reshape(level.shape) * (1.0 - _SCREEN_MARGIN)
        solve = ~(u < top[..., None])  # a nan level solves every draw
    pi = _quantile(trials, x[solve], weight, u[solve])
    ratio = np.ones(u.shape)
    ratio[solve] = np.divide(alpha[solve], pi, out=np.full(pi.shape, np.inf), where=pi > 0.0)
    value = np.minimum(ratio, 1.0).mean(axis=-1)
    return value, value >= 1.0


def _estimate(kind, alpha, x, trials, weight):
    """Value and capped flag of the exact estimator ``kind`` at tail weight
    ``weight`` (unused by the plug-in), broadcasting over ``alpha`` and ``x``."""
    _check_choice("kind", kind, ESTIMATOR_KINDS)
    if kind == KIND_MLE:
        return _mle(alpha, x, trials)
    if kind == KIND_CORRECTED:
        return _corrected(alpha, x, trials, weight)
    return _mean_exact(alpha, x, trials, weight)


def mle_nfdr(alpha: float, x: int, trials: int) -> NfdrEstimate:
    """Capped plug-in ratio alpha / (x / N).

    Zero discoveries give 1: with nothing rejected there is no evidence
    against any null, and the ratio exceeds every bound anyway.
    """
    _check_basic(alpha, x, trials)
    value, capped = _mle(alpha, x, trials)
    return NfdrEstimate(float(value), KIND_MLE, alpha, x, trials, None, bool(capped))


def corrected_nfdr(alpha: float, x: int, trials: int, weight: float = 1.0) -> NfdrEstimate:
    """Median-corrected estimator alpha / median(param distribution), capped at 1.

    The median is undefined at x = N with weight < 1/2 (the significance
    function never rises to 1/2 there) and is 0 at x = 0 with weight >= 1/2
    (the atom at 0 above 1/2); these cases return 1, flagged as capped.
    """
    _check_basic(alpha, x, trials)
    _check_unit("weight", weight)
    value, capped = _corrected(alpha, x, trials, weight)
    return NfdrEstimate(
        float(value), KIND_CORRECTED, alpha, x, trials, weight, bool(capped)
    )


def mean_nfdr(
    alpha: float,
    x: int,
    trials: int,
    weight: float = 0.5,
    method: str = "monte_carlo",
    draws: int = 100,
    seed: int = 0,
) -> NfdrEstimate:
    """Mean of the capped ratio min(alpha/pi, 1) over the confidence distribution.

    ``method`` is "monte_carlo" (average over ``draws`` inverse-CDF samples,
    seeded, each ratio capped before averaging, which bounds the variance
    where the raw ratio integral diverges near pi = 0) or "quadrature" (the
    exact mean, from the Beta-mixture form of the confidence distribution).
    ``draws`` and ``seed``, a whole number >= 0 or a SeedSequence, are checked
    for either method.
    """
    _check_basic(alpha, x, trials)
    _check_unit("weight", weight)
    _check_choice("method", method, MEAN_METHODS)
    draws = _check_count("draws", draws, 1)
    seed = _check_seed("seed", seed)
    if method == "quadrature":
        value, capped = _mean_exact(alpha, x, trials, weight)
    else:
        u = np.random.default_rng(seed).random(draws)
        value, capped = _mean_mc(alpha, x, trials, weight, u)
    return NfdrEstimate(float(value), KIND_MEAN, alpha, x, trials, weight, bool(capped))
