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
from .confidence import _quantile, _range
from .distributions import _check_choice, _check_count, _check_unit
# Kept as a module attribute: perfbench/tracing.py wraps nfdr.inverse_significance.
from .confidence import inverse_significance  # noqa: F401

KIND_MLE = "mle"
KIND_CORRECTED = "corrected_median"
KIND_MEAN = "posterior_mean"
ESTIMATOR_KINDS = (KIND_MLE, KIND_CORRECTED, KIND_MEAN)
MEAN_METHODS = ("monte_carlo", "quadrature")


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


@dataclass(frozen=True)
class MixtureTruth:
    """True mixture quantities: null weight, null and marginal discovery probabilities."""

    pi0: float
    null_prob: float
    marginal_prob: float

    def __post_init__(self) -> None:
        for name in ("pi0", "null_prob", "marginal_prob"):
            _check_unit(name, getattr(self, name))
        # Bayes consistency: the marginal cannot fall below the null part.
        if self.marginal_prob < self.pi0 * self.null_prob - 1e-12:
            raise ValueError(
                f"marginal_prob={self.marginal_prob} is below "
                f"pi0 * null_prob = {self.pi0 * self.null_prob}"
            )


def true_nfdr(truth: MixtureTruth) -> float:
    """Posterior probability that a rejected hypothesis is null, by Bayes's rule."""
    if truth.marginal_prob <= 0.0:
        raise ValueError("marginal_prob must be positive; cannot condition on a null event")
    return min(truth.pi0 * truth.null_prob / truth.marginal_prob, 1.0)


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
    range: x = N with C < 1/2) or is the atom at 0 (x = 0 with C > 1/2).
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
    series -log(alpha) less its first b - 1 terms (alpha = 0 gives 0).
    """
    below = special.betainc(a, b, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        # I_{1-alpha}(b, a - 1) is 1 - I_alpha(a - 1, b) without cancellation;
        # the a = 1 elements divide by zero here and are replaced below.
        above = (a + b - 1.0) / (a - 1.0) * special.betainc(b, a - 1.0, 1.0 - alpha)
        value = below + alpha * above
    for i in np.flatnonzero(a == 1.0):
        j = np.arange(1.0, b[i])
        series = special.xlogy(alpha[i], alpha[i]) + alpha[i] * np.sum((1.0 - alpha[i]) ** j / j)
        value[i] = below[i] - b[i] * series
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
    """
    pi = _quantile(trials, np.asarray(x)[..., None], weight, u)
    alpha = np.asarray(alpha, dtype=float)[..., None]
    ratio = np.divide(alpha, pi, out=np.full(pi.shape, np.inf), where=pi > 0.0)
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
    function never rises to 1/2 there) and is the atom at 0 at x = 0 with
    weight > 1/2; both cases return 1, flagged as capped.
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
    """
    _check_basic(alpha, x, trials)
    _check_unit("weight", weight)
    _check_choice("method", method, MEAN_METHODS)
    if method == "quadrature":
        value, capped = _mean_exact(alpha, x, trials, weight)
    else:
        u = np.random.default_rng(seed).random(_check_count("draws", draws, 1))
        value, capped = _mean_mc(alpha, x, trials, weight, u)
    return NfdrEstimate(float(value), KIND_MEAN, alpha, x, trials, weight, bool(capped))
