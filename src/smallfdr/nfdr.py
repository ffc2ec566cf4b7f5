"""Point estimators of the chance that a rejected null hypothesis is true.

All three estimators substitute 1 for the unknown proportion of true nulls
and differ in how they estimate the marginal discovery probability from the
observed discovery count x out of N tests: the plug-in ratio uses x/N, the
corrected estimator uses the median of the confidence distribution of the
discovery probability, and the mean estimator averages the capped ratio
over that whole distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .confidence import (
    ConfidenceDistribution,
    SignificanceRangeError,
    inverse_significance,
    sample_parameter,
)

KIND_MLE = "mle"
KIND_CORRECTED = "corrected_median"
KIND_MEAN = "posterior_mean"
ESTIMATOR_KINDS = (KIND_MLE, KIND_CORRECTED, KIND_MEAN)

CAP_PER_DRAW = "per_draw"
CAP_FINAL = "final"


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
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
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
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    if not 0 <= x <= trials:
        raise ValueError(f"x must lie in [0, {trials}], got {x}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def mle_nfdr(alpha: float, x: int, trials: int) -> NfdrEstimate:
    """Capped plug-in ratio alpha / (x / N).

    Zero discoveries give 1: with nothing rejected there is no evidence
    against any null, and the ratio exceeds every bound anyway.
    """
    _check_basic(alpha, x, trials)
    if x == 0:
        return NfdrEstimate(1.0, KIND_MLE, alpha, x, trials, None, True)
    raw = alpha * trials / x
    return NfdrEstimate(min(raw, 1.0), KIND_MLE, alpha, x, trials, None, raw > 1.0)


@lru_cache(maxsize=8192)
def _median_scale(trials: int, x: int, weight: float) -> float:
    """Median of the confidence distribution of the discovery probability.

    Returns 0.0 when the median is undefined or degenerate, which callers
    translate into the conservative value 1.
    """
    try:
        return inverse_significance(ConfidenceDistribution(trials, x, weight), 0.5)
    except SignificanceRangeError:
        return 0.0


def corrected_nfdr(alpha: float, x: int, trials: int, weight: float = 1.0) -> NfdrEstimate:
    """Median-corrected estimator alpha / median(param distribution), capped at 1.

    The median is undefined at x = 0 with weight >= 1/2 (the significance
    function never dips to 1/2 there); that case and an exactly-zero median
    both return 1.
    """
    _check_basic(alpha, x, trials)
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    scale = _median_scale(trials, x, weight)
    if scale <= 0.0:
        return NfdrEstimate(1.0, KIND_CORRECTED, alpha, x, trials, weight, True)
    raw = alpha / scale
    return NfdrEstimate(
        min(raw, 1.0), KIND_CORRECTED, alpha, x, trials, weight, raw > 1.0
    )


def _capped_ratio(alpha: float, pi: np.ndarray) -> np.ndarray:
    """min(alpha / pi, 1) elementwise, with pi = 0 contributing the cap value 1."""
    pi = np.asarray(pi, dtype=float)
    ratio = np.divide(alpha, pi, out=np.full(pi.shape, np.inf), where=pi > 0.0)
    return np.minimum(ratio, 1.0)


def _mean_exact(alpha: float, cd: ConfidenceDistribution) -> float:
    """Mean of min(alpha/pi, 1) under the confidence distribution, in closed form.

    The distribution is (1 - C) Beta(x + 1, N - x) + C Beta(x, N - x + 1).
    Above alpha a Beta(a, b) component weights its density by 1/pi, which
    is (a + b - 1)/(a - 1) times the Beta(a - 1, b) density; at a = 1 that
    integral is b * sum_{j >= b} (1 - alpha)^j / j, summed as the full
    series -log(alpha) less its first b - 1 terms (alpha = 0 gives 0).
    """
    def component(a: int, b: int) -> float:
        if b == 0:  # the atom at pi = 1
            return alpha
        if a == 0:  # the atom at pi = 0, where the capped ratio is 1
            return 1.0
        below = special.betainc(a, b, alpha)
        if a == 1:
            j = np.arange(1.0, b)
            series = special.xlogy(alpha, alpha) + alpha * np.sum((1.0 - alpha) ** j / j)
            return below - b * series
        # I_{1-alpha}(b, a - 1) is 1 - I_alpha(a - 1, b) without cancellation.
        above = (a + b - 1) / (a - 1) * special.betainc(b, a - 1, 1.0 - alpha)
        return below + alpha * above

    x, n, c = cd.successes, cd.trials, cd.weight
    value = float((1.0 - c) * component(x + 1, n - x) + c * component(x, n - x + 1))
    if not np.isfinite(value):
        raise NumericFailure(
            f"the mean estimator evaluated to {value} "
            f"(alpha={alpha}, x={x}, N={n}, C={c})"
        )
    return min(max(value, 0.0), 1.0)


def mean_nfdr(
    alpha: float,
    x: int,
    trials: int,
    weight: float = 0.5,
    method: str = "monte_carlo",
    draws: int = 100,
    seed: int = 0,
    cap: str = CAP_PER_DRAW,
) -> NfdrEstimate:
    """Mean of the capped ratio min(alpha/pi, 1) over the confidence distribution.

    ``method`` is "monte_carlo" (average over ``draws`` inverse-CDF samples,
    seeded) or "quadrature" (the exact mean of the per-draw-capped ratio,
    from the Beta-mixture form of the confidence distribution).  ``cap``
    chooses where the unit bound applies in the Monte Carlo average:
    "per_draw" caps each sampled ratio, which bounds the variance where the
    raw ratio integral diverges near pi = 0; "final" averages raw ratios and
    caps the mean.
    """
    _check_basic(alpha, x, trials)
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    if method not in ("monte_carlo", "quadrature"):
        raise ValueError(f"method must be 'monte_carlo' or 'quadrature', got {method!r}")
    if cap not in (CAP_PER_DRAW, CAP_FINAL):
        raise ValueError(f"cap must be {CAP_PER_DRAW!r} or {CAP_FINAL!r}, got {cap!r}")
    cd = ConfidenceDistribution(trials, x, weight)
    if method == "quadrature":
        value = _mean_exact(alpha, cd)
        return NfdrEstimate(value, KIND_MEAN, alpha, x, trials, weight, value >= 1.0)
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    pi = sample_parameter(cd, draws, seed)
    if cap == CAP_PER_DRAW:
        value = float(np.mean(_capped_ratio(alpha, pi)))
    else:
        ratio = np.divide(alpha, pi, out=np.full(pi.shape, np.inf), where=pi > 0.0)
        value = float(min(np.mean(ratio), 1.0))
    return NfdrEstimate(value, KIND_MEAN, alpha, x, trials, weight, value >= 1.0)
