"""Distribution primitives shared by every estimator in the package.

Binomial probabilities are evaluated in log space so trial counts up to
about 10**6 stay finite; tail sums go through the regularized incomplete
beta function.  Chi-square quantities with one degree of freedom use the
standard-normal identities, which are exact for that special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)
_LOG_NORM_CONST = -0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class BinomialParams:
    """Trial count and per-trial success probability."""

    trials: int
    success_prob: float

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials}")
        if not 0.0 <= self.success_prob <= 1.0:
            raise ValueError(f"success_prob must lie in [0, 1], got {self.success_prob}")


@dataclass(frozen=True)
class Chi2MixtureParams:
    """Null weight and alternative noncentrality of a chi-square(1 df) mixture."""

    pi0: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError(f"pi0 must lie in [0, 1], got {self.pi0}")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")


def _check_count(params: BinomialParams, x: int) -> None:
    if not 0 <= x <= params.trials:
        raise ValueError(f"x must lie in [0, {params.trials}], got {x}")


def _log_binomial_coef(trials, x):
    """Log of the binomial coefficient (trials choose x); broadcasts over ``x``."""
    x = np.asarray(x, dtype=float)
    return (
        special.gammaln(trials + 1.0)
        - special.gammaln(x + 1.0)
        - special.gammaln(trials - x + 1.0)
    )


def _log_binomial_pmf(trials, x, p, log_coef):
    """Log binomial mass given ``log_coef = _log_binomial_coef(trials, x)``.

    Broadcasts over ``x`` and ``p``; callers that evaluate many p at fixed
    x compute the coefficient once.  xlogy/xlog1py give the correct
    0*log(0) = 0 limits at p = 0 and p = 1.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    return log_coef + special.xlogy(x, p) + special.xlog1py(trials - x, -p)


def binomial_pmf(params: BinomialParams, x: int) -> float:
    """Pr(X = x) for X binomial with the given parameters."""
    _check_count(params, x)
    n, k = params.trials, float(x)
    log_pmf = _log_binomial_pmf(n, k, params.success_prob, _log_binomial_coef(n, k))
    return float(np.exp(log_pmf))


def binomial_sf(params: BinomialParams, x: int) -> float:
    """Strict upper tail Pr(X > x); exactly 0 at x = trials."""
    _check_count(params, x)
    if x >= params.trials:
        return 0.0
    return float(special.betainc(x + 1.0, float(params.trials - x), params.success_prob))


def std_normal_cdf(z: float) -> float:
    """Standard normal distribution function, in complementary-error-function form."""
    return 0.5 * math.erfc(-z / _SQRT2)


def _std_normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / _SQRT2)


def chi2_1df_sf(t: float) -> float:
    """Pr(chi2 with 1 df > t).

    A squared standard normal exceeds t exactly when |Z| > sqrt(t), so this
    equals 2 * (1 - Phi(sqrt(t))), evaluated through erfc to keep far tails
    accurate.
    """
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return 2.0 * _std_normal_sf(math.sqrt(t))


def _chi2_1df_sf_arrays(t: np.ndarray) -> np.ndarray:
    return special.erfc(np.sqrt(0.5 * np.asarray(t, dtype=float)))


def _chi2_1df_isf_arrays(p: np.ndarray) -> np.ndarray:
    """Inverse of the chi-square(1 df) survival function; p = 0 maps to inf."""
    return 2.0 * special.erfcinv(np.asarray(p, dtype=float)) ** 2


def _std_normal_pdf(z: float) -> float:
    return math.exp(_LOG_NORM_CONST - 0.5 * z * z)


def noncentral_chi2_1df_pdf(t: float, delta: float) -> float:
    """Density at t > 0 of (Z + sqrt(delta))**2 with Z standard normal.

    At delta = 0 this reduces to the central chi-square density with one
    degree of freedom.
    """
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    rt = math.sqrt(t)
    rd = math.sqrt(delta)
    return (_std_normal_pdf(rt - rd) + _std_normal_pdf(rt + rd)) / (2.0 * rt)


def student_t_sf(t, df: int):
    """Pr(T > t) for Student's t, via the regularized incomplete beta function;
    broadcasts over ``t``, and a scalar ``t`` gives a float."""
    if df < 1:
        raise ValueError(f"df must be a positive integer, got {df}")
    t = np.asarray(t, dtype=float)
    upper = 0.5 * special.betainc(0.5 * df, 0.5, df / (df + t * t))
    sf = np.where(t >= 0.0, upper, 1.0 - upper)
    return float(sf) if sf.ndim == 0 else sf
