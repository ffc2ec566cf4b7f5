"""Distribution primitives shared by every estimator in the package.

The argument checks every public function applies live here.  Chi-square
quantities with one degree of freedom use the standard-normal identities,
which are exact for that special case, and the Student t tail goes through
the regularized incomplete beta function.  The binomial masses and
coefficients behind the significance curve live in ``confidence``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _special as special


def _check_count(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int when it is a whole number in [low, high] (no upper
    bound when ``high`` is None), else a ValueError naming ``name``.

    Whole-valued floats such as 2.0 and numpy integers count as whole.
    """
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if not (whole and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be a whole number {bounds}, got {value}")
    return int(value)


def _check_seed(name: str, seed):
    """``seed`` as an int when it is a whole number >= 0, a SeedSequence as
    it is, else a ValueError naming ``name``."""
    return seed if isinstance(seed, np.random.SeedSequence) else _check_count(name, seed, 0)


def _check_unit(name: str, value) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _check_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


@dataclass(frozen=True)
class Chi2MixtureParams:
    """Null weight and alternative noncentrality of a chi-square(1 df) mixture."""

    pi0: float
    delta: float

    def __post_init__(self) -> None:
        _check_unit("pi0", self.pi0)
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")


def chi2_1df_sf(t):
    """Pr(chi2 with 1 df > t); broadcasts over ``t``, and a scalar gives a float.

    A squared standard normal exceeds t exactly when |Z| > sqrt(t), so this
    equals 2 * (1 - Phi(sqrt(t))) = erfc(sqrt(t / 2)), evaluated through erfc
    to keep far tails accurate.
    """
    t = np.asarray(t, dtype=float)
    bad = ~(t >= 0.0)
    if bad.any():
        raise ValueError(f"t must be nonnegative, got {t[bad].flat[0]}")
    sf = special.erfc(np.sqrt(0.5 * t))
    return float(sf) if sf.ndim == 0 else sf


def _chi2_1df_isf_arrays(p: np.ndarray) -> np.ndarray:
    """Inverse of the chi-square(1 df) survival function; p = 0 maps to inf."""
    return 2.0 * special.erfcinv(np.asarray(p, dtype=float)) ** 2


def student_t_sf(t, df: int):
    """Pr(T > t) for Student's t, via the regularized incomplete beta function;
    broadcasts over ``t``, a scalar ``t`` gives a float, and a nan raises."""
    _check_count("df", df, 1)
    t = np.asarray(t, dtype=float)
    if np.isnan(t).any():
        raise ValueError(f"t must not be nan, got {t[np.isnan(t)].flat[0]}")
    upper = 0.5 * special.betainc(0.5 * df, 0.5, df / (df + t * t))
    sf = np.where(t >= 0.0, upper, 1.0 - upper)
    return float(sf) if sf.ndim == 0 else sf
