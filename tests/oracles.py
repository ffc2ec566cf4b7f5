"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths under test: the incomplete beta
uses a hand-rolled continued fraction, the mean estimator integrates the
binomial tail polynomial term by term in mpmath, and the step-up rule is
the plain textbook loop.
"""

import math
from fractions import Fraction

import mpmath

_CF_EPS = 1e-14
_CF_MAX_ITER = 500
_FPMIN = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def betainc_cf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), switching at the symmetry point."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def mean_capped_ratio_mp(alpha: float, x: int, n: int, weight: float) -> float:
    """E[min(alpha/pi, 1)] under the confidence distribution of x out of n.

    With F(s) = Pr(X > x; s) + weight * Pr(X = x; s), the distribution
    function of pi, the mean is alpha + alpha * int_alpha^1 F(s) / s^2 ds.
    F is expanded into a polynomial with exact rational coefficients and
    integrated term by term with n + 30 digits, enough for the 4^n-sized
    coefficients to cancel; no Beta identity is used.
    """
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(x, n + 1):
        scale = math.comb(n, k) * (Fraction(weight) if k == x else 1)
        for i in range(n - k + 1):
            coeffs[k + i] += scale * math.comb(n - k, i) * (-1) ** i
    with mpmath.workdps(n + 30):
        a = mpmath.mpf(alpha)
        total = mpmath.mpf(0)
        for m, c in enumerate(coeffs):
            if c:
                term = -mpmath.log(a) if m == 1 else (1 - a ** (m - 1)) / (m - 1)
                total += mpmath.mpf(c.numerator) / c.denominator * term
        return float(a + a * total)


def textbook_bh(p_values, q: float) -> set[int]:
    """Classic step-up rule; returns the indices of rejected hypotheses."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    k_star = 0
    for k in range(1, m + 1):
        if p_values[order[k - 1]] <= k * q / m:
            k_star = k
    return set(order[:k_star])
