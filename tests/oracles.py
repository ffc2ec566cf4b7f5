"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths under test: the incomplete beta
uses a hand-rolled continued fraction, the mean estimator integrates the
binomial tail polynomial term by term in mpmath, the significance-function
inverse is the plain 40-step bisection, the step-up rule is the plain
textbook loop, p-value sets, lfdr results and output tables are built one
row at a time, and tables are written with csv.writer and json.dump.
"""

import csv
import io
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import special

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


def mean_exact_scalar(alpha: float, x: int, n: int, c: float) -> float:
    """Mean of min(alpha/pi, 1) under (1 - c) Beta(x + 1, n - x) + c Beta(x, n - x + 1).

    The closed form one element at a time: Python ints for the Beta
    parameters, so the ratio (a + b - 1)/(a - 1) is an int true division,
    and the a = 1 series as one np.sum per element.  The package's array
    form must give the same bits.
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
        above = (a + b - 1) / (a - 1) * special.betainc(b, a - 1, 1.0 - alpha)
        return below + alpha * above

    value = float((1.0 - c) * component(x + 1, n - x) + c * component(x, n - x + 1))
    return min(max(value, 0.0), 1.0)


def nfdr_scalar(kind: str, alpha: float, x: int, n: int, weight: float) -> float:
    """One-count estimate of ``kind`` ("mle", "corrected_median", "posterior_mean").

    The plug-in is min(alpha n / x, 1) with 1 at x = 0.  The corrected
    estimate is min(alpha / median, 1) with the median from
    ``bisection_quantile``, and 1 where no unique median exists: the
    significance function is constant or 1/2 lies outside its range.  The
    mean is ``mean_exact_scalar``.
    """
    if kind == "mle":
        return 1.0 if x == 0 else min(alpha * n / x, 1.0)
    if kind == "posterior_mean":
        return mean_exact_scalar(alpha, x, n, weight)
    low = weight if x == 0 else 0.0
    high = 1.0 if x < n else weight
    if low == high or not low <= 0.5 <= high:
        return 1.0
    return min(alpha / float(bisection_quantile(n, x, weight, 0.5)[0]), 1.0)


def coverage_scalar(trials: int, alpha: float, pi: float, estimate) -> float:
    """Pr_pi(estimate(x) >= alpha / pi) for X ~ Binomial(trials, pi), by a loop.

    ``estimate`` maps a discovery count to the estimate; the binomial mass of
    each count that reaches the bound is added in order of x.
    """
    from smallfdr import BinomialParams, binomial_pmf

    bound = alpha / pi
    params = BinomialParams(trials, pi)
    total = 0.0
    for x in range(trials + 1):
        if estimate(x) >= bound:
            total += binomial_pmf(params, x)
    return total


def bisection_quantile(trials, x, weight, u):
    """Plain 40-step bisection of Pr(X > x; pi) + weight * Pr(X = x; pi) = u.

    Every element halves [0, 1] forty times on curve(mid) < u and returns
    the midpoint of its final cell; u below the attainable range gives the
    atom 0 and u above it the atom 1.  The curve is evaluated with the same
    elementwise arithmetic as the package, so the warm-started solver must
    match it bit for bit; a constant curve (x = 0 with weight 1, x = trials
    with weight 0) has no root and its result here is whatever bisection
    lands on.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    shape = np.broadcast_shapes(x.shape, u.shape)
    log_coef = (
        special.gammaln(trials + 1.0)
        - special.gammaln(x + 1.0)
        - special.gammaln(trials - x + 1.0)
    )
    inner = np.broadcast_to(x < trials, shape)
    x_inner = np.broadcast_to(x, shape)[inner]
    lo, hi = np.zeros(shape), np.ones(shape)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        sf = np.zeros(shape)
        sf[inner] = special.betainc(x_inner + 1.0, trials - x_inner, mid[inner])
        log_pmf = log_coef + special.xlogy(x, mid) + special.xlog1py(trials - x, -mid)
        below = sf + weight * np.exp(log_pmf) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    low = np.where(x == 0, weight, 0.0)
    high = np.where(x < trials, 1.0, weight)
    return np.where(u < low, 0.0, np.where(u > high, 1.0, 0.5 * (lo + hi)))


def textbook_bh(p_values, q: float) -> set[int]:
    """Classic step-up rule; returns the indices of rejected hypotheses."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    k_star = 0
    for k in range(1, m + 1):
        if p_values[order[k - 1]] <= k * q / m:
            k_star = k
    return set(order[:k_star])


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _csv_line(cells) -> str:
    """One CSV row ending in "\n", a cell holding a CR or LF quoted.

    csv.writer quotes a cell holding a character of its line terminator, so
    the row is written with "\r\n" and that terminator then swapped.
    """
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2] + "\n"


def table_text(header, rows) -> tuple[str, str]:
    """CSV text and JSON mirror text of a table, written a row at a time.

    The CSV cells are floats to 12 significant digits and str() of anything
    else, through csv.writer; the mirror is json.dump(records, indent=2) and
    a newline, one record per row with "" cells as null.
    """
    lines = [_csv_line(header)] + [_csv_line([_fmt(v) for v in row]) for row in rows]
    records = [
        {key: (None if value == "" else value) for key, value in zip(header, row)}
        for row in rows
    ]
    return "".join(lines), json.dumps(records, indent=2) + "\n"


def pvalue_tuples(pairs, tie_break_seed: int = 0):
    """(ids, p_values, ranks) of a p-value set, built pair by pair.

    Ranks sort by p-value with ties broken by a seeded permutation of the
    input positions, through ``np.lexsort``.
    """
    ids = tuple(str(label) for label, _ in pairs)
    ps = tuple(float(p) for _, p in pairs)
    tie_order = np.random.default_rng(tie_break_seed).permutation(len(ps))
    order = np.lexsort((tie_order, np.asarray(ps)))
    ranks = np.empty(len(ps), dtype=int)
    ranks[order] = np.arange(1, len(ps) + 1)
    return ids, ps, tuple(int(r) for r in ranks)
