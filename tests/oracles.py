"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths under test: the incomplete beta
uses a hand-rolled continued fraction, the mean estimator integrates the
binomial tail polynomial term by term in mpmath, the significance function
is a sum of binomial terms in mpmath, its inverse the plain 40-step
bisection at C in {0, 1} and an mpmath root at 0 < C < 1, the step-up rule is the plain textbook loop, p-value sets, lfdr
results and output tables are built one row at a time, tables are written
with csv.writer and json.dump, and input tables are read with csv.reader
one row at a time.
"""

import csv
import functools
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


def nfdr_scalar(kind: str, alpha: float, x: int, n: int, weight: float, mpmath_only=False) -> float:
    """One-count estimate of ``kind`` ("mle", "corrected_median", "posterior_mean").

    The plug-in is min(alpha n / x, 1) with 1 at x = 0.  The corrected
    estimate is min(alpha / median, 1) with the median from
    ``bisection_quantile`` at C in {0, 1} and ``quantile_mp`` otherwise, and 1
    where no unique median exists: the significance function is constant or
    1/2 lies outside its range, or the median is the atom at 0.  The mean is
    ``mean_exact_scalar``.  With ``mpmath_only`` the median is ``quantile_mp``
    at every C and the mean ``mean_capped_ratio_mp``, so that no estimate
    shares the package's arithmetic.
    """
    if kind == "mle":
        return 1.0 if x == 0 else min(alpha * n / x, 1.0)
    if kind == "posterior_mean":
        if mpmath_only:
            return mean_capped_ratio_mp(alpha, x, n, weight)
        return mean_exact_scalar(alpha, x, n, weight)
    low = weight if x == 0 else 0.0
    high = 1.0 if x < n else weight
    if low == high or not low <= 0.5 <= high:
        return 1.0
    median = _median(n, x, weight, mpmath_only)
    return 1.0 if median == 0.0 else min(alpha / median, 1.0)


# a median depends only on its arguments (quantile_mp works at a fixed 40
# digits), so each is solved once however many alpha values ask for it
@functools.lru_cache(maxsize=None)
def _median(n: int, x: int, weight: float, mpmath_only: bool) -> float:
    if weight in (0.0, 1.0) and not mpmath_only:
        return float(bisection_quantile(n, x, weight, 0.5)[0])
    return quantile_mp(n, x, weight, 0.5)


def coverage_fraction(trials: int, alpha: float, pi: float, estimate) -> float:
    """Pr_pi(estimate(x) >= alpha / pi) with the binomial masses in exact
    rationals, math.comb(N, x) pi**x (1 - pi)**(N - x), rounded once."""
    bound = alpha / pi
    covered = {x for x in range(trials + 1) if estimate(x) >= bound}
    # pi = num / den; by Horner's rule in 1 - pi, after step x the integer total is
    # the sum over covered j <= x of comb(N, j) num**j (den - num)**(x - j)
    num, den = float(pi).as_integer_ratio()
    total, power = 0, 1
    for x in range(trials + 1):
        total = total * (den - num) + (math.comb(trials, x) * power if x in covered else 0)
        power *= num
    return float(Fraction(total, den**trials))


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


def _sides_mp(trials: int, x: int, weight, pi):
    """(Pr(X > x) + C Pr(X = x), Pr(X < x) + (1 - C) Pr(X = x), Pr(X = x)) at
    ``pi``, in mpmath.

    The binomial coefficient is exact.  The side away from the mean is summed
    term by term, stepped by the ratio of neighbouring masses, and the other
    side is 1 less it, so both keep their relative precision.
    """
    q = 1 - pi
    mass = mpmath.binomial(trials, x) * pi**x * q ** (trials - x)
    negligible = mpmath.mpf(2) ** -(mpmath.mp.prec + 10)
    total, term, k = mpmath.mpf(0), mass, x
    if x >= trials * pi:
        odds, mode = pi / q, (trials + 1) * pi
        while k < trials:
            term = term * odds * (trials - k) / (k + 1)
            k += 1
            total += term
            if k > mode and term < total * negligible:
                break
        above = total
        below = 1 - above - mass
    else:
        odds = q / pi
        while k > 0:
            term = term * odds * k / (trials - k + 1)
            k -= 1
            total += term
            if term < total * negligible:
                break
        below = total
        above = 1 - below - mass
    return above + weight * mass, below + (1 - weight) * mass, mass


def quantile_mp(trials: int, x: int, weight: float, u: float) -> float:
    """The pi at which Pr(X > x; pi) + weight * Pr(X = x; pi) = u, in mpmath.

    The atoms follow the package's inverse: u below the attainable range
    gives 0, u above it 1, and a constant curve (x = 0 with weight 1, x = N
    with weight 0) its atom.  At x = N the curve is C pi**N and at x = 0 it
    is 1 - (1 - C)(1 - pi)**N, whose roots are taken in closed form at 40
    digits.  Elsewhere Newton's method with a bisection safeguard solves
    log Pr(X > x) + C Pr(X = x) = log u in log pi when u <= 1/2, and
    log Pr(X < x) + (1 - C) Pr(X = x) = log(1 - u) in log(1 - pi) otherwise,
    each side summed by ``_sides_mp`` at 40 digits.  It stops after taking a
    step below 1e-12 in that log, which leaves the root within about 1e-24
    of itself (the error after a Newton step is about the square of the
    step); the result is the root rounded to a double.
    """
    low = weight if x == 0 else 0.0
    high = weight if x == trials else 1.0
    if u < low or low == 1.0:
        return 0.0
    if u > high or high == 0.0:
        return 1.0
    with mpmath.workdps(40):
        c, level = mpmath.mpf(weight), mpmath.mpf(u)
        if x == trials:
            return float((level / c) ** (mpmath.mpf(1) / trials))
        if x == 0:
            # log1p and expm1 keep a root far below the working precision
            return float(-mpmath.expm1((mpmath.log1p(-level) - mpmath.log1p(-c)) / trials))
        if u in (0.0, 1.0):
            return u
        lower_half = u <= 0.5
        target = mpmath.log(level if lower_half else 1 - level)

        def variable(pi):
            return mpmath.log(pi if lower_half else 1 - pi)

        def excess(t):
            """The log-side less its target, and its derivative in t."""
            e = mpmath.exp(t)
            pi = e if lower_half else 1 - e
            above, below, mass = _sides_mp(trials, x, c, pi)
            density = mass * ((1 - c) * (trials - x) / (1 - pi) + c * x / pi)
            side = above if lower_half else below
            return mpmath.log(side) - target, e * density / side

        # The root lies between the quantiles of the two Beta components
        # (widened by 1e-8 of themselves), as SciPy's betaincinv places
        # them, and the start is their average weighted like the mixture.
        # The start's sign says on which side of it the root lies; the end
        # on that side bounds the search when the excess changes sign there,
        # else the bracket is found by doubling.  t runs over (-inf, 0]: the
        # side is 1 at t = 0 and falls to 0 as t falls.
        ends = [
            variable(mpmath.mpf(float(special.betaincinv(x + k, trials - x + 1 - k, u))))
            for k in (0, 1)
        ]
        pad = mpmath.mpf(10) ** -8
        left, right = min(ends) * (1 + pad) - pad, max(ends) * (1 - pad)
        bracketed = False
        if all(mpmath.isfinite(end) for end in ends) and right < 0:
            t = min(max(c * ends[0] + (1 - c) * ends[1], left), right)
            value, slope = excess(t)
            bracketed = excess(left)[0] <= 0 if value > 0 else excess(right)[0] >= 0
        if not bracketed:
            left, right = mpmath.mpf(-1), mpmath.mpf(0)
            while excess(left)[0] > 0:
                left, right = 2 * left, left
            t = (left + right) / 2
            value, slope = excess(t)
        for _ in range(200):
            step = value / slope
            if abs(step) < mpmath.mpf(10) ** -12:
                t -= step
                break
            if value > 0:
                right = t
            else:
                left = t
            t = t - step if left < t - step < right else (left + right) / 2
            value, slope = excess(t)
        else:
            raise RuntimeError(f"no root found (N={trials}, x={x}, C={weight}, u={u})")
        e = mpmath.exp(t)
        return float(e if lower_half else 1 - e)


def significance_mp(trials: int, x: int, weight: float, pi: float, log_coef: float):
    """Pr(X > x; pi) + weight * Pr(X = x; pi) in mpmath at 45 digits.

    The strict tail is a sum of binomial terms stepped by their ratio from
    the mass at x: upward when x is at or above the mean, otherwise as 1
    minus the terms from x downward, until a term no longer counts.  The
    weighted mass term takes its binomial coefficient as exp(log_coef), so a
    caller can pass the rounded coefficient that the package computes once
    per x and compare only the rounding that varies with pi.
    """
    with mpmath.workdps(45):
        p = mpmath.mpf(pi)
        q = 1 - p
        power = p**x * q ** (trials - x)
        term = mpmath.binomial(trials, x) * power
        ratio = p / q
        negligible = mpmath.mpf(10) ** -44
        total, k = mpmath.mpf(0), x
        if x >= trials * p:
            while k < trials:
                term = term * (trials - k) / (k + 1) * ratio
                k += 1
                total += term
                if k > (trials + 1) * p and term < total * negligible:
                    break
            tail = total
        else:
            total = term
            while k > 0:
                term = term * k / (trials - k + 1) / ratio
                k -= 1
                total += term
                if term < total * negligible:
                    break
            tail = 1 - total
        return tail + weight * mpmath.exp(mpmath.mpf(log_coef)) * power


def significance_exact_mp(trials: int, x: int, weight: float, pi: float):
    """Pr(X > x; pi) + weight * Pr(X = x; pi) in mpmath at 60 digits: the
    regularized Beta(x + 1, N - x) distribution function at pi (0 at x = N)
    plus the weighted mass, with the exact binomial coefficient."""
    with mpmath.workdps(60):
        p = mpmath.mpf(pi)
        tail = mpmath.betainc(x + 1, trials - x, 0, p, regularized=True) if x < trials else 0
        return tail + weight * mpmath.binomial(trials, x) * p**x * (1 - p) ** (trials - x)


def textbook_bh(p_values, q: float) -> set[int]:
    """Classic step-up rule; returns the indices of rejected hypotheses."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    k_star = 0
    for k in range(1, m + 1):
        if p_values[order[k - 1]] <= k * q / m:
            k_star = k
    return set(order[:k_star])


def _fmt(value):
    """A float to 12 significant digits, None as it is and str() of anything else."""
    if isinstance(value, float):
        return format(value, ".12g")
    return value if value is None else str(value)


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
    a newline, one record per row.  None is the blank cell, which csv.writer
    writes as an empty cell and json.dump as null; "" stays a string.
    """
    lines = [_csv_line(header)] + [_csv_line([_fmt(v) for v in row]) for row in rows]
    records = [dict(zip(header, row)) for row in rows]
    return "".join(lines), json.dumps(records, indent=2) + "\n"


def pvalue_tuples(pairs):
    """(ids, p_values, ranks) of a p-value set, built pair by pair.

    A p-value's rank is the count of p-values at or below it, taken by a
    plain Python loop, in which -0.0 equals 0.
    """
    ids = tuple(str(label) for label, _ in pairs)
    ps = tuple(float(p) for _, p in pairs)
    ranks = []
    for p in ps:
        ranks.append(sum(1 for other in ps if other <= p))
    return ids, ps, tuple(ranks)


def csv_table_rows(path) -> list[list[str]]:
    """The csv rows of a file, less a leading byte-order mark and the rows
    whose cells are all blank."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        return [row for row in csv.reader(handle) if any(cell.strip() for cell in row)]


def pvalue_rows(path) -> tuple[list[str], list[float]]:
    """Stripped ids and p-values of a well-formed 'id,p' table, row by row."""
    rows = csv_table_rows(path)
    return [row[0].strip() for row in rows[1:]], [float(row[1]) for row in rows[1:]]


def abundance_rows(path):
    """(features, (subject id, group) pairs, value rows) of a well-formed
    abundance table, read row by row."""
    rows = csv_table_rows(path)
    subjects = [tuple(cell.strip().split(":")) for cell in rows[0][1:]]
    features = [row[0].strip() for row in rows[1:]]
    return features, subjects, [[float(cell) for cell in row[1:]] for row in rows[1:]]
