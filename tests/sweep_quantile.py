"""Randomized check of the significance-function inverse against independent references.

    python tests/sweep_quantile.py --elements 1000000 --seed 0

Each chunk draws one curve size N <= 2000 (log-uniform), one weight C (0, 1,
1/2, 0.3, uniform, or within 1e-12..1e-1 of 0 or of 1) and a batch of x and
levels u.  The levels are uniform over the attainable range, log-uniform
down to 1e-300 of either end of it, the computed curve at a dyadic point
k / 2**j (a root on a bisection midpoint, where the comparison is a tie) and
the edges 0, 1/2, C and 1.  Constant curves (x = 0 with C = 1, x = N with
C = 0), which have no root, are not drawn.

For C in {0, 1}, ``smallfdr.confidence._quantile`` must equal
``oracles.bisection_quantile`` on every element.  For C in (0, 1) it must
give the root to 1e-14 of its size:
- u at or beyond an end of the range gives that end's atom or root, 0 or 1,
  exactly, and every result is finite;
- at u >= 1e-240 the result r is bracketed: the curve F at r (1 - 1e-14) is
  at most u and at r (1 + 1e-14) at least u (for u > 1/2, 1 - F the other
  way round), each up to (2**-44 + 2**-52 |ln u|) of u, or of 1 - u, for the
  reference's own rounding.  The
  reference is the two-component form (1 - C) I(x + 1, N - x) +
  C I(x, N - x + 1) of SciPy's betainc, 1 - F the same with betaincc, and
  C pi**N and 1 - (1 - C)(1 - pi)**N at x = N and x = 0.  Below 1e-240
  betainc loses digits where pi**x underflows inside it;
- one element of each chunk with normal u, one below 1e-240 where there is
  one, is within 1e-14 of ``oracles.quantile_mp``, the mpmath root.

The script also counts the curve evaluations of the 0 < C < 1 solve (the pi
passed to ``_log_excess``) and prints their mean per 0 < C < 1 element.  It
prints a summary and exits 1, printing the first failures, if any element
fails or that mean exceeds MAX_EVALUATIONS.  It is not collected by pytest.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np
from scipy import special

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from smallfdr import confidence  # noqa: E402
from smallfdr.confidence import _curve, _log_binomial_coef, _quantile  # noqa: E402

from oracles import bisection_quantile, quantile_mp  # noqa: E402

CHUNK = 512
MAX_TRIALS = 2000
SHOWN = 10
CONTRACT = 1e-14
SLACK = 2.0**-44
TINY = np.finfo(float).tiny
# below this level betainc loses digits (pi**x underflows inside it)
DEEP = 1e-240
# about 20 % over the mean measured at --elements 1000000 --seed 0
MAX_EVALUATIONS = 1.5


def draw_weight(rng):
    kind = rng.integers(7)
    if kind < 4:
        return (0.0, 1.0, 0.5, 0.3)[kind]
    if kind == 4:
        return float(rng.random())
    tiny = 10.0 ** -rng.uniform(1, 12)
    return tiny if kind == 5 else 1.0 - tiny


def draw_chunk(rng):
    """(N, C, x, u) for one chunk, constant curves left out."""
    n = int(np.exp(rng.uniform(0.0, np.log(MAX_TRIALS + 1))))
    weight = draw_weight(rng)
    x = rng.integers(0, n + 1, CHUNK).astype(float)
    x = x[~(((x == 0) & (weight == 1.0)) | ((x == n) & (weight == 0.0)))]
    low = np.where(x == 0, weight, 0.0)
    high = np.where(x == n, weight, 1.0)
    kind = rng.integers(5, size=x.size)
    tail = 10.0 ** -rng.uniform(0, 300, x.size)
    u = low + (high - low) * rng.random(x.size)
    u = np.where(kind == 1, low + (high - low) * tail, u)
    u = np.where(kind == 2, high - (high - low) * tail, u)
    on_grid = np.flatnonzero(kind == 3)
    if on_grid.size:
        level = rng.integers(1, 41, on_grid.size)
        k = 2 * np.floor(rng.random(on_grid.size) * 2.0 ** (level - 1)) + 1
        # the certificate's coefficient, so that a C in {0, 1} level is a tie
        coef = _log_binomial_coef(n, x[on_grid])
        u[on_grid] = _curve(n, x[on_grid], weight, k / 2.0**level, coef)
    edges = np.flatnonzero(kind == 4)
    u[edges] = rng.choice([0.0, 0.5, weight, 1.0], edges.size)
    return n, weight, x, u


def sides(n, weight, x, pi):
    """(F, 1 - F) at pi with SciPy's incomplete beta, one x per element."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.clip(x, 1.0, n - 1.0)
        below = (1.0 - weight) * special.betainc(inner + 1.0, n - inner, pi) + weight * special.betainc(
            inner, n - inner + 1.0, pi
        )
        above = (1.0 - weight) * special.betaincc(inner + 1.0, n - inner, pi) + weight * special.betaincc(
            inner, n - inner + 1.0, pi
        )
    with np.errstate(divide="ignore"):
        power = n * np.log1p(-pi)
    below = np.where(x == n, weight * pi**n, np.where(x == 0, weight - (1.0 - weight) * np.expm1(power), below))
    above = np.where(x == n, 1.0 - weight * pi**n, np.where(x == 0, (1.0 - weight) * np.exp(power), above))
    return below, above


def fractional_failures(n, weight, x, u, got, rng):
    """Indices of the elements of a 0 < C < 1 chunk that break the contract."""
    low = np.where(x == 0, weight, 0.0)
    high = np.where(x == n, weight, 1.0)
    to_zero = (u < low) | ((u == low) & (x == 0)) | ((u == 0.0) & (x > 0))
    to_one = (u >= high) & ~to_zero
    bad = ~np.isfinite(got) | (to_zero & (got != 0.0)) | (to_one & (got != 1.0))
    check = np.flatnonzero(~to_zero & ~to_one & (u >= DEEP))
    r, level = got[check], u[check]
    f_lo, g_lo = sides(n, weight, x[check], r * (1.0 - CONTRACT))
    f_hi, g_hi = sides(n, weight, x[check], np.minimum(r * (1.0 + CONTRACT), 1.0))
    upper = level > 0.5
    rest = 1.0 - level
    slack = SLACK + 2.0**-52 * np.abs(np.log(np.minimum(level, rest)))
    holds = np.where(
        upper,
        (g_lo >= rest * (1.0 - slack)) & (g_hi <= rest * (1.0 + slack)),
        (f_lo <= level * (1.0 + slack)) & (f_hi >= level * (1.0 - slack)),
    )
    bad[check[~holds]] = True
    # the element for mpmath: one of those whose reference loses digits, if any
    deep = np.flatnonzero(~to_zero & ~to_one & (u >= TINY) & (u < DEEP))
    if deep.size or check.size:
        i = rng.choice(deep if deep.size else check)
        want = quantile_mp(n, int(x[i]), weight, float(u[i]))
        bad[i] |= abs(got[i] - want) > CONTRACT * want
    return np.flatnonzero(bad)


def count_evaluations():
    """A one-element list that counts the pi at which ``_log_excess`` is
    evaluated from now on."""
    count, log_excess = [0], confidence._log_excess

    def counted(trials, x, weight, pi, *rest):
        count[0] += np.size(pi)
        return log_excess(trials, x, weight, pi, *rest)

    confidence._log_excess = counted
    return count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--elements", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    done, fractional, failures = 0, 0, []
    evaluations = count_evaluations()
    while done < args.elements:
        n, weight, x, u = draw_chunk(rng)
        got = _quantile(n, x, weight, u)
        if weight in (0.0, 1.0):
            want = bisection_quantile(n, x, weight, u)
            wrong = np.flatnonzero(got != want)
        else:
            fractional += x.size
            want = np.full(x.size, np.nan)
            wrong = fractional_failures(n, weight, x, u, got, rng)
        for i in wrong:
            failures.append((n, x[i], weight, float(u[i]), float(got[i]), float(want[i])))
        done += x.size
    work = evaluations[0] / max(fractional, 1)
    print(
        f"{done} elements, {len(failures)} failures, seed {args.seed}, "
        f"{time.perf_counter() - start:.1f} s"
    )
    print(
        f"{work:.4f} curve evaluations per 0 < C < 1 element "
        f"({fractional} elements, bound {MAX_EVALUATIONS})"
    )
    for n, x, weight, u, got, want in failures[:SHOWN]:
        print(f"  N={n} x={x:g} C={weight!r} u={u!r}: {got!r}, bisection {want!r}")
    return 1 if failures or work > MAX_EVALUATIONS else 0


if __name__ == "__main__":
    sys.exit(main())
