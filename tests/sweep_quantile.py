"""Randomized comparison of the significance-function inverse with plain bisection.

    python tests/sweep_quantile.py --elements 1000000 --seed 0

Each chunk draws one curve size N <= 2000 (log-uniform), one weight C (0, 1,
1/2, 0.3, uniform, or within 1e-12..1e-1 of 0 or of 1) and a batch of x and
levels u.  The levels are uniform over the attainable range, log-uniform
down to 1e-300 of either end of it, the computed curve at a dyadic point
k / 2**j (a root on a bisection midpoint, where the comparison is a tie) and
the edges 0, 1/2, C and 1.  ``smallfdr.confidence._quantile`` must equal
``oracles.bisection_quantile`` on every element; constant curves (x = 0 with
C = 1, x = N with C = 0), which have no root, are not drawn.  The script
prints a summary and exits 1, printing the first mismatches, if any element
differs.  It is not collected by pytest.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from smallfdr.confidence import _Curve, _quantile  # noqa: E402

from oracles import bisection_quantile  # noqa: E402

CHUNK = 512
MAX_TRIALS = 2000
SHOWN = 10


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
        u[on_grid] = _Curve(n, x[on_grid], weight)(k / 2.0**level)
    edges = np.flatnonzero(kind == 4)
    u[edges] = rng.choice([0.0, 0.5, weight, 1.0], edges.size)
    return n, weight, x, u


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--elements", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    done, mismatches = 0, []
    while done < args.elements:
        n, weight, x, u = draw_chunk(rng)
        got = _quantile(n, x, weight, u)
        want = bisection_quantile(n, x, weight, u)
        for i in np.flatnonzero(got != want):
            mismatches.append((n, x[i], weight, float(u[i]), float(got[i]), float(want[i])))
        done += x.size
    print(
        f"{done} elements, {len(mismatches)} mismatches, seed {args.seed}, "
        f"{time.perf_counter() - start:.1f} s"
    )
    for n, x, weight, u, got, want in mismatches[:SHOWN]:
        print(f"  N={n} x={x:g} C={weight!r} u={u!r}: {got!r}, bisection {want!r}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
