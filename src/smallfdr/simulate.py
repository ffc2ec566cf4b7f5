"""Chi-square(1 df) mixture simulation harness and exact coverage.

Datasets mix central and noncentral squared-normal statistics, the oracle
local FDR comes from the closed-form density ratio, and a seeded grid run
summarizes estimator error the way the accompanying figures do: root mean
squared error, proportion of conservative estimates, and arithmetic bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import _special as special
from .distributions import (
    Chi2MixtureParams,
    _check_choice,
    _check_count,
    _check_seed,
    _chi2_1df_isf_arrays,
    chi2_1df_sf,
)
from .lfdr import _count_ranks, _rank_estimates, _tail_weight
from .nfdr import ESTIMATOR_KINDS, KIND_MEAN, _estimate
# Kept as module attributes: perfbench/tracing.py wraps these names in simulate.
from .lfdr import lfdr_estimates  # noqa: F401
from .nfdr import corrected_nfdr, mean_nfdr, mle_nfdr  # noqa: F401

DEFAULT_PI0_GRID = (0.5, 0.75, 0.9, 1.0)
DEFAULT_N_GRID = (2, 4, 8, 16, 32)

POOLING_POOLED = "pooled"
POOLING_PER_REPLICATE = "per_replicate"

# The most p-values (replicates times N) that ``run_grid`` solves in one call
# per estimator; see its docstring.
_STACK = 2**12


@dataclass(frozen=True)
class SimulationConfig:
    """Grid parameters for the mixture study.

    ``pooling`` selects whether metrics pool every (hypothesis, replicate)
    pair in a cell or are computed per replicate and then averaged.
    """

    pi0_grid: tuple[float, ...] = DEFAULT_PI0_GRID
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    delta: float = 2.0
    replicates: int = 100
    seed: int = 0
    estimators: tuple[str, ...] = ESTIMATOR_KINDS
    mc_draws: int = 100
    pooling: str = POOLING_POOLED

    def __post_init__(self) -> None:
        # each metrics row is keyed by one value of each axis
        for name in ("pi0_grid", "n_grid", "estimators"):
            axis = getattr(self, name)
            if not axis:
                raise ValueError(f"{name} must be nonempty")
            if len(set(axis)) < len(axis):
                raise ValueError(f"{name} values must be distinct, got {axis}")
        for v in self.pi0_grid:
            Chi2MixtureParams(v, self.delta)
        for est in self.estimators:
            _check_choice("kind", est, ESTIMATOR_KINDS)
        # counts are stored as ints, so that a whole float such as 2.0 sizes arrays
        for name, low in (("replicates", 1), ("seed", 0), ("mc_draws", 1)):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), low))
        n_grid = tuple(_check_count("n_grid", n, 1) for n in self.n_grid)
        object.__setattr__(self, "n_grid", n_grid)
        _check_choice("pooling", self.pooling, (POOLING_POOLED, POOLING_PER_REPLICATE))


@dataclass(frozen=True)
class SimulatedDataset:
    """One replicate: statistics, false-null indicators (1 = null false),
    and the matching p-values."""

    statistics: np.ndarray
    truth_labels: np.ndarray
    p_values: np.ndarray


@dataclass(frozen=True)
class MetricsRow:
    pi0: float
    n: int
    estimator: str
    rmse: float
    conservatism_proportion: float
    bias: float
    replicate_count: int


def _mixture(seeds, n: int, pi0: float, delta: float):
    """False-null labels and statistics, one row of n per seed.

    Each row's generator draws n uniforms, a label of 1 (null false) where
    one is below 1 - pi0, and then n standard normals Z; the statistic is
    (Z + sqrt(delta) * label)**2.
    """
    generators = [np.random.default_rng(seed) for seed in seeds]
    uniforms = np.array([rng.random(n) for rng in generators])
    normals = np.array([rng.standard_normal(n) for rng in generators])
    labels = (uniforms < 1.0 - pi0).astype(int)
    return labels, (normals + math.sqrt(delta) * labels) ** 2


def generate_dataset(pi0: float, n: int, delta: float, seed) -> SimulatedDataset:
    """Draw n independent statistics from the two-component mixture.

    A label of 1 marks a false null, in which case the statistic is
    (Z + sqrt(delta))**2; true nulls (label 0) contribute plain Z**2.
    """
    Chi2MixtureParams(pi0, delta)
    n = _check_count("n", n, 1)
    labels, statistics = _mixture([_check_seed("seed", seed)], n, pi0, delta)
    return SimulatedDataset(statistics[0], labels[0], chi2_1df_sf(statistics[0]))


def true_lfdr(p, pi0: float, delta: float):
    """Oracle posterior probability that the null is true at each p-value;
    broadcasts over ``p``, and a scalar gives a float.

    The density ratio of the two components at the statistic t mapped back
    from p reduces to exp(-delta/2) * cosh(sqrt(t * delta)), evaluated in
    log space so the p -> 0 (t -> inf) limit comes out exactly.
    """
    p = np.asarray(p, dtype=float)
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        raise ValueError(f"p must lie in [0, 1], got {p[bad].flat[0]}")
    Chi2MixtureParams(pi0, delta)
    if pi0 == 1.0 or pi0 == 0.0 or delta == 0.0:
        lfdr = np.full(p.shape, pi0)
    else:
        s = np.sqrt(_chi2_1df_isf_arrays(p) * delta)
        log_ratio = -0.5 * delta + np.logaddexp(s, -s) - math.log(2.0)
        lfdr = special.expit(-(math.log((1.0 - pi0) / pi0) + log_ratio))
    return float(lfdr) if lfdr.ndim == 0 else lfdr


def _draw_cell(config: SimulationConfig, i0: int, i1: int, mean: bool):
    """Sorted p-values, last positions of each count rank's tie group (count
    rank - 1), oracle values and Monte Carlo seeds of the (pi0, N) cell at
    grid indices (i0, i1), one row per replicate."""
    pi0, n = config.pi0_grid[i0], config.n_grid[i1]
    entropy = [[config.seed, i0, i1, rep] for rep in range(config.replicates)]
    data_seeds = [np.random.SeedSequence(e, spawn_key=(0,)) for e in entropy]
    mc_seeds = [
        int(np.random.SeedSequence(e, spawn_key=(2,)).generate_state(1)[0])
        for e in entropy
    ] if mean else []
    p_sorted = np.sort(chi2_1df_sf(_mixture(data_seeds, n, pi0, config.delta)[1]))
    return p_sorted, _count_ranks(p_sorted) - 1, true_lfdr(p_sorted, pi0, config.delta), mc_seeds


def run_grid(config: SimulationConfig) -> list[MetricsRow]:
    """Evaluate every (pi0, N, estimator) cell of the configured grid.

    Each replicate gets its own seed stream derived from (seed, pi0 index,
    N index, replicate index): the data draws and the Monte Carlo seed are
    the children 0 and 2 that ``spawn(3)`` gives, each built directly, and
    the second only when the mean estimator runs.  Only these are drawn
    replicate by replicate; the statistics, sorted p-values, count ranks and
    oracle values of a cell are computed once on its (replicates, N) stack.
    The cells of one N are then stacked, consecutive pi0 cells up to _STACK
    p-values (rows times N) a stack, a larger cell alone, and each estimator
    solves a stack in one call, which saves the per-call cost of many small
    solves; the corrected medians, which depend only on (N, x), are solved
    once per stack.  The budget bounds a stack's memory by that of the
    largest cell: a stack's Monte Carlo uniforms stay under about 1.6 MB at
    100 draws, and with no budget the mean on the 1000-replicate default
    grid took three times the memory and ran slower.  Every value depends
    only on its own replicate, so the metrics equal those of per-replicate
    ``generate_dataset`` and ``lfdr_estimates`` calls bit for bit, and the
    rows come in (pi0, N, estimator) order.  Estimates are the monotone
    ones; hypotheses of every rank are pooled, including the trailing ranks
    whose estimates default to 1.
    """
    # None pools a cell's (replicates, N) errors; 1 takes each replicate's metric
    axis = None if config.pooling == POOLING_POOLED else 1
    mean = KIND_MEAN in config.estimators
    cells: dict[tuple, MetricsRow] = {}
    for i1, n in enumerate(config.n_grid):
        size = max(1, _STACK // (config.replicates * n))
        for first in range(0, len(config.pi0_grid), size):
            stack = range(first, min(first + size, len(config.pi0_grid)))
            drawn = [_draw_cell(config, i0, i1, mean) for i0 in stack]
            p_sorted = np.concatenate([cell[0] for cell in drawn])
            seeds = [seed for cell in drawn for seed in cell[3]]
            for est in config.estimators:
                # the running maximum in rank order; each p-value takes the monotone
                # estimate of its count rank
                monotone = np.maximum.accumulate(_rank_estimates(
                    p_sorted, est, None, config.mc_draws, seeds, "monte_carlo"
                )[0], axis=-1)
                parts = np.split(monotone, len(stack))
                for i0, (_, last, truth, _), part in zip(stack, drawn, parts):
                    diffs = np.take_along_axis(part, last, axis=-1) - truth
                    rmse = float(np.mean(np.sqrt(np.mean(diffs**2, axis=axis))))
                    conservatism = float(np.mean(np.mean(diffs >= 0.0, axis=axis)))
                    bias = float(np.mean(np.mean(diffs, axis=axis)))
                    cells[i0, i1, est] = MetricsRow(
                        config.pi0_grid[i0], n, est, rmse, conservatism, bias, config.replicates
                    )
    keys = product(range(len(config.pi0_grid)), range(len(config.n_grid)), config.estimators)
    return [cells[key] for key in keys]


def _binomial_cdf(trials, k, pi):
    """Pr(X <= k) for X ~ Binomial(trials, pi), elementwise: I_{1 - pi}(N - k, k + 1),
    Abramowitz & Stegun 26.5.24, with 0 below k = 0 and 1 from k = N."""
    cdf = special.betainc(trials - k, k + 1, 1.0 - pi)
    return np.where(k < 0, 0.0, np.where(k < trials, cdf, 1.0))


def _covered_mass(trials, covered, pi):
    """Pr(X in covered) for X ~ Binomial(trials, pi) and a mask over x = 0..N,
    summed over the runs lo..hi of covered x.  A run is a difference of lower
    tails where Pr(X <= hi) < 1/2 and otherwise of upper tails, Pr(X >= x) =
    Pr(N - X <= N - x), so that no run is lost against a tail near 1."""
    lo, end = np.flatnonzero(np.diff(covered, prepend=False, append=False)).reshape(-1, 2).T
    below = _binomial_cdf(trials, np.stack([end - 1, lo - 1]), pi)
    above = _binomial_cdf(trials, trials - np.stack([lo, end]), 1.0 - pi)
    return np.sum(np.where(below[0] < 0.5, below[0] - below[1], above[0] - above[1]))


def exact_small_n_coverage(
    trials: int,
    alpha,
    pi,
    estimator_kind: str,
    weight: float | None = None,
):
    """Exact probability that the estimate reaches the bound alpha / pi.

    Exact over all N + 1 discovery counts, for any whole N >= 1; no
    sampling is involved.  The bound is the ratio of the test level to the discovery
    probability, so pi below alpha makes no sense and is rejected.
    Broadcasts over ``alpha`` and ``pi``, and scalars give a float.

    The N + 1 estimates are computed once per distinct alpha.  Where the
    counts x whose estimate reaches the bound are 0..K, as for the plug-in
    and for the corrected estimator at weight >= 1/2, the coverage is
    Pr(X <= K) for X ~ Binomial(N, pi), one incomplete beta per (alpha, pi)
    cell.  A cell whose covered counts have a gap (the corrected estimate is
    1 at x = N for weight < 1/2; the mean just under its cap, ROADMAP item
    15) adds up the runs of its covered counts instead.  Memory grows with
    the distinct alpha values times N + 1, never with the cells times N + 1.
    """
    trials = _check_count("trials", trials, 1)
    alpha = np.asarray(alpha, dtype=float)
    pi = np.asarray(pi, dtype=float)
    bad = ~((alpha > 0.0) & (alpha <= 1.0))
    if bad.any():
        raise ValueError(f"alpha must lie in (0, 1], got {alpha[bad].flat[0]}")
    a, p = np.broadcast_arrays(alpha, pi)
    bad = ~((p >= a) & (p <= 1.0))
    if bad.any():
        low, value = a[bad].flat[0], p[bad].flat[0]
        raise ValueError(f"pi must lie in [alpha, 1] = [{low}, 1], got {value}")
    weight = _tail_weight(estimator_kind, weight)
    values = np.unique(a)
    estimate, _ = _estimate(estimator_kind, values[:, None], np.arange(trials + 1.0), trials, weight)
    row, bound = np.searchsorted(values, a), a / p
    # the running minimum over x falls, so the x where it reaches the bound are 0..k;
    # the keys alpha + i * minimum, from x = N down, are in order, and those from
    # alpha + i * bound up to alpha + 2i (every estimate is at most 1) count them
    floor = np.minimum.accumulate(estimate, axis=-1)
    keys = (values[:, None] + 1j * floor[:, ::-1]).ravel()
    k = np.searchsorted(keys, a + 2j) - np.searchsorted(keys, a + 1j * bound) - 1
    total = _binomial_cdf(trials, k, p)
    # the cells where an x after k still reaches the bound, by the running maximum from x = N
    ceiling = np.maximum.accumulate(estimate[:, ::-1], axis=-1)[:, ::-1]
    for i in np.flatnonzero((k < trials) & (ceiling[row, np.minimum(k + 1, trials)] >= bound)):
        total.flat[i] = _covered_mass(trials, estimate[row.flat[i]] >= bound.flat[i], p.flat[i])
    return float(total) if total.ndim == 0 else total
