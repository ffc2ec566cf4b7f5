"""Chi-square(1 df) mixture simulation harness and exact small-N coverage.

Datasets mix central and noncentral squared-normal statistics, the oracle
local FDR comes from the closed-form density ratio, and a seeded grid run
summarizes estimator error the way the accompanying figures do: root mean
squared error, proportion of conservative estimates, and arithmetic bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import (
    Chi2MixtureParams,
    _chi2_1df_isf_arrays,
    _chi2_1df_sf_arrays,
    _log_binomial_coef,
    _log_binomial_pmf,
)
from .lfdr import _rank_estimates, _rank_order, _running_max, _tail_weight
from .nfdr import ESTIMATOR_KINDS, _check_weight, _estimate
# Kept as module attributes: perfbench/tracing.py wraps these names in simulate.
from .lfdr import lfdr_estimates  # noqa: F401
from .nfdr import corrected_nfdr, mean_nfdr, mle_nfdr  # noqa: F401

DEFAULT_PI0_GRID = (0.5, 0.75, 0.9, 1.0)
DEFAULT_N_GRID = (2, 4, 8, 16, 32)

POOLING_POOLED = "pooled"
POOLING_PER_REPLICATE = "per_replicate"


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
        if not self.pi0_grid:
            raise ValueError("pi0_grid must be nonempty")
        for v in self.pi0_grid:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"pi0 grid values must lie in [0, 1], got {v}")
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        for n in self.n_grid:
            if n < 1:
                raise ValueError(f"n grid values must be positive integers, got {n}")
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be at least 1, got {self.replicates}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not self.estimators:
            raise ValueError("estimators must be nonempty")
        for est in self.estimators:
            if est not in ESTIMATOR_KINDS:
                raise ValueError(f"unknown estimator {est!r}; choose from {ESTIMATOR_KINDS}")
        if self.mc_draws < 1:
            raise ValueError(f"mc_draws must be at least 1, got {self.mc_draws}")
        if self.pooling not in (POOLING_POOLED, POOLING_PER_REPLICATE):
            raise ValueError(
                f"pooling must be {POOLING_POOLED!r} or {POOLING_PER_REPLICATE!r}, "
                f"got {self.pooling!r}"
            )


@dataclass(frozen=True)
class SimulatedDataset:
    """One replicate: statistics, false-null indicators (1 = null false),
    the matching p-values, and the seed material that produced them."""

    statistics: np.ndarray
    truth_labels: np.ndarray
    p_values: np.ndarray
    seed_path: tuple[int, ...]


@dataclass(frozen=True)
class MetricsRow:
    pi0: float
    n: int
    estimator: str
    rmse: float
    conservatism_proportion: float
    bias: float
    replicate_count: int


def _seed_path_of(seed) -> tuple[int, ...]:
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        parts = list(entropy) if isinstance(entropy, (list, tuple)) else [entropy]
        return tuple(int(v) for v in parts) + tuple(int(k) for k in seed.spawn_key)
    if isinstance(seed, (list, tuple)):
        return tuple(int(v) for v in seed)
    return (int(seed),)


def generate_dataset(pi0: float, n: int, delta: float, seed) -> SimulatedDataset:
    """Draw n independent statistics from the two-component mixture.

    A label of 1 marks a false null, in which case the statistic is
    (Z + sqrt(delta))**2; true nulls (label 0) contribute plain Z**2.
    """
    Chi2MixtureParams(pi0, delta)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 1.0 - pi0).astype(int)
    z = rng.standard_normal(n)
    statistics = (z + math.sqrt(delta) * labels) ** 2
    p_values = _chi2_1df_sf_arrays(statistics)
    return SimulatedDataset(statistics, labels, p_values, _seed_path_of(seed))


def _true_lfdr_arrays(p: np.ndarray, pi0: float, delta: float) -> np.ndarray:
    """Oracle posterior probability that the null is true at each p-value.

    The density ratio of the two components at the statistic t mapped back
    from p reduces to exp(-delta/2) * cosh(sqrt(t * delta)), evaluated in
    log space so the p -> 0 (t -> inf) limit comes out exactly.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    Chi2MixtureParams(pi0, delta)
    if pi0 == 1.0:
        return np.ones(p.shape)
    if pi0 == 0.0:
        return np.zeros(p.shape)
    if delta == 0.0:
        return np.full(p.shape, pi0)
    t = _chi2_1df_isf_arrays(p)
    s = np.sqrt(t * delta)
    log_ratio = -0.5 * delta + np.logaddexp(s, -s) - math.log(2.0)
    return special.expit(-(math.log((1.0 - pi0) / pi0) + log_ratio))


def true_lfdr(p: float, pi0: float, delta: float) -> float:
    """Scalar oracle local FDR; p = 0 is handled as the t -> inf limit."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return float(_true_lfdr_arrays(np.asarray([p]), pi0, delta)[0])


def run_grid(config: SimulationConfig) -> list[MetricsRow]:
    """Evaluate every (pi0, N, estimator) cell of the configured grid.

    Each replicate gets its own seed stream derived from (seed, pi0 index,
    N index, replicate index), so results do not depend on evaluation order.
    A cell's replicates are stacked as (replicates, N) arrays of rank-ordered
    p-values and oracle values and each estimator solves them together; every
    estimate depends only on its own replicate, so the metrics equal those of
    per-replicate ``lfdr_estimates`` calls bit for bit.  Estimates are the
    monotone ones; hypotheses of every rank are pooled, including the
    trailing ranks whose estimates default to 1.
    """
    rows: list[MetricsRow] = []
    for i0, pi0 in enumerate(config.pi0_grid):
        for i1, n in enumerate(config.n_grid):
            p_sorted = np.empty((config.replicates, n))
            truth_sorted = np.empty((config.replicates, n))
            mc_seeds = []
            for rep in range(config.replicates):
                root = np.random.SeedSequence([config.seed, i0, i1, rep])
                k_data, k_tie, k_mc = root.spawn(3)
                dataset = generate_dataset(pi0, n, config.delta, seed=k_data)
                truth = _true_lfdr_arrays(dataset.p_values, pi0, config.delta)
                mc_seeds.append(int(k_mc.generate_state(1)[0]))
                order = _rank_order(dataset.p_values, int(k_tie.generate_state(1)[0]))
                p_sorted[rep] = dataset.p_values[order]
                truth_sorted[rep] = truth[order]
            for est in config.estimators:
                raw, _ = _rank_estimates(
                    p_sorted, est, None, config.mc_draws, mc_seeds, "monte_carlo"
                )
                diffs = _running_max(raw) - truth_sorted
                if config.pooling == POOLING_POOLED:
                    pooled = diffs.ravel()
                    rmse = float(np.sqrt(np.mean(pooled**2)))
                    conservatism = float(np.mean(pooled >= 0.0))
                    bias = float(np.mean(pooled))
                else:
                    rmse = float(np.mean([np.sqrt(np.mean(d**2)) for d in diffs]))
                    conservatism = float(np.mean([np.mean(d >= 0.0) for d in diffs]))
                    bias = float(np.mean([np.mean(d) for d in diffs]))
                rows.append(
                    MetricsRow(pi0, n, est, rmse, conservatism, bias, config.replicates)
                )
    return rows


def pearson_skewness(samples) -> float:
    """3 * (mean - median) / sample standard deviation."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size < 2:
        raise ValueError("at least two samples are required")
    sd = float(arr.std(ddof=1))
    if sd == 0.0:
        raise ValueError("samples have zero variance")
    return float(3.0 * (arr.mean() - np.median(arr)) / sd)


def exact_small_n_coverage(
    trials: int,
    alpha,
    pi,
    estimator_kind: str,
    weight: float | None = None,
):
    """Exact probability that the estimate reaches the bound alpha / pi.

    Enumerates all N + 1 discovery counts; no sampling is involved.  The
    bound is the ratio of the test level to the discovery probability, so
    pi below alpha makes no sense and is rejected.  Broadcasts over
    ``alpha`` and ``pi``, and scalars give a float: the estimates are
    computed once per alpha and the binomial masses once per pi, and the
    masses are added in order of x, as an element-by-element loop would.
    """
    if not 1 <= trials <= 5:
        raise ValueError(f"trials must lie in 1..5 for exact enumeration, got {trials}")
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
    if weight is not None:
        _check_weight(weight)
    xs = np.arange(trials + 1.0)
    estimate, _ = _estimate(estimator_kind, alpha[..., None], xs, trials, weight)
    pmf = np.exp(_log_binomial_pmf(trials, xs, pi[..., None], _log_binomial_coef(trials, xs)))
    bound = alpha / pi
    total = np.zeros(bound.shape)
    for k in range(trials + 1):
        total += np.where(estimate[..., k] >= bound, pmf[..., k], 0.0)
    return float(total) if total.ndim == 0 else total
