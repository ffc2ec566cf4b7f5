"""Rank-based local false discovery rate estimation.

The estimate at the p-value of rank r reuses a one-count estimator with the
level set to the p-value of rank 2r and the discovery count set to 2r, or
defaults to 1 when 2r exceeds the number of hypotheses.  A running maximum
restores monotonicity in rank; the step-up control rule and its reading as
an estimate at the median rejected p-value live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confidence import _quantile
from .nfdr import (
    ESTIMATOR_KINDS,
    KIND_CORRECTED,
    KIND_MEAN,
    KIND_MLE,
    NfdrEstimate,
    mean_nfdr,
    mle_nfdr,
)


@dataclass(frozen=True)
class PValueSet:
    """P-values with stable labels and pseudorandomly tie-broken ranks.

    ``ranks[i]`` is the 1-based rank of entry i after sorting by p-value,
    ties resolved by a seeded random permutation so that ranks are always a
    bijection onto 1..N and reruns with the same seed agree.
    """

    ids: tuple[str, ...]
    p_values: tuple[float, ...]
    tie_break_seed: int
    ranks: tuple[int, ...]

    @classmethod
    def from_pairs(cls, pairs, tie_break_seed: int = 0) -> "PValueSet":
        pairs = list(pairs)
        if not pairs:
            raise ValueError("at least one p-value is required")
        ids = tuple(str(label) for label, _ in pairs)
        ps = tuple(float(p) for _, p in pairs)
        for label, p in zip(ids, ps):
            if math.isnan(p) or not 0.0 <= p <= 1.0:
                raise ValueError(f"p-value for {label!r} must lie in [0, 1], got {p}")
        rng = np.random.default_rng(tie_break_seed)
        tie_order = rng.permutation(len(ps))
        order = np.lexsort((tie_order, np.asarray(ps)))
        ranks = np.empty(len(ps), dtype=int)
        ranks[order] = np.arange(1, len(ps) + 1)
        return cls(ids, ps, int(tie_break_seed), tuple(int(r) for r in ranks))

    @property
    def n(self) -> int:
        return len(self.ids)

    def order(self) -> np.ndarray:
        """Input indices arranged by ascending rank."""
        return np.argsort(np.asarray(self.ranks))

    def sorted_p(self) -> np.ndarray:
        return np.asarray(self.p_values)[self.order()]

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(self.ids[i] for i in self.order())


@dataclass(frozen=True)
class LfdrRow:
    id: str
    p: float
    rank: int
    raw_estimate: float
    monotone_estimate: float


@dataclass(frozen=True)
class LfdrResult:
    """Per-hypothesis estimates in rank order, before and after monotonicity.

    ``nfdr_trace`` holds the underlying one-count estimate for each rank r
    with 2r <= N, in rank order.
    """

    estimator_kind: str
    rows: tuple[LfdrRow, ...]
    nfdr_trace: tuple[NfdrEstimate, ...]

    def raw(self) -> np.ndarray:
        return np.asarray([r.raw_estimate for r in self.rows])

    def monotone(self) -> np.ndarray:
        return np.asarray([r.monotone_estimate for r in self.rows])


def enforce_monotonicity(estimates) -> list[float]:
    """Running maximum in rank order; never decreases any estimate."""
    arr = np.asarray(list(estimates), dtype=float)
    if arr.size == 0:
        return []
    return [float(v) for v in np.maximum.accumulate(arr)]


def _tail_weight(kind: str, weight: float | None) -> float | None:
    """Weight C of a kind: None for the plug-in, by default 1 (corrected) or 1/2 (mean)."""
    if kind == KIND_MLE:
        return None
    if weight is not None:
        return weight
    return 1.0 if kind == KIND_CORRECTED else 0.5


def _rank_estimates(
    p_sorted: np.ndarray,
    kind: str,
    weight: float | None,
    mc_draws: int,
    seeds,
    mean_method: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw estimates for a stack of rank-ordered p-value rows of one size N.

    ``p_sorted`` is (rows, N) and ``seeds`` holds one Monte Carlo seed per
    row.  Returns the (rows, N) raw estimates, 1 past rank N // 2, and the
    (rows, N // 2) capped flags.  Each element depends only on its own row:
    the corrected medians depend on (N, x) alone and are solved once, and
    the Monte Carlo uniforms of every (row, rank) come from their own
    substream seeded by (seed, rank) and go through one inverse call.
    """
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"kind must be one of {ESTIMATOR_KINDS}, got {kind!r}")
    if weight is not None and not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    if kind == KIND_MEAN:
        if mean_method not in ("monte_carlo", "quadrature"):
            raise ValueError(
                f"mean_method must be 'monte_carlo' or 'quadrature', got {mean_method!r}"
            )
        if mean_method == "monte_carlo":
            for seed in seeds:
                if seed < 0:
                    raise ValueError(f"seed must be nonnegative, got {seed}")
            if mc_draws < 1:
                raise ValueError(f"mc_draws must be at least 1, got {mc_draws}")
    rows, n = p_sorted.shape
    m = n // 2
    xs = 2 * np.arange(1, m + 1)
    alphas = p_sorted[:, xs - 1]
    w = _tail_weight(kind, weight)
    if m == 0:
        head = np.empty((rows, 0))
        capped = np.empty((rows, 0), dtype=bool)
    elif kind == KIND_MLE:
        ratio = alphas * n / xs
        head = np.minimum(ratio, 1.0)
        capped = ratio > 1.0
    elif kind == KIND_CORRECTED:
        # With x = 2r >= 1 the only degenerate case is x = N with C < 1/2,
        # where the significance range tops out below 1/2.
        defined = (xs < n) | (w >= 0.5)
        ratio = alphas / _quantile(n, xs, w, 0.5)
        head = np.where(defined, np.minimum(ratio, 1.0), 1.0)
        capped = ~defined | (ratio > 1.0)
    else:
        if mean_method == "quadrature":
            head = np.asarray(
                [
                    [mean_nfdr(float(a), int(x), n, weight=w, method="quadrature").value
                     for a, x in zip(row, xs)]
                    for row in alphas
                ]
            )
        else:
            u = np.vstack(
                [
                    np.random.default_rng(np.random.SeedSequence([seed, r])).random(mc_draws)
                    for seed in seeds
                    for r in range(1, m + 1)
                ]
            )
            pi = _quantile(n, np.tile(xs, rows)[:, None], w, u)
            ratio = np.divide(
                alphas.reshape(-1, 1), pi, out=np.full(pi.shape, np.inf), where=pi > 0.0
            )
            head = np.minimum(ratio, 1.0).mean(axis=1).reshape(rows, m)
        capped = head >= 1.0
    return np.hstack([head, np.ones((rows, n - m))]), capped


def lfdr_estimates(
    pvals: PValueSet,
    kind: str,
    *,
    weight: float | None = None,
    mc_draws: int = 100,
    seed: int = 0,
    mean_method: str = "monte_carlo",
) -> LfdrResult:
    """Estimate the local FDR of every hypothesis from its p-value rank.

    ``weight`` defaults to 1 for the corrected kind and 1/2 for the mean
    kind.  Raw estimates are always retained next to the monotone ones.
    """
    p_sorted = pvals.sorted_p()
    ids_sorted = pvals.sorted_ids()
    raw_rows, capped_rows = _rank_estimates(
        p_sorted[None, :], kind, weight, mc_draws, (seed,), mean_method
    )
    raw, capped = raw_rows[0], capped_rows[0]
    monotone = np.maximum.accumulate(raw)
    n = pvals.n
    w = _tail_weight(kind, weight)
    trace = tuple(
        NfdrEstimate(float(v), kind, float(p_sorted[x - 1]), x, n, w, bool(c))
        for v, x, c in zip(raw, range(2, n + 1, 2), capped)
    )
    rows = tuple(
        LfdrRow(ids_sorted[i], float(p_sorted[i]), i + 1, float(raw[i]), float(monotone[i]))
        for i in range(n)
    )
    return LfdrResult(kind, rows, trace)


@dataclass(frozen=True)
class BhRejection:
    """Step-up rejection set: ids in ascending p order, the rank cutoff, and
    the largest rejected p-value (None when nothing is rejected)."""

    rejected_ids: tuple[str, ...]
    k_star: int
    threshold_p: float | None


def bh_reject(pvals: PValueSet, q: float) -> BhRejection:
    """Reject the hypotheses whose ranked plug-in estimate stays at or below q.

    Equivalent to the classical step-up rule: find the largest k with
    N * p_(k) / k <= q and reject everything at or below p_(k).
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    n = pvals.n
    p_sorted = pvals.sorted_p()
    ids_sorted = pvals.sorted_ids()
    ranks = np.arange(1, n + 1)
    estimates = np.minimum(p_sorted * n / ranks, 1.0)
    passing = np.nonzero(estimates <= q)[0]
    if passing.size == 0:
        return BhRejection((), 0, None)
    k_star = int(passing[-1]) + 1
    threshold = float(p_sorted[k_star - 1])
    count = int(np.sum(p_sorted <= threshold))
    return BhRejection(tuple(ids_sorted[:count]), k_star, threshold)


@dataclass(frozen=True)
class BhLfdrLink:
    """Control level q next to the plug-in local FDR estimate at the median
    rejected rank.  All optional fields are None when nothing is rejected."""

    q: float
    rejection: BhRejection
    median_rank: int | None
    median_id: str | None
    median_p: float | None
    lfdr_at_median: float | None

    @property
    def applicable(self) -> bool:
        return self.median_rank is not None


def bh_lfdr_link(pvals: PValueSet, q: float) -> BhLfdrLink:
    """Report the plug-in LFDR estimate at the median rejected p-value.

    Even-sized rejection sets use the lower median so the reported rank
    stays inside the rejection set.  The near-equality of the estimate with
    q is reported, never asserted; monotonicity violations and odd set sizes
    break it slightly.
    """
    rejection = bh_reject(pvals, q)
    if rejection.k_star == 0:
        return BhLfdrLink(q, rejection, None, None, None, None)
    median_rank = (rejection.k_star + 1) // 2
    n = pvals.n
    p_sorted = pvals.sorted_p()
    ids_sorted = pvals.sorted_ids()
    if 2 * median_rank <= n:
        estimate = mle_nfdr(float(p_sorted[2 * median_rank - 1]), 2 * median_rank, n).value
    else:
        estimate = 1.0
    return BhLfdrLink(
        q,
        rejection,
        median_rank,
        ids_sorted[median_rank - 1],
        float(p_sorted[median_rank - 1]),
        float(estimate),
    )
