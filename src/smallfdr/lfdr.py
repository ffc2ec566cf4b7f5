"""Rank-based local false discovery rate estimation.

The estimate at the p-value of rank r reuses a one-count estimator with the
level set to the p-value of rank 2r and the discovery count set to 2r, or
defaults to 1 when 2r exceeds the number of hypotheses.  A running maximum
restores monotonicity in rank; the step-up control rule and its reading as
an estimate at the median rejected p-value live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import _check_choice, _check_count, _check_unit
from .nfdr import (
    KIND_CORRECTED,
    KIND_MEAN,
    KIND_MLE,
    MEAN_METHODS,
    NfdrEstimate,
    _estimate,
    _mean_mc,
    _mle,
)
# Kept as module attributes: perfbench/tracing.py wraps lfdr.mle_nfdr and
# lfdr.mean_nfdr.
from .nfdr import mean_nfdr, mle_nfdr  # noqa: F401


def _tie_order(tie_break_seed: int, n: int) -> np.ndarray:
    """The seeded permutation of range(n) that breaks ties among n p-values."""
    return np.random.default_rng(tie_break_seed).permutation(n)


def _rank_order(p: np.ndarray, tie_order: np.ndarray) -> np.ndarray:
    """Indices that sort ``p`` ascending along its last axis, ties broken by
    the permutations ``tie_order`` of the same shape.

    This is ``np.lexsort((tie_order, p))`` for each row: a stable sort by p
    of the indices already arranged by ``tie_order``, which is faster at
    large N.
    """
    by_tie = np.empty_like(tie_order)
    np.put_along_axis(by_tie, tie_order, np.arange(p.shape[-1]), axis=-1)
    keys = np.take_along_axis(p, by_tie, axis=-1)
    return np.take_along_axis(by_tie, np.argsort(keys, axis=-1, kind="stable"), axis=-1)


class PValueSet:
    """P-values with distinct labels and pseudorandomly tie-broken ranks.

    ``ranks[i]`` is the 1-based rank of entry i after sorting by p-value,
    ties resolved by a seeded random permutation so that ranks are always a
    bijection onto 1..N and reruns with the same seed agree.

    The set holds the ids and one float64 array of p-values.  The rank order
    is computed once, on first read (``order``, ``sorted_p``, ``sorted_ids``
    or ``ranks``), so a set whose ranks are never read is never sorted.  The
    ``p_values`` and ``ranks`` tuples are built on first use.
    """

    def __init__(self, ids, p_values, tie_break_seed: int = 0):
        # tolist turns the numpy scalars of an id array into plain Python values
        self.ids = tuple(ids.tolist() if isinstance(ids, np.ndarray) else ids)
        p = np.array(p_values, dtype=float)
        p += 0.0  # -0.0 + 0.0 is +0.0, so a p-value of -0 is stored, and prints, as 0
        if p.shape != (len(self.ids),):
            raise ValueError(f"expected one p-value per id, got shape {p.shape}")
        if len(set(self.ids)) != len(self.ids):
            seen = set()
            for label in self.ids:
                if label in seen:
                    raise ValueError(f"duplicate id {label!r}")
                seen.add(label)
        if p.size == 0:
            raise ValueError("at least one p-value is required")
        bad = ~((p >= 0.0) & (p <= 1.0))
        if bad.any():
            i = int(np.argmax(bad))
            label, value = self.ids[i], float(p[i])
            raise ValueError(f"p-value for {label!r} must lie in [0, 1], got {value}")
        self.tie_break_seed = _check_count("tie_break_seed", tie_break_seed, 0)
        self._p = p

    @classmethod
    def from_pairs(cls, pairs, tie_break_seed: int = 0) -> "PValueSet":
        pairs = list(pairs)
        ids = [str(label) for label, _ in pairs]
        return cls(ids, [float(p) for _, p in pairs], tie_break_seed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PValueSet):
            return NotImplemented
        return (
            self.tie_break_seed == other.tie_break_seed
            and self.ids == other.ids
            and np.array_equal(self._p, other._p)
        )

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def _order(self) -> np.ndarray:
        order = _rank_order(self._p, _tie_order(self.tie_break_seed, self.n))
        order.flags.writeable = False
        return order

    @cached_property
    def p_values(self) -> tuple[float, ...]:
        return tuple(self._p.tolist())

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        return tuple((np.argsort(self._order) + 1).tolist())  # the inverse permutation

    def order(self) -> np.ndarray:
        """Input indices arranged by ascending rank (a read-only array)."""
        return self._order

    def sorted_p(self) -> np.ndarray:
        return self._p[self._order]

    def sorted_ids(self) -> tuple[str, ...]:
        return self._sorted_ids

    @cached_property
    def _sorted_ids(self) -> tuple[str, ...]:
        return tuple(np.array(self.ids, dtype=object)[self._order].tolist())


@dataclass(frozen=True)
class LfdrRow:
    id: str
    p: float
    rank: int
    raw_estimate: float
    monotone_estimate: float


class LfdrResult:
    """Per-hypothesis estimates in rank order, before and after monotonicity.

    Columns in rank order: ``ids``, the p-values ``p`` and the raw and
    monotone estimates that ``raw()`` and ``monotone()`` return; ``capped``
    flags the one-count estimate of each rank r with 2r <= N.  The arrays
    are read-only.  ``rows`` and ``nfdr_trace``, the one-count estimates in
    rank order, are tuples built from the columns on first use.
    """

    def __init__(self, estimator_kind: str, ids, p, raw, monotone, capped,
                 weight: float | None):
        self.estimator_kind = estimator_kind
        self.ids = tuple(ids)
        self.p = p
        self.capped = capped
        self.weight = weight
        self._raw = raw
        self._monotone = monotone
        for column in (p, capped, raw, monotone):
            column.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, LfdrResult):
            return NotImplemented
        columns = ("p", "capped", "_raw", "_monotone")
        return (self.estimator_kind, self.weight, self.ids) == (
            other.estimator_kind, other.weight, other.ids
        ) and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in columns)

    def raw(self) -> np.ndarray:
        return self._raw

    def monotone(self) -> np.ndarray:
        return self._monotone

    @cached_property
    def rows(self) -> tuple[LfdrRow, ...]:
        return tuple(
            map(
                LfdrRow,
                self.ids,
                self.p.tolist(),
                range(1, len(self.ids) + 1),
                self._raw.tolist(),
                self._monotone.tolist(),
            )
        )

    @cached_property
    def nfdr_trace(self) -> tuple[NfdrEstimate, ...]:
        m = len(self.capped)
        n = len(self.ids)
        return tuple(
            NfdrEstimate(v, self.estimator_kind, alpha, x, n, self.weight, c)
            for v, alpha, x, c in zip(
                self._raw[:m].tolist(),
                self.p[1 : 2 * m : 2].tolist(),
                range(2, 2 * m + 1, 2),
                self.capped.tolist(),
            )
        )


def _running_max(estimates: np.ndarray) -> np.ndarray:
    """Running maximum along the last axis: monotone estimates in rank order."""
    return np.maximum.accumulate(estimates, axis=-1)


def enforce_monotonicity(estimates) -> list[float]:
    """Running maximum in rank order; never decreases any estimate."""
    return _running_max(np.asarray(list(estimates), dtype=float)).tolist()


def _tail_weight(kind: str, weight: float | None) -> float | None:
    """Weight C of a kind: None for the plug-in, by default 1 (corrected) or 1/2
    (mean).  A given weight is checked for every kind, the plug-in's too."""
    if weight is None:
        weight = 1.0 if kind == KIND_CORRECTED else 0.5
    _check_unit("weight", weight)
    return None if kind == KIND_MLE else weight


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
    w = _tail_weight(kind, weight)
    # every kind checks the Monte Carlo options, which only the mean uses
    _check_choice("mean_method", mean_method, MEAN_METHODS)
    seeds = [_check_count("seed", seed, 0) for seed in seeds]
    mc_draws = _check_count("mc_draws", mc_draws, 1)
    rows, n = p_sorted.shape
    m = n // 2
    xs = 2 * np.arange(1, m + 1)
    alphas = p_sorted[:, xs - 1]
    if kind == KIND_MEAN and mean_method == "monte_carlo":
        u = np.array(
            [
                np.random.default_rng(np.random.SeedSequence([seed, r])).random(mc_draws)
                for seed in seeds
                for r in range(1, m + 1)
            ]
        ).reshape(rows, m, mc_draws)
        head, capped = _mean_mc(alphas, xs, n, w, u)
    else:
        head, capped = _estimate(kind, alphas, xs, n, w)
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
    raw_rows, capped_rows = _rank_estimates(
        p_sorted[None, :], kind, weight, mc_draws, (seed,), mean_method
    )
    raw = raw_rows[0]
    return LfdrResult(
        kind, pvals.sorted_ids(), p_sorted, raw, _running_max(raw), capped_rows[0],
        _tail_weight(kind, weight),
    )


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
    estimates, _ = _mle(p_sorted, np.arange(1, n + 1), n)
    passing = np.nonzero(estimates <= q)[0]
    if passing.size == 0:
        return BhRejection((), 0, None)
    k_star = int(passing[-1]) + 1
    return BhRejection(tuple(ids_sorted[:k_star]), k_star, float(p_sorted[k_star - 1]))


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

    The estimate is the raw plug-in ``lfdr_estimates`` value at that rank.
    Even-sized rejection sets use the lower median so the reported rank
    stays inside the rejection set.  The near-equality of the estimate with
    q is reported, never asserted; monotonicity violations and odd set sizes
    break it slightly.
    """
    rejection = bh_reject(pvals, q)
    if rejection.k_star == 0:
        return BhLfdrLink(q, rejection, None, None, None, None)
    median_rank = (rejection.k_star + 1) // 2
    return BhLfdrLink(
        q,
        rejection,
        median_rank,
        pvals.sorted_ids()[median_rank - 1],
        float(pvals.sorted_p()[median_rank - 1]),
        float(lfdr_estimates(pvals, KIND_MLE).raw()[median_rank - 1]),
    )
