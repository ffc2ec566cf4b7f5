"""Rank-based local false discovery rate estimation.

The estimate at the p-value of rank r reuses a one-count estimator with the
level set to the p-value of rank 2r and the discovery count set to 2r, or
defaults to 1 when 2r exceeds the number of hypotheses.  A p-value's rank is
the count #{j : p_j <= p}, so equal p-values share one rank and one
estimate.  A running maximum restores monotonicity in rank; the step-up
control rule and its reading as an estimate at the median rejected p-value
live here too.
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


def _count_ranks(p_sorted: np.ndarray) -> np.ndarray:
    """The count rank #{j : p_j <= p} of each p-value of rows sorted along the
    last axis: one past the position of the last p-value equal to it."""
    n = p_sorted.shape[-1]
    # a tie group ends where the next p-value differs, and at the end of the row
    ends = np.where(np.diff(p_sorted, axis=-1, append=np.inf) != 0.0, np.arange(1, n + 1), n)
    return np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1]


class PValueSet:
    """P-values with distinct labels, ranked by count.

    ``ranks[i]`` is the count rank #{j : p_j <= p_i} of entry i, so equal
    p-values share the largest rank of their tie group.  The rank order
    sorts by p-value, equal p-values in input order.

    The set holds the ids and one float64 array of p-values.  The rank order
    is computed once, on first read (``order``, ``sorted_p``, ``sorted_ids``,
    ``sorted_ranks`` or ``ranks``), so a set whose ranks are never read is
    never sorted.  The ``p_values`` and ``ranks`` tuples are built on first
    use.
    """

    def __init__(self, ids, p_values):
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
        self._p = p

    @classmethod
    def from_pairs(cls, pairs) -> "PValueSet":
        pairs = list(pairs)
        ids = [str(label) for label, _ in pairs]
        return cls(ids, [float(p) for _, p in pairs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PValueSet):
            return NotImplemented
        return self.ids == other.ids and np.array_equal(self._p, other._p)

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def _ranking(self) -> tuple[np.ndarray, np.ndarray]:
        """The rank order, a stable sort by p-value, and the count ranks in that order."""
        order = np.argsort(self._p, kind="stable")
        ranks = _count_ranks(self._p[order])
        order.flags.writeable = ranks.flags.writeable = False
        return order, ranks

    @cached_property
    def p_values(self) -> tuple[float, ...]:
        return tuple(self._p.tolist())

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        ranks = np.empty_like(self.sorted_ranks())
        ranks[self.order()] = self.sorted_ranks()
        return tuple(ranks.tolist())

    def order(self) -> np.ndarray:
        """Input indices arranged by ascending rank (a read-only array)."""
        return self._ranking[0]

    def sorted_p(self) -> np.ndarray:
        return self._p[self.order()]

    def sorted_ids(self) -> tuple[str, ...]:
        return self._sorted_ids

    def sorted_ranks(self) -> np.ndarray:
        """The count ranks in rank order (a read-only array)."""
        return self._ranking[1]

    @cached_property
    def _sorted_ids(self) -> tuple[str, ...]:
        return tuple(np.array(self.ids, dtype=object)[self.order()].tolist())


@dataclass(frozen=True)
class LfdrRow:
    id: str
    p: float
    rank: int
    raw_estimate: float
    monotone_estimate: float


class LfdrResult:
    """Per-hypothesis estimates in rank order, before and after monotonicity.

    Columns in rank order: ``ids``, the p-values ``p``, their count
    ``ranks`` and the raw and monotone estimates that ``raw()`` and
    ``monotone()`` return.  ``estimates`` holds the rank-doubling estimate
    of each rank 1..N, and ``capped`` flags the one-count estimate of each
    rank r with 2r <= N.  A hypothesis of count rank r gets the estimate of
    rank r as its raw estimate and the running maximum of the estimates of
    ranks 1..r as its monotone one, so the members of a tie group share
    both.  The arrays are read-only.  ``rows``, and ``nfdr_trace``, the
    one-count estimates of ranks 1..N // 2, are tuples built from the
    columns on first use.
    """

    def __init__(self, estimator_kind: str, ids, p, ranks, estimates, capped,
                 weight: float | None):
        self.estimator_kind = estimator_kind
        self.ids = tuple(ids)
        self.p = p
        self.ranks = ranks
        self.capped = capped
        self.weight = weight
        self.estimates = estimates
        self._raw = estimates[ranks - 1]
        self._monotone = np.maximum.accumulate(estimates)[ranks - 1]
        for column in (p, ranks, capped, estimates, self._raw, self._monotone):
            column.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, LfdrResult):
            return NotImplemented
        columns = ("p", "ranks", "capped", "estimates")
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
                self.ranks.tolist(),
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
                self.estimates[:m].tolist(),
                self.p[1 : 2 * m : 2].tolist(),
                range(2, 2 * m + 1, 2),
                self.capped.tolist(),
            )
        )


def enforce_monotonicity(estimates) -> list[float]:
    """Running maximum in rank order; never decreases any estimate."""
    return np.maximum.accumulate(np.asarray(list(estimates), dtype=float)).tolist()


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
    """Estimates of ranks 1..N for a stack of sorted p-value rows of one size N.

    ``p_sorted`` is (rows, N) and ``seeds`` holds one Monte Carlo seed per
    row.  Returns the (rows, N) estimates, 1 past rank N // 2, and the
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
    """Estimate the local FDR of every hypothesis from its count rank.

    ``weight`` defaults to 1 for the corrected kind and 1/2 for the mean
    kind.  Raw estimates are always retained next to the monotone ones.
    """
    p_sorted = pvals.sorted_p()
    estimates, capped = _rank_estimates(
        p_sorted[None, :], kind, weight, mc_draws, (seed,), mean_method
    )
    return LfdrResult(
        kind, pvals.sorted_ids(), p_sorted, pvals.sorted_ranks(), estimates[0], capped[0],
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
    """Reject the hypotheses whose plug-in estimate N p / r at their count
    rank r stays at or below q.

    Equivalent to the classical step-up rule: find the largest k with
    N * p_(k) / k <= q and reject everything at or below p_(k).  That k
    ends a tie group, since the p-value after a tie would pass too, so the
    count rank gives each tie group the value of its last member and the
    same k.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    p_sorted = pvals.sorted_p()
    estimates, _ = _mle(p_sorted, pvals.sorted_ranks(), pvals.n)
    passing = np.nonzero(estimates <= q)[0]
    if passing.size == 0:
        return BhRejection((), 0, None)
    k_star = int(passing[-1]) + 1
    return BhRejection(pvals.sorted_ids()[:k_star], k_star, float(p_sorted[k_star - 1]))


@dataclass(frozen=True)
class BhLfdrLink:
    """Control level q next to the plug-in local FDR estimate at the median
    rejected p-value, with its count rank.  All optional fields are None
    when nothing is rejected."""

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

    The median is the lower one, position (k* + 1) // 2 of the rejected ids
    in rank order, so that it stays inside the rejection set.  The link
    reports that position's id and p-value, its count rank and the raw
    plug-in ``lfdr_estimates`` value of that id, which is the estimate of
    its count rank: N p_(2r) / 2r, capped at 1, or 1 when 2r > N.  A tie
    group ends at or before k*, so the count rank is at most k*.

    Without ties, an even k* puts the median at rank k* / 2, whose estimate
    N p_(k*) / k* is at most q; an odd k* reads p_(k* + 1).  A tie across
    the median position raises its count rank past k* / 2.  Every rank r
    with 2r > k* fails the step-up test, so the estimate is at most q
    exactly when 2r = k*.  The comparison with q is reported, never
    asserted.
    """
    rejection = bh_reject(pvals, q)
    if rejection.k_star == 0:
        return BhLfdrLink(q, rejection, None, None, None, None)
    median = (rejection.k_star + 1) // 2 - 1
    return BhLfdrLink(
        q,
        rejection,
        int(pvals.sorted_ranks()[median]),
        pvals.sorted_ids()[median],
        float(pvals.sorted_p()[median]),
        float(lfdr_estimates(pvals, KIND_MLE).raw()[median]),
    )
