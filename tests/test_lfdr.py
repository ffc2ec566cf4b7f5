from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallfdr import lfdr
from smallfdr import (
    LfdrRow,
    NfdrEstimate,
    PValueSet,
    SimulationConfig,
    bh_lfdr_link,
    bh_reject,
    enforce_monotonicity,
    lfdr_estimates,
    mean_nfdr,
    run_grid,
)
from smallfdr.cli import main
from smallfdr.lfdr import _rank_estimates

from oracles import pvalue_tuples, textbook_bh


def pset(values):
    return PValueSet.from_pairs([(f"h{i}", p) for i, p in enumerate(values)])


def rank_order(ranks):
    """Input positions by count rank, equal ranks in input order."""
    return sorted(range(len(ranks)), key=lambda i: (ranks[i], i))


class TestPValueSet:
    def test_ranks_count_the_p_values_at_or_below(self):
        ps = pset([0.4, 0.1, 0.4, 0.02, 0.4])
        assert ps.ranks == (5, 2, 5, 1, 5)
        assert ps.sorted_ranks().tolist() == [1, 2, 5, 5, 5]
        assert ps.sorted_ids() == ("h3", "h1", "h0", "h2", "h4")
        assert list(ps.sorted_p()) == sorted(ps.p_values)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 50, 1000])
    def test_tuples_match_pairwise_construction(self, n):
        rng = np.random.default_rng(n)
        # two-decimal values tie often; -0.0 ties with the exact 0
        values = np.round(rng.random(n), 2)
        values[: min(n, 3)] = [0.0, 1.0, -0.0][: min(n, 3)]
        pairs = [(f"h{i}", float(p)) for i, p in enumerate(values)]
        ps = PValueSet.from_pairs(pairs)
        ids, p_values, ranks = pvalue_tuples(pairs)
        assert (ps.ids, ps.p_values, ps.ranks) == (ids, p_values, ranks)
        assert ps.sorted_ids() == tuple(ids[i] for i in rank_order(ranks))
        assert ps.sorted_ranks().tolist() == sorted(ranks)
        assert PValueSet(ids, np.asarray(p_values)) == ps

    def test_validation(self):
        with pytest.raises(ValueError):
            pset([])
        with pytest.raises(ValueError):
            pset([0.2, 1.4])
        with pytest.raises(ValueError):
            pset([float("nan")])
        with pytest.raises(ValueError, match=r"^expected one p-value per id, got shape \(2,\)$"):
            PValueSet(["a"], [0.1, 0.2])

    # each constructor names the first id that repeats an earlier one
    def test_duplicate_ids_from_sequences(self):
        with pytest.raises(ValueError, match="duplicate id 'a'"):
            PValueSet(["a", "a", "b"], [0.01, 0.5, 0.02])

    def test_duplicate_ids_from_arrays(self):
        with pytest.raises(ValueError, match="duplicate id 'b'"):
            PValueSet(("c", "b", "a", "b", "c"), np.array([0.1, 0.2, 0.3, 0.4, 0.5]))

    def test_numpy_string_ids_are_plain_strings(self):
        ps = PValueSet(np.array(["b", "a"]), [0.2, 0.1])
        assert ps.ids == ("b", "a") and ps.sorted_ids() == ("a", "b")
        assert all(type(label) is str for label in ps.ids + ps.sorted_ids())
        with pytest.raises(ValueError, match=r"^p-value for 'b' must lie in \[0, 1\], got 2.0$"):
            PValueSet(np.array(["a", "b"]), [0.1, 2.0])
        with pytest.raises(ValueError, match="^duplicate id 'a'$"):
            PValueSet(np.array(["a", "a"]), [0.1, 0.2])

    def test_duplicate_ids_from_pairs(self):
        with pytest.raises(ValueError, match="duplicate id 'h1'"):
            PValueSet.from_pairs([("h1", 0.3), ("h2", 0.3), ("h1", 0.3)])


class TestLazyRankOrder:
    """A set is ranked once, on the first read of its order; ``ttest`` never reads it."""

    @pytest.fixture
    def rank_calls(self, monkeypatch):
        calls = []
        count_ranks = lfdr._count_ranks

        def counting(*args):
            calls.append(args)
            return count_ranks(*args)

        monkeypatch.setattr(lfdr, "_count_ranks", counting)
        return calls

    def test_building_a_set_does_not_rank(self, rank_calls):
        ps = pset([0.4, 0.1, 0.4, 0.02])
        assert (ps.n, ps.p_values) == (4, (0.4, 0.1, 0.4, 0.02))
        assert ps == pset([0.4, 0.1, 0.4, 0.02])
        assert rank_calls == []

    def test_first_read_ranks_once(self, rank_calls):
        ps = pset([0.4, 0.1, 0.4, 0.02])
        first = ps.sorted_p()
        assert np.array_equal(ps.sorted_p(), first) and len(rank_calls) == 1
        assert list(ps.sorted_ids()) == [f"h{i}" for i in ps.order()]
        assert ps.ranks == (4, 2, 4, 1)
        assert not ps.order().flags.writeable and not ps.sorted_ranks().flags.writeable
        assert len(rank_calls) == 1

    def test_ttest_never_ranks_and_lfdr_and_bh_rank_once(self, tmp_path, rank_calls):
        table = Path(__file__).parent / "data" / "abundance_20protein.csv"
        out = tmp_path / "p.csv"
        assert main(["ttest", str(table), "--seed", "3", "--out", str(out)]) == 0
        assert rank_calls == []
        for command in (["lfdr", str(out)], ["bh", str(out), "--q", "0.05"]):
            rank_calls.clear()
            assert main(command) == 0
            assert len(rank_calls) == 1


class TestMonotonicity:
    def test_examples(self):
        assert enforce_monotonicity([0.3, 0.2, 0.4]) == [0.3, 0.3, 0.4]
        assert enforce_monotonicity([0.1, 0.2, 0.9]) == [0.1, 0.2, 0.9]
        assert enforce_monotonicity([0.5, 0.1, 0.1]) == [0.5, 0.5, 0.5]

    def test_properties_random(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            raw = rng.random(int(rng.integers(1, 60)))
            out = np.asarray(enforce_monotonicity(raw))
            assert np.all(np.diff(out) >= 0)
            assert np.all(out >= raw)
            assert enforce_monotonicity(out) == list(out)


def per_row_result(pairs, seed, kind, weight, mc_draws):
    """(rows, nfdr_trace) of lfdr_estimates, built one row at a time: a row of
    count rank r gets the estimate of rank r and the largest of ranks 1..r."""
    ids, ps, ranks = pvalue_tuples(pairs)
    order = rank_order(ranks)
    p_sorted = np.asarray(ps)[order]
    ids_sorted = tuple(ids[i] for i in order)
    ranks_sorted = [ranks[i] for i in order]
    estimate_rows, capped_rows = _rank_estimates(
        p_sorted[None, :], kind, weight, mc_draws, (seed,), "monte_carlo"
    )
    estimates, capped = estimate_rows[0], capped_rows[0]
    raw = [estimates[r - 1] for r in ranks_sorted]
    monotone = [max(estimates[:r]) for r in ranks_sorted]
    if kind == "mle":
        w = None
    elif weight is None:
        w = 1.0 if kind == "corrected_median" else 0.5
    else:
        w = weight
    n = len(ps)
    trace = tuple(
        NfdrEstimate(float(v), kind, float(p_sorted[x - 1]), x, n, w, bool(c))
        for v, x, c in zip(estimates, range(2, n + 1, 2), capped)
    )
    rows = tuple(
        LfdrRow(ids_sorted[i], float(p_sorted[i]), ranks_sorted[i], float(raw[i]),
                float(monotone[i]))
        for i in range(n)
    )
    return rows, trace


class TestLfdrResultColumns:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
    @pytest.mark.parametrize("kind", ["mle", "corrected_median", "posterior_mean"])
    @pytest.mark.parametrize("weight", [None, 0.0, 0.5, 1.0])
    def test_rows_and_trace_match_per_row_construction(self, n, kind, weight):
        rng = np.random.default_rng(1000 + n)
        pairs = [(f"h{i}", float(p)) for i, p in enumerate(np.round(rng.random(n), 3))]
        res = lfdr_estimates(
            PValueSet.from_pairs(pairs), kind, weight=weight, mc_draws=20, seed=5
        )
        rows, trace = per_row_result(pairs, 5, kind, weight, 20)
        assert res.rows == rows
        assert res.nfdr_trace == trace
        assert res.raw().tolist() == [r.raw_estimate for r in rows]
        assert res.monotone().tolist() == [r.monotone_estimate for r in rows]

    def test_equality(self):
        ps = pset([0.01, 0.04, 0.2, 0.5])
        assert lfdr_estimates(ps, "mle") == lfdr_estimates(ps, "mle")
        assert lfdr_estimates(ps, "mle") != lfdr_estimates(ps, "corrected_median")
        assert (lfdr_estimates(ps, "mle") == object()) is False


class TestLfdrEstimates:
    def test_hand_trace_mle(self):
        res = lfdr_estimates(pset([0.01, 0.04, 0.2, 0.5]), "mle")
        assert [r.raw_estimate for r in res.rows] == pytest.approx([0.08, 0.5, 1.0, 1.0])
        assert [r.rank for r in res.rows] == [1, 2, 3, 4]
        assert len(res.nfdr_trace) == 2
        assert res.nfdr_trace[0].alpha == 0.04 and res.nfdr_trace[0].successes == 2

    def test_two_pvalue_case(self):
        res = lfdr_estimates(pset([0.02, 0.9]), "mle")
        assert [r.raw_estimate for r in res.rows] == pytest.approx([0.9, 1.0])

    def test_single_pvalue_is_one(self):
        res = lfdr_estimates(pset([0.001]), "mle")
        assert [r.raw_estimate for r in res.rows] == [1.0]
        assert res.nfdr_trace == ()

    def test_odd_n_rank_rule(self):
        # N = 5: rank 2 qualifies because 2 <= 5/2, using p_(4)
        res = lfdr_estimates(pset([0.01, 0.02, 0.03, 0.4, 0.9]), "mle")
        raw = [r.raw_estimate for r in res.rows]
        assert raw[1] == pytest.approx(min(5 * 0.4 / 4, 1.0))
        assert raw[2:] == [1.0, 1.0, 1.0]

    def test_mle_closed_form_random(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 80))
            ps = pset(list(rng.random(n)))
            res = lfdr_estimates(ps, "mle")
            sorted_p = ps.sorted_p()
            for r, row in enumerate(res.rows, start=1):
                if 2 * r <= n:
                    expect = min(n * sorted_p[2 * r - 1] / (2 * r), 1.0)
                else:
                    expect = 1.0
                assert row.raw_estimate == pytest.approx(expect, abs=1e-12)

    def test_monotone_column_properties(self):
        rng = np.random.default_rng(13)
        for kind in ("mle", "corrected_median", "posterior_mean"):
            ps = pset(list(rng.random(21)))
            res = lfdr_estimates(ps, kind, mc_draws=50, seed=4)
            raw = res.raw()
            mono = res.monotone()
            assert np.all(np.diff(mono) >= 0)
            assert np.all(mono >= raw)
            assert np.all(raw[(len(raw) // 2):] == 1.0)

    def test_corrected_dominates_mle_by_rank(self):
        rng = np.random.default_rng(14)
        ps = pset(list(rng.random(30)))
        mle = lfdr_estimates(ps, "mle").raw()
        corrected = lfdr_estimates(ps, "corrected_median").raw()
        assert np.all(corrected >= mle - 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        values = list(rng.random(12))
        base = lfdr_estimates(pset(values), "mle")
        shuffled_pairs = [(f"h{i}", p) for i, p in enumerate(values)]
        rng.shuffle(shuffled_pairs)
        other = lfdr_estimates(PValueSet.from_pairs(shuffled_pairs), "mle")
        by_id_base = {r.id: r.monotone_estimate for r in base.rows}
        by_id_other = {r.id: r.monotone_estimate for r in other.rows}
        assert by_id_base == by_id_other

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 1e-4, 0.003, 0.01, 0.2, 0.5, 1.0]),
                 min_size=1, max_size=40),
        st.randoms(use_true_random=False),
    )
    def test_tie_groups_share_estimates_in_any_row_order(self, values, random):
        # every member of a tie group gets one raw and one monotone estimate,
        # and shuffling the input rows moves no id's estimates
        pairs = [(f"h{i}", p) for i, p in enumerate(values)]
        shuffled = random.sample(pairs, len(pairs))
        for kind in ("mle", "corrected_median", "posterior_mean"):
            by_id = []
            for rows in (pairs, shuffled):
                result = lfdr_estimates(PValueSet.from_pairs(rows), kind, mc_draws=20, seed=3)
                estimates = list(zip(result.raw().tolist(), result.monotone().tolist()))
                by_p = {}
                for p, estimate in zip(result.p.tolist(), estimates):
                    assert by_p.setdefault(p, estimate) == estimate
                by_id.append(dict(zip(result.ids, estimates)))
            assert by_id[0] == by_id[1]

    def test_mean_kind_deterministic_given_seed(self):
        ps = pset(list(np.random.default_rng(16).random(10)))
        a = lfdr_estimates(ps, "posterior_mean", mc_draws=64, seed=9).raw()
        b = lfdr_estimates(ps, "posterior_mean", mc_draws=64, seed=9).raw()
        assert np.array_equal(a, b)

    def test_mean_quadrature_close_to_monte_carlo(self):
        ps = pset(list(np.random.default_rng(18).random(8)))
        mc = lfdr_estimates(ps, "posterior_mean", mc_draws=4000, seed=2).raw()
        quad = lfdr_estimates(ps, "posterior_mean", mean_method="quadrature").raw()
        assert np.allclose(mc, quad, atol=0.05)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_mean_monte_carlo_rank_is_scalar_mean(self, seed):
        # rank r's raw estimate is mean_nfdr at (p_(2r), 2r, N) on the
        # substream seeded by (seed, r), bit for bit
        ps = pset(list(np.random.default_rng(19).random(33) ** 2))
        result = lfdr_estimates(ps, "posterior_mean", mc_draws=40, seed=seed)
        p_sorted = ps.sorted_p()
        for r in range(1, ps.n // 2 + 1):
            want = mean_nfdr(
                float(p_sorted[2 * r - 1]), 2 * r, ps.n, draws=40,
                seed=np.random.SeedSequence([seed, r]),
            )
            assert result.raw()[r - 1] == want.value
            assert result.capped[r - 1] == want.capped

    @pytest.mark.parametrize("n", [1, 2])
    def test_bad_kind(self, n):
        with pytest.raises(ValueError, match="kind must be one of"):
            lfdr_estimates(pset([0.1, 0.4][:n]), "shrunk")

    @pytest.mark.parametrize("kind", ["mle", "corrected_median", "posterior_mean"])
    @pytest.mark.parametrize("weight", [-0.1, 2.0, float("nan")])
    def test_weight_outside_unit_interval(self, kind, weight):
        with pytest.raises(ValueError, match="weight"):
            lfdr_estimates(pset([0.01, 0.2, 0.5, 0.7]), kind, weight=weight)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "option, value", [("mean_method", "bogus"), ("mc_draws", 0), ("seed", -1)]
    )
    def test_mean_options_validated_for_any_n(self, option, value, n):
        # N = 1 has no rank with 2r <= N, yet bad options still fail as at N = 2
        with pytest.raises(ValueError, match=option):
            lfdr_estimates(pset([0.01, 0.3][:n]), "posterior_mean", **{option: value})

    # the Monte Carlo options raise on the paths that ignore them as on the one that uses them
    @pytest.mark.parametrize(
        "kind, method",
        [("mle", "monte_carlo"), ("corrected_median", "monte_carlo"),
         ("posterior_mean", "quadrature")],
    )
    @pytest.mark.parametrize(
        "option, value", [("mc_draws", 0), ("mc_draws", -3), ("seed", -1), ("seed", 2.5)]
    )
    def test_monte_carlo_options_checked_on_every_path(self, kind, method, option, value):
        with pytest.raises(ValueError, match=f"^{option} must be a whole number"):
            lfdr_estimates(pset([0.01, 0.2, 0.5, 0.7]), kind, mean_method=method,
                           **{option: value})

    @pytest.mark.parametrize("kind", ["mle", "corrected_median"])
    def test_mean_method_checked_for_every_kind(self, kind):
        with pytest.raises(ValueError, match="^mean_method must be one of"):
            lfdr_estimates(pset([0.01, 0.2]), kind, mc_draws=0, seed=-1, mean_method="bogus")


class TestBh:
    def test_example(self):
        rej = bh_reject(pset([0.01, 0.02, 0.5]), 0.05)
        assert set(rej.rejected_ids) == {"h0", "h1"}
        assert rej.k_star == 2 and rej.threshold_p == 0.02

    def test_no_rejections(self):
        rej = bh_reject(pset([0.9, 0.95, 0.99]), 0.05)
        assert rej.rejected_ids == () and rej.k_star == 0 and rej.threshold_p is None

    def test_boundary_inclusive(self):
        # exact boundary p = q / N; choose N = 2 so the division is float-exact
        q = 0.05
        rej = bh_reject(pset([q / 2, 0.9]), q)
        assert rej.k_star == 1 and set(rej.rejected_ids) == {"h0"}

    def test_matches_textbook_step_up(self):
        rng = np.random.default_rng(2718)
        for trial in range(200):
            n = int(rng.integers(1, 51))
            values = rng.random(n) if trial % 2 == 0 else rng.beta(0.5, 3.0, n)
            q = float(rng.uniform(0.01, 0.3))
            ps = pset(list(values))
            mine = {int(i[1:]) for i in bh_reject(ps, q).rejected_ids}
            assert mine == textbook_bh(list(values), q)

    def test_q_validation(self):
        with pytest.raises(ValueError):
            bh_reject(pset([0.1]), 0.0)

    def test_tied_sets_reject_every_p_at_or_below_the_threshold(self):
        # a tie just after rank k* would pass the step-up test too, so the first
        # k* ranks are exactly the p-values at or below p_(k*)
        rng = np.random.default_rng(4242)
        for trial in range(300):
            n = int(rng.integers(1, 40))
            values = rng.choice([0.001, 0.01, 0.02, 0.05, 0.2, 0.5], size=n)
            ps = pset(list(values))
            rej = bh_reject(ps, float(rng.choice([0.05, 0.1, 0.3])))
            at_or_below = {f"h{i}" for i, p in enumerate(values)
                           if rej.k_star and p <= rej.threshold_p}
            assert len(rej.rejected_ids) == rej.k_star
            assert set(rej.rejected_ids) == at_or_below


class TestBhLfdrLink:
    def test_even_rejection_count_identity(self):
        # with k* even the reported estimate equals N * p_(k*) / k*, the
        # achieved level at the threshold
        values = [0.001, 0.002, 0.003, 0.004, 0.5, 0.6, 0.7, 0.8]
        q = 0.05
        link = bh_lfdr_link(pset(values), q)
        k = link.rejection.k_star
        assert k == 4 and link.median_rank == 2
        assert link.lfdr_at_median == pytest.approx(8 * 0.004 / 4)

    def test_single_rejection_uses_rank_two(self):
        values = [0.001, 0.5, 0.6]
        link = bh_lfdr_link(pset(values), 0.05)
        assert link.rejection.k_star == 1 and link.median_rank == 1
        assert link.lfdr_at_median == pytest.approx(min(3 * 0.5 / 2, 1.0))

    def test_not_applicable(self):
        link = bh_lfdr_link(pset([0.99, 0.98]), 0.05)
        assert not link.applicable
        assert link.median_rank is None and link.lfdr_at_median is None

    def test_odd_rejection_count_lower_median(self):
        values = [0.0001, 0.0002, 0.0003, 0.9, 0.9, 0.9]
        link = bh_lfdr_link(pset(values), 0.05)
        assert link.rejection.k_star == 3
        assert link.median_rank == 2

    # Tied sets, each with its level q and an even k*, on which the "<= q at the
    # lower-median rank" reading holds: no tie joins the median position k* / 2
    # to the next one, so the median's count rank is k* / 2 and its estimate
    # is N p_(k*) / k*.
    TIED_READING_HOLDS = [
        ([0.001, 0.001, 0.002, 0.002, 0.5, 0.6, 0.7, 0.8], 0.05),  # k* = 4, rank 2
        ([0.003, 0.001, 0.003, 0.001, 0.9, 0.9], 0.05),  # k* = 4, rank 2
    ]
    # Tied sets on which ties break it: a tie joins the median position to the
    # next one, so the median takes its group's count rank, past k* / 2, and
    # its estimate reads p-values beyond the rejection set.
    TIED_READING_BREAKS = [
        ([0.001, 0.01, 0.01, 0.01, 0.5, 0.6, 0.7, 0.8], 0.3),  # k* = 4, rank 4, 0.8
        ([0.002, 0.002, 0.002, 0.002, 0.9], 0.05),  # k* = 4, rank 4, 2r > N gives 1
    ]

    def test_estimate_is_the_mle_raw_estimate_at_the_median_rank(self):
        # N = 1, k* with 2m > N (estimate 1) and heavy ties are all included
        rng = np.random.default_rng(90210)
        sets = [[0.01], [0.001, 0.002], [0.001, 0.002, 0.003], [0.01] * 7 + [0.5] * 3]
        sets += [values for values, _ in self.TIED_READING_HOLDS + self.TIED_READING_BREAKS]
        for trial in range(300):
            n = int(rng.integers(1, 60))
            if trial % 3 == 0:
                sets.append(list(rng.choice([1e-4, 1e-3, 0.01, 0.5], size=n)))
            else:
                sets.append(list(rng.beta(0.3, 4.0, n)))
        seen_past_half = seen_tie_past_half = 0
        for values in sets:
            ps = pset(values)
            result = lfdr_estimates(ps, "mle")
            for q in (0.05, 0.2, 0.3, 0.6):
                link = bh_lfdr_link(ps, q)
                if not link.applicable:
                    continue
                m, n, k = link.median_rank, ps.n, link.rejection.k_star
                # the lower-median position of the rejected ids, with its count rank
                assert link.median_id == link.rejection.rejected_ids[(k + 1) // 2 - 1]
                assert m == ps.ranks[int(link.median_id[1:])] and m <= k
                raw = result.raw()[m - 1]
                assert link.lfdr_at_median == raw  # bit for bit
                assert result.raw()[result.ids.index(link.median_id)] == raw
                textbook = 1.0 if 2 * m > n else min(ps.sorted_p()[2 * m - 1] * n / (2 * m), 1.0)
                assert link.lfdr_at_median == textbook
                # at most q exactly when the median's count rank is k* / 2
                assert (link.lfdr_at_median <= q) == (2 * m == k)
                seen_past_half += 2 * m > n
                seen_tie_past_half += 2 * m > k + 1
        assert seen_past_half > 0 and seen_tie_past_half > 0
        for cases, holds in ((self.TIED_READING_HOLDS, True), (self.TIED_READING_BREAKS, False)):
            for values, q in cases:
                link = bh_lfdr_link(pset(values), q)
                assert (link.lfdr_at_median <= q) is holds, values


class TestConservativePrediction:
    def test_fraction_rises_with_n_and_clears_095(self):
        # reduced version of the large-N acceptance run, both mixture weights
        for pi0 in (0.5, 0.9):
            fractions = []
            for n, reps in ((100, 10), (10_000, 5)):
                cfg = SimulationConfig(
                    pi0_grid=(pi0,),
                    n_grid=(n,),
                    delta=2.0,
                    replicates=reps,
                    seed=17,
                    estimators=("corrected_median",),
                )
                fractions.append(run_grid(cfg)[0].conservatism_proportion)
            assert fractions[1] > fractions[0]
            assert fractions[1] > 0.95
