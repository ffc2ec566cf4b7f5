from pathlib import Path

import numpy as np
import pytest

from smallfdr import lfdr
from smallfdr import (
    AbundanceMatrix,
    LfdrRow,
    NfdrEstimate,
    PValueSet,
    SimulationConfig,
    Subject,
    bh_lfdr_link,
    bh_reject,
    enforce_monotonicity,
    lfdr_estimates,
    mean_nfdr,
    run_grid,
    two_sample_t_pvalues,
)
from smallfdr.cli import main
from smallfdr.lfdr import _rank_estimates

from oracles import pvalue_tuples, textbook_bh


def pset(values, seed=0):
    return PValueSet.from_pairs([(f"h{i}", p) for i, p in enumerate(values)], seed)


class TestPValueSet:
    def test_ranks_are_bijection(self):
        ps = pset([0.4, 0.1, 0.4, 0.02, 0.4])
        assert sorted(ps.ranks) == [1, 2, 3, 4, 5]
        assert list(ps.sorted_p()) == sorted(ps.p_values)

    def test_tie_break_reproducible(self):
        values = [0.5, 0.5, 0.5, 0.1]
        a = pset(values, seed=3)
        b = pset(values, seed=3)
        assert a.ranks == b.ranks
        # some seed reorders the tied block
        assert any(pset(values, seed=s).ranks != a.ranks for s in range(20))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_tuples_match_pairwise_construction(self, n, seed):
        rng = np.random.default_rng(n)
        # two-decimal values tie often; -0.0 ties with the exact 0
        values = np.round(rng.random(n), 2)
        values[: min(n, 3)] = [0.0, 1.0, -0.0][: min(n, 3)]
        pairs = [(f"h{i}", float(p)) for i, p in enumerate(values)]
        ps = PValueSet.from_pairs(pairs, seed)
        ids, p_values, ranks = pvalue_tuples(pairs, seed)
        assert (ps.ids, ps.p_values, ps.ranks) == (ids, p_values, ranks)
        assert ps.sorted_ids() == tuple(ids[i] for i in np.argsort(ranks))
        assert PValueSet(ids, np.asarray(p_values), seed) == ps

    def test_validation(self):
        with pytest.raises(ValueError):
            pset([])
        with pytest.raises(ValueError):
            pset([0.2, 1.4])
        with pytest.raises(ValueError):
            pset([float("nan")])

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_tie_break_seed_is_a_whole_number_at_least_zero(self, seed):
        with pytest.raises(ValueError, match="^tie_break_seed must be a whole number >= 0"):
            pset([0.1, 0.2], seed)
        subjects = tuple(Subject(s, g) for s, g in zip("abcd", ["case"] * 2 + ["control"] * 2))
        matrix = AbundanceMatrix(("f", "g"), subjects, np.array([[1, 2, 3, 4], [1, 5, 3, 4.0]]))
        with pytest.raises(ValueError, match="^tie_break_seed must be a whole number >= 0"):
            two_sample_t_pvalues(matrix, tie_break_seed=seed)

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
            PValueSet.from_pairs([("h1", 0.3), ("h2", 0.3), ("h1", 0.3)], tie_break_seed=4)


class TestLazyRankOrder:
    """A set is ranked once, on the first read of its order; ``ttest`` never reads it."""

    @pytest.fixture
    def rank_calls(self, monkeypatch):
        calls = []
        rank_order = lfdr._rank_order

        def counting(*args):
            calls.append(args)
            return rank_order(*args)

        monkeypatch.setattr(lfdr, "_rank_order", counting)
        return calls

    def test_building_a_set_does_not_rank(self, rank_calls):
        ps = pset([0.4, 0.1, 0.4, 0.02])
        assert (ps.n, ps.p_values) == (4, (0.4, 0.1, 0.4, 0.02))
        assert ps == pset([0.4, 0.1, 0.4, 0.02])
        assert rank_calls == []

    def test_first_read_ranks_once(self, rank_calls):
        ps = pset([0.4, 0.1, 0.4, 0.02], seed=5)
        first = ps.sorted_p()
        assert np.array_equal(ps.sorted_p(), first) and len(rank_calls) == 1
        assert list(ps.sorted_ids()) == [f"h{i}" for i in ps.order()]
        assert ps.ranks[1::2] == (2, 1) and sorted(ps.ranks) == [1, 2, 3, 4]
        assert not ps.order().flags.writeable
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
    """(rows, nfdr_trace) of lfdr_estimates, built one row at a time."""
    ids, ps, ranks = pvalue_tuples(pairs, seed)
    order = np.argsort(ranks)
    p_sorted = np.asarray(ps)[order]
    ids_sorted = tuple(ids[i] for i in order)
    raw_rows, capped_rows = _rank_estimates(
        p_sorted[None, :], kind, weight, mc_draws, (seed,), "monte_carlo"
    )
    raw, capped = raw_rows[0], capped_rows[0]
    monotone = [max(raw[: i + 1]) for i in range(len(raw))]
    if kind == "mle":
        w = None
    elif weight is None:
        w = 1.0 if kind == "corrected_median" else 0.5
    else:
        w = weight
    n = len(ps)
    trace = tuple(
        NfdrEstimate(float(v), kind, float(p_sorted[x - 1]), x, n, w, bool(c))
        for v, x, c in zip(raw, range(2, n + 1, 2), capped)
    )
    rows = tuple(
        LfdrRow(ids_sorted[i], float(p_sorted[i]), i + 1, float(raw[i]), float(monotone[i]))
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
            PValueSet.from_pairs(pairs, 5), kind, weight=weight, mc_draws=20, seed=5
        )
        rows, trace = per_row_result(pairs, 5, kind, weight, 20)
        assert res.rows == rows
        assert res.nfdr_trace == trace
        assert res.raw().tolist() == [r.raw_estimate for r in rows]
        assert res.monotone().tolist() == [r.monotone_estimate for r in rows]


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
        other = lfdr_estimates(PValueSet.from_pairs(shuffled_pairs, 0), "mle")
        by_id_base = {r.id: r.monotone_estimate for r in base.rows}
        by_id_other = {r.id: r.monotone_estimate for r in other.rows}
        assert by_id_base == by_id_other

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
            ps = pset(list(values), seed=trial)
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

    def test_estimate_is_the_mle_raw_estimate_at_the_median_rank(self):
        # N = 1, k* with 2m > N (estimate 1) and heavy ties are all included
        rng = np.random.default_rng(90210)
        sets = [[0.01], [0.001, 0.002], [0.001, 0.002, 0.003], [0.01] * 7 + [0.5] * 3]
        for trial in range(300):
            n = int(rng.integers(1, 60))
            if trial % 3 == 0:
                sets.append(list(rng.choice([1e-4, 1e-3, 0.01, 0.5], size=n)))
            else:
                sets.append(list(rng.beta(0.3, 4.0, n)))
        seen_past_half = 0
        for k, values in enumerate(sets):
            ps = pset(values, seed=k)
            for q in (0.05, 0.2, 0.6):
                link = bh_lfdr_link(ps, q)
                if not link.applicable:
                    continue
                m, n = link.median_rank, ps.n
                raw = lfdr_estimates(ps, "mle").raw()[m - 1]
                assert link.lfdr_at_median == raw  # bit for bit
                textbook = 1.0 if 2 * m > n else min(ps.sorted_p()[2 * m - 1] * n / (2 * m), 1.0)
                assert link.lfdr_at_median == textbook
                seen_past_half += 2 * m > n
        assert seen_past_half > 0


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
