import numpy as np
import pytest

from smallfdr import (
    PValueSet,
    SimulationConfig,
    bh_lfdr_link,
    bh_reject,
    enforce_monotonicity,
    lfdr_estimates,
    run_grid,
)

from oracles import textbook_bh


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

    def test_validation(self):
        with pytest.raises(ValueError):
            pset([])
        with pytest.raises(ValueError):
            pset([0.2, 1.4])
        with pytest.raises(ValueError):
            pset([float("nan")])


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

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            lfdr_estimates(pset([0.1]), "shrunk")

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
