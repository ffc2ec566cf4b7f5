import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from smallfdr import (
    MetricsRow,
    PValueSet,
    SimulationConfig,
    exact_small_n_coverage,
    generate_dataset,
    lfdr_estimates,
    run_grid,
    true_lfdr,
)
from smallfdr.cli import _build_parser, _parse_grid
from smallfdr.lfdr import _tail_weight
from smallfdr.nfdr import _estimate

from oracles import coverage_fraction, nfdr_scalar


class TestGenerateDataset:
    def test_determinism(self):
        a = generate_dataset(0.8, 500, 2.0, seed=5)
        b = generate_dataset(0.8, 500, 2.0, seed=5)
        assert np.array_equal(a.statistics, b.statistics)
        assert np.array_equal(a.truth_labels, b.truth_labels)
        c = generate_dataset(0.8, 500, 2.0, seed=6)
        assert not np.array_equal(a.statistics, c.statistics)

    def test_pure_null_uniform_pvalues(self):
        ds = generate_dataset(1.0, 100_000, 2.0, seed=8)
        assert (ds.truth_labels == 0).all()
        d = stats.kstest(ds.p_values, "uniform").statistic
        assert d < 1.9495 / math.sqrt(100_000)

    def test_delta_zero_collapse(self):
        # pi0 = 0 with delta = 0 is still central chi-square(1)
        ds = generate_dataset(0.0, 50_000, 0.0, seed=9)
        assert (ds.truth_labels == 1).all()
        d = stats.kstest(ds.statistics, lambda t: stats.chi2.cdf(t, df=1)).statistic
        assert d < 1.9495 / math.sqrt(50_000)

    def test_pvalues_match_statistics(self):
        ds = generate_dataset(0.7, 200, 2.0, seed=10)
        assert np.allclose(ds.p_values, stats.chi2.sf(ds.statistics, df=1), atol=1e-12)

    def test_alternative_component_is_noncentral(self):
        ds = generate_dataset(0.0, 50_000, 2.0, seed=12)
        d = stats.kstest(ds.statistics, lambda t: stats.ncx2.cdf(t, df=1, nc=2.0)).statistic
        assert d < 1.9495 / math.sqrt(50_000)


class TestTrueLfdr:
    def test_degenerate_mixtures(self):
        assert true_lfdr(0.3, 1.0, 2.0) == 1.0
        assert true_lfdr(0.3, 0.0, 2.0) == 0.0
        assert true_lfdr(0.3, 0.9, 0.0) == 0.9

    def test_p_zero_limit(self):
        assert true_lfdr(0.0, 0.9, 2.0) == 0.0

    def test_monotone_nondecreasing_in_p(self):
        grid = np.linspace(0.005, 1.0, 100)
        vals = [true_lfdr(float(p), 0.9, 2.0) for p in grid]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_matches_density_ratio_oracle(self):
        # independent route: invert p with scipy's chi2 ppf, then form the
        # posterior from scipy's central and noncentral densities
        pi0, delta = 0.85, 2.0
        for p in (0.001, 0.05, 0.3, 0.7, 0.999):
            t = stats.chi2.isf(p, df=1)
            f0 = stats.chi2.pdf(t, df=1)
            f1 = stats.ncx2.pdf(t, df=1, nc=delta)
            expect = pi0 * f0 / (pi0 * f0 + (1 - pi0) * f1)
            assert true_lfdr(p, pi0, delta) == pytest.approx(expect, rel=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            true_lfdr(1.5, 0.9, 2.0)

    def test_rejects_nan_in_an_array(self):
        with pytest.raises(ValueError, match="got nan"):
            true_lfdr(np.array([np.nan, 0.5]), 0.9, 2.0)

    def test_broadcasts_like_the_scalar(self):
        grid = np.array([[0.0, 0.001], [0.3, 1.0]])
        got = true_lfdr(grid, 0.85, 2.0)
        assert got.shape == grid.shape
        assert got.tolist() == [[true_lfdr(float(p), 0.85, 2.0) for p in row] for row in grid]
        assert isinstance(true_lfdr(0.3, 0.85, 2.0), float)


class TestRunGrid:
    def test_determinism_and_shape(self):
        cfg = SimulationConfig(
            pi0_grid=(0.5, 1.0), n_grid=(2, 8), replicates=10, seed=21
        )
        rows_a = run_grid(cfg)
        rows_b = run_grid(cfg)
        assert rows_a == rows_b
        assert len(rows_a) == 2 * 2 * 3
        assert all(isinstance(r, MetricsRow) for r in rows_a)

    def test_pure_null_cells(self):
        cfg = SimulationConfig(
            pi0_grid=(1.0,), n_grid=(4, 16), replicates=30, seed=22
        )
        for row in run_grid(cfg):
            # estimates cannot exceed the constant truth of 1
            assert row.bias <= 0.0
            assert row.bias <= 0.05
            assert 0.0 <= row.conservatism_proportion <= 1.0
            assert row.rmse >= abs(row.bias)

    # N = 1 estimates no rank, pi0 = 0 or 1 makes the truth constant, N = 32
    # is the default grid's largest, and delta = 2000 gives p = 0 to most false
    # nulls, so tie groups form
    @pytest.mark.parametrize(
        "pi0, n, delta",
        [(0.0, 1, 2.0), (1.0, 2, 2.0), (0.75, 6, 2.0), (0.9, 32, 2.0), (0.5, 16, 2000.0)],
        ids=["0.0-1", "1.0-2", "0.75-6", "0.9-32", "0.5-16-ties"],
    )
    @pytest.mark.parametrize("pooling", ["pooled", "per_replicate"])
    @pytest.mark.parametrize(
        "estimators",
        [("mle",), ("corrected_median",), ("posterior_mean",),
         ("corrected_median", "posterior_mean")],
        ids="+".join,
    )
    def test_replicate_streams_follow_documented_split(self, estimators, pooling, pi0, n, delta):
        # rebuild one cell by hand from the (seed, pi0-index, n-index,
        # replicate-index) splitting contract, the data and Monte Carlo streams
        # at children 0 and 2 of root.spawn(3), one lfdr_estimates call per
        # replicate and estimator, and match each row of the batched grid bit
        # for bit, whether or not the set draws Monte Carlo seeds
        reps, seed = 8, 33
        cfg = SimulationConfig(
            pi0_grid=(pi0,), n_grid=(n,), delta=delta, replicates=reps, seed=seed,
            estimators=estimators, mc_draws=40, pooling=pooling,
        )
        rows = run_grid(cfg)
        assert [row.estimator for row in rows] == list(estimators)
        replicates = []
        for rep in range(reps):
            root = np.random.SeedSequence([seed, 0, 0, rep])
            k_data, _, k_mc = root.spawn(3)
            ds = generate_dataset(pi0, n, delta, seed=k_data)
            pset = PValueSet.from_pairs((f"h{j}", float(p)) for j, p in enumerate(ds.p_values))
            truth = true_lfdr(ds.p_values, pi0, delta)[pset.order()]
            replicates.append((pset, truth, int(k_mc.generate_state(1)[0])))
        for row in rows:
            diffs = [
                lfdr_estimates(pset, row.estimator, mc_draws=40, seed=mc_seed).monotone()
                - truth
                for pset, truth, mc_seed in replicates
            ]
            if pooling == "pooled":
                pooled = np.concatenate(diffs)
                rmse = float(np.sqrt(np.mean(pooled**2)))
                bias = float(np.mean(pooled))
                conservatism = float(np.mean(pooled >= 0))
            else:
                rmse = float(np.mean([np.sqrt(np.mean(d**2)) for d in diffs]))
                bias = float(np.mean([np.mean(d) for d in diffs]))
                conservatism = float(np.mean([np.mean(d >= 0) for d in diffs]))
            assert (row.rmse, row.bias, row.conservatism_proportion) == (
                rmse, bias, conservatism
            )

    def test_per_replicate_pooling_mode(self):
        base = dict(pi0_grid=(0.5,), n_grid=(8,), replicates=12, seed=44)
        pooled = run_grid(SimulationConfig(**base))[0]
        per_rep = run_grid(SimulationConfig(**base, pooling="per_replicate"))[0]
        # same data, different aggregation; bias averages commute, rmse differs
        assert per_rep.bias == pytest.approx(pooled.bias, abs=1e-12)
        assert per_rep.rmse != pooled.rmse

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(pi0_grid=())
        with pytest.raises(ValueError):
            SimulationConfig(n_grid=(0,))
        with pytest.raises(ValueError, match="kind must be one of"):
            SimulationConfig(estimators=("bogus",))
        with pytest.raises(ValueError, match=r"^n_grid values must be distinct, got \(2, 4, 2\)"):
            SimulationConfig(n_grid=(2, 4, 2))
        with pytest.raises(ValueError, match="^pi0_grid values must be distinct"):
            SimulationConfig(pi0_grid=(0.5, 0.9, 0.5))
        with pytest.raises(ValueError):
            SimulationConfig(pooling="sometimes")
        with pytest.raises(ValueError, match=r"pi0 must lie in \[0, 1\], got 1.7"):
            SimulationConfig(pi0_grid=(0.5, 1.7))
        with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
            SimulationConfig(delta=-1.0)


class TestPearsonSkewness:
    def test_mixture_diagnostic_matches_exact_conditional(self):
        # Pearson's skewness 3 (mean - median) / sd of the oracle LFDR given
        # p <= alpha under the mixture;
        # the exact conditional moments come from an independent quadrature
        # route (note the value is decisively negative at these parameters)
        pi0, delta, alpha = 0.9, 2.0, 0.1

        def tail_alt(p):
            t = stats.chi2.isf(p, df=1)
            rt, rd = math.sqrt(t), math.sqrt(delta)
            return stats.norm.sf(rt - rd) + stats.norm.sf(rt + rd)

        def phi(p):
            t = stats.chi2.isf(p, df=1)
            f0 = stats.chi2.pdf(t, df=1)
            f1 = stats.ncx2.pdf(t, df=1, nc=delta)
            return pi0 * f0 / (pi0 * f0 + (1 - pi0) * f1)

        mass = pi0 * alpha + (1 - pi0) * tail_alt(alpha)
        exact_mean = pi0 * alpha / mass
        p_med = optimize.brentq(
            lambda p: pi0 * p + (1 - pi0) * tail_alt(p) - mass / 2, 1e-12, alpha
        )
        exact_median = phi(p_med)
        integral, _ = integrate.quad(phi, 0.0, alpha, limit=200)
        exact_sd = math.sqrt(pi0 * integral / mass - exact_mean**2)
        exact_skew = 3.0 * (exact_mean - exact_median) / exact_sd

        ds = generate_dataset(pi0, 400_000, delta, seed=100)
        conditional = true_lfdr(ds.p_values[ds.p_values <= alpha], pi0, delta)
        sd = conditional.std(ddof=1)
        observed = 3.0 * (conditional.mean() - np.median(conditional)) / sd
        assert observed == pytest.approx(exact_skew, abs=0.05)
        assert exact_skew < 0.0


def _default_coverage_grids():
    """The alpha and pi grids of ``coverage-exact`` when no flag sets them."""
    args = _build_parser().parse_args(["coverage-exact", "--n", "1"])
    return _parse_grid(args.alpha_grid, "--alpha-grid"), _parse_grid(args.pi_grid, "--pi-grid")


_CORRECTED_AT_HALF = pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="CHANGES.md:3 (FOUND): the package's Beta(2, 2) and Beta(5, 5) medians are the "
    "bisection midpoint 0.5000000000004547, so x = 2 of N = 3 and x = 5 of N = 9 miss the "
    "bound and coverage reads 0.5 where it is 0.875 and 0.74609375; mended by ROADMAP items "
    "1 (part A) and 2",
)


def _exact_coverage_cases():
    """(kind, trials, mpmath_only, keep) for every estimator at N = 1..7, 9 and 10,
    and at N = 50 for the package's estimates, the estimates from ``nfdr_scalar`` as it
    stands and from mpmath alone, and the plug-in at N = 1000; ``keep`` picks the pi of
    the grid.  From mpmath alone the corrected N = 3 and N = 9 cells at pi = 1/2 are a
    case of their own, a strict xfail."""
    for mpmath_only, prefix in ((False, ""), (True, "mpmath-")):
        for kind in ("mle", "corrected_median", "posterior_mean"):
            for trials in (1, 2, 3, 4, 5, 6, 7, 9, 10) + (() if mpmath_only else (50,)):
                case, name = (kind, trials, mpmath_only), f"{prefix}{kind}-{trials}"
                if mpmath_only and kind == "corrected_median" and trials in (3, 9):
                    yield pytest.param(*case, lambda pi: pi != 0.5, id=f"{name}-pi!=0.5")
                    yield pytest.param(
                        *case, lambda pi: pi == 0.5, id=f"{name}-pi=0.5",
                        marks=_CORRECTED_AT_HALF,
                    )
                else:
                    yield pytest.param(*case, lambda pi: True, id=name)
    # 15 cells, so that the exact sums at N = 1000 stay quick
    yield pytest.param("mle", 1000, False, lambda pi: pi in (0.1, 0.5, 0.9), id="mle-1000")


class TestExactCoverage:
    def test_mle_examples(self):
        assert exact_small_n_coverage(1, 0.05, 0.8, "mle") == pytest.approx(0.2, abs=1e-12)
        assert exact_small_n_coverage(1, 0.05, 1.0, "mle") == pytest.approx(1.0, abs=1e-12)

    def test_corrected_example(self):
        assert exact_small_n_coverage(1, 0.05, 0.8, "corrected_median") == pytest.approx(
            1.0, abs=1e-12
        )

    def test_mle_anticonservative_points_exist(self):
        assert exact_small_n_coverage(1, 0.05, 0.8, "mle") < 0.5
        assert exact_small_n_coverage(2, 0.05, 0.8, "mle") < 0.5

    def test_mean_kind_deterministic(self):
        a = exact_small_n_coverage(3, 0.1, 0.5, "posterior_mean")
        b = exact_small_n_coverage(3, 0.1, 0.5, "posterior_mean")
        assert a == b and 0.0 <= a <= 1.0

    def test_hand_enumeration_n2(self):
        # N = 2, alpha = 0.05, pi = 0.8: only x in {0, 1} reach the bound
        expect = 0.2**2 + 2 * 0.8 * 0.2
        got = exact_small_n_coverage(2, 0.05, 0.8, "mle")
        assert got == pytest.approx(expect, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="trials"):
            exact_small_n_coverage(0, 0.05, 0.5, "mle")
        with pytest.raises(ValueError):
            exact_small_n_coverage(2, 0.2, 0.1, "mle")
        with pytest.raises(ValueError, match="weight"):
            exact_small_n_coverage(2, 0.2, 0.5, "corrected_median", 1.5)
        with pytest.raises(ValueError, match="kind"):
            exact_small_n_coverage(2, 0.2, 0.5, "median")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_levels_rejected(self, bad):
        cases = [
            (bad, 0.5, "alpha"),
            (0.1, bad, "pi"),
            (np.array([0.1, bad]), 0.5, "alpha"),
            (0.1, np.array([0.5, bad, 0.9]), "pi"),
            (np.array([[0.1], [bad]]), np.array([0.5, 0.6]), "alpha"),
        ]
        for alpha, pi, name in cases:
            for kind in ("mle", "corrected_median", "posterior_mean"):
                with pytest.raises(ValueError, match=name):
                    exact_small_n_coverage(3, alpha, pi, kind)

    def test_scalars_give_float_arrays_give_arrays(self):
        assert type(exact_small_n_coverage(2, 0.05, 0.8, "mle")) is float
        grid = exact_small_n_coverage(
            3, np.array([[0.05], [0.1], [0.3]]), np.array([0.5, 0.6, 0.9, 1.0]), "mle"
        )
        assert grid.shape == (3, 4)
        assert grid[1, 2] == exact_small_n_coverage(3, 0.1, 0.9, "mle")
        assert exact_small_n_coverage(3, np.array([]), 0.5, "mle").shape == (0,)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        trials=st.integers(1, 40),
        cells=st.lists(
            st.tuples(
                st.one_of(st.just(1.0), st.floats(1e-6, 1.0)),
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=6,
        ),
        kind=st.sampled_from(["mle", "corrected_median", "posterior_mean"]),
        weight=st.one_of(st.none(), st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_arrays_equal_scalar_loop(self, trials, cells, kind, weight):
        # pi runs from alpha (t = 0) to 1 (t = 1)
        alpha = np.array([a for a, _ in cells])
        pi = np.array([min(a + (1.0 - a) * t, 1.0) for a, t in cells])
        got = exact_small_n_coverage(trials, alpha, pi, kind, weight)
        w = _tail_weight(kind, weight)
        for i, (a, p) in enumerate(zip(alpha.tolist(), pi.tolist())):
            assert got[i] == exact_small_n_coverage(trials, a, p, kind, weight)
            estimates = [nfdr_scalar(kind, a, x, trials, w) for x in range(trials + 1)]
            want = coverage_fraction(trials, a, p, estimates.__getitem__)
            assert got[i] == pytest.approx(want, rel=1e-13, abs=0.0), (trials, a, p, kind, weight)

    @pytest.mark.parametrize("kind, trials, mpmath_only, keep", _exact_coverage_cases())
    def test_masses_match_exact_rationals(self, kind, trials, mpmath_only, keep):
        # the default coverage-exact grids, with each count's binomial mass
        # built from math.comb in exact rationals instead of the kernel's one
        # incomplete beta per cell; with mpmath_only no estimate shares the
        # package's medians and means
        alphas, pis = _default_coverage_grids()
        w = _tail_weight(kind, None)
        for a in alphas:
            estimates = [
                nfdr_scalar(kind, a, x, trials, w, mpmath_only=mpmath_only)
                for x in range(trials + 1)
            ]
            for p in pis:
                if p < a or not keep(p):
                    continue
                want = coverage_fraction(trials, a, p, estimates.__getitem__)
                got = exact_small_n_coverage(trials, a, p, kind)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), (a, p)

    @pytest.mark.parametrize("trials", [10, 50, 100, 1000, 10**4, 10**5])
    def test_corrected_conservative_with_probability_half(self, trials):
        # the paper's guarantee for C = 1, exactly, on every default-grid cell
        alphas, pis = _default_coverage_grids()
        alpha, pi = np.repeat(alphas, len(pis)), np.tile(pis, len(alphas))
        defined = pi >= alpha
        coverage = exact_small_n_coverage(trials, alpha[defined], pi[defined], "corrected_median")
        assert coverage.min() >= 0.5

    @pytest.mark.parametrize(
        "trials, alpha, pi, kind, weight",
        [
            # the median is undefined at x = N for C < 1/2, which caps the estimate at
            # 1 there: x = 9 misses the bound and x = 10 reaches it
            (10, 0.05, 0.8, "corrected_median", 0.3),
            (10, 0.05, 0.05, "corrected_median", 0.3),
            # only x = N, whose mass 0.05**10 a lower tail near 1 would lose
            (10, 0.05, 0.05, "corrected_median", 0.0),
            (1000, 0.05, 0.3, "corrected_median", 0.3),
            (1000, 0.3, 0.999, "corrected_median", 0.0),
            # x = 0 and 1 fall short of the cap while x = 2..35 reach it
            # (ROADMAP item 15, cancellation in the mean)
            (1000, 0.1, 0.1, "posterior_mean", None),
        ],
    )
    def test_covered_counts_after_a_gap(self, trials, alpha, pi, kind, weight):
        # the covered x are not 0..K, and the kernel sums the covered set itself
        w = _tail_weight(kind, weight)
        estimate, _ = _estimate(kind, alpha, np.arange(trials + 1.0), trials, w)
        covered = estimate >= alpha / pi
        assert (covered[1:] > covered[:-1]).any()
        want = coverage_fraction(trials, alpha, pi, estimate.__getitem__)
        got = exact_small_n_coverage(trials, alpha, pi, kind, weight)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
