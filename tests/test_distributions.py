import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from smallfdr import (
    Chi2MixtureParams,
    ConfidenceDistribution,
    PValueSet,
    SimulationConfig,
    chi2_1df_sf,
    corrected_nfdr,
    exact_small_n_coverage,
    generate_dataset,
    lfdr_estimates,
    mean_nfdr,
    mle_nfdr,
    run_grid,
    sample_parameter,
    student_t_sf,
)

from smallfdr.confidence import _log_binomial_coef, _log_binomial_pmf

from oracles import betainc_cf


class TestParams:
    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            Chi2MixtureParams(1.2, 0.0)
        with pytest.raises(ValueError):
            Chi2MixtureParams(0.5, -1.0)
        for delta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="delta"):
                Chi2MixtureParams(0.5, delta)


_PVALUES = PValueSet(["a", "b", "c", "d"], [0.01, 0.2, 0.5, 0.7])

# every library entry point that takes a count, the count's name and a call
# that passes it a non-whole value v
COUNT_ENTRY_POINTS = {
    "student_t_sf": ("df", lambda v: student_t_sf(1.0, v)),
    "ConfidenceDistribution-trials": ("trials", lambda v: ConfidenceDistribution(v, 1, 0.5)),
    "ConfidenceDistribution-successes": (
        "successes", lambda v: ConfidenceDistribution(5, v, 0.5)
    ),
    "sample_parameter": (
        "n_draws", lambda v: sample_parameter(ConfidenceDistribution(5, 2, 0.5), v, 0)
    ),
    "sample_parameter-seed": (
        "seed", lambda v: sample_parameter(ConfidenceDistribution(5, 2, 0.5), 3, v)
    ),
    "mle_nfdr": ("trials", lambda v: mle_nfdr(0.1, 2, v)),
    "corrected_nfdr": ("x", lambda v: corrected_nfdr(0.1, v, 4)),
    "mean_nfdr-x": ("x", lambda v: mean_nfdr(0.1, v, 4)),
    "mean_nfdr-quadrature": ("x", lambda v: mean_nfdr(0.1, v, 4, method="quadrature")),
    "mean_nfdr-draws": ("draws", lambda v: mean_nfdr(0.1, 2, 4, draws=v)),
    "mean_nfdr-seed": ("seed", lambda v: mean_nfdr(0.1, 2, 4, seed=v)),
    "lfdr_estimates-mc_draws": (
        "mc_draws", lambda v: lfdr_estimates(_PVALUES, "posterior_mean", mc_draws=v)
    ),
    "lfdr_estimates-seed": (
        "seed", lambda v: lfdr_estimates(_PVALUES, "posterior_mean", seed=v)
    ),
    "generate_dataset": ("n", lambda v: generate_dataset(0.5, v, 2.0, 0)),
    "generate_dataset-seed": ("seed", lambda v: generate_dataset(0.5, 4, 2.0, v)),
    "exact_small_n_coverage": ("trials", lambda v: exact_small_n_coverage(v, 0.1, 0.5, "mle")),
    "SimulationConfig-n_grid": ("n_grid", lambda v: SimulationConfig(n_grid=(2, v))),
    "SimulationConfig-replicates": ("replicates", lambda v: SimulationConfig(replicates=v)),
    "SimulationConfig-seed": ("seed", lambda v: SimulationConfig(seed=v)),
    "SimulationConfig-mc_draws": ("mc_draws", lambda v: SimulationConfig(mc_draws=v)),
}


class TestCounts:
    @pytest.mark.parametrize("value", [2.5, math.nan])
    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
    def test_non_whole_count_names_the_parameter(self, entry, value):
        name, call = COUNT_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            call(value)

    @pytest.mark.parametrize(
        "entry", sorted(e for e, (name, _) in COUNT_ENTRY_POINTS.items() if "seed" in name)
    )
    def test_negative_seed_names_the_parameter(self, entry):
        name, call = COUNT_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be a whole number >= 0, got -1$"):
            call(-1)

    def test_seed_sequences_are_seeds(self):
        cd = ConfidenceDistribution(5, 2, 0.5)
        seq = np.random.SeedSequence([4, 1])
        assert np.array_equal(sample_parameter(cd, 3, seq), sample_parameter(cd, 3, seq))
        a, b = (generate_dataset(0.5, 4, 2.0, seq) for _ in range(2))
        assert np.array_equal(a.p_values, b.p_values)
        assert mean_nfdr(0.1, 2, 4, seed=seq) == mean_nfdr(0.1, 2, 4, seed=seq)
        assert np.array_equal(sample_parameter(cd, 3, 2.0), sample_parameter(cd, 3, np.int64(2)))

    def test_whole_floats_and_numpy_integers_are_counts(self):
        assert corrected_nfdr(0.1, 2.0, np.int64(5)) == corrected_nfdr(0.1, 2, 5)
        assert mle_nfdr(0.1, np.int32(2), 4.0) == mle_nfdr(0.1, 2, 4.0)
        assert mean_nfdr(0.1, 2.0, 4, draws=np.int64(7)).value == mean_nfdr(0.1, 2, 4, draws=7).value
        config = SimulationConfig(
            pi0_grid=(0.5,), n_grid=(2.0, np.int64(3)), replicates=2.0, seed=np.uint32(1),
            mc_draws=5.0,
        )
        assert (config.n_grid, config.replicates, config.seed, config.mc_draws) == ((2, 3), 2, 1, 5)
        assert all(type(v) is int for v in config.n_grid + (config.replicates, config.seed))
        ints = SimulationConfig(pi0_grid=(0.5,), n_grid=(2, 3), replicates=2, seed=1, mc_draws=5)
        assert run_grid(config) == run_grid(ints)


def _pmf(trials, x, p):
    """The package's log-space binomial mass, exponentiated."""
    return np.exp(_log_binomial_pmf(trials, x, p, _log_binomial_coef(trials, x)))


class TestBinomial:
    # the log-space mass behind the significance curve
    def test_pmf_examples(self):
        assert _pmf(1, 0, 0.5) == pytest.approx(0.5, abs=1e-15)
        # direct enumeration of the 4 equally likely outcomes
        assert _pmf(2, 1, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert _pmf(10, 0, 0.0) == 1.0
        assert _pmf(10, 10, 1.0) == 1.0

    def test_pmf_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 201))
            p = float(rng.random())
            assert _pmf(n, np.arange(n + 1), p).sum() == pytest.approx(1.0, abs=1e-10)

    def test_pmf_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 201))
            p = float(rng.random())
            xs = np.arange(n + 1)
            want = stats.binom.pmf(xs, n, p)
            assert np.allclose(_pmf(n, xs, p), want, rtol=1e-11, atol=1e-300)

    def test_large_n_no_overflow(self):
        value = float(_pmf(10**6, 500_000, 0.5))
        assert 0.0 < value < 1.0
        assert value == pytest.approx(stats.binom.pmf(500_000, 10**6, 0.5), rel=1e-9)


class TestChi2:
    def test_boundaries(self):
        assert chi2_1df_sf(0.0) == 1.0
        with pytest.raises(ValueError):
            chi2_1df_sf(-0.5)

    def test_broadcasts_and_rejects_nan(self):
        t = np.array([0.0, 0.5, 3.0, np.inf])
        assert chi2_1df_sf(t).tolist() == [chi2_1df_sf(float(v)) for v in t]
        assert isinstance(chi2_1df_sf(0.5), float)
        with pytest.raises(ValueError, match="got nan"):
            chi2_1df_sf(np.array([1.0, np.nan]))

    def test_quantile(self):
        # 0.95 quantile of the chi-square distribution with 1 df
        assert chi2_1df_sf(3.841458820694124) == pytest.approx(0.05, abs=1e-12)

    def test_strictly_decreasing(self):
        ts = np.linspace(0.0, 12.0, 40)
        vals = [chi2_1df_sf(float(t)) for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_matches_scipy_gamma_route(self):
        for t in (0.01, 0.5, 1.0, 3.0, 10.0, 30.0):
            assert chi2_1df_sf(t) == pytest.approx(stats.chi2.sf(t, df=1), rel=1e-10)

    def test_null_pvalues_uniform(self):
        rng = np.random.default_rng(11)
        t = rng.standard_normal(100_000) ** 2
        p = np.array([chi2_1df_sf(float(v)) for v in t[:2000]])
        # quick scalar check plus the full vector via scipy for volume
        d = stats.kstest(stats.chi2.sf(t, df=1), "uniform").statistic
        assert d < 1.9495 / math.sqrt(100_000)
        assert stats.kstest(p, "uniform").statistic < 1.9495 / math.sqrt(2000)


class TestStudentT:
    def test_symmetry(self):
        for df in (1, 4, 30):
            assert student_t_sf(0.0, df) == 0.5
            for t in (0.2, 1.3, 4.0):
                assert student_t_sf(t, df) + student_t_sf(-t, df) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_against_continued_fraction_oracle(self):
        # independent incomplete-beta route, continued fraction with the
        # symmetry-point switch
        for t, df in [(1.2247, 4), (0.5, 7), (2.3, 2), (-1.7, 9)]:
            x = df / (df + t * t)
            oracle = 0.5 * betainc_cf(df / 2.0, 0.5, x)
            if t < 0:
                oracle = 1.0 - oracle
            assert student_t_sf(t, df) == pytest.approx(oracle, abs=1e-8)

    def test_against_mpmath(self):
        mpmath.mp.dps = 30
        for t, df in [(1.0, 3), (2.5, 10), (-0.8, 5)]:
            exact = float(
                1
                - mpmath.quad(
                    lambda u: mpmath.gamma((df + 1) / 2)
                    / (mpmath.sqrt(df * mpmath.pi) * mpmath.gamma(df / 2))
                    * (1 + u**2 / df) ** (-(df + 1) / 2),
                    [-mpmath.inf, t],
                )
            )
            assert student_t_sf(t, df) == pytest.approx(exact, abs=1e-10)

    def test_array_matches_scalar_calls(self):
        t = np.asarray([-40.0, -3.1, -0.7, -1e-9, 0.0, 1e-9, 0.4, 2.2, 9.0, 1e3])
        for df in (1, 4, 15):
            values = student_t_sf(t, df)
            assert isinstance(values, np.ndarray) and values.shape == t.shape
            for ti, v in zip(t, values):
                assert student_t_sf(float(ti), df) == v
        assert type(student_t_sf(1.5, 3)) is float
        assert type(student_t_sf(np.float64(-1.5), 3)) is float

    def test_domain(self):
        with pytest.raises(ValueError):
            student_t_sf(1.0, 0)

    def test_rejects_nan(self):
        # as chi2_1df_sf does: infinite t are tails, nan is named
        assert student_t_sf(np.array([-np.inf, np.inf]), 3).tolist() == [1.0, 0.0]
        with pytest.raises(ValueError, match="got nan"):
            student_t_sf(np.nan, 3)
        with pytest.raises(ValueError, match="got nan"):
            student_t_sf(np.array([1.0, np.nan]), 3)
