import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from smallfdr import (
    BinomialParams,
    Chi2MixtureParams,
    binomial_pmf,
    binomial_sf,
    chi2_1df_sf,
    noncentral_chi2_1df_pdf,
    std_normal_cdf,
    student_t_sf,
)

from oracles import betainc_cf


class TestParams:
    def test_binomial_validation(self):
        with pytest.raises(ValueError):
            BinomialParams(0, 0.5)
        with pytest.raises(ValueError):
            BinomialParams(3, 1.2)
        with pytest.raises(ValueError):
            BinomialParams(3, -0.1)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            Chi2MixtureParams(1.2, 0.0)
        with pytest.raises(ValueError):
            Chi2MixtureParams(0.5, -1.0)
        for delta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="delta"):
                Chi2MixtureParams(0.5, delta)


class TestBinomial:
    def test_pmf_examples(self):
        assert binomial_pmf(BinomialParams(1, 0.5), 0) == pytest.approx(0.5, abs=1e-15)
        # direct enumeration of the 4 equally likely outcomes
        assert binomial_pmf(BinomialParams(2, 0.5), 1) == pytest.approx(0.5, abs=1e-15)
        assert binomial_pmf(BinomialParams(10, 0.0), 0) == pytest.approx(1.0, abs=1e-15)

    def test_sf_examples(self):
        assert binomial_sf(BinomialParams(2, 0.5), 1) == pytest.approx(0.25, abs=1e-15)
        assert binomial_sf(BinomialParams(5, 1.0), 4) == 1.0
        assert binomial_sf(BinomialParams(3, 0.5), 3) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_pmf(BinomialParams(3, 0.5), 4)
        with pytest.raises(ValueError):
            binomial_sf(BinomialParams(3, 0.5), -1)

    def test_pmf_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 201))
            p = float(rng.random())
            params = BinomialParams(n, p)
            total = sum(binomial_pmf(params, x) for x in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_sf_equals_brute_force_tail(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 120))
            p = float(rng.random())
            x = int(rng.integers(0, n + 1))
            params = BinomialParams(n, p)
            brute = sum(binomial_pmf(params, k) for k in range(x + 1, n + 1))
            assert binomial_sf(params, x) == pytest.approx(brute, abs=1e-10)

    def test_sf_monotone_in_prob(self):
        grid = np.linspace(0.0, 1.0, 21)
        for n, x in [(1, 0), (5, 2), (12, 0), (12, 11)]:
            values = [binomial_sf(BinomialParams(n, p), x) for p in grid]
            assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
            interior = [binomial_sf(BinomialParams(n, p), x) for p in grid[1:-1]]
            assert all(b > a for a, b in zip(interior, interior[1:]))

    def test_large_n_no_overflow(self):
        params = BinomialParams(10**6, 0.5)
        value = binomial_pmf(params, 500_000)
        assert 0.0 < value < 1.0
        assert math.isfinite(value)


class TestStdNormal:
    def test_symmetry_and_limits(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(math.inf) == 1.0
        assert std_normal_cdf(-math.inf) == 0.0

    def test_against_high_precision_erf(self):
        mpmath.mp.dps = 30
        for z in (-4.0, -1.0, -0.3, 0.7, 1.0, 2.5, 6.0):
            exact = float(0.5 * (1 + mpmath.erf(z / mpmath.sqrt(2))))
            assert abs(std_normal_cdf(z) - exact) <= 1e-12

    def test_reference_value(self):
        assert std_normal_cdf(1.0) == pytest.approx(0.841344746068543, abs=1e-12)


class TestChi2:
    def test_boundaries(self):
        assert chi2_1df_sf(0.0) == 1.0
        with pytest.raises(ValueError):
            chi2_1df_sf(-0.5)

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


class TestNoncentralChi2Pdf:
    def test_closed_form_at_origin_case(self):
        assert noncentral_chi2_1df_pdf(1.0, 0.0) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-14
        )

    def test_delta_zero_reduces_to_central(self):
        for t in np.linspace(0.05, 15.0, 30):
            assert noncentral_chi2_1df_pdf(float(t), 0.0) == pytest.approx(
                stats.chi2.pdf(t, df=1), rel=1e-10
            )

    def test_matches_scipy_noncentral(self):
        for t in (0.2, 1.0, 3.0, 8.0):
            for delta in (0.5, 2.0, 5.0):
                assert noncentral_chi2_1df_pdf(t, delta) == pytest.approx(
                    stats.ncx2.pdf(t, df=1, nc=delta), rel=1e-9
                )

    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, 5.0])
    def test_integrates_to_one(self, delta):
        total, _ = integrate.quad(
            lambda t: noncentral_chi2_1df_pdf(t, delta), 0.0, np.inf, limit=300
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            noncentral_chi2_1df_pdf(0.0, 1.0)
        with pytest.raises(ValueError):
            noncentral_chi2_1df_pdf(1.0, -0.1)


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
