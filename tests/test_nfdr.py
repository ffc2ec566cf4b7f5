import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from smallfdr import (
    ESTIMATOR_KINDS,
    BinomialParams,
    ConfidenceDistribution,
    MixtureTruth,
    PValueSet,
    binomial_pmf,
    corrected_nfdr,
    inverse_significance,
    lfdr_estimates,
    mean_nfdr,
    mle_nfdr,
    sample_parameter,
    true_nfdr,
)

from smallfdr.confidence import _quantile
from smallfdr.nfdr import _estimate
from smallfdr.simulate import exact_small_n_coverage

from oracles import mean_capped_ratio_mp, mean_exact_scalar, nfdr_scalar


class TestTrueNfdr:
    def test_examples(self):
        assert true_nfdr(MixtureTruth(1.0, 0.2, 0.2)) == pytest.approx(1.0)
        assert true_nfdr(MixtureTruth(0.0, 0.2, 0.4)) == 0.0
        assert true_nfdr(MixtureTruth(0.8, 0.05, 0.2)) == pytest.approx(0.2)

    def test_zero_marginal(self):
        with pytest.raises(ValueError):
            true_nfdr(MixtureTruth(0.0, 0.0, 0.0))

    def test_bayes_consistency_enforced(self):
        with pytest.raises(ValueError):
            MixtureTruth(0.9, 0.5, 0.1)


class TestMle:
    def test_examples(self):
        assert mle_nfdr(0.05, 2, 20).value == pytest.approx(0.5)
        est = mle_nfdr(0.2, 1, 10)
        assert est.value == 1.0 and est.capped
        est0 = mle_nfdr(0.05, 0, 5)
        assert est0.value == 1.0 and est0.capped

    def test_uncapped_flag(self):
        assert not mle_nfdr(0.01, 5, 20).value == 1.0
        assert not mle_nfdr(0.01, 5, 20).capped

    def test_validation(self):
        with pytest.raises(ValueError):
            mle_nfdr(1.5, 1, 2)
        with pytest.raises(ValueError):
            mle_nfdr(0.1, 3, 2)


class TestCorrected:
    def test_examples(self):
        assert corrected_nfdr(0.05, 1, 1).value == pytest.approx(0.1, abs=1e-10)
        assert corrected_nfdr(0.05, 0, 7).value == 1.0
        assert corrected_nfdr(0.05, 2, 2).value == pytest.approx(
            0.05 / 2 ** (-0.5), abs=1e-10
        )

    def test_x_zero_convention_depends_on_weight(self):
        # weight below 1/2 leaves the median defined even at x = 0
        est = corrected_nfdr(0.2, 0, 4, weight=0.2)
        scale = inverse_significance(ConfidenceDistribution(4, 0, 0.2), 0.5)
        assert est.value == pytest.approx(min(0.2 / scale, 1.0), abs=1e-9)
        assert corrected_nfdr(0.2, 0, 4, weight=0.5).value == 1.0
        assert corrected_nfdr(0.2, 0, 4, weight=1.0).value == 1.0

    def test_dominates_mle(self):
        # the median scale never exceeds x/N, so the corrected estimate can
        # only be larger; exhaustive over N <= 50
        for n in range(1, 51):
            for x in range(1, n + 1):
                scale = inverse_significance(ConfidenceDistribution(n, x, 1.0), 0.5)
                assert scale <= x / n + 1e-9
                for alpha in (0.01, 0.2, 0.7):
                    assert (
                        corrected_nfdr(alpha, x, n).value
                        >= mle_nfdr(alpha, x, n).value - 1e-12
                    )

    def test_median_conservatism_small_n_enumeration(self):
        # inline enumeration, independent of the simulation module's version
        for n in (1, 2, 3):
            for alpha in (0.01, 0.05, 0.1, 0.2, 0.3, 0.5):
                for pi in np.arange(alpha, 1.0 + 1e-9, 0.05):
                    pi = float(min(pi, 1.0))
                    bound = alpha / pi
                    params = BinomialParams(n, pi)
                    prob = sum(
                        binomial_pmf(params, x)
                        for x in range(n + 1)
                        if corrected_nfdr(alpha, x, n).value >= bound
                    )
                    assert prob >= 0.5 - 1e-12

    def test_half_guarantee_exact_enumeration_to_n_200(self):
        # With C = 1 the estimate min(alpha / median(x), 1) reaches the bound
        # alpha / pi exactly when median(x) <= pi, so the coverage is
        # Pr_pi(median(X) <= pi) and alpha drops out.  Between two medians it
        # falls as pi grows, so its infimum lies just below a median.
        def coverage(n, medians, pi):
            covered = medians[None, :] <= pi[:, None]
            pmf = stats.binom.pmf(np.arange(n + 1)[None, :], n, pi[:, None])
            return np.sum(pmf * covered, axis=1)

        for n in range(1, 6):
            medians = _quantile(n, np.arange(n + 1), 1.0, 0.5)
            for alpha, pi in ((0.05, 0.3), (0.2, 0.5), (0.5, 0.9)):
                assert coverage(n, medians, np.array([pi]))[0] == pytest.approx(
                    exact_small_n_coverage(n, alpha, pi, "corrected_median"), abs=1e-12
                )
        for n in range(1, 201):
            medians = _quantile(n, np.arange(n + 1), 1.0, 0.5)
            pi = np.concatenate(
                [np.linspace(0.0, 1.0, 101), medians, np.nextafter(medians, 0.0)]
            )
            # the bisection median is within about 2**-41 of the exact one and
            # the coverage changes by at most n per unit of pi
            assert coverage(n, medians, pi).min() >= 0.5 - n * 2.0**-40


class TestMean:
    def test_analytic_uniform_case(self):
        # x = 1, N = 1, C = 1 makes the parameter uniform, and
        # int_0^1 min(a/u, 1) du = a * (1 - log a)
        est = mean_nfdr(0.05, 1, 1, weight=1.0, method="quadrature")
        assert est.value == pytest.approx(0.05 * (1 - math.log(0.05)), abs=1e-6)

    def test_alpha_one_is_one(self):
        for x, n in [(0, 3), (2, 5), (5, 5)]:
            assert mean_nfdr(1.0, x, n, method="quadrature").value == pytest.approx(1.0)
            assert mean_nfdr(1.0, x, n, draws=50, seed=3).value == pytest.approx(1.0)

    def test_x_zero_full_weight_atom(self):
        # all confidence mass sits at pi = 0, every draw is capped
        assert mean_nfdr(0.3, 0, 4, weight=1.0, method="quadrature").value == 1.0
        assert mean_nfdr(0.3, 0, 4, weight=1.0, draws=20, seed=1).value == 1.0

    def test_monte_carlo_matches_quadrature(self):
        for alpha, x, n, c in [(0.05, 1, 1, 1.0), (0.1, 3, 8, 0.5), (0.4, 2, 4, 0.5)]:
            quad = mean_nfdr(alpha, x, n, weight=c, method="quadrature").value
            cd = ConfidenceDistribution(n, x, c)
            draws = sample_parameter(cd, 10_000, 17)
            per_draw = np.minimum(
                np.divide(alpha, draws, out=np.full(draws.shape, np.inf), where=draws > 0),
                1.0,
            )
            mc = mean_nfdr(alpha, x, n, weight=c, draws=10_000, seed=17).value
            assert mc == pytest.approx(float(per_draw.mean()), abs=1e-12)
            se = float(per_draw.std(ddof=1)) / math.sqrt(len(per_draw))
            assert abs(mc - quad) <= 3 * se + 1e-12

    def test_quadrature_matches_mpmath_oracle(self):
        for n in range(1, 21):
            for x in range(n + 1):
                for c in (0.0, 0.3, 0.5, 1.0):
                    for alpha in (1e-4, 0.05, 0.5, 1.0):
                        got = mean_nfdr(alpha, x, n, weight=c, method="quadrature").value
                        want = mean_capped_ratio_mp(alpha, x, n, c)
                        assert abs(got - want) <= 1e-12, (n, x, c, alpha)

    def test_quadrature_deterministic(self):
        a = mean_nfdr(0.07, 3, 9, method="quadrature").value
        b = mean_nfdr(0.07, 3, 9, method="quadrature").value
        assert a == b

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 30))
            x = int(rng.integers(0, n + 1))
            alpha = float(rng.random())
            c = float(rng.random())
            v = mean_nfdr(alpha, x, n, weight=c, draws=50, seed=int(rng.integers(1e6))).value
            assert 0.0 <= v <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_nfdr(0.1, 1, 2, method="bogus")
        with pytest.raises(ValueError):
            mean_nfdr(0.1, 1, 2, draws=0)


class TestLargeNConservatism:
    def test_all_kinds_exceed_true_ratio(self):
        # estimates built from x ~ Binomial(N, Pi) should clear pi0 * alpha / Pi
        # almost always once N is large; pi0 stays away from the feasibility
        # cap (1 - Pi) / (1 - alpha), where the separation shrinks to O(1/sqrt(N))
        n = 10_000
        rng = np.random.default_rng(777)
        for alpha, pi in [(0.05, 0.3), (0.2, 0.8)]:
            xs = rng.binomial(n, pi, 300)
            for pi0 in (0.5, 0.75, 0.9):
                target = pi0 * alpha / pi
                for kind in ("mle", "corrected_median", "posterior_mean"):
                    cache = {}
                    hits = 0
                    for x in xs:
                        x = int(x)
                        if x not in cache:
                            if kind == "mle":
                                cache[x] = mle_nfdr(alpha, x, n).value
                            elif kind == "corrected_median":
                                cache[x] = corrected_nfdr(alpha, x, n).value
                            else:
                                cache[x] = mean_nfdr(alpha, x, n, draws=100, seed=x).value
                        hits += cache[x] >= target
                    assert hits / len(xs) > 0.99, (alpha, pi, pi0, kind)


WEIGHTS = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.floats(0.0, 1.0))
UNIT = st.floats(0.0, 1.0)


@st.composite
def one_count_cases(draw):
    """N <= 60, discovery counts that always include 0, 1 and N, levels that
    always include 0 and 1, and a tail weight."""
    n = draw(st.integers(1, 60))
    xs = sorted({0, 1, n} | set(draw(st.lists(st.integers(0, n), max_size=6))))
    alphas = [0.0, 1.0] + draw(st.lists(UNIT, min_size=1, max_size=3))
    return n, np.array(xs), np.array(alphas), draw(WEIGHTS)


def scalar_estimate(kind, alpha, x, n, weight):
    if kind == "mle":
        return mle_nfdr(alpha, x, n)
    if kind == "corrected_median":
        return corrected_nfdr(alpha, x, n, weight)
    return mean_nfdr(alpha, x, n, weight, method="quadrature")


class TestKernelsMatchScalarReferences:
    """The array kernels give the scalar API's and the references' bits."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 60), weight=WEIGHTS, alphas=st.lists(UNIT, max_size=3))
    def test_mean_quadrature_equals_scalar_form(self, n, weight, alphas):
        for alpha in [0.0, 1.0] + alphas:
            for x in range(n + 1):
                est = mean_nfdr(alpha, x, n, weight, method="quadrature")
                want = mean_exact_scalar(alpha, x, n, weight)
                assert est.value == want, (alpha, x, n, weight)
                assert est.capped == (want >= 1.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=one_count_cases())
    def test_arrays_equal_scalar_calls(self, case):
        n, xs, alphas, weight = case
        for kind in ESTIMATOR_KINDS:
            w = None if kind == "mle" else weight
            values, capped = _estimate(kind, alphas[:, None], xs, n, w)
            assert values.shape == capped.shape == (alphas.size, xs.size)
            for i, alpha in enumerate(alphas.tolist()):
                for j, x in enumerate(xs.tolist()):
                    est = scalar_estimate(kind, alpha, x, n, w)
                    assert values[i, j] == est.value, (kind, alpha, x, n, w)
                    assert capped[i, j] == est.capped
                    assert est.value == nfdr_scalar(kind, alpha, x, n, w)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), UNIT), min_size=1, max_size=60),
        weight=WEIGHTS,
    )
    def test_lfdr_quadrature_equals_scalar_form(self, p, weight):
        n = len(p)
        pvals = PValueSet([f"h{i}" for i in range(n)], p)
        res = lfdr_estimates(pvals, "posterior_mean", weight=weight, mean_method="quadrature")
        want = [mean_exact_scalar(a, 2 * r, n, weight)
                for r, a in enumerate(res.p[1::2].tolist(), start=1)]
        assert res.raw()[: n // 2].tolist() == want
        assert res.capped.tolist() == [v >= 1.0 for v in want]

    def test_degenerate_medians_are_capped_at_one(self):
        # no median (x = N, C < 1/2) and the atom at 0 (x = 0, C > 1/2) give
        # 1, even at alpha = 0; x = 0 with C = 1/2 has a median just above 0
        for alpha in (0.0, 0.3):
            for x, c in ((4, 0.0), (4, 0.4), (0, 0.6), (0, 1.0)):
                est = corrected_nfdr(alpha, x, 4, c)
                assert est.value == 1.0 and est.capped, (alpha, x, c)
        assert corrected_nfdr(0.0, 0, 4, 0.5).value == 0.0
        assert corrected_nfdr(0.3, 0, 4, 0.5).value == 1.0
