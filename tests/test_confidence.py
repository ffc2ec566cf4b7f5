import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from smallfdr import (
    ConfidenceDistribution,
    SignificanceRangeError,
    attainable_range,
    inverse_significance,
    one_sided_interval,
    sample_parameter,
    significance,
)
from smallfdr import _special, confidence
from smallfdr.confidence import _curve, _log_binomial_coef, _quantile, _range

import oracles
from oracles import quantile_mp


def brute_tail(n, pi, x, inclusive):
    start = x if inclusive else x + 1
    return sum(stats.binom.pmf(k, n, pi) for k in range(start, n + 1))


class TestSignificance:
    def test_examples(self):
        assert significance(ConfidenceDistribution(4, 4, 0.3), 1.0) == pytest.approx(0.3)
        assert significance(ConfidenceDistribution(6, 0, 0.7), 0.0) == pytest.approx(0.7)
        # 0.25 + 1 * 0.5 by enumeration of the N = 2 outcomes
        assert significance(ConfidenceDistribution(2, 1, 1.0), 0.5) == pytest.approx(0.75)

    def test_domain(self):
        with pytest.raises(ValueError):
            significance(ConfidenceDistribution(2, 1, 0.5), 1.5)
        with pytest.raises(ValueError):
            ConfidenceDistribution(2, 3, 0.5)
        with pytest.raises(ValueError):
            ConfidenceDistribution(2, 1, 1.5)

    def test_weight_endpoints_match_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            x = int(rng.integers(0, n + 1))
            pi = float(rng.random())
            at_one = significance(ConfidenceDistribution(n, x, 1.0), pi)
            at_zero = significance(ConfidenceDistribution(n, x, 0.0), pi)
            assert at_one == pytest.approx(brute_tail(n, pi, x, True), abs=1e-10)
            assert at_zero == pytest.approx(brute_tail(n, pi, x, False), abs=1e-10)

    def test_beta_mixture_identity(self):
        # S_C(pi; x) = (1-C) * BetaCDF(pi; x+1, N-x) + C * BetaCDF(pi; x, N-x+1),
        # an independent route through scipy's beta distribution
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            x = int(rng.integers(1, n))
            c = float(rng.random())
            pi = float(rng.random())
            expected = (1 - c) * stats.beta.cdf(pi, x + 1, n - x) + c * stats.beta.cdf(
                pi, x, n - x + 1
            )
            got = significance(ConfidenceDistribution(n, x, c), pi)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_matches_mpmath(self):
        # Within 1e-13 of the exact value, relative to it, wherever that
        # value is at least about 1e-48; below it the mass is the exp of a
        # log of size |ln F|, and the bound is 4 |ln F| epsilons.  Values
        # below the least normal float are left out.
        pis = [1e-300, 1e-100, 1e-20, 1e-6, 5e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-6]
        for n in (1, 2, 3, 5, 8, 13, 20, 32, 64, 128, 317, 1000):
            for x in sorted({0, 1, 2, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
                for c in (0.0, 0.3, 0.5, 1.0):
                    cd = ConfidenceDistribution(n, x, c)
                    for pi in pis:
                        want = oracles.significance_exact_mp(n, x, c, pi)
                        if want < _TINY:
                            continue
                        bound = max(1e-13, 2.0**-50 * float(-mpmath.log(want)))
                        assert abs(significance(cd, pi) - want) <= bound * want, (n, x, c, pi)
        # exact; with a log-gamma binomial coefficient it is 6.2e-13 off
        assert significance(ConfidenceDistribution(1000, 1, 0.5), 5e-4) == 0.2418556266746804

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="CHANGES.md:79 (FOUND): betainc gives 0 for a strict tail of about 7e-294, "
        "a normal float, where pi**(x + 1) underflows",
    )
    def test_tail_near_the_least_normal(self):
        n, x, pi = 503, 485, 0.21686928348852053
        want = oracles.significance_exact_mp(n, x, 0.0, pi)
        assert abs(significance(ConfidenceDistribution(n, x, 0.0), pi) - want) <= 1e-13 * want

    def test_nondecreasing_and_strict(self):
        grid = np.linspace(0.0, 1.0, 41)
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            x = int(rng.integers(0, n + 1))
            c = float(rng.random())
            cd = ConfidenceDistribution(n, x, c)
            vals = [significance(cd, p) for p in grid]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
            # strictly increasing iff (C < 1 and x < N) or (C > 0 and x >= 1);
            # only check where doubles have not saturated at the range ends
            if (c < 1.0 and x < n) or (c > 0.0 and x >= 1):
                lo, hi = attainable_range(cd)
                inner = [v for v in vals if lo + 1e-12 < v < hi - 1e-12]
                assert all(b > a for a, b in zip(inner, inner[1:]))

    def test_attainable_range_formula(self):
        for n, x, c in [(1, 0, 0.3), (5, 5, 0.8), (5, 2, 0.0), (4, 0, 1.0)]:
            lo, hi = attainable_range(ConfidenceDistribution(n, x, c))
            assert lo == (c if x == 0 else 0.0)
            assert hi == (1.0 if x < n else c)
            cd = ConfidenceDistribution(n, x, c)
            assert significance(cd, 0.0) == pytest.approx(lo, abs=1e-14)
            assert significance(cd, 1.0) == pytest.approx(hi, abs=1e-14)


class TestInverse:
    def test_closed_forms(self):
        # x = N, C = 1: S(pi) = pi**N, so the half point is 2**(-1/N)
        for n in (1, 2, 5, 17):
            got = inverse_significance(ConfidenceDistribution(n, n, 1.0), 0.5)
            assert got == pytest.approx(2.0 ** (-1.0 / n), abs=1e-11)
        assert inverse_significance(ConfidenceDistribution(1, 1, 1.0), 0.5) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            x = int(rng.integers(0, n + 1))
            c = float(rng.random())
            cd = ConfidenceDistribution(n, x, c)
            lo, hi = attainable_range(cd)
            if lo == hi:
                continue
            pi = float(rng.uniform(0.05, 0.95))
            s = significance(cd, pi)
            if not lo < s < hi:
                continue
            back = inverse_significance(cd, s)
            assert significance(cd, back) == pytest.approx(s, abs=1e-9)

    def test_constant_curves_return_their_atom(self):
        # x = 0 with C = 1 is the atom at 0, x = N with C = 0 the atom at 1,
        # whatever the level, including the one value the curve takes
        levels = np.array([0.0, 0.5, 1.0])
        assert np.array_equal(_quantile(8, 0, 1.0, levels), np.zeros(3))
        assert np.array_equal(_quantile(8, 8, 0.0, levels), np.ones(3))

    def test_range_errors(self):
        cd = ConfidenceDistribution(3, 3, 0.4)  # range [0, 0.4]
        with pytest.raises(SignificanceRangeError):
            inverse_significance(cd, 0.5)
        degenerate = ConfidenceDistribution(3, 0, 1.0)  # constant 1
        with pytest.raises(SignificanceRangeError):
            inverse_significance(degenerate, 0.5)


class TestOneSidedInterval:
    def test_examples(self):
        lo, hi = one_sided_interval(ConfidenceDistribution(1, 1, 0.5), 0.05, "lower_bounded")
        assert (lo, hi) == (pytest.approx(0.05, abs=1e-10), 1.0)
        lo, hi = one_sided_interval(ConfidenceDistribution(1, 0, 0.5), 0.05, "upper_bounded")
        assert (lo, hi) == (0.0, pytest.approx(0.95, abs=1e-10))

    def test_degenerate_endpoints(self):
        assert one_sided_interval(
            ConfidenceDistribution(4, 0, 0.5), 0.05, "lower_bounded"
        ) == (0.0, 1.0)
        assert one_sided_interval(
            ConfidenceDistribution(4, 4, 0.5), 0.05, "upper_bounded"
        ) == (0.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    def test_clopper_pearson_limits(self, alpha):
        # independent reference: the Beta quantiles of Clopper and Pearson (1934),
        # upper Beta(x + 1, N - x) at 1 - alpha and lower Beta(x, N - x + 1) at
        # alpha, with the trivial ends 1 at x = N and 0 at x = 0; the limits are
        # the midpoints of 2**-40 cells, so within 2**-41 of them
        for n in range(1, 61):
            xs = np.arange(n + 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                upper_want = np.where(xs == n, 1.0, stats.beta.ppf(1.0 - alpha, xs + 1, n - xs))
                lower_want = np.where(xs == 0, 0.0, stats.beta.ppf(alpha, xs, n - xs + 1))
            for x in xs.tolist():
                # the forced tail weight ignores cd.weight
                cd = ConfidenceDistribution(n, x, (0.0, 0.5, 1.0)[(n + x) % 3])
                lo_up, upper = one_sided_interval(cd, alpha, "upper_bounded")
                lower, hi_low = one_sided_interval(cd, alpha, "lower_bounded")
                assert (lo_up, hi_low) == (0.0, 1.0)
                assert abs(upper - upper_want[x]) <= 1e-12, (n, x, upper, upper_want[x])
                assert abs(lower - lower_want[x]) <= 1e-12, (n, x, lower, lower_want[x])
                assert upper == 1.0 or x < n
                assert lower == 0.0 or x > 0

    def test_bad_arguments(self):
        cd = ConfidenceDistribution(4, 2, 0.5)
        with pytest.raises(ValueError):
            one_sided_interval(cd, 0.0, "lower_bounded")
        with pytest.raises(ValueError):
            one_sided_interval(cd, 0.05, "two_sided")

    def test_monte_carlo_coverage_small(self):
        # reduced version of the coverage experiment; the full-size run lives
        # in the acceptance suite
        rng = np.random.default_rng(7)
        n, pi, alpha, reps = 10, 0.3, 0.05, 20_000
        draws = rng.binomial(n, pi, reps)
        upper = {x: one_sided_interval(ConfidenceDistribution(n, x, 0.5), alpha, "upper_bounded")[1] for x in range(n + 1)}
        lower = {x: one_sided_interval(ConfidenceDistribution(n, x, 0.5), alpha, "lower_bounded")[0] for x in range(n + 1)}
        slack = 3 * np.sqrt(alpha * (1 - alpha) / reps)
        assert np.mean([upper[int(x)] >= pi for x in draws]) >= 1 - alpha - slack
        assert np.mean([lower[int(x)] <= pi for x in draws]) >= 1 - alpha - slack

    def test_bracket_width_degenerates(self):
        # the gap between the two one-sided bounds shrinks roughly like
        # 1/sqrt(N); a factor-100 increase in N buys at least 10x
        def median_width(n, seed):
            rng = np.random.default_rng(seed)
            widths = []
            cache = {}
            for x in rng.binomial(n, 0.3, 200):
                x = int(x)
                if x not in cache:
                    cd = ConfidenceDistribution(n, x, 0.5)
                    up = one_sided_interval(cd, 0.05, "upper_bounded")[1]
                    lo = one_sided_interval(cd, 0.05, "lower_bounded")[0]
                    cache[x] = up - lo
                widths.append(cache[x])
            return float(np.median(widths))

        assert median_width(10_000, 5) < median_width(100, 5) / 10.0


class TestSampleParameter:
    def test_determinism(self):
        cd = ConfidenceDistribution(9, 4, 0.5)
        a = sample_parameter(cd, 1000, 42)
        b = sample_parameter(cd, 1000, 42)
        assert np.array_equal(a, b)
        c = sample_parameter(cd, 1000, 43)
        assert not np.array_equal(a, c)

    def test_uniform_special_case(self):
        # x = 1, N = 1, C = 1 gives S(pi) = pi, so draws are uniform
        draws = sample_parameter(ConfidenceDistribution(1, 1, 1.0), 100_000, 11)
        assert abs(draws.mean() - 0.5) < 0.005

    def test_empirical_cdf_matches_significance(self):
        cd = ConfidenceDistribution(7, 3, 0.5)
        draws = sample_parameter(cd, 100_000, 123)
        grid = np.linspace(0.01, 0.99, 99)
        sup = max(
            abs(float(np.mean(draws <= v)) - significance(cd, float(v))) for v in grid
        )
        assert sup < 0.01

    def test_boundary_atoms(self):
        # x = 0 puts mass C at pi = 0; x = N puts mass 1 - C at pi = 1
        at_zero = sample_parameter(ConfidenceDistribution(5, 0, 0.4), 50_000, 9)
        assert np.mean(at_zero == 0.0) == pytest.approx(0.4, abs=0.01)
        at_one = sample_parameter(ConfidenceDistribution(5, 5, 0.4), 50_000, 9)
        assert np.mean(at_one == 1.0) == pytest.approx(0.6, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_parameter(ConfidenceDistribution(2, 1, 0.5), 0, 1)


class TestQuantileBatching:
    @pytest.mark.parametrize("weight", [0.0, 0.3, 0.5, 1.0])
    def test_stacked_rows_equal_per_row_calls(self, weight):
        # every x from 0 to N, with u at 0, C/2, C, (1 + C)/2 and 1 (which put
        # x = 0 and x = N on their atoms) and random interior levels
        n = 6
        xs = np.arange(n + 1)
        levels = [0.0, weight / 2, weight, (1.0 + weight) / 2, 1.0]
        u = np.hstack(
            [np.tile(levels, (xs.size, 1)), np.random.default_rng(21).random((xs.size, 6))]
        )
        stacked = _quantile(n, xs[:, None], weight, u)
        for i, x in enumerate(xs):
            assert np.array_equal(stacked[i], _quantile(n, x, weight, u[i]))
            for j, level in enumerate(u[i]):
                assert stacked[i, j] == _quantile(n, x, weight, level)[0]
        assert np.all(stacked[0][u[0] < weight] == 0.0)
        assert np.all(stacked[n][u[n] > weight] == 1.0)


def _constant_curve(n, x, weight):
    return ((x == 0) & (weight == 1.0)) | ((x == n) & (weight == 0.0))


# The weights of the two contracts of the inverse: the bisection's bits for C
# in {0, 1} and the root itself for 0 < C < 1.
_BIT_WEIGHTS = st.sampled_from([0.0, 1.0])
_FRACTIONAL_WEIGHTS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _varying_curve(draw, weights):
    """(N, x, C) with N <= 200 and C drawn from ``weights``, whose curve is
    not constant."""
    n = draw(st.integers(1, 200))
    x = draw(st.integers(0, n))
    weight = draw(weights)
    assume(not _constant_curve(n, x, weight))
    return n, x, weight


def _curve_at_dyadic_point(data, level, n, x, weight):
    """The computed curve at an odd k / 2**level: for C in {0, 1} its root is
    a bisection midpoint whose comparison is a tie, decided only by
    evaluating there, so the curve takes the certificate's log-gamma
    binomial coefficient."""
    k = data.draw(st.integers(0, 2 ** (level - 1) - 1)) * 2 + 1
    x = np.array([float(x)])
    return _curve(n, x, weight, np.array([k / 2.0**level]), _log_binomial_coef(n, x))


def _edge_level_cases(weight, sample_x):
    """(N, x, u) for N from 1 to 1000: every x, or above N = 32 with
    ``sample_x`` both ends and a sample, each at the edge levels, four
    uniform levels and two down to 1e-15."""
    rng = np.random.default_rng(31)
    # at 5e-324, the least subnormal, the Beta quantile is nan
    edges = [0.0, 5e-324, 2.0**-53, 0.5, weight, 1.0 - 2.0**-53, 1.0]
    for n in (1, 2, 3, 5, 8, 13, 32, 100, 317, 1000):
        xs = np.arange(n + 1)
        if sample_x and n > 32:
            xs = np.unique(np.r_[0:2, n - 1 : n + 1, rng.integers(0, n + 1, 6)])
        u = np.hstack(
            [
                np.tile(edges, (xs.size, 1)),
                rng.random((xs.size, 4)),
                10.0 ** rng.uniform(-15, 0, (xs.size, 2)),
            ]
        )
        yield n, xs, u


def _relative_error(got, want):
    return np.abs(got - want) / np.where(want > 0.0, want, 1.0)


def _mp_roots(n, x, weight, u):
    """``quantile_mp`` over broadcast (x, u)."""
    x, u = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(u, dtype=float))
    return np.array(
        [quantile_mp(n, int(xi), weight, float(ui)) for xi, ui in zip(x.ravel(), u.ravel())]
    ).reshape(x.shape)


def _evaluated_points(monkeypatch):
    """Every pi at which the significance curve is evaluated, one array per
    call: ``_curve`` for C in {0, 1} and the Monte Carlo mean's screen,
    ``_log_excess`` for the 0 < C < 1 solve."""
    points = []
    curve, log_excess = confidence._curve, confidence._log_excess

    def counted(trials, x, weight, pi, *rest):
        points.append(np.array(pi))
        return curve(trials, x, weight, pi, *rest)

    def counted_excess(trials, x, weight, pi, *rest):
        points.append(np.array(pi))
        return log_excess(trials, x, weight, pi, *rest)

    monkeypatch.setattr(confidence, "_curve", counted)
    monkeypatch.setattr(confidence, "_log_excess", counted_excess)
    return points


_TINY = np.finfo(float).tiny


class TestQuantileMatchesBisection:
    """For C in {0, 1} the inverse is the plain 40-step bisection's midpoint,
    bit for bit, everywhere except on constant curves, which have no root.
    Every check of that contract lives here: its results, the evaluations
    its certificate takes and the margin the certificate rests on."""

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_every_x_and_edge_levels(self, weight):
        for n, xs, u in _edge_level_cases(weight, sample_x=False):
            got = _quantile(n, xs[:, None], weight, u)
            want = oracles.bisection_quantile(n, xs[:, None], weight, u)
            varies = ~_constant_curve(n, xs, weight)
            assert np.array_equal(got[varies], want[varies])

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_medians_up_to_large_n(self, weight):
        for n, step in ((10_000, 1), (100_000, 7)):
            xs = np.arange(0, n + 1, step)
            varies = ~_constant_curve(n, xs, weight)
            got = _quantile(n, xs, weight, 0.5)
            want = oracles.bisection_quantile(n, xs, weight, 0.5)
            assert np.array_equal(got[varies], want[varies])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_property_random_curves(self, data, u):
        n, x, weight = data.draw(_varying_curve(_BIT_WEIGHTS))
        u = np.asarray(u)
        got = _quantile(n, x, weight, u)
        assert np.array_equal(got, oracles.bisection_quantile(n, x, weight, u))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), level=st.integers(1, 40))
    def test_property_roots_on_dyadic_points(self, data, level):
        n, x, weight = data.draw(_varying_curve(_BIT_WEIGHTS))
        u = _curve_at_dyadic_point(data, level, n, x, weight)
        got = _quantile(n, x, weight, u)
        assert np.array_equal(got, oracles.bisection_quantile(n, x, weight, u))

    def test_exact_starts_run_no_newton(self, monkeypatch):
        # The Beta quantile is the root, so the curve is evaluated only at
        # the two bracket ends and at the few midpoints between them; at
        # this N one Halley evaluation per element would exceed 3.
        points = _evaluated_points(monkeypatch)
        u = np.random.default_rng(41).random(50)
        n = 20_000
        xs = np.unique(np.linspace(0, n, 60).astype(int))
        for weight, x in ((0.0, xs[xs < n]), (1.0, xs[xs > 0])):
            points.clear()
            got = _quantile(n, x[:, None], weight, u)
            assert sum(p.size for p in points) <= 3 * got.size
            assert np.array_equal(got, oracles.bisection_quantile(n, x[:, None], weight, u))

    def test_corrected_medians_take_few_evaluations(self, monkeypatch):
        # the medians of lfdr's corrected estimator, x = 2r, at N = 20 000
        points = _evaluated_points(monkeypatch)
        n = 20_000
        _quantile(n, 2 * np.arange(1, n // 2 + 1), 1.0, 0.5)
        assert sum(p.size for p in points) <= 3 * (n // 2)

    @pytest.mark.parametrize(
        "n, x, weight, u",
        # roots at the dyadic point 1/2: the symmetric medians, x = (N + 1)/2
        # with C = 1 and x = (N - 1)/2 with C = 0
        [(n, (n + 1) // 2, 1.0, 0.5) for n in (1, 3, 5, 7, 11, 19)]
        + [(n, (n - 1) // 2, 0.0, 0.5) for n in (1, 3, 5, 7, 11, 19)]
        # u = 0 at x > 0: the root is 0, where the density is 0 as well; no
        # midpoint compares below u (the bisection result is 2**-41)
        + [(8, 3, c, 0.0) for c in (0.0, 1.0)],
    )
    def test_roots_on_the_bisection_grid_are_certified(self, monkeypatch, n, x, weight, u):
        points = _evaluated_points(monkeypatch)
        got = _quantile(n, x, weight, u)
        assert sum(p.size for p in points) <= (3 if u == 0.0 else 12)
        assert np.array_equal(got, oracles.bisection_quantile(n, x, weight, u))

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_margin_covers_rounding(self, weight):
        # The bracket check needs the curve's rounding that varies with pi to
        # stay within half the margin; ask for a sixteenth, at roots of u
        # across the range and down to 1e-200 of either end, and 1e-9 below
        # them.  The binomial coefficient's rounding is shared by every pi of
        # one x (it scales the mass term and leaves the curve monotone), so
        # the curve and the reference both take the certificate's computed
        # log-gamma one.
        levels = np.array([1e-200, 1e-20, 0.01, 0.5, 1.0 - 1e-6])
        for n in (1, 2, 3, 5, 8, 13, 20, 32, 64, 128, 317, 1000, 2000):
            for x in sorted({0, 1, 2, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
                if _constant_curve(n, x, weight):
                    continue
                log_coef = float(_log_binomial_coef(n, x))
                xs = np.array([float(x)])
                low = weight if x == 0 else 0.0
                high = weight if x == n else 1.0
                u = low + (high - low) * levels
                u = u[(u > low) & (u < high)]
                roots = _quantile(n, x, weight, u)
                for level, root in zip(u, roots):
                    bound = confidence._margin(n, level) / 16
                    for pi in (root, root * (1 - 1e-9)):
                        if not 0.0 < pi < 1.0:
                            continue
                        want = oracles.significance_mp(n, x, weight, pi, log_coef)
                        got = _curve(n, xs, weight, np.array([pi]), log_coef)[0]
                        assert abs(got - want) <= bound * want, (n, x, weight, pi)


# At a subnormal u the result is within 1e-13 of the root, relative to it
# (measured worst 4.7e-14, at (N, x, C, u) = (2, 2, 0.3, 5e-324)), or within
# 1e-30 of it where the root rounds to 0 inside the range: a step whose end
# underflows gives 0 there (0 at every such u measured, N <= 100).
_SUBNORMAL_RELATIVE = 1e-13
_SUBNORMAL_ABSOLUTE = 1e-30


def _assert_root(n, x, weight, u, got):
    """``got`` is the mpmath root within 1e-14 of itself at normal u, and at
    subnormal u finite and within the subnormal bound of it; the atoms
    outside the range are exact."""
    want = _mp_roots(n, x, weight, u)
    low, high = _range(n, x, weight)
    underflows = (want == 0.0) & (u >= low) & (u <= high)
    normal = (u == 0.0) | (u >= _TINY)
    subnormal = np.where(underflows, _SUBNORMAL_ABSOLUTE, _SUBNORMAL_RELATIVE * want)
    bound = np.where(normal, 1e-14 * want, subnormal)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= bound), (n, x, weight, u)


class TestQuantileAccuracy:
    """For 0 < C < 1 the inverse is the root itself, to 1e-14 of its size."""

    @pytest.mark.parametrize("weight", [1e-9, 0.3, 0.5, 1.0 - 1e-9])
    def test_relative_error_over_every_x(self, weight):
        # every x for N <= 100 and both ends plus a sample of x above, each
        # with a uniform level, one down to 1e-300 of the bottom of the range
        # and one down to 2**-53 of its top
        rng = np.random.default_rng(71)
        for n in (1, 2, 3, 5, 8, 13, 32, 100, 317, 1000):
            xs = np.arange(n + 1)
            if n > 100:
                xs = np.unique(np.r_[0:6, n - 5 : n + 1, rng.integers(0, n + 1, 24)])
            low = np.where(xs == 0, weight, 0.0)[:, None]
            high = np.where(xs == n, weight, 1.0)[:, None]
            shares = np.hstack(
                [
                    rng.random((xs.size, 1)),
                    10.0 ** -rng.uniform(0, 300, (xs.size, 1)),
                    1.0 - 2.0 ** -rng.uniform(1, 53, (xs.size, 1)),
                ]
            )
            u = low + (high - low) * shares
            got = _quantile(n, xs[:, None], weight, u)
            want = _mp_roots(n, xs[:, None], weight, u)
            assert _relative_error(got, want).max() <= 1e-14, (n, weight)

    # 1e-9, 1e-3, 0.999 and 1 - 1e-9 sit next to the atoms of C, where a Beta
    # parameter of the normal start, C at x = N or 1 - C at x = 0, nears 0
    # and the mixture nears one of its components
    @pytest.mark.parametrize("weight", [1e-9, 1e-3, 0.3, 0.5, 0.999, 1.0 - 1e-9])
    def test_every_x_and_edge_levels(self, weight):
        # the mpmath roots cost milliseconds each: above N = 32 both ends and
        # a sample of x
        for n, xs, u in _edge_level_cases(weight, sample_x=True):
            _assert_root(n, xs[:, None], weight, u, _quantile(n, xs[:, None], weight, u))

    @pytest.mark.parametrize("weight", [0.3, 0.5])
    def test_medians_up_to_large_n(self, weight):
        # every x at N = 10**4 and every 7th at N = 10**5 is solved, finite
        # and warning-free; mpmath sums thousands of terms per root here, so
        # a sample of them is checked against it
        for n, step in ((10_000, 1), (100_000, 7)):
            xs = np.arange(0, n + 1, step)
            got = _quantile(n, xs, weight, 0.5)
            assert np.isfinite(got).all(), n
            pick = np.r_[0:3, n // 100, n // 3, n // 2, n - 1, n] // step
            want = _mp_roots(n, xs[pick], weight, 0.5)
            assert _relative_error(got[pick], want).max() <= 1e-14, n

    @pytest.mark.parametrize(
        "n, x, weight, u",
        # far lower tails, where a plain Halley loop in pi ran into its step
        # cap or the bisection's 2**-41 exceeded the root
        [(100, 50, 0.3, 1e-300), (1000, 1, 0.5, 1e-200), (2, 1, 0.5, 6.17e-14),
         (3, 2, 0.5, 6e-15), (317, 289, 1e-9, 1.6e-284), (13, 1, 1e-9, 1.4e-143),
         # betainc is off by 1e-7 here, its value 1.7e-256
         (1000, 966, 0.5, 2.962086482353518e-256)],
    )
    def test_far_tails(self, n, x, weight, u):
        got = _quantile(n, x, weight, u)
        assert _relative_error(got, quantile_mp(n, x, weight, u))[0] <= 1e-14

    @pytest.mark.parametrize(
        "n, x, weight, u",
        # the root of (13, 5, 1/2, 5e-324) is 6e-66; the bisection gave 2**-41
        [(13, 5, 0.5, 5e-324), (1000, 500, 0.5, 5e-324), (1000, 1, 1e-9, 1e-320),
         (3, 3, 0.3, 5e-324), (1, 1, 5e-324, 5e-324), (100, 50, 0.3, 1e-315)],
    )
    def test_subnormal_levels(self, n, x, weight, u):
        _assert_root(n, x, weight, np.array([u]), _quantile(n, x, weight, u))

    @pytest.mark.parametrize("weight", [5e-324, 2.2e-311, 1e-310])
    @pytest.mark.parametrize("n", [1, 5])
    def test_subnormal_weight_at_x_equal_n(self, n, weight):
        # at x = N a Beta parameter of the normal start is the weight itself,
        # whose digamma overflows; the closed form there needs no start.  At
        # u = C the root is 1 (the bisection gave 0.5000000000004547 at N = 1
        # and C = 5e-324, where C pi rounds to 0 below pi = 1/2).
        levels = np.array([0.0, weight / 2.0, weight])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _quantile(n, n, weight, levels)
            assert inverse_significance(ConfidenceDistribution(n, n, weight), 0.0) == got[0]
        assert got[0] == 0.0 and got[2] == 1.0
        want = _mp_roots(n, n, weight, levels)
        assert _relative_error(got, want).max() <= 1e-14

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_property_random_curves(self, data, u):
        n, x, weight = data.draw(_varying_curve(_FRACTIONAL_WEIGHTS))
        u = np.asarray(u)
        _assert_root(n, x, weight, u, _quantile(n, x, weight, u))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), level=st.integers(1, 40))
    def test_property_roots_on_dyadic_points(self, data, level):
        n, x, weight = data.draw(_varying_curve(_FRACTIONAL_WEIGHTS))
        u = _curve_at_dyadic_point(data, level, n, x, weight)
        _assert_root(n, x, weight, u, _quantile(n, x, weight, u))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
    def test_monotone_in_u_and_round_trip(self, data, u):
        n, x, weight = data.draw(_varying_curve(_FRACTIONAL_WEIGHTS))
        u = np.sort(np.asarray(u))
        got = _quantile(n, x, weight, u)
        # nondecreasing, up to the contract's relative error
        assert np.all(got[1:] >= got[:-1] * (1.0 - 2e-14))
        low, high = _range(n, x, weight)
        inside = (u > low) & (u < high) & (got > 0.0) & (got < 1.0)
        back = _curve(n, np.full(inside.sum(), float(x)), weight, got[inside])
        assert np.allclose(back, u[inside], rtol=1e-9, atol=1e-300)


class TestSolverWork:
    """Curve evaluations of the 0 < C < 1 solve; the C in {0, 1} bounds are
    in TestQuantileMatchesBisection."""

    def test_exact_starts_run_no_newton(self, monkeypatch):
        # the closed forms at x = 0 and x = N evaluate nothing
        points = _evaluated_points(monkeypatch)
        u = np.random.default_rng(41).random(50)
        n = 20_000
        for c in (0.3, 0.5):
            for x, levels in ((0, c + (1.0 - c) * u), (n, c * u)):
                points.clear()
                got = _quantile(n, x, c, levels)
                assert sum(p.size for p in points) == 0
                want = _mp_roots(n, x, c, levels[:5])
                assert _relative_error(got[:5], want).max() <= 1e-14

    def test_monte_carlo_draws_take_few_evaluations(self, monkeypatch):
        # lfdr's mean estimator: 100 draws for each x = 2r at N = 500, C = 1/2
        points = _evaluated_points(monkeypatch)
        n, draws = 500, 100
        u = np.random.default_rng(43).random((n // 2, draws))
        got = _quantile(n, 2 * np.arange(1, n // 2 + 1)[:, None], 0.5, u)
        assert sum(p.size for p in points) <= 3 * got.size

    def test_simulation_grid_draws_take_few_evaluations(self, monkeypatch):
        # the Monte Carlo draws of the default simulate grid: x = 2r for each
        # N, C = 1/2, 100 draws per x
        points = _evaluated_points(monkeypatch)
        total = 0
        for n in (2, 4, 8, 16, 32):
            u = np.random.default_rng(44).random((n // 2, 100))
            total += _quantile(n, 2 * np.arange(1, n // 2 + 1)[:, None], 0.5, u).size
        assert sum(p.size for p in points) <= 3 * total

    @pytest.mark.parametrize("weight", [0.3, 0.5])
    def test_large_n_medians_take_about_one_evaluation(self, monkeypatch, weight):
        # the medians of every x at N = 10**4: the skew-corrected start is
        # within one step of the root (about 1.05 evaluations; 1.97 from the
        # plain normal start)
        points = _evaluated_points(monkeypatch)
        n = 10_000
        got = _quantile(n, np.arange(n + 1), weight, 0.5)
        assert sum(p.size for p in points) <= 1.2 * got.size

    @pytest.mark.parametrize(
        "n, x, weight, u",
        # far tails, where a plain Halley loop in pi needed 100 steps and the
        # bisection certificate 30-50 evaluations
        [(100, 50, 0.3, 1e-300), (1000, 1, 0.5, 1e-200), (13, 5, 0.5, 5e-324),
         (3, 2, 0.5, 6e-15), (317, 289, 1e-9, 1.6e-284), (13, 1, 1e-9, 1.4e-143),
         (1000, 1, 1e-9, 1e-320), (50, 3, 0.5, 1.0 - 2.0**-52), (8, 0, 1.0 - 1e-9, 1.0 - 1e-9)],
    )
    def test_far_tails_take_few_evaluations(self, monkeypatch, n, x, weight, u):
        points = _evaluated_points(monkeypatch)
        _quantile(n, x, weight, u)
        assert sum(p.size for p in points) <= 4

    @pytest.mark.parametrize("n", [8, 32])
    def test_root_below_least_subnormal_is_zero(self, monkeypatch, n):
        # the root, about 2e-324 at N = 8, rounds to 0: the step from the
        # start underflows, and so does the one from the least subnormal
        points = _evaluated_points(monkeypatch)
        u = np.array([5e-324])
        got = _quantile(n, 1, 0.3, u)
        assert sum(p.size for p in points) <= 4
        assert got[0] == 0.0
        _assert_root(n, 1, 0.3, u, got)

    def test_fractional_weight_calls_no_beta_inverse(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("betaincinv called")

        # the module the kernels call through, which keeps what it fetched
        monkeypatch.setattr(_special, "betaincinv", refuse)
        u = np.random.default_rng(42).random((14, 6))
        for weight in (1e-9, 0.3, 0.5, 1.0 - 1e-9):
            got = _quantile(13, np.arange(14)[:, None], weight, u)
            want = _mp_roots(13, np.arange(14)[:, None], weight, u)
            assert _relative_error(got, want).max() <= 1e-14

    @pytest.mark.parametrize(
        "n, x, weight, u",
        # u = C at x = N (root 1) and at x = 0 (root 0): the closed forms
        # give them exactly
        [(n, n, c, c) for n in (1, 2, 8, 100) for c in (1e-9, 0.3, 0.5, 1.0 - 1e-9)]
        + [(n, 0, c, c) for n in (1, 2, 8, 100) for c in (1e-9, 0.3, 0.5)]
        # u = 0 at x > 0: the root is 0, where the density is 0 as well
        + [(8, 3, 0.5, 0.0), (8, 8, 0.5, 0.0)],
    )
    def test_exact_roots_take_no_evaluations(self, monkeypatch, n, x, weight, u):
        points = _evaluated_points(monkeypatch)
        got = _quantile(n, x, weight, u)
        assert sum(p.size for p in points) == 0
        assert got[0] == (1.0 if x == n and u == weight else 0.0)
