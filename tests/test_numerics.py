import collections
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from hetdata import numerics, threshold
from hetdata.errors import (
    EvaluationError,
    HetdataError,
    InvalidInputError,
    NumericalRangeError,
    SolverError,
)
from hetdata.model import default_params
from hetdata.numerics import (
    log_tail_and_hazard,
    make_stream,
    portfolio_moment,
    solve_bracketed,
)
from domain import validated_params
from oracle import mp_hazard, mp_log_ndtr, mp_moment, mp_pdf, mp_sf

STD = (0.0, 1.0)  # the standard normal's (mean, std)


class TestGaussianSpec:
    """A Gaussian law is the floats (mean, std).  The model passes each
    sigma as the std of the law with variance sigma * sigma: that is
    sqrt(sigma * sigma) bit for bit whenever sigma * sigma is a normal
    float, the range validate holds every sigma to."""

    @pytest.mark.parametrize("variance", [1e-300, 0.04, 1.0, 2.0, 3.0, 1e300])
    def test_std_is_sqrt_of_variance_bitwise(self, variance):
        s = math.sqrt(variance)
        assert math.sqrt(s * s).hex() == s.hex()

    def test_bad_variance_rejected(self):
        for std in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidInputError, match="std must be > 0"):
                numerics.log_normal_sf(0.0, 0.0, std)


class TestHazard:
    """numerics.log_tail_and_hazard, the one statement of the normal hazard:
    the solve's slope and verify's criterion-4 check both read it."""

    def test_value_at_zero(self):
        log_tail, h = log_tail_and_hazard(0.0)
        assert log_tail == math.log(0.5)
        assert h == pytest.approx(mp_pdf(0.0) / 0.5, rel=1e-13)

    def test_value_at_one(self):
        expected = mp_pdf(1.0) / mp_sf(1.0)
        assert log_tail_and_hazard(1.0)[1] == pytest.approx(expected, rel=1e-13)

    def test_location_scale_identity(self):
        # log P(X > x), X ~ N(mean, std^2), is the log tail at the
        # standardized point, bit for bit
        for x in (-2.0, 0.0, 1.3, 5.0):
            assert (numerics.log_normal_sf(x, 0.7, 2.0)
                    == log_tail_and_hazard((x - 0.7) / 2.0)[0])

    def test_strictly_increasing_on_wide_grid(self):
        grid = np.linspace(-5.0, 5.0, 501)
        values = [log_tail_and_hazard(float(z))[1] for z in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_deep_right_tail_no_blowup(self):
        # asymptotically h(z) ~ z; ratio must stay close
        h = log_tail_and_hazard(50.0)[1]
        assert 50.0 < h < 50.03

    def test_within_z_squared_eps_of_mpmath(self):
        # the exponent -z^2/2 - log sqrt(2 pi) - log tail carries rounding of
        # about z^2 eps, which exp turns into relative error; the worst of
        # these points was 0.55 of the bound, at z = 37.3.  Below z = -37.6
        # the hazard, the pdf there, is no longer a normal float.
        rng = np.random.default_rng(20261022)
        for z in rng.uniform(-38.0, 38.0, 1500).tolist():
            exact = mp_hazard(z)
            if exact >= sys.float_info.min:
                h = mpmath.mpf(log_tail_and_hazard(z)[1])
                assert abs(h - exact) <= (2.0 * (1.0 + z * z)
                                          * sys.float_info.epsilon * exact)

    @pytest.mark.parametrize("var", [0.25, 1.0, 4.0])
    def test_verify_grid_within_64_eps(self, var):
        # verify's grid and its shift by var, standardized as its check
        # standardizes them: z reaches -8.5 at var 0.25; the worst was 51
        # eps, at z = 7.96
        grid = np.arange(-4.0, 4.0 + 1e-12, 0.01)
        std = math.sqrt(var)
        for x in np.concatenate([grid, grid - var]).tolist():
            z = x / std
            exact = mp_hazard(z)
            h = mpmath.mpf(log_tail_and_hazard(z)[1])
            assert abs(h - exact) <= 64.0 * sys.float_info.epsilon * exact

    def test_solver_slope_is_the_hazards_bitwise(self):
        # dF/dmu = -(h(z_hi) + h(-z_lo)) / s: the pdf is even, so the lower
        # tail's pdf/CDF at z_lo is the hazard at -z_lo
        for v in (0.0025, 0.25, 1.0, 4.0, 400.0):
            s = math.sqrt(v)
            for k in np.linspace(-8.0, 8.0, 33).tolist():
                mu = 0.5 * v + k * s
                z_hi, z_lo = (mu - v) / s, mu / s
                slope = -(log_tail_and_hazard(z_hi)[1]
                          + log_tail_and_hazard(-z_lo)[1]) / s
                assert threshold.log_ratio_and_slope(mu, v)[1] == slope

    def test_left_tail_is_the_pdf(self):
        for z in (-8.0, -20.0, -37.0):
            assert log_tail_and_hazard(z)[1] == pytest.approx(mp_pdf(z),
                                                              rel=1e-12)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError):
                numerics.log_normal_sf(bad, *STD)

    def test_overflowing_standardized_point_rejected(self):
        # finite x, but (x - mean) / std overflows to inf
        with pytest.raises(InvalidInputError):
            numerics.log_normal_sf(1e308, -1e308, 1.0)


def _kernel_points():
    """A seeded subsample of the accuracy grid (6,300 points in [-40, 40]
    and 300 in [-1000, -40], where the continued fraction runs), plus the
    ends of log_ndtr's branches."""
    rng = np.random.default_rng(20261018)
    edges = [0.0, -26.0 * math.sqrt(2.0)]
    edges += [math.nextafter(x, d) for x in edges for d in (-math.inf, math.inf)]
    return (rng.uniform(-40.0, 40.0, 1200).tolist()
            + rng.uniform(-1000.0, -40.0, 300).tolist() + edges)


class TestKernelAccuracy:
    """log_ndtr against an mpmath oracle, where the exact value is a normal
    float: the worst relative error is no larger than scipy.special's on
    the same points."""

    @staticmethod
    def _worst(kernel, points):
        worst = 0.0
        for x in points:
            exact = mp_log_ndtr(x)
            if sys.float_info.min <= abs(exact) <= sys.float_info.max:
                error = abs((mpmath.mpf(float(kernel(x))) - exact) / exact)
                worst = max(worst, float(error))
        return worst / sys.float_info.epsilon

    @pytest.mark.parametrize("name", ["log_ndtr"])
    def test_worst_error_within_scipy(self, name):
        points = _kernel_points()
        ours = self._worst(getattr(numerics, name), points)
        theirs = self._worst(getattr(special, name), points)
        assert ours <= theirs, (ours, theirs)

    def test_returns_python_floats(self):
        assert type(numerics.log_ndtr(0.5)) is float
        assert all(type(x) is float for x in log_tail_and_hazard(0.5))


@pytest.mark.parametrize("x", [14.0, 15.0, 20.0])
def test_oracle_sf_keeps_its_digits_in_the_right_tail(x):
    # 1 - ncdf(x) at 50 digits read 0.0 for 2.75e-89 at x = 20
    exact = mpmath.exp(mp_log_ndtr(-x))
    assert abs(mp_sf(x) - exact) <= 1e-14 * exact


class TestQuadrature:
    """The trapezoid rule on integrands whose moments are closed-form."""

    def test_weights_normalized(self):
        # theta = 0 makes every base 1, so the moment is the sum of the
        # weights h e^(-t^2/2) / sqrt(2 pi) over the window: 1 within the
        # rounding of up to 20,000 terms
        for sigma1 in (1e-3, 0.1, 0.5, 1.0, 3.0, 10.0):
            for gamma in (0.3, 2.0, 12.0, 60.0):
                assert abs(portfolio_moment(0.0, sigma1, gamma) - 1.0) <= 1e-15

    def test_mean_one_lognormal_construction(self):
        # at theta = 1 and gamma -> 0 the moment is E[e^eps] = 1: the shock's
        # mean -sigma1^2/2 is the one that makes it so
        for sigma1 in (0.1, 0.5, 1.0, 2.0, 3.0):
            moment = portfolio_moment(1.0, sigma1, 2.0 ** -60)
            assert abs(moment - 1.0) <= 1e-15

    def test_lognormal_moment_identity(self):
        # theta = 1: log E[e^((1-gamma) eps)] = gamma (gamma-1) sigma1^2 / 2,
        # and E[eps] = -sigma1^2/2 on the log branch; the log, which is what
        # the solve reads, as exp multiplies its argument's rounding; near 0,
        # within 1e-15, as log M is there M's rounding over M - 1
        for sigma1 in (0.1, 0.5, 1.2, 3.0):
            assert portfolio_moment(1.0, sigma1, 1.0) == pytest.approx(
                -0.5 * sigma1 * sigma1, rel=1e-14, abs=1e-15)
            for gamma in (0.3, 0.5, 2.0, 5.0, 12.0):
                exact = 0.5 * gamma * (gamma - 1.0) * sigma1 * sigma1
                assert math.log(portfolio_moment(1.0, sigma1, gamma)) == \
                    pytest.approx(exact, rel=1e-14, abs=1e-15)

    def test_non_finite_integrand_reported(self):
        # a non-finite gamma or sigma1 made the integrand non-finite at every
        # node; it is now refused as the argument it is
        for args, name in [((0.5, 0.5, math.nan), "gamma"),
                           ((0.5, 0.5, math.inf), "gamma"),
                           ((0.5, 0.5, -math.inf), "gamma"),
                           ((0.5, math.nan, 2.0), "sigma1"),
                           ((0.5, math.inf, 2.0), "sigma1"),
                           ((math.nan, 0.5, 2.0), "theta"),
                           ((math.inf, 0.5, 1.0), "theta")]:
            with pytest.raises(InvalidInputError,
                               match=f"^{name} must be finite, got"):
                portfolio_moment(*args)

    def test_raising_integrand_reported(self):
        # theta = 1 - 2^-53 leaves a base of 2^-53 on deep nodes, whose 29th
        # negative power overflows, as the moment itself does
        with pytest.raises(EvaluationError, match=(
                r"^portfolio moment at theta=0\.9999999999999999, "
                r"sigma_idio=3\.0, gamma=30\.0: OverflowError.* at t=-")):
            portfolio_moment.__wrapped__(1.0 - 2.0 ** -53, 3.0, 30.0)
        # at theta = 1 the base is e^eps, with no 1 - theta to cancel it to
        # 0.0: the lognormal closed forms, where the left-to-right base
        # theta e^eps + 1 - theta raised ZeroDivisionError and a math
        # domain error
        assert portfolio_moment.__wrapped__(1.0, 1.2, 5.0) == pytest.approx(
            math.exp(10.0 * 1.44), rel=1e-14)
        assert portfolio_moment.__wrapped__(1.0, 3.0, 1.0) == pytest.approx(
            -4.5, rel=1e-14)


class TestPortfolioMoment:
    def test_theta_zero_constant(self):
        assert portfolio_moment(0.0, 0.5, 2.0) == pytest.approx(1.0, abs=1e-13)

    def test_theta_one_lognormal(self):
        # E[e^((1-gamma) eps)] with eps ~ N(-sigma^2/2, sigma^2)
        assert portfolio_moment(1.0, 0.5, 2.0) == pytest.approx(
            math.exp(0.25), rel=1e-10
        )

    def test_log_branch_theta_one(self):
        assert portfolio_moment(1.0, 0.5, 1.0) == pytest.approx(-0.125, abs=1e-12)

    def test_gamma_to_one_continuity(self):
        log_branch = portfolio_moment(0.1, 0.5, 1.0)
        for gamma in (1.0 + 1e-4, 1.0 - 1e-4):
            transformed = (portfolio_moment(0.1, 0.5, gamma) - 1.0) / (1.0 - gamma)
            assert abs(transformed - log_branch) < 1e-6

    @pytest.mark.parametrize("gamma", [1.0, 2.0])  # log branch and power branch
    def test_returns_python_float(self, gamma):
        assert type(portfolio_moment(0.1, 0.5, gamma)) is float
        assert type(portfolio_moment.__wrapped__(0.1, 0.5, gamma)) is float

    def test_domain_checks(self):
        with pytest.raises(InvalidInputError):
            portfolio_moment(-0.1, 0.5, 2.0)
        for sigma1 in (0.0, 1e155):  # 1e155 squared overflows
            with pytest.raises(InvalidInputError, match="sigma1"):
                portfolio_moment(0.5, sigma1, 2.0)

    def test_unconverged_corner_raises_named_error(self):
        # the corner where the Gauss-Hermite doubling stopped unconverged at
        # order 320 now evaluates, with no warning; a moment past the float
        # range raises an error that names its inputs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = portfolio_moment.__wrapped__(0.9, 2.0, 8.0)
            assert value == pytest.approx(float(mp_moment(0.9, 2.0, 8.0)),
                                          rel=1e-14)
            with pytest.raises(EvaluationError) as err:
                portfolio_moment(0.999, 3.0, 200.0)
        for text in ("theta=0.999", "sigma_idio=3.0", "gamma=200.0",
                     "OverflowError"):
            assert text in str(err.value)


class TestQuadratureCaches:
    GRID = [(theta, sigma1, gamma)
            for theta in (0.0, 0.1, 0.5, 1.0)
            for sigma1 in (0.1, 0.5, 1.0)
            for gamma in (0.5, 1.0, 2.0, 5.0)]

    def test_memo_bitwise_equals_uncached(self):
        for args in self.GRID:
            for _ in range(2):  # a miss, then a hit
                assert float(portfolio_moment(*args)).hex() == float(
                    portfolio_moment.__wrapped__(*args)).hex()

    # theta = 1 - 2^-53 and 0.999 at large gamma: the moment overflows, in
    # a term or, at gamma = 104, only in their sum; a window of more than
    # 100,000 points is refused
    FAILING = [((-0.1, 0.5, 2.0), InvalidInputError),
               ((0.999, 3.0, 200.0), EvaluationError),
               ((0.999, 3.0, 104.0), EvaluationError),
               ((1.0 - 2.0 ** -53, 3.0, 30.0), EvaluationError),
               ((0.5, 1e6, 3.0), NumericalRangeError)]

    def test_failed_call_leaves_no_entry(self):
        portfolio_moment.cache_clear()
        for args, error in self.FAILING:
            with pytest.raises(HetdataError) as err:
                portfolio_moment(*args)
            assert type(err.value) is error
        assert portfolio_moment.cache_info().currsize == 0


# the points of perfbench's quadrature corner probe
CORNER = tuple((theta, sigma, gamma) for gamma in (6.0, 7.0, 8.0)
               for theta in (0.8, 0.9, 0.95) for sigma in (1.2, 1.6, 2.0))


def moment_term(moment, gamma):
    """The term the threshold solve reads: log M / (1 - gamma), or M at
    gamma = 1; for a float or an mpf M."""
    log = math.log if type(moment) is float else mpmath.log
    return moment if gamma == 1.0 else log(moment) / (1.0 - gamma)


class TestMomentMatchesOracle:
    """The moment term is within 1e-13 of mpmath's quad, relative to max(1,
    |term|), on the census box, the corner and gamma in {30, 60}.  The term
    divides M's rounding by |1 - gamma|, which no float M escapes near
    gamma = 1, so the bound adds 8 ulps of M to it (M was within 3.4 ulps
    of the oracle in 200 seeded draws of gamma within 0.1 of 1)."""

    @given(st.one_of(
        validated_params().map(lambda p: (p.theta, p.sigma_idio, p.gamma)),
        st.tuples(st.floats(0.001, 0.999), st.floats(0.01, 3.0),
                  st.sampled_from([30.0, 60.0]))))
    @settings(max_examples=12, deadline=None)
    @example((0.5, 0.5, 30.0))
    @example((0.5, 0.5, 60.0))
    @example((0.999, 3.0, 60.0))
    def test_term_within_1e13_of_oracle(self, args):
        gamma = args[2]
        try:
            term = moment_term(portfolio_moment.__wrapped__(*args), gamma)
        except HetdataError:
            return
        exact = moment_term(mp_moment(*args), gamma)
        rounding = (0.0 if gamma == 1.0
                    else 8.0 * sys.float_info.epsilon / abs(1.0 - gamma))
        bound = 1e-13 * max(1.0, abs(exact)) + rounding
        assert abs(term - exact) <= bound, args

    @pytest.mark.parametrize("args", CORNER)
    def test_corner_within_1e13_of_oracle(self, args):
        term = moment_term(portfolio_moment.__wrapped__(*args), args[2])
        exact = moment_term(mp_moment(*args), args[2])
        assert abs(term - exact) <= 1e-13 * max(1.0, abs(exact))


def solve(f, df, lo, hi, tol):
    """solve_bracketed on (lo, hi) from the midpoint, where the caller
    evaluates f and f' once; returns the root."""
    x = 0.5 * (lo + hi)
    root, _, _, _ = solve_bracketed(lambda t: (f(t), df(t)), lo, hi,
                                    x, f(x), df(x), tol)
    return root


class TestSolveBracketed:
    def test_linear(self):
        assert solve(lambda x: x - 1.0, lambda x: 1.0, 0.0, 3.0, 1e-12) == \
            pytest.approx(1.0, abs=1e-12)

    def test_sqrt2(self):
        # from the midpoint 1, where f = -1 and f' = 2
        root, value, slope, steps = solve_bracketed(
            lambda x: (x * x - 2.0, 2.0 * x), 0.0, 2.0, 1.0, -1.0, 2.0, 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert value == root * root - 2.0 and steps > 0
        assert slope == 2.0 * root  # f' at the returned iterate

    # tanh is flat away from its root, so Newton steps from the start
    # overshoot the bracket and bisection must take over
    @given(st.floats(-3, 3), st.floats(0.1, 3))
    @settings(max_examples=100, deadline=None)
    def test_root_stays_in_bracket(self, center, width):
        lo, hi = center - width, center + 3.0 * width
        points = []

        def f(x):
            points.append(x)
            return math.tanh(x - center)

        root = solve(f, lambda x: 1.0 / math.cosh(x - center) ** 2,
                     lo, hi, 1e-10)
        assert all(lo < x < hi for x in points)
        assert lo < root < hi
        assert root == pytest.approx(center, abs=1e-9)

    def test_nan_raises_evaluation_error_naming_x(self):
        # NaN at the start (the midpoint 1.0), in f and in f'
        with pytest.raises(EvaluationError, match=r"NaN at x=1\.0$"):
            solve(lambda x: math.nan if x == 1.0 else x, lambda x: 1.0,
                  0.0, 2.0, 1e-12)
        with pytest.raises(EvaluationError, match=r"NaN at x=1\.0$"):
            solve(lambda x: x - 0.5, lambda x: math.nan, 0.0, 2.0, 1e-12)
        # NaN at the first iterate: the Newton step from 1.0 lands on 0.5
        with pytest.raises(EvaluationError, match=r"NaN at x=0\.5$"):
            solve(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5,
                  lambda x: 1.0, 0.0, 2.0, 1e-12)

    # the default, a log-utility set, and three wide ability spreads, whose
    # roots lie deep in the tails (a user measure below 1e-9)
    @pytest.mark.parametrize("overrides, deep", [
        ({}, 0),
        ({"gamma": 1.0, "theta": 0.9, "sigma_idio": 0.8}, 0),
        ({"sigma_mu": 12.0}, 1),
        ({"sigma_mu": 15.0, "tau": 0.01}, 1),
        ({"sigma_mu": 20.0, "gamma": 1.0, "theta": 0.9, "sigma_idio": 0.8}, 1),
    ])
    def test_solve_threshold_evaluates_each_end_once(self, monkeypatch,
                                                     overrides, deep):
        params = default_params(**overrides)
        evaluations, brackets = collections.Counter(), []
        real_slope, real_solve = (threshold.log_ratio_and_slope,
                                  threshold.solve_bracketed)

        def counting_slope(mu, v):
            evaluations[mu] += 1  # G calls it once per evaluation
            return real_slope(mu, v)

        def recording(fg, lo, hi, x, fx, slope, tol):
            brackets.append((lo, hi, x))
            return real_solve(fg, lo, hi, x, fx, slope, tol)

        monkeypatch.setattr(threshold, "log_ratio_and_slope", counting_slope)
        monkeypatch.setattr(threshold, "solve_bracketed", recording)
        sol = threshold.solve_threshold.__wrapped__(params.tau, params)
        (lo, hi, start), = brackets
        assert lo < sol.mu_k < hi == math.inf
        # the proven lower end and the closed-form start are never evaluated;
        # every upper end is an iterate, evaluated once, as is every other
        # point; the residual is G at the last one, not a further evaluation
        assert evaluations[lo] == 0 and evaluations[start] == 0
        assert set(evaluations.values()) == {1}
        # at most 6 evaluations, as test_threshold's mpmath check bounds them
        assert sum(evaluations.values()) == sol.iterations <= 6
        assert list(evaluations)[-1] == sol.mu_k
        assert abs(sol.residual) <= 1e-13
        assert (sol.m < 1e-9) == bool(deep)

    def test_no_convergence_raises_solver_error(self):
        # flat at its root, so Newton steps shrink by 8/9 each: 60 steps do
        # not reach 1e-14
        with pytest.raises(SolverError) as err:
            solve(lambda x: x ** 9, lambda x: 9.0 * x ** 8, -1.0, 2.0, 1e-14)
        assert type(err.value) is SolverError
        text = str(err.value)
        for part in ("[-1.0, ", "tolerance 1e-14", "60 iterations",
                     "last iterate x="):
            assert part in text

    def test_bad_arguments_rejected(self):
        fg = lambda x: (x, 1.0)  # noqa: E731
        with pytest.raises(InvalidInputError):
            solve_bracketed(fg, -1.0, 1.0, 0.5, 0.5, 1.0, 0.0)
        for x in (-1.0, 1.0, 2.0, math.nan):
            with pytest.raises(InvalidInputError):
                solve_bracketed(fg, -1.0, 1.0, x, x, 1.0, 1e-12)


class TestRandomStream:
    def test_determinism(self):
        a = make_stream(123, 4).standard_normal(1000)
        b = make_stream(123, 4).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_stream_independence(self):
        # streams 0 and 1 of 200 master seeds: z = corr sqrt(n - 1) is
        # N(0, 1) for independent streams, so sum z^2 is chi-square(200) and
        # sum z / sqrt(200) is N(0, 1); each is held to its two-sided band of
        # 0.05%, so the test raises a false alarm at most 0.1% of the time.
        # Against a constant correlation of 3/sqrt(n), which a 3-SE test of
        # one pair detects half the time, sum z / sqrt(200) has mean 42.4,
        # so the power is 1 to double precision.
        n, seeds, alarm = 100_000, 200, 0.00025
        z = np.array([
            np.corrcoef(make_stream(seed, 0).standard_normal(n),
                        make_stream(seed, 1).standard_normal(n))[0, 1]
            for seed in range(seeds)]) * math.sqrt(n - 1)
        chi2 = float(np.sum(z * z))
        assert special.chdtri(seeds, 1.0 - alarm) < chi2 < special.chdtri(
            seeds, alarm)
        assert abs(float(np.sum(z))) / math.sqrt(seeds) < special.ndtri(
            1.0 - alarm)

    def test_poisson_moment(self):
        n = 100_000
        counts = make_stream(11, 2).poisson(2.0, n)
        assert abs(float(np.mean(counts)) - 2.0) < 3.0 * math.sqrt(2.0 / n)

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidInputError):
            make_stream(1, -1)

    def test_negative_master_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="master seed"):
            make_stream(-1, 0)
