import collections
import math
import sys
import warnings
from dataclasses import FrozenInstanceError, fields

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.optimize import brentq

from hetdata import numerics, threshold, wealth
from hetdata.errors import (
    BracketingError,
    ConvergenceError,
    EvaluationError,
    HetdataError,
    InvalidInputError,
    SolverError,
)
from hetdata.model import default_params
from hetdata.numerics import (
    GaussianSpec,
    expect_gauss_hermite,
    gauss_hermite_rule,
    hazard_rate,
    make_stream,
    normal_cdf,
    normal_pdf,
    portfolio_moment,
    solve_bracketed,
)

mpmath.mp.dps = 50
STD = GaussianSpec(0.0, 1.0)


def mp_pdf(x, mean=0.0, var=1.0):
    return float(mpmath.npdf(x, mean, mpmath.sqrt(var)))


def mp_cdf(x, mean=0.0, var=1.0):
    return float(mpmath.ncdf(x, mean, mpmath.sqrt(var)))


class TestGaussianSpec:
    @pytest.mark.parametrize("variance", [1e-300, 0.04, 1.0, 2.0, 3.0, 1e300])
    def test_std_is_sqrt_of_variance_bitwise(self, variance):
        spec = GaussianSpec(0.5, variance)
        assert spec.std.hex() == math.sqrt(variance).hex()

    def test_std_is_in_neither_repr_nor_equality(self):
        spec = GaussianSpec(0.5, 2.0)
        assert repr(spec) == "GaussianSpec(mean=0.5, variance=2.0)"
        other = GaussianSpec(0.5, 2.0)
        object.__setattr__(other, "std", 0.0)
        assert other == spec and hash(other) == hash(spec)
        assert [f.name for f in fields(spec) if f.compare] == ["mean", "variance"]

    def test_std_is_read_only(self):
        spec = GaussianSpec(0.5, 2.0)
        with pytest.raises(FrozenInstanceError):
            spec.std = 1.0
        with pytest.raises(TypeError):
            GaussianSpec(0.5, 2.0, 1.0)


class TestNormalKernels:
    def test_pdf_at_zero(self):
        assert normal_pdf(0.0, STD) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                     abs=1e-15)

    def test_pdf_mode_value(self):
        for mean, var in [(0.3, 2.0), (-1.0, 0.25)]:
            spec = GaussianSpec(mean, var)
            assert normal_pdf(mean, spec) == pytest.approx(
                1.0 / math.sqrt(2 * math.pi * var), abs=1e-15
            )

    def test_pdf_oracle_value(self):
        # exp(-1/2)/sqrt(2 pi) via arbitrary precision
        assert normal_pdf(1.0, STD) == pytest.approx(mp_pdf(1.0), abs=1e-15)

    def test_cdf_median_and_limit(self):
        assert normal_cdf(0.0, STD) == 0.5
        assert normal_cdf(40.0, STD) == 1.0

    def test_cdf_against_erf_oracle(self):
        for x in np.linspace(-6, 6, 41):
            assert abs(normal_cdf(float(x), STD) - mp_cdf(float(x))) < 1e-12

    def test_cdf_quantile_95(self):
        assert normal_cdf(1.6449, STD) == pytest.approx(0.95, abs=1e-4)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError):
                normal_pdf(bad, STD)
            with pytest.raises(InvalidInputError):
                normal_cdf(bad, STD)

    def test_overflowing_standardized_point_rejected(self):
        # finite x, but (x - mean) / std overflows to inf
        spec = GaussianSpec(-1e308, 1.0)
        for kernel in (normal_cdf, numerics.log_normal_sf, hazard_rate):
            with pytest.raises(InvalidInputError):
                kernel(1e308, spec)

    def test_bad_variance_rejected(self):
        with pytest.raises(InvalidInputError):
            GaussianSpec(0.0, 0.0)
        with pytest.raises(InvalidInputError):
            GaussianSpec(0.0, -1.0)

    @given(st.floats(-20, 20), st.floats(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_cdf_symmetry(self, x, mean):
        spec = GaussianSpec(mean, 1.7)
        assert normal_cdf(mean + x, spec) + normal_cdf(mean - x, spec) == \
            pytest.approx(1.0, abs=1e-12)


class TestHazard:
    def test_value_at_zero(self):
        assert hazard_rate(0.0, STD) == pytest.approx(
            mp_pdf(0.0) / 0.5, rel=1e-13
        )

    def test_value_at_one(self):
        expected = mp_pdf(1.0) / (1.0 - mp_cdf(1.0))
        assert hazard_rate(1.0, STD) == pytest.approx(expected, rel=1e-13)

    def test_location_scale_identity(self):
        spec = GaussianSpec(0.7, 4.0)
        for x in (-2.0, 0.0, 1.3, 5.0):
            z = (x - 0.7) / 2.0
            assert hazard_rate(x, spec) == pytest.approx(
                hazard_rate(z, STD) / 2.0, rel=1e-13
            )

    def test_strictly_increasing_on_wide_grid(self):
        grid = np.linspace(-5.0, 5.0, 501)
        values = [hazard_rate(float(x), STD) for x in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_deep_right_tail_no_blowup(self):
        # asymptotically h(z) ~ z; ratio must stay close
        h = hazard_rate(50.0, STD)
        assert 50.0 < h < 50.03

    @pytest.mark.parametrize("var", [0.25, 1.0, 4.0])
    def test_array_equals_scalar_calls_bitwise(self, var):
        # verify's grid and its shift by var, which reaches z = -8.5 at var
        # 0.25, plus a wide grid deep into both tails (erfcx overflows
        # below z = -37.7, where the hazard is 0)
        grid = np.arange(-4.0, 4.0 + 1e-12, 0.01)
        spec = GaussianSpec(0.0, var)
        for points in (grid, grid - var, np.linspace(-60.0, 60.0, 1201)):
            values = hazard_rate(points, spec)
            assert isinstance(values, np.ndarray) and values.shape == points.shape
            for x, h in zip(points.tolist(), values.tolist()):
                assert h.hex() == hazard_rate(x, spec).hex()
                # the scalar formula on the in-repo erfcx
                z = (x - spec.mean) / spec.std
                expected = (math.sqrt(2.0 / math.pi)
                            / numerics.erfcx(z / math.sqrt(2.0)) / spec.std)
                assert h.hex() == expected.hex()

    def test_left_tail_is_the_pdf(self):
        for z in (-8.0, -20.0, -37.0):
            assert hazard_rate(z, STD) == pytest.approx(mp_pdf(z), rel=1e-12)

    def test_array_with_non_finite_point_rejected(self):
        with pytest.raises(InvalidInputError):
            hazard_rate(np.array([0.0, np.inf]), STD)


def _kernel_oracle(name, x):
    x = mpmath.mpf(x)
    if name == "erfcx":
        return mpmath.exp(x * x) * mpmath.erfc(x)
    if name == "ndtr":
        return mpmath.ncdf(x)
    # log1p keeps the digits of log Phi(x) as it nears 0 in the right tail
    return mpmath.log1p(-mpmath.ncdf(-x)) if x > 0 else mpmath.log(mpmath.ncdf(x))


def _kernel_points():
    """A seeded subsample of the accuracy grid (6,300 points in [-40, 40]
    and 300 in [-1000, -40]), plus the ends of each kernel's branches."""
    rng = np.random.default_rng(20261018)
    edges = [0.0, 25.0, -26.6, -26.64, -26.0 * math.sqrt(2.0)]
    edges += [math.nextafter(x, d) for x in edges for d in (-math.inf, math.inf)]
    return (rng.uniform(-40.0, 40.0, 1200).tolist()
            + rng.uniform(-1000.0, -40.0, 300).tolist() + edges)


class TestKernelAccuracy:
    """erfcx, log_ndtr and ndtr against an mpmath oracle, where the exact
    value is a normal float: the worst relative error is no larger than
    scipy.special's on the same points."""

    @staticmethod
    def _worst(kernel, name, points):
        worst = 0.0
        for x in points:
            exact = _kernel_oracle(name, x)
            if sys.float_info.min <= abs(exact) <= sys.float_info.max:
                error = abs((mpmath.mpf(float(kernel(x))) - exact) / exact)
                worst = max(worst, float(error))
        return worst / sys.float_info.epsilon

    @pytest.mark.parametrize("name", ["erfcx", "log_ndtr", "ndtr"])
    def test_worst_error_within_scipy(self, name):
        points = _kernel_points()
        ours = self._worst(getattr(numerics, name), name, points)
        theirs = self._worst(getattr(special, name), name, points)
        assert ours <= theirs, (ours, theirs)

    def test_returns_python_floats(self):
        for kernel in (numerics.erfcx, numerics.log_ndtr, numerics.ndtr):
            assert type(kernel(0.5)) is float

    def test_erfcx_overflows_to_inf(self):
        assert numerics.erfcx(-27.0) == math.inf
        assert math.isfinite(numerics.erfcx(-26.6))


class TestQuadrature:
    def test_weights_normalized(self):
        nodes, weights = gauss_hermite_rule(STD, 20)
        assert len(nodes) == len(weights) == 20
        assert abs(float(np.sum(weights)) - 1.0) <= 1e-12

    def test_constant_and_square(self):
        assert expect_gauss_hermite(lambda x: 1.0, STD, 20) == pytest.approx(
            1.0, abs=1e-13
        )
        assert expect_gauss_hermite(lambda x: x * x, STD, 20) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_mean_one_lognormal_construction(self):
        spec = GaussianSpec(-0.125, 0.25)
        assert expect_gauss_hermite(math.exp, spec, 40) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_lognormal_moment_identity(self):
        spec = GaussianSpec(0.3, 0.8)
        for a in (-2, -1, 1, 2):
            exact = math.exp(a * 0.3 + 0.5 * a * a * 0.8)
            approx = expect_gauss_hermite(lambda x: math.exp(a * x), spec, 40)
            assert abs(approx - exact) / exact < 1e-10

    def test_order_too_small(self):
        with pytest.raises(InvalidInputError):
            expect_gauss_hermite(lambda x: x, STD, 1)

    def test_non_finite_integrand_reported(self):
        with pytest.raises(EvaluationError, match="node"):
            expect_gauss_hermite(lambda x: math.inf, STD, 10)

    def test_raising_integrand_reported(self):
        with pytest.raises(EvaluationError, match="ZeroDivisionError.*node"):
            expect_gauss_hermite(lambda x: 0.0 ** -1.0, STD, 10)
        with pytest.raises(EvaluationError, match="math domain error.*node"):
            expect_gauss_hermite(lambda x: math.log(x), STD, 10)

        def typed(x):
            raise InvalidInputError("already typed")

        with pytest.raises(InvalidInputError, match="^already typed$"):
            expect_gauss_hermite(typed, STD, 10)


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
        with pytest.raises(InvalidInputError):
            portfolio_moment(0.5, 0.0, 2.0)

    def test_unconverged_corner_raises_named_error(self):
        # hermgauss gives non-finite weights past order 320, so the doubling
        # stops there; no numpy warning may escape on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as err:
                portfolio_moment(0.9, 2.0, 8.0)
        exc = err.value
        assert (exc.theta, exc.sigma1, exc.gamma, exc.order) == (0.9, 2.0, 8.0, 320)
        assert exc.change >= 1e-10
        for text in ("theta=0.9", "sigma_idio=2.0", "gamma=8.0"):
            assert text in str(exc)


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

    def test_cached_nodes_read_only(self):
        for array in numerics._hermite_nodes(40):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_hermgauss_built_once_per_order(self, monkeypatch):
        calls = collections.Counter()
        real = numerics.hermgauss

        def counting(order):
            calls[order] += 1
            return real(order)

        monkeypatch.setattr(numerics, "hermgauss", counting)
        numerics._hermite_nodes.cache_clear()
        portfolio_moment.cache_clear()
        for _ in range(3):
            for order in (20, 40):
                gauss_hermite_rule(STD, order)
            portfolio_moment(0.3, 0.7, 3.0)
            portfolio_moment.__wrapped__(0.3, 0.7, 3.0)
        assert calls[20] == 1 and calls[40] == 1
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("spec", [STD, GaussianSpec(-0.125, 0.25),
                                      GaussianSpec(0.7, 4.0)])
    def test_rule_bitwise_equals_hermgauss_transform(self, spec):
        for order in (2, 20, 40, 80, 160, 320):
            x, w = np.polynomial.hermite.hermgauss(order)
            nodes, weights = gauss_hermite_rule(spec, order)
            assert np.array_equal(nodes, spec.mean + spec.std * math.sqrt(2.0) * x)
            assert np.array_equal(weights, w / math.sqrt(math.pi))

    @pytest.mark.parametrize("corrupt", [
        lambda x, w: (x[:-1], w[:-1]),              # wrong length
        lambda x, w: (x, -w),                       # non-positive weights
        lambda x, w: (x, np.full_like(w, np.nan)),  # non-finite weights
        lambda x, w: (x, 2.0 * w),                  # weights sum to 2
    ])
    def test_bad_hermgauss_rejected_once_built(self, monkeypatch, corrupt):
        real = numerics.hermgauss
        monkeypatch.setattr(numerics, "hermgauss",
                            lambda order: corrupt(*real(order)))
        numerics._hermite_nodes.cache_clear()
        with pytest.raises(InvalidInputError, match="hermgauss"):
            gauss_hermite_rule(STD, 20)
        monkeypatch.undo()
        # the failure left no cache entry
        assert len(gauss_hermite_rule(STD, 20)[1]) == 20

    def test_failed_call_leaves_no_entry(self):
        portfolio_moment.cache_clear()
        # at theta = 1, (theta e^eps + 1) - theta cancels to 0.0 on deep nodes
        for args, error in [((-0.1, 0.5, 2.0), InvalidInputError),
                            ((0.9, 2.0, 8.0), ConvergenceError),
                            ((1.0, 1.2, 5.0), EvaluationError),
                            ((1.0, 3.0, 1.0), EvaluationError)]:
            with pytest.raises(HetdataError) as err:
                portfolio_moment(*args)
            assert type(err.value) is error
        assert portfolio_moment.cache_info().currsize == 0


class TestSolveBracketed:
    def test_linear(self):
        assert solve_bracketed(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == \
            pytest.approx(1.0, abs=1e-12)

    def test_sqrt2(self):
        root = solve_bracketed(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(BracketingError) as err:
            solve_bracketed(lambda x: x * x + 1.0, -1.0, 1.0, 1e-8)
        assert err.value.f_lo == 2.0 and err.value.f_hi == 2.0

    @given(st.floats(-3, 3), st.floats(0.1, 3))
    @settings(max_examples=100, deadline=None)
    def test_root_stays_in_bracket(self, center, width):
        lo, hi = center - width, center + width
        root = solve_bracketed(lambda x: math.tanh(x - center), lo, hi, 1e-10)
        assert lo <= root <= hi

    def test_each_end_evaluated_once(self):
        calls = collections.Counter()

        def f(x):
            calls[x] += 1
            return x * x - 2.0

        solve_bracketed(f, 0.0, 2.0, 1e-12)
        assert calls[0.0] == 1 and calls[2.0] == 1

    def test_nan_raises_evaluation_error_naming_x(self):
        with pytest.raises(EvaluationError, match=r"NaN at x=2\.0$"):
            solve_bracketed(lambda x: math.nan if x == 2.0 else x, -1.0, 2.0, 1e-12)
        # NaN at the first iterate: the secant step from [0, 1] lands on 0.5
        with pytest.raises(EvaluationError, match=r"NaN at x=0\.5$"):
            solve_bracketed(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5,
                            0.0, 1.0, 1e-12)

    def test_no_convergence_raises_solver_error(self):
        # flat at its root, so secant steps crawl: 100 steps do not reach 1e-14
        with pytest.raises(SolverError) as err:
            solve_bracketed(lambda x: x ** 9, -1.0, 2.0, 1e-14)
        assert type(err.value) is SolverError
        text = str(err.value)
        for part in ("[-1.0, 2.0]", "tolerance 1e-14", "100 iterations",
                     "last iterate x="):
            assert part in text


def _scipy_root(f, lo, hi, tol):
    """What solve_bracketed returned when it called scipy's brentq."""
    root = brentq(f, lo, hi, xtol=tol, rtol=8.0 * np.finfo(float).eps)
    return float(min(max(root, lo), hi))


class TestBrentMatchesScipy:
    """The in-repo Brent gives scipy.optimize.brentq's root bit for bit."""

    @staticmethod
    def assert_same(f, lo, hi, tol):
        try:
            expected = _scipy_root(f, lo, hi, tol)
        except RuntimeError:  # scipy's non-convergence
            with pytest.raises(SolverError):
                solve_bracketed(f, lo, hi, tol)
            return "unconverged"
        assert solve_bracketed(f, lo, hi, tol).hex() == expected.hex()
        return "converged"

    def test_real_problems_of_both_callers(self, monkeypatch):
        # every bracket solve_threshold and solve_lambda pose over a seeded
        # random box of validated parameters
        problems = []

        def recording(f, lo, hi, tol):
            problems.append((f, lo, hi, tol))
            return numerics.solve_bracketed(f, lo, hi, tol)

        monkeypatch.setattr(threshold, "solve_bracketed", recording)
        monkeypatch.setattr(wealth, "solve_bracketed", recording)
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            gamma = 1.0 if rng.random() < 0.25 else float(rng.uniform(0.3, 10.0))
            params = default_params(
                gamma=gamma,
                sigma_mu=float(rng.uniform(0.02, 3.0)),
                sigma_idio=float(rng.uniform(0.02, 0.8)),
                theta=float(rng.uniform(0.001, 0.999)),
                tau=float(rng.uniform(1e-6, 1.0 - 1e-6)),
                sigma_agg=float(rng.uniform(0.01, 0.8)),
                D=float(rng.uniform(0.1, 5.0)),
                mu_bar=float(rng.uniform(-2.0, 2.0)),
                alpha=float(rng.uniform(0.0, 1.0)),
                w=float(rng.uniform(0.0, 2.0)),
                t_star=float(rng.uniform(1.01, 20.0)),
                EK_target=float(rng.uniform(0.001, 1.0)),
            )
            for solve, args in ((threshold.solve_threshold.__wrapped__,
                                 (params.tau, params)),
                                (wealth.solve_lambda.__wrapped__,
                                 (float(rng.uniform(-5.0, 15.0)), params))):
                try:
                    solve(*args)
                except HetdataError:
                    pass  # no root to compare, e.g. a NoSolutionError
        by_caller = collections.Counter(f.__qualname__.split(".")[0]
                                        for f, *_ in problems)
        assert by_caller["solve_threshold"] >= 250
        assert by_caller["solve_lambda"] >= 50
        for problem in problems:
            assert self.assert_same(*problem) == "converged"

    # coarse tolerances too: there the -delta in the step-acceptance test binds
    @pytest.mark.parametrize("tol", [0.3, 0.1, 1e-3, 1e-8, 1e-10, 1e-12, 1e-13,
                                     1e-14])
    def test_synthetic_functions(self, tol):
        rng = np.random.default_rng(round(-10 * math.log10(tol)))
        outcomes = collections.Counter()
        for i in range(120):
            c, a = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.1, 10.0))
            lo = c - float(rng.uniform(0.01, 5.0))
            hi = c + float(rng.uniform(0.01, 5.0))
            f = [lambda x: math.tanh(a * (x - c)),
                 lambda x: a * (x - c) ** 3 + 1e-3 * (x - c),
                 lambda x: math.expm1(a * (x - c)),
                 lambda x: a * math.atan(x - c) - 1e-12,
                 lambda x: (x - c) ** 9,  # flat: may not converge
                 lambda x: -1.0 if x < c else 1.0][i % 6]
            outcomes[self.assert_same(f, lo, hi, tol)] += 1
        assert outcomes["converged"] >= 100
        if tol <= 1e-12:  # both fail to converge on some flat-root cases
            assert outcomes["unconverged"] >= 1


class TestRandomStream:
    def test_determinism(self):
        a = make_stream(123, 4).standard_normal(1000)
        b = make_stream(123, 4).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_stream_independence(self):
        n = 100_000
        a = make_stream(7, 0).standard_normal(n)
        b = make_stream(7, 1).standard_normal(n)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 3.0 / math.sqrt(n)

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
