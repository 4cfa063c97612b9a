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

from hetdata import numerics, threshold
from hetdata.errors import (
    ConvergenceError,
    EvaluationError,
    HetdataError,
    InvalidInputError,
    SolverError,
)
from hetdata.model import default_params
from hetdata.numerics import (
    GaussianSpec,
    hazard_rate,
    make_stream,
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

    def test_bad_variance_rejected(self):
        with pytest.raises(InvalidInputError):
            GaussianSpec(0.0, 0.0)
        with pytest.raises(InvalidInputError):
            GaussianSpec(0.0, -1.0)


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
    def test_grid_points_match_erfcx_formula_bitwise(self, var):
        # verify's grid and its shift by var, which reaches z = -8.5 at var
        # 0.25, plus a wide grid deep into both tails (erfcx overflows
        # below z = -37.7, where the hazard is 0)
        grid = np.arange(-4.0, 4.0 + 1e-12, 0.01)
        spec = GaussianSpec(0.0, var)
        for points in (grid, grid - var, np.linspace(-60.0, 60.0, 1201)):
            for x in points.tolist():
                h = hazard_rate(x, spec)
                assert type(h) is float
                z = (x - spec.mean) / spec.std
                expected = (math.sqrt(2.0 / math.pi)
                            / numerics.erfcx(z / math.sqrt(2.0)) / spec.std)
                assert h.hex() == expected.hex()

    def test_left_tail_is_the_pdf(self):
        for z in (-8.0, -20.0, -37.0):
            assert hazard_rate(z, STD) == pytest.approx(mp_pdf(z), rel=1e-12)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError):
                numerics.log_normal_sf(bad, STD)
            with pytest.raises(InvalidInputError):
                hazard_rate(bad, STD)

    def test_overflowing_standardized_point_rejected(self):
        # finite x, but (x - mean) / std overflows to inf
        spec = GaussianSpec(-1e308, 1.0)
        for kernel in (numerics.log_normal_sf, hazard_rate):
            with pytest.raises(InvalidInputError):
                kernel(1e308, spec)


def _kernel_oracle(name, x):
    x = mpmath.mpf(x)
    if name == "erfcx":
        return mpmath.exp(x * x) * mpmath.erfc(x)
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
    """erfcx and log_ndtr against an mpmath oracle, where the exact value
    is a normal float: the worst relative error is no larger than
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

    @pytest.mark.parametrize("name", ["erfcx", "log_ndtr"])
    def test_worst_error_within_scipy(self, name):
        points = _kernel_points()
        ours = self._worst(getattr(numerics, name), name, points)
        theirs = self._worst(getattr(special, name), name, points)
        assert ours <= theirs, (ours, theirs)

    def test_returns_python_floats(self):
        for kernel in (numerics.erfcx, numerics.log_ndtr):
            assert type(kernel(0.5)) is float

    def test_erfcx_overflows_to_inf(self):
        assert numerics.erfcx(-27.0) == math.inf
        assert math.isfinite(numerics.erfcx(-26.6))


def expect(g, spec, order):
    """E[g(X)], X ~ N(mean, variance), as the order-point sum over the cached
    Gauss-Hermite nodes, mapped as portfolio_moment maps them."""
    x, w = numerics._hermite_nodes(order)
    scale = spec.std * math.sqrt(2.0)
    return sum(wi * g(spec.mean + scale * xi) for xi, wi in zip(x, w))


class TestQuadrature:
    def test_weights_normalized(self):
        nodes, weights = numerics._hermite_nodes(20)
        assert len(nodes) == len(weights) == 20
        assert abs(math.fsum(weights) - 1.0) <= 1e-12

    def test_constant_and_square(self):
        assert expect(lambda x: 1.0, STD, 20) == pytest.approx(1.0, abs=1e-13)
        assert expect(lambda x: x * x, STD, 20) == pytest.approx(1.0, abs=1e-12)

    def test_mean_one_lognormal_construction(self):
        spec = GaussianSpec(-0.125, 0.25)
        assert expect(math.exp, spec, 40) == pytest.approx(1.0, abs=1e-12)

    def test_lognormal_moment_identity(self):
        spec = GaussianSpec(0.3, 0.8)
        for a in (-2, -1, 1, 2):
            exact = math.exp(a * 0.3 + 0.5 * a * a * 0.8)
            approx = expect(lambda x: math.exp(a * x), spec, 40)
            assert abs(approx - exact) / exact < 1e-10

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
        # theta = 1 cancels theta e^node + 1 - theta to 0.0 on deep nodes;
        # theta = 1 - 2^-53 leaves 2^-53 there, whose 29th negative power
        # overflows
        for args, cause in [((1.0, 1.2, 5.0), "ZeroDivisionError"),
                            ((1.0, 3.0, 1.0), "math domain error"),
                            ((1.0 - 2.0 ** -53, 3.0, 30.0), "OverflowError")]:
            with pytest.raises(EvaluationError,
                               match=f"^integrand raised .*{cause}.* at node -"):
                portfolio_moment.__wrapped__(*args)


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
        for values in numerics._hermite_nodes(40):
            assert all(type(v) is float for v in values)
            with pytest.raises(TypeError):
                values[0] = 0.0

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
                numerics._hermite_nodes(order)
            portfolio_moment(0.3, 0.7, 3.0)
            portfolio_moment.__wrapped__(0.3, 0.7, 3.0)
        assert calls[20] == 1 and calls[40] == 1
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("spec", [STD, GaussianSpec(-0.125, 0.25),
                                      GaussianSpec(0.7, 4.0)])
    def test_rule_bitwise_equals_hermgauss_transform(self, spec):
        # the cached floats are hermgauss's, and the nodes portfolio_moment
        # maps them to are numpy's transform, bit for bit
        scale = spec.std * math.sqrt(2.0)
        for order in (2, 20, 40, 80, 160, 320):
            x, w = np.polynomial.hermite.hermgauss(order)
            cached_x, cached_w = numerics._hermite_nodes(order)
            assert cached_x == tuple(x.tolist())
            assert cached_w == tuple((w / math.sqrt(math.pi)).tolist())
            mapped = [spec.mean + scale * xi for xi in cached_x]
            assert mapped == (spec.mean + spec.std * math.sqrt(2.0) * x).tolist()

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
            numerics._hermite_nodes(20)
        monkeypatch.undo()
        # the failure left no cache entry
        assert len(numerics._hermite_nodes(20)[1]) == 20

    # at theta = 1, (theta e^eps + 1) - theta cancels to 0.0 on deep nodes
    FAILING = [((-0.1, 0.5, 2.0), InvalidInputError),
               ((0.9, 2.0, 8.0), ConvergenceError),
               ((1.0, 1.2, 5.0), EvaluationError),
               ((1.0, 3.0, 1.0), EvaluationError)]

    def test_failed_call_leaves_no_entry(self):
        portfolio_moment.cache_clear()
        for args, error in self.FAILING:
            with pytest.raises(HetdataError) as err:
                portfolio_moment(*args)
            assert type(err.value) is error
        assert portfolio_moment.cache_info().currsize == 0


def reference_moment(theta, sigma1, gamma):
    """portfolio_moment as the generic quadrature computed it: numpy's node
    transform, one integrand call per node, every value checked finite."""
    if not 0.0 <= theta <= 1.0:
        raise InvalidInputError(f"theta must be in [0, 1], got {theta}")
    if sigma1 <= 0.0:
        raise InvalidInputError(f"sigma1 must be > 0, got {sigma1}")
    if gamma <= 0.0:
        raise InvalidInputError(f"gamma must be > 0, got {gamma}")
    spec = GaussianSpec(mean=-0.5 * sigma1 * sigma1, variance=sigma1 * sigma1)
    if gamma == 1.0:
        g = lambda e: math.log(theta * math.exp(e) + 1.0 - theta)
    else:
        g = lambda e: (theta * math.exp(e) + 1.0 - theta) ** (1.0 - gamma)

    def expect_gauss_hermite(order):
        x, w = np.polynomial.hermite.hermgauss(order)
        nodes = spec.mean + spec.std * math.sqrt(2.0) * x
        total = 0.0
        for node, weight in zip(nodes.tolist(), (w / math.sqrt(math.pi)).tolist()):
            try:
                val = g(node)
            except (ArithmeticError, ValueError) as exc:
                raise EvaluationError(
                    f"integrand raised {exc!r} at node {node}") from exc
            if not math.isfinite(val):
                raise EvaluationError(f"integrand returned {val} at node {node}")
            total += weight * val
        return total

    order = 40
    value = expect_gauss_hermite(order)
    while order < 320:
        refined = expect_gauss_hermite(2 * order)
        change = abs(refined - value)
        if change < 1e-10:
            return refined
        value, order = refined, 2 * order
    raise ConvergenceError(theta, sigma1, gamma, order, change)


# the points of perfbench's quadrature corner probe
CORNER = tuple((theta, sigma, gamma) for gamma in (6.0, 7.0, 8.0)
               for theta in (0.8, 0.9, 0.95) for sigma in (1.2, 1.6, 2.0))


class TestMomentMatchesGenericQuadrature:
    """The inlined sum gives the generic quadrature's value bit for bit, and
    its failures with the same type and message."""

    @staticmethod
    def outcome(moment, args):
        try:
            return moment(*args).hex()
        except HetdataError as exc:
            return type(exc), str(exc)

    def test_seeded_box_corners_and_failures(self):
        rng = np.random.default_rng(16016)
        cases = []
        for i in range(300):
            theta = (0.0, 1.0)[i % 2] if i % 10 < 2 else float(rng.uniform(0, 1))
            sigma1 = float(rng.uniform(0.01, 3.0))
            gamma = 1.0 if rng.random() < 0.25 else float(rng.uniform(0.3, 12.0))
            cases.append((theta, sigma1, gamma))
        cases += list(CORNER) + [args for args, _ in
                                 TestQuadratureCaches.FAILING]
        kinds = collections.Counter()
        for args in cases:
            new = self.outcome(portfolio_moment.__wrapped__, args)
            assert new == self.outcome(reference_moment, args), args
            kinds[new[0].__name__ if isinstance(new, tuple) else "value"] += 1
        # the box reaches every outcome
        assert {"value", "ConvergenceError", "EvaluationError",
                "InvalidInputError"} <= set(kinds)
        assert kinds["value"] >= 200


def solve(f, df, lo, hi, tol):
    """solve_bracketed on (lo, hi) from the midpoint, where the caller
    evaluates f and f' once; returns the root."""
    x = 0.5 * (lo + hi)
    root, _, _ = solve_bracketed(lambda t: (f(t), df(t)), lo, hi,
                                 x, f(x), df(x), tol)
    return root


class TestSolveBracketed:
    def test_linear(self):
        assert solve(lambda x: x - 1.0, lambda x: 1.0, 0.0, 3.0, 1e-12) == \
            pytest.approx(1.0, abs=1e-12)

    def test_sqrt2(self):
        root = solve(lambda x: x * x - 2.0, lambda x: 2.0 * x, 0.0, 2.0, 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

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
