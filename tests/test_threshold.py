import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetdata import threshold
from hetdata.errors import (
    ConvergenceError,
    DegenerateInputError,
    HetdataError,
    InvalidInputError,
    NumericalRangeError,
    SolverError,
)
from hetdata.model import TAU_MAX, TAU_MIN, default_params
from hetdata.numerics import log_ndtr, make_stream
from hetdata.statics import aggregate_output, output_ratio, threshold_sensitivity
from hetdata.threshold import (
    _moment_term,
    log_ratio_and_slope,
    provider_utility,
    solve_threshold,
    tail_expectation,
    user_utility,
)

mpmath.mp.dps = 50


def F_threshold(tau, mu, params):
    """Right-hand side F(tau, mu) of the fixed-point equation, assembled
    from the solver's own parts."""
    logit = math.log(tau) - math.log1p(-tau)
    v = params.sigma_mu * params.sigma_mu
    return logit + 0.5 * v - _moment_term(params) + log_ratio_and_slope(mu, v)[0]


def mp_sf(x, mean=0.0, var=1.0):
    return float(1 - mpmath.ncdf(x, mean, mpmath.sqrt(var)))


class TestTailExpectation:
    def test_unconditional_limit(self):
        # K -> -inf removes the conditioning
        assert tail_expectation(-40.0, 0.0, 1.0) == pytest.approx(
            math.exp(0.5), rel=1e-12
        )

    def test_value_at_zero_vs_erf_oracle(self):
        expected = math.exp(0.5) * mp_sf(0.0, 1.0, 1.0) / 0.5
        assert tail_expectation(0.0, 0.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.7742, abs=1e-4)

    def test_monte_carlo_cross_check(self):
        n = 1_000_000
        draws = make_stream(5, 0).standard_normal(n)
        kept = np.exp(draws[draws > 0.0])
        observed = float(np.mean(kept))
        se = float(np.std(kept, ddof=1) / math.sqrt(len(kept)))
        assert abs(tail_expectation(0.0, 0.0, 1.0) - observed) <= 3.0 * se

    def test_monotone_in_threshold(self):
        assert tail_expectation(1.0, 0.0, 1.0) > tail_expectation(0.0, 0.0, 1.0)

    def test_deep_tail_stable(self):
        # both survival functions underflow individually at K = 45
        value = tail_expectation(45.0, 0.0, 1.0)
        assert math.isfinite(value) and value > math.exp(45.0)

    @pytest.mark.parametrize("overrides, named", [
        ({"sigma_mu": 37.0}, ("overflows", "mu_bar=0.0", "sigma_mu=37.0")),
        ({"mu_bar": 710.0}, ("overflows", "mu_bar=710.0", "sigma_mu=1.0")),
        # the tail mean underflows to 0, which provider_utility refuses
        ({"mu_bar": -800.0}, ("underflows", "mu_bar=-800.0", "sigma_mu=1.0")),
    ])
    def test_overflow_raises_named_error(self, overrides, named):
        params = default_params(**overrides)
        with pytest.raises(NumericalRangeError) as info:
            solve_threshold(0.5, params)
        for text in named:
            assert text in str(info.value)


class TestFThreshold:
    def test_symmetry_point(self):
        params = default_params(theta=1e-12, sigma_mu=1.0)
        assert F_threshold(0.5, 0.5, params) == pytest.approx(0.5, abs=1e-12)

    def test_tau_to_zero_diverges(self):
        params = default_params()
        assert F_threshold(1e-6, 0.3, params) < -10.0

    def test_term_by_term_oracle(self):
        params = default_params(theta=0.1, sigma_idio=0.5, gamma=2.0, sigma_mu=1.0)
        tau, mu = 0.6, 0.3
        # independent reassembly: erf oracle for the tails, MC for the moment
        logit = math.log(0.6 / 0.4)
        log_ratio = math.log(mp_sf(mu, 1.0, 1.0)) - math.log(
            1.0 - mp_sf(mu, 0.0, 1.0)
        )
        eps = -0.125 + 0.5 * make_stream(17, 0).standard_normal(1_000_000)
        g = (0.1 * np.exp(eps) + 0.9) ** (-1.0)
        mc_moment = float(np.mean(g))
        mc_se = float(np.std(g, ddof=1) / 1000.0)
        value = F_threshold(tau, mu, params)
        direct = logit + 0.5 + log_ratio + math.log(mc_moment)
        # log() of a 3-SE band around the MC moment
        assert abs(value - direct) <= 3.0 * mc_se / mc_moment + 1e-12

    def test_strictly_decreasing_in_mu(self):
        params = default_params()
        grid = np.linspace(-5.0, 5.0, 101)
        values = [F_threshold(0.4, float(m), params) for m in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_strictly_increasing_in_tau(self):
        params = default_params()
        taus = np.linspace(0.05, 0.95, 19)
        values = [F_threshold(float(t), 0.2, params) for t in taus]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_degenerate_tau_rejected(self):
        params = default_params()
        for tau in (0.0, 1e-9, 1.0 - 1e-9, 1.0):
            with pytest.raises(InvalidInputError):
                solve_threshold.__wrapped__(tau, params)


def bisection_oracle(tau, params, lo=-30.0, hi=30.0, step=1e-6):
    """Plain bisection down to a 1e-6 bracket, then midpoint refinement."""
    g = lambda mu: mu - F_threshold(tau, mu, params)
    while hi - lo > step:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    # polish the 1e-6 bracket by continued bisection to float resolution
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolveThreshold:
    def test_symmetry_identity(self):
        params = default_params(theta=1e-12, sigma_mu=1.0)
        sol = solve_threshold(0.5, params)
        assert sol.mu_k == pytest.approx(0.5, abs=1e-12)
        assert sol.m == pytest.approx(1.0 - 0.6914624612740131, abs=1e-10)

    def test_matches_bisection_oracle(self):
        params = default_params(theta=0.1, gamma=2.0, sigma_idio=0.5, sigma_mu=1.0)
        sol = solve_threshold(0.6, params)
        assert sol.mu_k == pytest.approx(bisection_oracle(0.6, params), abs=1e-8)

    def test_solution_invariants(self):
        params = default_params()
        for tau in (0.2, 0.5, 0.8):
            sol = solve_threshold(tau, params)
            assert sol.m == pytest.approx(
                float(1 - mpmath.ncdf(sol.mu_k, 0, 1)), abs=1e-10
            )
            assert sol.tail_mean >= math.exp(0.5)
            assert abs(sol.residual) <= 1e-10
            assert sol.K == sol.mu_k + params.mu_bar

    def test_participation_decreasing_in_tau(self):
        params = default_params()
        ms = [solve_threshold(t, params).m for t in np.linspace(0.1, 0.9, 9)]
        assert all(b < a for a, b in zip(ms, ms[1:]))

    # the census box of ROADMAP item 12, for the inputs F depends on
    @given(st.one_of(st.just(1.0), st.floats(0.3, 12.0)),
           st.floats(0.05, 3.0), st.floats(0.01, 3.0),
           st.floats(0.001, 0.999), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_first_lower_end_lies_below_root(self, gamma, sigma_mu,
                                             sigma_idio, theta, tau):
        # solve_threshold never evaluates its lower end: G(lo) = lo - F(lo)
        # is below -20 there for every validated parameter set
        params = default_params(gamma=gamma, sigma_mu=sigma_mu,
                                sigma_idio=sigma_idio, theta=theta, tau=tau)
        try:
            moment = _moment_term(params)
        except HetdataError:  # an unconverged moment (ROADMAP item 2)
            assume(False)
        logit = math.log(tau) - math.log1p(-tau)
        lo = min(logit, 0.0) - 6.0 * sigma_mu
        v = sigma_mu * sigma_mu
        F = logit + 0.5 * v - moment + log_ratio_and_slope(lo, v)[0]
        assert F > lo + 20.0

    def test_symmetry_across_sigma_and_gamma(self):
        for sigma_mu in (0.25, 0.5, 1.0, 2.0):
            for gamma in (1.0, 2.0, 5.0):
                params = default_params(
                    theta=1e-12, sigma_mu=sigma_mu, gamma=gamma
                )
                sol = solve_threshold(0.5, params)
                assert abs(sol.mu_k - 0.5 * sigma_mu ** 2) <= 1e-10


def mp_threshold(tau, params, moment, start):
    """Root of G(mu) = mu - F(tau, mu) by bisection at 40 digits, from the
    float parameters and the float moment term (the quadrature is not the
    solver's).  The bracket is centred on start and widened until G changes
    sign across it; G is increasing, so it then holds the one root, however
    far start is from it.  Bisects to 30 digits of the root, or of sigma_mu
    where the root is nearer 0."""
    with mpmath.workdps(40):
        t = mpmath.mpf(tau)
        logit = mpmath.log(t / (1 - t))
        s = mpmath.mpf(params.sigma_mu)
        v = s * s
        c = logit + v / 2 - moment

        def G(mu):
            return (mu - c - mpmath.log(mpmath.ncdf((v - mu) / s))
                    + mpmath.log(mpmath.ncdf(mu / s)))

        d = mpmath.mpf(10) ** -6 * max(abs(start), s)
        while not G(start - d) < 0 < G(start + d):
            d *= 16
        lo, hi = start - d, start + d
        while hi - lo > mpmath.mpf(10) ** -30 * max(abs(lo), abs(hi), s):
            mid = (lo + hi) / 2
            if G(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def count_evaluations(monkeypatch):
    """The points at which solve_threshold evaluates G, recorded through
    the slope function it calls once per evaluation."""
    points, real = [], threshold.log_ratio_and_slope

    def counted(mu, v):
        points.append(mu)
        return real(mu, v)

    monkeypatch.setattr(threshold, "log_ratio_and_slope", counted)
    return points


# every solve in the box below took at most 6 evaluations of G in 20,000
# seeded sets (the first step is closed-form and evaluates nothing)
MAX_EVALUATIONS = 6


class TestNewtonSolve:
    # ROADMAP item 12's census box for gamma, sigma_idio and theta; tau over
    # its validated band and at its ends; sigma_mu log-uniform from just
    # above validate's floor, 2^-511, to 3, and up to 36, just short of the
    # tail mean's overflow
    @given(st.one_of(st.just(1.0), st.floats(0.3, 12.0)),
           st.one_of(st.floats(math.log(1.5e-154), math.log(3.0)).map(math.exp),
                     st.floats(3.0, 36.0)),
           st.floats(0.01, 3.0), st.floats(0.001, 0.999),
           st.one_of(st.floats(TAU_MIN, TAU_MAX),
                     st.sampled_from([TAU_MIN, TAU_MAX])))
    @settings(max_examples=100, deadline=None)
    def test_matches_mpmath_bisection(self, gamma, sigma_mu, sigma_idio,
                                      theta, tau):
        params = default_params(gamma=gamma, sigma_mu=sigma_mu,
                                sigma_idio=sigma_idio, theta=theta, tau=tau)
        with pytest.MonkeyPatch.context() as monkeypatch:
            points = count_evaluations(monkeypatch)
            try:
                sol = solve_threshold.__wrapped__(tau, params)
            except HetdataError:  # an unconverged moment or tail mean
                assume(False)
        assert len(points) == sol.iterations <= MAX_EVALUATIONS
        exact = mp_threshold(tau, params, _moment_term(params), sol.mu_k)
        exact_m = mpmath.ncdf(-exact / mpmath.mpf(sigma_mu))
        # relative to mu_k, or to min(1, sigma_mu), the scale of the stopping
        # step, where mu_k nears 0; m relative to itself.  The worst seen in
        # 2,599 seeded sets of this box: 5.0e-14 on mu_k and 8.9e-14 on m
        scale = max(abs(exact), min(1.0, sigma_mu))
        assert abs(sol.mu_k - exact) <= 1e-12 * scale
        assert abs(sol.m - exact_m) <= 1e-12 * exact_m

    def test_step_leaving_the_bracket_is_bisected(self, monkeypatch):
        # a slope taken as 1 (dF/dmu as 0) overshoots the root; each point
        # must still lie inside the bracket that the start point v/2 and the
        # points before it make, and the solve still ends at the root
        params = default_params(sigma_mu=0.5, tau=0.5)
        points, real = [], threshold.log_ratio_and_slope

        def flat(mu, v):
            points.append(mu)
            return real(mu, v)[0], 0.0

        monkeypatch.setattr(threshold, "log_ratio_and_slope", flat)
        sol = solve_threshold.__wrapped__(params.tau, params)
        monkeypatch.undo()

        def G(mu):
            return mu - F_threshold(params.tau, mu, params)

        lo, hi = -6.0 * params.sigma_mu, math.inf
        bisected = 0
        for mu in [0.5 * params.sigma_mu ** 2] + points:
            assert lo < mu < hi
            bisected += mu == 0.5 * (lo + hi)
            lo, hi = (mu, hi) if G(mu) < 0.0 else (lo, mu)
        assert bisected >= 1
        assert abs(sol.mu_k - solve_threshold.__wrapped__(
            params.tau, params).mu_k) <= 1e-13

    def test_no_convergence_raises_solver_error(self, monkeypatch):
        # a G that jumps by 2 across every point never takes a small step
        def jumping(mu, v):
            return (-1.0 if mu > 0.3 else 1.0), 0.0

        monkeypatch.setattr(threshold, "log_ratio_and_slope", jumping)
        params = default_params()
        with pytest.raises(SolverError) as err:
            solve_threshold.__wrapped__(0.5, params)
        assert type(err.value) is SolverError
        for part in ("converge on [", "tolerance 1e-13", "60 iterations",
                     "last iterate x="):
            assert part in str(err.value)

    @pytest.mark.parametrize("sigma_mu", [0.05, 1.0, 3.0, 20.0])
    def test_slope_matches_mpmath(self, sigma_mu):
        v = sigma_mu * sigma_mu
        with mpmath.workdps(40):
            s = mpmath.sqrt(mpmath.mpf(v))

            def log_ratio(mu):
                return (mpmath.log(mpmath.ncdf((v - mu) / s))
                        - mpmath.log(mpmath.ncdf(mu / s)))

            for k in np.linspace(-8.0, 8.0, 33).tolist():
                mu = 0.5 * v + k * sigma_mu
                value, slope = log_ratio_and_slope(mu, v)
                assert abs(value - log_ratio(mu)) <= 1e-13 * max(1.0, abs(value))
                exact = mpmath.diff(log_ratio, mpmath.mpf(mu))
                assert abs(slope - exact) <= 1e-12 * abs(exact)


def _bits(sol):
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in sol.to_dict().values())


class TestSolveThresholdMemo:
    CASES = [(tau, default_params(gamma=gamma, sigma_mu=sigma_mu))
             for tau in (0.05, 0.5, 0.93)
             for gamma in (1.0, 2.0, 5.0)
             for sigma_mu in (0.25, 1.0)]

    def test_to_dict_is_a_copy(self):
        sol = solve_threshold(0.5, default_params())
        mu_k = sol.mu_k
        sol.to_dict()["mu_k"] = 0.0
        assert sol.mu_k == mu_k  # the memo hands this instance to every caller

    def test_memo_bitwise_equals_uncached(self):
        solve_threshold.cache_clear()
        for tau, params in self.CASES:
            for _ in range(2):  # a miss, then a hit
                assert _bits(solve_threshold(tau, params)) == _bits(
                    solve_threshold.__wrapped__(tau, params))
        info = solve_threshold.cache_info()
        assert (info.misses, info.hits) == (len(self.CASES), len(self.CASES))

    def test_equal_params_share_an_entry(self):
        solve_threshold.cache_clear()
        first = solve_threshold(0.4, default_params())
        assert solve_threshold(0.4, default_params()) is first
        assert solve_threshold.cache_info().currsize == 1

    def test_failed_call_leaves_no_entry(self):
        solve_threshold.cache_clear()
        unconverged = default_params(theta=0.9, sigma_idio=2.0, gamma=8.0)
        for tau, params, error in [(1e-7, default_params(), InvalidInputError),
                                   (0.5, unconverged, ConvergenceError)]:
            for _ in range(2):
                with pytest.raises(error):
                    solve_threshold(tau, params)
        assert solve_threshold.cache_info().currsize == 0


class TestAbilitySpecs:
    """The two ability laws of the tail ratio, N(v, v) and N(0, v), go to
    the kernels as the floats (v, sigma_mu) and (0, sigma_mu)."""

    @pytest.mark.parametrize("v", [0.04, 1.0, 2.25])
    def test_pair_equals_fresh_specs(self, v):
        # the tails as laws built from the variance took them: std sqrt(v)
        sigma_mu = math.sqrt(v)
        var = sigma_mu * sigma_mu
        std = math.sqrt(var)
        for mu in (-3.0, 0.0, 0.5 * var, 2.0, 9.0):
            expected = (log_ndtr(-((mu - var) / std))
                        - log_ndtr(-((mu - 0.0) / std)))
            assert threshold.log_output_ratio(mu, sigma_mu).hex() == expected.hex()

    @pytest.mark.parametrize("sigma_mu", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_variance_raises_on_every_call(self, sigma_mu):
        for _ in range(2):
            with pytest.raises(InvalidInputError):
                threshold.log_output_ratio(0.0, sigma_mu)


class TestUtilities:
    def test_log_utility_theta_to_zero(self):
        params = default_params(gamma=1.0, theta=1e-14)
        expected = (
            math.log(0.5) + math.log(params.D) + 0.3 - 0.5 * params.sigma_agg ** 2
        )
        assert user_utility(0.3, 0.5, params) == pytest.approx(expected, abs=1e-10)

    def test_user_utility_monotone_in_ability(self):
        for gamma in (1.0, 2.0, 5.0):
            params = default_params(gamma=gamma)
            grid = np.linspace(-2.0, 2.0, 41)
            values = [user_utility(float(m), 0.5, params) for m in grid]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_user_utility_monte_carlo(self):
        params = default_params(gamma=2.0)
        n = 1_000_000
        stream = make_stream(23, 0)
        s, s_i = params.sigma_agg, params.sigma_idio
        eps = stream.normal(-0.5 * (s * s), math.sqrt(s * s), n)
        eps_i = stream.normal(-0.5 * (s_i * s_i), math.sqrt(s_i * s_i), n)
        c = (
            0.5 * params.D * math.exp(0.3)
            * np.exp(eps)
            * (params.theta * np.exp(eps_i) + 1.0 - params.theta)
        )
        u = c ** (1.0 - 2.0) / (1.0 - 2.0)
        observed = float(np.mean(u))
        se = float(np.std(u, ddof=1) / math.sqrt(n))
        assert abs(user_utility(0.3, 0.5, params) - observed) <= 3.0 * se

    def test_provider_utility_log_expansion(self):
        params = default_params(gamma=1.0)
        m, tail = 0.3, 2.5
        expected = (
            math.log(0.4) + math.log(params.D) - 0.5 * params.sigma_agg ** 2
            + math.log(m) + math.log(tail) - math.log(0.7)
        )
        assert provider_utility(0.4, m, tail, params) == pytest.approx(
            expected, abs=1e-12
        )

    def test_provider_utility_tau_to_zero(self):
        params = default_params(gamma=1.0)
        assert provider_utility(1e-6, 0.3, 2.5, params) < -10.0

    def test_provider_utility_monte_carlo(self):
        params = default_params(gamma=2.0)
        m, tail, tau = 0.3, 2.5, 0.4
        n = 1_000_000
        s = params.sigma_agg
        eps = make_stream(29, 0).normal(-0.5 * (s * s), math.sqrt(s * s), n)
        c = tau * params.D * np.exp(eps) * m * tail / (1.0 - m)
        u = c ** (-1.0) / (-1.0)
        observed = float(np.mean(u))
        se = float(np.std(u, ddof=1) / math.sqrt(n))
        assert abs(provider_utility(tau, m, tail, params) - observed) <= 3.0 * se

    def test_degenerate_population_rejected(self):
        params = default_params()
        for m in (0.0, 1.0):
            with pytest.raises(DegenerateInputError):
                provider_utility(0.5, m, 2.0, params)


class TestClassify:
    """The one role rule: data user iff ability > K, ties to the provider."""

    def test_above_and_below(self):
        params = default_params()
        sol = solve_threshold(0.5, params)
        assert sol.is_user(sol.K + 1.0)
        assert not sol.is_user(sol.K - 1.0)
        roles = sol.is_user(np.array([sol.K - 1.0, sol.K + 1.0]))
        assert roles.tolist() == [False, True]

    # at mu_bar = -2.3, tau = 0.2 re-centring K gives K - (K - mu_k) != mu_k
    # in floating point, so a rule on the centred ability breaks the tie
    @pytest.mark.parametrize("overrides", [{}, {"mu_bar": -2.3, "tau": 0.2}],
                             ids=["default", "recentring_rounds"])
    def test_tie_goes_to_provider(self, overrides):
        params = default_params(**overrides)
        sol = solve_threshold(params.tau, params)
        assert not sol.is_user(sol.K)
        assert not sol.is_user(np.array([sol.K]))[0]

    def test_agrees_with_utility_comparison(self):
        params = default_params()
        sol = solve_threshold(params.tau, params)
        v_s = provider_utility(params.tau, sol.m, sol.tail_mean, params)
        s = params.sigma_mu
        abilities = make_stream(31, 0).normal(params.mu_bar, math.sqrt(s * s),
                                              10_000)
        for mu_i, is_user in zip(abilities, sol.is_user(abilities)):
            v_i = user_utility(float(mu_i), params.tau, params)
            assert (v_i > v_s) == is_user


class TestIndifference:
    @pytest.mark.parametrize("gamma", [1.0, 2.0, 5.0])
    def test_utilities_equal_at_threshold(self, gamma):
        for tau in (0.2, 0.5, 0.7):
            params = default_params(gamma=gamma)
            sol = solve_threshold(tau, params)
            v_i = user_utility(sol.K, tau, params)
            v_s = provider_utility(tau, sol.m, sol.tail_mean, params)
            assert abs(v_i - v_s) <= 1e-8 * max(1.0, abs(v_i))
