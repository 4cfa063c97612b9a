import math

import mpmath
import numpy as np
import pytest

from hetdata.errors import (
    ConvergenceError,
    DegenerateInputError,
    InvalidInputError,
)
from hetdata.model import default_params
from hetdata.numerics import GaussianSpec, make_stream
from hetdata.threshold import (
    _moment_term,
    _rhs,
    ability_specs,
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
    return _rhs(logit, params.sigma_mu ** 2, _moment_term(params))(mu)


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

    def test_symmetry_across_sigma_and_gamma(self):
        for sigma_mu in (0.25, 0.5, 1.0, 2.0):
            for gamma in (1.0, 2.0, 5.0):
                params = default_params(
                    theta=1e-12, sigma_mu=sigma_mu, gamma=gamma
                )
                sol = solve_threshold(0.5, params)
                assert abs(sol.mu_k - 0.5 * sigma_mu ** 2) <= 1e-10


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
    @pytest.mark.parametrize("v", [0.04, 1.0, 2.25])
    def test_pair_equals_fresh_specs(self, v):
        hi, lo = ability_specs(v)
        assert (hi, lo) == (GaussianSpec(v, v), GaussianSpec(0.0, v))
        assert (hi.std, lo.std) == (GaussianSpec(v, v).std, GaussianSpec(0.0, v).std)
        assert ability_specs(v) is ability_specs(v)

    def test_typed_key_keeps_an_int_variance(self):
        assert type(ability_specs(1)[0].variance) is int
        assert type(ability_specs(1.0)[0].variance) is float

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_variance_raises_on_every_call(self, v):
        ability_specs.cache_clear()
        for _ in range(2):
            with pytest.raises(InvalidInputError):
                ability_specs(v)
        assert ability_specs.cache_info().currsize == 0


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
        agg, idio = params.agg_shock_spec, params.idio_shock_spec
        eps = stream.normal(agg.mean, agg.std, n)
        eps_i = stream.normal(idio.mean, idio.std, n)
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
        agg = params.agg_shock_spec
        eps = make_stream(29, 0).normal(agg.mean, agg.std, n)
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
        spec = params.ability_spec
        abilities = make_stream(31, 0).normal(spec.mean, spec.std, 10_000)
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
