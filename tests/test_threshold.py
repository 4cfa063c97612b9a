import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetdata import threshold, verify
from hetdata.errors import (
    DegenerateInputError,
    EvaluationError,
    HetdataError,
    InvalidInputError,
    NumericalRangeError,
    SolverError,
)
from hetdata.model import (TAU_MAX, TAU_MIN, default_params, draw_record,
                           validate)
from hetdata.numerics import log_ndtr, make_stream, portfolio_moment, shock_mean
from hetdata.threshold import (
    _moment_term,
    log_ce_provider,
    log_ce_user,
    log_ratio_and_slope,
    provider_utility,
    solve_threshold,
    tail_expectation,
    user_utility,
)
from domain import box
from oracle import mp_log_ratio, mp_sf, mp_threshold


def F_threshold(tau, mu, params):
    """Right-hand side F(tau, mu) of the fixed-point equation, assembled
    from the solver's own parts."""
    logit = math.log(tau) - math.log1p(-tau)
    v = params.sigma_mu * params.sigma_mu
    return logit + 0.5 * v - _moment_term(params) + log_ratio_and_slope(mu, v)[0]


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


class TestSolveThreshold:
    def test_symmetry_identity(self):
        params = default_params(theta=1e-12, sigma_mu=1.0)
        sol = solve_threshold(0.5, params)
        assert sol.mu_k == pytest.approx(0.5, abs=1e-12)
        assert sol.m == pytest.approx(1.0 - 0.6914624612740131, abs=1e-10)

    def test_matches_bisection_oracle(self):
        params = default_params(theta=0.1, gamma=2.0, sigma_idio=0.5, sigma_mu=1.0)
        sol = solve_threshold(0.6, params)
        exact, exact_m = mp_threshold(0.6, params, _moment_term(params),
                                      sol.mu_k)
        assert abs(sol.mu_k - exact) <= 1e-12 * max(abs(exact), 1.0)
        assert abs(sol.m - exact_m) <= 1e-12 * exact_m

    def test_solution_invariants(self):
        params = default_params()
        for tau in (0.2, 0.5, 0.8):
            sol = solve_threshold(tau, params)
            assert sol.m == pytest.approx(mp_sf(sol.mu_k), abs=1e-10)
            assert sol.tail_mean >= math.exp(0.5)
            assert abs(sol.residual) <= 1e-10
            assert sol.K == sol.mu_k + params.mu_bar

    def test_participation_decreasing_in_tau(self):
        params = default_params()
        ms = [solve_threshold(t, params).m for t in np.linspace(0.1, 0.9, 9)]
        assert all(b < a for a, b in zip(ms, ms[1:]))

    # the census box, for the inputs F depends on
    @given(*map(box, ("gamma", "sigma_mu", "sigma_idio", "theta", "tau")))
    @settings(max_examples=200, deadline=None)
    def test_first_lower_end_lies_below_root(self, gamma, sigma_mu,
                                             sigma_idio, theta, tau):
        # solve_threshold never evaluates its lower end: G(lo) = lo - F(lo)
        # is below -20 there for every validated parameter set
        params = default_params(gamma=gamma, sigma_mu=sigma_mu,
                                sigma_idio=sigma_idio, theta=theta, tau=tau)
        moment = _moment_term(params)
        logit = math.log(tau) - math.log1p(-tau)
        lo = min(logit, 0.0) - 6.0 * sigma_mu
        v = sigma_mu * sigma_mu
        F = logit + 0.5 * v - moment + log_ratio_and_slope(lo, v)[0]
        assert F > lo + 20.0


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


# (gamma, sigma_mu, sigma_idio, theta, tau): the census box for gamma,
# sigma_idio and theta; tau over its validated band and at its ends;
# sigma_mu log-uniform from just above validate's floor, 2^-511, to 3, and
# up to 36, just short of the tail mean's overflow
SOLVE_BOX = (box("gamma"),
             st.one_of(st.floats(math.log(1.5e-154), math.log(3.0)).map(math.exp),
                       st.floats(3.0, 36.0)),
             box("sigma_idio"), box("theta"),
             st.one_of(st.floats(TAU_MIN, TAU_MAX),
                       st.sampled_from([TAU_MIN, TAU_MAX])))


class TestNewtonSolve:
    @given(*SOLVE_BOX)
    @settings(max_examples=100, deadline=None)
    def test_matches_mpmath_bisection(self, gamma, sigma_mu, sigma_idio,
                                      theta, tau):
        params = default_params(gamma=gamma, sigma_mu=sigma_mu,
                                sigma_idio=sigma_idio, theta=theta, tau=tau)
        with pytest.MonkeyPatch.context() as monkeypatch:
            points = count_evaluations(monkeypatch)
            try:
                sol = solve_threshold.__wrapped__(tau, params)
            except HetdataError:  # a tail mean that overflows
                assume(False)
        assert len(points) == sol.iterations <= MAX_EVALUATIONS
        exact, exact_m = mp_threshold(tau, params, _moment_term(params),
                                      sol.mu_k)
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
            for k in np.linspace(-8.0, 8.0, 33).tolist():
                mu = 0.5 * v + k * sigma_mu
                value, slope = log_ratio_and_slope(mu, v)
                assert (abs(value - mp_log_ratio(mpmath.mpf(mu), v))
                        <= 1e-13 * max(1.0, abs(value)))
                exact = mpmath.diff(lambda m: mp_log_ratio(m, v), mpmath.mpf(mu))
                assert abs(slope - exact) <= 1e-12 * abs(exact)


def reevaluated_sensitivity(tau, params, mu_k):
    """F_tau / (1 - F_mu) at mu_k, with F_mu evaluated there once more."""
    v = params.sigma_mu * params.sigma_mu
    return 1.0 / (tau * (1.0 - tau)) / (1.0 - log_ratio_and_slope(mu_k, v)[1])


class TestThresholdSlope:
    """dmu_dtau is the slope the solve holds at its root: bit for bit the
    value of a second evaluation of F_mu there."""

    @given(*SOLVE_BOX)
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equals_second_evaluation(self, gamma, sigma_mu,
                                              sigma_idio, theta, tau):
        params = default_params(gamma=gamma, sigma_mu=sigma_mu,
                                sigma_idio=sigma_idio, theta=theta, tau=tau)
        try:
            sol = solve_threshold(tau, params)
        except HetdataError:  # a tail mean that overflows
            assume(False)
        assert sol.dmu_dtau.hex() == reevaluated_sensitivity(
            tau, params, sol.mu_k).hex()
        assert sol.dmu_dtau > 0.0

    @pytest.mark.parametrize("sigma_mu", [0.25, 0.5, 1.0, 2.0])
    def test_zero_step_symmetric_point(self, sigma_mu):
        # the root is the closed-form start v/2, so the slope is the start's
        # closed form, never an evaluation of G
        params = default_params(theta=1e-12, sigma_mu=sigma_mu)
        sol = solve_threshold.__wrapped__(0.5, params)
        assert sol.iterations == 0
        assert sol.dmu_dtau.hex() == reevaluated_sensitivity(
            0.5, params, sol.mu_k).hex()


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
        overflowing = default_params(theta=0.999, sigma_idio=3.0, gamma=200.0)
        for tau, params, error in [(1e-7, default_params(), InvalidInputError),
                                   (0.5, overflowing, EvaluationError)]:
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

    # e^((1 - gamma) CE) overflows at (0.01, 1e308, 10); at (0.5, 1, 1419.5)
    # it is e^709.4, finite, and the division by 1 - gamma overflows
    @pytest.mark.parametrize("gamma, D, mu_i", [(0.01, 1e308, 10.0),
                                                (0.5, 1.0, 1419.5)])
    def test_level_overflow_raises_named_error(self, gamma, D, mu_i):
        params = default_params(gamma=gamma, D=D)
        ce = log_ce_user(mu_i, 0.5, params)
        with pytest.raises(NumericalRangeError,
                           match=rf"gamma={gamma}, log CE={ce}$"):
            user_utility(mu_i, 0.5, params)

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


def product_user_utility(mu_i, tau, params):
    """The user's expected utility as written before the log certainty
    equivalents: a log sum at gamma = 1, else a product of powers."""
    if params.gamma == 1.0:
        return (math.log1p(-tau) + math.log(params.D) + mu_i
                + shock_mean(params.sigma_agg)
                + portfolio_moment(params.theta, params.sigma_idio, 1.0))
    a = 1.0 - params.gamma
    return ((1.0 - tau) ** a * params.D ** a * math.exp(a * mu_i) / a
            * _agg_moment(params)
            * portfolio_moment(params.theta, params.sigma_idio, params.gamma))


def product_provider_utility(tau, m, tail_mean, params):
    """The provider's expected utility as written before the log certainty
    equivalents."""
    if params.gamma == 1.0:
        return (math.log(tau) + math.log(params.D)
                + shock_mean(params.sigma_agg) + math.log(m)
                + math.log(tail_mean) - math.log1p(-m))
    a = 1.0 - params.gamma
    return (tau ** a * params.D ** a * _agg_moment(params) * tail_mean ** a
            * (m / (1.0 - m)) ** a / a)


def _agg_moment(params):
    """E[e^((1-gamma) eps_agg)], eps_agg ~ N(-sigma^2/2, sigma^2)."""
    a = 1.0 - params.gamma
    s2 = params.sigma_agg * params.sigma_agg
    return math.exp(-0.5 * a * s2 + 0.5 * a * a * s2)


def _verify_sets(seed):
    """verify's threshold_indifference sets at one seed, from its stream."""
    gen = make_stream(seed, 900)
    return [validate(draw_record(gen)) for _ in range(10)]


# verify's threshold_indifference cases at seeds 0-49: 1,000 solved sets
VERIFY_CASES = [
    (params, solve_threshold(params.tau, params))
    for seed in range(50)
    for base in _verify_sets(seed)
    for params in (base, dataclasses.replace(base, gamma=1.0))
]


class TestLogCertaintyEquivalents:
    @pytest.mark.parametrize("seed", [0, 49])
    def test_cases_are_verifys_sets(self, seed):
        cases = VERIFY_CASES[20 * seed:20 * seed + 20]
        gaps = [verify.indifference_gaps(sol, params) for params, sol in cases]
        worst = dict(zip(("worst_rel_error", "worst_log_ce_gap"),
                         map(max, zip(*gaps))))
        assert verify.check_threshold_indifference(seed).detail == worst

    def test_gap_at_threshold_is_the_solve_residual(self):
        for params, sol in VERIFY_CASES:
            gap = (log_ce_user(sol.K, params.tau, params)
                   - log_ce_provider(params.tau, sol.m, sol.tail_mean, params))
            assert abs(gap - sol.residual) <= 1e-12

    @pytest.mark.parametrize("tau", [0.2, 0.5, 0.7])
    def test_log_utility_is_the_certainty_equivalent_bit_for_bit(self, tau):
        params = default_params(gamma=1.0)
        sol = solve_threshold(tau, params)
        for mu_i in (-1.0, 0.3, sol.K):
            assert user_utility(mu_i, tau, params).hex() == log_ce_user(
                mu_i, tau, params).hex()
        assert provider_utility(tau, sol.m, sol.tail_mean, params).hex() == (
            log_ce_provider(tau, sol.m, sol.tail_mean, params).hex())

    def test_levels_match_the_product_forms(self):
        compared = 0
        for params, sol in VERIFY_CASES:
            tau = params.tau
            pairs = [(user_utility(sol.K, tau, params),
                      product_user_utility(sol.K, tau, params)),
                     (provider_utility(tau, sol.m, sol.tail_mean, params),
                      product_provider_utility(tau, sol.m, sol.tail_mean,
                                               params))]
            for new, old in pairs:
                if params.gamma == 1.0:  # the same sum, in the same order
                    assert new.hex() == old.hex()
                elif math.isfinite(old) and old != 0.0:
                    assert abs(new - old) <= 1e-13 * abs(old)
                    compared += 1
        # every gamma != 1 case, both roles
        assert compared == 2 * sum(p.gamma != 1.0 for p, _ in VERIFY_CASES)

    # the census box's ranges of the fields the log CE reads
    @given(box("gamma"), box("sigma_mu"), box("sigma_agg"), box("sigma_idio"),
           box("theta"), box("tau"), box("D"), st.floats(-10.0, 10.0),
           st.one_of(st.floats(-10.0, 10.0), st.floats(-1e-6, 1e-6)))
    @settings(max_examples=300, deadline=None)
    def test_user_log_ce_has_slope_one(self, gamma, sigma_mu, sigma_agg,
                                       sigma_idio, theta, tau, D, mu, d):
        # a user's log CE is mu_i plus a constant, so the two roles' log CEs
        # cross at K plus the gap at K that verify's indifference gate reads,
        # and every agent off that crossing sorts by ability.  The difference
        # of the two five-term sums missed d by at most 5.2 eps of their
        # largest term over 150,000 draws from the box; 8 eps leaves a
        # factor of 1.5
        params = default_params(gamma=gamma, sigma_mu=sigma_mu,
                                sigma_agg=sigma_agg, sigma_idio=sigma_idio,
                                theta=theta, tau=tau, D=D)
        x = mu + d
        rise = log_ce_user(x, tau, params) - log_ce_user(mu, tau, params)
        largest = max(abs(t) for t in (
            math.log1p(-tau), math.log(D), mu, x,
            gamma * shock_mean(sigma_agg), _moment_term(params)))
        assert abs(rise - d) <= 8.0 * 2.0 ** -52 * largest

    def test_displaced_threshold_fails_the_log_gate_only(self):
        # the levels are about -2.2e-12 here, so the level gate cannot see
        # a threshold 0.01 off; the log certainty equivalents can
        params = default_params(gamma=8.0, D=50.0)
        sol = solve_threshold(params.tau, params)
        level, log_ce = verify.indifference_gaps(sol, params)
        assert level <= verify._LEVEL_TOL and log_ce <= verify._LOG_CE_TOL
        shifted = dataclasses.replace(sol, K=sol.K + 0.01)
        level, log_ce = verify.indifference_gaps(shifted, params)
        assert level <= verify._LEVEL_TOL  # a gap of 1.5e-13
        assert log_ce > verify._LOG_CE_TOL
        assert log_ce == pytest.approx(2.8e-3, rel=0.01)


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
