import math
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetdata import wealth
from hetdata.cli import EXIT_OK, main
from hetdata.errors import (
    InvalidInputError,
    NoSolutionError,
    NumericalRangeError,
)
from hetdata.model import default_params
from hetdata.numerics import make_stream
from hetdata.wealth import (
    expected_capital,
    f_lambda,
    f_mu,
    figure1_curves,
    log_f_mu,
    _terminal_capital,
    mc_expected_capital,
    solve_lambda,
)

# lambda=2, W0=1, r_f=0.02, alpha=0.5, mu0=0.08, w=0.1, L=0.2, t=1:
# mu_hat = 0.1, rate = 0.02 + 0.05 - 2 - 0.01 = -1.94
REFERENCE = default_params()
REFERENCE_EK1 = 2.0 * math.exp(-1.94)

mpmath.mp.dps = 50


def _oracle(mu_i, params):
    """(log f, u*) in 50-digit arithmetic from the float parameters, where
    u* = lambda* t* = -W_{-1}(-e^(-c)), c = log f - log t*, is the root of
    u - log u = c on the branch u >= t*, or None where there is none."""
    mpf = mpmath.mpf
    loss = sum(mpf(v) * mpf(q) for v, q in zip(params.loss.values,
                                                params.loss.probs))
    alpha, w = mpf(params.alpha), mpf(params.w)
    rate = mpf(params.r_f) + alpha * (mpf(params.mu0) + w * loss) - w * alpha * loss
    log_f = (mpf(mu_i) - mpf(params.sigma_agg) ** 2 / 2
             - mpf(params.sigma_idio) ** 2 / 2 + mpmath.log(params.D)
             + mpmath.log(1 - mpf(params.tau)) - mpmath.log(params.EK_target)
             + rate * params.t_star)
    c = log_f - mpmath.log(params.t_star)
    if c < 1:
        return log_f, None
    u = -mpmath.lambertw(-mpmath.exp(-c), -1).real
    return log_f, (u if u >= params.t_star else None)


class TestExpectedCapital:
    def test_riskless_collapse(self):
        params = default_params(alpha=0.0)
        assert expected_capital(params, 1.0, 2.0) == pytest.approx(
            2.0 * math.exp(params.r_f - 2.0), rel=1e-14
        )

    def test_reference_value(self):
        assert expected_capital(REFERENCE, 1.0, 2.0) == pytest.approx(
            REFERENCE_EK1, rel=1e-14
        )

    def test_pure_diffusion_mean(self):
        # diffusion variance cancels in the mean
        params = default_params(w=0.0)
        assert expected_capital(params, 1.0, 2.0) == pytest.approx(
            2.0 * math.exp(params.r_f + 0.5 * 0.08 - 2.0), rel=1e-14
        )

    @pytest.mark.parametrize("t, lam", [
        (math.nan, 1.5), (2.0, math.nan), (math.inf, 1.5), (2.0, math.inf),
        (0.0, 1.5), (2.0, 0.5),
    ])
    def test_bad_t_or_lambda_rejected(self, t, lam):
        # each NaN, and lambda = inf, gave nan before
        with pytest.raises(InvalidInputError):
            expected_capital(REFERENCE, t, lam)

    @pytest.mark.parametrize("mu0, W0", [(1000.0, 1.0), (700.0, 1e10)])
    def test_overflow_raises_named_error(self, mu0, W0):
        # the exponential overflows, or the product with W0 does
        with pytest.raises(NumericalRangeError, match="E K_t overflows"):
            expected_capital(default_params(mu0=mu0, W0=W0), 2.0, 1.5)

    @pytest.mark.parametrize("t, lam", [(2.0, 1e10), (5e-8, 1e9),
                                        (8e-7, 1e9)])
    def test_out_of_range_factor_meets_mpmath(self, t, lam):
        # lambda W0 overflows while e^(rate t) underflows to 0 or is 1.9e-22,
        # or e^(rate t) underflows alone: the product read NaN, raised or
        # read 0, though E K_t is 0 to double precision, 1.93e287 or 3.6e-39
        params = default_params(W0=1e300)
        mpf = mpmath.mpf
        rate = (mpf(params.r_f) + mpf(params.alpha) * mpf(params.mu_hat)
                - mpf(lam) - mpf(params.w) * mpf(params.alpha)
                * mpf(params.loss.mean))
        exact = float(mpf(lam) * mpf(params.W0) * mpmath.exp(rate * mpf(t)))
        assert expected_capital(params, t, lam) == pytest.approx(exact,
                                                                 rel=1e-13)


class TestTerminalCapital:
    """The vectorized exact paths behind mc_expected_capital."""

    def test_deterministic_case(self):
        params = default_params(sigma_w=0.0, w=0.0)
        logK = np.log(_terminal_capital(params, 1.5, 2.0, 100, make_stream(1, 0)))
        drift = params.r_f + 0.5 * params.mu_hat - 1.5
        assert np.allclose(logK, math.log(1.5) + drift * 2.0, rtol=0.0, atol=1e-12)

    def test_diffusion_moments(self):
        # w = 0: log K_t - log(lambda W0) ~ N(drift t, (alpha sigma_w)^2 t)
        params = default_params(w=0.0)
        n, t, lam = 100_000, 2.0, 1.5
        drift = (
            params.r_f + 0.5 * params.mu_hat
            - 0.5 * 0.25 * params.sigma_w ** 2 - lam
        )
        terminals = _terminal_capital(params, lam, t, n, make_stream(3, 0))
        increments = np.log(terminals) - math.log(lam * params.W0)
        var = (0.5 * params.sigma_w) ** 2 * t
        se_mean = math.sqrt(var / n)
        assert abs(float(np.mean(increments)) - drift * t) <= 3.0 * se_mean
        sample_var = float(np.var(increments, ddof=1))
        se_var = var * math.sqrt(2.0 / (n - 1))
        assert abs(sample_var - var) <= 3.0 * se_var

    def test_jump_count_mean(self):
        # sigma_w = 0 and a constant loss: each jump moves log K by
        # log(1 - alpha L), so the jump count is recoverable from log K_t
        params = default_params(w=0.5, sigma_w=0.0, loss=0.2)
        n, t, lam = 100_000, 4.0, 1.5
        drift = params.r_f + 0.5 * params.mu_hat - lam
        terminals = _terminal_capital(params, lam, t, n, make_stream(9, 0))
        jumps = (np.log(terminals) - math.log(lam * params.W0) - drift * t) / (
            math.log1p(-0.5 * 0.2)
        )
        counts = np.round(jumps)
        assert np.max(np.abs(jumps - counts)) <= 1e-9
        se = math.sqrt(params.w * t / n)
        assert abs(float(np.mean(counts)) - params.w * t) <= 3.0 * se


class TestMcExpectedCapital:
    def test_degenerate_alpha_zero(self):
        params = default_params(alpha=0.0, w=0.0)
        closed = expected_capital(params, params.t_star, 1.5)
        est, se = mc_expected_capital(params, 1.5, params.t_star, 1000, 11)
        assert se == 0.0
        assert est == pytest.approx(closed, rel=1e-14)

    def test_reference_case_within_three_se(self):
        est, se = mc_expected_capital(REFERENCE, 2.0, 1.0, 100_000, 13)
        assert abs(est - REFERENCE_EK1) <= 3.0 * se

    def test_jump_product_identity(self):
        # E prod(1 - alpha L_i) = exp(w t (-alpha L)) for constant L
        params = default_params()
        w, t, n = 0.1, 2.0, 200_000
        stream = make_stream(15, 0)
        counts = stream.poisson(w * t, n)
        products = (1.0 - 0.5 * 0.2) ** counts
        observed = float(np.mean(products))
        se = float(np.std(products, ddof=1) / math.sqrt(n))
        assert abs(observed - math.exp(w * t * (-0.5 * 0.2))) <= 3.0 * se

    def test_deterministic_given_seed(self):
        a = mc_expected_capital(REFERENCE, 1.5, 2.0, 50_000, 21)
        b = mc_expected_capital(REFERENCE, 1.5, 2.0, 50_000, 21)
        assert a == b

    def test_minimum_paths(self):
        with pytest.raises(InvalidInputError):
            mc_expected_capital(REFERENCE, 1.5, 2.0, 50, 1)

    def test_memo_bitwise_equals_uncached(self):
        mc_expected_capital.cache_clear()
        cases = [(REFERENCE, 1.5, 2.0, 20_000, 3),
                 (default_params(w=0.0), 1.5, 2.0, 20_000, 3),
                 (default_params(alpha=0.0, w=0.0), 1.5, 2.0, 1000, 3),
                 (REFERENCE, 2.0, 1.0, 1000, 4)]
        for args in cases:
            for _ in range(2):  # a miss, then a hit
                est, se = mc_expected_capital(*args)
                ref_est, ref_se = mc_expected_capital.__wrapped__(*args)
                assert (est.hex(), se.hex()) == (ref_est.hex(), ref_se.hex())
        info = mc_expected_capital.cache_info()
        assert (info.misses, info.hits) == (len(cases), len(cases))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t, lam", [
        (math.nan, 1.5), (2.0, math.nan), (math.inf, 1.5), (2.0, math.inf),
        (2.0, 0.5), (2.0, 0.0), (2.0, -1.0),
    ])
    def test_bad_t_or_lambda_rejected(self, t, lam):
        # the lambdas and ts that expected_capital refuses: before, lambda
        # 0.5 was simulated, 0 and -1 raised an untyped math domain error,
        # NaN lambda read as an overflow, and NaN or inf t raised numpy's
        # untyped ValueError
        with pytest.raises(InvalidInputError):
            mc_expected_capital(REFERENCE, lam, t, 1000, 1)

    def test_failed_call_leaves_no_entry(self):
        mc_expected_capital.cache_clear()
        for args in [(REFERENCE, 1.5, 2.0, 50, 1), (REFERENCE, 1.5, 0.0, 1000, 1)]:
            with pytest.raises(InvalidInputError):
                mc_expected_capital(*args)
        assert mc_expected_capital.cache_info().currsize == 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_path_squares_raise_named_error(self):
        # E K_t* is 1.2e153, below sqrt(max float), but about 1% of the
        # paths lie above it, so their squares overflow
        params = default_params(mu0=355.0, sigma_w=2.0)
        mc_expected_capital.cache_clear()
        with pytest.raises(NumericalRangeError, match="squared Monte Carlo"):
            mc_expected_capital(params, 1.5, params.t_star, 1000, 1)
        assert mc_expected_capital.cache_info().currsize == 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_initial_capital_underflows_to_zero(self):
        # lambda W0 overflows, but the paths' log mean sums the logs, so every
        # path underflows to 0, as E K_t does, instead of reading NaN, which
        # was reported as squared paths that overflow
        params = default_params(W0=1e300)
        assert mc_expected_capital(params, 1e10, 2.0, 1000, 1) == (0.0, 0.0)


TWO_POINT = {"values": [0.1, 0.4], "probs": [0.7, 0.3]}


class TestMcBits:
    """mc_expected_capital gives the bits of a plain batch loop that draws
    every path's normals, jump counts and jump splits, needed or not."""

    CASES = [default_params(alpha=0.0, w=0.0),  # verify's three cases
             default_params(w=0.0),
             default_params(),
             default_params(w=0.5, loss=TWO_POINT),
             default_params(sigma_w=0.0, w=0.5),
             default_params(w=0.0, loss=TWO_POINT)]

    @staticmethod
    def _reference(params, lam, t, n_paths, seed):
        a, s, loss = params.alpha, params.sigma_w, params.loss
        drift = params.r_f + a * params.mu_hat - 0.5 * a * a * s * s - lam
        total = total_sq = 0.0
        done = batch = 0
        while done < n_paths:
            n = min(16384, n_paths - done)
            stream = make_stream(seed, batch)
            logK = math.log(lam) + math.log(params.W0) + drift * t
            logK = logK + a * s * math.sqrt(t) * stream.standard_normal(n)
            counts = stream.poisson(params.w * t, n)
            if len(loss.values) == 1:
                logK = logK + counts * math.log1p(-a * loss.values[0])
            else:
                k1 = stream.binomial(counts, loss.probs[0])
                logK = (logK + k1 * math.log1p(-a * loss.values[0])
                        + (counts - k1) * math.log1p(-a * loss.values[1]))
            k = np.exp(logK)
            total += float(np.sum(k))
            total_sq += float(np.sum(k * k))
            done += n
            batch += 1
        mean = total / n_paths
        var = max(total_sq / n_paths - mean * mean, 0.0)
        return mean, math.sqrt(var / n_paths)

    @pytest.mark.parametrize("params", CASES)
    @pytest.mark.parametrize("n_paths", [100, 16_384, 40_000])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_bitwise_equal_to_plain_loop(self, params, n_paths, seed):
        args = (params, 1.5, params.t_star, n_paths, seed)
        est, se = mc_expected_capital.__wrapped__(*args)
        ref_est, ref_se = self._reference(*args)
        assert (est.hex(), se.hex()) == (ref_est.hex(), ref_se.hex())


class TestFLambda:
    def test_values(self):
        assert f_lambda(1.0, 2.0) == pytest.approx(math.e ** 2, rel=1e-14)
        assert f_lambda(2.0, 1.0) == pytest.approx(math.e ** 2 / 2.0, rel=1e-14)

    def test_increasing_on_branch(self):
        assert f_lambda(1.5, 2.0) > f_lambda(1.0, 2.0)

    def test_algebraic_self_check(self):
        for lam, t in [(1.0, 2.0), (3.0, 1.5), (10.0, 4.0)]:
            assert f_lambda(lam, t) * lam * math.exp(-lam * t) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_overflow_guard(self):
        with pytest.raises(NumericalRangeError):
            f_lambda(400.0, 2.0)

    @pytest.mark.parametrize("lam, t", [
        (math.nan, 2.0), (1.5, math.nan), (math.inf, 2.0), (1.5, math.inf),
        (0.0, 2.0), (1.5, 0.0),
    ])
    def test_bad_lambda_or_t_rejected(self, lam, t):
        # each NaN, and lambda = inf, gave nan before
        with pytest.raises(InvalidInputError):
            f_lambda(lam, t)

    def test_value_below_exp_overflow_keeps_its_bits(self):
        # lambda t = 704, past the old cap of 700
        assert f_lambda(352.0, 2.0).hex() == (math.exp(704.0) / 352.0).hex()

    def test_finite_quotient_past_exp_overflow(self):
        # e^(lambda t) overflows above lambda t = 709.78; the quotient is
        # e^704.13.  Rounding lambda t - log lambda costs half an ulp of 704,
        # 5.7e-14 relative
        expected = mpmath.exp(710) / 355
        assert f_lambda(355.0, 2.0) == pytest.approx(float(expected), rel=1e-12)

    @pytest.mark.parametrize("lam, t", [
        (358.0, 2.0),    # lambda t - log lambda = 710.1
        (0.5, 1419.0),   # e^709.5 is finite, its quotient by 0.5 is not
    ])
    def test_overflowing_quotient_raises(self, lam, t):
        with pytest.raises(NumericalRangeError, match="overflows"):
            f_lambda(lam, t)


class TestFMu:
    def test_exponential_factorization(self):
        params = default_params()
        assert f_mu(1.3, params) == pytest.approx(
            math.e * f_mu(0.3, params), rel=1e-12
        )

    def test_constructed_identity(self):
        # choose EK_target so every factor cancels
        rate = 0.02 + 0.5 * 0.1 - 0.1 * 0.5 * 0.2
        params = default_params(tau=0.5, D=2.0, EK_target=math.exp(rate * 2.0))
        # mu_i + eps0 + eps_i0 = 0 and D(1 - tau) = 1
        s, s_i = params.sigma_agg, params.sigma_idio
        mu_i = -(-0.5 * (s * s) + -0.5 * (s_i * s_i))
        assert f_mu(mu_i, params) == pytest.approx(1.0, rel=1e-12)

    def test_term_by_term_assembly(self):
        params = default_params()
        # both shocks sit at their means -sigma^2/2
        eps0 = -0.5 * params.sigma_agg ** 2
        eps_i0 = -0.5 * params.sigma_idio ** 2
        rate = params.r_f + 0.5 * params.mu_hat - params.w * 0.5 * 0.2
        expected = (
            math.exp(0.7 + eps0 + eps_i0)
            * params.D * (1.0 - params.tau) / params.EK_target
            * math.exp(rate * params.t_star)
        )
        assert f_mu(0.7, params) == pytest.approx(expected, rel=1e-12)

    def test_overflow_guard(self):
        params = default_params()
        # 800: e^mu_i itself overflows; 709: e^mu_i is finite, the product is
        # not.  Only the level overflows: its log and lambda* are finite
        for mu_i in (800.0, 709.0):
            with pytest.raises(NumericalRangeError, match=f"mu_i={mu_i}"):
                f_mu(mu_i, params)
            log_f = log_f_mu(mu_i, params)
            assert log_f == pytest.approx(mu_i + log_f_mu(0.0, params),
                                          rel=1e-15)
            lam = solve_lambda(mu_i, params)
            u = lam * params.t_star
            assert u > 700.0
            assert abs(u - math.log(lam) - log_f) <= 1e-15 * u

    @pytest.mark.parametrize("mu_i", [math.nan, math.inf, -math.inf])
    def test_non_finite_ability_named(self, mu_i):
        params = default_params()
        for layer in (log_f_mu, f_mu, solve_lambda):
            with pytest.raises(InvalidInputError, match=f"at mu_i={mu_i}$"):
                layer(mu_i, params)


class TestSolveLambda:
    def test_trivial_root(self):
        params = default_params()
        # pick mu so the target level is exactly e^(t*)
        mu = params.t_star - math.log(f_mu(0.0, params))
        lam = solve_lambda(mu, params)
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert lam * params.t_star > 1.0

    # mu_trivial = t* - log f_mu(0) = -1.1938758248682007 at default params;
    # a target below the minimum e^(t*) by less than the no-solution
    # tolerance (relative 1e-12) is the branch start, not an empty bracket
    @pytest.mark.parametrize("offset", [0.0, 1e-13, 5e-13, 9e-13])
    def test_just_below_branch_minimum_is_trivial_root(self, offset):
        params = default_params()
        mu = params.t_star - math.log(f_mu(0.0, params))
        assert mu == -1.1938758248682007
        assert solve_lambda(mu - offset, params) == 1.0

    def test_past_no_solution_tolerance_reported(self):
        params = default_params()
        with pytest.raises(NoSolutionError):
            solve_lambda(-1.1938758248682007 - 5e-12, params)

    def test_monotone_in_ability(self):
        params = default_params()
        grid = np.linspace(0.0, 2.5, 50)
        lams = [solve_lambda(float(m), params) for m in grid]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_fine_grid_bisection_oracle(self):
        params = default_params()
        target = f_mu(1.0, params)
        lo, hi = 1.0, 100.0
        g = lambda lam: lam * params.t_star - math.log(lam) - math.log(target)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert solve_lambda(1.0, params) == pytest.approx(
            0.5 * (lo + hi), abs=1e-10
        )

    def test_root_below_overflow_bound(self):
        # lambda* ~ 303.955 lies below e^(lambda t*)'s bound 700 / t* = 350,
        # so the residual can be checked against f_mu itself
        params = default_params()
        lam = solve_lambda(599.0, params)
        assert lam == pytest.approx(303.955, abs=1e-3)
        assert lam * params.t_star <= 700.0
        residual = (lam * params.t_star - math.log(lam)
                    - math.log(f_mu(599.0, params)))
        assert abs(residual) <= 1e-12 * lam * params.t_star

    def test_root_beyond_overflow_bound_solved(self):
        # lambda* > 700 / t* = 350, where e^(lambda t*) overflows; in log
        # space that bound does not exist, and the root is the oracle's
        params = default_params()
        for mu_i, approx in ((695.0, 352.0288), (705.0, 357.0359)):
            lam = solve_lambda(mu_i, params)
            _, u_star = _oracle(mu_i, params)
            assert lam == pytest.approx(approx, abs=1e-4)
            assert abs(lam - u_star / params.t_star) <= 1e-15 * lam

    def test_no_solution_reported(self):
        # the target and the branch minimum e^(t*) are reported as logs
        params = default_params()
        with pytest.raises(NoSolutionError) as err:
            solve_lambda(-30.0, params)
        assert err.value.target == log_f_mu(-30.0, params)
        assert err.value.branch_minimum == params.t_star

    @pytest.mark.parametrize("mu_i", [0.0, 700.0])
    def test_no_solution_where_branch_minimum_overflows(self, mu_i):
        # e^(t*) overflows at t* = 800, and at mu_i = 700 so does f; the logs
        # are finite and ordered, and no OverflowError escapes
        params = default_params(t_star=800.0)
        with pytest.raises(NoSolutionError) as err:
            solve_lambda(mu_i, params)
        assert err.value.target < err.value.branch_minimum == 800.0


@st.composite
def _friction_cases(draw):
    """(mu_i, params) over t* in [1.01, 20], within 1e-6 of 1, and 800;
    EK_target log-uniform in [1e-4, 10]; mu_i in [-5, 30], in [-5, 810]
    (roots past 700 / t*, and f overflowing), and just above the mu_i whose
    f is e^(t*), where the root sits at lambda = 1, ill-conditioned."""
    t_star = draw(st.one_of(st.floats(1.01, 20.0),
                            st.floats(1.0, 1.0 + 1e-6, exclude_min=True),
                            st.just(800.0)))
    log_ek = draw(st.floats(math.log(1e-4), math.log(10.0)))
    params = default_params(t_star=t_star, EK_target=math.exp(log_ek))
    mu_start = t_star - log_f_mu(0.0, params)
    mu_i = draw(st.one_of(st.floats(-5.0, 30.0), st.floats(-5.0, 810.0),
                          st.floats(-1e-9, 1e-3).map(lambda d: mu_start + d)))
    return mu_i, params


class TestSolveLambdaOracle:
    """lambda* against the Lambert-W root.  With kappa = 1/(1 - 1/(lambda*
    t*)), the root's condition number, the worst relative error over 3,000
    draws of this box was 6.0e-16 kappa (kappa up to 7.1e4), and no solve
    took more than 20 Newton steps."""

    @given(_friction_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_lambert_w(self, case):
        mu_i, params = case
        t = params.t_star
        log_f, u_star = _oracle(mu_i, params)
        logs = []  # wealth's math module, with log recording its arguments
        counting_math = types.SimpleNamespace(
            **dict(vars(math), log=lambda x: logs.append(x) or math.log(x)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wealth, "math", counting_math)
            try:
                lam = solve_lambda.__wrapped__(mu_i, params)
            except NoSolutionError as err:
                # f < e^(t*) (1 - 1e-12): the oracle's f is below e^(t*) too
                assert err.target < err.branch_minimum
                assert u_star is None
                return
        # four logs build c and the start (D, EK_target, t*, c); each further
        # one is a Newton step
        assert len(logs) <= 4 + 30
        if lam == 1.0:  # the branch start, within its tolerance of e^(t*)
            assert abs(log_f - t) <= 2e-12 * max(1.0, t)
            return
        assert u_star is not None
        kappa = 1.0 / (1.0 - 1.0 / float(u_star))
        star = u_star / t
        assert abs(lam - star) <= 1e-13 * kappa * star


class TestSolveLambdaMemo:
    CASES = [(mu, default_params(alpha=alpha, t_star=t_star))
             for mu in (-1.0, 0.5, 3.0, 599.0)
             for alpha in (0.0, 0.5)
             for t_star in (1.5, 2.0)]

    def test_memo_bitwise_equals_uncached(self):
        solve_lambda.cache_clear()
        for mu, params in self.CASES:
            for _ in range(2):  # a miss, then a hit
                lam = solve_lambda(mu, params)
                assert type(lam) is float
                assert lam.hex() == solve_lambda.__wrapped__(mu, params).hex()
        info = solve_lambda.cache_info()
        assert (info.misses, info.hits) == (len(self.CASES), len(self.CASES))

    def test_equal_params_share_an_entry(self):
        solve_lambda.cache_clear()
        first = solve_lambda(0.7, default_params())
        assert solve_lambda(0.7, default_params()) is first
        assert solve_lambda.cache_info().currsize == 1

    def test_failed_call_leaves_no_entry(self):
        solve_lambda.cache_clear()
        params = default_params()
        mu_trivial = params.t_star - math.log(f_mu(0.0, params))
        for mu, error in [(mu_trivial - 50.0, NoSolutionError),
                          (math.nan, InvalidInputError)]:
            for _ in range(2):
                with pytest.raises(error):
                    solve_lambda(mu, params)
        assert solve_lambda.cache_info().currsize == 0


class TestFigure1:
    def test_trivial_intersection(self):
        params = default_params()
        mu = params.t_star - math.log(f_mu(0.0, params))
        _, levels = figure1_curves(params, [1.0, 1.5, 2.0], [mu])
        assert levels[0][2] == pytest.approx(1.0, abs=1e-10)

    def test_ordering_of_intersections(self):
        params = default_params()
        _, levels = figure1_curves(params, [1.0, 2.0], [0.5, 1.5])
        assert levels[1][2] > levels[0][2]

    def test_missing_intersection_flagged(self):
        params = default_params()
        curve, levels = figure1_curves(params, [1.0, 2.0], [-30.0])
        assert curve == [(1.0, f_lambda(1.0, params.t_star)),
                         (2.0, f_lambda(2.0, params.t_star))]
        assert levels == [(-30.0, f_mu(-30.0, params), None)]

    def test_csv_format(self, tmp_path):
        # mu = -30 has no root, mu = 0.5 has one; the CLI writes both
        params = default_params()
        code = main(["figure1", "--lambda-grid", "1.0:2.0:1.0",
                     "--mu-grid=-30.0:0.5:30.5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "figure1.csv").read_text().splitlines()
        t = params.t_star
        assert lines == [
            "lambda,f_lambda",
            f"1.0,{f_lambda(1.0, t)!r}",
            f"2.0,{f_lambda(2.0, t)!r}",
            "",
            "mu,level,lambda_star",
            # the missing intersection leaves the column empty, never fabricated
            f"-30.0,{f_mu(-30.0, params)!r},",
            f"0.5,{f_mu(0.5, params)!r},{solve_lambda(0.5, params)!r}",
        ]
