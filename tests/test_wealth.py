import math

import numpy as np
import pytest

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
    _terminal_capital,
    mc_expected_capital,
    solve_lambda,
)

# lambda=2, W0=1, r_f=0.02, alpha=0.5, mu0=0.08, w=0.1, L=0.2, t=1:
# mu_hat = 0.1, rate = 0.02 + 0.05 - 2 - 0.01 = -1.94
REFERENCE = default_params()
REFERENCE_EK1 = 2.0 * math.exp(-1.94)


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

    @pytest.mark.parametrize("mu0, W0", [(1000.0, 1.0), (700.0, 1e10)])
    def test_overflow_raises_named_error(self, mu0, W0):
        # the exponential overflows, or the product with W0 does
        with pytest.raises(NumericalRangeError, match="E K_t overflows"):
            expected_capital(default_params(mu0=mu0, W0=W0), 2.0, 1.5)


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
        mu_i = -(params.agg_shock_spec.mean + params.idio_shock_spec.mean)
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
        # 800: e^mu_i itself overflows; 709: e^mu_i is finite, the product is not
        for mu_i in (800.0, 709.0):
            with pytest.raises(NumericalRangeError, match=f"mu_i={mu_i}"):
                f_mu(mu_i, params)
            with pytest.raises(NumericalRangeError):
                solve_lambda(mu_i, params)


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
        # lambda* ~ 303.955 lies past the last doubling of the bracket (256)
        # but below e^(lambda t*)'s bound 700 / t* = 350
        params = default_params()
        lam = solve_lambda(599.0, params)
        assert lam == pytest.approx(303.955, abs=1e-3)
        assert lam * params.t_star <= 700.0
        residual = (lam * params.t_star - math.log(lam)
                    - math.log(f_mu(599.0, params)))
        assert abs(residual) <= 1e-12 * lam * params.t_star

    def test_root_beyond_overflow_bound_raises(self):
        # f_mu is finite at mu_i = 695, but lambda* > 350
        with pytest.raises(NumericalRangeError, match="overflow bound"):
            solve_lambda(695.0, default_params())

    def test_no_solution_reported(self):
        params = default_params()
        with pytest.raises(NoSolutionError) as err:
            solve_lambda(-30.0, params)
        assert err.value.branch_minimum == pytest.approx(math.exp(params.t_star))


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
                          (800.0, NumericalRangeError)]:
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
