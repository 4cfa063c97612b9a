import math
import types

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetdata import wealth
from hetdata.cli import EXIT_OK, main
from hetdata.errors import (
    InvalidInputError,
    NoSolutionError,
    NumericalRangeError,
)
from hetdata.mc import within_three_se
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
from oracle import capital_oracle, friction_oracle

# lambda=2, W0=1, r_f=0.02, alpha=0.5, mu0=0.08, t=1: the jumps (w=0.1,
# L=0.2) leave the mean, so rate = r_f + alpha mu0 - lambda
# = 0.02 + 0.04 - 2 = -1.94
REFERENCE = default_params()
REFERENCE_EK1 = 2.0 * math.exp(-1.94)


def _outcome(layer, *args):
    """A layer's value as hex, or its error's type and message."""
    try:
        return layer(*args).hex()
    except (NoSolutionError, NumericalRangeError) as err:
        return type(err).__name__, str(err)


@st.composite
def _jump_cases(draw):
    """(params, t, lambda, mu_i) with w log-uniform on [1e-3, 1e300], a
    constant or two-point loss and alpha in [0, 1]."""
    w = math.exp(draw(st.floats(math.log(1e-3), math.log(1e300))))
    values = draw(st.lists(st.floats(0.0, 0.99), min_size=1, max_size=2))
    p1 = draw(st.floats(0.01, 0.99))
    probs = [1.0] if len(values) == 1 else [p1, 1.0 - p1]
    params = default_params(w=w, loss={"values": values, "probs": probs},
                            alpha=draw(st.floats(0.0, 1.0)))
    return (params, draw(st.floats(0.1, 10.0)), draw(st.floats(1.0, 10.0)),
            draw(st.floats(-5.0, 30.0)))


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
        assert expected_capital(params, t, lam) == pytest.approx(
            float(capital_oracle(params, t, lam)), rel=1e-13)


class TestJumpsLeaveTheMean:
    """The drift's alpha w E L compensates the jumps, so E K_t, log f and
    lambda* depend on neither w nor the loss law: their bits are those
    at w = 0 with the default loss, at any w up to 1e300."""

    @given(_jump_cases())
    @settings(max_examples=300, deadline=None)
    def test_bits_of_no_jumps_and_oracle(self, case):
        params, t, lam, mu_i = case
        no_jumps = default_params(w=0.0, alpha=params.alpha)
        assert (_outcome(expected_capital, params, t, lam)
                == _outcome(expected_capital, no_jumps, t, lam))
        for layer in (log_f_mu, solve_lambda):
            assert (_outcome(layer, mu_i, params)
                    == _outcome(layer, mu_i, no_jumps))
        # against the oracles of r_f, alpha, mu0 and lambda.  Rounding
        # grows with the exponent's size: over 30,000 draws of this box the
        # worst E K_t was off by relative 2.0e-16 (1 + |rate t|), and the
        # worst log f by 4.1e-16 (1 + |mu_i|)
        exact = capital_oracle(params, t, lam)
        rate_t = (params.r_f + params.alpha * params.mu0 - lam) * t
        assert (abs(expected_capital(params, t, lam) - exact) / exact
                <= 1e-15 * (1 + abs(rate_t)))
        log_f, _ = friction_oracle(mu_i, params)
        assert abs(log_f_mu(mu_i, params) - log_f) <= 2e-15 * (1 + abs(mu_i))


class TestTerminalCapital:
    """The vectorized exact paths behind mc_expected_capital."""

    def test_deterministic_case(self):
        # K_t = E K_t: in its units every path is 1, with no rounding
        params = default_params(sigma_w=0.0, w=0.0)
        paths = _terminal_capital(params, 2.0, 100, make_stream(1, 0))
        assert np.all(paths == 1.0)

    def test_diffusion_moments(self):
        # w = 0: log(K_t / E K_t) ~ N(-var / 2, var), var = (alpha sigma_w)^2 t
        params = default_params(w=0.0)
        n, t = 100_000, 2.0
        terminals = _terminal_capital(params, t, n, make_stream(3, 0))
        increments = np.log(terminals)
        var = (0.5 * params.sigma_w) ** 2 * t
        se_mean = math.sqrt(var / n)
        assert abs(float(np.mean(increments)) + 0.5 * var) <= 3.0 * se_mean
        sample_var = float(np.var(increments, ddof=1))
        se_var = var * math.sqrt(2.0 / (n - 1))
        assert abs(sample_var - var) <= 3.0 * se_var

    def test_jump_count_mean(self):
        # sigma_w = 0 and a constant loss: each jump moves log K by
        # log(1 - alpha L), from the compensator w alpha L t of E K_t, so the
        # jump count is recoverable from log(K_t / E K_t)
        params = default_params(w=0.5, sigma_w=0.0, loss=0.2)
        n, t = 100_000, 4.0
        terminals = _terminal_capital(params, t, n, make_stream(9, 0))
        jumps = (np.log(terminals) - params.w * 0.5 * 0.2 * t) / (
            math.log1p(-0.5 * 0.2)
        )
        counts = np.round(jumps)
        assert np.max(np.abs(jumps - counts)) <= 1e-9
        se = math.sqrt(params.w * t / n)
        assert abs(float(np.mean(counts)) - params.w * t) <= 3.0 * se


class TestMcExpectedCapital:
    def test_degenerate_alpha_zero(self):
        params = default_params(alpha=0.0, w=0.0)
        assert mc_expected_capital(params, 1.5, params.t_star, 1000, 11) == (
            1.0, 0.0)

    def test_paths_with_nothing_random_pass_exactly(self):
        # alpha = w = 0: each path is K_t / E K_t = e^0 = 1 exactly; drawn in
        # absolute units, 810 of 2,000 such sets missed the 3-SE rule by the
        # rounding of the paths' sum against the closed form
        gen = np.random.default_rng(24)
        for _ in range(200):
            params = default_params(alpha=0.0, w=0.0,
                                    r_f=gen.uniform(-0.05, 0.1),
                                    t_star=gen.uniform(1.01, 60.0))
            args = (params, gen.uniform(1.0, 3.0), params.t_star, 1000, 1)
            ratio, se = mc_expected_capital.__wrapped__(*args)
            assert within_three_se(ratio, 1.0, se)
            assert (ratio, se) == (1.0, 0.0)
        params = default_params(alpha=0.0, w=0.0)
        assert mc_expected_capital.__wrapped__(
            params, 1.5, params.t_star, 10**6, 7) == (1.0, 0.0)

    def test_nothing_random_makes_no_draw(self, monkeypatch):
        def no_stream(*args):
            raise AssertionError("a stream was made")
        monkeypatch.setattr(wealth, "make_stream", no_stream)
        params = default_params(alpha=0.0, w=0.0)
        assert mc_expected_capital.__wrapped__(
            params, 1.5, params.t_star, 10**6, 7) == (1.0, 0.0)

    def test_reference_case_within_three_se(self):
        ratio, se = mc_expected_capital(REFERENCE, 2.0, 1.0, 100_000, 13)
        assert abs(ratio - 1.0) <= 3.0 * se

    def test_se_of_nearly_constant_paths(self):
        # w = 0, sigma_w = 1e-7: the paths spread by 7.1e-8 of their mean;
        # a one-pass total_sq / n - mean^2 cancelled there, to an SE 2.6% off
        # at this seed (the bound is 3 sd of a sample SE's relative error)
        params = default_params(w=0.0, sigma_w=1e-7)
        n = 100_000
        v = (params.alpha * params.sigma_w) ** 2 * params.t_star
        _, se = mc_expected_capital(params, 1.5, params.t_star, n, 7)
        exact = math.sqrt(math.expm1(v) / n)
        assert abs(se / exact - 1.0) <= 1.5 * math.sqrt(2.0 / (n - 1))

    @pytest.mark.parametrize("params", [default_params(w=0.0), REFERENCE],
                             ids=["diffusion_only", "diffusion_and_jumps"])
    def test_three_se_coverage(self, params):
        # verify's two random cases at 10^4 paths over 300 seeds: z is
        # near standard normal (more than 7 beyond 3 has chance under 0.1%)
        z = []
        for seed in range(300):
            ratio, se = mc_expected_capital.__wrapped__(
                params, 1.5, params.t_star, 10_000, seed)
            z.append((ratio - 1.0) / se)
        assert np.count_nonzero(np.abs(z) > 3.0) <= 7
        assert 0.85 <= np.std(z, ddof=1) <= 1.15

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

    def test_undrawable_jump_count_raises_named_error(self):
        # w * t = 2e19 is past numpy's largest Poisson mean, about 9.22e18
        mc_expected_capital.cache_clear()
        with pytest.raises(NumericalRangeError, match=r"w\*t=2e\+19"):
            mc_expected_capital(default_params(w=1e19), 1.5, 2.0, 1000, 1)
        # the largest mean numpy draws is still drawn
        w = wealth._POISSON_MEAN_MAX / 2.0
        mc_expected_capital(default_params(w=w), 1.5, 2.0, 100, 1)

    @pytest.mark.filterwarnings("error")
    def test_capital_near_the_float_limit_is_judged(self):
        # E K_t* is 1.2e153 and about 1% of the paths lie above
        # sqrt(max float): their squares overflowed in absolute units
        params = default_params(mu0=355.0, sigma_w=2.0)
        ratio, se = mc_expected_capital(params, 1.5, params.t_star, 1000, 1)
        assert math.isfinite(ratio) and 0.0 < se < math.inf

    @pytest.mark.filterwarnings("error")
    def test_overflowing_initial_capital_is_judged(self):
        # lambda W0 overflows and E K_t underflows to 0, but a path in units
        # of E K_t is neither: a sample near 1, where it read (0.0, 0.0)
        params = default_params(W0=1e300)
        ratio, se = mc_expected_capital(params, 1e10, 2.0, 1000, 1)
        assert se > 0.0 and abs(ratio - 1.0) <= 3.0 * se


TWO_POINT = {"values": [0.1, 0.4], "probs": [0.7, 0.3]}


class TestMcBits:
    """mc_expected_capital gives the bits of a plain batch loop that draws
    every path's normals, jump counts and jump splits, needed or not, in
    units of E K_t, and merges the batches' two-pass mean and M2."""

    CASES = [default_params(alpha=0.0, w=0.0),  # verify's three cases
             default_params(w=0.0),
             default_params(),
             default_params(w=0.5, loss=TWO_POINT),
             default_params(sigma_w=0.0, w=0.5),
             default_params(w=0.0, loss=TWO_POINT)]

    @staticmethod
    def _reference(params, lam, t, n_paths, seed):
        a, s, loss = params.alpha, params.sigma_w, params.loss
        # log K_t less log E K_t before the random part: the jumps'
        # compensator and the diffusion's -(alpha sigma_w)^2 / 2
        shift = (a * params.w * loss.mean - 0.5 * (a * s) * (a * s)) * t
        count, mean, m2 = 0, 0.0, 0.0
        for stream in make_stream(seed, 0).spawn(-(-n_paths // 16384)):
            n = min(16384, n_paths - count)
            logK = shift + a * s * math.sqrt(t) * stream.standard_normal(n)
            counts = stream.poisson(params.w * t, n)
            if len(loss.values) == 1:
                logK = logK + counts * math.log1p(-a * loss.values[0])
            else:
                k1 = stream.binomial(counts, loss.probs[0])
                logK = (logK + k1 * math.log1p(-a * loss.values[0])
                        + (counts - k1) * math.log1p(-a * loss.values[1]))
            k = np.exp(logK)
            k_mean = float(np.sum(k)) / n
            k_m2 = float(np.sum((k - k_mean) ** 2))
            # Chan, Golub & LeVeque's merge of (count, mean, M2)
            delta, share = k_mean - mean, n / (count + n)
            mean, m2 = (mean + delta * share,
                        m2 + k_m2 + delta * delta * (count * share))
            count += n
        return mean, math.sqrt(m2 / (n_paths - 1)) / math.sqrt(n_paths)

    @pytest.mark.parametrize("params", CASES)
    @pytest.mark.parametrize("n_paths", [100, 16_384, 40_000])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_bitwise_equal_to_plain_loop(self, params, n_paths, seed):
        args = (params, 1.5, params.t_star, n_paths, seed)
        est, se = mc_expected_capital.__wrapped__(*args)
        ref_est, ref_se = self._reference(*args)
        assert (est.hex(), se.hex()) == (ref_est.hex(), ref_se.hex())

    def test_batch_streams_share_no_key_with_verify(self, monkeypatch):
        # verify draws its population from make_stream(seed, 1) and its
        # parameter sets from make_stream(seed, 900); batches keyed by their
        # index drew batch 1 from the first and, past 900 batches, batch 900
        # from the second
        keys = []

        def recorder(*args):
            *_, n, stream = args
            keys.append(stream.bit_generator.seed_seq.spawn_key)
            return np.ones(n)
        monkeypatch.setattr(wealth, "_terminal_capital", recorder)
        n_paths = 901 * 16384 + 1
        assert mc_expected_capital.__wrapped__(
            REFERENCE, 1.5, 2.0, n_paths, 42) == (1.0, 0.0)
        assert keys == [(0, k) for k in range(902)]
        assert not {(1,), (900,)} & set(keys)


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
        rate = 0.02 + 0.5 * 0.08  # r_f + alpha mu0
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
        rate = params.r_f + 0.5 * params.mu0
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
        mu = params.t_star - log_f_mu(0.0, params)
        lam = solve_lambda(mu, params)
        assert type(lam) is float
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert lam * params.t_star > 1.0

    # mu_trivial = t* - log f_mu(0) = -1.1938758248682007 at default params;
    # a target below the minimum e^(t*) by less than the no-solution
    # tolerance (relative 1e-12) is the branch start, not an empty bracket
    @pytest.mark.parametrize("offset", [0.0, 1e-13, 5e-13, 9e-13])
    def test_just_below_branch_minimum_is_trivial_root(self, offset):
        params = default_params()
        mu = params.t_star - log_f_mu(0.0, params)
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

    def test_root_below_overflow_bound(self):
        # lambda* ~ 303.955 lies below e^(lambda t*)'s bound 700 / t* = 350,
        # so the residual can be checked against f_mu itself
        params = default_params()
        lam = solve_lambda(599.0, params)
        assert type(lam) is float
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
            _, star = friction_oracle(mu_i, params)
            assert lam == pytest.approx(approx, abs=1e-4)
            assert abs(lam - star) <= 1e-15 * lam

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
    @example((1.0, default_params()))
    @settings(max_examples=300, deadline=None)
    def test_matches_lambert_w(self, case):
        mu_i, params = case
        t = params.t_star
        log_f, star = friction_oracle(mu_i, params)
        logs = []  # wealth's math module, with log recording its arguments
        counting_math = types.SimpleNamespace(
            **dict(vars(math), log=lambda x: logs.append(x) or math.log(x)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wealth, "math", counting_math)
            try:
                lam = solve_lambda(mu_i, params)
            except NoSolutionError as err:
                # f < e^(t*) (1 - 1e-12): the oracle's f is below e^(t*) too
                assert err.target < err.branch_minimum
                assert star is None
                return
        # four logs build c and the start (D, EK_target, t*, c); each further
        # one is a Newton step
        assert len(logs) <= 4 + 30
        if lam == 1.0:  # the branch start, within its tolerance of e^(t*)
            assert abs(log_f - t) <= 2e-12 * max(1.0, t)
            return
        assert star is not None
        kappa = 1.0 / (1.0 - 1.0 / float(star * t))
        assert abs(lam - star) <= 1e-13 * kappa * star


class TestFigure1:
    def test_trivial_intersection(self):
        params = default_params()
        mu = params.t_star - log_f_mu(0.0, params)
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
