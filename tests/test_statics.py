import math
from dataclasses import fields

import mpmath
import numpy as np
import pytest

from hetdata.errors import (
    ConvergenceError,
    DegenerateInputError,
    InvalidInputError,
    NoSolutionError,
)
from hetdata.model import default_params
from hetdata.numerics import make_stream
from hetdata.statics import (
    aggregate_output,
    log_output_ratio,
    output_ratio,
    partials,
    tech_from_tau,
    theorem1_report,
    threshold_sensitivity,
)
from hetdata.threshold import _moment_term, _rhs, solve_threshold

mpmath.mp.dps = 50


def F_threshold(tau, mu, params):
    """Right-hand side F(tau, mu) of the fixed-point equation, assembled
    from the solver's own parts."""
    logit = math.log(tau) - math.log1p(-tau)
    v = params.sigma_mu * params.sigma_mu
    return _rhs(logit, v, _moment_term(params))(mu)


def mp_sf(x, mean=0.0, var=1.0):
    return float(1 - mpmath.ncdf(x, mean, mpmath.sqrt(var)))


class TestPartials:
    def test_tau_partial_at_half(self):
        params = default_params()
        dF_dtau, _ = partials(0.5, 0.3, params)
        assert dF_dtau == pytest.approx(4.0, abs=1e-14)

    def test_mu_partial_negative_on_grid(self):
        params = default_params()
        for mu in np.linspace(-5.0, 5.0, 21):
            _, dF_dmu = partials(0.5, float(mu), params)
            assert dF_dmu < 0.0

    def test_against_finite_differences(self):
        params = default_params()
        h = 1e-5
        for tau, mu in [(0.3, 0.1), (0.5, 0.5), (0.7, 1.0)]:
            dF_dtau, dF_dmu = partials(tau, mu, params)
            fd_tau = (
                F_threshold(tau + h, mu, params) - F_threshold(tau - h, mu, params)
            ) / (2 * h)
            fd_mu = (
                F_threshold(tau, mu + h, params) - F_threshold(tau, mu - h, params)
            ) / (2 * h)
            assert abs(dF_dtau - fd_tau) / abs(fd_tau) <= 1e-6
            assert abs(dF_dmu - fd_mu) / abs(fd_mu) <= 1e-6


class TestSensitivity:
    def test_positive_everywhere(self):
        params = default_params()
        for tau in np.arange(0.05, 0.951, 0.05):
            assert threshold_sensitivity(float(tau), params) > 0.0

    def test_against_finite_difference_of_solver(self):
        params = default_params()
        h = 1e-5
        for tau in (0.2, 0.5, 0.8):
            analytic = threshold_sensitivity(tau, params)
            fd = (
                solve_threshold(tau + h, params).mu_k
                - solve_threshold(tau - h, params).mu_k
            ) / (2 * h)
            assert abs(analytic - fd) / abs(fd) <= 1e-5

    def test_symmetric_point_closed_form(self):
        params = default_params(theta=1e-12, sigma_mu=1.0)
        _, dF_dmu = partials(0.5, 0.5, params)
        assert threshold_sensitivity(0.5, params) == pytest.approx(
            4.0 / (1.0 - dF_dmu), rel=1e-9
        )


class TestSensitivityMemo:
    CASES = [(tau, default_params(gamma=gamma, sigma_mu=sigma_mu))
             for tau in (0.05, 0.5, 0.93)
             for gamma in (1.0, 2.0, 5.0)
             for sigma_mu in (0.25, 1.0)]

    def test_memo_bitwise_equals_uncached(self):
        threshold_sensitivity.cache_clear()
        for tau, params in self.CASES:
            for _ in range(2):  # a miss, then a hit
                slope = threshold_sensitivity(tau, params)
                assert type(slope) is float
                assert slope.hex() == threshold_sensitivity.__wrapped__(
                    tau, params).hex()
        info = threshold_sensitivity.cache_info()
        assert (info.misses, info.hits) == (len(self.CASES), len(self.CASES))

    def test_equal_params_share_an_entry(self):
        threshold_sensitivity.cache_clear()
        first = threshold_sensitivity(0.4, default_params())
        assert threshold_sensitivity(0.4, default_params()) is first
        assert threshold_sensitivity.cache_info().currsize == 1

    def test_failed_call_leaves_no_entry(self):
        threshold_sensitivity.cache_clear()
        unconverged = default_params(theta=0.9, sigma_idio=2.0, gamma=8.0)
        for tau, params, error in [(1e-7, default_params(), InvalidInputError),
                                   (0.5, unconverged, ConvergenceError)]:
            for _ in range(2):
                with pytest.raises(error):
                    threshold_sensitivity(tau, params)
        assert threshold_sensitivity.cache_info().currsize == 0


class TestOutputRatio:
    def test_limit_at_minus_infinity(self):
        assert output_ratio(-40.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_value_against_erf_oracle(self):
        expected = mp_sf(0.5, 1.0, 1.0) / mp_sf(0.5, 0.0, 1.0)
        assert output_ratio(0.5, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.2412, abs=1e-3)

    def test_monotone_in_mu(self):
        assert output_ratio(1.0, 1.0) > output_ratio(0.5, 1.0)

    def test_grid_monotonicity_all_sigmas(self):
        grid = np.arange(-4.0, 4.0 + 1e-12, 0.01)
        for sigma in (0.25, 0.5, 1.0, 2.0):
            values = [log_output_ratio(float(m), sigma) for m in grid]
            assert all(b > a for a, b in zip(values, values[1:]))


class TestAggregateOutput:
    @pytest.mark.parametrize("sigma_mu", [0.25, 0.5, 1.0, 2.0])
    def test_equals_participation_times_output_ratio(self, sigma_mu):
        # m * e^(mu_bar + v/2) * tail ratio collapses to the returned form
        params = default_params(sigma_mu=sigma_mu)
        v = sigma_mu ** 2
        eps = -0.02
        scale = params.D * math.exp(eps) * math.exp(params.mu_bar + 0.5 * v)
        for mu_k in np.linspace(-6.0, 6.0, 121):
            mu_k = float(mu_k)
            m = 0.5 * math.erfc(mu_k / (sigma_mu * math.sqrt(2.0)))
            full = scale * m * output_ratio(mu_k, sigma_mu)
            assert aggregate_output(mu_k, eps, params) == pytest.approx(
                full, rel=1e-12
            )

    def test_full_participation_limit(self):
        params = default_params()
        eps = -0.5 * params.sigma_agg ** 2
        expected = math.exp(eps) * math.exp(0.5)
        assert aggregate_output(-40.0, eps, params) == pytest.approx(
            expected, rel=1e-12
        )

    def test_decreasing_in_threshold(self):
        params = default_params()
        grid = np.linspace(-2.0, 2.0, 21)
        values = [aggregate_output(float(m), 0.0, params) for m in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monte_carlo_cross_check(self):
        params = default_params()
        mu_k, eps = 0.5, -0.02
        n = 1_000_000
        stream = make_stream(41, 0)
        ability, idio = params.ability_spec, params.idio_shock_spec
        mu = stream.normal(ability.mean, ability.std, n)
        eps_i = stream.normal(idio.mean, idio.std, n)
        y = params.D * math.exp(eps) * np.exp(mu + eps_i) * (mu > mu_k)
        observed = float(np.mean(y))
        se = float(np.std(y, ddof=1) / math.sqrt(n))
        assert abs(aggregate_output(mu_k, eps, params) - observed) <= 3.0 * se


class TestTechFromTau:
    def test_algebra(self):
        params = default_params(d0=1.0, eta=0.5)
        d, z = tech_from_tau(0.25, params)
        assert d == 0.25 and z == 0.5

    def test_ordering_preserved(self):
        params = default_params()
        d_lo, z_lo = tech_from_tau(0.3, params)
        d_hi, z_hi = tech_from_tau(0.6, params)
        assert d_hi > d_lo and z_hi > z_lo

    def test_eta_to_one_identity(self):
        params = default_params(eta=1.0 - 1e-12)
        d, z = tech_from_tau(0.4, params)
        assert z == pytest.approx(d, rel=1e-9)


class TestTheorem1Report:
    def test_all_orderings_hold_at_defaults(self):
        report = theorem1_report(0.3, 0.6, default_params())
        assert report.d_ordered
        assert report.z_ordered
        assert report.y_ordered
        assert report.lambda_ordered
        assert report.lambda_L >= 1.0

    def test_delta_default_and_recording(self):
        params = default_params()
        report = theorem1_report(0.3, 0.6, params)
        assert report.delta == pytest.approx(0.5 * params.sigma_mu)
        assert report.mu_H > report.mu_L

    def test_equal_taus_rejected(self):
        with pytest.raises(DegenerateInputError):
            theorem1_report(0.4, 0.4, default_params())

    def test_swapped_taus_rejected(self):
        with pytest.raises(InvalidInputError):
            theorem1_report(0.6, 0.3, default_params())

    def test_verdicts_recomputed_from_values(self):
        report = theorem1_report(0.3, 0.6, default_params())
        verdicts = report.to_dict()["verdicts"]
        assert verdicts["d_H_gt_d_L"] == (report.d_H > report.d_L)
        assert verdicts["lambda_H_gt_lambda_L"] == (
            report.lambda_H > report.lambda_L
        )


class TestTheorem1Memo:
    CASES = [(tau_L, tau_H, default_params(gamma=gamma, sigma_mu=sigma_mu))
             for tau_L, tau_H in ((0.3, 0.6), (0.2, 0.3), (0.85, 0.95))
             for gamma in (1.0, 2.0, 5.0)
             for sigma_mu in (0.5, 1.0)]

    def test_memo_bitwise_equals_uncached(self):
        theorem1_report.cache_clear()
        for tau_L, tau_H, params in self.CASES:
            miss = theorem1_report(tau_L, tau_H, params)
            assert theorem1_report(tau_L, tau_H, params) is miss
            fresh = theorem1_report.__wrapped__(tau_L, tau_H, params)
            for field in fields(miss):
                value = getattr(miss, field.name)
                assert type(value) is float
                assert value.hex() == getattr(fresh, field.name).hex()
        info = theorem1_report.cache_info()
        assert (info.misses, info.hits) == (len(self.CASES), len(self.CASES))

    def test_equal_params_share_an_entry(self):
        theorem1_report.cache_clear()
        first = theorem1_report(0.3, 0.6, default_params())
        assert theorem1_report(0.3, 0.6, default_params()) is first
        assert theorem1_report.cache_info().currsize == 1

    def test_failed_call_leaves_no_entry(self):
        # (0.05, 0.15) is one of the tau_sweep pairs whose low type has no
        # friction root at default params
        theorem1_report.cache_clear()
        for tau_L, tau_H, error in [(0.05, 0.15, NoSolutionError),
                                    (0.4, 0.4, DegenerateInputError)]:
            for _ in range(2):
                with pytest.raises(error):
                    theorem1_report(tau_L, tau_H, default_params())
        assert theorem1_report.cache_info().currsize == 0

    def test_changing_to_dict_leaves_the_cached_report_alone(self):
        theorem1_report.cache_clear()
        first = theorem1_report(0.3, 0.6, default_params()).to_dict()
        expected = {**first, "verdicts": dict(first["verdicts"])}
        first["mu_L"] = math.nan
        first["verdicts"]["d_H_gt_d_L"] = False
        assert theorem1_report(0.3, 0.6, default_params()).to_dict() == expected
