import math
from dataclasses import fields

import numpy as np
import pytest

from hetdata.errors import (
    DegenerateInputError,
    EvaluationError,
    InvalidInputError,
    NoSolutionError,
    NumericalRangeError,
)
from hetdata.model import default_params
from hetdata.numerics import make_stream
from hetdata.statics import (
    aggregate_output,
    log_output_ratio,
    output_ratio,
    tech_from_tau,
    theorem1_report,
    threshold_sensitivity,
)
from hetdata.threshold import log_ratio_and_slope
from oracle import mp_sf


class TestSensitivity:
    # its sign on statics.TAU_GRID and its finite-difference check are
    # acceptance criterion 3 (verify.check_comparative_statics)
    def test_symmetric_point_closed_form(self):
        # the root is v/2 = 0.5
        params = default_params(theta=1e-12, sigma_mu=1.0)
        _, dF_dmu = log_ratio_and_slope(0.5, 1.0)
        assert threshold_sensitivity(0.5, params) == pytest.approx(
            4.0 / (1.0 - dF_dmu), rel=1e-9
        )


class TestSensitivityMemo:
    # the sensitivity's memo is solve_threshold's, whose sharing and whose
    # refusal to keep a failed call TestSolveThresholdMemo checks
    def test_failed_call_leaves_no_entry(self):
        overflowing = default_params(theta=0.999, sigma_idio=3.0, gamma=200.0)
        for tau, params, error in [(1e-7, default_params(), InvalidInputError),
                                   (0.5, overflowing, EvaluationError)]:
            with pytest.raises(error):
                threshold_sensitivity(tau, params)


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
        s_mu, s_i = params.sigma_mu, params.sigma_idio
        mu = stream.normal(params.mu_bar, math.sqrt(s_mu * s_mu), n)
        eps_i = stream.normal(-0.5 * (s_i * s_i), math.sqrt(s_i * s_i), n)
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

    def test_float_tie_raises_naming_the_pair(self):
        # lambda* is about mu0 / 2: at mu0 = 1e16 the two abilities still
        # give two floats, at 1e17 one, and the ordering is unresolved
        theorem1_report.cache_clear()
        resolved = theorem1_report(0.3, 0.6, default_params(mu0=1e16))
        assert resolved.lambda_ordered
        theorem1_report.cache_clear()
        with pytest.raises(NumericalRangeError) as err:
            theorem1_report(0.3, 0.6, default_params(mu0=1e17))
        text = str(err.value)
        assert text.startswith(
            "lambda_L == lambda_H == 5.000000000000002e+16 in floats")
        assert "mu_L=" in text and "mu_H=" in text
        assert theorem1_report.cache_info().currsize == 0

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
