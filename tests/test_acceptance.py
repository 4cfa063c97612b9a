"""Acceptance gate: the ten release criteria, one pass/fail line each.

Each test exercises the full stated scale (10^6 population, 10^5 paths)
and the stated tolerance; the whole module is the go/no-go signal for a
release.  Seed is fixed so reruns are bit-reproducible.
"""
import math

import pytest

from hetdata import cli, statics, verify, wealth
from hetdata.errors import NoSolutionError
from hetdata.model import default_params

SEED = 42


def _report(criterion: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}")
    assert passed, criterion


def test_criterion_1_symmetry_fixed_point():
    result = verify.check_symmetry_fixed_point()
    _report(
        "criterion 1: symmetric fixed point mu_k = sigma_mu^2/2 within 1e-10",
        result.passed and result.detail["worst_abs_error"] <= 1e-10,
    )


def test_criterion_2_threshold_indifference():
    result = verify.check_threshold_indifference(SEED)
    _report(
        "criterion 2: utilities agree at the threshold within 1e-8, and "
        "their log certainty equivalents within 1e-10 "
        "(10 random parameter sets, both gamma branches)",
        result.passed and result.detail["worst_rel_error"] <= 1e-8
        and result.detail["worst_log_ce_gap"] <= 1e-10,
    )


def test_criterion_3_comparative_statics():
    result = verify.check_comparative_statics()
    _report(
        "criterion 3: dmu_k/dtau > 0 on the tau grid and implicit formula "
        "matches finite differences within 1e-5",
        result.passed and result.detail["worst_rel_fd_error"] <= 1e-5,
    )


def test_criterion_4_hazard_and_output_ratio():
    result = verify.check_hazard_and_output_ratio()
    _report(
        "criterion 4: hazard inequality and output-ratio monotonicity on "
        "mu in [-4, 4] step 0.01 for variances {0.25, 1, 4}",
        result.passed,
    )


def test_criterion_5_portfolio_moment():
    result = verify.check_portfolio_moment()
    _report(
        "criterion 5: portfolio moment matches closed lognormal forms at "
        "theta in {0, 1} within 1e-8; gamma->1 continuity within 1e-6",
        result.passed
        and result.detail["worst_closed_form"] <= 1e-8
        and result.detail["worst_continuity"] <= 1e-6,
    )


def test_criterion_6_lln_and_clearing():
    result = verify.check_lln_and_clearing(SEED, population=1_000_000)
    reports = {r["statistic"]: r for r in result.detail["reports"]}
    clearing = reports["clearing_share_sum"]
    exact = abs(clearing["observed"] - clearing["expected"]) <= 1e-12
    _report(
        "criterion 6: LLN aggregation at n=1e6 within 3 SE; market "
        "clearing exact to 1e-12; zero risk-free holdings",
        result.passed and exact,
    )


def test_criterion_7_jump_diffusion_mean():
    result = verify.check_jump_diffusion_mean(SEED, n_paths=100_000)
    # the derived reference case: lambda=2, t=1 closed form 2 e^{-1.94},
    # and the Monte Carlo mean of K_t / E K_t within 3 SE of 1
    closed = wealth.expected_capital(default_params(), 1.0, 2.0)
    ratio, se = wealth.mc_expected_capital(
        default_params(), 2.0, 1.0, 100_000, SEED
    )
    reference_ok = (closed == pytest.approx(2.0 * math.exp(-1.94), rel=1e-14)
                    and abs(ratio - 1.0) <= 3.0 * se)
    _report(
        "criterion 7: Monte Carlo capital mean within 3 SE of the closed "
        "form at three parameter sets plus the 2e^{-1.94} reference",
        result.passed and reference_ok,
    )


def test_criterion_8_lambda_matching():
    result = verify.check_lambda_matching()
    params = default_params()
    mu_trivial = params.t_star - wealth.log_f_mu(0.0, params)
    with pytest.raises(NoSolutionError):
        wealth.solve_lambda(mu_trivial - 50.0, params)
    _report(
        "criterion 8: trivial root lambda=1 recovered within 1e-10; "
        "lambda strictly increasing over a 50-point ability grid; "
        "no-solution cases raise instead of fabricating",
        result.passed and abs(result.detail["trivial_root"] - 1.0) <= 1e-10,
    )


def test_criterion_9_theorem1_orderings():
    report = statics.theorem1_report(0.3, 0.6, default_params())
    ok = (
        report.d_ordered
        and report.z_ordered
        and report.y_ordered
        and report.lambda_ordered
    )
    _report(
        "criterion 9: d_H > d_L, z_H > z_L, y_H > y_L, lambda_H > lambda_L "
        "for tau_L=0.3 < tau_H=0.6 at default parameters",
        ok,
    )


def test_criterion_10_determinism(tmp_path):
    args = ["verify", "--seed", "42"]
    codes = [
        cli.main(args + ["--out", str(tmp_path / sub)]) for sub in ("a", "b")
    ]
    first = (tmp_path / "a" / "verify.json").read_bytes()
    second = (tmp_path / "b" / "verify.json").read_bytes()
    _report(
        "criterion 10: `verify --seed 42` run twice produces byte-identical "
        "artifacts and exits 0",
        codes == [0, 0] and first == second,
    )
