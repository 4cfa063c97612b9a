"""Self-contained verification suite behind the `verify` CLI command.

Each check returns a CheckResult with a stable name, a pass flag, and the
numbers that were compared, so the emitted JSON is reproducible for a
fixed seed.  Tolerances are fixed here, not configurable.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List

import numpy as np

from . import mc, statics, threshold, wealth
from .errors import DegenerateInputError, NoSolutionError
from .model import ModelParams, default_params, validate
from .numerics import GaussianSpec, hazard_rate, make_stream, portfolio_moment


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: Dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # a copy of detail: check_hazard_and_output_ratio's memo shares
        # this instance
        return {"name": self.name, "pass": self.passed,
                "detail": dict(self.detail)}


def check_symmetry_fixed_point() -> CheckResult:
    """tau=0.5, theta->0 forces mu_k = sigma_mu^2/2 for any gamma."""
    worst = 0.0
    for sigma_mu in (0.25, 0.5, 1.0, 2.0):
        for gamma in (1.0, 2.0, 5.0):
            params = default_params(gamma=gamma, sigma_mu=sigma_mu, theta=1e-12)
            sol = threshold.solve_threshold(0.5, params)
            worst = max(worst, abs(sol.mu_k - 0.5 * sigma_mu * sigma_mu))
    return CheckResult(
        "symmetry_fixed_point", worst <= 1e-10, {"worst_abs_error": worst}
    )


def _random_param_sets(seed: int, count: int) -> List[ModelParams]:
    gen = make_stream(seed, 900)
    sets = []
    for _ in range(count):
        sets.append(
            default_params(
                gamma=float(gen.uniform(1.2, 5.0)),
                sigma_mu=float(gen.uniform(0.3, 1.5)),
                sigma_agg=float(gen.uniform(0.05, 0.4)),
                sigma_idio=float(gen.uniform(0.1, 0.8)),
                theta=float(gen.uniform(0.05, 0.6)),
                tau=float(gen.uniform(0.2, 0.8)),
                D=float(gen.uniform(0.5, 2.0)),
            )
        )
    return sets


def check_threshold_indifference(seed: int) -> CheckResult:
    """User and provider utilities coincide at the threshold ability."""
    worst = 0.0
    for base in _random_param_sets(seed, 10):
        for gamma in (base.gamma, 1.0):
            params = validate(replace(base, gamma=gamma))
            sol = threshold.solve_threshold(params.tau, params)
            v_i = threshold.user_utility(sol.K, params.tau, params)
            v_s = threshold.provider_utility(
                params.tau, sol.m, sol.tail_mean, params
            )
            scale = max(1.0, abs(v_i), abs(v_s))
            worst = max(worst, abs(v_i - v_s) / scale)
    return CheckResult(
        "threshold_indifference", worst <= 1e-8, {"worst_rel_error": worst}
    )


def check_comparative_statics() -> CheckResult:
    """dmu_k/dtau > 0 and implicit formula agrees with finite differences."""
    params = default_params()
    h = 1e-5
    worst_rel = 0.0
    all_positive = True
    for tau in statics.TAU_GRID:
        analytic = statics.threshold_sensitivity(tau, params)
        all_positive &= analytic > 0.0
        fd = (
            threshold.solve_threshold(tau + h, params).mu_k
            - threshold.solve_threshold(tau - h, params).mu_k
        ) / (2.0 * h)
        worst_rel = max(worst_rel, abs(analytic - fd) / abs(fd))
    return CheckResult(
        "comparative_statics",
        all_positive and worst_rel <= 1e-5,
        {"all_positive": all_positive, "worst_rel_fd_error": worst_rel},
    )


# It takes no arguments, so its result is a constant of the program: its
# 9,612 kernel evaluations run once per process.
@functools.cache
def check_hazard_and_output_ratio() -> CheckResult:
    """Hazard inequality and tail-ratio monotonicity on the grid."""
    grid = np.arange(-4.0, 4.0 + 1e-12, 0.01).tolist()
    ok = True
    for var in (0.25, 1.0, 4.0):
        spec = GaussianSpec(0.0, var)
        ok &= all(hazard_rate(x, spec) > hazard_rate(x - var, spec) for x in grid)
        # log scale: for sigma=0.5 the ratio itself rounds to 1.0 near -4
        log_ratios = [threshold.log_output_ratio(x, math.sqrt(var)) for x in grid]
        ok &= all(b > a for a, b in zip(log_ratios, log_ratios[1:]))
    return CheckResult("hazard_and_output_ratio", ok, {"grid_points": len(grid)})


def check_portfolio_moment() -> CheckResult:
    """Closed lognormal moments at theta in {0,1} and gamma->1 continuity."""
    worst_closed = 0.0
    for gamma in (2.0, 5.0):
        for sigma1 in (0.25, 0.5, 1.0):
            worst_closed = max(
                worst_closed, abs(portfolio_moment(0.0, sigma1, gamma) - 1.0)
            )
            exact = math.exp(0.5 * gamma * (gamma - 1.0) * sigma1 * sigma1)
            worst_closed = max(
                worst_closed,
                abs(portfolio_moment(1.0, sigma1, gamma) - exact) / exact,
            )
        worst_closed = max(
            worst_closed, abs(portfolio_moment(1.0, 0.5, 1.0) - (-0.125))
        )
    worst_cont = 0.0
    for eps in (1e-4, -1e-4):
        gamma = 1.0 + eps
        transformed = (portfolio_moment(0.1, 0.5, gamma) - 1.0) / (1.0 - gamma)
        log_branch = portfolio_moment(0.1, 0.5, 1.0)
        worst_cont = max(worst_cont, abs(transformed - log_branch))
    return CheckResult(
        "portfolio_moment",
        worst_closed <= 1e-8 and worst_cont <= 1e-6,
        {"worst_closed_form": worst_closed, "worst_continuity": worst_cont},
    )


def check_lln_and_clearing(seed: int, population: int) -> CheckResult:
    """LLN aggregation over `population` agents plus exact market clearing."""
    params = default_params()
    sample = mc.draw_population(population, params, make_stream(seed, 1))
    try:
        reports = mc.lln_check(sample, params)
    except DegenerateInputError as exc:
        # a small population can draw no user by chance: a failed check
        return CheckResult(
            "lln_and_clearing", False, {"error": str(exc), "population": population}
        )
    reports += mc.market_clearing_check(sample, params)
    return CheckResult(
        "lln_and_clearing",
        all(r.passed for r in reports),
        {"reports": [r.to_dict() for r in reports]},
    )


def mc_mean_case(params: ModelParams, seed: int, n_paths: int) -> dict:
    """Closed-form E K_t* vs its Monte Carlo estimate under the 3-SE rule,
    at lambda = wealth.LAMBDA_DEFAULT."""
    lam, t = wealth.LAMBDA_DEFAULT, params.t_star
    closed = wealth.expected_capital(params, t, lam)
    est, se = wealth.mc_expected_capital(params, lam, t, n_paths, seed)
    return {
        "closed_form": closed,
        "estimate": est,
        "se": se,
        "pass": mc.within_three_se(est, closed, se),
    }


def check_jump_diffusion_mean(seed: int, n_paths: int) -> CheckResult:
    """Closed-form E K_t vs Monte Carlo at three parameter sets."""
    cases = {
        "degenerate_alpha0": default_params(alpha=0.0, w=0.0),
        "diffusion_only": default_params(w=0.0),
        "diffusion_and_jumps": default_params(),
    }
    detail = {}
    ok = True
    for name, params in cases.items():
        result = mc_mean_case(params, seed, n_paths)
        detail[name] = result
        ok &= result["pass"]
    return CheckResult("jump_diffusion_mean", ok, detail)


def check_lambda_matching() -> CheckResult:
    """Trivial root, monotone lambda(mu), honest no-solution reporting."""
    params = default_params()
    t = params.t_star
    # target e^(t*) corresponds to lambda = 1: invert f_mu for that mu
    mu_trivial = t - math.log(wealth.f_mu(0.0, params))
    trivial = wealth.solve_lambda(mu_trivial, params)
    trivial_ok = abs(trivial - 1.0) <= 1e-10

    sol = threshold.solve_threshold(params.tau, params)
    grid = np.linspace(sol.mu_k - 0.5, sol.mu_k + 2.0, 50)
    lams = []
    for mu_i in grid:
        lams.append(wealth.solve_lambda(float(mu_i), params))
    monotone = bool(np.all(np.diff(lams) > 0.0))

    try:
        wealth.solve_lambda(mu_trivial - 50.0, params)
        no_solution_ok = False
    except NoSolutionError:  # must raise, never fabricate
        no_solution_ok = True

    return CheckResult(
        "lambda_matching",
        trivial_ok and monotone and no_solution_ok,
        {
            "trivial_root": trivial,
            "monotone": monotone,
            "no_solution_reported": no_solution_ok,
        },
    )


def check_theorem1_orderings() -> CheckResult:
    """All four High/Low orderings under the default parameters."""
    report = statics.theorem1_report(*statics.THEOREM1_TAUS, default_params())
    verdicts = report.to_dict()["verdicts"]
    return CheckResult(
        "theorem1_orderings", all(verdicts.values()), report.to_dict()
    )


def run_all(seed: int, n_paths: int, population: int) -> List[CheckResult]:
    """The full property suite, in a fixed order."""
    return [
        check_symmetry_fixed_point(),
        check_threshold_indifference(seed),
        check_comparative_statics(),
        check_hazard_and_output_ratio(),
        check_portfolio_moment(),
        check_lln_and_clearing(seed, population),
        check_jump_diffusion_mean(seed, n_paths),
        check_lambda_matching(),
        check_theorem1_orderings(),
    ]
