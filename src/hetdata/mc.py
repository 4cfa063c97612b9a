"""Finite-population brute-force checks of the continuum identities.

Every statistical check uses the 3-standard-error acceptance rule with a
fixed master seed; market clearing, which holds exactly at finite n, is
checked exactly.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .model import ModelParams
from .numerics import mean_and_m2, merge_mean_m2, shock_mean, standard_error
from .statics import aggregate_output
from .threshold import ThresholdSolution, solve_threshold

# agents per block of draw_population, which so keeps nothing of population
# size; fixed so the bits do not depend on anything else
_BLOCK = 1 << 16


@dataclass(frozen=True)
class CheckReport:
    """One verified statistic; serializes to the report JSON schema."""

    statistic: str
    expected: float
    observed: float
    se: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "expected": self.expected,
            "observed": self.observed,
            "se": self.se,
            "pass": self.passed,
        }


def within_three_se(observed: float, expected: float, se: float) -> bool:
    """The 3-standard-error rule; where se == 0 (every term equal) it
    allows rounding slack in the reduction."""
    return abs(observed - expected) <= max(3.0 * se, 8e-16 * abs(expected))


def _three_se_report(statistic: str, expected: float, observed: float,
                     se: float) -> CheckReport:
    return CheckReport(
        statistic=statistic,
        expected=expected,
        observed=observed,
        se=se,
        passed=within_three_se(observed, expected, se),
    )


@dataclass(frozen=True)
class PopulationSample:
    """The sums of n drawn agents that the population checks read; no
    array that grows with n."""

    n: int
    # (count, mean, M2) over all n agents of e^(mu + eps), 0 for a provider
    output: Tuple[int, float, float]
    n_users: int
    weight_sums: Tuple[float, ...]  # the sum of e^mu of each block
    agg_shock: float
    threshold: ThresholdSolution


def draw_population(
    n: int, params: ModelParams, stream: np.random.Generator
) -> PopulationSample:
    """n i.i.d. agents with roles assigned at the solved threshold; only
    users, the agents with output, draw an idiosyncratic shock.

    The agents are drawn _BLOCK at a time, each block reduced and dropped
    before the next is drawn.  Block k draws from stream's k-th child,
    spawned per block so one generator is held, its abilities, then its
    users' shocks, so independent of the roles.  The abilities go to a
    buffer that every block reuses (a fresh array per block was faulted in
    again, 3,454 minor faults per 10^6 agents against 232).  The aggregate
    shock is stream's.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    solution = solve_threshold(params.tau, params)
    output = (0, 0.0, 0.0)
    n_users = 0
    weight_sums = []
    buffer = np.empty(min(_BLOCK, n))
    for start in range(0, n, _BLOCK):
        gen, = stream.spawn(1)
        # mean + std * z, as Generator.normal computes it
        abilities = gen.standard_normal(out=buffer[:min(_BLOCK, n - start)])
        abilities *= params.sigma_mu
        abilities += params.mu_bar
        users = solution.is_user(abilities)
        # the users' e^(mu + eps) in agent order
        terms = np.compress(users, abilities)
        terms += gen.normal(shock_mean(params.sigma_idio), params.sigma_idio,
                            len(terms))
        np.exp(terms, out=terms)
        n_users += len(terms)
        weight_sums.append(float(np.sum(np.exp(abilities, out=abilities))))
        output = merge_mean_m2(output, (len(abilities),
                                        *mean_and_m2(terms, len(abilities))))
        del users, terms
    agg = stream.normal(shock_mean(params.sigma_agg), params.sigma_agg)
    return PopulationSample(n=n, output=output, n_users=n_users,
                            weight_sums=tuple(weight_sums), agg_shock=agg,
                            threshold=solution)


def lln_check(sample: PopulationSample, params: ModelParams) -> List[CheckReport]:
    """Sample aggregate of user output vs the m * tail_mean continuum limit
    at the sample's own threshold."""
    if sample.n < 2:  # the standard error is a ddof=1 spread
        raise InvalidInputError("the LLN check needs n >= 2")
    if sample.n_users == 0:
        raise DegenerateInputError("population contains no data users")
    _, observed, m2 = sample.output
    se = standard_error(m2, sample.n)
    threshold = sample.threshold
    expected = threshold.m * threshold.tail_mean
    reports = [
        _three_se_report("lln_user_aggregate", expected, observed, se),
    ]
    # same identity scaled by D e^eps: total user output vs aggregate_output
    scale = params.D * math.exp(sample.agg_shock)
    reports.append(
        _three_se_report(
            "lln_aggregate_output",
            aggregate_output(threshold.mu_k, sample.agg_shock, params),
            scale * observed,
            scale * se,
        )
    )
    return reports


def market_clearing_check(
    sample: PopulationSample, params: ModelParams
) -> List[CheckReport]:
    """Portfolio shares sum to 1 - theta exactly; risk-free holdings are 0."""
    if sample.n < 2:
        raise InvalidInputError("market clearing needs n >= 2")
    theta = params.theta
    # agent i holds the share (1 - theta) e^mu_i / sum_p e^mu_p; a block's
    # shares sum to (1 - theta) times its weight sum over the total.  Both
    # sums fold left to right: builtin sum compensates from Python 3.12 on,
    # which moved the last bit of the 10^6-agent total at seed 7
    weight_sum = functools.reduce(operator.add, sample.weight_sums)
    total = functools.reduce(operator.add, ((1.0 - theta) * block / weight_sum
                                            for block in sample.weight_sums))
    return [
        CheckReport(
            statistic="clearing_share_sum",
            expected=1.0 - theta,
            observed=total,
            se=0.0,
            passed=abs(total - (1.0 - theta)) <= 1e-12,
        ),
        # N0 = 0 identically in equilibrium: no agent holds the risk-free
        # asset, so the largest holding is 0 by construction
        CheckReport(
            statistic="risk_free_holdings",
            expected=0.0,
            observed=0.0,
            se=0.0,
            passed=True,
        ),
    ]
