"""Finite-population brute-force checks of the continuum identities.

Every statistical check uses the 3-standard-error acceptance rule with a
fixed master seed; identities that hold exactly at finite n (market
clearing, role sorting away from the boundary) are checked exactly.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .model import ModelParams
from .numerics import mean_and_m2, merge_mean_m2, shock_mean, standard_error
from .statics import aggregate_output
from .threshold import (
    ThresholdSolution,
    log_ce_provider,
    log_ce_user,
    solve_threshold,
)

_BOUNDARY_BAND = 1e-8
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


def _blocks(n: int, params: ModelParams, solution: ThresholdSolution,
            stream: np.random.Generator) -> Iterator[Tuple[np.ndarray, ...]]:
    """Yields each block of _BLOCK of the n agents: its abilities mu, in a
    buffer that every block reuses (a fresh array per block was faulted in
    again, 3,454 minor faults per 10^6 agents against 232), its roles and
    its users' e^(mu + eps) in agent order.  Block k draws from stream's
    k-th child, spawned per block so one generator is held, its abilities,
    then its users' shocks, so independent of the roles.  The caller drops
    the roles and terms before the next block is drawn."""
    buffer = np.empty(min(_BLOCK, n))
    for start in range(0, n, _BLOCK):
        gen, = stream.spawn(1)
        # mean + std * z, as Generator.normal computes it
        abilities = gen.standard_normal(out=buffer[:min(_BLOCK, n - start)])
        abilities *= params.sigma_mu
        abilities += params.mu_bar
        users = solution.is_user(abilities)
        terms = np.compress(users, abilities)
        terms += gen.normal(shock_mean(params.sigma_idio), params.sigma_idio,
                            len(terms))
        np.exp(terms, out=terms)
        yield abilities, users, terms
        del users, terms


def draw_population(
    n: int, params: ModelParams, stream: np.random.Generator
) -> PopulationSample:
    """n i.i.d. agents with roles assigned at the solved threshold; only
    users, the agents with output, draw an idiosyncratic shock.

    Each block of _blocks is reduced and dropped at once; the aggregate
    shock is stream's.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    solution = solve_threshold(params.tau, params)
    output = (0, 0.0, 0.0)
    n_users = 0
    weight_sums = []
    for abilities, users, terms in _blocks(n, params, solution, stream):
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


def consumption_convergence(
    params: ModelParams, sizes: Sequence[int], stream: np.random.Generator
) -> List[CheckReport]:
    """Portfolio-built consumption converges to its closed form as n grows.

    Reports the mean deviation per size (must pass 3 SE at the largest
    size) plus the provider-consumption identity at the largest size.
    """
    sizes = list(sizes)
    if sizes != sorted(sizes) or len(sizes) == 0 or sizes[0] < 1:
        raise InvalidInputError(
            "sizes must be a non-empty increasing sequence of sizes >= 1")
    theta = params.theta
    sol = solve_threshold(params.tau, params)
    reports = []
    for n in sizes:
        # draw_population's draw, output and aggregate shock, plus the pool:
        # the (count, mean, M2) over the users of e^(mu + eps) - e^mu
        output = pool = (0, 0.0, 0.0)
        for abilities, users, terms in _blocks(n, params, sol, stream):
            gains = terms - np.compress(users, np.exp(abilities, out=abilities))
            output = merge_mean_m2(output, (len(abilities),
                                            *mean_and_m2(terms, len(abilities))))
            if len(gains):  # an empty part would divide by zero
                pool = merge_mean_m2(pool, (len(gains),
                                            *mean_and_m2(gains, len(gains))))
            # dropped before the next block, and the last block's buffer
            # before the next size's
            del abilities, users, terms, gains
        agg = stream.normal(shock_mean(params.sigma_agg), params.sigma_agg)
        n_users, pool_mean, pool_m2 = pool
        # the gap's standard error is a ddof=1 spread over the users, so it
        # needs two of them
        if n_users < 2:
            raise DegenerateInputError(
                f"consumption at n={n} needs two or more data users, "
                f"drew {n_users}"
            )
        # D e^eps (1 - tau), shared by every user
        scale = params.D * math.exp(agg) * (1.0 - params.tau)
        # finite-n user consumption from the portfolio definition,
        # C_i = theta y_i (1-tau) + (1-theta)(1-tau) D e^mu_i e^eps
        #       * (sum_j e^(mu_j + eps_j)) / (sum_p e^(mu_p)), j, p over users,
        # less its closed form scale e^mu_i (theta e^eps_i + 1 - theta), is
        # (1-theta) scale e^mu_i (pool ratio - 1).  Every user's gap shares
        # the single pool factor, so the cross-sectional spread of the gaps
        # says nothing about the sampling error of their mean.
        # Algebraically the mean gap equals
        # (1-theta) * scale * mean_j[e^(mu_j + eps_j) - e^mu_j] whose terms
        # are i.i.d.; the mean and its SE come from those terms, the pool.
        gap = (1.0 - theta) * scale
        reports.append(_three_se_report(
            f"consumption_gap_n{n}", 0.0, gap * pool_mean,
            gap * standard_error(pool_m2, n_users)))
    # provider consumption at the largest size: pooled costs spread over
    # the provider mass
    m_hat = n_users / n
    if not (0.0 < m_hat < 1.0):
        raise DegenerateInputError("population is all users or all providers")
    # tau D e^eps times e^(mu_i + eps_i) for a user, 0 for a provider
    output_scale = params.tau * params.D * math.exp(agg)
    _, mean_output, m2_output = output
    se_output = standard_error(m2_output, n)
    observed_cs = output_scale * mean_output / (1.0 - m_hat)
    se_cs = output_scale * se_output / (1.0 - m_hat)
    expected_cs = output_scale * sol.m * sol.tail_mean / (1.0 - sol.m)
    reports.append(
        _three_se_report("provider_consumption", expected_cs, observed_cs, se_cs)
    )
    return reports


def role_sorting_check(
    abilities: np.ndarray, params: ModelParams
) -> CheckReport:
    """Utility comparison must reproduce the threshold classification.

    The roles are assigned at params.tau by the solved threshold, as
    draw_population assigns them, and the utilities are taken at the same
    tau.  A user's log certainty equivalent is mu_i plus a constant, so
    the two roles' utilities cross at one ability, where the log CEs are
    equal; an agent prefers to be a user iff its ability exceeds it.
    Agents within the boundary band |mu_i - K| < 1e-8 are excluded (the
    sign there is numerically undecidable by construction).
    """
    tau = params.tau
    sol = solve_threshold(tau, params)
    crossing = sol.K + (log_ce_provider(tau, sol.m, sol.tail_mean, params)
                        - log_ce_user(sol.K, tau, params))
    outside = abilities[np.abs(abilities - sol.K) >= _BOUNDARY_BAND]
    agree = int(np.count_nonzero((outside > crossing) == sol.is_user(outside)))
    fraction = agree / outside.size if outside.size else 1.0
    return CheckReport(
        statistic="role_sorting_agreement",
        expected=1.0,
        observed=fraction,
        se=0.0,
        passed=fraction == 1.0,
    )
