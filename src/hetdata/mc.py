"""Finite-population brute-force checks of the continuum identities.

Every statistical check uses the 3-standard-error acceptance rule with a
fixed master seed; identities that hold exactly at finite n (market
clearing, role sorting away from the boundary) are checked exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .model import ModelParams
from .numerics import mean_and_m2, merge_mean_m2, shock_mean, standard_error
from .statics import aggregate_output
from .threshold import (
    ThresholdSolution,
    provider_utility,
    solve_threshold,
    user_utility,
)

_BOUNDARY_BAND = 1e-8
# agents per block of the population checks, which so allocate nothing of
# population size; fixed so the bits do not depend on anything else
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
    abilities: np.ndarray
    roles: np.ndarray          # boolean, True = HighUser
    user_shocks: np.ndarray    # idiosyncratic shocks of the users, in agent order
    agg_shock: float
    threshold: ThresholdSolution


def draw_population(
    n: int, params: ModelParams, stream: np.random.Generator
) -> PopulationSample:
    """n i.i.d. agents with roles assigned at the solved threshold; only
    users, the agents with output, draw an idiosyncratic shock."""
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    solution = solve_threshold(params.tau, params)
    # numpy computes mean + std * z from the same standard-normal draw
    abilities = stream.normal(params.mu_bar, params.sigma_mu, n)
    roles = solution.is_user(abilities)
    # drawn after every ability, so independent of the roles
    user_shocks = stream.normal(shock_mean(params.sigma_idio), params.sigma_idio,
                                int(np.count_nonzero(roles)))
    agg = stream.normal(shock_mean(params.sigma_agg), params.sigma_agg)
    return PopulationSample(
        abilities=abilities,
        roles=roles,
        user_shocks=user_shocks,
        agg_shock=agg,
        threshold=solution,
    )


def _user_abilities(sample: PopulationSample) -> np.ndarray:
    """The users' abilities, in agent order: the partners of `user_shocks`."""
    # by index: a boolean-mask gather of a random 10^6-agent mask took
    # 6-7 ms, the index search plus the gather 1.4 ms (numpy 2.4.6)
    return sample.abilities[np.flatnonzero(sample.roles)]


def lln_check(sample: PopulationSample, params: ModelParams) -> List[CheckReport]:
    """Sample aggregate of user output vs the m * tail_mean continuum limit
    at the sample's own threshold."""
    n = len(sample.abilities)
    if n < 2:  # the standard error is a ddof=1 spread
        raise InvalidInputError("the LLN check needs n >= 2")
    if len(sample.user_shocks) == 0:
        raise DegenerateInputError("population contains no data users")
    # e^(mu + eps) for the users, a provider's output 0; each block reduced,
    # the blocks merged in agent order
    part = (0, 0.0, 0.0)  # agents done, their mean and M2
    users = 0  # users done, the partners of the next shocks
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        terms = np.compress(sample.roles[start:stop],
                            sample.abilities[start:stop])
        terms += sample.user_shocks[users:users + len(terms)]
        users += len(terms)
        np.exp(terms, out=terms)
        part = merge_mean_m2(part, (stop - start,
                                    *mean_and_m2(terms, stop - start)))
    observed, se = part[1], standard_error(part[2], n)
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
    n = len(sample.abilities)
    if n < 2:
        raise InvalidInputError("market clearing needs n >= 2")
    theta = params.theta
    # e^mu a block at a time in one buffer: summed for the weights' total,
    # then again as shares of it
    buffer = np.empty(min(_BLOCK, n))
    blocks = [(sample.abilities[start:start + _BLOCK],
               buffer[:min(_BLOCK, n - start)])
              for start in range(0, n, _BLOCK)]
    weight_sum = 0.0
    for abilities, out in blocks:
        weight_sum += float(np.sum(np.exp(abilities, out=out)))
    total = 0.0
    for abilities, out in blocks:
        shares = np.exp(abilities, out=out)
        shares *= 1.0 - theta
        shares /= weight_sum
        total += float(np.sum(shares))
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
    if sizes != sorted(sizes) or len(sizes) == 0:
        raise InvalidInputError("sizes must be a non-empty increasing sequence")
    theta = params.theta
    reports = []
    for n in sizes:
        sample = draw_population(n, params, stream)
        n_users = len(sample.user_shocks)
        # the gap's standard error is a ddof=1 spread over the users, so it
        # needs two of them
        if n_users < 2:
            raise DegenerateInputError(
                f"consumption at n={n} needs two or more data users, "
                f"drew {n_users}"
            )
        mu, eps_i = _user_abilities(sample), sample.user_shocks
        # D e^eps (1 - tau), shared by every user
        scale = params.D * math.exp(sample.agg_shock) * (1.0 - params.tau)
        e_mu, e_mu_eps = np.exp(mu), np.exp(mu + eps_i)
        # finite-n user consumption from the portfolio definition,
        # C_i = theta y_i (1-tau) + (1-theta)(1-tau) D e^mu_i e^eps
        #       * (sum_j e^(mu_j + eps_j)) / (sum_p e^(mu_p)), j, p over users,
        # against its closed form
        pool_ratio = float(np.sum(e_mu_eps) / np.sum(e_mu))
        built = theta * scale * e_mu_eps + (1.0 - theta) * scale * e_mu * pool_ratio
        closed = scale * e_mu * (theta * np.exp(eps_i) + 1.0 - theta)
        diff = built - closed
        # Every user's gap shares the single pool factor, so the
        # cross-sectional spread of diff says nothing about the sampling
        # error of its mean.  Algebraically the mean gap equals
        # (1-theta) * scale * mean_j[e^mu_j (e^eps_j - 1)] whose terms are
        # i.i.d.; the SE comes from those terms.
        pool_m2 = mean_and_m2(e_mu_eps - e_mu, n_users)[1]
        se = (1.0 - theta) * scale * standard_error(pool_m2, n_users)
        reports.append(
            _three_se_report(f"consumption_gap_n{n}", 0.0, float(np.mean(diff)), se)
        )
    # provider consumption at the largest size: pooled costs spread over
    # the provider mass
    m_hat = n_users / n
    if not (0.0 < m_hat < 1.0):
        raise DegenerateInputError("population is all users or all providers")
    # tau D e^eps times e^(mu_i + eps_i) for a user, 0 for a provider
    output_scale = params.tau * params.D * math.exp(sample.agg_shock)
    mean_output, m2_output = mean_and_m2(e_mu_eps, n)
    se_output = standard_error(m2_output, n)
    observed_cs = output_scale * mean_output / (1.0 - m_hat)
    se_cs = output_scale * se_output / (1.0 - m_hat)
    sol = sample.threshold
    expected_cs = output_scale * sol.m * sol.tail_mean / (1.0 - sol.m)
    reports.append(
        _three_se_report("provider_consumption", expected_cs, observed_cs, se_cs)
    )
    return reports


def role_sorting_check(
    sample: PopulationSample, params: ModelParams
) -> CheckReport:
    """Utility comparison must reproduce the threshold classification.

    Utilities are taken at params.tau, the cost rate at which the sample's
    roles were assigned.  Agents within the boundary band |mu_i - K| < 1e-8
    are excluded (the sign there is numerically undecidable by
    construction).
    """
    tau = params.tau
    sol = sample.threshold
    v_s = provider_utility(tau, sol.m, sol.tail_mean, params)
    outside = np.abs(sample.abilities - sol.K) >= _BOUNDARY_BAND
    agree = 0
    counted = 0
    for mu_i, is_user in zip(sample.abilities[outside], sample.roles[outside]):
        v_i = user_utility(float(mu_i), tau, params)
        counted += 1
        if (v_i > v_s) == bool(is_user):
            agree += 1
    fraction = agree / counted if counted else 1.0
    return CheckReport(
        statistic="role_sorting_agreement",
        expected=1.0,
        observed=fraction,
        se=0.0,
        passed=fraction == 1.0,
    )
