"""Ability-threshold equilibrium: fixed point, participation, utilities.

The threshold mu_k (centered ability) is the fixed point of

    mu = log(tau/(1-tau)) + sigma_mu^2/2
         + log[(1 - Phi(mu; sigma_mu^2, sigma_mu^2)) / Phi(mu; 0, sigma_mu^2)]
         - moment_term(theta, sigma_idio, gamma)

where the moment term is (1/(1-gamma)) log E[(theta e^e + 1-theta)^(1-gamma)]
for gamma != 1 and E[log(theta e^e + 1-theta)] at gamma = 1.  Agents with
centered ability above mu_k act as data users, the rest as providers; the
two expected utilities coincide exactly at the threshold.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DegenerateInputError, InvalidInputError, SolverError
from .model import TAU_MAX, TAU_MIN, ModelParams
from .numerics import (
    GaussianSpec,
    log_normal_sf,
    portfolio_moment,
    solve_bracketed,
)

_ROOT_TOL = 1e-13


@dataclass(frozen=True)
class ThresholdSolution:
    mu_k: float        # centered threshold
    K: float           # uncentered threshold mu_k + mu_bar
    m: float           # user measure 1 - Phi(mu_k; 0, sigma_mu^2)
    tail_mean: float   # E[e^mu | mu > K]
    residual: float
    iterations: int

    def is_user(self, ability):
        """Data user iff the (uncentered) ability exceeds K; a tie goes to
        the provider.  Takes a scalar or an array of abilities."""
        return ability > self.K

    def to_dict(self) -> dict:
        # a copy: solve_threshold's memo shares this instance
        return dict(vars(self))


def _check_tau(tau: float) -> None:
    if not (TAU_MIN <= tau <= TAU_MAX):
        raise InvalidInputError(
            f"tau must lie in [{TAU_MIN}, {TAU_MAX}], got {tau}"
        )


# One pair per parameter set; typed, so that an int v never answers for a
# float one.  Exceptions are not cached.
@functools.lru_cache(maxsize=64, typed=True)
def ability_specs(v: float) -> tuple[GaussianSpec, GaussianSpec]:
    """N(v, v) and N(0, v), whose tails make up the output ratio."""
    return GaussianSpec(v, v), GaussianSpec(0.0, v)


def log_output_ratio(mu, sigma_mu: float):
    """log of the tail ratio SF(mu; sigma^2, sigma^2) / SF(mu; 0, sigma^2)
    at centered ability mu.  Log space keeps full relative resolution where
    both tails underflow, and in the far left tail where the ratio itself
    rounds to 1.  Takes a scalar or a numpy array of points."""
    if sigma_mu <= 0.0:
        raise InvalidInputError(f"sigma_mu must be > 0, got {sigma_mu}")
    spec_hi, spec_lo = ability_specs(sigma_mu * sigma_mu)
    return log_normal_sf(mu, spec_hi) - log_normal_sf(mu, spec_lo)


def tail_expectation(K: float, mu_bar: float, sigma_mu: float) -> float:
    """E[e^mu | mu > K] for mu ~ N(mu_bar, sigma_mu^2): e^(mu_bar +
    sigma_mu^2/2) times the tail ratio at K - mu_bar."""
    return math.exp(mu_bar + 0.5 * sigma_mu * sigma_mu
                    + log_output_ratio(K - mu_bar, sigma_mu))


def _moment_term(params: ModelParams) -> float:
    """The gamma-dependent portfolio-moment term entering F."""
    if params.gamma == 1.0:
        return portfolio_moment(params.theta, params.sigma_idio, 1.0)
    m = portfolio_moment(params.theta, params.sigma_idio, params.gamma)
    return math.log(m) / (1.0 - params.gamma)


def _rhs(logit: float, v: float, moment: float):
    """F(tau, .) as a function of mu, built from its mu-free parts: the
    logit of tau, the ability variance v and the precomputed moment term."""
    spec_hi, spec_lo = ability_specs(v)

    def F(mu: float) -> float:
        # log CDF(mu; 0, v) as log SF(-mu; 0, v): negation is exact
        log_ratio = log_normal_sf(mu, spec_hi) - log_normal_sf(-mu, spec_lo)
        return logit + 0.5 * v + log_ratio - moment

    return F


# Memoised on (tau, params): ModelParams is frozen and hashable, and the
# solution is frozen, so every caller with equal inputs shares one solve.
# 512 entries hold a whole tau grid at several parameter sets; typed, so
# that an int tau never answers for a float one.  Exceptions are not cached.
@functools.lru_cache(maxsize=512, typed=True)
def solve_threshold(tau: float, params: ModelParams) -> ThresholdSolution:
    """Unique root of G(mu) = mu - F(tau, mu).

    G is strictly increasing (F is decreasing in mu) with limits -inf and
    +inf, so a sign-change bracket always exists; we expand outward from
    the logit term, which dominates F at moderate mu.
    """
    _check_tau(tau)
    moment = _moment_term(params)
    v = params.sigma_mu ** 2
    logit = math.log(tau) - math.log1p(-tau)

    F = _rhs(logit, v, moment)

    def G(mu: float) -> float:
        return mu - F(mu)

    # The root sits near the logit for sigma_mu = O(1) but collapses toward
    # zero as sigma_mu -> 0, so seed the bracket with both anchors and grow
    # the step geometrically on each failed expansion.
    step = 6.0 * params.sigma_mu
    lo, hi = min(logit, 0.0) - step, max(logit, 0.0) + step
    expansions = 0
    while G(lo) > 0.0:
        lo -= step
        step *= 2.0
        expansions += 1
        if expansions > 100:
            raise SolverError(f"no lower bracket for tau={tau}: reached mu={lo}")
    step = 6.0 * params.sigma_mu
    while G(hi) < 0.0:
        hi += step
        step *= 2.0
        expansions += 1
        if expansions > 100:
            raise SolverError(f"no upper bracket for tau={tau}: reached mu={hi}")

    mu_k = solve_bracketed(G, lo, hi, _ROOT_TOL)
    K = mu_k + params.mu_bar
    m = math.exp(log_normal_sf(mu_k, ability_specs(v)[1]))
    return ThresholdSolution(
        mu_k=mu_k,
        K=K,
        m=m,
        tail_mean=tail_expectation(K, params.mu_bar, params.sigma_mu),
        residual=G(mu_k),
        iterations=expansions,
    )


def _agg_moment(params: ModelParams) -> float:
    """E[e^((1-gamma) * eps_agg)] with eps_agg ~ N(-sigma^2/2, sigma^2)."""
    a = 1.0 - params.gamma
    s2 = params.sigma_agg ** 2
    return math.exp(-0.5 * a * s2 + 0.5 * a * a * s2)


def user_utility(mu_i: float, tau: float, params: ModelParams) -> float:
    """Expected utility of investing as a data user with ability mu_i."""
    _check_tau(tau)
    if params.gamma == 1.0:
        return (
            math.log1p(-tau)
            + math.log(params.D)
            + mu_i
            - 0.5 * params.sigma_agg ** 2
            + portfolio_moment(params.theta, params.sigma_idio, 1.0)
        )
    a = 1.0 - params.gamma
    return (
        (1.0 - tau) ** a
        * params.D ** a
        * math.exp(a * mu_i)
        / a
        * _agg_moment(params)
        * portfolio_moment(params.theta, params.sigma_idio, params.gamma)
    )


def provider_utility(
    tau: float, m: float, tail_mean: float, params: ModelParams
) -> float:
    """Expected utility of a data provider given equilibrium (m, tail_mean)."""
    _check_tau(tau)
    if not (0.0 < m < 1.0):
        raise DegenerateInputError(f"user measure must be in (0, 1), got {m}")
    if tail_mean <= 0.0:
        raise InvalidInputError(f"tail_mean must be > 0, got {tail_mean}")
    if params.gamma == 1.0:
        return (
            math.log(tau)
            + math.log(params.D)
            - 0.5 * params.sigma_agg ** 2
            + math.log(m)
            + math.log(tail_mean)
            - math.log1p(-m)
        )
    a = 1.0 - params.gamma
    return (
        tau ** a
        * params.D ** a
        * _agg_moment(params)
        * tail_mean ** a
        * (m / (1.0 - m)) ** a
        / a
    )
