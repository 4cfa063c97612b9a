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

from .errors import DegenerateInputError, InvalidInputError, NumericalRangeError
from .model import TAU_MAX, TAU_MIN, ModelParams
from .numerics import (log_ndtr, log_normal_sf, portfolio_moment, shock_mean,
                       solve_bracketed)

_ROOT_TOL = 1e-13  # the solve's tolerance, times min(1, sigma_mu): the root's scale
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ThresholdSolution:
    mu_k: float        # centered threshold
    K: float           # uncentered threshold mu_k + mu_bar
    m: float           # user measure 1 - Phi(mu_k; 0, sigma_mu^2)
    tail_mean: float   # E[e^mu | mu > K]
    residual: float    # G(mu_k), of the returned iterate
    iterations: int    # Newton (or bisection) steps taken

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


def log_output_ratio(mu: float, sigma_mu: float) -> float:
    """log of the tail ratio SF(mu; sigma^2, sigma^2) / SF(mu; 0, sigma^2)
    at centered ability mu.  Log space keeps full relative resolution where
    both tails underflow, and in the far left tail where the ratio itself
    rounds to 1.  The kernels refuse a sigma_mu that is not > 0."""
    v = sigma_mu * sigma_mu
    return log_normal_sf(mu, v, sigma_mu) - log_normal_sf(mu, 0.0, sigma_mu)


def tail_expectation(K: float, mu_bar: float, sigma_mu: float) -> float:
    """E[e^mu | mu > K] for mu ~ N(mu_bar, sigma_mu^2): e^(mu_bar +
    sigma_mu^2/2) times the tail ratio at K - mu_bar.  Raises
    NumericalRangeError where that value overflows or underflows to 0."""
    try:
        value = math.exp(mu_bar + 0.5 * sigma_mu * sigma_mu
                         + log_output_ratio(K - mu_bar, sigma_mu))
    except OverflowError:
        value = math.inf
    if value in (0.0, math.inf):
        raise NumericalRangeError(
            f"E[e^mu | mu > K] {'overflows' if value else 'underflows to 0'}"
            f" at mu_bar={mu_bar}, sigma_mu={sigma_mu}")
    return value


def _moment_term(params: ModelParams) -> float:
    """The gamma-dependent portfolio-moment term entering F."""
    if params.gamma == 1.0:
        return portfolio_moment(params.theta, params.sigma_idio, 1.0)
    m = portfolio_moment(params.theta, params.sigma_idio, params.gamma)
    return math.log(m) / (1.0 - params.gamma)


def log_ratio_and_slope(mu: float, v: float) -> tuple[float, float]:
    """The mu-dependent term of F at centered ability mu, for ability
    variance v, and the slope of F: the log ratio log SF(mu; v, v) -
    log CDF(mu; 0, v), and dF/dmu = -(h_hi + r_lo) < 0, where h_hi =
    pdf/SF of N(v, v) and r_lo = pdf/CDF of N(0, v) at mu.  Each of h_hi
    and r_lo is exp(log pdf - log tail) from the same two log_ndtr values
    the ratio uses, so the slope costs two exp more."""
    s = math.sqrt(v)
    z_hi, z_lo = (mu - v) / s, mu / s
    log_sf_hi, log_cdf_lo = log_ndtr(-z_hi), log_ndtr(z_lo)
    h_hi = math.exp(-0.5 * z_hi * z_hi - _LOG_SQRT_2PI - log_sf_hi)
    r_lo = math.exp(-0.5 * z_lo * z_lo - _LOG_SQRT_2PI - log_cdf_lo)
    return log_sf_hi - log_cdf_lo, -(h_hi + r_lo) / s


# Memoised on (tau, params): ModelParams is frozen and hashable, and the
# solution is frozen, so every caller with equal inputs shares one solve.
# 512 entries hold a whole tau grid at several parameter sets; typed, so
# that an int tau never answers for a float one.  Exceptions are not cached.
@functools.lru_cache(maxsize=512, typed=True)
def solve_threshold(tau: float, params: ModelParams) -> ThresholdSolution:
    """Unique root of G(mu) = mu - F(tau, mu), by safeguarded Newton.

    F = c + log ratio, with c = logit(tau) + v/2 - moment term, so G' =
    1 - dF/dmu >= 1: G is strictly increasing from -inf to +inf, and
    numerics.solve_bracketed finds its root to 1e-13 min(1, sigma_mu) plus
    8 eps |mu|.  The start is mu = v/2, where both log tails are
    log Phi(sigma_mu/2), so the log ratio is exactly 0 and G = v/2 - c: its
    first step is closed-form.  The residual is G at the returned iterate;
    iterations counts the Newton (or bisection) steps.
    """
    _check_tau(tau)
    moment = _moment_term(params)
    s = params.sigma_mu
    v = s * s
    logit = math.log(tau) - math.log1p(-tau)
    c = logit + 0.5 * v - moment

    def G(mu):
        log_ratio, dF_dmu = log_ratio_and_slope(mu, v)
        return mu - (c + log_ratio), 1.0 - dF_dmu

    # G(lo) < -20, so lo needs no evaluation: at lo the log tail ratio is at
    # least log(1/2) - log Phi(-6), about 20, and the moment term at most 0
    # (Jensen: E[theta e^eps + 1 - theta] = 1).
    lo = min(logit, 0.0) - 6.0 * params.sigma_mu
    z = 0.5 * v / s  # z_lo at v/2, and -z_hi: h_hi = r_lo there
    slope = 1.0 + 2.0 * math.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_ndtr(z)) / s
    mu, g, steps = solve_bracketed(G, lo, math.inf, 0.5 * v, 0.5 * v - c, slope,
                                   _ROOT_TOL * min(1.0, s))

    K = mu + params.mu_bar
    m = math.exp(log_normal_sf(mu, 0.0, s))
    return ThresholdSolution(
        mu_k=mu,
        K=K,
        m=m,
        tail_mean=tail_expectation(K, params.mu_bar, params.sigma_mu),
        residual=g,
        iterations=steps,
    )


def _agg_moment(params: ModelParams) -> float:
    """E[e^((1-gamma) * eps_agg)] with eps_agg ~ N(-sigma^2/2, sigma^2)."""
    a = 1.0 - params.gamma
    s2 = params.sigma_agg * params.sigma_agg
    return math.exp(-0.5 * a * s2 + 0.5 * a * a * s2)


def user_utility(mu_i: float, tau: float, params: ModelParams) -> float:
    """Expected utility of investing as a data user with ability mu_i."""
    _check_tau(tau)
    if params.gamma == 1.0:
        return (
            math.log1p(-tau)
            + math.log(params.D)
            + mu_i
            + shock_mean(params.sigma_agg)
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
            + shock_mean(params.sigma_agg)
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
