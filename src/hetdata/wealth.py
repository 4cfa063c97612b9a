"""Jump-diffusion capital dynamics and the financial-friction match.

Log capital follows

    d log K = (r_f + alpha (mu0 + w E L) - alpha^2 sigma_w^2 / 2 - lambda) dt
              + alpha sigma_w dZ + log(1 - alpha L) dN,

with Poisson jump intensity w and loss fraction L, starting from
K_0 = lambda * W_0.  The drift's alpha w E L compensates the jumps, whose
mean effect on K is w[E(1 - alpha L) - 1] = -alpha w E L, so the mean

    E K_t = lambda W_0 exp{(r_f + alpha mu0 - lambda) t}

depends on neither w nor the loss law.  The dynamics are exactly
integrable between jumps, so simulation carries no discretization bias
and the closed form can be verified by Monte Carlo to statistical
accuracy.  The friction coefficient lambda >= 1 solves
e^(lambda t*)/lambda = f(mu_i, t*) on the increasing branch, solved in
log space with no upper bound on lambda.
"""
from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, NoSolutionError, NumericalRangeError
from .model import ModelParams
from .numerics import (make_stream, mean_and_m2, merge_mean_m2, shock_mean,
                       standard_error)

_LOG_2 = math.log(2.0)
_MC_BATCH = 16384     # paths per stream; fixed so results are seed-reproducible
# the largest Poisson mean numpy draws (its POISSON_LAM_MAX); a larger one
# raises an untyped ValueError
_POISSON_MEAN_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10
# the friction coefficient of verify's jump_diffusion_mean cases and of the
# one Monte Carlo sample the wealth stage draws and judges, in units of
# E K_t*, which its grid rows scale by E K_t*(lambda)
LAMBDA_DEFAULT = 1.5


def _mean_rate(params: ModelParams, lam: float) -> float:
    """Exponential growth rate of E K_t: the diffusion's variance and the
    jumps' compensator leave it."""
    return params.r_f + params.alpha * params.mu0 - lam


def _check_t_lambda(t: float, lam: float) -> None:
    """The horizon and friction coefficient E K_t is defined for."""
    if not 0.0 < t < math.inf:  # NaN too
        raise InvalidInputError(f"t must be finite and > 0, got {t}")
    if not 1.0 <= lam < math.inf:
        raise InvalidInputError(f"lambda must be finite and >= 1, got {lam}")


def expected_capital(params: ModelParams, t: float, lam: float) -> float:
    """Closed-form E K_t.  Raises NumericalRangeError where it overflows."""
    _check_t_lambda(t, lam)
    rate_t = _mean_rate(params, lam) * t
    # the product while e^(rate t) is normal and the product finite; else a
    # factor leaves the float range where E K_t may not: sum the logs
    value = math.nan
    if abs(rate_t) < 708.0:
        value = lam * params.W0 * math.exp(rate_t)
    if not math.isfinite(value):
        try:
            value = math.exp(math.log(lam) + math.log(params.W0) + rate_t)
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise NumericalRangeError(f"E K_t overflows at lambda={lam}, t={t}")
    return value


def _terminal_capital(
    params: ModelParams, lam: float, t: float, n: int, stream: np.random.Generator
) -> np.ndarray:
    """Vectorized exact K_t / E K_t for n paths (one stream)."""
    vol = params.alpha * params.sigma_w
    # log(lambda W0) and the mean rate cancel exactly; what is left of the
    # drift is the jumps' compensator and the diffusion's -vol^2/2
    mean = (params.alpha * params.w * params.loss.mean - 0.5 * vol * vol) * t
    if vol == 0.0 and params.w == 0.0:  # nothing random: draw nothing
        return np.exp(np.full(n, mean))
    # the bits of stream.normal(mean, vol sqrt t, n), which is mean + scale
    # * z per element, from two in-place passes, faster on a cached batch
    logK = stream.standard_normal(n)
    logK *= vol * math.sqrt(t)
    logK += mean
    if params.w == 0.0:  # no jumps; the Poisson draw is the stream's last
        return np.exp(logK)
    counts = stream.poisson(params.w * t, n)
    loss = params.loss
    if len(loss.values) == 1:
        logK += counts * math.log1p(-params.alpha * loss.values[0])
    else:
        k1 = stream.binomial(counts, loss.probs[0])
        logK += k1 * math.log1p(-params.alpha * loss.values[0])
        logK += (counts - k1) * math.log1p(-params.alpha * loss.values[1])
    return np.exp(logK)


# Memoised like threshold.solve_threshold: the estimate is a pure function
# of its arguments (each batch stream is keyed by the master seed), so a
# repeated case, such as wealth.csv's sample and verify's
# diffusion_and_jumps case, is simulated once.  Exceptions are not cached.
@functools.lru_cache(maxsize=512, typed=True)
def mc_expected_capital(
    params: ModelParams,
    lam: float,
    t: float,
    n_paths: int,
    master_seed: int,
) -> Tuple[float, float]:
    """Monte Carlo (estimate, ddof=1 standard error) of E[K_t / E K_t] = 1:
    paths in units of E K_t, which neither overflow nor underflow with it.

    Paths are drawn in fixed-size batches with one stream per batch index;
    each batch's mean and M2 are merged in batch order, so the result is
    bit-identical for a given master seed regardless of how batches are
    scheduled.  Refuses the t and lambda that expected_capital refuses,
    and raises NumericalRangeError where the jump count's mean w*t is too
    large to draw or the mean or SE is not finite.
    """
    if n_paths < 100:
        raise InvalidInputError(f"n_paths must be >= 100, got {n_paths}")
    _check_t_lambda(t, lam)
    if params.w * t > _POISSON_MEAN_MAX:
        raise NumericalRangeError(
            f"jump count mean w*t={params.w * t} exceeds the largest "
            f"Poisson mean drawn, {_POISSON_MEAN_MAX}")
    part = (0, 0.0, 0.0)  # paths done, their mean and M2
    while part[0] < n_paths:
        n = min(_MC_BATCH, n_paths - part[0])
        stream = make_stream(master_seed, part[0] // _MC_BATCH)  # batch index
        terminal = _terminal_capital(params, lam, t, n, stream)
        part = merge_mean_m2(part, (n, *mean_and_m2(terminal, n)))
    mean, se = part[1], standard_error(part[2], n_paths)
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise NumericalRangeError(
            f"Monte Carlo K_t / E K_t is not finite at lambda={lam}, t={t}")
    return mean, se


def f_lambda(lam: float, t: float) -> float:
    """e^(lambda t) / lambda; increasing in lambda where lambda*t > 1.
    Raises NumericalRangeError where the quotient overflows."""
    if not 0.0 < t < math.inf:  # NaN too
        raise InvalidInputError(f"t must be finite and > 0, got {t}")
    if not 0.0 < lam < math.inf:
        raise InvalidInputError(f"lambda must be finite and > 0, got {lam}")
    try:
        value = math.exp(lam * t) / lam
    except OverflowError:  # e^(lambda t) overflows; the quotient may not
        try:
            value = math.exp(lam * t - math.log(lam))
        except OverflowError:
            value = math.inf
    if value == math.inf:
        raise NumericalRangeError(
            f"e^(lambda*t)/lambda overflows at lambda={lam}, t={t}")
    return value


def log_f_mu(mu_i: float, params: ModelParams) -> float:
    """log f(mu_i, t*), the ability side of the friction match at the target
    capital level, summed from its log terms, so finite where f overflows:

    f(mu_i, t*) = e^(mu_i + eps0 + eps_i0) D (1 - tau) / EK_target
                  * exp{(r_f + alpha mu0) t*},
    with initial wealth W0 = y_0 (1 - tau) built from the shock pair
    (eps0, eps_i0) fixed at its means; like E K_t, it depends on neither
    w nor the loss law.
    """
    eps0, eps_i0 = shock_mean(params.sigma_agg), shock_mean(params.sigma_idio)
    value = (mu_i + eps0 + eps_i0 + math.log(params.D)
             + math.log1p(-params.tau) - math.log(params.EK_target)
             + _mean_rate(params, 0.0) * params.t_star)
    if not math.isfinite(value):  # mu_i is not finite, or the sum overflows
        raise InvalidInputError(f"log f(mu_i, t*) is {value} at mu_i={mu_i}")
    return value


def f_mu(mu_i: float, params: ModelParams) -> float:
    """f(mu_i, t*), the level of figure 1.  Raises NumericalRangeError
    where it overflows."""
    try:
        return math.exp(log_f_mu(mu_i, params))
    except OverflowError:
        raise NumericalRangeError(
            f"f(mu_i, t*) overflows at mu_i={mu_i}") from None


# Memoised like threshold.solve_threshold; theorem1_report makes two friction
# solves per threshold pair, so twice its 512 entries.  Exceptions are not
# cached.
@functools.lru_cache(maxsize=1024, typed=True)
def solve_lambda(mu_i: float, params: ModelParams) -> float:
    """lambda*: the root of e^(lambda t*)/lambda = f(mu_i, t*) on the
    increasing branch.

    The branch starts at lambda = max(1, 1/t*) = 1 (t* > 1 is enforced at
    validation), where f_lambda attains its minimum e^(t*); targets below
    that minimum have no solution and are reported, as log f < t*, never
    fabricated.  In u = lambda t* and c = log f - log t* the match is
    u - log u = c, with root -W_{-1}(-e^(-c)) (Corless et al. 1996, Adv.
    Comput. Math. 5:329); no e^(lambda t*) is formed, so lambda* is unbounded.
    """
    t = params.t_star
    log_f = log_f_mu(mu_i, params)
    if log_f < t + math.log1p(-1e-12):  # f < e^(t*) (1 - 1e-12)
        raise NoSolutionError(log_f, t)
    # the target is at the minimum e^(t*), or below it by less than the
    # no-solution tolerance: lambda* is the branch start
    if t - log_f >= -1e-13 * max(1.0, abs(log_f)):
        return 1.0
    # c > t* - log t* > 1 here: c + log(2c) bounds the root from above, and
    # Newton steps on the increasing, convex h(u) = u - log u - c fall to it;
    # stop once u no longer falls (a step below half an ulp leaves u as is)
    c = log_f - math.log(t)
    u = c + math.log(c) + _LOG_2  # log(2c) overflows for c >= 2^1023
    while True:
        nxt = u - (u - math.log(u) - c) / (1.0 - 1.0 / u)
        if not nxt < u:
            return u / t
        u = nxt


def figure1_curves(
    params: ModelParams,
    lambda_grid: Sequence[float],
    mu_values: Sequence[float],
) -> Tuple[List[tuple], List[tuple]]:
    """Curve/level data for the f(lambda, t*) = f(mu_i, t*) intersection:
    rows (lambda, f_lambda) of the curve, and rows (mu, level, lambda*) of
    the horizontal ability levels, lambda* None where no root exists."""
    lambdas = [float(lam) for lam in lambda_grid]
    mus = [float(mu) for mu in mu_values]
    if not lambdas or not mus:
        raise InvalidInputError("lambda grid and mu values must be non-empty")
    curve = [(lam, f_lambda(lam, params.t_star)) for lam in lambdas]
    levels = []
    for mu in mus:
        try:
            star = solve_lambda(mu, params)
        except NoSolutionError:
            star = None
        levels.append((mu, f_mu(mu, params), star))
    return curve, levels
