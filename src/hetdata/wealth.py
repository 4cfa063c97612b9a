"""Jump-diffusion capital dynamics and the financial-friction match.

Log capital follows

    d log K = (r_f + alpha*mu_hat - alpha^2 sigma_w^2 / 2 - lambda) dt
              + alpha sigma_w dZ + log(1 - alpha L) dN,

with Poisson jump intensity w and loss fraction L, starting from
K_0 = lambda * W_0.  The dynamics are exactly integrable between jumps,
so simulation carries no discretization bias and the closed-form mean

    E K_t = lambda W_0 exp{(r_f + alpha*mu_hat - lambda
                            + w[E(1 - alpha L) - 1]) t}

can be verified by Monte Carlo to statistical accuracy.  The friction
coefficient lambda >= 1 solves e^(lambda t*)/lambda = f(mu_i, t*) on the
increasing branch.
"""
from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, NoSolutionError, NumericalRangeError
from .model import ModelParams
from .numerics import make_stream, solve_bracketed

_EXP_ARG_MAX = 700.0  # exp overflows just above this
_MC_BATCH = 16384     # paths per stream; fixed so results are seed-reproducible
# the friction coefficient of the wealth stage's Monte Carlo check, and of
# verify's jump_diffusion_mean cases, when no grid is given
LAMBDA_DEFAULT = 1.5


def _drift_continuous(params: ModelParams, lam: float) -> float:
    """Drift of log K between jumps."""
    a, s = params.alpha, params.sigma_w
    return params.r_f + a * params.mu_hat - 0.5 * a * a * s * s - lam


def _mean_rate(params: ModelParams, lam: float) -> float:
    """Exponential growth rate of E K_t (diffusion variance cancels)."""
    return (
        params.r_f
        + params.alpha * params.mu_hat
        - lam
        - params.w * params.alpha * params.loss.mean  # w[E(1-aL) - 1]
    )


def expected_capital(params: ModelParams, t: float, lam: float) -> float:
    """Closed-form E K_t.  Raises NumericalRangeError where it overflows."""
    if t <= 0.0:
        raise InvalidInputError(f"t must be > 0, got {t}")
    if lam < 1.0:
        raise InvalidInputError(f"lambda must be >= 1, got {lam}")
    try:
        value = lam * params.W0 * math.exp(_mean_rate(params, lam) * t)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise NumericalRangeError(f"E K_t overflows at lambda={lam}, t={t}")
    return value


def _terminal_capital(
    params: ModelParams, lam: float, t: float, n: int, stream: np.random.Generator
) -> np.ndarray:
    """Vectorized exact terminal K for n paths (one stream)."""
    drift = _drift_continuous(params, lam)
    vol = params.alpha * params.sigma_w
    logK = math.log(lam * params.W0) + drift * t
    logK = logK + vol * math.sqrt(t) * stream.standard_normal(n)
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
# repeated case, such as wealth.csv's lambda = 1.5 row and verify's
# diffusion_and_jumps case, is simulated once.  Exceptions are not cached.
@functools.lru_cache(maxsize=512, typed=True)
def mc_expected_capital(
    params: ModelParams,
    lam: float,
    t: float,
    n_paths: int,
    master_seed: int,
) -> Tuple[float, float]:
    """Monte Carlo (estimate, standard error) of E K_t.

    Paths are drawn in fixed-size batches with one stream per batch
    index, then reduced in batch order, so the result is bit-identical
    for a given master seed regardless of how batches are scheduled.
    Raises NumericalRangeError where a path or its square overflows.
    """
    if n_paths < 100:
        raise InvalidInputError(f"n_paths must be >= 100, got {n_paths}")
    if t <= 0.0:
        raise InvalidInputError(f"t must be > 0, got {t}")
    total = 0.0
    total_sq = 0.0
    done = 0
    batch_index = 0
    # an overflow reaches total_sq, which is tested once, below
    with np.errstate(over="ignore"):
        while done < n_paths:
            n = min(_MC_BATCH, n_paths - done)
            terminal = _terminal_capital(
                params, lam, t, n, make_stream(master_seed, batch_index)
            )
            total += float(np.sum(terminal))
            total_sq += float(np.sum(terminal * terminal))
            done += n
            batch_index += 1
    if not math.isfinite(total_sq):
        raise NumericalRangeError(
            f"squared Monte Carlo paths overflow at lambda={lam}, t={t}"
        )
    mean = total / n_paths
    var = max(total_sq / n_paths - mean * mean, 0.0)
    return mean, math.sqrt(var / n_paths)


def f_lambda(lam: float, t: float) -> float:
    """e^(lambda t) / lambda; increasing in lambda where lambda*t > 1."""
    if t <= 0.0:
        raise InvalidInputError(f"t must be > 0, got {t}")
    if lam <= 0.0:
        raise InvalidInputError(f"lambda must be > 0, got {lam}")
    if lam * t > _EXP_ARG_MAX:
        raise NumericalRangeError(f"e^(lambda*t) overflows for lambda*t={lam * t}")
    return math.exp(lam * t) / lam


def f_mu(mu_i: float, params: ModelParams) -> float:
    """Ability side of the friction match, at the target capital level.

    f(mu_i, t*) = e^(mu_i + eps0 + eps_i0) D (1 - tau) / EK_target
                  * exp{(r_f + alpha*mu_hat + w[E(1 - alpha L) - 1]) t*},
    with initial wealth W0 = y_0 (1 - tau) built from the shock pair
    (eps0, eps_i0) fixed at its means.  Raises NumericalRangeError where
    that value overflows.
    """
    eps0, eps_i0 = params.agg_shock_spec.mean, params.idio_shock_spec.mean
    try:
        value = (
            math.exp(mu_i + eps0 + eps_i0)
            * params.D
            * (1.0 - params.tau)
            / params.EK_target
            * math.exp(_mean_rate(params, 0.0) * params.t_star)
        )
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise NumericalRangeError(f"f(mu_i, t*) overflows at mu_i={mu_i}")
    return value


# Memoised like threshold.solve_threshold; theorem1_report makes two friction
# solves per threshold pair, so twice its 512 entries.  Exceptions are not
# cached.
@functools.lru_cache(maxsize=1024, typed=True)
def solve_lambda(mu_i: float, params: ModelParams) -> float:
    """lambda*: the root of e^(lambda t*)/lambda = f(mu_i, t*) on the
    increasing branch.

    The branch starts at lambda = max(1, 1/t*) = 1 (t* > 1 is enforced at
    validation), where f_lambda attains its minimum e^(t*); targets below
    that minimum have no solution and are reported, never fabricated.
    """
    t = params.t_star
    target = f_mu(mu_i, params)
    f_min = f_lambda(1.0, t)
    if target < f_min * (1.0 - 1e-12):
        raise NoSolutionError(target, f_min)

    log_target = math.log(target)

    def g(lam: float) -> float:
        return lam * t - math.log(lam) - log_target

    # the target is at the minimum e^(t*), or below it by less than the
    # no-solution tolerance: lambda* is the branch start
    if g(1.0) >= -1e-13 * max(1.0, abs(log_target)):
        return 1.0
    # double the bracket up to the largest lambda whose e^(lambda t*) is
    # finite; a root beyond it cannot be represented
    hi, cap = 1.0, _EXP_ARG_MAX / t
    while g(hi) < 0.0:
        if hi >= cap:
            raise NumericalRangeError(
                f"lambda root lies beyond the overflow bound lambda={cap}"
            )
        hi = min(2.0 * hi, cap)
    return solve_bracketed(g, 1.0, hi, 1e-12)


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
