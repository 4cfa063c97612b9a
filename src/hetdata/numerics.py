"""Gaussian kernels, quadrature, root finding, streams, Monte Carlo means.

Every other module builds on these five pieces:

* Gaussian kernels on the math module: log_ndtr, and the log tail and
  hazard built on it, stable deep in either tail (no 1-cdf cancellation),
* the trapezoid rule for the portfolio moment E[(θe^ε + 1-θ)^(1-γ)],
  exponentially convergent on a step and window derived from its strip
  of analyticity, in one pass,
* a bracketed root finder (safeguarded Newton) for increasing functions,
* reproducible, independently-seeded random streams for Monte Carlo,
* the one two-pass mean and M2 of Monte Carlo terms, and their merge.
"""
from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Tuple

import numpy as np

from .errors import (
    EvaluationError,
    InvalidInputError,
    NumericalRangeError,
    SolverError,
)

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_LOG_HALF = math.log(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def shock_mean(sigma: float) -> float:
    """Mean -sigma^2/2 of a N(mean, sigma^2) shock eps with E[e^eps] = 1."""
    return -0.5 * (sigma * sigma)


def log_ndtr(z: float) -> float:
    """log Phi(z) of the standard normal at a float, without underflow.

    log1p(-Phi(-z)) above 0; log(erfc(t)/2) with t = -z/sqrt 2 while erfc(t)
    is a normal float (t < 26).  Beyond, erfc(t) = e^(-t^2) / (sqrt(pi) c),
    c the Laplace continued fraction t + (1/2)/(t + 1/(t + (3/2)/(t + ...)))
    evaluated bottom-up from eight levels, which have converged there (as in
    S. G. Johnson's Faddeeva package)."""
    if z > 0.0:
        return math.log1p(-0.5 * math.erfc(z / _SQRT2))
    t = -z / _SQRT2
    if t < 26.0:
        return math.log(0.5 * math.erfc(t))
    c = t
    for k in range(8, 0, -1):
        c = t + 0.5 * k / c
    return math.log(_INV_SQRT_PI / c) - t * t + _LOG_HALF


def log_tail_and_hazard(z: float) -> Tuple[float, float]:
    """log P(Z > z) and the hazard pdf(z) / P(Z > z) of the standard normal
    at a float z, the hazard as exp(log pdf - log tail) from the one
    log_ndtr value.  In the left tail the hazard is the pdf, 0.0 where that
    underflows; deep in the right tail the exponent cancels z^2/2 against
    the log tail, which costs the hazard about log2(z^2) bits."""
    log_tail = log_ndtr(-z)
    return log_tail, math.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_tail)


def _standardize(x: float, mean: float, std: float) -> float:
    """(x - mean) / std; a std that is not > 0, or a point that is not
    finite or whose standardized value is not, raises."""
    if not std > 0.0:  # NaN too
        raise InvalidInputError(f"std must be > 0, got {std}")
    z = (x - mean) / std
    if not math.isfinite(z):
        raise InvalidInputError(f"non-finite evaluation point {x}")
    return z


def log_normal_sf(x: float, mean: float, std: float) -> float:
    """log P(X > x), X ~ N(mean, std^2); stable deep in the right tail."""
    return log_ndtr(-_standardize(x, mean, std))


# portfolio_moment's trapezoid rule over the standardized shock t, eps = m +
# sigma1 t (Trefethen & Weideman 2014, SIAM Rev. 56:385), in one pass.  The
# integrand is analytic but where the base theta e^eps + 1 - theta is 0, at
# eps0 +- i pi (eps0 = log((1-theta)/theta)).  Step: Theorem 5.1 bounds the
# error by 2 M / (e^(2 pi Y / h) - 1) for a strip |Im t| < Y, M bounding the
# integral of |f| along Im t = +-Y.  There the Gaussian gains e^(Y^2/2) and
# |base| is at least cos(y/2) times its value at Re eps, y = sigma1 Y, so M
# is at most e^(Y^2/2) cos(y/2)^-c times the moment, c = gamma - 1 above 1
# and 0 below (c = 1 at gamma = 1 bounds the log's growth, relative to 1 +
# E|log base|).  With h = min(0.6, h_eps / sigma1), Y^2/2 <= 0.18 y^2 /
# h_eps^2 on both sides of the switch, so the relative error is below 2e^-D
# = 2^-53 once 0.18 y^2 / h_eps^2 - 2 pi y / h_eps + c K <= -D, K = -log
# cos(y/2): h_eps = y (pi + sqrt(pi^2 - 0.18 (D + c K))) / (D + c K).  Any y
# in (0, pi) bounds it; y = pi / sqrt(1 + c/10) is within 0.5% of the best
# h_eps at every c and keeps c K below 12.4, so the root is real.  Window:
# L(t) = (1-gamma) log(base) - t^2/2 has L'(t) = a p(t) - t, a = (1-gamma)
# sigma1, p = theta e^eps / base in [0, 1].  So every maximum of L lies in
# [min(0, a), max(0, a)], beyond it L falls at least like d^2/2 at distance
# d, and from either end the integral is at least e^L(end) sqrt(pi/2), for
# gamma < 1 too.  Past a pad of T the terms left out on each side sum to
# below (2/pi)^(1/2) h e^(-T^2/2) + 2 (1 - Phi(T)) of it: 1.5e-18 at T = 9.
_STEP_MAX = 0.6
_LOG_BOUND = 54.0 * math.log(2.0)  # D: 2 e^-D = 2^-53
_PAD = 9.0
_MAX_POINTS = 100_000  # past sigma1 = 43 at gamma = 12, 180 at gamma = 2
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _inputs(theta: float, sigma1: float, gamma: float) -> str:
    return f"theta={theta}, sigma_idio={sigma1}, gamma={gamma}"


# Memoised on the (theta, sigma1, gamma) triple, so equal inputs from
# different ModelParams share one evaluation; typed, so that a float32 or
# int argument never answers for a float one.  Exceptions are not cached.
@functools.lru_cache(maxsize=256, typed=True)
def portfolio_moment(theta: float, sigma1: float, gamma: float) -> float:
    """Moment of the mixed own/diversified return ϑe^ε + (1-ϑ).

    ε ~ N(-σ₁²/2, σ₁²) so that E[e^ε] = 1.  Returns
    E[(ϑe^ε + 1-ϑ)^(1-γ)] for γ != 1 and E[log(ϑe^ε + 1-ϑ)] for γ = 1,
    by one trapezoid pass with the step and window derived above.  A term
    that overflows (or a log of 0.0) raises EvaluationError, a window of
    over 100,000 points NumericalRangeError, each naming the inputs.
    """
    for name, value in (("theta", theta), ("sigma1", sigma1), ("gamma", gamma)):
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")
    if not 0.0 <= theta <= 1.0:
        raise InvalidInputError(f"theta must be in [0, 1], got {theta}")
    mean = shock_mean(sigma1)
    if not (sigma1 > 0.0 and mean > -math.inf):  # else nodes at -inf or NaN
        raise InvalidInputError(f"sigma1 must be > 0 with a finite square, "
                                f"got {sigma1}")
    if gamma <= 0.0:
        raise InvalidInputError(f"gamma must be > 0, got {gamma}")
    c = gamma - 1.0 if gamma > 1.0 else float(gamma == 1.0)
    y = math.pi / math.sqrt(1.0 + 0.1 * c)
    bound = _LOG_BOUND - c * math.log(math.cos(0.5 * y))  # cos(pi/2) > 0.0
    h_eps = y * (math.pi + math.sqrt(math.pi ** 2 - 0.18 * bound)) / bound
    h = min(_STEP_MAX, h_eps / sigma1)
    power = 1.0 - gamma
    a = power * sigma1
    if not (abs(a) + 2.0 * _PAD) / h < _MAX_POINTS:
        raise NumericalRangeError(
            f"portfolio moment at {_inputs(theta, sigma1, gamma)}: the "
            f"trapezoid window needs more than {_MAX_POINTS} points")
    first = math.ceil((min(0.0, a) - _PAD) / h)
    last = math.floor((max(0.0, a) + _PAD) / h)
    # 1 - theta once, exact for theta >= 1/2 (Sterbenz): at theta = 1 the
    # base is e^eps, never theta e^eps + 1 - theta cancelled to 0.0
    exp, log, q, total = math.exp, math.log, 1.0 - theta, 0.0
    try:
        if gamma == 1.0:
            for k in range(first, last + 1):
                t = k * h
                total += (exp(-0.5 * t * t)
                          * log(theta * exp(mean + sigma1 * t) + q))
        else:
            for k in range(first, last + 1):
                t = k * h
                total += exp(power * log(theta * exp(mean + sigma1 * t) + q)
                             - 0.5 * t * t)
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(
            f"portfolio moment at {_inputs(theta, sigma1, gamma)}: {exc!r} "
            f"at t={t}") from exc
    if total == math.inf:
        raise EvaluationError(
            f"portfolio moment at {_inputs(theta, sigma1, gamma)} overflows")
    return total * h * _INV_SQRT_2PI


# solve_bracketed stops once a Newton step is below half of the caller's
# absolute tolerance plus 8 machine epsilons of the iterate (the tolerance
# of scipy's brentq), and gives up after 60 steps
_NEWTON_RTOL = 8.0 * sys.float_info.epsilon
_NEWTON_MAXITER = 60


def solve_bracketed(
    fg: Callable[[float], Tuple[float, float]],
    lo: float, hi: float, x: float, fx: float, slope: float, tol: float,
) -> Tuple[float, float, float, int]:
    """Root of an increasing f in (lo, hi), by safeguarded Newton from x.

    fg(x) gives f(x) and its slope f'(x) > 0; the caller knows f(lo) < 0
    <= f(hi), and gives x in (lo, hi) with fx = f(x) and slope = f'(x).
    Neither end is evaluated, so hi may be inf.  Each iterate with f < 0
    raises lo and each other one lowers hi; a Newton step that leaves
    (lo, hi) is replaced by bisection.  Stops once a step is below
    (tol + 8 eps |x|) / 2 and returns that iterate, f and f' there (the
    caller's own after 0 steps) and the number of steps, with no further
    evaluation.  A NaN from fg raises
    EvaluationError naming x; no stop in 60 steps raises SolverError.
    """
    if tol <= 0.0:
        raise InvalidInputError(f"tol must be > 0, got {tol}")
    if not lo < x < hi:
        raise InvalidInputError(f"need lo < x < hi, got {lo}, {x}, {hi}")
    steps = 0
    while True:
        step = fx / slope
        if step != step:
            raise EvaluationError(f"root finder: f or f' is NaN at x={x}")
        if abs(step) <= 0.5 * (tol + _NEWTON_RTOL * abs(x)):
            return x, fx, slope, steps
        if steps == _NEWTON_MAXITER:
            raise SolverError(
                f"root finder did not converge on [{lo}, {hi}] at tolerance "
                f"{tol} in {_NEWTON_MAXITER} iterations: last iterate x={x}, "
                f"f={fx}")
        if fx < 0.0:
            lo = x
        else:
            hi = x
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        steps += 1
        fx, slope = fg(x)


def make_stream(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic sub-stream keyed by (master_seed, index).

    SFC64 generator, numpy's fastest: equal keys reproduce equal sequences,
    and SeedSequence spawn keys make distinct indices independent streams.
    Index 0 belongs to the Monte Carlo, whose batches are its spawned
    children.  Single-owner: never share one generator between workers.
    """
    if master_seed < 0:
        raise InvalidInputError(f"master seed must be >= 0, got {master_seed}")
    if index < 0:
        raise InvalidInputError(f"stream index must be >= 0, got {index}")
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.SFC64(seq))


def mean_and_m2(terms: np.ndarray, n: int) -> Tuple[float, float]:
    """Mean and M2, the sum of squared deviations, of n values: `terms` and
    n - len(terms) zeros, in two passes.  Overwrites `terms`."""
    mean = float(np.add.reduce(terms)) / n
    terms -= mean
    np.square(terms, out=terms)
    # each zero deviates from the mean by -mean
    m2 = float(np.add.reduce(terms)) + (n - len(terms)) * (mean * mean)
    return mean, m2


def merge_mean_m2(a: Tuple[int, float, float],
                  b: Tuple[int, float, float]) -> Tuple[int, float, float]:
    """(count, mean, M2) of the union of two parts, each given as one (Chan,
    Golub & LeVeque 1983, Am. Stat. 37:242); an empty part changes nothing."""
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    share_b, delta = n_b / (n_a + n_b), mean_b - mean_a
    return (n_a + n_b, mean_a + delta * share_b,
            m2_a + m2_b + delta * delta * (n_a * share_b))


def standard_error(m2: float, n: int) -> float:
    """ddof=1 standard error of the mean of n values whose M2 is m2."""
    return math.sqrt(m2 / (n - 1)) / math.sqrt(n)
