"""Gaussian kernels, Gauss-Hermite quadrature, root finding, seeded streams.

Every other module builds on these four pieces:

* Gaussian kernels on the math module (erfcx, log_ndtr) and the log tail
  and hazard built on them, stable deep in either tail (no 1-cdf
  cancellation),
* Gauss-Hermite quadrature of the portfolio moment E[(θe^ε + 1-θ)^(1-γ)],
* a bracketed root finder (safeguarded Newton) for increasing functions,
* reproducible, independently-seeded random streams for Monte Carlo.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import (
    ConvergenceError,
    EvaluationError,
    InvalidInputError,
    NumericalRangeError,
    SolverError,
)

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_LOG_HALF = math.log(0.5)


@dataclass(frozen=True)
class GaussianSpec:
    """N(mean, variance); variance is the *variance*, not the std."""

    mean: float
    variance: float
    # every kernel call reads it, so it is taken once, here
    std: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise InvalidInputError("GaussianSpec fields must be finite")
        if self.variance <= 0.0:
            raise InvalidInputError(f"variance must be > 0, got {self.variance}")
        object.__setattr__(self, "std", math.sqrt(self.variance))


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x) of a float.

    Below 25 it is exp(x^2) erfc(x) with x^2 split exactly, as Cody (1969,
    Math. Comp. 23:631) splits it: rounding x*x first would cost up to
    log2(x^2) bits.  From 25, where erfc nears underflow, it is the Laplace
    continued fraction 1/(sqrt(pi) (x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))))
    evaluated bottom-up from eight levels, which have converged there (as
    in S. G. Johnson's Faddeeva package).  Below -26.64, exp(x^2)
    overflows: inf.
    """
    if x >= 25.0:
        t = x
        for k in range(8, 0, -1):
            t = x + 0.5 * k / t
        return _INV_SQRT_PI / t
    if x < -26.64:
        return math.inf
    # x^2 = hi + lo exactly (Dekker 1971), x split in halves by 2^27 + 1
    hi = x * x
    t = 134217729.0 * x
    x_hi = t - (t - x)
    x_lo = x - x_hi
    lo = ((x_hi * x_hi - hi) + 2.0 * x_hi * x_lo) + x_lo * x_lo
    scaled = math.exp(hi) * math.erfc(x)
    return scaled + scaled * lo  # times exp(lo), lo being below 2^-44


def log_ndtr(z: float) -> float:
    """log Phi(z) of the standard normal at a float, without underflow.

    log1p(-Phi(-z)) above 0; log(erfc(t)/2) with t = -z/sqrt 2 while erfc(t)
    is a normal float (t < 26); log erfcx(t) - t^2 + log(1/2) beyond."""
    if z > 0.0:
        return math.log1p(-0.5 * math.erfc(z / _SQRT2))
    t = -z / _SQRT2
    if t < 26.0:
        return math.log(0.5 * math.erfc(t))
    return math.log(erfcx(t)) - t * t + _LOG_HALF


def _standardize(x: float, spec: GaussianSpec) -> float:
    """(x - mean) / std; a point that is not finite, or whose standardized
    value is not, raises."""
    z = (x - spec.mean) / spec.std
    if not math.isfinite(z):
        raise InvalidInputError(f"non-finite evaluation point {x}")
    return z


def log_normal_sf(x: float, spec: GaussianSpec) -> float:
    """log P(X > x); stable arbitrarily deep in the right tail."""
    return log_ndtr(-_standardize(x, spec))


def hazard_rate(x: float, spec: GaussianSpec) -> float:
    """pdf / (1 - cdf), via the scaled complementary error function.

    h(z) = sqrt(2/pi) / erfcx(z / sqrt 2) for the standard normal, which
    stays accurate deep in the right tail where pdf and 1-cdf both
    underflow, and in the left tail, where it is the pdf.
    """
    z = _standardize(x, spec)
    value = _SQRT_2_OVER_PI / erfcx(z / _SQRT2) / spec.std
    if not math.isfinite(value):
        raise NumericalRangeError(f"hazard evaluation failed at z={z}")
    return value


@functools.lru_cache(maxsize=32)
def _hermite_nodes(order: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """hermgauss(order)'s nodes x_i, and its weights over sqrt(pi), as tuples
    of floats, built and checked once per order (it costs an eigensolve).

    hermgauss targets ∫ e^{-x^2} g(x) dx; substituting x = (t-mean)/(σ√2)
    gives E[g(X)], X ~ N(mean, σ²), as Σ w_i g(mean + σ√2 x_i) with these
    weights, which sum to 1; exact for polynomials of degree <= 2*order - 1.
    Tuples, so that the copy every caller shares cannot be changed.
    """
    x, w = hermgauss(order)
    w = w / math.sqrt(math.pi)
    if len(x) != order or len(w) != order:
        raise InvalidInputError(f"hermgauss({order}) returned the wrong length")
    if not (np.all(w > 0.0) and abs(float(np.sum(w)) - 1.0) <= 1e-12):
        raise InvalidInputError(
            f"hermgauss({order}) weights are not positive and summing to 1"
        )
    return tuple(x.tolist()), tuple(w.tolist())


# Gauss-Hermite order: start at 40 (the integrand below is smooth, so
# convergence is spectral) and double until the value is stable.  320 is
# the last order doubling reaches at which hermgauss gives finite, positive
# weights: at 640 it returns non-finite ones.
_GH_ORDER_START = 40
_GH_ORDER_MAX = 320
_GH_DOUBLING_TOL = 1e-10


def _moment_sum(theta: float, gamma: float, mean: float, scale: float,
                order: int) -> float:
    """The order-point Gauss-Hermite sum of portfolio_moment's integrand at
    the nodes mean + scale * x_i, summed in node order.

    With finite theta in [0, 1] and finite gamma, mean and scale, each node
    is finite and theta e^node + 1 - theta is finite and >= 0, so every
    value of the integrand is finite or raises (exp or ** overflowing, log
    of 0 or 0 to a negative power): no value needs a finiteness check.
    """
    x, w = _hermite_nodes(order)
    exp, total = math.exp, 0.0
    try:
        if gamma == 1.0:
            log = math.log
            for xi, wi in zip(x, w):
                node = mean + scale * xi
                total += wi * log(theta * exp(node) + 1.0 - theta)
        else:
            power = 1.0 - gamma
            for xi, wi in zip(x, w):
                node = mean + scale * xi
                total += wi * (theta * exp(node) + 1.0 - theta) ** power
    except (ArithmeticError, ValueError) as exc:
        raise EvaluationError(f"integrand raised {exc!r} at node {node}") from exc
    return total


# Memoised on the (theta, sigma1, gamma) triple, so equal inputs from
# different ModelParams share one evaluation; typed, so that a float32 or
# int argument never answers for a float one.  Exceptions are not cached.
@functools.lru_cache(maxsize=256, typed=True)
def portfolio_moment(theta: float, sigma1: float, gamma: float) -> float:
    """Moment of the mixed own/diversified return ϑe^ε + (1-ϑ).

    ε ~ N(-σ₁²/2, σ₁²) so that E[e^ε] = 1.  Returns
    E[(ϑe^ε + 1-ϑ)^(1-γ)] for γ != 1 and E[log(ϑe^ε + 1-ϑ)] for γ = 1,
    by Gauss-Hermite quadrature with the order doubled until the change
    falls below 1e-10.  Raises ConvergenceError if it has not by order 320.
    """
    for name, value in (("theta", theta), ("sigma1", sigma1), ("gamma", gamma)):
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")
    if not 0.0 <= theta <= 1.0:
        raise InvalidInputError(f"theta must be in [0, 1], got {theta}")
    if sigma1 <= 0.0:
        raise InvalidInputError(f"sigma1 must be > 0, got {sigma1}")
    if gamma <= 0.0:
        raise InvalidInputError(f"gamma must be > 0, got {gamma}")
    spec = GaussianSpec(mean=-0.5 * sigma1 * sigma1, variance=sigma1 * sigma1)
    mean, scale = spec.mean, spec.std * _SQRT2
    order = _GH_ORDER_START
    value = _moment_sum(theta, gamma, mean, scale, order)
    while order < _GH_ORDER_MAX:
        refined = _moment_sum(theta, gamma, mean, scale, 2 * order)
        change = abs(refined - value)
        if change < _GH_DOUBLING_TOL:
            return refined
        value, order = refined, 2 * order
    raise ConvergenceError(theta, sigma1, gamma, order, change)


# solve_bracketed stops once a Newton step is below half of the caller's
# absolute tolerance plus 8 machine epsilons of the iterate (the tolerance
# of scipy's brentq), and gives up after 60 steps
_NEWTON_RTOL = 8.0 * sys.float_info.epsilon
_NEWTON_MAXITER = 60


def solve_bracketed(
    fg: Callable[[float], Tuple[float, float]],
    lo: float, hi: float, x: float, fx: float, slope: float, tol: float,
) -> Tuple[float, float, int]:
    """Root of an increasing f in (lo, hi), by safeguarded Newton from x.

    fg(x) gives f(x) and its slope f'(x) > 0; the caller knows f(lo) < 0
    <= f(hi), and gives x in (lo, hi) with fx = f(x) and slope = f'(x).
    Neither end is evaluated, so hi may be inf.  Each iterate with f < 0
    raises lo and each other one lowers hi; a Newton step that leaves
    (lo, hi) is replaced by bisection.  Stops once a step is below
    (tol + 8 eps |x|) / 2 and returns that iterate, f there and the number
    of steps, with no further evaluation.  A NaN from fg raises
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
            return x, fx, steps
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
    Single-owner: never share one generator between workers.
    """
    if master_seed < 0:
        raise InvalidInputError(f"master seed must be >= 0, got {master_seed}")
    if index < 0:
        raise InvalidInputError(f"stream index must be >= 0, got {index}")
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.SFC64(seq))
