"""Gaussian kernels, Gauss-Hermite quadrature, root finding, seeded streams.

Every other module builds on these four pieces:

* Gaussian kernels on the math module (erfcx, log_ndtr, ndtr) and the
  pdf/cdf/hazard built on them, stable deep in either tail (no 1-cdf
  cancellation),
* Gauss-Hermite expectation E[g(X)] for X ~ N(mean, variance),
* a bracketed root finder (Brent's method, ported from scipy's brentq),
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
    BracketingError,
    ConvergenceError,
    EvaluationError,
    HetdataError,
    InvalidInputError,
    NumericalRangeError,
    SolverError,
)

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
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


def ndtr(z: float) -> float:
    """Phi(z), the standard normal CDF, at a float."""
    return 0.5 * math.erfc(-z / _SQRT2)


def _standardize(x, spec: GaussianSpec):
    """(x - mean) / std for a scalar or a numpy array of points; a point
    that is not finite, or whose standardized value is not, raises."""
    z = (x - spec.mean) / spec.std
    # math.isfinite costs a scalar ~1/100 of np.isfinite(z).all()
    finite = math.isfinite(z) if isinstance(z, float) else np.isfinite(z).all()
    if not finite:
        raise InvalidInputError(f"non-finite evaluation point in {x}")
    return z


def _elementwise(kernel: Callable[[float], float], z):
    """kernel(z) for a scalar; for a numpy array, an array of kernel at
    each element, so that it holds the scalar results bit for bit."""
    if not isinstance(z, np.ndarray):
        return kernel(z)
    values = map(kernel, z.ravel().tolist())
    return np.fromiter(values, float, z.size).reshape(z.shape)


def normal_pdf(x: float, spec: GaussianSpec) -> float:
    """Density of N(mean, variance) at x."""
    z = _standardize(x, spec)
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z) / spec.std


def normal_cdf(x: float, spec: GaussianSpec) -> float:
    """P(X <= x) for X ~ N(mean, variance)."""
    return ndtr(_standardize(x, spec))


def log_normal_sf(x, spec: GaussianSpec):
    """log P(X > x); stable arbitrarily deep in the right tail.

    Takes a scalar or a numpy array of points (elementwise, same bits)."""
    return _elementwise(log_ndtr, -_standardize(x, spec))


def hazard_rate(x, spec: GaussianSpec):
    """pdf / (1 - cdf), via the scaled complementary error function.

    h(z) = sqrt(2/pi) / erfcx(z / sqrt 2) for the standard normal, which
    stays accurate deep in the right tail where pdf and 1-cdf both
    underflow, and in the left tail, where it is the pdf.

    Takes a scalar or a numpy array of points; an array gives the scalar
    values elementwise, bit for bit.
    """
    def h(z: float) -> float:
        value = _SQRT_2_OVER_PI / erfcx(z / _SQRT2) / spec.std
        if not math.isfinite(value):
            raise NumericalRangeError(f"hazard evaluation failed at z={z}")
        return value

    return _elementwise(h, _standardize(x, spec))


@functools.lru_cache(maxsize=32)
def _hermite_nodes(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """hermgauss(order) with its weights over sqrt(pi), built and checked
    once per order (it costs an eigensolve).

    The arrays are shared by every caller, so they are made read-only.
    """
    x, w = hermgauss(order)
    w = w / math.sqrt(math.pi)
    if len(x) != order or len(w) != order:
        raise InvalidInputError(f"hermgauss({order}) returned the wrong length")
    if not (np.all(w > 0.0) and abs(float(np.sum(w)) - 1.0) <= 1e-12):
        raise InvalidInputError(
            f"hermgauss({order}) weights are not positive and summing to 1"
        )
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_hermite_rule(
    spec: GaussianSpec, order: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Hermite rule for N(mean, variance).

    hermgauss targets ∫ e^{-x^2} g(x) dx; substituting x = (t-mean)/(σ√2)
    gives nodes mean + σ√2 x_i and weights w_i/√π, which sum to 1.
    """
    if order < 2:
        raise InvalidInputError(f"order must be >= 2, got {order}")
    x, weights = _hermite_nodes(order)
    return spec.mean + spec.std * _SQRT2 * x, weights


def expect_gauss_hermite(
    g: Callable[[float], float], spec: GaussianSpec, order: int
) -> float:
    """Gauss-Hermite approximation of E[g(X)], X ~ N(mean, variance).

    Exact for polynomials of degree <= 2*order - 1.  An integrand that
    returns a non-finite value, or raises an arithmetic or value error,
    gives EvaluationError naming the node.
    """
    nodes, weights = gauss_hermite_rule(spec, order)
    total = 0.0
    for node, weight in zip(nodes.tolist(), weights.tolist()):
        try:
            val = g(node)
        except HetdataError:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(f"integrand raised {exc!r} at node {node}") from exc
        if not math.isfinite(val):
            raise EvaluationError(f"integrand returned {val} at node {node}")
        total += weight * val
    return total


# Gauss-Hermite order: start at 40 (the integrand below is smooth, so
# convergence is spectral) and double until the value is stable.  320 is
# the last order doubling reaches at which hermgauss gives finite, positive
# weights: at 640 it returns non-finite ones.
_GH_ORDER_START = 40
_GH_ORDER_MAX = 320
_GH_DOUBLING_TOL = 1e-10


# Memoised on the (theta, sigma1, gamma) triple, so equal inputs from
# different ModelParams share one evaluation; typed, so that a float32 or
# int argument never answers for a float one.  Exceptions are not cached.
@functools.lru_cache(maxsize=256, typed=True)
def portfolio_moment(theta: float, sigma1: float, gamma: float) -> float:
    """Moment of the mixed own/diversified return ϑe^ε + (1-ϑ).

    ε ~ N(-σ₁²/2, σ₁²) so that E[e^ε] = 1.  Returns
    E[(ϑe^ε + 1-ϑ)^(1-γ)] for γ != 1 and E[log(ϑe^ε + 1-ϑ)] for γ = 1,
    with the quadrature order doubled until the change falls below 1e-10.
    Raises ConvergenceError if it has not by order 320.
    """
    if not 0.0 <= theta <= 1.0:
        raise InvalidInputError(f"theta must be in [0, 1], got {theta}")
    if sigma1 <= 0.0:
        raise InvalidInputError(f"sigma1 must be > 0, got {sigma1}")
    if gamma <= 0.0:
        raise InvalidInputError(f"gamma must be > 0, got {gamma}")
    spec = GaussianSpec(mean=-0.5 * sigma1 * sigma1, variance=sigma1 * sigma1)
    if gamma == 1.0:
        g = lambda e: math.log(theta * math.exp(e) + 1.0 - theta)
    else:
        g = lambda e: (theta * math.exp(e) + 1.0 - theta) ** (1.0 - gamma)
    order = _GH_ORDER_START
    value = expect_gauss_hermite(g, spec, order)
    while order < _GH_ORDER_MAX:
        refined = expect_gauss_hermite(g, spec, 2 * order)
        change = abs(refined - value)
        if change < _GH_DOUBLING_TOL:
            return refined
        value, order = refined, 2 * order
    raise ConvergenceError(theta, sigma1, gamma, order, change)


# Brent's method as in scipy's C brentq: a relative tolerance of 8 machine
# epsilons on top of the caller's absolute one, and at most 100 steps.
_BRENT_RTOL = 8.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _value(f: Callable[[float], float], x: float) -> float:
    """f(x) as a float; a NaN raises EvaluationError naming x."""
    fx = float(f(x))
    if math.isnan(fx):
        raise EvaluationError(f"root finder: f returned NaN at x={x}")
    return fx


def _brent(
    f: Callable[[float], float],
    lo: float, hi: float, f_lo: float, f_hi: float, xtol: float,
) -> float:
    """Brent (1973, ch. 4) on [lo, hi], where f_lo and f_hi have opposite
    signs, step for step as scipy's C brentq, so every root keeps its bits."""
    xpre, xcur, fpre, fcur = lo, hi, f_lo, f_hi
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        good = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
                good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            except ZeroDivisionError:
                pass  # C gets an infinite or NaN step, which fails the test
        if good:
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f, xcur)
    raise SolverError(
        f"root finder did not converge on [{lo}, {hi}] at tolerance {xtol} "
        f"in {_BRENT_MAXITER} iterations: last iterate x={xcur}, f={fcur}"
    )


def solve_bracketed(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Root of f on [lo, hi] given a sign change at the endpoints.

    Interpolation-accelerated bisection (Brent) with guaranteed bracket
    shrinkage; the result never leaves [lo, hi].  f is evaluated once at
    each end.  A NaN from f raises EvaluationError naming x; no convergence
    in 100 steps raises SolverError.
    """
    if tol <= 0.0:
        raise InvalidInputError(f"tol must be > 0, got {tol}")
    if not (lo < hi):
        raise InvalidInputError(f"need lo < hi, got [{lo}, {hi}]")
    f_lo, f_hi = _value(f, lo), _value(f, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise BracketingError(lo, hi, f_lo, f_hi)
    return min(max(_brent(f, lo, hi, f_lo, f_hi, tol), lo), hi)


def make_stream(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic sub-stream keyed by (master_seed, index).

    Counter-based Philox generator: identical keys reproduce identical
    sequences, distinct stream indices give statistically independent
    ones.  Single-owner: never share one generator between workers.
    """
    if master_seed < 0:
        raise InvalidInputError(f"master seed must be >= 0, got {master_seed}")
    if index < 0:
        raise InvalidInputError(f"stream index must be >= 0, got {index}")
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(seq))
