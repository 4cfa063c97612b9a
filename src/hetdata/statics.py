"""Comparative statics of the threshold and the High/Low ordering report.

The implicit-function derivative of the fixed point mu_k = F(tau, mu_k) is

    d mu_k / d tau = F_tau / (1 - F_mu),

with F_tau = 1/(tau(1-tau)) and F_mu the analytic derivative of the
log-CDF-ratio term (the portfolio-moment term does not depend on mu).
The ordering report compares data scale d, technology z = d^eta,
aggregate output and the financial-friction coefficient lambda between a
high-cost and a low-cost type.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .model import ModelParams
from .numerics import hazard_rate, log_normal_sf, normal_cdf, normal_pdf
from .threshold import ability_specs, log_output_ratio, solve_threshold
from . import wealth

# the tau grid of `hetdata statics` and verify's comparative-statics check,
# and the (tau_L, tau_H) pair their Theorem-1 reports compare by default
TAU_GRID = tuple(np.arange(0.05, 0.951, 0.05).tolist())
THEOREM1_TAUS = (0.3, 0.6)


@dataclass(frozen=True)
class Theorem1Report:
    tau_L: float
    tau_H: float
    delta: float        # ability gap around each threshold
    mu_L: float
    mu_H: float
    d_L: float
    d_H: float
    z_L: float
    z_H: float
    y_L: float
    y_H: float
    lambda_L: float
    lambda_H: float

    # verdicts are recomputed from the stored values, never cached
    @property
    def d_ordered(self) -> bool:
        return self.d_H > self.d_L

    @property
    def z_ordered(self) -> bool:
        return self.z_H > self.z_L

    @property
    def y_ordered(self) -> bool:
        return self.y_H > self.y_L

    @property
    def lambda_ordered(self) -> bool:
        return self.lambda_H > self.lambda_L

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "verdicts": {
                "d_H_gt_d_L": self.d_ordered,
                "z_H_gt_z_L": self.z_ordered,
                "y_H_gt_y_L": self.y_ordered,
                "lambda_H_gt_lambda_L": self.lambda_ordered,
            },
        }


def partials(tau: float, mu_k: float, params: ModelParams) -> Tuple[float, float]:
    """(dF/dtau, dF/dmu) at a solved threshold.

    dF/dmu = -[hazard(mu_k; sigma^2, sigma^2) + pdf(mu_k)/cdf(mu_k)] < 0.
    """
    dF_dtau = 1.0 / (tau * (1.0 - tau))
    spec_hi, spec_lo = ability_specs(params.sigma_mu * params.sigma_mu)
    dF_dmu = -(
        hazard_rate(mu_k, spec_hi)
        + normal_pdf(mu_k, spec_lo) / normal_cdf(mu_k, spec_lo)
    )
    return dF_dtau, dF_dmu


# Memoised like threshold.solve_threshold; one slope per threshold, so the
# same 512 entries.  Exceptions are not cached.
@functools.lru_cache(maxsize=512, typed=True)
def threshold_sensitivity(tau: float, params: ModelParams) -> float:
    """d mu_k / d tau > 0 via the implicit-function formula."""
    dF_dtau, dF_dmu = partials(tau, solve_threshold(tau, params).mu_k, params)
    return dF_dtau / (1.0 - dF_dmu)


def output_ratio(mu_k: float, sigma_mu: float) -> float:
    """Tail ratio SF(mu_k; sigma^2, sigma^2) / SF(mu_k; 0, sigma^2).

    Strictly increasing in mu_k (the normal hazard rate is increasing);
    evaluated in log space so deep tails do not underflow.
    """
    return math.exp(log_output_ratio(mu_k, sigma_mu))


def aggregate_output(mu_k: float, eps_agg: float, params: ModelParams) -> float:
    """Total user output D e^eps m e^(mu_bar + sigma^2/2) * tail ratio.

    With m = SF(mu_k; 0, sigma^2) the expression collapses to
    D e^eps e^(mu_bar + sigma^2/2) SF(mu_k; sigma^2, sigma^2), which is
    the form evaluated here.
    """
    v = params.sigma_mu * params.sigma_mu
    prefactor = params.D * math.exp(eps_agg) * math.exp(params.mu_bar + 0.5 * v)
    return prefactor * math.exp(log_normal_sf(mu_k, ability_specs(v)[0]))


def tech_from_tau(tau: float, params: ModelParams) -> Tuple[float, float]:
    """Data scale d = d0*tau and technology z = d^eta."""
    if not (0.0 < tau < 1.0):
        raise InvalidInputError(f"tau must be in (0, 1), got {tau}")
    d = params.d0 * tau
    return d, d ** params.eta


# Memoised like threshold.solve_threshold: the record is frozen and its
# verdicts are computed from the stored values, so every caller with equal
# inputs, such as report's statics stage and verify's theorem1_orderings
# check, shares one report.  Exceptions are not cached.
@functools.lru_cache(maxsize=512, typed=True)
def theorem1_report(
    tau_L: float, tau_H: float, params: ModelParams
) -> Theorem1Report:
    """High/Low ordering report for a pair of data cost rates.

    High-type ability sits delta = 0.5*sigma_mu above the threshold solved
    at tau_H, low-type delta below the threshold at tau_L.  Outputs are
    compared with a common aggregate shock, fixed at its mean, and a
    common participation scale, so the ordering is carried entirely by
    the increasing tail ratio, as in the underlying monotonicity
    argument; lambda comes from the friction match at each ability.
    """
    if tau_L == tau_H:
        raise DegenerateInputError(f"tau_L and tau_H coincide: {tau_L}")
    if tau_H < tau_L:
        raise InvalidInputError(
            f"tau_L must be < tau_H, got tau_L={tau_L}, tau_H={tau_H}"
        )
    delta = 0.5 * params.sigma_mu
    eps_agg = params.agg_shock_spec.mean

    sol_L = solve_threshold(tau_L, params)
    sol_H = solve_threshold(tau_H, params)
    mu_L = sol_L.mu_k - delta
    mu_H = sol_H.mu_k + delta

    d_L, z_L = tech_from_tau(tau_L, params)
    d_H, z_H = tech_from_tau(tau_H, params)

    # common scale: same shock, same participation measure for both types
    m_common = 0.5 * (sol_L.m + sol_H.m)
    prefactor = (
        params.D
        * math.exp(eps_agg)
        * m_common
        * math.exp(params.mu_bar + 0.5 * params.sigma_mu * params.sigma_mu)
    )
    y_L = prefactor * output_ratio(mu_L, params.sigma_mu)
    y_H = prefactor * output_ratio(mu_H, params.sigma_mu)

    lam_L = wealth.solve_lambda(mu_L, params)
    lam_H = wealth.solve_lambda(mu_H, params)

    return Theorem1Report(
        tau_L=tau_L,
        tau_H=tau_H,
        delta=delta,
        mu_L=mu_L,
        mu_H=mu_H,
        d_L=d_L,
        d_H=d_H,
        z_L=z_L,
        z_H=z_H,
        y_L=y_L,
        y_H=y_H,
        lambda_L=lam_L,
        lambda_H=lam_H,
    )
