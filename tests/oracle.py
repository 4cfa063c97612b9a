"""The tests' mpmath references, each defined once.

Every reference but ``mp_log_ratio`` sets its own precision with
``mpmath.workdps``; none is set globally.  A reference that returns an
``mpf`` keeps its digits after the call, so a test may subtract a float
from it and read the error.  Do not hand such a reference to
``mpmath.diff``, which needs its function evaluated at the raised
precision it sets: ``mp_log_ratio`` runs at its caller's precision for
that.
"""
import mpmath


@mpmath.workdps(50)
def mp_sf(x, mean=0.0, var=1.0):
    """P(X > x), X ~ N(mean, var), as a float: P(-X < -x), which keeps its
    digits where 1 - ncdf(x) would cancel."""
    return float(mpmath.ncdf(-x, -mean, mpmath.sqrt(var)))


@mpmath.workdps(50)
def mp_pdf(x, mean=0.0, var=1.0):
    return float(mpmath.npdf(x, mean, mpmath.sqrt(var)))


@mpmath.workdps(50)
def mp_log_ndtr(x):
    """log Phi(x) as a 50-digit mpf."""
    x = mpmath.mpf(x)
    # log1p keeps the digits of log Phi(x) as it nears 0 in the right tail
    return mpmath.log1p(-mpmath.ncdf(-x)) if x > 0 else mpmath.log(mpmath.ncdf(x))


@mpmath.workdps(50)
def mp_hazard(z):
    """pdf(z) / P(Z > z) of the standard normal as a 50-digit mpf; the tail
    is ncdf(-z), which keeps its digits where 1 - ncdf(z) would cancel."""
    z = mpmath.mpf(z)
    return mpmath.npdf(z) / mpmath.ncdf(-z)


def mp_log_ratio(mu, v):
    """log SF(mu; v, v) - log CDF(mu; 0, v), the mu-dependent term of F,
    as an mpf at the caller's precision, so that mpmath.diff can raise it."""
    s = mpmath.sqrt(mpmath.mpf(v))
    return mpmath.log(mpmath.ncdf((v - mu) / s)) - mpmath.log(mpmath.ncdf(mu / s))


@mpmath.workdps(40)
def mp_threshold(tau, params, moment, start):
    """(mu_k, m): the root of G(mu) = mu - F(tau, mu) by bisection at 40
    digits, from the float parameters and the float moment term (the
    quadrature is not the solver's), and its participation Phi(-mu_k /
    sigma_mu).  The bracket is centred on start and widened until G
    changes sign across it; G is increasing, so it then holds the one
    root, however far start is from it.  Bisects to 30 digits of the root,
    or of sigma_mu where the root is nearer 0."""
    t = mpmath.mpf(tau)
    logit = mpmath.log(t / (1 - t))
    s = mpmath.mpf(params.sigma_mu)
    v = s * s
    c = logit + v / 2 - moment

    def G(mu):
        return mu - c - mp_log_ratio(mu, v)

    d = mpmath.mpf(10) ** -6 * max(abs(start), s)
    while not G(start - d) < 0 < G(start + d):
        d *= 16
    lo, hi = start - d, start + d
    while hi - lo > mpmath.mpf(10) ** -30 * max(abs(lo), abs(hi), s):
        mid = (lo + hi) / 2
        if G(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    return root, mpmath.ncdf(-root / s)


@mpmath.workdps(50)
def friction_oracle(mu_i, params):
    """(log f, lambda*) in 50-digit arithmetic from the float parameters,
    where lambda* = u* / t*, and u* = -W_{-1}(-e^(-c)), c = log f - log t*,
    is the root of u - log u = c on the branch u >= t*; lambda* is None
    where there is no such root."""
    mpf = mpmath.mpf
    rate = mpf(params.r_f) + mpf(params.alpha) * mpf(params.mu0)
    log_f = (mpf(mu_i) - mpf(params.sigma_agg) ** 2 / 2
             - mpf(params.sigma_idio) ** 2 / 2 + mpmath.log(params.D)
             + mpmath.log(1 - mpf(params.tau)) - mpmath.log(params.EK_target)
             + rate * params.t_star)
    c = log_f - mpmath.log(params.t_star)
    if c < 1:
        return log_f, None
    u = -mpmath.lambertw(-mpmath.exp(-c), -1).real
    return log_f, (u / params.t_star if u >= params.t_star else None)


@mpmath.workdps(50)
def capital_oracle(params, t, lam):
    """E K_t = lambda W0 e^((r_f + alpha mu0 - lambda) t) in 50-digit
    arithmetic from the float parameters."""
    mpf = mpmath.mpf
    rate = mpf(params.r_f) + mpf(params.alpha) * mpf(params.mu0) - mpf(lam)
    return mpf(lam) * mpf(params.W0) * mpmath.exp(rate * mpf(t))


@mpmath.workdps(20)
def mp_moment(theta, sigma1, gamma):
    """portfolio_moment's E[(theta e^eps + 1-theta)^(1-gamma)], or
    E[log(...)] at gamma = 1, eps ~ N(-sigma1^2/2, sigma1^2), as a 20-digit
    mpf from the float inputs.  mpmath's quad over the standardized shock
    t, split at the mean t = 0, at eps0 = log((1-theta)/theta), where the
    base turns from flat to exponential, and at (1-gamma) sigma1, the end
    of the interval that holds every maximum of the integrand."""
    theta, s, g = mpmath.mpf(theta), mpmath.mpf(sigma1), mpmath.mpf(gamma)
    mean, q = -s * s / 2, 1 - theta

    def f(t):
        log_base = mpmath.log(theta * mpmath.exp(mean + s * t) + q)
        if g == 1:
            return log_base * mpmath.exp(-t * t / 2)
        return mpmath.exp((1 - g) * log_base - t * t / 2)

    points = {mpmath.mpf(0), (1 - g) * s}
    if 0 < theta < 1:
        points.add((mpmath.log(q / theta) - mean) / s)
    return (mpmath.quad(f, [-mpmath.inf, *sorted(points), mpmath.inf])
            / mpmath.sqrt(2 * mpmath.pi))
