"""Quadrature oracles of the Bernoulli closed forms, for tests only.

The count joint: the bias w is uniform on [0, 1], n flips of a w-coin
are observed through a binary symmetric channel with crossover ``lam``
(``lam = 0`` is the clean model), and the observation is the number k of
ones, with likelihood C(n, k) mu^k (1 - mu)^(n - k), mu = lam + (1 - 2 lam) w.
Each measure below integrates over w with
`riskbounds.quadrature.adaptive_simpson`, apart from the maximal leakage,
which maximizes over w with `brent_max`; none shares code with the
Gamma-ratio sums and the interval algebra of `riskbounds.models` that they
check.
"""

import math

import numpy as np
from scipy.special import gammaln, xlogy

from riskbounds.quadrature import adaptive_simpson

_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)


def _log_likelihood(n, lam):
    """log P(k | w), elementwise in k and w, -inf where the mass is 0."""
    k = np.arange(n + 1)
    log_binom = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)

    def log_lik(k, w):
        mu = np.clip(lam + (1.0 - 2.0 * lam) * np.asarray(w, dtype=float), 0.0, 1.0)
        k = np.asarray(k)
        return log_binom[k] + xlogy(k, mu) + xlogy(n - k, 1.0 - mu)

    return log_lik


def _likelihood(n, lam):
    log_lik = _log_likelihood(n, lam)
    return lambda k, w: np.exp(log_lik(k, w))


def _sum_in_order(values) -> float:
    """Left-to-right float sum (``sum()`` compensates from Python 3.12)."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def _marginal(n, lam) -> np.ndarray:
    """P(k) for k = 0..n, integrating every weight."""
    return adaptive_simpson(_likelihood(n, lam), 0.0, 1.0, rows=n + 1)


def mutual_information(n, lam=0.0) -> float:
    """Shannon dependence of bias and count, integrating all n+1 weights:
    the integrand of `models.bernoulli_mutual_information` without its
    k <-> n-k mirror."""
    lik = _likelihood(n, lam)
    log_px = np.array([math.log(px) for px in _marginal(n, lam).tolist()])

    def integrand(k, w):
        values = lik(k, w)
        with np.errstate(divide="ignore"):
            log_lik = np.where(values > 0, np.log(np.where(values > 0, values, 1.0)), 0.0)
        return np.where(values > 0, values * (log_lik - log_px[k]), 0.0)

    return max(0.0, _sum_in_order(adaptive_simpson(integrand, 0.0, 1.0, rows=n + 1)))


def e_gamma_zeta(n, gamma, zeta, lam=0.0) -> float:
    """sum_k int max(0, zeta P(k|w) - gamma P(k)) dw - max(0, zeta - gamma)."""
    lik = _likelihood(n, lam)
    px = _marginal(n, lam)
    rows = adaptive_simpson(lambda k, w: np.maximum(0.0, zeta * lik(k, w) - gamma * px[k]),
                            0.0, 1.0, rows=n + 1)
    return max(0.0, _sum_in_order(rows) - max(0.0, zeta - gamma))


def _log_integral(log_f) -> float:
    """log of the integral of exp(log_f) over [0, 1], rescaled by the peak
    of log_f on a 257-point scan, so the quadrature stays in range however
    many orders of magnitude the integrand spans."""
    peak = float(np.max(log_f(np.linspace(0.0, 1.0, 257))))
    scaled = adaptive_simpson(lambda w: np.exp(np.clip(log_f(w) - peak, -745.0, 60.0)),
                              0.0, 1.0)
    return peak + math.log(scaled)


def moment(n, order, lam=0.0) -> float:
    """sum_k P(k)^(1-order) int P(k|w)^order dw, the density ratio to the
    power ``order`` against the product of the marginals: the Hellinger
    divergence is (moment - 1)/(order - 1), the Renyi one
    log(moment)/(order - 1), and order 2 gives 1 + chi-square."""
    log_lik = _log_likelihood(n, lam)
    return sum(math.exp((1.0 - order) * math.log(px)
                        + _log_integral(lambda w: order * log_lik(k, w)))
               for k, px in enumerate(_marginal(n, lam).tolist()))


def sibson(n, alpha, lam=0.0) -> float:
    """alpha/(alpha-1) log sum_k (int P(k|w)^alpha dw)^(1/alpha)."""
    log_lik = _log_likelihood(n, lam)
    total = sum(math.exp(_log_integral(lambda w: alpha * log_lik(k, w)) / alpha)
                for k in range(n + 1))
    return max(0.0, alpha / (alpha - 1.0) * math.log(total))


def max_leakage(n, lam=0.0) -> float:
    """log sum_k max_w P(k|w): each peak by `brent_max` between the grid
    neighbours of its argmax on 4097 points."""
    lik = _likelihood(n, lam)
    grid = np.linspace(0.0, 1.0, 4097)
    total = 0.0
    for k in range(n + 1):
        i = int(np.argmax(lik(k, grid)))
        _, peak, _ = brent_max(lambda w: float(lik(k, w)),
                               grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)])
        total += peak
    return max(0.0, math.log(total))


def brent_max(f, lo, hi, tol=1e-12):
    """Brent's maximization of a unimodal scalar function on [lo, hi].

    Each step jumps to the vertex of the parabola through the three best
    points seen so far.  A golden-section step into the larger side of the
    bracket replaces it when the vertex falls outside the bracket or the
    step is not under half the step before last, so the bracket keeps
    shrinking where the parabola does not help.  Steps are never shorter
    than tol1 = eps * |x| + tol / 3, and the search stops once both ends
    of the bracket are within 2 * tol1 of the best point x: the argmax is
    then within ``tol`` (plus rounding), as for golden section, also when
    it sits at an end of the bracket.  Neither end is evaluated.  Ties
    move the best point to the newer one.

    Returns ``(argmax, max, evaluations)``: the largest value evaluated
    and where it was evaluated.
    """
    a, b = float(lo), float(hi)
    x = w = v = a + _GOLDEN_STEP * (b - a)  # best, second best, previous w
    fx = fw = fv = f(x)
    evals = 1
    d = e = 0.0  # Brent's names: the last step and the one before it
    while True:
        m = 0.5 * (a + b)
        tol1 = _EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx, evals
        golden = True
        if abs(e) > tol1:
            # the parabola through (v, fv), (w, fw), (x, fx) has its
            # vertex at x + p/q whether it opens up or down
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            before, e = e, d
            if abs(p) < abs(0.5 * q * before) and q * (a - x) < p < q * (b - x):
                d = p / q
                golden = False
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
        if golden:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        evals += 1
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
