"""The four worked estimation settings and their closed-form quantities.

Bernoulli computations collapse the 2^n sample space to the Hamming
weight, and Gaussian computations collapse the sample to its mean; both
reductions are sufficient statistics, so every divergence is preserved
while n = 500 stays comfortably within budget.  All Gamma-function ratios
are evaluated through log-Gamma to avoid overflow past n ~ 85.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import betainc, gammaln, logsumexp, ndtr, xlogy

from . import measures, sdpi
from .bounds import BoundResult, SmallBallFn, hellinger_phi, sdpi_bound
from .distributions import MixedJoint
from .quadrature import adaptive_simpson

__all__ = [
    "BernoulliUniformModel",
    "NoisyBernoulliModel",
    "GaussianModel",
    "HideAndSeekModel",
    "HideAndSeekBounds",
    "bernoulli_small_ball",
    "bernoulli_ml",
    "bernoulli_sibson",
    "bernoulli_hellinger",
    "bernoulli_e_gamma_zeta",
    "bernoulli_mutual_information",
    "bernoulli_upper_bound",
    "bernoulli_joint",
    "noisy_bernoulli_joint",
    "noisy_bernoulli_bound",
    "noisy_bernoulli_upper_bound",
    "gaussian_small_ball",
    "gaussian_sibson",
    "gaussian_hellinger",
    "gaussian_e_gamma_zeta",
    "gaussian_mutual_information",
    "gaussian_upper_bound",
    "gaussian_hellinger_closed_form_bound",
    "hide_and_seek_leakage",
    "hide_and_seek_bounds",
]


@dataclass(frozen=True)
class BernoulliUniformModel:
    """n coin flips with a uniformly distributed bias and absolute loss."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")


@dataclass(frozen=True)
class NoisyBernoulliModel:
    """Bernoulli bias estimation where each flip passes through a BSC."""

    n: int
    lam: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.lam <= 0.5:
            raise ValueError("crossover must lie in [0, 1/2]")


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian mean with Gaussian prior, n noisy samples, absolute loss."""

    n: int
    sigma_w_sq: float
    sigma_sq: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if not (self.sigma_w_sq > 0 and self.sigma_sq > 0):
            raise ValueError("variances must be positive")

    @property
    def snr(self) -> float:
        """Effective signal-to-noise ratio after the sample-mean reduction."""
        return self.n * self.sigma_w_sq / self.sigma_sq


@dataclass(frozen=True)
class HideAndSeekModel:
    """Distributed detection of the one biased coordinate out of d."""

    d: int
    m: int
    b: float
    theta: float
    n: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be at least 1")
        if not self.b >= 0:
            raise ValueError("message budget must be non-negative")
        if not 0.0 <= self.theta < 0.5:
            raise ValueError("bias must lie in [0, 1/2)")


# ----------------------------------------------------------------------
# Bernoulli bias with uniform prior
# ----------------------------------------------------------------------

def bernoulli_small_ball(model: BernoulliUniformModel | None = None) -> SmallBallFn:
    """L(rho) = min(2*rho, 1) for the uniform prior under absolute loss."""
    return SmallBallFn.linear(2.0)


class MlValue(NamedTuple):
    exact: float
    upper: float


def bernoulli_ml(n: int) -> MlValue:
    """Maximal leakage of the n-flip experiment.

    ``exact`` is the log of the profile-likelihood sum over Hamming
    weights; ``upper`` is the Stirling relaxation log(2 + sqrt(pi*n/2)).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    k = np.arange(n + 1)
    log_terms = (
        _log_binom(n, k) + xlogy(k, k / n) + xlogy(n - k, 1.0 - k / n)
    )
    exact = logsumexp(log_terms)
    upper = math.log(2.0 + math.sqrt(math.pi * n / 2.0))
    return MlValue(exact=float(exact), upper=upper)


def bernoulli_sibson(n: int, alpha):
    """Exponential form of the order-alpha dependence: returns
    exp(((alpha-1)/alpha) * I_alpha), a Gamma-ratio sum over weights.
    An array of R orders is one pass over an (R, n+1) array, each value
    ``==`` to the call with that order alone; a scalar returns a float."""
    if n < 1:
        raise ValueError("n must be at least 1")
    a = _orders(alpha)[..., None]
    k = np.arange(n + 1)
    log_beta = (
        gammaln(k * a + 1.0)
        + gammaln((n - k) * a + 1.0)
        - gammaln(n * a + 2.0)
    )
    return _float_if_scalar(
        np.exp(logsumexp(_log_binom(n, k) + log_beta / a, axis=-1)))


def bernoulli_hellinger(n: int, p):
    """Moment form (p-1)*H_p + 1 of the order-p Hellinger dependence;
    ``p`` broadcasts as ``alpha`` does in `bernoulli_sibson`."""
    if n < 1:
        raise ValueError("n must be at least 1")
    p = _orders(p)[..., None]
    k = np.arange(n + 1)
    log_terms = (
        (p - 1.0) * math.log(n + 1.0)
        + p * _log_binom(n, k)
        + gammaln(k * p + 1.0)
        + gammaln((n - k) * p + 1.0)
        - gammaln(n * p + 2.0)
    )
    return _float_if_scalar(np.exp(logsumexp(log_terms, axis=-1)))


def _orders(order, least: float = 1.0) -> np.ndarray:
    """``order`` as a float64 array, each entry above ``least`` (NaN fails)."""
    order = np.asarray(order, dtype=float)
    if not np.all(order > least):
        raise ValueError(f"order must exceed {least:g}")
    return order


def _float_if_scalar(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def _libm(fn, orders: np.ndarray):
    """``fn`` on each order as a Python float, so that each value is the
    libm result of a scalar call; a 0-d array gives a float."""
    return _float_if_scalar(np.array([fn(x) for x in orders.ravel().tolist()])
                            .reshape(orders.shape))


def bernoulli_e_gamma_zeta(n: int, gamma: float, zeta: float) -> float:
    """Hockey-stick dependence of bias and weight, by exact interval algebra.

    The density ratio at weight k is the Beta(k+1, n-k+1) pdf, which is
    unimodal, so {ratio >= t}, t = gamma/zeta, is an interval around the
    mode k/n; the integral over it reduces to regularized incomplete Beta
    values.  One 60-step bisection over a stacked array of length 2(n+1)
    finds both ends: entry k seeks the left end of weight k on [0, mode],
    where the ratio increases, entry n+1+k the right end on [mode, 1],
    where it decreases; an end stays at 0 or 1 where the ratio there
    already reaches t.  The value is zeta*H(t) - max(0, zeta - gamma) with
    H(t) = sum max(0, p - t*q), so scaling gamma and zeta scales it.  The
    generic quadrature path (measures.e_gamma_zeta on the sufficient
    joint) computes the same number and serves as its oracle in tests.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (zeta > 0 and gamma >= 0):
        raise ValueError("requires zeta > 0 and gamma >= 0")
    if gamma == 0.0:
        return 0.0
    k = np.arange(n + 1)
    a_par = k + 1.0
    b_par = n - k + 1.0
    right_side = np.repeat([False, True], n + 1)
    k2 = np.tile(k, 2)
    log_norm = np.tile(gammaln(n + 2.0) - gammaln(a_par) - gammaln(b_par), 2)
    mode = k2 / n

    def log_ratio(w):
        return log_norm + xlogy(k2, w) + xlogy(n - k2, 1.0 - w)

    log_t = math.log(gamma / zeta)
    exists = log_ratio(mode) >= log_t
    edge = right_side.astype(float)
    need = exists & (log_ratio(edge) < log_t)
    lo = np.where(right_side, mode, 0.0)
    hi = np.where(right_side, 1.0, mode)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        move_lo = (log_ratio(mid) < log_t) != right_side
        lo = np.where(move_lo, mid, lo)
        hi = np.where(move_lo, hi, mid)
    ends = np.where(need, np.where(right_side, lo, hi), edge)
    left, right = ends[:n + 1], ends[n + 1:]

    mass = betainc(a_par, b_par, right) - betainc(a_par, b_par, left)
    contrib = np.where(exists[:n + 1], zeta * mass - gamma * (right - left), 0.0)
    total = float(np.sum(contrib)) / (n + 1.0)
    return max(0.0, total - max(0.0, zeta - gamma))


@lru_cache(maxsize=None)
def bernoulli_mutual_information(n: int) -> float:
    """Shannon dependence of bias and weight, by adaptive quadrature."""
    return measures.mutual_information(bernoulli_joint(n))


def bernoulli_upper_bound(n: int) -> float:
    """Sample-mean risk bound 1/sqrt(6n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1.0 / math.sqrt(6.0 * n)


@lru_cache(maxsize=None)
def bernoulli_joint(n: int) -> MixedJoint:
    """Sufficient-statistic joint of the bias and the Hamming weight."""
    return _binomial_count_joint(n, lambda w: w)


@lru_cache(maxsize=None)
def noisy_bernoulli_joint(model: NoisyBernoulliModel) -> MixedJoint:
    """Joint of the bias and the weight of the channel outputs."""
    lam = model.lam
    return _binomial_count_joint(model.n, lambda w: lam + (1.0 - 2.0 * lam) * w)


def _binomial_count_joint(n: int, mean_map) -> MixedJoint:
    log_binom = _log_binom(n, np.arange(n + 1))

    def likelihood(k, w):
        mu = np.clip(mean_map(np.asarray(w, dtype=float)), 0.0, 1.0)
        k = np.asarray(k)
        return np.exp(log_binom[k] + xlogy(k, mu) + xlogy(n - k, 1.0 - mu))

    return MixedJoint(
        density=lambda w: np.ones_like(np.atleast_1d(np.asarray(w, float))),
        support=(0.0, 1.0),
        observations=tuple(range(n + 1)),
        likelihood=likelihood,
    )


def _log_binom(n, k):
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


# ----------------------------------------------------------------------
# Noisy Bernoulli bias (samples observed through a BSC)
# ----------------------------------------------------------------------

def noisy_bernoulli_bound(model: NoisyBernoulliModel, p: float = 2.0) -> BoundResult:
    """Contraction-refined Hellinger bound for privatized flips.

    Composes the clean-sample moment, the operator-convex BSC contraction
    constant eta = (1 - 2*lam)^2, and the generator bound.  Restricted to
    1 < p <= 2 where eta is exact.  As the paper's formula does, eta
    contracts the n-sample divergence, which holds only for a product
    reference measure; here the law of the n flips is a mixture over the
    bias, and for n >= 2 the exact noisy chi-square information exceeds
    eta times the clean one (see `noisy_bernoulli_joint`).
    """
    if not 1.0 < p <= 2.0:
        raise ValueError("contraction constant is only exact for 1 < p <= 2")
    moment = bernoulli_hellinger(model.n, p)
    h_p = (moment - 1.0) / (p - 1.0)
    eta = sdpi.eta_operator_convex_bsc(model.lam)
    return sdpi_bound(h_p, eta, hellinger_phi(p), bernoulli_small_ball())


def noisy_bernoulli_upper_bound(model: NoisyBernoulliModel) -> float:
    """Risk of unbiasing the sample mean of the channel outputs.

    E|W - what| <= sqrt(E(W - what)^2) = sqrt((3 - u^2)/(12 n)) / u with
    u = 1 - 2*lam; capped at 1/4, the risk of always guessing 1/2.
    """
    u = 1.0 - 2.0 * model.lam
    if u == 0.0:
        return 0.25
    value = math.sqrt((3.0 - u * u) / (12.0 * model.n)) / u
    return min(value, 0.25)


# ----------------------------------------------------------------------
# Gaussian prior with Gaussian noise
# ----------------------------------------------------------------------

def gaussian_small_ball(model: GaussianModel) -> SmallBallFn:
    """L(rho) = min(rho * sqrt(2/(pi*sigma_W^2)), 1)."""
    return SmallBallFn.linear(math.sqrt(2.0 / (model.sigma_w_sq * math.pi)))


def gaussian_sibson(model: GaussianModel, alpha):
    """I_alpha = 0.5 * log(1 + alpha * n * sigma_W^2 / sigma^2); ``alpha``
    broadcasts, and a scalar returns a float."""
    s = model.snr
    return _libm(lambda a: 0.5 * math.log1p(a * s), _orders(alpha, least=0.0))


def gaussian_mutual_information(model: GaussianModel) -> float:
    return gaussian_sibson(model, 1.0)


def gaussian_hellinger(model: GaussianModel, p):
    """Moment form (p-1)*H_p + 1 = sqrt((1+s)^p / (1 + (2-p)*p*s)).

    ``s`` is the n-sample signal-to-noise ratio.  The moment is +inf
    where the denominator is non-positive (it diverges outside that
    region); ``p`` broadcasts, and a scalar returns a float.
    """
    s = model.snr

    def moment(p):
        denom = 1.0 + (2.0 - p) * p * s
        return math.sqrt((1.0 + s) ** p / denom) if denom > 0.0 else math.inf

    return _libm(moment, _orders(p))


def gaussian_upper_bound(model: GaussianModel) -> float:
    """Sample-mean risk bound sqrt(sigma_W^2 / (1 + n*sigma_W^2/sigma^2))."""
    return math.sqrt(model.sigma_w_sq / (1.0 + model.snr))


def gaussian_hellinger_closed_form_bound(model: GaussianModel) -> float:
    """The p = 3/2 bound in fully simplified form.

    Equals (81*sqrt(2*pi)/2048) * sqrt(sigma_W^2/(1 + n*sigma_W^2/sigma^2));
    the exact p = 3/2 generator bound dominates this relaxation.
    """
    return 81.0 * math.sqrt(2.0 * math.pi) / 2048.0 * gaussian_upper_bound(model)


def gaussian_e_gamma_zeta(model: GaussianModel, gamma, zeta):
    """Hockey-stick dependence of the mean and the sample average.

    The inner integral over the parameter has Gaussian closed form on the
    interval where the density ratio clears gamma/zeta; the outer integral
    runs adaptively on an 8-sigma window split at the interval-birth kinks.

    ``gamma`` and ``zeta`` broadcast against each other.  Every pair with
    gamma > 0 is one row of a single batched `adaptive_simpson` call, split
    at its own kinks, so an array of gammas costs one quadrature pass, and
    each value is ``==`` to the call with that pair alone.  Scalar
    arguments are the one-row case and return a float; otherwise an
    ndarray of the broadcast shape is returned.
    """
    gammas, zetas = np.broadcast_arrays(np.asarray(gamma, dtype=float),
                                        np.asarray(zeta, dtype=float))
    pairs = list(zip(gammas.ravel().tolist(), zetas.ravel().tolist()))
    if not all(z > 0 and g >= 0 for g, z in pairs):
        raise ValueError("requires zeta > 0 and gamma >= 0")
    if model.n < 1:
        raise ValueError("n must be at least 1")
    sw2 = model.sigma_w_sq
    s2 = model.sigma_sq / model.n
    sx2 = sw2 + s2
    kappa = sw2 / sx2            # posterior mean coefficient
    v = sw2 * s2 / sx2           # posterior variance
    sw = math.sqrt(sw2)
    sx = math.sqrt(sx2)
    sv = math.sqrt(v)
    coeff = s2 / sx2

    # one row per pair with gamma > 0 (gamma = 0 gives 0); the per-row
    # constants use libm's log, as a scalar call always has
    live = [i for i, (g, _) in enumerate(pairs) if g != 0.0]
    g_row = np.array([pairs[i][0] for i in live])
    z_row = np.array([pairs[i][1] for i in live])
    const = np.array([s2 * math.log(sx2 / s2) - 2.0 * s2 * math.log(g / z)
                      for g, z in zip(g_row.tolist(), z_row.tolist())])

    def integrand(r, x):
        disc = coeff * x * x + const[r]
        has = disc > 0.0
        root = np.sqrt(np.where(has, disc, 0.0))
        w_hi = x + root
        w_lo = x - root
        post_mass = ndtr((w_hi - kappa * x) / sv) - ndtr((w_lo - kappa * x) / sv)
        prior_mass = ndtr(w_hi / sw) - ndtr(w_lo / sw)
        inner = z_row[r] * post_mass - g_row[r] * prior_mass
        pdf_x = np.exp(-0.5 * (x / sx) ** 2) / (sx * math.sqrt(2.0 * math.pi))
        return np.where(has, pdf_x * inner, 0.0)

    roots = [math.sqrt(-c / coeff) if c < 0.0 else None for c in const.tolist()]
    kinks = [() if x0 is None else (-x0, x0) for x0 in roots]
    totals = []
    if live:
        totals = adaptive_simpson(integrand, -8.0 * sx, 8.0 * sx, rows=len(live),
                                  atol=1e-10, rtol=1e-9, points=kinks).tolist()
    values = [0.0] * len(pairs)
    for i, total in zip(live, totals):
        g, z = pairs[i]
        values[i] = max(0.0, total - max(0.0, z - g))
    return _float_if_scalar(np.array(values).reshape(gammas.shape))


# ----------------------------------------------------------------------
# Hide-and-seek (distributed detection, 0-1 loss)
# ----------------------------------------------------------------------

def hide_and_seek_leakage(model: HideAndSeekModel) -> float:
    """min(n*m*log(1+2*theta), log d, m*b): chain rule, support, and budget."""
    return min(
        model.n * model.m * math.log1p(2.0 * model.theta),
        math.log(model.d),
        model.m * model.b,
    )


class HideAndSeekBounds(NamedTuple):
    ml: float
    nips: float
    mi: float
    nips_valid: bool
    mi_valid: bool


def hide_and_seek_bounds(model: HideAndSeekModel) -> HideAndSeekBounds:
    """The leakage bound and the two literature baselines, clamped to [0, 1].

    ``nips_valid`` flags the sub-sampling baseline's validity region
    theta <= 1/(4n); outside it the value is still reported, flagged.
    """
    d, m, b, theta, n = model.d, model.m, model.b, model.theta, model.n
    log_d = math.log(d)

    ml = -math.expm1(hide_and_seek_leakage(model) - log_d)

    nips = 1.0 - (3.0 / d + 5.0 * math.sqrt(
        min(10.0 * theta * n * m * b / d, m * n * theta ** 2)))
    nips_valid = theta <= 1.0 / (4.0 * n)

    ratio = (1.0 - 2.0 * theta) / (1.0 + 2.0 * theta)
    mi_arm = min(
        (1.0 - ratio ** n) * m * b + 1.0,
        min(4.0 * m * n * theta ** 2, log_d) + 1.0,
    )
    mi = 1.0 - mi_arm / log_d
    mi_valid = theta <= 0.5

    clamp = lambda x: min(1.0, max(0.0, x))
    return HideAndSeekBounds(clamp(ml), clamp(nips), clamp(mi),
                             nips_valid, mi_valid)
