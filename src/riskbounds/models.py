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
from typing import NamedTuple

import numpy as np
from scipy.special import betainc, erf, erfc, expit, gammaln, logit, psi, xlogy

from . import measures, sdpi
from .bounds import BoundResult, FirstOrder, SmallBallFn, sdpi_bound
from .distributions import MixedJoint

__all__ = [
    "BernoulliUniformModel",
    "NoisyBernoulliModel",
    "GaussianModel",
    "HideAndSeekModel",
    "HideAndSeekBounds",
    "bernoulli_small_ball",
    "bernoulli_ml",
    "bernoulli_sibson_first_order",
    "bernoulli_hellinger_first_order",
    "bernoulli_e_gamma_zeta_batch",
    "bernoulli_mutual_information",
    "bernoulli_upper_bound",
    "bernoulli_joint",
    "noisy_bernoulli_joint",
    "noisy_bernoulli_bound",
    "noisy_bernoulli_upper_bound",
    "gaussian_small_ball",
    "gaussian_sibson_first_order",
    "gaussian_hellinger_first_order",
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

def bernoulli_small_ball() -> SmallBallFn:
    """L(rho) = min(2*rho, 1) for the uniform prior under absolute loss."""
    return SmallBallFn(2.0)


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
    exact = _logsumexp(log_terms)
    upper = math.log(2.0 + math.sqrt(math.pi * n / 2.0))
    return MlValue(exact=float(exact), upper=upper)


def bernoulli_sibson_first_order(n: int, alpha) -> FirstOrder:
    """Sibson's I_alpha = alpha/(alpha-1) log S of bias and weight, S a
    Gamma-ratio sum over weights and its log taken by libm, with the
    condition of the Sibson bound from the same pass (`_bernoulli_pass`).
    An array of R orders is one pass over an (R, n+1) array, each entry
    ``==`` to the call with that order alone; a scalar returns floats.
    A non-finite order raises `ValueError`, as the sum has no value there."""
    log_s, a, condition = _bernoulli_pass(n, alpha, hellinger=False)
    return FirstOrder(_float_if_scalar(a / (a - 1.0) * _libm(math.log, np.exp(log_s))),
                      condition)


def bernoulli_hellinger_first_order(n: int, p) -> FirstOrder:
    """H_p = (M - 1)/(p - 1) of bias and weight, M a Gamma-ratio sum, with
    the condition of the Hellinger bound from the same pass; ``p``
    broadcasts as ``alpha`` does in `bernoulli_sibson_first_order`."""
    log_m, p, condition = _bernoulli_pass(n, p, hellinger=True)
    return FirstOrder(_float_if_scalar((np.exp(log_m) - 1.0) / (p - 1.0)), condition)


def _bernoulli_pass(n: int, order, hellinger: bool):
    """log S (Sibson) or log M (Hellinger) at each order theta, theta, and
    the condition of the bound (`_order_condition`).  log S and log M are
    the logsumexp over k of log C(n,k) + log_beta/theta, or of
    (theta-1) log(n+1) + theta log C(n,k) + log_beta, where log_beta =
    log Gamma(k theta + 1) + log Gamma((n-k) theta + 1) - log Gamma(n theta + 2)
    and the second term is the k-mirror of the first.  D is w log S,
    w = theta/(theta-1) or 1/(theta-1), so D' = -log S/(theta-1)^2
    + w d log S, with d log S the softmax mean over k of the terms'
    theta-derivatives, which take dlog_beta = k psi(k theta + 1)
    + (n-k) psi((n-k) theta + 1) - n psi(n theta + 2)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    a = _orders(order, finite=True)[..., None]
    k = np.arange(n + 1)
    lg = gammaln(k * a + 1.0)
    log_binom = _log_binom(n, k)
    if hellinger:
        terms = ((a - 1.0) * math.log(n + 1.0) + a * log_binom + lg + lg[..., ::-1]
                 - gammaln(n * a + 2.0))
    else:
        log_beta = lg + lg[..., ::-1] - gammaln(n * a + 2.0)
        terms = log_binom + log_beta / a
    log_sum = _logsumexp(terms)
    k_psi = k * psi(k * a + 1.0)
    d_log_beta = k_psi + k_psi[..., ::-1] - n * psi(n * a + 2.0)
    d_terms = (math.log(n + 1.0) + log_binom + d_log_beta if hellinger
               else d_log_beta / a - log_beta / (a * a))
    d_log_sum = np.sum(np.exp(terms - log_sum[..., None]) * d_terms, axis=-1)
    a = a[..., 0]
    d_prime = -log_sum / (a - 1.0) ** 2 + (1.0 if hellinger else a) / (a - 1.0) * d_log_sum
    return log_sum, a, _libm(_order_condition, a, d_prime)


def _order_condition(theta: float, d_prime: float) -> float:
    """g = d log f/d log theta for the Sibson and Hellinger bounds f at the
    order theta: under a linear L of slope c, log f = log t - (1 + 1/t)
    log(1+t) - D(theta) - log c with t = (theta-1)/theta and D = I_alpha or
    log M_p/(p-1), so g = theta [log(1+t)/(theta-1)^2 - D'] (-inf at D' = inf)."""
    return theta * (math.log1p((theta - 1.0) / theta) / (theta - 1.0) ** 2 - d_prime)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis of a float64 array, by the
    algorithm of `scipy.special.logsumexp` (scipy 1.17) for real input,
    whose values it reproduces ``==`` without that function's argument
    handling: the terms equal to the maximum are split out of the sum,
    the result is log1p(s/m) + log(m) + max for the m largest terms and
    the sum s of the rest, shifted by the maximum, and a non-finite result
    falls back to the direct log(sum(exp(a)))."""
    a_max = np.max(a, axis=-1, keepdims=True)
    is_max = a == a_max
    m = np.sum(is_max, axis=-1, keepdims=True, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=-1,
                   keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[..., 0]
    finite = np.isfinite(out)
    if not finite.all():
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=-1)))
    return out


def _orders(order, finite: bool = False) -> np.ndarray:
    """``order`` as a float64 array, each entry above 1 and, if ``finite``,
    below +inf (NaN fails both checks)."""
    order = np.asarray(order, dtype=float)
    if not np.all(order > 1.0):
        raise ValueError("order must exceed 1")
    if finite and not np.all(order < math.inf):
        raise ValueError("order must be finite")
    return order


def _float_if_scalar(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def _libm(fn, orders: np.ndarray, *more: np.ndarray):
    """``fn`` on each order as a Python float (with the entries of ``more``
    at that order after it), so that each value is the libm result of a
    scalar call; a 0-d array gives a float."""
    return _float_if_scalar(np.array(
        [fn(*xs) for xs in zip(*(a.ravel().tolist() for a in (orders, *more)))]
    ).reshape(orders.shape))


# The Newton search for the interval ends in s = logit(w): it starts at
# +-_LOGIT_EDGE and never leaves that window (an end beyond it stays on it),
# an end stops once its step is at most _NEWTON_TOL * (1 + |s|), and an end
# that has not stopped after _NEWTON_CAP steps raises.
_LOGIT_EDGE = 40.0
_NEWTON_TOL = 1e-9
_NEWTON_CAP = 60


def bernoulli_e_gamma_zeta_batch(n: int, gamma, zeta) -> FirstOrder:
    """Hockey-stick dependence of bias and weight at each of R (gamma, zeta)
    pairs, by exact interval algebra, with the first-order condition of the
    E_{gamma,zeta} bound and its slope from the same pass.

    The density ratio at weight k is the Beta(k+1, n-k+1) pdf, which is
    unimodal, so {ratio >= t}, t = gamma/zeta, is an interval around the
    mode k/n; the integral over it reduces to regularized incomplete Beta
    values.  The pdf of weight n-k at w is that of weight k at 1-w, so the
    interval of n-k mirrors that of k, with the same mass and length: only
    k = 0..floor(n/2) are computed, each counted twice except k = n/2.  The
    ends are Newton steps in s = logit(w) (`_logit_ends`), and an end stays
    at 0 or 1 where the ratio there already reaches t.  The value is
    zeta*H(t) - max(0, zeta - gamma) with H(t) = sum max(0, p - t*q), so
    scaling gamma and zeta scales it.  The generic quadrature path
    (measures.e_gamma_zeta on the sufficient joint) computes the same
    number and serves as its oracle in tests.

    ``gamma`` and ``zeta`` broadcast against each other, and ``value`` is
    a list of R floats.  The ends of pair r are a (2, floor(n/2)+1) block
    of one array, and each end stops on its own, so entry r is ``==`` to
    the call with that pair alone.

    The condition (see `bounds.FirstOrder`): with P(R_t) the summed
    masses and Q(R_t) the summed lengths over (n+1), g(t) =
    P(R_t) + t Q(R_t) - 1 and dg/d log t = t Q + 2 t dQ/d log t.  An end
    moves at d(end)/d log t = 1/l_k'(end), l_k'(w) = k/w - (n-k)/(1-w);
    an end pinned at 0 or 1 does not move.  A pair with gamma = 0 has
    value 0, g = 0 and slope 0 (R_0 is everything)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    pairs, _ = _gamma_zeta_pairs(gamma, zeta)
    rows = [r for r, (g, _) in enumerate(pairs) if g != 0.0]
    k = np.arange(n // 2 + 1.0)
    a_par = k + 1.0
    b_par = n - k + 1.0
    log_norm = gammaln(n + 2.0) - gammaln(a_par) - gammaln(b_par)

    def log_ratio(w):
        return log_norm + xlogy(k, w) + xlogy(n - k, 1.0 - w)

    log_t = np.array([math.log(pairs[r][0] / pairs[r][1]) for r in rows])[:, None]
    exists = log_ratio(k / n) >= log_t
    # axis 1 of the (R, 2, floor(n/2)+1) ends: the left end, then the right
    edge = np.array([[0.0], [1.0]])
    need = exists[:, None] & (log_ratio(edge) < log_t[:, None])
    ends = np.where(need, np.nan, edge)
    ends[need] = expit(_logit_ends(
        n, np.broadcast_to(k, need.shape)[need],
        np.broadcast_to(log_norm, need.shape)[need],
        np.broadcast_to(log_t[:, None], need.shape)[need],
        np.broadcast_to(edge == 1.0, need.shape)[need]))
    left, right = ends[:, 0], ends[:, 1]

    g, z = (np.array([pairs[r][i] for r in rows])[:, None] for i in (0, 1))
    mass = betainc(a_par, b_par, right) - betainc(a_par, b_par, left)
    weight = np.where(2.0 * k == n, 1.0, 2.0)
    contrib = np.where(exists, weight * (z * mass - g * (right - left)), 0.0)
    values = [0.0] * len(pairs)
    for r, row in zip(rows, contrib):
        # the sum is near (n+1)*(zeta - gamma) for small t: a correctly
        # rounded sum keeps its rounding out of the difference below
        total = math.fsum(row.tolist()) / (n + 1.0)
        values[r] = max(0.0, total - max(0.0, pairs[r][1] - pairs[r][0]))

    # an end at the mode moves infinitely fast; pinned ends are masked out
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = np.where(need, 1.0 / (k / ends - (n - k) / (1.0 - ends)), 0.0)
    share = np.where(exists, weight / (n + 1.0), 0.0)
    p_mass, q_mass, q_speed = ((share * part).sum(axis=1)
                               for part in (mass, right - left, speed[:, 1] - speed[:, 0]))
    t = g[:, 0] / z[:, 0]
    cond, slope = np.zeros(len(pairs)), np.zeros(len(pairs))
    cond[rows] = p_mass + t * q_mass - 1.0
    slope[rows] = t * (q_mass + 2.0 * q_speed)
    return FirstOrder(values, cond, slope)


def _logit_ends(n: int, k, log_norm, log_t, right) -> np.ndarray:
    """The s = logit(w) at which the concave log ratio l(s) = log_norm + k*s
    - n*log(1 + e^s) of weight k falls to log_t, left of the mode or,
    where ``right``, right of it; all arguments are flat arrays of one end
    each.  Each end moves only inward, from +-_LOGIT_EDGE towards the mode,
    and never past either, so rounding near a double root (t at the peak)
    cannot carry it to the other side."""
    s = np.where(right, _LOGIT_EDGE, -_LOGIT_EDGE)
    inward = np.where(right, -1.0, 1.0)
    mode = np.clip(logit(k / n), -_LOGIT_EDGE, _LOGIT_EDGE)
    lo = np.where(right, mode, -_LOGIT_EDGE)
    hi = np.where(right, _LOGIT_EDGE, mode)
    active = np.arange(s.size)
    with np.errstate(divide="ignore", invalid="ignore"):  # slope 0 at the mode
        for _ in range(_NEWTON_CAP):
            if active.size == 0:
                return s
            at, ka = s[active], k[active]
            excess = log_t[active] - (log_norm[active] + ka * at
                                      - n * np.logaddexp(0.0, at))
            new = np.clip(at + excess / (ka - n * expit(at)), lo[active], hi[active])
            moved = inward[active] * (new - at)
            s[active] = np.where(moved > 0.0, new, at)
            active = active[moved > _NEWTON_TOL * (1.0 + np.abs(at))]
    if active.size:
        raise ArithmeticError(f"Newton interval ends at n={n} still moving "
                              f"after {_NEWTON_CAP} steps")
    return s


def _gamma_zeta_pairs(gamma, zeta) -> tuple[list, tuple]:
    """The broadcast (gamma, zeta) pairs as Python floats, and their shape;
    each zeta must be finite and positive, each gamma finite and
    non-negative (NaN fails)."""
    gammas, zetas = np.broadcast_arrays(np.asarray(gamma, dtype=float),
                                        np.asarray(zeta, dtype=float))
    pairs = list(zip(gammas.ravel().tolist(), zetas.ravel().tolist()))
    if not all(0 < z < math.inf and 0 <= g < math.inf for g, z in pairs):
        raise ValueError("requires finite zeta > 0 and gamma >= 0")
    return pairs, gammas.shape


def bernoulli_mutual_information(n: int) -> float:
    """Shannon dependence of bias and weight, by adaptive quadrature."""
    return measures.mutual_information(bernoulli_joint(n))


def bernoulli_upper_bound(n: int) -> float:
    """Sample-mean risk bound 1/sqrt(6n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1.0 / math.sqrt(6.0 * n)


def bernoulli_joint(n: int) -> MixedJoint:
    """Sufficient-statistic joint of the bias and the Hamming weight."""
    return _binomial_count_joint(n, lambda w: w)


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

    Composes the clean-sample H_p, the operator-convex BSC contraction
    constant eta = (1 - 2*lam)^2, and the Hellinger bound at eta*H_p.
    Restricted to 1 < p <= 2 where eta is exact.  As the paper's formula
    does, eta contracts the n-sample divergence, which holds only for a product
    reference measure; here the law of the n flips is a mixture over the
    bias, and for n >= 2 the exact noisy chi-square information exceeds
    eta times the clean one (see `noisy_bernoulli_joint`).
    """
    if not 1.0 < p <= 2.0:
        raise ValueError("contraction constant is only exact for 1 < p <= 2")
    h_p = bernoulli_hellinger_first_order(model.n, p).value
    eta = sdpi.eta_operator_convex_bsc(model.lam)
    return sdpi_bound(h_p, eta, "hellinger", bernoulli_small_ball(), p=p)


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
    return SmallBallFn(math.sqrt(2.0 / (model.sigma_w_sq * math.pi)))


def gaussian_mutual_information(model: GaussianModel) -> float:
    return 0.5 * math.log1p(model.snr)


def gaussian_sibson_first_order(model: GaussianModel, alpha) -> FirstOrder:
    """Sibson's I_alpha = 0.5 * log(1 + alpha * n * sigma_W^2 / sigma^2),
    with the condition of the Sibson bound (`_order_condition`),
    D' = s/(2(1 + alpha s)), both by libm per order; ``alpha`` broadcasts,
    and a scalar returns floats."""
    s = model.snr
    orders = _orders(alpha)
    return FirstOrder(
        _libm(lambda a: 0.5 * math.log1p(a * s), orders),
        _libm(lambda a: _order_condition(a, 0.5 * s / (1.0 + a * s)), orders))


def gaussian_hellinger_first_order(model: GaussianModel, p) -> FirstOrder:
    """H_p = (M - 1)/(p - 1), M = sqrt((1+s)^p / (1 + (2-p) p s)) with s
    the n-sample signal-to-noise ratio, and the condition of the Hellinger
    bound (`_order_condition`), both by libm per order: log M =
    (p log(1+s) - log(1 + (2-p) p s))/2, so D' = -log M/(p-1)^2
    + (log(1+s)/2 - (1-p) s/(1 + (2-p) p s))/(p-1).  M diverges where the
    denominator is not positive (p = +inf included): there H_p = +inf and
    g = -inf, its limit.  ``p`` broadcasts, and a scalar returns floats."""
    s = model.snr

    def value(p):
        denom = 1.0 + (2.0 - p) * p * s
        if not denom > 0.0:
            return math.inf
        return (math.sqrt((1.0 + s) ** p / denom) - 1.0) / (p - 1.0)

    def condition(p):
        denom = 1.0 + (2.0 - p) * p * s
        if not denom > 0.0:
            return -math.inf
        log_m = 0.5 * (p * math.log1p(s) - math.log(denom))
        d_log_m = 0.5 * math.log1p(s) - (1.0 - p) * s / denom
        return _order_condition(p, -log_m / (p - 1.0) ** 2 + d_log_m / (p - 1.0))

    orders = _orders(p)
    return FirstOrder(_libm(value, orders), _libm(condition, orders))


def gaussian_upper_bound(model: GaussianModel) -> float:
    """Sample-mean risk bound sqrt(sigma_W^2 / (1 + n*sigma_W^2/sigma^2))."""
    return math.sqrt(model.sigma_w_sq / (1.0 + model.snr))


def gaussian_hellinger_closed_form_bound(model: GaussianModel) -> float:
    """The p = 3/2 bound in fully simplified form.

    Equals (81*sqrt(2*pi)/2048) * sqrt(sigma_W^2/(1 + n*sigma_W^2/sigma^2));
    the exact p = 3/2 Hellinger bound dominates this relaxation.
    """
    return 81.0 * math.sqrt(2.0 * math.pi) / 2048.0 * gaussian_upper_bound(model)


def gaussian_e_gamma_zeta(model: GaussianModel, gamma, zeta) -> FirstOrder:
    """Hockey-stick dependence of the mean and the sample average, from the
    law of a quadratic form in two standard normals, with the first-order
    condition of the E_{gamma,zeta} bound from the same masses.

    With s2 = sigma^2/n, sx2 = sigma_W^2 + s2 and t = gamma/zeta, dP/dQ
    clears t on R = {(xbar - w)^2 - (s2/sx2) xbar^2 <= c}, where
    c = s2 log(sx2/s2) - 2 s2 log t.  Whitened, the form is a y1^2 - b y2^2
    with eigenvalues +-sigma_W s2/sx under P (its trace is 0) and
    sigma_W^2 +- sigma_W sx under Q; b = |det|/a, so that nothing cancels.
    Each mass is taken on its small side: E = gamma Q(R^c) - zeta P(R^c)
    for t < 1 (c > 0 there), and zeta P(R) - gamma Q(R) otherwise, clipped
    at 0; gamma = 0 gives 0.

    The condition is g(t) = P(R) + t Q(R) - 1 (see `bounds.FirstOrder`),
    without a slope; a pair with gamma = 0 has g = 0 (R is everything
    there).  ``gamma`` and ``zeta`` broadcast against each other; every
    entry is ``==`` to the call with that pair alone, and scalars return
    floats.
    """
    pairs, shape = _gamma_zeta_pairs(gamma, zeta)
    if model.n < 1:
        raise ValueError("n must be at least 1")
    s2 = model.sigma_sq / model.n
    sx2 = model.sigma_w_sq + s2
    if not math.isfinite(sx2):
        raise ValueError("variances must be finite")
    sw, sx = math.sqrt(model.sigma_w_sq), math.sqrt(sx2)

    # one row per pair with gamma > 0; c uses libm's log, as a scalar call
    # always has.  The P rows come first, then the Q rows.
    live = [i for i, (g, _) in enumerate(pairs) if g != 0.0]
    g, z = np.array([pairs[i] for i in live]).reshape(-1, 2).T
    c = np.array([s2 * math.log(sx2 / s2) - 2.0 * s2 * math.log(pairs[i][0] / pairs[i][1])
                  for i in live])
    upper = g < z
    p_mass, q_mass = _form_mass(
        np.tile(c, 2), np.repeat([sw * s2 / sx, sw * (sw + sx)], len(live)),
        np.repeat([sw * s2 / sx, sw * s2 / (sw + sx)], len(live)),
        np.tile(upper, 2)).reshape(2, -1)
    values = np.zeros(len(pairs))
    values[live] = np.maximum(0.0, np.where(upper, g * q_mass - z * p_mass,
                                            z * p_mass - g * q_mass))
    t = g / z
    cond = np.zeros(len(pairs))
    cond[live] = np.where(upper, t * (1.0 - q_mass) - p_mass, p_mass + t * q_mass - 1.0)
    return FirstOrder(_float_if_scalar(values.reshape(shape)),
                      _float_if_scalar(cond.reshape(shape)))


# Trapezoid nodes v = k/8 on [0, 41], tabulated by libm (no numpy ufunc to
# load).  y = 1 at v_c = asinh(sqrt(b/|c|)) <= log1p(2 sqrt(b/|c|)) <= 37.5
# for |c| >= _FORM_ZERO * b; from there + 3.5 on, y > 33 and the normal
# density is below 1e-236, so those nodes count as 0 and are not evaluated.
_FORM_V = np.arange(329) / 8.0
_FORM_COSH = np.array([math.cosh(v) for v in _FORM_V.tolist()])
_FORM_SINH = np.array([math.sinh(v) for v in _FORM_V.tolist()])
_FORM_WEIGHTS = np.where(_FORM_V == 0.0, 1.0, 2.0) / (8.0 * math.sqrt(2.0 * math.pi))
_FORM_ZERO = 1e-32


def _form_mass(c, a, b, upper):
    """P(a y1^2 - b y2^2 <= c) for independent standard normals y1, y2 and
    a, b > 0, elementwise; P(a y1^2 - b y2^2 > c) where ``upper`` (c > 0).

    Given y2 = y, the mass is an erf (erfc for ``upper``) of
    sqrt((c + b y^2)/(2a)).  For c > 0, y = sqrt(c/b) sinh v makes
    c + b y^2 = c cosh^2 v; for c < 0 the mass lives on b y^2 > |c|, and
    y = sqrt(|c|/b) cosh v makes b y^2 - |c| = |c| sinh^2 v.  Either
    integrand is even and analytic in v and decays double-exponentially,
    so the trapezoid rule in v converges exponentially.  A row's nodes
    follow from its own c, a and b, and every row sums the same 329 terms,
    so its mass does not depend on the other rows.  For |c| < _FORM_ZERO b
    (c == 0 included) the mass is that at c = 0, (2/pi) atan(sqrt(b/a)),
    or (2/pi) atan(sqrt(a/b)) for ``upper``, to ~|c|/b log(b/|c|) relative.
    """
    flat = np.abs(c) < _FORM_ZERO * b
    size = np.where(flat, b, np.abs(c))
    scale = np.sqrt(size / b)                # y per unit of sinh v or cosh v
    reach = np.sqrt(size / (2.0 * a))
    used = _FORM_V < (np.log1p(2.0 / scale) + 3.5)[:, None]
    row, node = np.nonzero(used)
    pos = c[row] > 0.0
    along = np.where(pos, _FORM_COSH[node], _FORM_SINH[node])
    y = scale[row] * np.where(pos, _FORM_SINH[node], _FORM_COSH[node])
    arg = reach[row] * along
    tail = np.where(upper[row], erfc(arg), erf(arg))
    terms = np.zeros(used.shape)
    terms[used] = np.exp(-0.5 * y * y) * tail * (scale[row] * along) * _FORM_WEIGHTS[node]
    mass = np.add.reduce(terms, axis=1)
    ratio = np.where(upper, a / b, b / a)
    return np.where(flat, 2.0 / math.pi * np.arctan(np.sqrt(ratio)), mass)


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
