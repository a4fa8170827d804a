"""Divergences and dependence measures against the independence reference.

Two-distribution measures (`renyi_divergence`, `kl_divergence`, ...) accept
either :class:`~riskbounds.distributions.DiscreteDistribution` objects or
plain weight arrays.  Joint measures accept a
:class:`~riskbounds.distributions.DiscreteJoint` (closed-form summation) or
a :class:`~riskbounds.distributions.MixedJoint` (adaptive quadrature), and
always compare the joint against the product of its own marginals.

Absolute-continuity failures do not raise: following the usual convention
the affected divergences evaluate to ``math.inf`` and downstream bounds
treat that as vacuous.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .distributions import (
    DiscreteDistribution,
    DiscreteJoint,
    DivergenceKind,
    DivergenceSpec,
    MixedJoint,
)
from .errors import AlphaAtMostOne, AlphaOne, NonPositiveAlpha
from .quadrature import brent_max

__all__ = [
    "renyi_divergence",
    "kl_divergence",
    "chi_square",
    "hellinger_p",
    "hockey_stick",
    "sibson_mi_discrete",
    "maximal_leakage_discrete",
    "e_gamma_zeta",
    "mutual_information",
    "pair_divergence",
    "divergence_from_independence",
]


def _w(dist) -> np.ndarray:
    if isinstance(dist, DiscreteDistribution):
        return dist.weights
    return np.asarray(dist, dtype=float)


def renyi_divergence(p, q, alpha: float) -> float:
    """Order-``alpha`` Renyi divergence between two discrete distributions.

    Returns ``inf`` when ``alpha > 1`` and ``p`` is not absolutely
    continuous with respect to ``q``.  ``alpha = 1`` is rejected; use
    :func:`kl_divergence` for the limit.
    """
    if not 0 < alpha < math.inf:
        raise NonPositiveAlpha(f"alpha={alpha!r} must be positive and finite")
    if alpha == 1.0:
        raise AlphaOne("alpha=1 is the Kullback-Leibler limit")
    p = _w(p)
    q = _w(q)
    if alpha > 1 and np.any((p > 0) & (q == 0)):
        return math.inf
    mask = (p > 0) & (q > 0)
    if not np.any(mask):
        return math.inf
    total = float(np.sum(p[mask] ** alpha * q[mask] ** (1.0 - alpha)))
    if total == 0.0:
        return math.inf
    return max(0.0, math.log(total) / (alpha - 1.0))


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence; ``inf`` outside absolute continuity."""
    p = _w(p)
    q = _w(q)
    if np.any((p > 0) & (q == 0)):
        return math.inf
    mask = p > 0
    return max(0.0, float(np.sum(p[mask] * np.log(p[mask] / q[mask]))))


def chi_square(p, q) -> float:
    """Pearson chi-square divergence; ``inf`` outside absolute continuity."""
    p = _w(p)
    q = _w(q)
    if np.any((p > 0) & (q == 0)):
        return math.inf
    mask = q > 0
    return max(0.0, float(np.sum((p[mask] - q[mask]) ** 2 / q[mask])))


def hellinger_p(p, q, p_exp: float) -> float:
    """Hellinger divergence of order ``p_exp`` (> 1); order 2 is chi-square."""
    if not 1.0 < p_exp < math.inf:
        raise ValueError(f"Hellinger order must be finite and exceed 1, got {p_exp!r}")
    p = _w(p)
    q = _w(q)
    if np.any((p > 0) & (q == 0)):
        return math.inf
    mask = (p > 0) & (q > 0)
    moment = float(np.sum(p[mask] ** p_exp * q[mask] ** (1.0 - p_exp)))
    return max(0.0, (moment - 1.0) / (p_exp - 1.0))


def hockey_stick(p, q, gamma: float, zeta: float = 1.0) -> float:
    """Generalized hockey-stick divergence between two distributions.

    Uses the generator ``t -> max(0, zeta*t - gamma) - max(0, zeta - gamma)``;
    mass of ``p`` outside the support of ``q`` enters with slope ``zeta``.
    """
    _check_gamma_zeta(gamma, zeta)
    p = _w(p)
    q = _w(q)
    value = float(np.sum(np.maximum(0.0, zeta * p - gamma * q)))
    return max(0.0, value - max(0.0, zeta - gamma))


def _check_gamma_zeta(gamma, zeta):
    if not 0 < zeta < math.inf:
        raise ValueError(f"zeta={zeta!r} must be positive and finite")
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma={gamma!r} must be non-negative and finite")


def sibson_mi_discrete(joint: DiscreteJoint, alpha: float) -> float:
    """Sibson mutual information of order ``alpha`` (> 1) of a finite joint.

    Evaluated fully in log space so very large orders (used to approach
    the maximal-leakage limit) neither overflow nor underflow.
    """
    if not 1.0 < alpha < math.inf:
        raise AlphaAtMostOne(f"Sibson order must be finite and exceed 1, got {alpha!r}")
    m = joint.matrix
    px = joint.x_marginal
    with np.errstate(divide="ignore"):
        log_m = np.where(m > 0, np.log(np.where(m > 0, m, 1.0)), -math.inf)
        log_px = np.where(px > 0, np.log(np.where(px > 0, px, 1.0)), -math.inf)
    # log of sum_x px^(1-alpha) * m_xy^alpha per column, masked to m > 0
    terms = np.where(
        m > 0, (1.0 - alpha) * log_px[:, None] + alpha * log_m, -math.inf
    )
    col_log = logsumexp(terms, axis=0)
    value = alpha / (alpha - 1.0) * logsumexp(col_log / alpha)
    return max(0.0, float(value))


def maximal_leakage_discrete(joint: DiscreteJoint) -> float:
    """Maximal leakage: log of the summed per-output maximum likelihood ratio."""
    px = joint.x_marginal
    keep = px > 0
    cond = joint.matrix[keep] / px[keep, None]
    return max(0.0, math.log(float(np.sum(cond.max(axis=0)))))


def e_gamma_zeta(joint, gamma: float, zeta: float) -> float:
    """Generalized hockey-stick dependence of a joint from its product."""
    _check_gamma_zeta(gamma, zeta)
    offset = max(0.0, zeta - gamma)
    if isinstance(joint, DiscreteJoint):
        value = float(
            np.sum(np.maximum(0.0, zeta * joint.matrix - gamma * joint.product))
        )
        return max(0.0, value - offset)
    marginal = joint.observation_marginal()

    def integrand(k, w):
        lik = joint.likelihood(k, w)
        return joint.density(w) * np.maximum(0.0, zeta * lik - gamma * marginal[k])

    total = _sum_in_order(joint.integrate(integrand, rows=marginal.size))
    return max(0.0, total - offset)


def mutual_information(joint) -> float:
    """Shannon mutual information of a discrete or mixed joint."""
    if isinstance(joint, DiscreteJoint):
        m = joint.matrix
        prod = joint.product
        mask = m > 0
        if np.any(mask & (prod == 0)):
            return math.inf
        return max(0.0, float(np.sum(m[mask] * np.log(m[mask] / prod[mask]))))
    marginal = joint.observation_marginal()
    integrand = _mi_integrand(joint, marginal)
    return max(0.0, _sum_in_order(joint.integrate(integrand, rows=marginal.size)))


def _mi_integrand(joint: MixedJoint, marginal: np.ndarray):
    """The batched integrand of the mutual information of ``joint``: row k
    at w is density(w) * lik * (log lik - log P(k)), lik = likelihood(k, w),
    and 0 where lik = 0, with ``marginal[k]`` = P(k)."""
    # libm's log, not np.log, whose vectorised loop may round the last bit
    # differently; the pinned values in the tests were made with libm
    log_px = np.array([math.log(px) for px in marginal.tolist()])

    def integrand(k, w):
        lik = joint.likelihood(k, w)
        with np.errstate(divide="ignore"):
            log_lik = np.where(lik > 0, np.log(np.where(lik > 0, lik, 1.0)), 0.0)
        return joint.density(w) * np.where(
            lik > 0, lik * (log_lik - log_px[k]), 0.0
        )

    return integrand


def _sum_in_order(values) -> float:
    """Left-to-right float sum (``sum()`` compensates from Python 3.12)."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def _log_scaled_integral(joint: MixedJoint, log_f) -> float:
    """log of the integral of exp(log_f) over the support, peak-rescaled.

    Keeps adaptive quadrature in a well-conditioned range even when the
    integrand spans hundreds of orders of magnitude.
    """
    a, b = joint.support
    scan = np.linspace(a, b, 257)
    peak = float(np.max(log_f(scan)))
    if peak == -math.inf:
        return -math.inf
    value = joint.integrate(lambda w: np.exp(np.clip(log_f(w) - peak, -745.0, 60.0)))
    if value <= 0.0:
        return -math.inf
    return peak + math.log(value)


def _log_density(joint: MixedJoint):
    def ld(w):
        d = np.asarray(joint.density(np.atleast_1d(w)), dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(d > 0, np.log(np.where(d > 0, d, 1.0)), -math.inf)
    return ld


def _mixed_sibson_mi(joint: MixedJoint, alpha: float) -> float:
    if not 1.0 < alpha < math.inf:
        raise AlphaAtMostOne(f"Sibson order must be finite and exceed 1, got {alpha!r}")
    ld = _log_density(joint)
    total = 0.0
    for i in range(len(joint.observations)):
        ll = joint.log_likelihood_row(i)
        log_j = _log_scaled_integral(joint, lambda w: ld(w) + alpha * ll(w))
        total += math.exp(log_j / alpha)
    return max(0.0, alpha / (alpha - 1.0) * math.log(total))


def _mixed_moment(joint: MixedJoint, order: float) -> float:
    """Integral of the density ratio raised to ``order`` against the product."""
    marginal = joint.observation_marginal()
    ld = _log_density(joint)
    total = 0.0
    for i, px in enumerate(marginal):
        ll = joint.log_likelihood_row(i)
        log_j = _log_scaled_integral(joint, lambda w: ld(w) + order * ll(w))
        total += math.exp((1.0 - order) * math.log(px) + log_j)
    return total


def _mixed_max_leakage(joint: MixedJoint) -> float:
    a, b = joint.support
    grid = np.linspace(a, b, 4097)
    obs = np.arange(len(joint.observations))
    rows = np.asarray(joint.likelihood(obs[:, None], grid[None, :]), dtype=float)
    total = 0.0
    for i in obs.tolist():
        k = int(np.argmax(rows[i]))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid.size - 1)]
        _, peak, _ = brent_max(
            lambda w, i=i: float(np.asarray(joint.likelihood(i, np.array([w])))[0]),
            lo, hi)
        total += peak
    return max(0.0, math.log(total))


def pair_divergence(p, q, spec: DivergenceSpec) -> float:
    """The two-measure divergence ``spec`` of ``p`` from ``q``; ValueError
    for a dependence measure (Sibson, maximal leakage, MI)."""
    kind = spec.kind
    if kind is DivergenceKind.KL:
        return kl_divergence(p, q)
    if kind is DivergenceKind.CHI_SQUARE:
        return chi_square(p, q)
    if kind is DivergenceKind.HELLINGER_P:
        return hellinger_p(p, q, spec.p)
    if kind is DivergenceKind.E_GAMMA_ZETA:
        return hockey_stick(p, q, spec.gamma, spec.zeta)
    if kind is DivergenceKind.RENYI:
        return renyi_divergence(p, q, spec.alpha)
    raise ValueError(f"{kind.value} is not a two-measure divergence")


def divergence_from_independence(joint, spec: DivergenceSpec) -> float:
    """Evaluate any supported measure between a joint and its product."""
    kind = spec.kind
    if isinstance(joint, DiscreteJoint):
        if kind is DivergenceKind.SIBSON_MI:
            return sibson_mi_discrete(joint, spec.alpha)
        if kind is DivergenceKind.MAX_LEAKAGE:
            return maximal_leakage_discrete(joint)
        if kind is DivergenceKind.MUTUAL_INFORMATION:
            return mutual_information(joint)
        if kind is DivergenceKind.E_GAMMA_ZETA:
            return e_gamma_zeta(joint, spec.gamma, spec.zeta)
        return pair_divergence(joint.matrix.ravel(), joint.product.ravel(), spec)
    if isinstance(joint, MixedJoint):
        if kind is DivergenceKind.RENYI:
            moment = _mixed_moment(joint, spec.alpha)
            if spec.alpha > 1 and moment == math.inf:
                return math.inf
            return max(0.0, math.log(moment) / (spec.alpha - 1.0))
        if kind is DivergenceKind.SIBSON_MI:
            return _mixed_sibson_mi(joint, spec.alpha)
        if kind is DivergenceKind.MAX_LEAKAGE:
            return _mixed_max_leakage(joint)
        if kind is DivergenceKind.HELLINGER_P:
            return max(0.0, (_mixed_moment(joint, spec.p) - 1.0) / (spec.p - 1.0))
        if kind is DivergenceKind.CHI_SQUARE:
            return max(0.0, _mixed_moment(joint, 2.0) - 1.0)
        if kind is DivergenceKind.KL:
            return mutual_information(joint)
        if kind is DivergenceKind.MUTUAL_INFORMATION:
            return mutual_information(joint)
        if kind is DivergenceKind.E_GAMMA_ZETA:
            return e_gamma_zeta(joint, spec.gamma, spec.zeta)
    raise TypeError(f"unsupported joint type {type(joint).__name__!r}")
