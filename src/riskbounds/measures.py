"""Divergences and dependence measures against the independence reference.

Two-distribution measures (`renyi_divergence`, `kl_divergence`, ...) accept
either :class:`~riskbounds.distributions.DiscreteDistribution` objects or
plain weight arrays, and raise `NanValue` for a NaN weight.  Joint measures
take a :class:`~riskbounds.distributions.DiscreteJoint`, raise TypeError for
any other joint, and always compare the joint against the product of its
own marginals, by closed-form summation.

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
)
from .errors import AlphaAtMostOne, AlphaOne, NanValue, NonPositiveAlpha

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
    w = np.asarray(dist, dtype=float)
    if np.isnan(w).any():
        raise NanValue("weights must not be NaN")
    return w


def _check_discrete(joint):
    if not isinstance(joint, DiscreteJoint):
        raise TypeError(f"unsupported joint type {type(joint).__name__!r}")


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


def e_gamma_zeta(joint: DiscreteJoint, gamma: float, zeta: float) -> float:
    """Generalized hockey-stick dependence of a joint from its product."""
    _check_gamma_zeta(gamma, zeta)
    _check_discrete(joint)
    value = float(np.sum(np.maximum(0.0, zeta * joint.matrix - gamma * joint.product)))
    return max(0.0, value - max(0.0, zeta - gamma))


def mutual_information(joint: DiscreteJoint) -> float:
    """Shannon mutual information of a finite joint."""
    _check_discrete(joint)
    m = joint.matrix
    prod = joint.product
    mask = m > 0
    if np.any(mask & (prod == 0)):
        return math.inf
    return max(0.0, float(np.sum(m[mask] * np.log(m[mask] / prod[mask]))))


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


def divergence_from_independence(joint: DiscreteJoint, spec: DivergenceSpec) -> float:
    """Evaluate any supported measure between a finite joint and its product."""
    _check_discrete(joint)
    kind = spec.kind
    if kind is DivergenceKind.SIBSON_MI:
        return sibson_mi_discrete(joint, spec.alpha)
    if kind is DivergenceKind.MAX_LEAKAGE:
        return maximal_leakage_discrete(joint)
    if kind is DivergenceKind.MUTUAL_INFORMATION:
        return mutual_information(joint)
    if kind is DivergenceKind.E_GAMMA_ZETA:
        return e_gamma_zeta(joint, spec.gamma, spec.zeta)
    return pair_divergence(joint.matrix.ravel(), joint.product.ravel(), spec)
