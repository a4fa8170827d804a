"""Contraction coefficients for discrete Markov kernels.

The Dobrushin coefficient upper-bounds the contraction of every convex-
generator divergence, the operator-convex closed form covers the binary
symmetric channel, and `renyi_sdpi_ratio` reproduces the fact that Renyi
divergences can contract strictly slower than the Dobrushin coefficient.
Sampling-based estimates of the contraction constant are diagnostics
only; bound computations use the closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import DiscreteDistribution, DivergenceSpec, MarkovKernel
from .errors import LambdaOutOfRange, ZeroDenominator
from . import measures

__all__ = [
    "dobrushin_coefficient",
    "eta_operator_convex_bsc",
    "renyi_sdpi_ratio",
    "eta_estimate_by_sampling",
]


def dobrushin_coefficient(kernel: MarkovKernel) -> float:
    """Maximum total-variation distance between any two kernel rows."""
    m = kernel.matrix
    worst = 0.0
    for i in range(m.shape[0]):
        diff = np.abs(m[i + 1:] - m[i]).sum(axis=1)
        if diff.size:
            worst = max(worst, 0.5 * float(diff.max()))
    return min(1.0, worst)


def eta_operator_convex_bsc(lam: float) -> float:
    """Contraction constant (1-2*lam)^2 of a BSC for operator-convex generators."""
    if not 0.0 <= lam <= 0.5:
        raise LambdaOutOfRange(f"crossover {lam!r} outside [0, 1/2]")
    return (1.0 - 2.0 * lam) ** 2


def renyi_sdpi_ratio(kernel: MarkovKernel, mu, nu, alpha: float) -> float:
    """Ratio D_alpha(nu K || mu K) / D_alpha(nu || mu) of a kernel pass."""
    mu_w = mu.weights if isinstance(mu, DiscreteDistribution) else np.asarray(mu, float)
    nu_w = nu.weights if isinstance(nu, DiscreteDistribution) else np.asarray(nu, float)
    denom = measures.renyi_divergence(nu_w, mu_w, alpha)
    if denom == 0.0:
        raise ZeroDenominator("reference divergence is 0 (nu equals mu)")
    num = measures.renyi_divergence(kernel.push(nu_w), kernel.push(mu_w), alpha)
    return num / denom


def eta_estimate_by_sampling(kernel: MarkovKernel, spec: DivergenceSpec,
                             n_pairs: int = 200, seed: int = 0) -> float:
    """Empirical lower estimate of the contraction constant by pair sampling.

    Draws random (mu, nu) pairs, plus a small perturbation of each mu,
    which probes the local regime where the chi-square contraction
    constant is attained.  Degenerate nu = mu
    pairs are skipped.
    """
    rng = np.random.default_rng(seed)
    k = kernel.n_inputs
    best = 0.0
    for _ in range(n_pairs):
        mu = rng.dirichlet(np.ones(k))
        nu = rng.dirichlet(np.ones(k))
        candidates = [(mu, nu)]
        step = rng.normal(size=k)
        step -= step.mean()
        scale = 1e-4 / max(1e-12, float(np.abs(step).max()))
        shifted = mu + scale * step
        if np.all(shifted > 0):
            candidates.append((mu, shifted / shifted.sum()))
        for base, other in candidates:
            denom = measures.pair_divergence(other, base, spec)
            if not (denom > 0.0) or denom == math.inf:
                continue
            num = measures.pair_divergence(kernel.push(other), kernel.push(base), spec)
            best = max(best, num / denom)
    return best
