"""Independent ground truth: Monte-Carlo risk and brute-force divergences.

The Monte-Carlo driver uses the counter-based Philox generator: trials are
split into fixed-size blocks, block ``i`` draws from ``Philox(key=seed)``
jumped ``i`` times, and the reduction sums block totals in block order.
Results are therefore bit-for-bit reproducible for a given seed no matter
how blocks would be scheduled across workers.  The Bernoulli estimators
see a sample only through its count k, so each call tabulates the
estimate over k = 0..n once and indexes the table per sample.

`brute_force_divergence` transcribes each divergence definition as plain
per-cell loops; it deliberately shares no code with the array
implementations in :mod:`riskbounds.measures` that it validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .distributions import DiscreteJoint, DivergenceKind, DivergenceSpec
from .errors import TooLarge, UnsupportedEstimator
from .models import (
    BernoulliUniformModel,
    GaussianModel,
    HideAndSeekModel,
    NoisyBernoulliModel,
)

__all__ = ["RiskEstimate", "mc_risk", "brute_force_divergence",
           "beta_quantile", "posterior_median_bernoulli"]

_BLOCK = 1 << 15


@dataclass(frozen=True)
class RiskEstimate:
    """Monte-Carlo estimate of an expected loss."""

    mean: float
    std_error: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error cannot be negative")


def beta_quantile(a, b, q):
    """Quantiles of Beta(a, b) by bisection on the regularized
    incomplete Beta function; 50 halvings land well inside 1e-10."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    lo = np.zeros(np.broadcast(a, b, q).shape)
    hi = np.ones_like(lo)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        below = betainc(a, b, mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def posterior_median_bernoulli(k, n: int):
    """Posterior median of a uniform-prior bias after k successes in n."""
    k = np.asarray(k, dtype=float)
    return beta_quantile(k + 1.0, n - k + 1.0, 0.5)


def _estimate_table(model, estimator: str) -> np.ndarray:
    """The estimate of w after k = 0..n successes, for each k.

    A discrete model's estimate depends on its sample through the count k
    alone, so `mc_risk` computes it once per call and indexes this table
    with the sampled counts.  Each entry does the arithmetic the estimate
    of a single sample would do, so the risk is the same to the last bit.
    """
    if isinstance(model, BernoulliUniformModel):
        n = model.n
        k = np.arange(n + 1)
        if estimator == "sample-mean":
            return k / n
        if estimator == "posterior-median":
            return posterior_median_bernoulli(k, n)
        raise UnsupportedEstimator(f"{estimator!r} for Bernoulli model")

    if isinstance(model, NoisyBernoulliModel):
        n, lam = model.n, model.lam
        u_span = 1.0 - 2.0 * lam
        k = np.arange(n + 1)
        if estimator == "sample-mean":
            if u_span == 0.0:
                raise UnsupportedEstimator(
                    "sample-mean is undefined at crossover 1/2")
            return np.clip((k / n - lam) / u_span, 0.0, 1.0)
        if estimator != "posterior-median":
            raise UnsupportedEstimator(f"{estimator!r} for noisy Bernoulli model")
        if u_span == 0.0:
            return np.full(n + 1, 0.5)
        # the posterior of u = lam + u_span * w is Beta(a, b) cut to
        # [lam, 1 - lam]
        a = k + 1.0
        b = n - k + 1.0
        f_lo = betainc(a, b, lam)
        f_hi = betainc(a, b, 1.0 - lam)
        u_hat = beta_quantile(a, b, 0.5 * (f_lo + f_hi))
        return (u_hat - lam) / u_span

    if isinstance(model, HideAndSeekModel):
        raise UnsupportedEstimator(
            "the distributed detection setting exposes formulas only")
    raise TypeError(f"unknown model type {type(model).__name__!r}")


def _simulate_block(model, table, size: int, rng) -> np.ndarray:
    if isinstance(model, GaussianModel):
        if model.n < 1:
            raise ValueError("simulation needs at least one sample")
        w = rng.normal(0.0, math.sqrt(model.sigma_w_sq), size)
        xbar = w + rng.normal(0.0, math.sqrt(model.sigma_sq / model.n), size)
        w_hat = xbar * (model.sigma_w_sq / (model.sigma_w_sq
                                            + model.sigma_sq / model.n))
        return np.abs(w - w_hat)

    w = rng.random(size)
    if isinstance(model, NoisyBernoulliModel):
        k = rng.binomial(model.n, model.lam + (1.0 - 2.0 * model.lam) * w)
    else:
        k = rng.binomial(model.n, w)
    return np.abs(w - table[k])


def mc_risk(model, estimator: str, trials: int = 10 ** 5,
            seed: int = 0) -> RiskEstimate:
    """Monte-Carlo estimate of the expected loss of a reference estimator.

    The estimators are ``"posterior-median"`` and ``"sample-mean"`` for the
    Bernoulli and noisy-Bernoulli models and ``"posterior-mean"`` for the
    Gaussian one; any other raises `UnsupportedEstimator`.  Requires
    ``trials >= 10**4``.  Deterministic in ``seed``.
    """
    if trials < 10 ** 4:
        raise ValueError("at least 10^4 trials are required")
    table = None
    if not isinstance(model, GaussianModel):
        table = _estimate_table(model, estimator)
    elif estimator != "posterior-mean":
        raise UnsupportedEstimator(f"{estimator!r} for Gaussian model")
    total = 0.0
    total_sq = 0.0
    done = 0
    block_index = 0
    base = np.random.Philox(key=seed)
    while done < trials:
        size = min(_BLOCK, trials - done)
        rng = np.random.Generator(base.jumped(block_index))
        losses = _simulate_block(model, table, size, rng)
        total += float(np.sum(losses))
        total_sq += float(np.sum(losses * losses))
        done += size
        block_index += 1
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return RiskEstimate(mean=mean, std_error=math.sqrt(var / trials),
                        samples=trials, seed=seed)


def brute_force_divergence(joint: DiscreteJoint, spec: DivergenceSpec) -> float:
    """Direct summation of the defining formula on a small discrete joint.

    Reference implementation for the measures module; refuses joints with
    more than 10^4 cells.
    """
    m = joint.matrix
    if m.size > 10 ** 4:
        raise TooLarge(f"{m.size} cells exceed the brute-force limit")
    nx, ny = m.shape
    px = [float(sum(m[i, j] for j in range(ny))) for i in range(nx)]
    py = [float(sum(m[i, j] for i in range(nx))) for j in range(ny)]
    kind = spec.kind

    if kind is DivergenceKind.SIBSON_MI:
        alpha = spec.alpha
        outer = 0.0
        for j in range(ny):
            inner = 0.0
            for i in range(nx):
                if m[i, j] > 0:
                    inner += px[i] ** (1.0 - alpha) * m[i, j] ** alpha
            outer += inner ** (1.0 / alpha)
        return alpha / (alpha - 1.0) * math.log(outer)

    if kind is DivergenceKind.MAX_LEAKAGE:
        total = 0.0
        for j in range(ny):
            total += max(m[i, j] / px[i] for i in range(nx) if px[i] > 0)
        return math.log(total)

    if kind is DivergenceKind.MUTUAL_INFORMATION:
        total = 0.0
        for i in range(nx):
            for j in range(ny):
                if m[i, j] > 0:
                    total += m[i, j] * math.log(m[i, j] / (px[i] * py[j]))
        return total

    # the remaining measures compare the joint against the marginal product
    total = 0.0
    for i in range(nx):
        for j in range(ny):
            p_cell = m[i, j]
            q_cell = px[i] * py[j]
            if kind is DivergenceKind.RENYI:
                if p_cell > 0 and q_cell == 0:
                    return math.inf
                if p_cell > 0 and q_cell > 0:
                    total += p_cell ** spec.alpha * q_cell ** (1.0 - spec.alpha)
            elif kind is DivergenceKind.KL:
                if p_cell > 0 and q_cell == 0:
                    return math.inf
                if p_cell > 0:
                    total += p_cell * math.log(p_cell / q_cell)
            elif kind is DivergenceKind.CHI_SQUARE:
                if p_cell > 0 and q_cell == 0:
                    return math.inf
                if q_cell > 0:
                    total += (p_cell - q_cell) ** 2 / q_cell
            elif kind is DivergenceKind.HELLINGER_P:
                if p_cell > 0 and q_cell == 0:
                    return math.inf
                if q_cell > 0:
                    ratio = p_cell / q_cell
                    total += q_cell * (ratio ** spec.p - 1.0) / (spec.p - 1.0)
            elif kind is DivergenceKind.E_GAMMA_ZETA:
                total += max(0.0, spec.zeta * p_cell - spec.gamma * q_cell)
            else:
                raise ValueError(f"unsupported kind {kind!r}")
    if kind is DivergenceKind.RENYI:
        return math.log(total) / (spec.alpha - 1.0)
    if kind is DivergenceKind.E_GAMMA_ZETA:
        return total - max(0.0, spec.zeta - spec.gamma)
    return total
