"""Independent ground truth: Monte-Carlo risk and brute-force divergences.

The Monte-Carlo driver uses the counter-based Philox generator: trials are
split into fixed-size blocks, block ``i`` of a model draws from
``Philox(key=seed)`` jumped ``i`` times, and the reduction sums each
model's block totals in block order.  `mc_risks` runs the blocks of all
the models it is given (a whole table's n) side by side on one pool of
up to min(blocks, CPUs) threads, as numpy's random kernels release the
interpreter lock; since each block owns its generator and the totals are
added in block order, results are bit-for-bit reproducible for a given
seed whatever the number of threads, the other models in the call and
the scheduling.  `mc_risk` is its one-model case.  The Bernoulli
estimators see a sample only through its count k, so each model's
estimate is tabulated over k = 0..n once and the table indexed per sample.

`brute_force_divergence` transcribes each divergence definition as plain
per-cell loops; it deliberately shares no code with the array
implementations in :mod:`riskbounds.measures` that it validates.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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

__all__ = ["RiskEstimate", "mc_risk", "mc_risks", "brute_force_divergence",
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


def _estimate_table(model, estimator: str) -> np.ndarray | None:
    """The estimate of w after k = 0..n successes, for each k; None for the
    Gaussian model, whose posterior mean each block computes per sample.

    A discrete model's estimate depends on its sample through the count k
    alone, so `mc_risks` computes it once per model and indexes this table
    with the sampled counts.  Each entry does the arithmetic the estimate
    of a single sample would do, so the risk is the same to the last bit.
    An estimator the model does not support raises `UnsupportedEstimator`.
    """
    if isinstance(model, GaussianModel):
        if estimator != "posterior-mean":
            raise UnsupportedEstimator(f"{estimator!r} for Gaussian model")
        if model.n < 1:
            raise ValueError("simulation needs at least one sample")
        return None

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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _simulate_block(model, table, size: int, rng) -> tuple[float, float]:
    """The sum and the sum of squares of one block's losses.

    The arithmetic runs in place on the block's own arrays, which keeps
    the memory of the blocks in flight small; the values are those of the
    plain expressions to the last bit.
    """
    if isinstance(model, GaussianModel):
        w = rng.normal(0.0, math.sqrt(model.sigma_w_sq), size)
        loss = rng.normal(0.0, math.sqrt(model.sigma_sq / model.n), size)
        np.add(w, loss, out=loss)  # xbar
        np.multiply(loss, model.sigma_w_sq / (model.sigma_w_sq
                                              + model.sigma_sq / model.n),
                    out=loss)  # the posterior mean
    else:
        w = rng.random(size)
        if isinstance(model, NoisyBernoulliModel):
            k = rng.binomial(model.n, model.lam + (1.0 - 2.0 * model.lam) * w)
        else:
            k = rng.binomial(model.n, w)
        loss = table[k]
    np.subtract(w, loss, out=loss)
    np.abs(loss, out=loss)
    total = float(np.sum(loss))
    np.multiply(loss, loss, out=loss)
    return total, float(np.sum(loss))


def mc_risk(model, estimator: str, trials: int = 10 ** 5,
            seed: int = 0) -> RiskEstimate:
    """Monte-Carlo estimate of the expected loss of a reference estimator.

    The estimators are ``"posterior-median"`` and ``"sample-mean"`` for the
    Bernoulli and noisy-Bernoulli models and ``"posterior-mean"`` for the
    Gaussian one; any other raises `UnsupportedEstimator`.  Requires
    ``trials >= 10**4``.  Deterministic in ``seed``: the blocks of trials
    run on a thread pool of up to min(blocks, CPUs) workers, and their
    totals are added in block order, so the worker count moves no bit.
    An error raised in a block propagates with its own type.  This is
    `mc_risks` of the one model.
    """
    [estimate] = mc_risks([model], estimator, trials, seed)
    return estimate


def mc_risks(models, estimator: str, trials: int = 10 ** 5, seed: int = 0):
    """`mc_risk` of each model, as an iterator that yields the estimates in
    model order; each is ``==`` to `mc_risk` of its model alone.

    The estimate tables of all models are computed in the calling thread,
    in model order, so a model or estimator that `mc_risk` refuses raises
    here, before any block runs.  The blocks of every model then run on one
    thread pool of min(total blocks, CPUs) workers, built when iteration
    starts, and each model's block totals are added in block order.  An
    error raised in a block comes out, with its own type, where that
    model's estimate would have been yielded, so the caller can tell which
    model failed; the blocks not yet started are cancelled.  The pool is
    shut down when the iterator is exhausted, raises or is closed.
    """
    if trials < 10 ** 4:
        raise ValueError("at least 10^4 trials are required")
    models = list(models)
    tables = [_estimate_table(model, estimator) for model in models]
    sizes = [min(_BLOCK, trials - start) for start in range(0, trials, _BLOCK)]
    return _run_blocks(models, tables, sizes, seed)


def _run_blocks(models, tables, sizes, seed):
    """The estimates of `mc_risks`, one pool for the blocks of all models."""
    if not models:
        return
    trials = sum(sizes)
    pool = ThreadPoolExecutor(min(len(models) * len(sizes), _usable_cpus()))
    try:
        futures = [[pool.submit(_run_block, model, table, size, seed, i)
                    for i, size in enumerate(sizes)]
                   for model, table in zip(models, tables)]
        for blocks in futures:
            total = 0.0
            total_sq = 0.0
            for block in blocks:
                block_sum, block_sum_sq = block.result()
                total += block_sum
                total_sq += block_sum_sq
            mean = total / trials
            var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
            yield RiskEstimate(mean=mean, std_error=math.sqrt(var / trials),
                               samples=trials, seed=seed)
    finally:
        pool.shutdown(cancel_futures=True)


def _run_block(model, table, size: int, seed: int, index: int):
    """Block ``index`` of a simulation: its generator is Philox(key=seed)
    jumped ``index`` times, made here so that only the blocks in flight
    hold one."""
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
    return _simulate_block(model, table, size, rng)


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
