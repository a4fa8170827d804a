"""The four worked estimation settings and their closed-form quantities.

Bernoulli computations collapse the 2^n sample space to the Hamming
weight, and Gaussian computations collapse the sample to its mean; both
reductions are sufficient statistics, so every divergence is preserved
while n = 500 stays comfortably within budget.  All Gamma-function ratios
are evaluated through log-Gamma to avoid overflow past n ~ 85.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc, erf, erfc, expit, gammaln, logit, psi, xlogy, zeta

from . import sdpi
from .bounds import BoundResult, FirstOrder, SmallBallFn, sdpi_bound
from .quadrature import adaptive_simpson

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
    "bernoulli_mutual_informations",
    "bernoulli_upper_bound",
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
        _check_count(self.n)


@dataclass(frozen=True)
class NoisyBernoulliModel:
    """Bernoulli bias estimation where each flip passes through a BSC."""

    n: int
    lam: float

    def __post_init__(self):
        _check_count(self.n)
        if not 0.0 <= self.lam <= 0.5:
            raise ValueError("crossover must lie in [0, 1/2]")


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian mean with Gaussian prior, n noisy samples, absolute loss."""

    n: int
    sigma_w_sq: float
    sigma_sq: float

    def __post_init__(self):
        _check_count(self.n, 0)
        if not (self.sigma_w_sq > 0 and self.sigma_sq > 0):
            raise ValueError("variances must be positive")
        if not (math.isfinite(self.sigma_w_sq) and math.isfinite(self.sigma_sq)):
            raise ValueError("variances must be finite")
        if not math.isfinite(self.snr):
            raise ValueError(f"the SNR n sigma_W^2/sigma^2 must be finite, got {self.snr} "
                             f"at n={self.n}")

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
        _check_count(self.n)
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if self.m < 1:
            raise ValueError("m must be at least 1")
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
    n = _sample_counts(n)
    k = np.arange(n + 1)
    log_terms = (
        _log_binom(n, k) + xlogy(k, k / n) + xlogy(n - k, 1.0 - k / n)
    )
    exact = _logsumexp(log_terms)
    upper = math.log(2.0 + math.sqrt(math.pi * n / 2.0))
    return MlValue(exact=float(exact), upper=upper)


def bernoulli_sibson_first_order(n, alpha) -> FirstOrder:
    """Sibson's I_alpha = alpha/(alpha-1) log S of bias and weight, S a
    Gamma-ratio sum over weights and its log taken by libm, with the
    condition of the Sibson bound and its slope from the same pass
    (`_bernoulli_pass`).
    An array of R orders is one pass over an (R, n+1) array, each entry
    ``==`` to the call with that order alone; a scalar returns floats.
    ``n`` is one sample count, or an array of one per order, whose rows
    run in passes over all the n at once (`_over_n`).
    A non-finite order raises `ValueError`, as the sum has no value there,
    and so does an order at which log Gamma(n alpha + 2) nears the float
    range (alpha above about 1.3e305/n), where the terms cannot be formed."""
    log_s, a, condition, slope = _bernoulli_pass(n, alpha, hellinger=False)
    return FirstOrder(_float_if_scalar(a / (a - 1.0) * _libm(math.log, np.exp(log_s))),
                      condition, slope)


def bernoulli_hellinger_first_order(n, p) -> FirstOrder:
    """H_p = (M - 1)/(p - 1) of bias and weight, M a Gamma-ratio sum, with
    the condition of the Hellinger bound and its slope from the same pass;
    ``n`` and ``p`` broadcast as in `bernoulli_sibson_first_order`.  Where M
    exceeds the float range (orders above about 100) H_p is +inf, a vacuous
    bound, while the condition and its slope, from log M, stay finite."""
    log_m, p, condition, slope = _bernoulli_pass(n, p, hellinger=True)
    with np.errstate(over="ignore"):  # M beyond the float range: H_p = +inf
        m = np.exp(log_m)
    return FirstOrder(_float_if_scalar((m - 1.0) / (p - 1.0)), condition, slope)


# the most (point, k) entries of one pass of a Bernoulli kernel over points
# of several n; a longer call runs in passes of about this many, so that a
# pass's arrays, a few tens of floats per entry, stay near 4 MB at any n,
# while a pass still holds the points of many n
_PASS_ENTRIES = 1 << 14
# the fewest entries of an n's points that run in passes of that n alone:
# past about this many, gathering the numbers of n to every entry costs
# more than the call per n that broadcasts them saves
_ALONE_ENTRIES = 1 << 11


def _check_count(n, least: int = 1) -> None:
    """Raise `ValueError` naming ``n`` unless it is an integer of at least
    ``least``."""
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n}")
    if n < least:
        raise ValueError(f"n must be at least {least}")


def _sample_counts(n):
    """``n`` as one Python sample count, or as an integer array of one per
    point, each checked by `_check_count`; an array of another dtype is
    named by its first entry."""
    counts = np.asarray(n)
    if counts.ndim == 0:
        _check_count(n if isinstance(n, numbers.Integral) else counts.item())
        return int(n)
    if not np.issubdtype(counts.dtype, np.integer):
        _check_count(counts.flat[0] if counts.size else n)
    if not np.all(counts >= 1):
        raise ValueError("n must be at least 1")
    return counts


def _over_n(kernel, n, width, *arrays):
    """The outputs of ``kernel(rows, *arrays)``, each with one value per
    point, where ``rows`` lays out the entries k = 0..width(n)-1 of each
    point's row.

    For one n, the points are the leading axes of ``arrays`` and the call
    is one `_Grid`, which broadcasts the rows along a last axis.  For an
    array of one n per point, of the shape of ``arrays``, the points are
    grouped by n, in order of the first appearance of each n and in point
    order within it, and run in the passes of `_passes`: a pass of several
    n is one `_Flat`, and a pass of one n a `_Grid`, as a call with that n
    alone.  Each output then comes back as a float64 array of the shape of
    ``n``, in point order.  The first point of the first n with a failure
    raises first, as a call per n in that order would."""
    if not isinstance(n, np.ndarray):
        return kernel(_Grid(n, width(n)), *arrays)
    shape, ns, arrays = n.shape, n.ravel(), [a.ravel() for a in arrays]
    _, first, inverse = np.unique(ns, return_index=True, return_inverse=True)
    order = np.argsort(first[inverse], kind="stable")
    ns = ns[order]
    widths = width(ns)
    outs = None
    for start, stop in _passes(ns, widths):
        points = order[start:stop]
        rows = (_Grid(int(ns[start]), int(widths[start])) if ns[start] == ns[stop - 1]
                else _Flat(ns[start:stop], widths[start:stop]))
        part = kernel(rows, *(a[points] for a in arrays))
        if outs is None:
            outs = [np.empty(ns.size) for _ in part]
        for whole, values in zip(outs, part):
            whole[points] = values
    return [whole.reshape(shape) for whole in outs]


def _passes(ns: np.ndarray, widths: np.ndarray):
    """The (start, stop) of each pass over points whose equal n are
    adjacent: as many whole n as fit in _PASS_ENTRIES entries, except that
    an n whose points have _ALONE_ENTRIES entries or more runs in passes
    of its own, of at most _PASS_ENTRIES entries (at least one point)."""
    bounds = [*np.flatnonzero(np.diff(ns, prepend=0)).tolist(), ns.size]
    start = size = 0
    for lo, hi in zip(bounds, bounds[1:]):
        width = int(widths[lo])
        entries = (hi - lo) * width
        if size and (size + entries > _PASS_ENTRIES or entries >= _ALONE_ENTRIES):
            yield start, lo
            start, size = lo, 0
        if entries >= _ALONE_ENTRIES:
            step = max(1, _PASS_ENTRIES // width)
            yield from ((at, min(at + step, hi)) for at in range(lo, hi, step))
            start = hi
        else:
            size += entries
    if start < ns.size:
        yield start, ns.size


class _Rows:
    """The entries of the points of a kernel pass, one row of entries per
    point; here the rows run along the last axis of an array.  ``each``
    spreads a value per point over its row's entries, and the reductions
    take one value per row: the pairwise ``sum`` of numpy, the ``max``, the
    ``count`` of true entries and, for `math.fsum`, the ``rows`` as lists;
    ``mirror`` takes each row's entries in reverse."""

    def each(self, values):
        return np.asarray(values)[..., None]

    def sum(self, *xs):
        sums = [x.sum(axis=-1) for x in xs]
        return sums if len(xs) > 1 else sums[0]

    def max(self, x):
        return x.max(axis=-1)

    def count(self, mask):
        return mask.sum(axis=-1, dtype=float)

    def mirror(self, x):
        return x[..., ::-1]

    def rows(self, x) -> list:
        return x.tolist()


_LAST_AXIS = _Rows()


class _Grid(_Rows):
    """The rows of one n: k = 0..width-1 along the last axis, and a table
    ``fn(n, k)`` of the weights' numbers is taken once for every point."""

    def __init__(self, n, width):
        self.n = self.entry_n = n
        self.k = np.arange(float(width))

    def table(self, fn):
        return fn(self.n, self.k)

    def by_n(self, fn):
        return fn(self.n)


class _Flat(_Rows):
    """The rows of points of several n, end to end along one axis, the
    points of each n adjacent (a run).  A table ``fn(n, k)`` is taken once
    per run, on that n's k = 0..width-1, and gathered to the entries of its
    points; ``by_n`` likewise.  A run's rows are summed as one (points,
    width) block, whose row sums are each that of the row alone, and the
    row maxima and counts, which rounding cannot touch, by ``reduceat``."""

    def __init__(self, ns: np.ndarray, widths: np.ndarray):
        self.n = ns
        self._widths = widths
        self._starts = np.cumsum(widths) - widths
        first = np.flatnonzero(np.diff(ns, prepend=0))
        self._run_n = ns[first]
        counts = np.diff(first, append=ns.size)
        run_widths = widths[first]
        self._run_sizes = counts * run_widths
        self._runs = list(zip(self._starts[first].tolist(), counts.tolist(),
                              run_widths.tolist()))
        offset = np.arange(self._starts[-1] + widths[-1]) - self.each(self._starts)
        self.k = offset.astype(float)
        self.entry_n = self.each(ns.astype(float))
        self._mirror_at = self.each(self._starts + widths - 1) - offset
        table_starts = np.cumsum(run_widths) - run_widths
        self._table_n = np.repeat(self._run_n, run_widths)
        self._table_k = np.arange(table_starts[-1] + run_widths[-1]) - np.repeat(
            table_starts, run_widths)
        self._table_at = offset + self.each(np.repeat(table_starts, counts))

    def each(self, values):
        return np.repeat(values, self._widths)

    def table(self, fn):
        out = fn(self._table_n, self._table_k)
        if isinstance(out, tuple):
            return tuple(np.take(part, self._table_at) for part in out)
        return np.take(out, self._table_at)

    def by_n(self, fn):
        return np.repeat([fn(n) for n in self._run_n.tolist()], self._run_sizes)

    def sum(self, *xs):
        x = np.array(xs) if len(xs) > 1 else xs[0]
        return np.concatenate(
            [x[..., start:start + count * width].reshape(x.shape[:-1] + (count, width))
             .sum(axis=-1) for start, count, width in self._runs], axis=-1)

    def max(self, x):
        return np.maximum.reduceat(x, self._starts)

    def count(self, mask):
        return np.add.reduceat(mask, self._starts, dtype=float)

    def mirror(self, x):
        return x[self._mirror_at]

    def rows(self, x) -> list:
        flat = x.tolist()
        return [flat[start:start + width]
                for start, width in zip(self._starts.tolist(), self._widths.tolist())]


_FLOAT_MAX = float(np.finfo(float).max)


def _bernoulli_pass(n, order, hellinger: bool):
    """log S (Sibson) or log M (Hellinger) at each order theta, theta, and
    the condition of the bound and its slope (`_order_condition`), over the
    rows k = 0..n of `_over_n` (`_order_sums`)."""
    n = _sample_counts(n)
    a = _orders(order, finite=True)
    if isinstance(n, np.ndarray):
        n, a = np.broadcast_arrays(n, a)
    log_sum, condition, slope = _over_n(
        lambda rows, a: _order_sums(rows, a, hellinger), n, lambda n: n + 1, a)
    return log_sum, a, condition, slope


def _order_sums(rows, a: np.ndarray, hellinger: bool):
    """log S or log M, the condition and its slope, at the orders ``a``, one
    per point of ``rows``.  log S and log M are the logsumexp over k of
    log C(n,k) + log_beta/theta, or of (theta-1) log(n+1) + theta log C(n,k)
    + log_beta, where log_beta = log Gamma(k theta + 1)
    + log Gamma((n-k) theta + 1) - log Gamma(n theta + 2) and the second
    term is the k-mirror of the first.  D is w log S, w = theta/(theta-1)
    or 1/(theta-1), so D' = -log S/(theta-1)^2 + w (log S)' and
    D'' = 2 log S/(theta-1)^3 - 2 (log S)'/(theta-1)^2 + w (log S)''.  With
    pi_k the softmax weights of the terms and d_k, d2_k their first and
    second theta-derivatives, (log S)' = sum pi_k d_k and (log S)'' =
    sum pi_k [d2_k + (d_k - (log S)')^2], which does not cancel as
    E[d^2] - E[d]^2 would.  The derivatives take
    dlog_beta = k psi(k theta + 1) + (n-k) psi((n-k) theta + 1)
    - n psi(n theta + 2) and ddlog_beta, the same with k^2 psi1, (n-k)^2 psi1
    and n^2 psi1, psi1 = zeta(2, .) the trigamma; for Sibson d2_k =
    ddlog_beta/theta - 2 dlog_beta/theta^2 + 2 log_beta/theta^3, which is
    (ddlog_beta - 2 d_k)/theta."""
    n = rows.n
    with np.errstate(over="ignore"):  # n * a beyond the float range: checked below
        top = n * a + 2.0
    log_top = gammaln(top)
    # the terms add up to about twice log_top before it is taken off
    too_large = log_top >= _FLOAT_MAX / 2.0
    if too_large.any():
        raise ValueError(f"order {float(a[too_large][0])!r} is too large for "
                         f"n={np.broadcast_to(n, a.shape)[too_large][0]}: "
                         "its Gamma-ratio sum exceeds the float range")
    k, each_a = rows.k, rows.each(a)
    x = k * each_a + 1.0  # the arguments k theta + 1 of each row
    lg = gammaln(x)
    log_binom = rows.table(_log_binom)
    log_n = rows.by_n(lambda n: math.log(n + 1.0))  # libm's, per n
    if hellinger:
        terms = ((each_a - 1.0) * log_n + each_a * log_binom + lg + rows.mirror(lg)
                 - rows.each(log_top))
    else:
        log_beta = lg + rows.mirror(lg) - rows.each(log_top)
        terms = log_binom + log_beta / each_a
    log_sum = _logsumexp(terms, rows)
    k_psi = k * psi(x)
    d_log_beta = k_psi + rows.mirror(k_psi) - rows.each(n * psi(top))
    kk_psi1 = k * k * zeta(2.0, x)
    dd_log_beta = kk_psi1 + rows.mirror(kk_psi1) - rows.each(n * n * zeta(2.0, top))
    d_terms = (log_n + log_binom + d_log_beta if hellinger
               else d_log_beta / each_a - _per_square(log_beta, each_a))
    d2_terms = dd_log_beta if hellinger else (dd_log_beta - 2.0 * d_terms) / each_a
    weights = np.exp(terms - rows.each(log_sum))
    d_log_sum = rows.sum(weights * d_terms)
    dd_log_sum = rows.sum(weights * (d2_terms + (d_terms - rows.each(d_log_sum)) ** 2))
    w = (1.0 if hellinger else a) / (a - 1.0)
    d_prime = _per_square(-log_sum, a - 1.0) + w * d_log_sum
    d_second = (2.0 * (log_sum / (a - 1.0) - d_log_sum) / (a - 1.0) / (a - 1.0)
                + w * dd_log_sum)
    return (log_sum, *_libm(_order_condition, a, d_prime, d_second))


def _order_condition(theta: float, d_prime: float, d_second: float) -> tuple[float, float]:
    """g = d log f/d log theta for the Sibson and Hellinger bounds f at the
    order theta, and its slope dg/d log theta, from D' and D'': under a
    linear L of slope c, log f = log t - (1 + 1/t) log(1+t) - D(theta)
    - log c with t = (theta-1)/theta and D = I_alpha or log M_p/(p-1), so
    g = theta (kappa - D') with kappa = log(1+t)/(theta-1)^2, and
    dg/d log theta = theta [(kappa - D') + theta (kappa' - D'')] with
    kappa' = 1/(theta (2 theta - 1) (theta-1)^2) - 2 log(1+t)/(theta-1)^3
    (both -inf at D' = inf).  The powers of theta - 1 are divisions one at
    a time where they would leave the float range."""
    log_ratio = math.log1p((theta - 1.0) / theta)
    try:
        curvature = log_ratio / (theta - 1.0) ** 2
    except OverflowError:  # (theta - 1)^2 beyond the float range
        curvature = log_ratio / (theta - 1.0) / (theta - 1.0)
    condition = theta * (curvature - d_prime)
    if condition == -math.inf:
        return condition, condition
    bend = ((1.0 / theta / (2.0 * theta - 1.0) - 2.0 * log_ratio / (theta - 1.0))
            / (theta - 1.0) / (theta - 1.0))
    return condition, theta * ((curvature - d_prime) + theta * (bend - d_second))


def _per_square(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x / d^2 elementwise, and x / d / d where d^2 leaves the float range
    (|d| above about 1.34e154), so that the quotient stays finite."""
    with np.errstate(over="ignore"):
        square = d * d
    return np.where(np.isinf(square), x / d / d, x / square)


def _logsumexp(a: np.ndarray, rows: _Rows = _LAST_AXIS) -> np.ndarray:
    """log(sum(exp(a))) over each row of a float64 array, by default its
    last axis, by the algorithm of `scipy.special.logsumexp` (scipy 1.17)
    for real input, whose values it reproduces ``==`` without that
    function's argument handling: the terms equal to the maximum are split
    out of the sum, the result is log1p(s/m) + log(m) + max for the m
    largest terms and the sum s of the rest, shifted by the maximum, and a
    non-finite result falls back to the direct log(sum(exp(a)))."""
    a_max = rows.max(a)
    is_max = a == rows.each(a_max)
    m = rows.count(is_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = rows.sum(np.exp(np.where(is_max, -np.inf, a) - rows.each(a_max)))
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    finite = np.isfinite(out)
    if not finite.all():
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.where(finite, out, np.log(rows.sum(np.exp(a))))
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
    scalar call, as an array of the shape of ``orders``; a 0-d array gives
    a float.  Where ``fn`` returns a tuple of floats, so does this: one
    array or float per part."""
    out = np.array([fn(*xs) for xs in zip(*(a.ravel().tolist() for a in (orders, *more)))],
                   dtype=float)
    if out.ndim == 2:
        return tuple(_float_if_scalar(part.reshape(orders.shape)) for part in out.T)
    return _float_if_scalar(out.reshape(orders.shape))


# The Newton search for the interval ends in s = logit(w): it starts at
# +-_LOGIT_EDGE and never leaves that window (an end beyond it stays on it),
# an end stops once its step is at most _NEWTON_TOL * (1 + |s|), and an end
# that has not stopped after _NEWTON_CAP steps raises.  An end whose log
# ratio at the mode exceeds log t by at most _PEAK_ULPS ulp of
# log Gamma(n + 2), the largest term of the log ratio, is the mode.
_LOGIT_EDGE = 40.0
_NEWTON_TOL = 1e-9
_NEWTON_CAP = 60
_PEAK_ULPS = 4.0


def bernoulli_e_gamma_zeta_batch(n, gamma, zeta) -> FirstOrder:
    """Hockey-stick dependence of bias and weight at each of R (gamma, zeta)
    pairs, by exact interval algebra, with the first-order condition of the
    E_{gamma,zeta} bound and its slope from the same pass.

    The density ratio at weight k is the Beta(k+1, n-k+1) pdf, which is
    unimodal, so {ratio >= t}, t = gamma/zeta, is an interval around the
    mode k/n; the integral over it reduces to regularized incomplete Beta
    values.  The pdf of weight n-k at w is that of weight k at 1-w, so the
    interval of n-k mirrors that of k, with the same mass and length: only
    k = 0..floor(n/2) are computed, each counted twice except k = n/2.  The
    ends are Newton steps in s = logit(w) (`_logit_ends`), but the left end
    of weight 0, whose ratio peaks at w = 0, stays there: for k <= n/2 the
    ratio is 0 at w = 1, and at w = 0 for k > 0.  The value is
    zeta*H(t) - max(0, zeta - gamma) with H(t) = sum max(0, p - t*q), so
    scaling gamma and zeta scales it.  A quadrature of the same integrals
    serves as its oracle in tests.

    ``gamma`` and ``zeta`` broadcast against each other, and ``value`` is
    a list of R floats.  The ends of pair r are a (2, floor(n/2)+1) block
    of one array, and each end stops on its own, so entry r is ``==`` to
    the call with that pair alone.  ``n`` is one sample count, or an array
    of one per pair, broadcast against them; then every part is a float64
    array of the broadcast shape, from passes over the half rows of all
    the n at once (`_over_n`), each entry ``==`` to the one-n call.

    The condition (see `bounds.FirstOrder`): with P(R_t) the summed
    masses and Q(R_t) the summed lengths over (n+1), g(t) =
    P(R_t) + t Q(R_t) - 1 and dg/d log t = t Q + 2 t dQ/d log t.  An end
    moves at d(end)/d log t = 1/l_k'(end), l_k'(w) = k/w - (n-k)/(1-w);
    an end pinned at 0 does not move.  A pair with gamma = 0 has
    value 0, g = 0 and slope 0 (R_0 is everything)."""
    n = _sample_counts(n)
    one_n = not isinstance(n, np.ndarray)
    if not one_n:
        n, gamma, zeta = np.broadcast_arrays(n, np.asarray(gamma, dtype=float),
                                             np.asarray(zeta, dtype=float))
    gammas, zetas, shape = _gamma_zeta_pairs(gamma, zeta)
    live = np.flatnonzero(gammas != 0.0)
    out = (_over_n(_hockey_stick, n if one_n else n.ravel()[live], lambda n: n // 2 + 1,
                   gammas[live], zetas[live]) if live.size else [np.zeros(0)] * 3)
    if live.size < gammas.size:  # the pairs with gamma = 0 keep their zeros
        out, parts = [np.zeros(gammas.size) for _ in range(3)], out
        for whole, part in zip(out, parts):
            whole[live] = part
    if one_n:
        values = out[0]
        return FirstOrder(values if isinstance(values, list) else values.tolist(), *out[1:])
    return FirstOrder(*(np.reshape(part, shape) for part in out))


def _hockey_stick(rows, g: np.ndarray, z: np.ndarray):
    """The value, condition and slope of `bernoulli_e_gamma_zeta_batch` at
    the pairs (g, z), gamma > 0, one per point of ``rows`` of the weights
    k = 0..floor(n/2); the left and right ends of the entries are a
    leading axis of two."""
    n, k = rows.entry_n, rows.k
    log_norm, at_peak = rows.table(_log_ratios)
    log_t = rows.each([math.log(ratio) for ratio in (g / z).tolist()])
    excess = at_peak - log_t  # of the log ratio at the mode
    exists = excess >= 0.0
    need = np.array([exists & (k > 0.0), exists])  # only weight 0 starts at w = 0
    at_mode = excess <= rows.by_n(lambda n: _PEAK_ULPS * math.ulp(float(gammaln(n + 2.0))))
    edges = _EDGES.reshape((2,) + (1,) * exists.ndim)

    def per_end(x):  # one n stays a scalar
        return np.broadcast_to(x, need.shape)[need] if isinstance(x, np.ndarray) else x

    ends = np.where(need, np.nan, edges)
    s, moving = _logit_ends(per_end(n), per_end(k), per_end(log_norm), per_end(log_t),
                            per_end(edges == 1.0), per_end(at_mode))
    if moving.size:
        # name the first point, in the order of the pass, with an end still moving
        first = (np.flatnonzero(need)[moving] % exists.size).min()
        raise ArithmeticError(f"Newton interval ends at "
                              f"n={int(np.broadcast_to(n, exists.shape).flat[first])} "
                              f"still moving after {_NEWTON_CAP} steps")
    ends[need] = expit(s)
    left, right = ends
    length = right - left

    a_par, b_par = k + 1.0, n - k + 1.0
    mass = betainc(a_par, b_par, right) - betainc(a_par, b_par, left)
    weight = np.where(2.0 * k == n, 1.0, 2.0)
    contrib = np.where(exists, weight * (rows.each(z) * mass - rows.each(g) * length), 0.0)
    # the sum is near (n+1)*(zeta - gamma) for small t: a correctly rounded
    # sum keeps its rounding out of the difference below
    totals = np.array([math.fsum(row) for row in rows.rows(contrib)]) / (rows.n + 1.0)
    values = [max(0.0, total - max(0.0, zeta - gamma))
              for total, gamma, zeta in zip(totals.tolist(), g.tolist(), z.tolist())]

    # an end at the mode moves infinitely fast; pinned ends are masked out
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = np.where(need, 1.0 / (k / ends - (n - k) / (1.0 - ends)), 0.0)
    share = np.where(exists, weight / (n + 1.0), 0.0)
    p_mass, q_mass, q_speed = rows.sum(share * mass, share * length,
                                       share * (speed[1] - speed[0]))
    t = g / z
    return values, p_mass + t * q_mass - 1.0, t * (q_mass + 2.0 * q_speed)


def _log_ratios(n, k):
    """log_norm = log Gamma(n+2) - log Gamma(k+1) - log Gamma(n-k+1), and the
    log density ratio log_norm + k log w + (n-k) log(1-w) of weight k at its
    mode w = k/n."""
    log_norm = gammaln(n + 2.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    return log_norm, log_norm + xlogy(k, k / n) + xlogy(n - k, 1.0 - k / n)


# the left and right ends of an interval, along a leading axis
_EDGES = np.array([0.0, 1.0])


def _logit_ends(n, k, log_norm, log_t, right, at_mode):
    """The s = logit(w) at which the concave log ratio l(s) = log_norm + k*s
    - n*log(1 + e^s) of weight k of sample count n falls to log_t, left of
    the mode or, where ``right``, right of it, and the mode itself where
    ``at_mode``, and the indices of the ends still moving after
    _NEWTON_CAP steps; all arguments are flat arrays of one end each, but
    ``n`` may be one sample count for all of them.  Each end moves only
    inward, from +-_LOGIT_EDGE towards the mode, and never past either, so
    rounding near a double root (t at the peak) cannot carry it to the
    other side.

    The caller sets ``at_mode`` where l at the mode reaches log_t only
    within the rounding of l (_PEAK_ULPS).  Newton would walk there about
    one logit per step: at a double root, or for k = 0, whose mode is
    w = 0, where the root lies at s = log((l(mode) - log_t)/n), beyond or
    near the window's edge.  The sliver left out has p = t q to first
    order, so it adds nothing to the value."""
    each_n = isinstance(n, np.ndarray)
    inward = np.where(right, -1.0, 1.0)
    mode = np.clip(logit(k / n), -_LOGIT_EDGE, _LOGIT_EDGE)
    s = np.where(at_mode, mode, np.where(right, _LOGIT_EDGE, -_LOGIT_EDGE))
    lo = np.where(right, mode, -_LOGIT_EDGE)
    hi = np.where(right, _LOGIT_EDGE, mode)
    active = np.flatnonzero(~at_mode)
    with np.errstate(divide="ignore", invalid="ignore"):  # slope 0 at the mode
        for _ in range(_NEWTON_CAP):
            if active.size == 0:
                break
            at, ka, na = s[active], k[active], n[active] if each_n else n
            excess = log_t[active] - (log_norm[active] + ka * at
                                      - na * np.logaddexp(0.0, at))
            new = np.clip(at + excess / (ka - na * expit(at)), lo[active], hi[active])
            moved = inward[active] * (new - at)
            s[active] = np.where(moved > 0.0, new, at)
            active = active[moved > _NEWTON_TOL * (1.0 + np.abs(at))]
    return s, active


def _gamma_zeta_pairs(gamma, zeta) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The broadcast gammas and zetas as flat float64 arrays, and their
    shape; each zeta must be finite and positive, each gamma finite and
    non-negative (NaN fails), and where gamma > 0 the ratio gamma/zeta,
    which both kernels take the log of, a positive finite float.  The first
    pair, in flat order, that fails a check names its failure."""
    gammas, zetas = np.broadcast_arrays(np.asarray(gamma, dtype=float),
                                        np.asarray(zeta, dtype=float))
    shape, g, z = gammas.shape, gammas.ravel(), zetas.ravel()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = g / z
    out_of_range = ~((0.0 < z) & (z < math.inf) & (0.0 <= g) & (g < math.inf))
    bad = np.flatnonzero(out_of_range | ((g > 0.0) & ~((0.0 < ratio) & (ratio < math.inf))))
    if bad.size:
        first = bad[0]
        if out_of_range[first]:
            raise ValueError("requires finite zeta > 0 and gamma >= 0")
        g, z = float(g[first]), float(z[first])
        raise ValueError(f"gamma/zeta = {g:g}/{z:g} rounds to {g / z:g}: "
                         "the ratio must be a positive finite float")
    return g, z, shape


def bernoulli_mutual_information(n: int) -> float:
    """Shannon dependence of bias and weight, by adaptive quadrature of the
    weight's binomial likelihood C(n,k) w^k (1-w)^(n-k) over the uniform
    prior on [0, 1], half the weights at a time: the one-n case of
    `bernoulli_mutual_informations`.

    Under the uniform prior, w -> 1 - w maps weight k's integrands, that of
    the marginal P(k) and that of the MI, onto those of weight n - k, and
    the abscissae of `quadrature.adaptive_simpson` are dyadic, so 1 - w is
    exact.  Both passes therefore integrate only k = 0..floor(n/2), and
    weight n - k takes the integral of weight k.  The marginal of the
    mirrored weights must sum to 1 within 1e-6.  The MI integrand of weight
    k is lik * (log lik - log P(k)), and 0 where lik = 0; the n+1 MI terms
    are added left to right."""
    return bernoulli_mutual_informations([n])[0]


# the most half rows (weights k <= n/2) that one pass of
# `bernoulli_mutual_informations` integrates; an n with more is a pass alone
_MI_ROWS = 256


def bernoulli_mutual_informations(ns) -> list[float]:
    """`bernoulli_mutual_information` of each n in ``ns``, as a list in
    ``ns`` order; each is ``==`` to the one-n value.

    Consecutive n are grouped into chunks of at most `_MI_ROWS` half rows.
    Each chunk runs one marginal pass over the rows of all its n, checks
    each n's mirrored marginal in order, and runs one MI pass over the rows
    of all its n; `quadrature.adaptive_simpson` makes each row's integral
    that of the row alone.  A pass runs about as many bisection levels for
    many rows as for one, and a level's numpy dispatch costs the same
    whatever its size, so the n of a chunk share it; the limit bounds the
    panel arrays, and so the memory, of a pass.  Every n is checked as a
    sample count before any pass runs; the first failed marginal check
    raises its ValueError."""
    chunks: list[list[int]] = [[]]
    rows = 0
    for n in map(_sample_counts, ns):
        if chunks[-1] and rows + n // 2 + 1 > _MI_ROWS:
            chunks.append([])
            rows = 0
        chunks[-1].append(n)
        rows += n // 2 + 1
    return [mi for chunk in chunks if chunk for mi in _bernoulli_mi_chunk(chunk)]


def _bernoulli_mi_chunk(ns: list[int]) -> list[float]:
    """The MI of each n of one chunk of `bernoulli_mutual_informations`, in
    order.  Row r integrates weight k[r] of sample count n[r]; the rows of
    each n are its weights 0..floor(n/2), from ``starts[i]`` on."""
    halves = [np.arange(n // 2 + 1) for n in ns]
    k = np.concatenate(halves)
    n_minus_k = np.concatenate([n - half for n, half in zip(ns, halves)])
    log_binom = np.concatenate([_log_binom(n, half) for n, half in zip(ns, halves)])
    starts = np.cumsum([0] + [half.size for half in halves]).tolist()
    # n's weight k -> the row of min(k, n-k)
    mirrors = [start + np.minimum(np.arange(n + 1), np.arange(n, -1, -1))
               for n, start in zip(ns, starts)]

    def likelihood(r, w):
        return np.exp(log_binom[r] + xlogy(k[r], w) + xlogy(n_minus_k[r], 1.0 - w))

    marginal = adaptive_simpson(likelihood, 0.0, 1.0, rows=k.size)
    for mirror in mirrors:
        total = float(marginal[mirror].sum())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"observation marginal sums to {total!r}")
    # libm's log, not np.log, whose vectorised loop may round the last bit
    # differently; the pinned values in the tests were made with libm
    log_px = np.array([math.log(px) for px in marginal.tolist()])

    def integrand(r, w):
        lik = likelihood(r, w)
        with np.errstate(divide="ignore"):
            log_lik = np.where(lik > 0, np.log(np.where(lik > 0, lik, 1.0)), 0.0)
        return np.where(lik > 0, lik * (log_lik - log_px[r]), 0.0)

    terms = adaptive_simpson(integrand, 0.0, 1.0, rows=k.size)
    values = []
    for mirror in mirrors:
        mi = 0.0
        for term in terms[mirror].tolist():
            mi += term  # left to right: sum() compensates from Python 3.12
        values.append(max(0.0, mi))
    return values


def bernoulli_upper_bound(n: int) -> float:
    """Sample-mean risk bound 1/sqrt(6n)."""
    n = _sample_counts(n)
    return 1.0 / math.sqrt(6.0 * n)


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
    eta times the clean one: the tests show it with the noisy chi-square
    information integrated by quadrature.  The CLI's sdpi column searches
    the same bound, at p = 2, through `bounds.optimize_bounds`; this
    function is its oracle.
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


def gaussian_sibson_first_order(model, alpha) -> FirstOrder:
    """Sibson's I_alpha = 0.5 * log(1 + alpha * n * sigma_W^2 / sigma^2),
    with the condition of the Sibson bound and its slope
    (`_order_condition`), D' = s/(2(1 + alpha s)) and D'' =
    -s^2/(2(1 + alpha s)^2) = -2 D'^2, all by libm per order; ``alpha`` is
    an array of orders (a scalar returns floats) and ``model`` one model,
    or one per order (`_each_model`).  At alpha = +inf, I_alpha = +inf and
    the condition and its slope are -inf, as in
    `gaussian_hellinger_first_order`: a falling condition with no root to
    refine toward.  A finite order whose alpha * s leaves the float range
    raises `ValueError`."""

    def at(a, s):
        if a < math.inf and a * s == math.inf:
            raise ValueError(f"order {a!r} is too large: alpha * n * sigma_W^2 / sigma^2 "
                             "exceeds the float range")
        value = 0.5 * math.log1p(a * s)
        if a == math.inf:
            return value, -math.inf, -math.inf
        d_prime = 0.5 * s / (1.0 + a * s)
        return (value, *_order_condition(a, d_prime, -2.0 * d_prime * d_prime))

    orders = _orders(alpha)
    return FirstOrder(*_libm(at, orders, _snrs(model, orders)))


def gaussian_hellinger_first_order(model, p) -> FirstOrder:
    """H_p = (M - 1)/(p - 1), M = sqrt((1+s)^p / d) with d = 1 + (2-p) p s
    and s the n-sample signal-to-noise ratio, and the condition of the
    Hellinger bound and its slope (`_order_condition`), all by libm per
    order: log M = (p log(1+s) - log d)/2, (log M)' = log(1+s)/2
    - (1-p) s/d and (log M)'' = s/d + 2 (1-p)^2 s^2/d^2, so
    D' = -log M/(p-1)^2 + (log M)'/(p-1) and D'' = 2 log M/(p-1)^3
    - 2 (log M)'/(p-1)^2 + (log M)''/(p-1).  M diverges where d is not
    positive (p = +inf included): there H_p = +inf and g and its slope are
    -inf, their limits.  ``p`` and ``model`` are as ``alpha`` and ``model``
    of `gaussian_sibson_first_order`."""

    def at(p, s):
        denom = 1.0 + (2.0 - p) * p * s
        if not denom > 0.0:
            return math.inf, -math.inf, -math.inf
        value = (math.sqrt((1.0 + s) ** p / denom) - 1.0) / (p - 1.0)
        log_m = 0.5 * (p * math.log1p(s) - math.log(denom))
        pull = (1.0 - p) * s / denom
        d_log_m = 0.5 * math.log1p(s) - pull
        dd_log_m = s / denom + 2.0 * pull * pull
        d_prime = -log_m / (p - 1.0) ** 2 + d_log_m / (p - 1.0)
        d_second = (2.0 * (log_m / (p - 1.0) - d_log_m) / (p - 1.0) + dd_log_m) / (p - 1.0)
        return (value, *_order_condition(p, d_prime, d_second))

    orders = _orders(p)
    return FirstOrder(*_libm(at, orders, _snrs(model, orders)))


def _each_model(model, size: int) -> list:
    """The model of each of ``size`` points, in flat order: ``model``, one
    `GaussianModel`, stands for all of them, or is a sequence of one per
    point.  Each point's arithmetic then takes its own model's numbers, so
    every entry is ``==`` to the call with its model alone."""
    if isinstance(model, GaussianModel):
        return [model] * size
    each = list(model)
    if len(each) != size:
        raise ValueError(f"{len(each)} models for {size} points")
    return each


def _snrs(model, orders: np.ndarray) -> np.ndarray:
    """The n-sample signal-to-noise ratio at each order (`_each_model`)."""
    if isinstance(model, GaussianModel):
        return np.full(orders.shape, model.snr)
    return np.array([m.snr for m in _each_model(model, orders.size)]).reshape(orders.shape)


def gaussian_upper_bound(model: GaussianModel) -> float:
    """Sample-mean risk bound sqrt(sigma_W^2 / (1 + n*sigma_W^2/sigma^2))."""
    return math.sqrt(model.sigma_w_sq / (1.0 + model.snr))


def gaussian_hellinger_closed_form_bound(model: GaussianModel) -> float:
    """The p = 3/2 bound in fully simplified form.

    Equals (81*sqrt(2*pi)/2048) * sqrt(sigma_W^2/(1 + n*sigma_W^2/sigma^2));
    the exact p = 3/2 Hellinger bound dominates this relaxation.
    """
    return 81.0 * math.sqrt(2.0 * math.pi) / 2048.0 * gaussian_upper_bound(model)


def gaussian_e_gamma_zeta(model, gamma, zeta) -> FirstOrder:
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
    there).  ``gamma`` and ``zeta`` broadcast against each other, and
    ``model`` is one model or one per pair (`_each_model`); every entry is
    ``==`` to the call with that pair and model alone, and scalars return
    floats.
    """
    gammas, zetas, shape = _gamma_zeta_pairs(gamma, zeta)
    each = _each_model(model, gammas.size)
    # each distinct model's numbers, in order of first appearance
    forms = {id(m): m for m in each}
    forms = {key: _form_scales(m) for key, m in forms.items()}

    # one row per pair with gamma > 0; c uses libm's log, as a scalar call
    # always has.  The P rows come first, then the Q rows.
    live = np.flatnonzero(gammas != 0.0)
    g, z = gammas[live], zetas[live]
    scales = [forms[id(each[i])] for i in live.tolist()]
    c = np.array([s2 * math.log(sx2 / s2) - 2.0 * s2 * math.log(gi / zi)
                  for gi, zi, (s2, sx2, *_) in zip(g.tolist(), z.tolist(), scales)])
    upper = g < z
    _, _, a_p, b_p, a_q, b_q = np.array(scales).reshape(-1, 6).T
    p_mass, q_mass = _form_mass(
        np.tile(c, 2), np.concatenate([a_p, a_q]), np.concatenate([b_p, b_q]),
        np.tile(upper, 2)).reshape(2, -1)
    values = np.zeros(gammas.size)
    values[live] = np.maximum(0.0, np.where(upper, g * q_mass - z * p_mass,
                                            z * p_mass - g * q_mass))
    t = g / z
    cond = np.zeros(gammas.size)
    cond[live] = np.where(upper, t * (1.0 - q_mass) - p_mass, p_mass + t * q_mass - 1.0)
    return FirstOrder(_float_if_scalar(values.reshape(shape)),
                      _float_if_scalar(cond.reshape(shape)))


def _form_scales(model: GaussianModel) -> tuple:
    """s2 = sigma^2/n, sx2 = sigma_W^2 + s2, and the scales (a, b) of the
    quadratic form a y1^2 - b y2^2 under P, then those under Q, of
    ``model``'s `gaussian_e_gamma_zeta`."""
    if model.n < 1:
        raise ValueError("n must be at least 1")
    s2 = model.sigma_sq / model.n
    sx2 = model.sigma_w_sq + s2
    if not math.isfinite(sx2):
        raise ValueError("variances must be finite")
    sw, sx = math.sqrt(model.sigma_w_sq), math.sqrt(sx2)
    return s2, sx2, sw * s2 / sx, sw * s2 / sx, sw * (sw + sx), sw * s2 / (sw + sx)


# Trapezoid nodes v = k/8 on [0, 41], tabulated by libm (no numpy ufunc to
# load).  y = 1 at v_c = asinh(sqrt(b/|c|)) <= log1p(2 sqrt(b/|c|)) <= 37.5
# for |c| >= _FORM_ZERO * b; from there + 3.5 on, y > 33 and the normal
# density is below 1e-236, so those nodes count as 0 and are not evaluated.
_FORM_V = np.arange(329) / 8.0
_FORM_COSH = np.array([math.cosh(v) for v in _FORM_V.tolist()])
_FORM_SINH = np.array([math.sinh(v) for v in _FORM_V.tolist()])
_FORM_WEIGHTS = np.where(_FORM_V == 0.0, 1.0, 2.0) / (8.0 * math.sqrt(2.0 * math.pi))
_FORM_ZERO = 1e-32
# the most rows of one pass of `_form_mass` (a longer call runs in passes of
# this many): about 5 kB of arrays per row, so a pass stays near 2.7 MB
_FORM_ROWS = 512


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
    A call of more than _FORM_ROWS rows runs in passes of that many.
    """
    if c.size > _FORM_ROWS:
        return np.concatenate([
            _form_mass(*(part[start:start + _FORM_ROWS] for part in (c, a, b, upper)))
            for start in range(0, c.size, _FORM_ROWS)])
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

    clamp = lambda x: min(1.0, max(0.0, x))
    return HideAndSeekBounds(clamp(ml), clamp(nips), clamp(mi), nips_valid)
