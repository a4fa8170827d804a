"""Numerical helpers: adaptive Simpson integration and Brent maximization."""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "adaptive_simpson",
    "brent_max",
]

_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = float(np.finfo(float).eps)


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


def adaptive_simpson(f, a, b, *, rows=None, atol=1e-9, rtol=1e-8, max_depth=48):
    """Integrate ``f`` on [a, b] by adaptive Simpson bisection, starting
    from 16 even panels.

    With ``rows=None``, ``f`` maps an ndarray of abscissae to an ndarray of
    values and the integral is returned as a float.  With ``rows=R``, ``f``
    is a batch of R integrands: ``f(r, w)`` gives integrand ``r`` at ``w``
    elementwise, with the int row labels ``r`` an array of ``w``'s shape;
    every row is integrated in one panel array, and an ndarray of the R
    integrals is returned.  A one-row run is a batch of one.  Each row's
    integral is ``==`` to integrating that row alone: each level's
    converged panels are summed per row by one ``np.bincount`` over their
    row labels, which adds a row's panels left to right in the order a
    one-row run keeps them (a sequential sum, not numpy's pairwise one),
    and the level sums are added in level order.  ``f`` is called once
    for the starting panels and once per bisection level, on every point
    that level needs.

    Raises ValueError for a non-finite or empty [a, b], and
    QuadratureFailure at the first non-finite value of ``f`` (naming its
    abscissa and row), or when the depth budget is exhausted before the
    local error criterion is met on some row.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration interval [{a}, {b}] is not finite")
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    batch = 1 if rows is None else rows
    g = (lambda r, w: f(w)) if rows is None else f
    edges = np.linspace(a, b, 17)

    # row-major panels: each row's subsequence is the one-row panel order
    row = np.repeat(np.arange(batch), edges.size - 1)
    lo = np.tile(edges[:-1], batch)
    hi = np.tile(edges[1:], batch)
    mid = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = _values(g, row, [lo, mid, hi])
    coarse = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)

    width = b - a
    result = np.zeros(batch)
    depth = 0
    while True:
        if depth > max_depth:
            raise QuadratureFailure(
                f"adaptive Simpson: depth {max_depth} exhausted on "
                f"{lo.size} panel(s), e.g. [{lo[0]!r}, {hi[0]!r}] of row {row[0]}"
            )
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        f_lmid, f_rmid = _values(g, row, [lmid, rmid])
        h = hi - lo
        left = h / 12.0 * (f_lo + 4.0 * f_lmid + f_mid)
        right = h / 12.0 * (f_mid + 4.0 * f_rmid + f_hi)
        fine = left + right
        err = (fine - coarse) / 15.0
        tol = np.maximum(atol * (h / width), rtol * np.abs(fine))
        done = np.abs(err) <= tol

        result += np.bincount(row[done], weights=fine[done] + err[done],
                              minlength=batch)
        if done.all():
            break
        # split the unconverged panels in two: left halves, then right halves
        keep = ~done
        row = row[keep]
        row = np.concatenate([row, row])
        lo, mid_old, hi = lo[keep], mid[keep], hi[keep]
        f_lo, f_mid_old, f_hi = f_lo[keep], f_mid[keep], f_hi[keep]
        f_lmid, f_rmid = f_lmid[keep], f_rmid[keep]
        left, right = left[keep], right[keep]
        lmid, rmid = lmid[keep], rmid[keep]

        lo = np.concatenate([lo, mid_old])
        hi = np.concatenate([mid_old, hi])
        mid = np.concatenate([lmid, rmid])
        f_lo = np.concatenate([f_lo, f_mid_old])
        f_hi = np.concatenate([f_mid_old, f_hi])
        f_mid = np.concatenate([f_lmid, f_rmid])
        coarse = np.concatenate([left, right])
        depth += 1
    if rows is None:
        return float(result[0])
    return result


def _values(g, row, parts):
    """``g`` at each array of ``parts`` (each in the panel layout of
    ``row``), in one call at their concatenation; raises
    QuadratureFailure at the first non-finite value."""
    w = np.concatenate(parts)
    labels = np.concatenate([row] * len(parts))
    values = g(labels, w)
    if not np.isfinite(values).all():
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        raise QuadratureFailure(
            f"adaptive Simpson: integrand is {float(values[i])!r} at "
            f"{float(w[i])!r} of row {labels[i]}")
    k = parts[0].size
    return [values[i * k:(i + 1) * k] for i in range(len(parts))]

