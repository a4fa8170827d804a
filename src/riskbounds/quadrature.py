"""Numerical integration: adaptive Simpson bisection over row batches."""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

__all__ = ["adaptive_simpson"]


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

