"""Numerical helpers: adaptive Simpson integration and golden-section search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "QuadraturePolicy",
    "adaptive_simpson",
    "golden_section_max",
]

_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo, hi, tol=1e-12):
    """Golden-section maximization of a unimodal scalar function.

    Returns ``(argmax, max, evaluations)``.
    """
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    evals = 2
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        evals += 1
    if f2 >= f1:
        return x2, f2, evals
    return x1, f1, evals


@dataclass(frozen=True)
class QuadraturePolicy:
    """Adaptive-Simpson settings carried by mixed joints."""

    atol: float = 1e-9
    rtol: float = 1e-8
    initial_panels: int = 16
    max_depth: int = 48


def adaptive_simpson(f, a, b, *, rows=None, atol=1e-9, rtol=1e-8, points=(),
                     initial_panels=16, max_depth=48):
    """Integrate ``f`` on [a, b] by adaptive Simpson bisection.

    With ``rows=None``, ``f`` maps an ndarray of abscissae to an ndarray of
    values and the integral is returned as a float.  With ``rows=R``, ``f``
    is a batch of R integrands: ``f(r, w)`` gives integrand ``r`` at ``w``
    elementwise, with the int row labels ``r`` broadcast against ``w``;
    every row is integrated in one panel array, and an ndarray of the R
    integrals is returned.  Each row's integral is ``==`` to integrating
    that row alone (with that row's ``points``): its converged panels are
    summed in the order a one-row run keeps them, and its depth sums are
    added in the same order.
    ``points`` are interior locations (kinks) where panels are split up
    front; locations outside (a, b) are ignored.  With ``rows=R`` they are
    either one sequence shared by every row or R sequences, one per row,
    so that each row starts from its own edges.  Raises QuadratureFailure
    when the depth budget is exhausted before the local error criterion is
    met on some row.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    batch = 1 if rows is None else rows
    g = (lambda r, w: f(w)) if rows is None else f
    per_row = rows is not None and len(points) > 0 and not np.isscalar(points[0])
    if per_row and len(points) != rows:
        raise ValueError(f"{len(points)} point sequences for {rows} rows")

    base = np.linspace(a, b, initial_panels + 1)
    edges = [_split_edges(base, a, b, p) for p in points] if per_row else \
        [_split_edges(base, a, b, points)] * batch

    # row-major panels: each row's subsequence is the one-row panel order.
    # One row keeps a single 0-d label that broadcasts and is never split;
    # indexing a per-row table with it gives a scalar, as cheap as a float.
    if batch > 1:
        row = np.repeat(np.arange(batch), [e.size - 1 for e in edges])
        lo = np.concatenate([e[:-1] for e in edges])
        hi = np.concatenate([e[1:] for e in edges])
    else:
        row = np.zeros((), int)
        lo, hi = edges[0][:-1], edges[0][1:]
    mid = 0.5 * (lo + hi)
    f_lo = g(row, lo)
    f_mid = g(row, mid)
    f_hi = g(row, hi)
    coarse = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)

    width = b - a
    result = [0.0] * batch
    depth = 0
    while lo.size:
        if depth > max_depth:
            raise QuadratureFailure(
                f"adaptive Simpson: depth {max_depth} exhausted on "
                f"{lo.size} panel(s), e.g. [{lo[0]!r}, {hi[0]!r}] of row {row.flat[0]}"
            )
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        f_lmid = g(row, lmid)
        f_rmid = g(row, rmid)
        h = hi - lo
        left = h / 12.0 * (f_lo + 4.0 * f_lmid + f_mid)
        right = h / 12.0 * (f_mid + 4.0 * f_rmid + f_hi)
        fine = left + right
        err = (fine - coarse) / 15.0
        tol = np.maximum(atol * (h / width), rtol * np.abs(fine))
        done = np.abs(err) <= tol

        keep = ~done
        if batch == 1:
            result[0] += float(np.add.reduce(fine[done] + err[done]))
        else:
            _add_row_sums(result, row[done], fine[done] + err[done])
            row = row[keep]
            row = np.concatenate([row, row])
        # split the unconverged panels in two: left halves, then right halves
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
        return result[0]
    return np.array(result)


def _split_edges(edges, a, b, points):
    """``edges`` with the ``points`` inside (a, b) added, sorted."""
    interior = [p for p in points if a < p < b]
    if not interior:
        return edges
    return np.unique(np.concatenate([edges, np.asarray(interior, float)]))


def _add_row_sums(result, row, values):
    """Add each row's sum of ``values`` to ``result[row]``.

    Each row's values are reduced by one ``np.add.reduce`` (the reduction
    ``np.sum`` runs) in their given order, so its pairwise summation is
    that of a one-row run, bit for bit.
    """
    if not row.size:
        return
    if (row == row[0]).all():
        result[row[0]] += float(np.add.reduce(values))
        return
    order = np.argsort(row, kind="stable")
    row = row[order]
    values = values[order]
    cuts = (np.flatnonzero(row[1:] != row[:-1]) + 1).tolist()
    for start, end in zip([0] + cuts, cuts + [row.size]):
        result[row[start]] += float(np.add.reduce(values[start:end]))
