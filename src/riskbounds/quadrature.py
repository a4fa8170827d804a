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


def adaptive_simpson(f, a, b, *, atol=1e-9, rtol=1e-8, points=(),
                     initial_panels=16, max_depth=48):
    """Integrate ``f`` on [a, b] by adaptive Simpson bisection.

    ``f`` must accept an ndarray of abscissae and return an ndarray of
    values.  ``points`` are interior locations (kinks) where panels are
    split up front.  Raises QuadratureFailure when the depth budget is
    exhausted before the local error criterion is met.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")

    edges = np.linspace(a, b, initial_panels + 1)
    interior = [p for p in points if a < p < b]
    if interior:
        edges = np.unique(np.concatenate([edges, np.asarray(interior, float)]))

    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    f_lo = f(lo)
    f_mid = f(mid)
    f_hi = f(hi)
    coarse = (hi - lo) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)

    width = b - a
    result = 0.0
    depth = 0
    while lo.size:
        if depth > max_depth:
            raise QuadratureFailure(
                f"adaptive Simpson: depth {max_depth} exhausted on "
                f"{lo.size} panel(s), e.g. [{lo[0]!r}, {hi[0]!r}]"
            )
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        f_lmid = f(lmid)
        f_rmid = f(rmid)
        h = hi - lo
        left = h / 12.0 * (f_lo + 4.0 * f_lmid + f_mid)
        right = h / 12.0 * (f_mid + 4.0 * f_rmid + f_hi)
        fine = left + right
        err = (fine - coarse) / 15.0
        tol = np.maximum(atol * (h / width), rtol * np.abs(fine))
        done = np.abs(err) <= tol

        result += float(np.sum(fine[done] + err[done]))
        keep = ~done
        # split the unconverged panels in two
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
    return result

