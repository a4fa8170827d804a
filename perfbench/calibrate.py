"""Machine-speed calibration: a fixed loop that shares no code with riskbounds.

The hosts this benchmark runs on change speed by up to 2x over seconds to
minutes (other tenants), for compiled and interpreted code alike, and
CPU time slows with wall time.  So each table set is bracketed by runs of
`loop`, and its time is reported scaled by NOMINAL_S / (mean of the two
bracketing loop times): seconds on a machine where the loop takes
NOMINAL_S.  The factor depends only on the machine's state, never on
riskbounds, so it scales a parent commit and a change alike; the raw
timings are kept next to the scaled ones.

The loop mixes what riskbounds spends its time on: small-array numpy and
scipy.special calls driven from a Python loop (the parameter grids and
quadrature) and one large betainc array (the Monte-Carlo oracle).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import betainc, gammaln, xlogy

NOMINAL_S = 0.2  # about the loop's time on a 2-core Xeon VM at 2.0 GHz

_K = np.arange(31.0)
_A, _B = _K + 1.0, 31.0 - _K
_BIG_A = np.tile(_A, 1024)
_BIG_B = np.tile(_B, 1024)
_BIG_X = np.linspace(0.0, 1.0, _BIG_A.size)


def loop() -> float:
    """Run the fixed calibration loop once; returns its wall seconds."""
    start = time.perf_counter()
    lo, hi = np.zeros(_K.size), np.ones(_K.size)
    for _ in range(8000):
        mid = 0.5 * (lo + hi)
        value = (gammaln(_A + _B) - gammaln(_A) - gammaln(_B)
                 + xlogy(_A - 1.0, mid) + xlogy(_B - 1.0, 1.0 - mid))
        below = (value + betainc(_A, _B, mid)) < 0.3
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    for _ in range(15):
        betainc(_BIG_A, _BIG_B, _BIG_X)
    return time.perf_counter() - start


def scaled(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` at the nominal machine speed, from the loops around it."""
    return seconds * NOMINAL_S / (0.5 * (loop_before + loop_after))
