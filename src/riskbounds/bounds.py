"""Risk lower bounds driven by divergence values and small-ball functions.

Each bound is sup over the radius rho of an objective that rises and
then falls in rho, rho*(1 - b - penalty(L(rho))) with penalty(l) = A*l^t
for all but the MI baseline.  One radius path (`_radius`) serves them
all: a linear L uses a closed-form maximizer (`maximize_rho`, or the MI
baseline's own); any other L goes to a deterministic scan refined by
Brent's method in log rho.

Vacuous bounds (penalty >= 1 everywhere, or an infinite divergence) are
reported as value 0 with the ``vacuous`` flag set instead of raising; a
NaN divergence or bound value raises `NanValue`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EtaOutOfRange, InverseDomainError, NanValue
from .quadrature import brent_max

__all__ = [
    "SmallBallFn",
    "BoundResult",
    "RhoObjective",
    "PhiSpec",
    "hellinger_phi",
    "hockey_stick_phi",
    "maximize_rho",
    "sibson_bound",
    "ml_bound",
    "phi_bound_increasing",
    "phi_bound_decreasing",
    "hellinger_bound",
    "hockey_stick_bound",
    "mi_baseline_bound",
    "sdpi_bound",
    "optimize_bound",
]


@dataclass(frozen=True)
class SmallBallFn:
    """Upper bound on the small-ball probability as a function of rho.

    A ``coefficient`` c marks the linear L(rho) = min(c*rho, 1), whose
    bounds have closed-form radii; any other L is searched numerically.
    Values are clamped to [0, 1], and a NaN value raises `NanValue`.
    """

    fn: Callable[[float], float]
    coefficient: float | None = None

    def __call__(self, rho: float) -> float:
        if rho <= 0.0:
            return 0.0
        value = float(self.fn(rho))
        if math.isnan(value):
            raise NanValue(f"small-ball value at rho={rho!r} is NaN")
        return min(1.0, max(0.0, value))

    @classmethod
    def linear(cls, c: float) -> "SmallBallFn":
        if math.isnan(c):
            raise NanValue("small-ball slope is NaN")
        if not 0.0 <= c < math.inf:
            raise ValueError("small-ball slope must be finite and non-negative")
        return cls(fn=lambda rho: c * rho, coefficient=c)


@dataclass(frozen=True)
class BoundResult:
    """Value of a risk lower bound plus the choices that produced it."""

    value: float
    rho_star: float
    method: str
    params: dict = field(default_factory=dict)
    evaluations: int = 1
    vacuous: bool = False

    def __post_init__(self):
        if math.isnan(self.value):
            raise NanValue(f"{self.method} bound value is NaN")
        if self.value < 0:
            raise ValueError("bound values are clamped at 0, got negative")


@dataclass(frozen=True)
class RhoObjective:
    """Parameters of the concave radius objective rho*(1 - c*rho^t - b)."""

    c: float
    t: float
    b: float = 0.0

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("c must be non-negative")
        if self.t <= 0:
            raise ValueError("t must be positive")
        if not 0.0 <= self.b < 1.0:
            raise ValueError("b must lie in [0, 1)")

    def __call__(self, rho):
        return rho * (1.0 - self.c * rho ** self.t - self.b)


def maximize_rho(obj: RhoObjective) -> tuple[float, float]:
    """Closed-form maximizer of rho*(1 - c*rho^t - b).

    Returns ``(rho_star, value)``; when c == 0 the objective is unbounded
    and the ``(inf, inf)`` sentinel is returned.
    """
    c, t, b = obj.c, obj.t, obj.b
    if c == 0.0:
        return math.inf, math.inf
    if not math.isfinite(c):
        return 0.0, 0.0
    log_one_minus_b = math.log1p(-b)
    log_rho = (log_one_minus_b - math.log((t + 1.0) * c)) / t
    rho_star = math.exp(log_rho)
    log_value = (
        math.log(t)
        - math.log(c) / t
        + (1.0 + 1.0 / t) * (log_one_minus_b - math.log(t + 1.0))
    )
    return rho_star, math.exp(log_value)


def _rho_search_limit(L: SmallBallFn) -> float:
    """Smallest rho with L(rho) = 1, bisected when L is not linear."""
    if L.coefficient is not None:
        return math.inf if L.coefficient == 0 else 1.0 / L.coefficient
    hi = 1.0
    while L(hi) < 1.0 and hi < 2.0 ** 40:
        hi *= 2.0
    if L(hi) < 1.0:
        return hi
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if L(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def _sup_over_rho(g, rho_max: float, method: str, params: dict) -> BoundResult:
    """Deterministic coarse scan plus Brent refinement of g on (0, rho_max]:
    512 even steps and one radius per decade from 1e-300 of rho_max (at
    least the smallest normal double), then Brent's method in log rho."""
    if not math.isfinite(rho_max):
        rho_max = 2.0 ** 40
    grid = np.unique(np.concatenate([
        np.linspace(0.0, rho_max, 513)[1:],
        np.geomspace(max(rho_max * 1e-300, np.finfo(float).tiny), rho_max, 301),
    ]))
    values = np.array([g(r) for r in grid])
    best = int(np.argmax(values))
    evals = grid.size
    lo = grid[best - 1] if best > 0 else grid[0] * 0.5
    hi = grid[best + 1] if best + 1 < grid.size else rho_max
    log_rho, val, extra = brent_max(lambda x: g(math.exp(x)), math.log(lo),
                                    math.log(hi), tol=1e-12)
    rho = math.exp(log_rho)
    evals += extra
    if values[best] > val:
        rho, val = float(grid[best]), float(values[best])
    if val <= 0.0:
        return BoundResult(0.0, 0.0, method, params, evals, vacuous=True)
    return BoundResult(float(val), float(rho), method, params, evals)


def _check_divergence(value: float) -> None:
    """Reject NaN and negative divergence inputs; +inf passes (vacuous)."""
    if math.isnan(value):
        raise NanValue("divergence input is NaN")
    if value < 0:
        raise ValueError("divergence input must be non-negative")


def _radius(g, divergence: float, L: SmallBallFn, method: str, params: dict,
            closed=None) -> BoundResult:
    """sup over rho of an objective g that rises and then falls in rho.

    A NaN divergence raises `NanValue`; +inf, or a penalty beyond the
    largest double (a bound below ~1e-308), is vacuous.  For a linear L,
    ``closed(slope)`` gives ``(rho*, value)``.  Any other L, or no
    ``closed``, is scanned.
    """
    _check_divergence(divergence)
    value = 0.0
    if divergence < math.inf:
        try:
            if closed is None or L.coefficient is None:
                return _sup_over_rho(g, _rho_search_limit(L), method, params)
            rho, value = closed(L.coefficient)
        except OverflowError:
            value = 0.0
    if value <= 0.0:
        return BoundResult(0.0, 0.0, method, params, 1, vacuous=True)
    return BoundResult(value, rho, method, params)


def _power_bound(divergence: float, t: float, b: float, penalty, L: SmallBallFn,
                 method: str, params: dict) -> BoundResult:
    """sup over rho of rho*(1 - b - penalty(L(rho))), penalty(l) = A*l^t;
    for a linear L, `maximize_rho` with c = penalty(slope).  A radius
    with L(rho) = 0 has no penalty, also where A overflowed to inf; at a
    radius with L(rho) > 0, a penalty that overflows counts as +inf."""
    def g(rho):
        l = L(rho)
        try:
            return rho * (1.0 - b - (penalty(l) if l > 0.0 else 0.0))
        except OverflowError:  # a penalty beyond the largest double
            return -math.inf

    def closed(slope):
        if b >= 1.0:  # no radius has a positive value
            return 0.0, 0.0
        return maximize_rho(RhoObjective(c=penalty(slope), t=t, b=b))

    return _radius(g, divergence, L, method, params, closed)


def sibson_bound(i_alpha: float, alpha: float, L: SmallBallFn) -> BoundResult:
    """sup over rho of rho*(1 - (exp(I_alpha)*L(rho))^((alpha-1)/alpha))."""
    if not alpha > 1.0:
        raise ValueError("Sibson bound requires alpha > 1")
    t = (alpha - 1.0) / alpha
    return _power_bound(i_alpha, t, 0.0, lambda l: (math.exp(i_alpha) * l) ** t,
                        L, "sibson", {"alpha": alpha})


def ml_bound(ml: float, L: SmallBallFn) -> BoundResult:
    """Maximal-leakage bound: the exponent is exp(ML) * L(rho), linear in L."""
    return _power_bound(ml, 1.0, 0.0, lambda l: math.exp(ml) * l, L, "ml", {})


@dataclass(frozen=True)
class PhiSpec:
    """Convex generator with the pieces the generic bound formulas need.

    ``inverse`` is the generalized inverse of ``phi`` on its range;
    ``star0`` is the convex conjugate at 0, i.e. ``-inf(phi)``.
    """

    name: str
    direction: str  # 'increasing' | 'decreasing'
    phi: Callable[[float], float]
    inverse: Callable[[float], float]
    star0: float
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.direction not in ("increasing", "decreasing"):
            raise ValueError("direction must be 'increasing' or 'decreasing'")


def hellinger_phi(p: float) -> PhiSpec:
    """Generator (t^p - 1)/(p - 1) of the order-p Hellinger divergence."""
    if not p > 1.0:
        raise ValueError("Hellinger order must exceed 1")

    def inverse(y):
        arg = (p - 1.0) * y + 1.0
        if arg < 0:
            raise InverseDomainError(f"{y!r} below the generator range")
        return arg ** (1.0 / p)

    return PhiSpec(
        name=f"hellinger[{p:g}]",
        direction="increasing",
        phi=lambda t: (t ** p - 1.0) / (p - 1.0),
        inverse=inverse,
        star0=1.0 / (p - 1.0),
        family="hellinger",
        params={"p": p},
    )


def hockey_stick_phi(gamma: float, zeta: float) -> PhiSpec:
    """Generator max(0, zeta*t - gamma) - max(0, zeta - gamma)."""
    if not (zeta > 0 and gamma >= 0):
        raise ValueError("requires zeta > 0 and gamma >= 0")
    offset = max(0.0, zeta - gamma)

    def inverse(y):
        if y < -offset:
            raise InverseDomainError(f"{y!r} below the generator range")
        return (y + offset + gamma) / zeta

    return PhiSpec(
        name=f"hockey-stick[{gamma:g},{zeta:g}]",
        direction="increasing",
        phi=lambda t: max(0.0, zeta * t - gamma) - offset,
        inverse=inverse,
        star0=offset,
        family="hockey-stick",
        params={"gamma": gamma, "zeta": zeta},
    )


def phi_bound_increasing(i_phi: float, phi: PhiSpec, l_val: float, rho: float) -> float:
    """Pointwise bound rho*(1 - L*phi^{-1}((I + (1-L)*phi*(0))/L)) for
    non-decreasing generators, clamped below at 0."""
    if phi.direction != "increasing":
        raise ValueError("generator is not non-decreasing")
    _check_divergence(i_phi)
    if rho <= 0:
        return 0.0
    if l_val <= 0.0:
        return rho  # limit of a vanishing small-ball term
    l_val = min(1.0, l_val)
    arg = (i_phi + (1.0 - l_val) * phi.star0) / l_val
    if not math.isfinite(arg):
        return 0.0
    return max(0.0, rho * (1.0 - l_val * phi.inverse(arg)))


def phi_bound_decreasing(i_phi: float, phi: PhiSpec, l_val: float, rho: float) -> float:
    """Pointwise bound rho*(1-L)*phi^{-1}((I + L*phi*(0))/(1-L)) for
    non-increasing generators; returns 0 at L = 1."""
    if phi.direction != "decreasing":
        raise ValueError("generator is not non-increasing")
    _check_divergence(i_phi)
    if rho <= 0:
        return 0.0
    l_val = min(1.0, max(0.0, l_val))
    if l_val >= 1.0:
        return 0.0
    arg = (i_phi + l_val * phi.star0) / (1.0 - l_val)
    if not math.isfinite(arg):
        return 0.0
    return max(0.0, rho * (1.0 - l_val) * phi.inverse(arg))


def hellinger_bound(h_p: float, p: float, L: SmallBallFn) -> BoundResult:
    """sup over rho of rho*(1 - L(rho)^((p-1)/p) * ((p-1)*H_p + 1)^(1/p))."""
    if not p > 1.0:
        raise ValueError("Hellinger order must exceed 1")
    t = (p - 1.0) / p
    moment = (p - 1.0) * h_p + 1.0
    return _power_bound(h_p, t, 0.0, lambda l: l ** t * moment ** (1.0 / p),
                        L, "hellinger", {"p": p})


def hockey_stick_bound(e_value: float, gamma: float, zeta: float,
                       L: SmallBallFn) -> BoundResult:
    """sup over rho of rho*(1 - (E + gamma*L(rho) + max(0, zeta-gamma))/zeta)."""
    if not (zeta > 0 and gamma >= 0):
        raise ValueError("requires zeta > 0 and gamma >= 0")
    b = (e_value + max(0.0, zeta - gamma)) / zeta
    return _power_bound(e_value, 1.0, b, lambda l: gamma * l / zeta, L, "egz",
                        {"gamma": gamma, "zeta": zeta})


def mi_baseline_bound(i_value: float, L: SmallBallFn) -> BoundResult:
    """Mutual-information baseline sup over rho of
    rho*(1 - (I + log 2)/log(1/L(rho))).

    For a linear L = min(c*rho, 1) with c > 0, write a = I + log 2 and
    u = log(1/(c*rho)); the objective is exp(-u)/c * (1 - a/u), whose
    derivative in u vanishes where u^2 - a*u - a = 0.  So
    u* = (a + sqrt(a^2 + 4a))/2, rho* = exp(-u*)/c, and the value is
    rho*(1 - a/u*) = rho* * a/u*^2 (as u* - a = a/u*), in one evaluation.
    At c = 0 the objective is rho itself, unbounded.  Any other L is
    searched numerically.
    """
    numerator = i_value + math.log(2.0)

    def g(rho):
        lval = L(rho)
        if lval <= 0.0:
            return rho
        if lval >= 1.0:
            return -math.inf
        return rho * (1.0 - numerator / (-math.log(lval)))

    def closed(slope):
        if slope == 0.0:
            return math.inf, math.inf
        u = 0.5 * (numerator + math.sqrt(numerator * (numerator + 4.0)))
        rho = math.exp(-u) / slope
        return rho, rho * numerator / (u * u)

    return _radius(g, i_value, L, "mi", {}, closed)


# method -> bound(divergence, L, **params); both optimize_bound and the
# closed-form families of sdpi_bound dispatch through this one table
_METHODS = {
    "sibson": lambda value, L, alpha: sibson_bound(value, alpha, L),
    "hellinger": lambda value, L, p: hellinger_bound(value, p, L),
    "egz": lambda value, L, gamma, zeta: hockey_stick_bound(value, gamma, zeta, L),
    "ml": lambda value, L: ml_bound(value, L),
    "mi": lambda value, L: mi_baseline_bound(value, L),
}
_FAMILY_METHODS = {"hellinger": "hellinger", "hockey-stick": "egz"}


def sdpi_bound(i_phi: float, eta: float, phi: PhiSpec, L: SmallBallFn) -> BoundResult:
    """Generator bound with the divergence contracted by a factor eta
    (at eta = 0 nothing passes: the contracted divergence is 0)."""
    if not 0.0 <= eta <= 1.0:
        raise EtaOutOfRange(f"eta={eta!r} outside [0, 1]")
    _check_divergence(i_phi)
    scaled = eta * i_phi if eta > 0.0 else 0.0
    method = _FAMILY_METHODS.get(phi.family)
    if method is None:
        point = (phi_bound_increasing if phi.direction == "increasing"
                 else phi_bound_decreasing)

        def g(rho):
            return point(scaled, phi, L(rho), rho)

        return _radius(g, scaled, L, "sdpi", {"eta": eta, "phi": phi.name})
    inner = _METHODS[method](scaled, L, **phi.params)
    return BoundResult(inner.value, inner.rho_star, "sdpi",
                       dict(inner.params, eta=eta), inner.evaluations,
                       inner.vacuous)


def optimize_bound(callback, method: str, param_grid: dict,
                   L: SmallBallFn) -> BoundResult:
    """Maximize a bound over a parameter grid, then refine by Brent's method.

    ``callback(**params)`` gets one float64 ndarray per parameter, all of
    one length (``mi`` and ``ml`` have no parameters and get none), and
    returns the divergence the method consumes (I_alpha, H_p,
    E_{gamma,zeta}, maximal leakage, or mutual information) at each
    point, broadcastable to their number, +inf where it is infinite (a
    vacuous bound).  It must be pure.  The grid is one call, in sweep
    order, and each Brent step is a call of length 1.

    After the grid, each parameter with two or more grid values gets one
    Brent pass (``tol=1e-6``) between the grid neighbours of the best
    point, the other parameters held at the best point's values.  Every
    point evaluated, on the grid or by Brent, is a candidate, so the
    result value dominates all of them, and ``evaluations`` sums the
    evaluations of every bound computed.  Ties keep the first-found
    parameter, and parameters are swept in sorted order (the last name
    varying fastest), so the output is deterministic.  Grid values must
    be finite.
    """
    if method not in _METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {tuple(_METHODS)}")
    bound = _METHODS[method]

    names = sorted(param_grid)
    for name in names:
        if len(param_grid[name]) == 0:
            raise ValueError(f"empty grid for parameter {name!r}")
    grids = {name: np.sort(np.asarray(param_grid[name], dtype=float))
             for name in names}
    for name, grid in grids.items():
        if not np.isfinite(grid).all():
            raise ValueError(f"non-finite value in the grid of {name!r}")

    def evaluate(points):
        """The bound at each parameter point; an infinite divergence
        gives the vacuous result."""
        values = callback(**{name: np.array([pt[name] for pt in points])
                             for name in names})
        values = np.broadcast_to(np.asarray(values, dtype=float), (len(points),))
        return [BoundResult(0.0, 0.0, method, dict(pt), 1, vacuous=True)
                if value == math.inf else bound(value, L, **pt)
                for pt, value in zip(points, values.tolist())]

    evals = 0
    best: BoundResult | None = None
    best_index: dict[str, int] = {}

    def consider(result, index=None):
        nonlocal best, best_index, evals
        evals += result.evaluations
        if best is None or result.value > best.value:
            best = result
            if index is not None:
                best_index = index

    indices = list(itertools.product(*(range(grids[name].size) for name in names)))
    points = [{name: float(grids[name][i]) for name, i in zip(names, index)}
              for index in indices]
    for index, result in zip(indices, evaluate(points)):
        consider(result, dict(zip(names, index)))

    # one Brent pass per continuous parameter around the grid max
    for name in names:
        g = grids[name]
        if g.size < 2:
            continue
        i = best_index.get(name, 0)
        lo = g[max(i - 1, 0)]
        hi = g[min(i + 1, g.size - 1)]
        if hi <= lo:
            continue
        fixed = dict(best.params)

        def h(x, name=name, fixed=fixed):
            result = evaluate([dict(fixed, **{name: float(x)})])[0]
            consider(result)
            return result.value

        brent_max(h, lo, hi, tol=1e-6)

    assert best is not None
    return BoundResult(best.value, best.rho_star, method, best.params,
                       evals, best.vacuous)

