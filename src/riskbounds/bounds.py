"""Risk lower bounds driven by divergence values and a linear small-ball
function.

Each bound is sup over the radius rho of an objective that rises and
then falls in rho, rho*(1 - b - penalty(L(rho))) with penalty(l) = A*l^t
for all but the MI baseline.  Under the linear L(rho) = min(c*rho, 1)
every sup has a closed form (`maximize_rho`, or the MI baseline's own),
and one radius path (`_radius`) serves them all.

`optimize_bound` searches a bound's parameters over a grid in one
callback call, then refines the grid maximum at the root of the
first-order condition the callback may report with its values
(`FirstOrder`), or else by Brent's method; each refinement step is one
callback call of length 1.

Vacuous bounds (penalty >= 1 everywhere, or an infinite divergence) are
reported as value 0 with the ``vacuous`` flag set instead of raising; a
NaN divergence or bound value raises `NanValue`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import EtaOutOfRange, InverseDomainError, NanValue
from .quadrature import brent_max

__all__ = [
    "SmallBallFn",
    "BoundResult",
    "FirstOrder",
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
    """The small-ball function L(rho) = min(c*rho, 1), an upper bound on
    the prior mass of every ball of radius rho, given by its slope
    ``coefficient`` c.  A NaN slope raises `NanValue`; a negative or
    infinite one raises ValueError.
    """

    coefficient: float

    def __post_init__(self):
        if math.isnan(self.coefficient):
            raise NanValue("small-ball slope is NaN")
        if not 0.0 <= self.coefficient < math.inf:
            raise ValueError("small-ball slope must be finite and non-negative")


@dataclass(frozen=True)
class BoundResult:
    """Value of a risk lower bound plus the choices that produced it."""

    value: float
    rho_star: float
    method: str
    params: dict = field(default_factory=dict)
    evaluations: int = 1
    vacuous: bool = False
    skipped: int = 0  # grid points a search ruled out without evaluating
    path: str = ""  # how `optimize_bound` searched: fixed, grid+brent or root

    def __post_init__(self):
        if math.isnan(self.value):
            raise NanValue(f"{self.method} bound value is NaN")
        if self.value < 0:
            raise ValueError("bound values are clamped at 0, got negative")


class FirstOrder(NamedTuple):
    """Divergence values with the first-order condition of their bound, as
    an `optimize_bound` callback may return them.

    ``value`` is the divergence at each point.  ``condition`` is a g with
    the sign of the bound's derivative in x = log of the method's searched
    parameter (`_CONDITIONS`): the bound rises in x where g > 0 and falls
    where g < 0.  ``slope`` is dg/dx at each point, or None where it is
    not derived.  For ``egz`` under a linear L the bound is
    f(t) = (1 - H(t))^2 / (4 t c) with t = gamma/zeta, H(t) = P(R_t)
    - t Q(R_t) and R_t = {dP/dQ >= t}; as H'(t) = -Q(R_t),
    f'(t) = (1 - H) g(t) / (4 c t^2) with g(t) = P(R_t) + t Q(R_t) - 1.
    """

    value: Any
    condition: Any
    slope: Any = None


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


def _check_divergence(value: float) -> None:
    """Reject NaN and negative divergence inputs; +inf passes (vacuous)."""
    if math.isnan(value):
        raise NanValue("divergence input is NaN")
    if value < 0:
        raise ValueError("divergence input must be non-negative")


def _radius(divergence: float, L: SmallBallFn, method: str, params: dict,
            closed) -> BoundResult:
    """sup over rho of a bound's objective, ``closed(slope)`` = (rho*, value).

    A NaN divergence raises `NanValue`; +inf, a value that is not
    positive, or a penalty beyond the largest double (a bound below
    ~1e-308), is vacuous.
    """
    _check_divergence(divergence)
    value = 0.0
    if divergence < math.inf:
        try:
            rho, value = closed(L.coefficient)
        except OverflowError:
            value = 0.0
    if value <= 0.0:
        return BoundResult(0.0, 0.0, method, params, 1, vacuous=True)
    return BoundResult(value, rho, method, params)


def _power_bound(divergence: float, t: float, b: float, penalty, L: SmallBallFn,
                 method: str, params: dict) -> BoundResult:
    """sup over rho of rho*(1 - b - penalty(L(rho))), penalty(l) = A*l^t:
    `maximize_rho` with c = penalty(slope).  A penalty that overflows is
    vacuous."""
    def closed(slope):
        if b >= 1.0:  # no radius has a positive value
            return 0.0, 0.0
        return maximize_rho(RhoObjective(c=penalty(slope), t=t, b=b))

    return _radius(divergence, L, method, params, closed)


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


def _hockey_stick_envelope(slope: float, gamma: float, zeta: float) -> float:
    """An upper bound on `hockey_stick_bound` at (gamma, zeta) for every
    divergence E >= 0 and the linear L of this slope.

    With t = gamma/zeta, 1 - b <= min(1, t), so the closed-form value
    (1 - b)^2 / (4 t slope) is at most min(t, 1/t) / (4 slope); the factor
    1 + 1e-9 covers the rounding of both sides.
    """
    if slope == 0.0:
        return math.inf
    t = gamma / zeta
    return (min(t, 1.0 / t) if t > 0.0 else 0.0) / (4.0 * slope) * (1.0 + 1e-9)


def mi_baseline_bound(i_value: float, L: SmallBallFn) -> BoundResult:
    """Mutual-information baseline sup over rho of
    rho*(1 - (I + log 2)/log(1/L(rho))).

    For a linear L = min(c*rho, 1) with c > 0, write a = I + log 2 and
    u = log(1/(c*rho)); the objective is exp(-u)/c * (1 - a/u), whose
    derivative in u vanishes where u^2 - a*u - a = 0.  So
    u* = (a + sqrt(a^2 + 4a))/2, rho* = exp(-u*)/c, and the value is
    rho*(1 - a/u*) = rho* * a/u*^2 (as u* - a = a/u*), in one evaluation.
    At c = 0 the objective is rho itself, unbounded.
    """
    numerator = i_value + math.log(2.0)

    def closed(slope):
        if slope == 0.0:
            return math.inf, math.inf
        u = 0.5 * (numerator + math.sqrt(numerator * (numerator + 4.0)))
        rho = math.exp(-u) / slope
        return rho, rho * numerator / (u * u)

    return _radius(i_value, L, "mi", {}, closed)


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
# method -> envelope(slope, **params): an upper bound on the method's
# bound for any divergence value, given the small-ball slope
_ENVELOPES = {"egz": _hockey_stick_envelope}


def sdpi_bound(i_phi: float, eta: float, phi: PhiSpec, L: SmallBallFn) -> BoundResult:
    """Generator bound with the divergence contracted by a factor eta
    (at eta = 0 nothing passes: the contracted divergence is 0).  Only the
    generator families with a closed-form radius (`_FAMILY_METHODS`) are
    accepted; any other family raises ValueError."""
    if not 0.0 <= eta <= 1.0:
        raise EtaOutOfRange(f"eta={eta!r} outside [0, 1]")
    _check_divergence(i_phi)
    scaled = eta * i_phi if eta > 0.0 else 0.0
    method = _FAMILY_METHODS.get(phi.family)
    if method is None:
        raise ValueError(f"generator family {phi.family!r} has no closed-form "
                         f"radius; expected one of {tuple(_FAMILY_METHODS)}")
    inner = _METHODS[method](scaled, L, **phi.params)
    return BoundResult(inner.value, inner.rho_star, "sdpi",
                       dict(inner.params, eta=eta), inner.evaluations,
                       inner.vacuous)


# method -> the parameter in whose log a `FirstOrder` condition is taken;
# for egz, d log t = d log gamma at a fixed zeta
_CONDITIONS = {"egz": "gamma"}
# the root search stops once its next step in x is at most _ROOT_TOL (the
# bound is flat at its maximum: a point that close to the root is within
# about _ROOT_TOL^2 relative of it), and after _ROOT_CAP points at most
_ROOT_TOL = 1e-8
_ROOT_CAP = 40


def optimize_bound(callback, method: str, param_grid: dict,
                   L: SmallBallFn, floor: float = 0.0) -> BoundResult:
    """Maximize a bound over a parameter grid, then refine the grid maximum
    at the root of its first-order condition or by Brent's method.

    ``callback(**params)`` gets one float64 ndarray per parameter, all of
    one length (``mi`` and ``ml`` have no parameters and get none), and
    returns the divergence the method consumes (I_alpha, H_p,
    E_{gamma,zeta}, maximal leakage, or mutual information) at each
    point, broadcastable to their number, +inf where it is infinite (a
    vacuous bound).  It may instead return a `FirstOrder` of those values
    and the bound's first-order condition.  It must be pure, and the value
    at a point must not depend on the other points of the call.  The grid
    is one call, in sweep order, and each refinement step is a call of
    length 1.

    ``floor`` is a value the caller needs beaten, such as the best bound
    already found by other methods.  For a method with an envelope (an upper
    bound on its bound whatever the divergence: ``egz``), the grid call then
    covers only the points whose envelope reaches the floor; the others are
    counted in ``skipped``.  Their bounds lie strictly below the floor, so
    once an evaluated point reaches it they cannot be the grid maximum, and
    the grid maximum and a Brent pass from it are the ones without a floor
    (the root path reads the condition on the evaluated points only).  If no
    evaluated point reaches the floor, the skipped points are evaluated in a
    second call, and nothing is skipped.

    The root path (``path`` "root") refines a method with a condition
    (`_CONDITIONS`: ``egz`` in log gamma) when the callback returned a
    `FirstOrder` on the grid, only that parameter has two or more grid
    values, all of them positive, and the condition changes sign exactly
    once over the evaluated grid, from + to -, between the grid maximum and
    a neighbour.  The root is then searched inside that bracket in
    x = log(parameter) (`_root_search`), started from the grid's own
    condition values, and each step costs one call.  In every other case (``path``
    "grid+brent") each parameter with two or more grid values gets one Brent
    pass (``tol=1e-6``) between the grid neighbours of the best point, the
    other parameters held at the best point's values; a grid of one point is
    ``path`` "fixed".  Every point evaluated, on the grid or by a refinement
    step, is a candidate, so the result value dominates all of them, and
    ``evaluations`` sums the evaluations of every bound computed.  Ties keep
    the first-found parameter, and parameters are swept in sorted order (the
    last name varying fastest), so the output is deterministic.  Grid values
    must be finite.
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
        """The bound at each parameter point (an infinite divergence gives
        the vacuous result), and the condition and its slope there: arrays,
        or None where the callback gave none."""
        out = callback(**{name: np.array([pt[name] for pt in points])
                          for name in names})
        first = out if isinstance(out, FirstOrder) else FirstOrder(out, None)

        def per_point(values):
            if values is None:
                return None
            return np.broadcast_to(np.asarray(values, dtype=float), (len(points),))

        results = [BoundResult(0.0, 0.0, method, dict(pt), 1, vacuous=True)
                   if value == math.inf else bound(value, L, **pt)
                   for pt, value in zip(points, per_point(first.value).tolist())]
        return results, per_point(first.condition), per_point(first.slope)

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
    envelope = _ENVELOPES.get(method)
    skip = []
    if envelope is not None:
        skip = [i for i, pt in enumerate(points)
                if envelope(L.coefficient, **pt) < floor]
    results, condition, slope = {}, {}, {}

    def evaluate_grid(chosen):
        found, cond, slopes = evaluate([points[i] for i in chosen])
        results.update(zip(chosen, found))
        if cond is not None:
            condition.update(zip(chosen, cond.tolist()))
        if slopes is not None:
            slope.update(zip(chosen, slopes.tolist()))

    kept = sorted(set(range(len(points))) - set(skip))
    if kept:
        evaluate_grid(kept)
    if skip and not any(result.value >= floor for result in results.values()):
        evaluate_grid(skip)
    for i in sorted(results):
        consider(results[i], dict(zip(names, indices[i])))
    searched = [name for name in names if grids[name].size >= 2]
    path = "grid+brent" if searched else "fixed"

    name = _CONDITIONS.get(method)
    order = sorted(results)  # the evaluated points, in grid order
    bracket = None
    if searched == [name] and grids[name][0] > 0.0 and len(condition) == len(results):
        xs = np.log(grids[name][order]).tolist()
        gs = [condition[i] for i in order]
        bracket = _falling_bracket(xs, gs, order.index(best_index[name]))
    if bracket is not None:
        path = "root"
        fixed = dict(best.params)

        def at(x):
            found, cond, slopes = evaluate([dict(fixed, **{name: math.exp(x)})])
            consider(found[0])
            return cond[0], None if slopes is None else slopes[0]

        slopes = [slope[i] for i in order] if len(slope) == len(results) else None
        _root_search(at, xs, gs, slopes, bracket)
    else:
        # one Brent pass per continuous parameter around the grid max
        for name in searched:
            g = grids[name]
            i = best_index.get(name, 0)
            lo = g[max(i - 1, 0)]
            hi = g[min(i + 1, g.size - 1)]
            if hi <= lo:
                continue
            fixed = dict(best.params)

            def h(x, name=name, fixed=fixed):
                found = evaluate([dict(fixed, **{name: float(x)})])[0][0]
                consider(found)
                return found.value

            brent_max(h, lo, hi, tol=1e-6)

    assert best is not None
    return BoundResult(best.value, best.rho_star, method, best.params,
                       evals, best.vacuous, len(points) - len(results), path)


def _falling_bracket(xs, gs, top):
    """The j with gs[j] > 0 >= gs[j + 1] when that is the only sign change
    of the finite conditions gs at the increasing points xs and j or j + 1
    is ``top``, the grid maximum; else None."""
    rises = [g > 0.0 for g in gs]
    changes = [j for j in range(len(gs) - 1) if rises[j] != rises[j + 1]]
    if (len(changes) != 1 or not rises[changes[0]] or top - changes[0] not in (0, 1)
            or not all(map(math.isfinite, gs))
            or not all(lo < hi for lo, hi in zip(xs, xs[1:]))):
        return None
    return changes[0]


def _root_search(at, xs, gs, slopes, j):
    """Step to the root of a condition g that falls through 0 between the
    grid points xs[j] and xs[j + 1] (g > 0 at the first, g <= 0 at the
    second); ``at(x)`` evaluates the point x and returns (g, dg/dx), the
    slope None where the callback gives none.

    The first point comes from the grid: the inverse Hermite cubic of the
    bracket's ends and slopes, or without slopes the inverse polynomial
    through the bracket's ends and each outer neighbour on which g keeps
    falling (up to four grid points).  Each later point is a Newton step,
    or without a usable slope a secant step through the last two points.
    A point outside the bracket (which every point shrinks) is replaced
    by the bracket's midpoint.  The search stops at a root, once the next
    step is at most _ROOT_TOL, or after _ROOT_CAP points.
    """
    a, ga, b, gb = xs[j], gs[j], xs[j + 1], gs[j + 1]
    if gb == 0.0:
        return
    if slopes is not None:
        x = _inverse_hermite(a, ga, slopes[j], b, gb, slopes[j + 1])
    else:
        # the bracket and each outer neighbour on which g keeps falling
        lo = j - 1 if j > 0 and gs[j - 1] > ga else j
        hi = j + 2 if j + 2 < len(gs) and gs[j + 2] < gb else j + 1
        x = _inverse_polynomial(xs[lo:hi + 1], gs[lo:hi + 1])
    # the grid end nearer the first point precedes it in the secant
    prev, g_prev = (a, ga) if abs(x - a) < abs(x - b) else (b, gb)
    for _ in range(_ROOT_CAP):
        if not a < x < b:
            x = 0.5 * (a + b)
        g, dg = at(x)
        if g == 0.0:
            return
        if g > 0.0:
            a = x
        else:
            b = x
        if dg is not None and math.isfinite(dg) and dg < 0.0:
            step = -g / dg
        elif g != g_prev:
            step = -g * (x - prev) / (g - g_prev)
        else:
            step = math.inf  # no secant: the midpoint follows
        if abs(step) <= _ROOT_TOL or b - a <= _ROOT_TOL:
            return
        prev, g_prev, x = x, g, x + step


def _inverse_hermite(a, ga, sa, b, gb, sb):
    """The x at g = 0 of the cubic x(g) through (ga, a) and (gb, b) with
    slopes dx/dg = 1/sa and 1/sb there (the bracket midpoint where a slope
    is not negative and finite)."""
    if not (math.isfinite(sa) and math.isfinite(sb) and sa < 0.0 and sb < 0.0):
        return 0.5 * (a + b)
    h = gb - ga
    u = -ga / h
    h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
    h10 = u * (1.0 - u) ** 2
    h01 = u * u * (3.0 - 2.0 * u)
    h11 = u * u * (u - 1.0)
    return h00 * a + h10 * h / sa + h01 * b + h11 * h / sb


def _inverse_polynomial(xs, gs):
    """The x at g = 0 of the polynomial x(g) through the points (gs, xs),
    by Neville's scheme."""
    p = list(xs)
    for level in range(1, len(gs)):
        for i in range(len(gs) - level):
            p[i] = (gs[i + level] * p[i] - gs[i] * p[i + 1]) / (gs[i + level] - gs[i])
    return p[0]
