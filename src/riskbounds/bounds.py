"""Risk lower bounds driven by divergence values and a linear small-ball
function.

Each bound is sup over the radius rho of an objective that rises and
then falls in rho, rho*(1 - b - penalty(L(rho))) with penalty(l) = A*l^t
for all but the MI baseline.  Under the linear L(rho) = min(c*rho, 1)
every sup has a closed form (`maximize_rho`, or the MI baseline's own),
one per method in `_METHODS`, and one radius path (`_radius`) applies
the rules they share.  `bound(method, divergence, L, **params)` is the
one entry point by method name; `sdpi_bound` and `optimize_bounds` take
a method by the same names.

`optimize_bounds` searches a bound's parameters for each of many models
(the n of a table, or one model): over a grid in one callback call, then
growing the grid at its top while the bound still rises there, then
refining the grid maximum at the root of the first-order condition the
callback may report with its values (`FirstOrder`), one point per step;
where there is no root to refine at, the grid maximum stands.  Each of
these calls is a round of the search, and the searches of all the models
run in lockstep, each round one callback call for all of them, so that
each model gets what its search alone would give.

Vacuous bounds (penalty >= 1 everywhere, or an infinite divergence) are
reported as value 0, which `BoundResult.vacuous` reads, instead of
raising; a NaN divergence or bound value raises `NanValue`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .errors import EtaOutOfRange, NanValue

__all__ = [
    "SmallBallFn",
    "BoundResult",
    "FirstOrder",
    "maximize_rho",
    "bound",
    "sdpi_bound",
    "optimize_bounds",
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
    path: str = ""  # how `optimize_bounds` searched: fixed, grid or root

    def __post_init__(self):
        if math.isnan(self.value):
            raise NanValue(f"{self.method} bound value is NaN")
        if self.value < 0:
            raise ValueError("bound values are clamped at 0, got negative")

    @property
    def vacuous(self) -> bool:
        """No radius gives a positive value: the bound is the trivial 0."""
        return self.value == 0.0


class FirstOrder(NamedTuple):
    """Divergence values with the first-order condition of their bound, as
    an `optimize_bounds` callback may return them.

    ``value`` is the divergence at each point.  ``condition`` is a g with
    the sign of the bound's derivative in x = log of the method's searched
    parameter (`_CONDITIONS`): the bound rises in x where g > 0 and falls
    where g < 0 (-inf where it falls without limit).  ``slope`` is dg/dx
    at each point, or None where it is not derived.  For ``egz`` under a
    linear L the bound is f(t) = (1 - H(t))^2 / (4 t c) with
    t = gamma/zeta, H(t) = P(R_t) - t Q(R_t) and R_t = {dP/dQ >= t}; as
    H'(t) = -Q(R_t), f'(t) = (1 - H) g(t) / (4 c t^2) with
    g(t) = P(R_t) + t Q(R_t) - 1.  For ``sibson`` and ``hellinger`` g is
    d log f / d log theta of the order theta (`models._order_condition`,
    which gives its slope too).
    """

    value: Any
    condition: Any
    slope: Any = None


def maximize_rho(c: float, t: float, b: float = 0.0) -> tuple[float, float]:
    """Closed-form maximizer of rho*(1 - c*rho^t - b) for c >= 0, t > 0
    and b in [0, 1).

    Returns ``(rho_star, value)``; when c == 0 the objective is unbounded
    and the ``(inf, inf)`` sentinel is returned, and a non-finite c (an
    infinite or NaN penalty) gives ``(0, 0)``.
    """
    if c < 0:
        raise ValueError("c must be non-negative")
    if t <= 0:
        raise ValueError("t must be positive")
    if not 0.0 <= b < 1.0:
        raise ValueError("b must lie in [0, 1)")
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


# Each method's closed form, (divergence, c, **params) -> (rho*, value)
# for a finite non-negative divergence under the slope c; each checks its
# parameters before anything else.  Every bound but the MI baseline is
# sup over rho of rho*(1 - b - penalty(L(rho))), penalty(l) = A*l^t, that
# is `maximize_rho` with c = penalty(slope).

def _sibson(i_alpha: float, c: float, alpha: float) -> tuple[float, float]:
    """sup over rho of rho*(1 - (exp(I_alpha)*L(rho))^((alpha-1)/alpha))."""
    if not alpha > 1.0:
        raise ValueError("Sibson bound requires alpha > 1")
    t = (alpha - 1.0) / alpha
    return maximize_rho((math.exp(i_alpha) * c) ** t, t)


def _ml(ml: float, c: float) -> tuple[float, float]:
    """Maximal-leakage bound: the exponent is exp(ML) * L(rho), linear in L."""
    return maximize_rho(math.exp(ml) * c, 1.0)


def _hellinger(h_p: float, c: float, p: float) -> tuple[float, float]:
    """sup over rho of rho*(1 - L(rho)^((p-1)/p) * ((p-1)*H_p + 1)^(1/p))."""
    if not p > 1.0:
        raise ValueError("Hellinger order must exceed 1")
    t = (p - 1.0) / p
    moment = (p - 1.0) * h_p + 1.0
    return maximize_rho(c ** t * moment ** (1.0 / p), t)


def _egz(e_value: float, c: float, gamma: float, zeta: float) -> tuple[float, float]:
    """sup over rho of rho*(1 - (E + gamma*L(rho) + max(0, zeta-gamma))/zeta)."""
    if not (zeta > 0 and gamma >= 0):
        raise ValueError("requires zeta > 0 and gamma >= 0")
    b = (e_value + max(0.0, zeta - gamma)) / zeta
    if b >= 1.0:  # no radius has a positive value
        return 0.0, 0.0
    return maximize_rho(gamma * c / zeta, 1.0, b)


def _mi(i_value: float, c: float) -> tuple[float, float]:
    """Mutual-information baseline sup over rho of
    rho*(1 - (I + log 2)/log(1/L(rho))).

    For a linear L = min(c*rho, 1) with c > 0, write a = I + log 2 and
    u = log(1/(c*rho)); the objective is exp(-u)/c * (1 - a/u), whose
    derivative in u vanishes where u^2 - a*u - a = 0.  So
    u* = (a + sqrt(a^2 + 4a))/2, rho* = exp(-u*)/c, and the value is
    rho*(1 - a/u*) = rho* * a/u*^2 (as u* - a = a/u*), in one evaluation.
    At c = 0 the objective is rho itself, unbounded.
    """
    a = i_value + math.log(2.0)
    if c == 0.0:
        return math.inf, math.inf
    u = 0.5 * (a + math.sqrt(a * (a + 4.0)))
    rho = math.exp(-u) / c
    return rho, rho * a / (u * u)


_METHODS = {"sibson": _sibson, "hellinger": _hellinger, "egz": _egz,
            "ml": _ml, "mi": _mi}


def _closed_form(method: str):
    """The closed form of ``method`` in `_METHODS`; an unknown name raises
    ValueError."""
    if method not in _METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {tuple(_METHODS)}")
    return _METHODS[method]


def _radius(closed, divergence: float, c: float, params: dict) -> tuple[float, float]:
    """(rho*, value) of the closed form ``closed`` at ``divergence``.

    A bad parameter raises first, whatever the divergence.  Then a NaN
    divergence raises `NanValue` and a negative one ValueError; +inf, a
    value that is not positive, or a penalty beyond the largest double (a
    bound below ~1e-308), is the vacuous (0, 0).
    """
    if not 0.0 <= divergence < math.inf:
        closed(0.0, c, **params)  # the parameter checks alone
        _check_divergence(divergence)
        return 0.0, 0.0
    try:
        rho, value = closed(divergence, c, **params)
    except OverflowError:
        return 0.0, 0.0
    return (0.0, 0.0) if value <= 0.0 else (rho, value)


def bound(method: str, divergence: float, L: SmallBallFn, **params) -> BoundResult:
    """The risk lower bound of ``method`` (a `_METHODS` name: ``sibson``
    with ``alpha``, ``hellinger`` with ``p``, ``egz`` with ``gamma`` and
    ``zeta``, ``ml`` or ``mi``) at the divergence it consumes (I_alpha,
    H_p, E_{gamma,zeta}, maximal leakage or mutual information), under the
    small-ball function L.  An unknown method or a bad parameter raises
    ValueError, whatever the divergence; then a NaN divergence raises
    `NanValue` and a negative one ValueError, and +inf gives the vacuous
    bound (value 0)."""
    rho, value = _radius(_closed_form(method), divergence, L.coefficient, params)
    return BoundResult(value, rho, method, params)


def sdpi_bound(i_phi: float, eta: float, method: str, L: SmallBallFn,
               **params) -> BoundResult:
    """The `bound` of ``method`` (with its parameters) at the divergence
    contracted by a factor eta (at eta = 0 nothing passes: the contracted
    divergence is 0).  An unknown method raises ValueError."""
    if not 0.0 <= eta <= 1.0:
        raise EtaOutOfRange(f"eta={eta!r} outside [0, 1]")
    _check_divergence(i_phi)
    inner = bound(method, eta * i_phi if eta > 0.0 else 0.0, L, **params)
    return BoundResult(inner.value, inner.rho_star, "sdpi", dict(params, eta=eta))


# method -> the parameter in whose log a `FirstOrder` condition is taken;
# for egz, d log t = d log gamma at a fixed zeta
_CONDITIONS = {"egz": "gamma", "sibson": "alpha", "hellinger": "p"}
# the root search stops once its next step in x is at most _ROOT_TOL (the
# bound is flat at its maximum: a point that close to the root is within
# about _ROOT_TOL^2 relative of it), and after _ROOT_CAP points at most
_ROOT_TOL = 1e-8
_ROOT_CAP = 40
# a grid grows at most _GROWTHS times (the egz ladder to t = 2^64, the
# order ladder to 2.0e18): a count, as a tiny top spacing would never reach a
# ceiling
_GROWTHS = 4


# the most grid points that the searches of `optimize_bounds` run in
# lockstep hold in all: the models go in packs of as many as that allows
# (at least one), one pack after the other.  Each round of a pack then
# holds at most that many points, or one model's grid, as a growth adds
# at most a grid and a root step one point; this bounds the search state
# and the kernels' arrays, and so the memory, of a table of many n.
_CALL_POINTS = 1024


def optimize_bounds(callback, method: str, param_grid: dict, models,
                    small_balls) -> list:
    """Maximize a bound over a parameter grid, then refine the grid maximum
    at the root of its first-order condition, for each of several models,
    the searches advanced in lockstep.

    ``models[i]`` (a sequence) has the small-ball function
    ``small_balls[i]``.  ``callback(model, **params)`` gets the points'
    model and one float64 ndarray per parameter, all of one length
    (``mi`` and ``ml`` have no parameters and get none): ``model`` is the
    model itself where all the points of the call are one model's, else a
    list of the model of each point.  It returns the divergence the method
    consumes (I_alpha, H_p, E_{gamma,zeta}, maximal leakage, or mutual
    information) at each point, broadcastable to their number, +inf where
    it is infinite (a vacuous bound).  It may instead return a
    `FirstOrder` of those values and the bound's first-order condition,
    with or without its slope.  It must be pure, and the value at a point
    must not depend on the other points of the call.

    The search of each model has three steps.  The whole grid is one
    round, in sweep order.  Where the method has a condition
    (`_CONDITIONS`: ``egz`` in log gamma, ``sibson`` in log alpha,
    ``hellinger`` in log p), the callback returned a `FirstOrder`, and
    only that parameter has two or more grid values, all positive, the
    grid grows while its maximum is the top point and the condition there
    is > 0: as many points again, at the ratio of the top two, in one
    round, at most _GROWTHS times and within the float range.  Then the
    maximum is refined at the root of the condition (``path`` "root") when
    the condition falls through 0 exactly once over the grown grid, from +
    to - (a -inf end included, as where a divergence becomes infinite),
    between the maximum and a neighbour (`_falling_bracket`), in
    x = log(parameter) inside that bracket (`_root_search`), started from
    the grid's condition values and slopes, one round of one point per
    step: Newton steps where the callback gives the slope, secant steps
    where it does not.  A coarse grid therefore costs a few more steps,
    not a lower value.
    Otherwise the grid maximum stands: ``path`` "grid", or "fixed" for a
    grid of one point.  Every point evaluated is a candidate, so the
    result value dominates all of them, its params are the values the
    callback got, and ``evaluations`` counts them; only the winner becomes
    a `BoundResult`.  Ties keep the first-found parameter, and parameters
    are swept in sorted order (the last name varying fastest), so the
    output is deterministic.  Grid values must be finite.

    Each round puts the pending points of every search still running into
    one callback call, in model order, and hands each search its own slice
    of the output; the models run in packs of at most `_CALL_POINTS` grid
    points in all, one pack after the other.  So each search evaluates the
    same points, in the same order, with the same decisions as it would
    alone, and the calls of a pack number the rounds of its longest
    search.  Where a call of several models raises, each of them is called
    again alone, in order, so that an error goes to the models whose own
    call raises.

    Returns one entry per model: its `BoundResult`, or the exception that
    its search raised (from its callback, or a NaN divergence), each as
    the search of that model alone would end.  An unknown method, an empty
    grid or a non-finite grid value raises for all of them.
    """
    closed = _closed_form(method)

    names = sorted(param_grid)
    for name in names:
        if len(param_grid[name]) == 0:
            raise ValueError(f"empty grid for parameter {name!r}")
    grids = {name: np.sort(np.asarray(param_grid[name], dtype=float))
             for name in names}
    for name, grid in grids.items():
        if not np.isfinite(grid).all():
            raise ValueError(f"non-finite value in the grid of {name!r}")
    sweep = list(itertools.product(*(grids[name].tolist() for name in names)))

    size = max(1, _CALL_POINTS // len(sweep))
    results: list = []
    for start in range(0, len(models), size):
        results += _lockstep(callback, names, models[start:start + size],
                             [_search(closed, method, names, grids, sweep, L.coefficient)
                              for L in small_balls[start:start + size]])
    return results


def _lockstep(callback, names, models, searches) -> list:
    """Run the searches of ``models`` (`_search` generators) to their ends,
    each round one callback call of the points they wait for; returns the
    result or the exception of each."""
    results: list = [None] * len(searches)
    # model index -> the points its search waits for, in model order
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        for i, out in _call(callback, names, models, pending, list(pending)):
            if isinstance(out, Exception):
                results[i] = out
            else:
                try:
                    pending[i] = searches[i].send(out)
                    continue
                except StopIteration as stop:
                    results[i] = stop.value
                except Exception as exc:
                    results[i] = exc
            del pending[i]
    return results


def _call(callback, names, models, pending, call: list[int]) -> list:
    """The callback's output at the pending points of the models ``call``,
    from one callback call, as (model index, output) pairs in model order:
    the output a `FirstOrder` of lists (parts None where not given), or
    the exception that the model's call raised.  Where the call raises and
    holds several models, each model is called again alone."""
    if len(call) == 1:
        points, model = pending[call[0]], models[call[0]]
    else:
        points = [point for i in call for point in pending[i]]
        model = [models[i] for i in call for _ in pending[i]]
    try:
        out = callback(model, **{name: np.array([point[name] for point in points])
                                 for name in names})
        parts = [None if part is None else _floats(part, len(points))
                 for part in (out if isinstance(out, FirstOrder) else FirstOrder(out, None))]
    except Exception as exc:
        if len(call) == 1:
            return [(call[0], exc)]
        return [pair for i in call for pair in _call(callback, names, models, pending, [i])]
    if len(call) == 1:
        return [(call[0], FirstOrder(*parts))]
    pairs, start = [], 0
    for i in call:
        stop = start + len(pending[i])
        pairs.append((i, FirstOrder(*(None if part is None else part[start:stop]
                                      for part in parts))))
        start = stop
    return pairs


def _floats(part, size: int) -> list:
    """A part of a callback's output as a list of ``size`` floats, a scalar
    broadcast to all of them."""
    part = np.asarray(part, dtype=float)
    if part.shape != (size,):
        part = np.broadcast_to(part, (size,))
    return part.tolist()


def _search(closed, method: str, names: list, grids: dict, sweep: list, c: float):
    """The search of `optimize_bounds` for one model under the small-ball
    slope c, over the parameter tuples ``sweep`` (in sweep order) of the
    sorted values ``grids``, as a generator: it yields the points of each
    callback call, is sent the callback's output at them (a `FirstOrder`
    of lists, parts None where not given), and returns the `BoundResult`."""
    points, found, conditions, slopes = [], [], [], []
    top = 0  # the first point of the largest value so far

    def take(new, out):
        """Append the parameter points ``new`` of one callback call, the
        bound's (rho*, value) at each, and the condition and its slope
        there (None where the callback gave none), from its output ``out``,
        to the lists above, and move ``top`` to a larger value."""
        nonlocal top
        value, condition, slope = ([None] * len(new) if part is None else part
                                   for part in out)
        for point, v in zip(new, value):
            found.append(_radius(closed, v, c, point))
            if found[-1][1] > found[top][1]:
                top = len(found) - 1
        points.extend(new)
        conditions.extend(condition)
        slopes.extend(slope)

    new = [dict(zip(names, values)) for values in sweep]
    take(new, (yield new))
    searched = [name for name in names if grids[name].size >= 2]
    path = "grid" if searched else "fixed"
    name = _CONDITIONS.get(method)
    if searched == [name] and grids[name][0] > 0.0 and conditions[0] is not None:
        # one searched parameter: the points are its values, in order.  While
        # the bound still rises at the top point, the grid grows by as many
        # points again at its top spacing, at most _GROWTHS times.
        grid = grids[name].tolist()
        powers = np.arange(1.0, len(grid) + 1)
        while (len(grid) <= _GROWTHS * powers.size and top == len(grid) - 1
               and conditions[-1] > 0.0):
            with np.errstate(over="ignore"):  # an overflow ends the growth
                more = (grid[-1] * (grid[-1] / grid[-2]) ** powers).tolist()
            if not math.isfinite(more[-1]):
                break
            new = [dict(points[-1], **{name: v}) for v in more]
            take(new, (yield new))
            grid += more
        xs = np.log(grid).tolist()
        bracket = _falling_bracket(xs, conditions, top)
        if bracket is not None:
            path = "root"

            def at(x):
                new = [dict(points[-1], **{name: math.exp(x)})]
                take(new, (yield new))
                return conditions[-1], slopes[-1]

            yield from _root_search(at, xs, conditions[:len(xs)], slopes[:len(xs)],
                                    bracket)

    (rho, value), params = found[top], points[top]
    return BoundResult(value, rho, method, params, len(points), path)


def _falling_bracket(xs, gs, top):
    """The j with gs[j] > 0 >= gs[j + 1] when that is the only sign change
    of the conditions gs at the increasing points xs, and j or j + 1 is
    ``top``, the grid maximum; else None.  A -inf condition (a bound
    falling without limit, as past the pole of the Gaussian Hellinger
    moment) counts as falling, and may be the bracket's falling end; a NaN
    or +inf one leaves no bracket."""
    rises = [g > 0.0 for g in gs]
    changes = [j for j in range(len(gs) - 1) if rises[j] != rises[j + 1]]
    if (len(changes) != 1 or not rises[changes[0]] or top - changes[0] not in (0, 1)
            or not all(g < math.inf for g in gs)
            or not all(lo < hi for lo, hi in zip(xs, xs[1:]))):
        return None
    return changes[0]


def _root_search(at, xs, gs, slopes, j):
    """Step to the root of a condition g that falls through 0 between the
    grid points xs[j] and xs[j + 1] (g > 0 at the first, g <= 0 at the
    second, which may be -inf); ``at(x)`` evaluates the point x and returns
    (g, dg/dx), the slope None where the callback gives none; ``at`` is a
    generator, which `_search` steps through the callback.

    The first point comes from the grid: the inverse Hermite cubic of the
    bracket's ends and slopes, or without slopes the inverse polynomial
    through the bracket's ends and each finite outer neighbour on which g
    keeps falling (up to four grid points); where the falling end is -inf,
    the bracket's midpoint.  Each later point is a Newton step, or without
    a usable slope a secant step through the last two finite points.  A
    -inf point only shrinks the bracket: no step goes through it, and the
    midpoint follows.  A point outside the bracket (which every point
    shrinks) is replaced by the bracket's midpoint.  The search stops at a
    root, once the next step is at most _ROOT_TOL, or after _ROOT_CAP
    points.
    """
    a, ga, b, gb = xs[j], gs[j], xs[j + 1], gs[j + 1]
    if gb == 0.0:
        return
    if gb == -math.inf:
        x = 0.5 * (a + b)
    elif slopes[j] is not None:
        x = _inverse_hermite(a, ga, slopes[j], b, gb, slopes[j + 1])
    else:
        # the bracket and each finite outer neighbour on which g keeps falling
        lo = j - 1 if j > 0 and gs[j - 1] > ga else j
        hi = j + 2 if j + 2 < len(gs) and -math.inf < gs[j + 2] < gb else j + 1
        x = _inverse_polynomial(xs[lo:hi + 1], gs[lo:hi + 1])
    # the finite grid end nearer the first point precedes it in the secant
    prev, g_prev = (a, ga) if gb == -math.inf or abs(x - a) < abs(x - b) else (b, gb)
    for _ in range(_ROOT_CAP):
        if not a < x < b:
            x = 0.5 * (a + b)
        g, dg = yield from at(x)
        if g == 0.0:
            return
        if g > 0.0:
            a = x
        else:
            b = x
        if g == -math.inf:  # no step through it: the midpoint follows
            if b - a <= _ROOT_TOL:
                return
            continue
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
