"""Risk lower bounds driven by divergence values and small-ball functions.

Each bound evaluates sup over the radius rho of an expression
``rho * (1 - penalty(rho))`` where the penalty combines a dependence
measure with the small-ball probability.  Linear small-ball functions
admit closed-form maximizers (`maximize_rho`); everything else falls back
to a deterministic coarse-grid scan refined by golden section.

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

from .errors import DivergenceInfinite, EtaOutOfRange, InverseDomainError, NanValue
from .quadrature import golden_section_max

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

    ``form`` is 'linear' (L(rho) = min(c*rho, 1), closed forms apply),
    'exact' or 'numeric'.  Values are clamped to [0, 1]; ``rho_cap``
    optionally restricts the radius search (e.g. to 1 for 0-1 losses).
    """

    fn: Callable[[float], float]
    form: str = "numeric"
    coefficient: float | None = None
    rho_cap: float | None = None

    def __call__(self, rho: float) -> float:
        if rho <= 0.0:
            return 0.0
        return min(1.0, max(0.0, float(self.fn(rho))))

    @classmethod
    def linear(cls, c: float, rho_cap: float | None = None) -> "SmallBallFn":
        if c < 0:
            raise ValueError("small-ball slope must be non-negative")
        return cls(fn=lambda rho: c * rho, form="linear", coefficient=c,
                   rho_cap=rho_cap)


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
    cap = L.rho_cap if L.rho_cap is not None else math.inf
    if L.form == "linear":
        limit = math.inf if L.coefficient == 0 else 1.0 / L.coefficient
        return min(limit, cap)
    hi = 1.0
    while L(hi) < 1.0 and hi < cap and hi < 2.0 ** 40:
        hi *= 2.0
    hi = min(hi, cap)
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
    """Deterministic coarse scan plus golden refinement of g on (0, rho_max]."""
    if not math.isfinite(rho_max):
        rho_max = 2.0 ** 40
    grid = np.unique(np.concatenate([
        np.linspace(0.0, rho_max, 513)[1:],
        np.geomspace(rho_max * 1e-9, rho_max, 129),
    ]))
    values = np.array([g(r) for r in grid])
    best = int(np.argmax(values))
    evals = grid.size
    lo = grid[best - 1] if best > 0 else grid[0] * 0.5
    hi = grid[best + 1] if best + 1 < grid.size else rho_max
    rho, val, extra = golden_section_max(g, lo, hi, tol=1e-12 * rho_max)
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


def _closed_form_result(obj: RhoObjective, method: str, params: dict,
                        evals: int = 1) -> BoundResult:
    rho_star, value = maximize_rho(obj)
    if value <= 0.0:
        return BoundResult(0.0, 0.0, method, params, evals, vacuous=True)
    return BoundResult(value, rho_star, method, params, evals)


def sibson_bound(i_alpha: float, alpha: float, L: SmallBallFn) -> BoundResult:
    """sup over rho of rho*(1 - exp(((alpha-1)/alpha)*(I_alpha + log L(rho))))."""
    if alpha <= 1.0:
        raise ValueError("Sibson bound requires alpha > 1")
    _check_divergence(i_alpha)
    t = (alpha - 1.0) / alpha
    params = {"alpha": alpha}
    if L.form == "linear":
        c = (math.exp(i_alpha) * L.coefficient) ** t if math.isfinite(i_alpha) else math.inf
        return _closed_form_result(RhoObjective(c=c, t=t), "sibson", params)

    def g(rho):
        lval = L(rho)
        log_l = math.log(lval) if lval > 0 else -math.inf
        return rho * (1.0 - math.exp(t * (i_alpha + log_l)))

    return _sup_over_rho(g, _rho_search_limit(L), "sibson", params)


def ml_bound(ml: float, L: SmallBallFn) -> BoundResult:
    """Maximal-leakage bound: the exponent is exp(ML) * L(rho), linear in L."""
    _check_divergence(ml)
    if L.form == "linear":
        c = math.exp(ml) * L.coefficient if math.isfinite(ml) else math.inf
        return _closed_form_result(RhoObjective(c=c, t=1.0), "ml", {})

    def g(rho):
        lval = L(rho)
        return rho * (1.0 - math.exp(ml) * lval)

    return _sup_over_rho(g, _rho_search_limit(L), "ml", {})


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
    if p <= 1.0:
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
    if zeta <= 0 or gamma < 0:
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
    if rho <= 0:
        return 0.0
    if l_val <= 0.0:
        return rho  # limit of a vanishing small-ball term
    l_val = min(1.0, l_val)
    if not math.isfinite(i_phi):
        return 0.0
    arg = (i_phi + (1.0 - l_val) * phi.star0) / l_val
    if not math.isfinite(arg):
        return 0.0
    return max(0.0, rho * (1.0 - l_val * phi.inverse(arg)))


def phi_bound_decreasing(i_phi: float, phi: PhiSpec, l_val: float, rho: float) -> float:
    """Pointwise bound rho*(1-L)*phi^{-1}((I + L*phi*(0))/(1-L)) for
    non-increasing generators; returns 0 at L = 1."""
    if phi.direction != "decreasing":
        raise ValueError("generator is not non-increasing")
    if rho <= 0:
        return 0.0
    l_val = min(1.0, max(0.0, l_val))
    if l_val >= 1.0:
        return 0.0
    if not math.isfinite(i_phi):
        return 0.0
    arg = (i_phi + l_val * phi.star0) / (1.0 - l_val)
    if not math.isfinite(arg):
        return 0.0
    return max(0.0, rho * (1.0 - l_val) * phi.inverse(arg))


def hellinger_bound(h_p: float, p: float, L: SmallBallFn) -> BoundResult:
    """sup over rho of rho*(1 - L(rho)^((p-1)/p) * ((p-1)*H_p + 1)^(1/p))."""
    if p <= 1.0:
        raise ValueError("Hellinger order must exceed 1")
    _check_divergence(h_p)
    t = (p - 1.0) / p
    params = {"p": p}
    moment = (p - 1.0) * h_p + 1.0
    if L.form == "linear":
        c = L.coefficient ** t * moment ** (1.0 / p) if math.isfinite(moment) else math.inf
        return _closed_form_result(RhoObjective(c=c, t=t), "hellinger", params)

    def g(rho):
        return rho * (1.0 - L(rho) ** t * moment ** (1.0 / p))

    return _sup_over_rho(g, _rho_search_limit(L), "hellinger", params)


def hockey_stick_bound(e_value: float, gamma: float, zeta: float,
                       L: SmallBallFn) -> BoundResult:
    """sup over rho of rho*(1 - (E + gamma*L(rho) + max(0, zeta-gamma))/zeta)."""
    if zeta <= 0 or gamma < 0:
        raise ValueError("requires zeta > 0 and gamma >= 0")
    _check_divergence(e_value)
    params = {"gamma": gamma, "zeta": zeta}
    b = (e_value + max(0.0, zeta - gamma)) / zeta
    if b >= 1.0 or not math.isfinite(b):
        return BoundResult(0.0, 0.0, "egz", params, 1, vacuous=True)
    if L.form == "linear":
        if gamma == 0.0 or L.coefficient == 0.0:
            # objective degenerates to a line; supremum sits at the radius cap
            return _sup_over_rho(
                lambda rho: rho * (1.0 - b - gamma * L(rho) / zeta),
                _rho_search_limit(L), "egz", params)
        c = gamma * L.coefficient / zeta
        return _closed_form_result(RhoObjective(c=c, t=1.0, b=b), "egz", params)

    def g(rho):
        return rho * (1.0 - (e_value + gamma * L(rho) + max(0.0, zeta - gamma)) / zeta)

    return _sup_over_rho(g, _rho_search_limit(L), "egz", params)


def mi_baseline_bound(i_value: float, L: SmallBallFn) -> BoundResult:
    """Mutual-information baseline sup over rho of
    rho*(1 - (I + log 2)/log(1/L(rho))), maximized by golden section."""
    _check_divergence(i_value)
    numerator = i_value + math.log(2.0)

    def g(rho):
        lval = L(rho)
        if lval <= 0.0:
            return rho
        if lval >= 1.0:
            return -math.inf
        return rho * (1.0 - numerator / (-math.log(lval)))

    return _sup_over_rho(g, _rho_search_limit(L), "mi", {})


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

        return _sup_over_rho(g, _rho_search_limit(L), "sdpi",
                             {"eta": eta, "phi": phi.name})
    inner = _METHODS[method](scaled, L, **phi.params)
    return BoundResult(inner.value, inner.rho_star, "sdpi",
                       dict(inner.params, eta=eta), inner.evaluations,
                       inner.vacuous)


def optimize_bound(callback, method: str, param_grid: dict,
                   L: SmallBallFn, *, vectorized: bool = False) -> BoundResult:
    """Maximize a bound over a parameter grid, then refine by golden section.

    ``callback(**params)`` must return the divergence the method consumes
    (I_alpha, H_p, E_{gamma,zeta}, maximal leakage, or mutual information)
    and must be pure; it may raise DivergenceInfinite, which makes that
    point's bound vacuous.  With ``vectorized=True`` every parameter comes
    as an ndarray of the same length, and the callback returns the
    divergence at each of those points, with +inf where it is infinite:
    the grid is one call over the whole product grid, in sweep order, and
    each golden-section step is a call of length 1.  A plain callback is
    called once per point, as the loop that lifts it to that form.  The
    CLI vectorizes only the Gaussian E_{gamma,zeta} column, whose kernel
    integrates an array of gammas in one quadrature pass; the Bernoulli
    kernel stays scalar, as the benchmark's trace hook reads its gamma
    and zeta as floats.

    The grid maximum is never lost: the result value dominates every
    evaluated grid point.  Ties keep the first-found (lowest) parameter,
    and parameters are swept in sorted order (the last name varying
    fastest), so the output is deterministic.
    """
    if method not in _METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {tuple(_METHODS)}")
    bound = _METHODS[method]
    divergences = callback if vectorized else _lift(callback)

    names = sorted(param_grid)
    for name in names:
        if len(param_grid[name]) == 0:
            raise ValueError(f"empty grid for parameter {name!r}")
    grids = {name: np.sort(np.asarray(param_grid[name], dtype=float))
             for name in names}

    def evaluate(points):
        """The bound at each parameter point; an infinite divergence
        gives the vacuous result."""
        values = divergences(**{name: np.array([pt[name] for pt in points])
                                for name in names})
        return [BoundResult(0.0, 0.0, method, dict(pt), 1, vacuous=True)
                if value == math.inf else bound(value, L, **pt)
                for pt, value in zip(points, values)]

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

    # one golden-section pass per continuous parameter around the grid max
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
            return evaluate([dict(fixed, **{name: float(x)})])[0].value

        x, _, used = golden_section_max(h, lo, hi, tol=1e-6)
        evals += used
        refined = dict(best.params)
        refined[name] = float(x)
        consider(evaluate([refined])[0])

    assert best is not None
    return BoundResult(best.value, best.rho_star, method, best.params,
                       evals, best.vacuous)


def _lift(callback):
    """The array form of a plain callback: one call per point, with
    DivergenceInfinite read as +inf."""
    def divergences(**arrays):
        size = len(next(iter(arrays.values()))) if arrays else 1
        values = []
        for i in range(size):
            try:
                values.append(callback(**{name: float(column[i])
                                          for name, column in arrays.items()}))
            except DivergenceInfinite:
                values.append(math.inf)
        return values

    return divergences
