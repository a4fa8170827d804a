"""Domain types: discrete distributions, joints, mixed joints and kernels.

All objects validate their probabilistic invariants at construction time
and are immutable afterwards, so they are safe to share across workers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import adaptive_simpson

__all__ = [
    "MASS_TOL",
    "DiscreteDistribution",
    "DiscreteJoint",
    "MixedJoint",
    "MarkovKernel",
    "DivergenceKind",
    "DivergenceSpec",
]

MASS_TOL = 1e-12


def _as_weights(values) -> np.ndarray:
    w = np.asarray(values, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    return w


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability mass function over a finite set of opaque outcomes.

    Parameters
    ----------
    outcomes : sequence of hashable labels, all distinct.
    weights : non-negative reals summing to 1 within ``MASS_TOL``.
    """

    outcomes: tuple
    weights: np.ndarray

    def __init__(self, outcomes: Sequence, weights):
        w = _as_weights(weights)
        outcomes = tuple(outcomes)
        if len(outcomes) != w.size:
            raise ValueError("outcomes and weights must have equal length")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcomes must be distinct")
        if abs(float(w.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"weights sum to {float(w.sum())!r}, not 1")
        w.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.outcomes)

    @classmethod
    def uniform(cls, k: int) -> "DiscreteDistribution":
        return cls(range(k), np.full(k, 1.0 / k))

    @classmethod
    def delta(cls, index: int, k: int) -> "DiscreteDistribution":
        w = np.zeros(k)
        w[index] = 1.0
        return cls(range(k), w)


@dataclass(frozen=True)
class DiscreteJoint:
    """Joint pmf over a finite product space, indexed (x, y).

    Marginals are derived from the matrix; total mass and non-negativity
    are checked at construction.
    """

    matrix: np.ndarray

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("joint matrix must be two-dimensional")
        if np.any(m < 0):
            raise ValueError("joint entries must be non-negative")
        if abs(float(m.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"joint mass is {float(m.sum())!r}, not 1")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def x_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    @property
    def y_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    @property
    def product(self) -> np.ndarray:
        """Outer product of the marginals (the independence reference)."""
        return np.outer(self.x_marginal, self.y_marginal)

    @classmethod
    def from_prior_and_kernel(cls, prior, kernel) -> "DiscreteJoint":
        """Joint of (X, Y) when X ~ prior and Y | X=x ~ kernel row x."""
        p = prior.weights if isinstance(prior, DiscreteDistribution) else _as_weights(prior)
        k = kernel.matrix if isinstance(kernel, MarkovKernel) else np.asarray(kernel, float)
        return cls(p[:, None] * k)

    @classmethod
    def independent(cls, px, py) -> "DiscreteJoint":
        px = px.weights if isinstance(px, DiscreteDistribution) else _as_weights(px)
        py = py.weights if isinstance(py, DiscreteDistribution) else _as_weights(py)
        return cls(np.outer(px, py))


@dataclass(frozen=True)
class MarkovKernel:
    """Row-stochastic matrix K(y|x) describing a noise/privatization channel."""

    matrix: np.ndarray

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("kernel must be a matrix")
        if np.any(m < 0):
            raise ValueError("kernel entries must be non-negative")
        rows = m.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > MASS_TOL):
            raise ValueError("kernel rows must each sum to 1")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[0]

    def push(self, weights) -> np.ndarray:
        """Output distribution of the channel fed with ``weights``."""
        w = weights.weights if isinstance(weights, DiscreteDistribution) else _as_weights(weights)
        return w @ self.matrix

    @classmethod
    def bsc(cls, lam: float) -> "MarkovKernel":
        """Binary symmetric channel with crossover probability ``lam``."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError("crossover probability must lie in [0, 1]")
        return cls([[1.0 - lam, lam], [lam, 1.0 - lam]])

    @classmethod
    def identity(cls, k: int) -> "MarkovKernel":
        return cls(np.eye(k))


class DivergenceKind(enum.Enum):
    RENYI = "renyi"
    SIBSON_MI = "sibson-mi"
    MAX_LEAKAGE = "max-leakage"
    HELLINGER_P = "hellinger-p"
    CHI_SQUARE = "chi-square"
    KL = "kl"
    MUTUAL_INFORMATION = "mutual-information"
    E_GAMMA_ZETA = "e-gamma-zeta"


@dataclass(frozen=True)
class DivergenceSpec:
    """Tagged choice of information measure together with its parameters.

    ``alpha`` is required for Renyi/Sibson orders (> 0, and != 1 for
    Renyi; > 1 for Sibson), ``p`` (> 1) for the Hellinger family, and
    ``(gamma, zeta)`` with gamma >= 0, zeta > 0 for the generalized
    hockey-stick measure.  Parameters not used by ``kind`` must be left
    unset.
    """

    kind: DivergenceKind
    alpha: float | None = None
    p: float | None = None
    gamma: float | None = None
    zeta: float | None = None

    def __post_init__(self):
        k = self.kind
        needs = {
            DivergenceKind.RENYI: ("alpha",),
            DivergenceKind.SIBSON_MI: ("alpha",),
            DivergenceKind.HELLINGER_P: ("p",),
            DivergenceKind.E_GAMMA_ZETA: ("gamma", "zeta"),
        }.get(k, ())
        for name in ("alpha", "p", "gamma", "zeta"):
            value = getattr(self, name)
            if name in needs and value is None:
                raise ValueError(f"{k.value} requires parameter {name!r}")
            if name not in needs and value is not None:
                raise ValueError(f"{k.value} does not take parameter {name!r}")
            if value is not None and not math.isfinite(value):  # NaN or inf
                raise ValueError(f"{k.value} parameter {name!r} must be finite")
        if k is DivergenceKind.RENYI:
            if not self.alpha > 0:
                raise ValueError("alpha must be positive")
            if self.alpha == 1.0:
                raise ValueError("alpha=1 is the KL kind")
        if k is DivergenceKind.SIBSON_MI and not self.alpha > 1.0:
            raise ValueError("Sibson order must exceed 1")
        if k is DivergenceKind.HELLINGER_P and not self.p > 1.0:
            raise ValueError("Hellinger exponent must exceed 1")
        if k is DivergenceKind.E_GAMMA_ZETA:
            if not self.gamma >= 0:
                raise ValueError("gamma must be non-negative")
            if not self.zeta > 0:
                raise ValueError("zeta must be positive")


@dataclass(frozen=True)
class MixedJoint:
    """Joint law of a continuous parameter and a finite observation.

    Parameters
    ----------
    density : callable on arrays
        Prior density of the parameter on ``support``.
    support : (low, high)
        Compact interval carrying the prior.
    observations : sequence
        Labels of the finite observation alphabet.
    likelihood : callable, elementwise
        ``likelihood(k, w)`` is P(observation index k | parameter w), with
        ``k`` and ``w`` broadcast against each other like a ufunc's
        arguments; ``likelihood(k[:, None], w[None, :])`` with
        ``k = arange(n_obs)`` is the conditional pmf matrix, whose columns
        must each sum to 1.
    """

    density: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    observations: tuple
    likelihood: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        a, b = self.support
        if not b > a:
            raise ValueError("support must be a non-empty interval")
        mass = adaptive_simpson(self.density, a, b)
        if abs(mass - 1.0) > 1e-7:
            raise ValueError(f"prior density integrates to {mass!r}, not 1")
        nodes = np.linspace(a, b, 129)
        k = np.arange(len(self.observations))
        rows = np.asarray(self.likelihood(k[:, None], nodes[None, :]), dtype=float)
        if rows.shape != (k.size, nodes.size):
            raise ValueError("likelihood(k, w) must broadcast k against w")
        col_sums = rows.sum(axis=0)
        if np.any(np.abs(col_sums - 1.0) > 1e-9):
            worst = float(np.max(np.abs(col_sums - 1.0)))
            raise ValueError(f"likelihood columns deviate from 1 by {worst!r}")

    def integrate(self, f, rows=None):
        """Integral of ``f`` against Lebesgue measure on the support, by
        :func:`~riskbounds.quadrature.adaptive_simpson` at its default
        tolerances; ``rows`` batches integrands as there.
        """
        a, b = self.support
        return adaptive_simpson(f, a, b, rows=rows)

    def observation_marginal(self) -> np.ndarray:
        """Marginal pmf of the observation, computed by quadrature."""
        out = self.integrate(lambda k, w: self.density(w) * self.likelihood(k, w),
                             rows=len(self.observations))
        total = float(out.sum())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"observation marginal sums to {total!r}")
        return out

    def log_likelihood_row(self, index: int):
        """Vectorized log P(x_index | w) with -inf where the mass is 0."""
        def row(w):
            vals = np.asarray(self.likelihood(index, np.atleast_1d(w)))
            with np.errstate(divide="ignore"):
                return np.where(vals > 0, np.log(np.where(vals > 0, vals, 1.0)),
                                -math.inf)
        return row
