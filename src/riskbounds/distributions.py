"""Domain types: discrete distributions, joints and kernels.

All objects validate their probabilistic invariants at construction time
(a NaN entry raises `NanValue`) and are immutable afterwards, so they are
safe to share across workers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NanValue

__all__ = [
    "MASS_TOL",
    "DiscreteDistribution",
    "DiscreteJoint",
    "MarkovKernel",
    "DivergenceKind",
    "DivergenceSpec",
]

MASS_TOL = 1e-12


def _as_weights(values) -> np.ndarray:
    w = np.asarray(values, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if np.isnan(w).any():  # NaN fails neither the sign nor the mass check
        raise NanValue("weights must not be NaN")
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
        w = _as_weights(weights).copy()  # frozen below: never the caller's array
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
        if np.isnan(m).any():
            raise NanValue("joint entries must not be NaN")
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
        if np.isnan(m).any():
            raise NanValue("kernel entries must not be NaN")
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
