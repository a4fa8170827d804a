"""Lower bounds on Bayesian estimation risk via information measures.

The package computes Renyi/Sibson/Hellinger/hockey-stick dependence
measures, turns them into estimator-independent risk lower bounds with
optimized free parameters, refines them under noisy observations through
strong data-processing constants, and validates everything against
Monte-Carlo risk oracles in four worked estimation settings.
"""

from .distributions import (
    DiscreteDistribution,
    DiscreteJoint,
    DivergenceKind,
    DivergenceSpec,
    MarkovKernel,
)
from .measures import (
    chi_square,
    divergence_from_independence,
    e_gamma_zeta,
    hellinger_p,
    hockey_stick,
    kl_divergence,
    maximal_leakage_discrete,
    mutual_information,
    pair_divergence,
    renyi_divergence,
    sibson_mi_discrete,
)
from .bounds import (
    BoundResult,
    FirstOrder,
    SmallBallFn,
    bound,
    maximize_rho,
    optimize_bounds,
    sdpi_bound,
)
from .sdpi import (
    dobrushin_coefficient,
    eta_estimate_by_sampling,
    eta_operator_convex_bsc,
    renyi_sdpi_ratio,
)
from .models import (
    BernoulliUniformModel,
    GaussianModel,
    HideAndSeekModel,
    NoisyBernoulliModel,
)
from .oracle import RiskEstimate, brute_force_divergence, mc_risk

__version__ = "0.1.0"
