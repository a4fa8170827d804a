"""Contraction coefficients: closed forms, the Renyi gap, and dominance."""

import math

import numpy as np
import pytest

from riskbounds import sdpi
from riskbounds.distributions import (
    DiscreteDistribution,
    DivergenceKind,
    DivergenceSpec,
    MarkovKernel,
)
from riskbounds.errors import LambdaOutOfRange, ZeroDenominator


class TestDobrushin:
    def test_identity_kernel(self):
        for k in (2, 4):
            assert sdpi.dobrushin_coefficient(MarkovKernel.identity(k)) == 1.0

    def test_constant_rows(self):
        k = MarkovKernel([[0.3, 0.7], [0.3, 0.7]])
        assert sdpi.dobrushin_coefficient(k) == 0.0

    def test_bsc(self):
        assert math.isclose(sdpi.dobrushin_coefficient(MarkovKernel.bsc(0.2)),
                            0.6, rel_tol=1e-12)
        assert math.isclose(sdpi.dobrushin_coefficient(MarkovKernel.bsc(0.45)),
                            0.1, rel_tol=1e-9)


class TestBscContraction:
    def test_endpoints(self):
        assert sdpi.eta_operator_convex_bsc(0.0) == 1.0
        assert sdpi.eta_operator_convex_bsc(0.5) == 0.0

    def test_quarter(self):
        assert math.isclose(sdpi.eta_operator_convex_bsc(0.25), 0.25,
                            rel_tol=1e-14)

    def test_out_of_range(self):
        with pytest.raises(LambdaOutOfRange):
            sdpi.eta_operator_convex_bsc(0.7)


class TestRenyiRatio:
    """A BSC contracts Renyi divergence slower than the Dobrushin constant."""

    def test_counterexample_value(self):
        k = MarkovKernel.bsc(0.2)
        ratio = sdpi.renyi_sdpi_ratio(k, DiscreteDistribution.uniform(2),
                                      DiscreteDistribution.delta(0, 2), 6.0)
        assert abs(ratio - 0.6138) < 5e-4
        assert ratio > sdpi.dobrushin_coefficient(k)

    def test_gap_grows_with_order(self):
        k = MarkovKernel.bsc(0.2)
        mu = DiscreteDistribution.uniform(2)
        nu = DiscreteDistribution.delta(0, 2)
        assert sdpi.renyi_sdpi_ratio(k, mu, nu, 10.0) > \
            sdpi.renyi_sdpi_ratio(k, mu, nu, 6.0)

    def test_plain_dpi_still_holds(self):
        rng = np.random.default_rng(13)
        k = MarkovKernel.bsc(0.3)
        for _ in range(50):
            nu = rng.dirichlet([1.0, 1.0])
            if np.allclose(nu, 0.5):
                continue
            ratio = sdpi.renyi_sdpi_ratio(k, [0.5, 0.5], nu, 2.0)
            assert ratio <= 1.0 + 1e-12

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            sdpi.renyi_sdpi_ratio(MarkovKernel.bsc(0.2),
                                  [0.5, 0.5], [0.5, 0.5], 2.0)


class TestDominance:
    SPECS = [
        DivergenceSpec(DivergenceKind.KL),
        DivergenceSpec(DivergenceKind.CHI_SQUARE),
        DivergenceSpec(DivergenceKind.HELLINGER_P, p=1.8),
        DivergenceSpec(DivergenceKind.E_GAMMA_ZETA, gamma=1.1, zeta=0.9),
    ]

    def test_ratios_below_dobrushin(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            k_size = int(rng.integers(2, 4))
            kernel = MarkovKernel(rng.dirichlet(np.ones(k_size), size=k_size))
            theta = sdpi.dobrushin_coefficient(kernel)
            for spec in self.SPECS:
                est = sdpi.eta_estimate_by_sampling(kernel, spec, n_pairs=10,
                                                    seed=trial)
                assert est <= theta + 1e-9

    def test_bsc_chi_square_estimate_reaches_closed_form(self):
        lam = 0.2
        kernel = MarkovKernel.bsc(lam)
        est = sdpi.eta_estimate_by_sampling(
            kernel, DivergenceSpec(DivergenceKind.CHI_SQUARE),
            n_pairs=200, seed=0)
        assert est >= sdpi.eta_operator_convex_bsc(lam) - 1e-3
