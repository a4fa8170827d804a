"""Divergence values against hand computations and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds import measures
from riskbounds.distributions import (
    DiscreteJoint,
    DivergenceKind,
    DivergenceSpec,
    MarkovKernel,
)
from riskbounds.errors import AlphaAtMostOne, AlphaOne, NonPositiveAlpha
from riskbounds.models import bernoulli_joint, bernoulli_sibson_first_order


def random_joint(rng, nx=3, ny=3):
    return DiscreteJoint(rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny))


class TestRenyi:
    def test_identical_measures(self):
        assert measures.renyi_divergence([0.5, 0.5], [0.5, 0.5], 2.0) == 0.0

    def test_point_mass_vs_uniform(self):
        # (1/(a-1)) log(1 * 0.5^(1-a)) = log 2 for any a > 1
        for alpha in (2.0, 6.0, 11.5):
            assert math.isclose(
                measures.renyi_divergence([1.0, 0.0], [0.5, 0.5], alpha),
                math.log(2.0), rel_tol=1e-12)

    def test_biased_vs_uniform_alpha_six(self):
        # direct evaluation of the defining sum
        expected = math.log(2.0 ** 5 * (0.8 ** 6 + 0.2 ** 6)) / 5.0
        got = measures.renyi_divergence([0.8, 0.2], [0.5, 0.5], 6.0)
        assert math.isclose(got, expected, rel_tol=1e-13)

    def test_support_violation_is_infinite(self):
        assert measures.renyi_divergence([0.5, 0.5], [1.0, 0.0], 2.0) == math.inf

    def test_alpha_validation(self):
        with pytest.raises(NonPositiveAlpha):
            measures.renyi_divergence([1.0], [1.0], -1.0)
        with pytest.raises(AlphaOne):
            measures.renyi_divergence([1.0], [1.0], 1.0)


class TestPhiDivergences:
    def test_zero_at_equality(self):
        p = [0.3, 0.7]
        assert measures.kl_divergence(p, p) == 0.0
        assert measures.chi_square(p, p) == 0.0
        assert measures.hellinger_p(p, p, 1.5) == 0.0

    def test_chi_square_point_mass(self):
        # (2-1)^2 * 0.5 + (0-1)^2 * 0.5 = 1 by hand
        assert math.isclose(measures.chi_square([1.0, 0.0], [0.5, 0.5]), 1.0,
                            rel_tol=1e-14)

    def test_hellinger_two_equals_chi_square(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            assert math.isclose(measures.hellinger_p(p, q, 2.0),
                                measures.chi_square(p, q), abs_tol=1e-12)

    def test_support_violations(self):
        assert measures.kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf
        assert measures.chi_square([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_hellinger_order_validated(self):
        with pytest.raises(ValueError):
            measures.hellinger_p([1.0], [1.0], 1.0)


class TestSibson:
    def test_independent_joint_is_zero(self):
        j = DiscreteJoint.independent([0.3, 0.7], [0.6, 0.4])
        for alpha in (1.5, 2.0, 8.0):
            assert measures.sibson_mi_discrete(j, alpha) <= 1e-12

    def test_correlated_limit(self):
        j = DiscreteJoint(np.eye(2) / 2.0)
        assert math.isclose(measures.sibson_mi_discrete(j, 1e9), math.log(2.0),
                            rel_tol=1e-6)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            j = random_joint(rng)
            i2 = measures.sibson_mi_discrete(j, 2.0)
            i4 = measures.sibson_mi_discrete(j, 4.0)
            i_inf = measures.maximal_leakage_discrete(j)
            assert i2 <= i4 + 1e-12
            assert i4 <= i_inf + 1e-12

    def test_leakage_limit(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            j = random_joint(rng)
            assert math.isclose(measures.sibson_mi_discrete(j, 1e6),
                                measures.maximal_leakage_discrete(j),
                                abs_tol=1e-4)

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(AlphaAtMostOne):
            measures.sibson_mi_discrete(DiscreteJoint(np.eye(2) / 2), 1.0)


_P, _Q = [0.3, 0.7], [0.6, 0.4]
_JOINT = DiscreteJoint([[0.4, 0.1], [0.2, 0.3]])

# measure -> (its call with one parameter v, the error an invalid v raises)
PARAMETER_CHECKS = {
    "renyi": (lambda v: measures.renyi_divergence(_P, _Q, v), NonPositiveAlpha),
    "hellinger": (lambda v: measures.hellinger_p(_P, _Q, v), ValueError),
    "hockey-stick-gamma": (lambda v: measures.hockey_stick(_P, _Q, v), ValueError),
    "hockey-stick-zeta": (lambda v: measures.hockey_stick(_P, _Q, 1.0, v), ValueError),
    "e-gamma-zeta-gamma": (lambda v: measures.e_gamma_zeta(_JOINT, v, 1.0), ValueError),
    "e-gamma-zeta-zeta": (lambda v: measures.e_gamma_zeta(_JOINT, 1.0, v), ValueError),
    "sibson": (lambda v: measures.sibson_mi_discrete(_JOINT, v), AlphaAtMostOne),
    "sibson-mixed": (lambda v: measures._mixed_sibson_mi(bernoulli_joint(2), v),
                     AlphaAtMostOne),
}


@pytest.mark.parametrize("name", sorted(PARAMETER_CHECKS))
def test_nan_parameter_raises(name):
    # NaN and +inf fail every range check: neither may come back as the
    # max(0, nan) = 0 that inf*0 or inf-inf leave, which reads as
    # independence
    call, error = PARAMETER_CHECKS[name]
    for bad in (math.nan, math.inf):
        with pytest.raises(error):
            call(bad)


class TestMaximalLeakage:
    def test_independent(self):
        j = DiscreteJoint.independent([0.2, 0.8], [0.5, 0.5])
        assert measures.maximal_leakage_discrete(j) <= 1e-12

    def test_identity_channel(self):
        for k in (2, 3, 5):
            j = DiscreteJoint(np.eye(k) / k)
            assert math.isclose(measures.maximal_leakage_discrete(j),
                                math.log(k), rel_tol=1e-12)

    def test_bsc_uniform_input(self):
        j = DiscreteJoint.from_prior_and_kernel([0.5, 0.5], MarkovKernel.bsc(0.2))
        assert math.isclose(measures.maximal_leakage_discrete(j),
                            math.log(1.6), rel_tol=1e-12)

    def test_dominates_mutual_information(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            j = random_joint(rng)
            ml = measures.maximal_leakage_discrete(j)
            assert ml >= measures.mutual_information(j) - 1e-12
            assert ml <= math.log(min(j.matrix.shape)) + 1e-12


class TestHockeyStick:
    def test_independent_joint(self):
        j = DiscreteJoint.independent([0.25, 0.75], [0.4, 0.6])
        rng = np.random.default_rng(0)
        for _ in range(20):
            gamma = float(rng.uniform(0.0, 4.0))
            zeta = float(rng.uniform(0.1, 4.0))
            assert measures.e_gamma_zeta(j, gamma, zeta) <= 1e-12

    def test_unit_parameters_match_brute_sum(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            j = random_joint(rng)
            brute = float(np.sum(np.maximum(0.0, j.matrix - j.product)))
            assert math.isclose(measures.e_gamma_zeta(j, 1.0, 1.0), brute,
                                abs_tol=1e-14)

    def test_bernoulli_sufficient_statistic_vs_quadrature_oracle(self):
        # per-weight adaptive quadrature through an independent integrator
        from scipy import integrate
        from scipy.special import comb

        n, gamma, zeta = 5, 3.0, 1.5
        total = 0.0
        for k in range(n + 1):
            c = comb(n, k, exact=True)
            ratio = lambda w: (n + 1) * c * w ** k * (1 - w) ** (n - k)
            f = lambda w: max(0.0, zeta * ratio(w) - gamma) / (n + 1)
            val, err = integrate.quad(f, 0.0, 1.0, limit=400,
                                      epsabs=1e-12, epsrel=1e-12)
            total += val
        expected = total - max(0.0, zeta - gamma)
        got = measures.e_gamma_zeta(bernoulli_joint(n), gamma, zeta)
        assert math.isclose(got, expected, abs_tol=1e-9)

    def test_two_measure_form_validates(self):
        with pytest.raises(ValueError):
            measures.hockey_stick([1.0], [1.0], -1.0, 1.0)
        with pytest.raises(ValueError):
            measures.hockey_stick([1.0], [1.0], 1.0, 0.0)


class TestMutualInformation:
    def test_independent(self):
        j = DiscreteJoint.independent([0.3, 0.7], [0.1, 0.9])
        assert measures.mutual_information(j) <= 1e-12

    def test_correlated(self):
        j = DiscreteJoint(np.eye(2) / 2.0)
        assert math.isclose(measures.mutual_information(j), math.log(2.0),
                            rel_tol=1e-12)

    def test_sibson_limit_from_above(self):
        # order -> 1 recovers Shannon dependence for the one-flip model;
        # the gap shrinks linearly in (alpha - 1) and is inside 1e-3 by 1.001
        mi = measures.mutual_information(bernoulli_joint(1))
        gaps = []
        for alpha in (1.01, 1.001):
            gaps.append(abs(bernoulli_sibson_first_order(1, alpha).value - mi))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 1e-3


class TestDataProcessing:
    """Divergences never increase through a common kernel."""

    SPECS = [
        DivergenceSpec(DivergenceKind.KL),
        DivergenceSpec(DivergenceKind.CHI_SQUARE),
        DivergenceSpec(DivergenceKind.HELLINGER_P, p=1.6),
        DivergenceSpec(DivergenceKind.E_GAMMA_ZETA, gamma=1.3, zeta=0.8),
        DivergenceSpec(DivergenceKind.RENYI, alpha=3.0),
    ]

    @staticmethod
    def _pair_value(p, q, spec):
        kind = spec.kind
        if kind is DivergenceKind.KL:
            return measures.kl_divergence(p, q)
        if kind is DivergenceKind.CHI_SQUARE:
            return measures.chi_square(p, q)
        if kind is DivergenceKind.HELLINGER_P:
            return measures.hellinger_p(p, q, spec.p)
        if kind is DivergenceKind.E_GAMMA_ZETA:
            return measures.hockey_stick(p, q, spec.gamma, spec.zeta)
        return measures.renyi_divergence(p, q, spec.alpha)

    def test_contraction_on_random_triples(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            k = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            kernel = MarkovKernel(rng.dirichlet(np.ones(k), size=k))
            for spec in self.SPECS:
                before = self._pair_value(p, q, spec)
                after = self._pair_value(kernel.push(p), kernel.push(q), spec)
                if math.isinf(before):
                    continue
                assert after <= before + 1e-10

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(2, 5))
    def test_contraction_on_generated_triples(self, data, k):
        def simplex_point():
            v = np.array(data.draw(st.lists(st.floats(1e-3, 1.0),
                                            min_size=k, max_size=k)))
            return v / v.sum()

        p, q = simplex_point(), simplex_point()
        kernel = MarkovKernel([simplex_point() for _ in range(k)])
        for spec in self.SPECS:
            before = self._pair_value(p, q, spec)
            if math.isinf(before):
                continue
            after = self._pair_value(kernel.push(p), kernel.push(q), spec)
            assert after <= before + 1e-10, spec.kind


class TestProbabilityBounds:
    """Event-probability inequalities that underpin the risk bounds."""

    def test_renyi_event_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            j = random_joint(rng, 4, 4)
            ev = rng.random((4, 4)) < 0.4
            if not ev.any():
                continue
            alpha = float(rng.uniform(1.1, 6.0))
            p_joint = float(j.matrix[ev].sum())
            p_prod = float(j.product[ev].sum())
            d_alpha = measures.renyi_divergence(
                j.matrix.ravel(), j.product.ravel(), alpha)
            t = (alpha - 1.0) / alpha
            assert p_joint <= p_prod ** t * math.exp(t * d_alpha) + 1e-12

    def test_sibson_event_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            j = random_joint(rng, 4, 4)
            ev = rng.random((4, 4)) < 0.4
            if not ev.any():
                continue
            alpha = float(rng.uniform(1.1, 6.0))
            t = (alpha - 1.0) / alpha
            p_joint = float(j.matrix[ev].sum())
            px = j.x_marginal
            py = j.y_marginal
            sections = np.array([
                px[ev[:, y]].sum() if ev[:, y].any() else 0.0
                for y in range(4)
            ])
            ess_sup = float(sections[py > 0].max())
            i_alpha = measures.sibson_mi_discrete(j, alpha)
            assert p_joint <= ess_sup ** t * math.exp(t * i_alpha) + 1e-12

    def test_hellinger_renyi_mapping(self):
        # exp(((a-1)/a) D_a) == ((a-1) H_a + 1)^(1/a) between joint and product
        rng = np.random.default_rng(31)
        for _ in range(50):
            j = random_joint(rng)
            alpha = float(rng.uniform(1.2, 5.0))
            d = measures.renyi_divergence(j.matrix.ravel(), j.product.ravel(),
                                          alpha)
            h = measures.hellinger_p(j.matrix.ravel(), j.product.ravel(), alpha)
            lhs = math.exp((alpha - 1.0) / alpha * d)
            rhs = ((alpha - 1.0) * h + 1.0) ** (1.0 / alpha)
            assert math.isclose(lhs, rhs, rel_tol=1e-10)


class TestDispatcher:
    def test_discrete_dispatch_consistency(self):
        rng = np.random.default_rng(37)
        j = random_joint(rng)
        spec = DivergenceSpec(DivergenceKind.SIBSON_MI, alpha=2.0)
        assert measures.divergence_from_independence(j, spec) == \
            measures.sibson_mi_discrete(j, 2.0)

    def test_mixed_kl_equals_mutual_information(self):
        j = bernoulli_joint(2)
        kl = measures.divergence_from_independence(
            j, DivergenceSpec(DivergenceKind.KL))
        assert math.isclose(kl, measures.mutual_information(j), rel_tol=1e-9)

    def test_mixed_max_leakage_matches_closed_sum(self):
        from riskbounds.models import bernoulli_ml

        got = measures.divergence_from_independence(
            bernoulli_joint(4), DivergenceSpec(DivergenceKind.MAX_LEAKAGE))
        assert math.isclose(got, bernoulli_ml(4).exact, abs_tol=1e-8)

    def test_unknown_joint_type(self):
        with pytest.raises(TypeError):
            measures.divergence_from_independence(
                object(), DivergenceSpec(DivergenceKind.KL))
