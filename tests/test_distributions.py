"""Construction-time invariants of the domain types."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds.distributions import (
    DiscreteDistribution,
    DiscreteJoint,
    DivergenceKind,
    DivergenceSpec,
    MarkovKernel,
)
from riskbounds.errors import NanValue
from riskbounds.models import bernoulli_mutual_information


class TestDiscreteDistribution:
    def test_valid(self):
        d = DiscreteDistribution(["a", "b"], [0.25, 0.75])
        assert len(d) == 2
        assert not d.weights.flags.writeable

    def test_caller_array_is_copied_not_frozen(self):
        a = np.array([0.25, 0.75])
        d = DiscreteDistribution([0, 1], a)
        assert a.flags.writeable
        a[0] = 0.5
        assert d.weights.tolist() == [0.25, 0.75]

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([0, 1], [0.5, 0.5 + 1e-9])

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([0, 1], [1.5, -0.5])

    def test_duplicate_outcomes(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(["x", "x"], [0.5, 0.5])

    def test_helpers(self):
        assert np.allclose(DiscreteDistribution.uniform(4).weights, 0.25)
        assert DiscreteDistribution.delta(1, 3).weights[1] == 1.0


class TestDiscreteJoint:
    def test_marginals_consistent(self):
        j = DiscreteJoint([[0.1, 0.2], [0.3, 0.4]])
        assert np.allclose(j.x_marginal, [0.3, 0.7])
        assert np.allclose(j.y_marginal, [0.4, 0.6])
        assert np.allclose(j.product.sum(), 1.0)

    def test_mass_checked(self):
        with pytest.raises(ValueError):
            DiscreteJoint([[0.5, 0.2], [0.1, 0.1]])

    def test_from_prior_and_kernel(self):
        j = DiscreteJoint.from_prior_and_kernel([0.5, 0.5], MarkovKernel.bsc(0.2))
        assert np.allclose(j.matrix, [[0.4, 0.1], [0.1, 0.4]])


class TestMarkovKernel:
    def test_row_stochastic_enforced(self):
        with pytest.raises(ValueError):
            MarkovKernel([[0.9, 0.2], [0.5, 0.5]])

    def test_bsc_and_push(self):
        k = MarkovKernel.bsc(0.2)
        assert np.allclose(k.push([1.0, 0.0]), [0.8, 0.2])
        assert np.allclose(k.push(DiscreteDistribution.uniform(2)), [0.5, 0.5])

    def test_identity(self):
        assert np.allclose(MarkovKernel.identity(3).matrix, np.eye(3))


# type -> (its valid uniform entries for (rows, columns), its constructor)
UNIFORM_ENTRIES = {
    "distribution": (lambda r, c: np.full(c, 1.0 / c),
                     lambda w: DiscreteDistribution(range(w.size), w)),
    "joint": (lambda r, c: np.full((r, c), 1.0 / (r * c)), DiscreteJoint),
    "kernel": (lambda r, c: np.full((r, c), 1.0 / c), MarkovKernel),
}


@pytest.mark.parametrize("kind", sorted(UNIFORM_ENTRIES))
@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 4), columns=st.integers(1, 4), data=st.data())
def test_a_nan_cell_raises(kind, rows, columns, data):
    # NaN fails neither the sign nor the mass test: a joint with one NaN
    # cell read MI 0, which looks like independence
    entries, build = UNIFORM_ENTRIES[kind]
    w = entries(rows, columns)
    build(w.copy())
    w[tuple(data.draw(st.integers(0, side - 1)) for side in w.shape)] = math.nan
    with pytest.raises(NanValue):
        build(w)


class TestDivergenceSpec:
    def test_param_required(self):
        with pytest.raises(ValueError):
            DivergenceSpec(DivergenceKind.RENYI)

    def test_param_forbidden(self):
        with pytest.raises(ValueError):
            DivergenceSpec(DivergenceKind.KL, alpha=2.0)

    def test_renyi_excludes_one(self):
        with pytest.raises(ValueError):
            DivergenceSpec(DivergenceKind.RENYI, alpha=1.0)

    def test_hockey_stick_ranges(self):
        with pytest.raises(ValueError):
            DivergenceSpec(DivergenceKind.E_GAMMA_ZETA, gamma=-0.1, zeta=1.0)
        with pytest.raises(ValueError):
            DivergenceSpec(DivergenceKind.E_GAMMA_ZETA, gamma=1.0, zeta=0.0)
        DivergenceSpec(DivergenceKind.E_GAMMA_ZETA, gamma=0.0, zeta=2.0)


@pytest.mark.parametrize("kind, params", [
    (DivergenceKind.RENYI, {"alpha": math.nan}),
    (DivergenceKind.SIBSON_MI, {"alpha": math.nan}),
    (DivergenceKind.HELLINGER_P, {"p": math.nan}),
    (DivergenceKind.E_GAMMA_ZETA, {"gamma": math.nan, "zeta": 1.0}),
    (DivergenceKind.E_GAMMA_ZETA, {"gamma": 1.0, "zeta": math.nan}),
], ids=["renyi", "sibson", "hellinger", "gamma", "zeta"])
def test_divergence_spec_rejects_a_nan_parameter(kind, params):
    # an infinite parameter is rejected as NaN is
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            DivergenceSpec(kind, **{name: bad if math.isnan(value) else value
                                    for name, value in params.items()})


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: DiscreteDistribution([0, 1], [0.5, 0.5 + 1e-9]),
                 r"weights sum to 1\.0000000\d*, not 1", id="weights"),
    pytest.param(lambda: DiscreteJoint([[0.5, 0.2], [0.1, 0.1]]),
                 r"joint mass is 0\.\d+, not 1", id="joint"),
    # the quadrature marginal misses its sum-to-1 check first at n = 562
    pytest.param(lambda: bernoulli_mutual_information(562),
                 r"observation marginal sums to 0\.99999\d+", id="marginal"),
])
def test_mass_errors_name_a_plain_float(build, message):
    # numpy 2 would print a numpy scalar as np.float64(...)
    with pytest.raises(ValueError) as err:
        build()
    assert re.fullmatch(message, str(err.value)), str(err.value)
