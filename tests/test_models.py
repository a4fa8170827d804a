"""Model closed forms against hand values and independent quadrature."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate
from scipy.special import betainc, comb, gammaln, logsumexp, ndtr, xlogy

from riskbounds import bounds, cli, models
from riskbounds.quadrature import adaptive_simpson

import quadrature_oracle


class TestModelValidation:
    def test_bernoulli(self):
        with pytest.raises(ValueError):
            models.BernoulliUniformModel(0)

    def test_noisy(self):
        with pytest.raises(ValueError):
            models.NoisyBernoulliModel(3, 0.7)

    def test_gaussian(self):
        with pytest.raises(ValueError):
            models.GaussianModel(1, 0.0, 1.0)

    def test_hide_and_seek(self):
        with pytest.raises(ValueError):
            models.HideAndSeekModel(d=1, m=1, b=1.0, theta=0.1, n=1)
        with pytest.raises(ValueError):
            models.HideAndSeekModel(d=8, m=1, b=1.0, theta=0.5, n=1)


# a sample count that is not a whole number: every model and every
# Bernoulli function refuses it by name, instead of a NaN, an IndexError or
# a number of no model
_non_integral = st.floats(allow_nan=True, allow_infinity=True).filter(
    lambda x: not x.is_integer())
_COUNT_CALLS = {
    "BernoulliUniformModel": lambda n: models.BernoulliUniformModel(n),
    "NoisyBernoulliModel": lambda n: models.NoisyBernoulliModel(n, 0.25),
    "GaussianModel": lambda n: models.GaussianModel(n, 1.0, 2.0),
    "HideAndSeekModel": lambda n: models.HideAndSeekModel(d=8, m=1, b=1.0, theta=0.1,
                                                          n=n),
    "bernoulli_ml": models.bernoulli_ml,
    "bernoulli_upper_bound": models.bernoulli_upper_bound,
    "bernoulli_mutual_information": models.bernoulli_mutual_information,
    "bernoulli_mutual_informations": lambda n: models.bernoulli_mutual_informations([3, n]),
    "bernoulli_sibson": lambda n: models.bernoulli_sibson_first_order(n, 2.0),
    "bernoulli_hellinger": lambda n: models.bernoulli_hellinger_first_order(n, 2.0),
    "bernoulli_e_gamma_zeta_batch": lambda n: models.bernoulli_e_gamma_zeta_batch(
        n, 3.0, 1.5),
}


@pytest.mark.parametrize("name", sorted(_COUNT_CALLS))
@settings(max_examples=20, deadline=None)
@given(n=_non_integral | _non_integral.map(np.float64))
@example(n=2.5)
def test_non_integral_sample_count_raises_naming_it(name, n):
    with pytest.raises(ValueError, match=f"n must be an integer, got {re.escape(str(n))}$"):
        _COUNT_CALLS[name](n)


@pytest.mark.parametrize("name", ["bernoulli_sibson", "bernoulli_hellinger",
                                  "bernoulli_e_gamma_zeta_batch"])
@settings(max_examples=20, deadline=None)
@given(counts=hnp.arrays(float, st.integers(1, 4),
                         elements=st.integers(1, 60).map(float) | _non_integral))
def test_sample_count_array_of_floats_raises_naming_its_first_entry(name, counts):
    # an n per point must be an integer array, whatever its values
    with pytest.raises(ValueError,
                       match=f"n must be an integer, got {re.escape(str(counts[0]))}$"):
        _COUNT_CALLS[name](counts)


@pytest.mark.parametrize("n", [3, np.int64(3), np.array(3)])
def test_integer_sample_counts_of_any_integer_type_run(n):
    assert models.bernoulli_ml(n) == models.bernoulli_ml(3)
    assert models.bernoulli_sibson_first_order(n, 2.0) == \
        models.bernoulli_sibson_first_order(3, 2.0)
    assert models.bernoulli_mutual_information(n) == models.bernoulli_mutual_information(3)


_NAN_CALLS = {
    "sibson_bound": lambda: bounds.bound("sibson", 0.1, bounds.SmallBallFn(2.0),
                                         alpha=math.nan),
    "hellinger_bound": lambda: bounds.bound("hellinger", 0.1, bounds.SmallBallFn(2.0),
                                            p=math.nan),
    "hockey_stick_bound": lambda: bounds.bound("egz", 0.1, bounds.SmallBallFn(2.0),
                                               gamma=math.nan, zeta=1.0),
    "bernoulli_e_gamma_zeta": lambda: models.bernoulli_e_gamma_zeta_batch(5, math.nan, 1.0),
    "bernoulli_e_gamma_zeta_batch[gamma]": lambda: models.bernoulli_e_gamma_zeta_batch(
        5, np.array([2.0, math.nan]), np.array([1.0, 1.0])),
    "bernoulli_e_gamma_zeta_batch[zeta]": lambda: models.bernoulli_e_gamma_zeta_batch(
        5, np.array([2.0, 2.0]), np.array([1.0, math.nan])),
    "bernoulli_e_gamma_zeta_batch[negative]": lambda: models.bernoulli_e_gamma_zeta_batch(
        5, np.array([2.0, -1.0]), np.array([1.0, 1.0])),
    "gaussian_e_gamma_zeta": lambda: models.gaussian_e_gamma_zeta(
        models.GaussianModel(5, 1.0, 2.0), math.nan, 1.0),
    "bernoulli_sibson": lambda: models.bernoulli_sibson_first_order(5, math.nan),
    "bernoulli_sibson[array]": lambda: models.bernoulli_sibson_first_order(
        5, np.array([2.0, math.nan])),
    "bernoulli_hellinger": lambda: models.bernoulli_hellinger_first_order(5, math.nan),
    "gaussian_sibson": lambda: models.gaussian_sibson_first_order(
        models.GaussianModel(5, 1.0, 2.0), math.nan),
    "gaussian_hellinger": lambda: models.gaussian_hellinger_first_order(
        models.GaussianModel(5, 1.0, 2.0), np.array([2.0, math.nan])),
    "GaussianModel": lambda: models.GaussianModel(5, math.nan, 1.0),
    "HideAndSeekModel": lambda: models.HideAndSeekModel(d=8, m=1, b=math.nan,
                                                        theta=0.1, n=1),
}


@pytest.mark.parametrize("name", sorted(_NAN_CALLS))
def test_nan_parameters_raise(name):
    # each range check is written so that NaN fails it, instead of turning
    # into a vacuous bound, a 0 or a NaN value
    with pytest.raises(ValueError):
        _NAN_CALLS[name]()


# the divergences I_alpha and H_p at the orders below, captured from
# scalar calls: Gaussian with sigma_W^2 = 1 and sigma^2 = 2, whose
# Hellinger moment at p = 4 is outside its finite region
# (1 + (2-p)*p*snr <= 0) for every n here
_PIN_ORDERS = (1.25, 1.5, 2.0, 4.0)
_KERNEL_PINS = {
    1: {"bernoulli_sibson": [0.22201503793441105, 0.2468600779315255,
                             0.2876820724517808, 0.3877169366018936],
        "bernoulli_hellinger": [0.2282919644541197, 0.26274169979695206,
                                0.33333333333333326, 0.7333333333333335],
        "gaussian_sibson": [0.24275390789085038, 0.27980789396771133,
                            0.34657359027997264, 0.5493061443340548],
        "gaussian_hellinger": [0.2524879184284252, 0.3117831336398056, 0.5,
                               math.inf]},
    10: {"bernoulli_sibson": [0.9189471615192231, 0.9700769435172805,
                              1.0463729148385914, 1.203790279457573],
         "bernoulli_hellinger": [1.037041594431341, 1.267878091827682,
                                 1.9728620193016568, 26.620565660072568],
         "gaussian_sibson": [0.9905007344332917, 1.0700330817481354,
                             1.1989476363991853, 1.5222612188617115],
         "gaussian_hellinger": [1.1397715720744976, 1.5180064278926428, 5.0,
                                math.inf]},
    50: {"bernoulli_sibson": [1.6401629551449728, 1.695765189028633,
                              1.7768891294411633, 1.9380740607939189],
         "bernoulli_hellinger": [2.0346883796469575, 2.712386039745885,
                                 5.344457009847843, 561.6937274123616],
         "gaussian_sibson": [1.7367590216208908, 1.8253291206468694,
                             1.9659128163621629, 2.30756025842063],
         "gaussian_hellinger": [2.199975116098704, 3.181750006983002, 25.0,
                                math.inf]},
}


@pytest.mark.parametrize("name", ["bernoulli_sibson", "bernoulli_hellinger",
                                  "gaussian_sibson", "gaussian_hellinger"])
@pytest.mark.parametrize("n", sorted(_KERNEL_PINS))
def test_kernels_keep_their_pinned_values(name, n):
    kernel = getattr(models, name + "_first_order")
    first = models.GaussianModel(n, 1.0, 2.0) if name.startswith("gaussian") else n
    expected = _KERNEL_PINS[n][name]
    scalars = [kernel(first, order).value for order in _PIN_ORDERS]
    assert all(type(value) is float for value in scalars)
    assert scalars == expected
    assert kernel(first, np.array(_PIN_ORDERS)).value.tolist() == expected


_INFINITE_CALLS = {
    "bernoulli_sibson": lambda: models.bernoulli_sibson_first_order(5, math.inf),
    "bernoulli_sibson[array]": lambda: models.bernoulli_sibson_first_order(
        5, np.array([2.0, math.inf])),
    "bernoulli_hellinger": lambda: models.bernoulli_hellinger_first_order(5, math.inf),
    "bernoulli_hellinger[array]": lambda: models.bernoulli_hellinger_first_order(
        5, np.array([2.0, math.inf])),
    "bernoulli_e_gamma_zeta[gamma]": lambda: models.bernoulli_e_gamma_zeta_batch(
        5, math.inf, 1.0),
    "bernoulli_e_gamma_zeta[zeta]": lambda: models.bernoulli_e_gamma_zeta_batch(
        5, 1.0, math.inf),
    "bernoulli_e_gamma_zeta_batch": lambda: models.bernoulli_e_gamma_zeta_batch(
        5, np.array([2.0, math.inf]), np.array([1.0, math.inf])),
    "gaussian_e_gamma_zeta[gamma]": lambda: models.gaussian_e_gamma_zeta(
        models.GaussianModel(5, 1.0, 2.0), math.inf, 1.0),
    "gaussian_e_gamma_zeta[zeta]": lambda: models.gaussian_e_gamma_zeta(
        models.GaussianModel(5, 1.0, 2.0), np.array([1.0, 2.0]), np.array([1.0, math.inf])),
    "gaussian_e_gamma_zeta[sigma_w_sq]": lambda: models.gaussian_e_gamma_zeta(
        models.GaussianModel(5, math.inf, 2.0), 2.0, 1.5),
    "gaussian_e_gamma_zeta[sigma_sq]": lambda: models.gaussian_e_gamma_zeta(
        models.GaussianModel(5, 1.0, math.inf), 2.0, 1.5),
    "GaussianModel[sigma_w_sq]": lambda: models.GaussianModel(5, math.inf, 2.0),
    "GaussianModel[sigma_sq]": lambda: models.GaussianModel(5, 1.0, math.inf),
    # finite variances whose n-sample SNR n sigma_W^2/sigma^2 overflows
    "GaussianModel[snr]": lambda: models.GaussianModel(1, 1.0, 1e-320),
    "GaussianModel[snr of n]": lambda: models.GaussianModel(2, 1e308, 1.0),
}


@pytest.mark.parametrize("name", sorted(_INFINITE_CALLS))
def test_infinite_parameters_raise(name):
    # no value exists there: the Gamma-ratio sums give NaN at an infinite
    # order, and log(gamma/zeta) or zeta - gamma fails at an infinite gamma
    # or zeta
    with pytest.raises(ValueError, match="finite"):
        _INFINITE_CALLS[name]()


_EGZ_KERNELS = {
    "bernoulli": lambda gamma, zeta: models.bernoulli_e_gamma_zeta_batch(2, gamma, zeta),
    "gaussian": lambda gamma, zeta: models.gaussian_e_gamma_zeta(
        models.GaussianModel(2, 1.0, 2.0), gamma, zeta),
}


@pytest.mark.parametrize("kernel", sorted(_EGZ_KERNELS))
@pytest.mark.parametrize("gamma, zeta", [(1e300, 1e-10), (1e-308, 1e308)],
                         ids=["overflow", "underflow"])
def test_gamma_zeta_ratio_outside_the_float_range_raises(kernel, gamma, zeta):
    # both kernels take log(gamma/zeta): a ratio that rounds to inf or to 0
    # is named, instead of turning into NaN, a silent 0 or a math domain error
    with pytest.raises(ValueError, match="gamma/zeta = .* the ratio must be"):
        _EGZ_KERNELS[kernel](gamma, zeta)
    with pytest.raises(ValueError, match="gamma/zeta"):  # one bad pair of a batch
        _EGZ_KERNELS[kernel](np.array([2.0, gamma]), np.array([1.0, zeta]))


@pytest.mark.parametrize("kernel", sorted(_EGZ_KERNELS))
@pytest.mark.parametrize("first, second, message", [
    ((1e300, 1e-10), (math.nan, 1.0), "gamma/zeta = 1e+300/1e-10 rounds to inf"),
    ((2.0, -1.0), (1e-308, 1e308), "requires finite zeta > 0 and gamma >= 0"),
    ((0.0, 0.0), (1e300, 1e-10), "requires finite zeta > 0 and gamma >= 0"),
    ((1e-308, 1e308), (-1.0, 1.0), "gamma/zeta = 1e-308/1e+308 rounds to 0"),
], ids=["ratio-then-nan", "range-then-ratio", "zero-zeta-then-ratio", "ratio-then-range"])
def test_first_bad_pair_of_a_long_array_names_the_failure(kernel, first, second,
                                                           message):
    # the pairs are checked as arrays, and the first bad pair in flat
    # order names its failure, as a check pair by pair would
    gamma, zeta = np.full((25, 40), 2.0), np.ones((25, 40))
    gamma[13, 7], zeta[13, 7] = first
    gamma[20, 31], zeta[20, 31] = second
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        _EGZ_KERNELS[kernel](gamma, zeta)


def test_gaussian_kernels_keep_their_infinite_order_limits():
    g = models.GaussianModel(5, 1.0, 2.0)
    for kernel in (models.gaussian_sibson_first_order,
                   models.gaussian_hellinger_first_order):
        assert kernel(g, math.inf).value == math.inf
        assert kernel(g, np.array([2.0, math.inf])).value[1] == math.inf
    # the Hellinger moment diverges there, and the condition takes its
    # limit; the Sibson condition is -inf there too, a fall with no root
    for kernel in (models.gaussian_sibson_first_order,
                   models.gaussian_hellinger_first_order):
        assert kernel(g, math.inf).condition == -math.inf
        assert kernel(g, np.array([2.0, math.inf])).condition[1] == -math.inf
        assert kernel(g, math.inf).slope == -math.inf


_variance = st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x)
_GAUSSIAN_KERNELS = {
    "sibson": (models.gaussian_sibson_first_order, ("alpha",)),
    "hellinger": (models.gaussian_hellinger_first_order, ("p",)),
    "egz": (models.gaussian_e_gamma_zeta, ("gamma", "zeta")),
}


@pytest.mark.parametrize("name", sorted(_GAUSSIAN_KERNELS))
@settings(max_examples=30, deadline=None)
@given(points=st.lists(st.tuples(st.integers(1, 1000), _variance, _variance,
                                 st.floats(-2.0, math.log10(63.0)),
                                 st.floats(-2.0, 4.0)),
                       min_size=1, max_size=24))
def test_gaussian_kernel_on_a_model_per_point_equals_its_one_model_calls(name, points):
    # a list of one model per point: each entry is == to the call with that
    # point's model and parameters alone
    kernel, params = _GAUSSIAN_KERNELS[name]
    point_models = [models.GaussianModel(n, w2, s2) for n, w2, s2, _, _ in points]
    if name == "egz":
        arrays = [np.array([1.5 * 10.0 ** t for *_, t in points]), np.full(len(points), 1.5)]
    else:
        arrays = [np.array([1.0 + 10.0 ** x for *_, x, _ in points])]
    whole = kernel(point_models, *arrays)
    for i, model in enumerate(point_models):
        alone = kernel(model, *(float(a[i]) for a in arrays))
        assert (whole.value[i], whole.condition[i]) == (alone.value, alone.condition)
    # one model stands for every point, and a list of it is the same call
    one = kernel(point_models[0], *arrays)
    listed = kernel([point_models[0]] * len(points), *arrays)
    assert (np.asarray(one.value).tolist(), one.condition.tolist()) == \
        (np.asarray(listed.value).tolist(), listed.condition.tolist())


@st.composite
def _ragged_ns(draw):
    """Sample counts in 1..300 in no order, with repeats, among them n = 1
    and an even n: the n of the points of one kernel call."""
    pool = draw(st.lists(st.integers(1, 300), min_size=1, max_size=4))
    even = 2 * draw(st.integers(1, 150))
    ns = draw(st.lists(st.sampled_from([*pool, 1, even]), max_size=10))
    return draw(st.permutations([*ns, 1, even]))


# orders from near 1 to past the first at which the Hellinger moment of
# n = 48 leaves the float range (p = 186), where H_p is +inf
_SPREAD_ORDERS = st.one_of(st.floats(1.01, 8.0), st.floats(150.0, 400.0))


@pytest.mark.parametrize("kernel", [models.bernoulli_sibson_first_order,
                                    models.bernoulli_hellinger_first_order])
@settings(max_examples=30, deadline=None)
@given(points=_ragged_ns().flatmap(lambda ns: st.tuples(
    st.just(ns), st.lists(_SPREAD_ORDERS, min_size=len(ns), max_size=len(ns)))))
@example(points=([48, 1, 300, 48, 2], [186.0, 1.01, 400.0, 1.01, 2.0]))
def test_bernoulli_kernel_on_an_n_per_order_equals_its_one_n_calls(kernel, points):
    # the flat passes over all the n of a call give each point the value
    # and condition of the call with that point's n and order alone
    ns, orders = points
    whole = kernel(ns, np.array(orders))
    for i, n in enumerate(ns):
        alone = kernel(n, orders[i])
        assert (whole.value[i], whole.condition[i]) == (alone.value, alone.condition)


@st.composite
def _egz_points(draw):
    """(n, gamma, zeta) points over `_ragged_ns`: ratios t = gamma/zeta from
    1e-3 to 10^3.5, gamma = 0, and t = n+1 at n in {1, 3, 7, 15}, where t is
    the peak of the ratio of weight 0, in no order."""
    points = [(n, *draw(st.one_of(st.floats(-3.0, 3.5).map(lambda x: (1.5 * 10.0 ** x, 1.5)),
                                  st.just((0.0, 1.5)))))
              for n in draw(_ragged_ns())]
    points += [(n, float(n + 1), 1.0)
               for n in draw(st.lists(st.sampled_from([1, 3, 7, 15]), max_size=3))]
    return draw(st.permutations(points))


@settings(max_examples=25, deadline=None)
@given(points=_egz_points())
def test_bernoulli_egz_on_an_n_per_pair_equals_its_one_n_calls(points):
    ns, gamma, zeta = (list(part) for part in zip(*points))
    whole = models.bernoulli_e_gamma_zeta_batch(ns, np.array(gamma), np.array(zeta))
    for i, n in enumerate(ns):
        alone = models.bernoulli_e_gamma_zeta_batch(n, gamma[i], zeta[i])
        assert [whole.value[i], whole.condition[i], whole.slope[i]] == \
            [alone.value[0], alone.condition[0], alone.slope[0]]


@pytest.mark.parametrize("n, first_inf", [(48, 186), (100, 157), (200, 137),
                                          (500, 117)])
def test_bernoulli_hellinger_overflows_to_inf_without_a_warning(n, first_inf):
    # the moment M leaves the float range at the order first_inf; the
    # scan runs under the suite's filters, which make a RuntimeWarning fail
    orders = np.arange(2.0, 401.0)
    batch = models.bernoulli_hellinger_first_order(n, orders)
    for p, value, condition in zip(orders.tolist(), batch.value.tolist(),
                                   batch.condition.tolist()):
        single = models.bernoulli_hellinger_first_order(n, p)
        assert (single.value, single.condition) == (value, condition)
        assert (value == math.inf) == (p >= first_inf)
        assert math.isfinite(condition)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 200), sigma_w2=st.floats(0.1, 10.0),
       orders=st.lists(st.floats(1.0, 64.0, exclude_min=True), min_size=1,
                       max_size=40))
def test_gaussian_hellinger_is_infinite_exactly_outside_its_region(n, sigma_w2, orders):
    g = models.GaussianModel(n, sigma_w2, 2.0)
    values = models.gaussian_hellinger_first_order(g, np.array(orders)).value.tolist()
    for p, value in zip(orders, values):
        assert (value == math.inf) == (1.0 + (2.0 - p) * p * g.snr <= 0.0)
        assert value >= 0.0  # the moment (p-1) H_p + 1 is at least 1


_HUGE_ORDER_KERNELS = {
    "bernoulli_sibson": models.bernoulli_sibson_first_order,
    "bernoulli_hellinger": models.bernoulli_hellinger_first_order,
    "gaussian_sibson": lambda n, a: models.gaussian_sibson_first_order(
        models.GaussianModel(n, 1.0, 1.0), a),
}


@pytest.mark.parametrize("name", sorted(_HUGE_ORDER_KERNELS))
@pytest.mark.parametrize("n", [2, 50])
@pytest.mark.parametrize("order", [1e155, 1e200, 1e300])
def test_huge_orders_keep_their_value_and_condition(name, n, order):
    # (order - 1)^2 and order^2 leave the float range from about 1.34e154;
    # the kernels run under the suite's filters, which make a RuntimeWarning
    # fail.  Sibson tends to the maximal leakage (Bernoulli; to ~1e-12,
    # since log Beta is a difference of log Gammas ~ n order log(n order)
    # apart) or grows as log(order)/2 (Gaussian); the Bernoulli Hellinger
    # moment exceeds the float range, so H_p is +inf there, as from p ~ 100 on
    kernel = _HUGE_ORDER_KERNELS[name]
    single = kernel(n, order)
    batch = kernel(n, np.array([2.0, order]))
    assert (single.value, single.condition) == (batch.value[1], batch.condition[1])
    assert math.isfinite(single.condition)
    if name == "bernoulli_sibson":
        assert math.isclose(single.value, models.bernoulli_ml(n).exact, rel_tol=1e-10)
    elif name == "bernoulli_hellinger":
        assert single.value == math.inf
    else:
        assert math.isclose(single.value, 0.5 * (math.log(order) + math.log(n)),
                            rel_tol=1e-12)


@pytest.mark.parametrize("name, n", [("bernoulli_sibson", 2), ("bernoulli_sibson", 50),
                                     ("bernoulli_hellinger", 2),
                                     ("bernoulli_hellinger", 50), ("gaussian_sibson", 50)])
def test_order_beyond_the_float_range_of_its_terms_raises_by_name(name, n):
    # log Gamma(n order + 2) (Bernoulli) or order * s (Gaussian, s = 50) is
    # past the float range at order 1e307, and no value can be formed; a
    # batch with one such order raises too.  (The Gaussian at s = 2 still
    # has order * s = 2e307, a float.)
    with pytest.raises(ValueError, match=r"order 1e\+307 is too large"):
        _HUGE_ORDER_KERNELS[name](n, 1e307)
    with pytest.raises(ValueError, match=r"order 1e\+307 is too large"):
        _HUGE_ORDER_KERNELS[name](n, np.array([2.0, 1e307]))
    if name.startswith("bernoulli"):
        # with an n per order, the message is that of the failing point's
        # call alone, naming its own n
        with pytest.raises(ValueError) as alone:
            _HUGE_ORDER_KERNELS[name](n, 1e307)
        other = 50 if n == 2 else 2
        with pytest.raises(ValueError) as mixed:
            _HUGE_ORDER_KERNELS[name]([other, n], np.array([2.0, 1e307]))
        assert str(mixed.value) == str(alone.value)
        assert f"too large for n={n}:" in str(alone.value)


# terms drawn from a few values, so that maxima tie, plus the edges of exp
_LSE_TERMS = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, 1.0, -1.0, 709.0, 710.0, -745.0, -750.0,
                     math.inf, -math.inf, math.nan]))


@settings(max_examples=300, deadline=None)
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                min_side=1, max_side=40),
                    elements=_LSE_TERMS))
def test_logsumexp_equals_scipys(a):
    # scipy's logsumexp is the oracle of the kernels' private copy
    expected = np.asarray(logsumexp(a, axis=-1))
    got = models._logsumexp(a)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)


class TestBernoulliSmallBall:
    def test_values(self):
        assert models.bernoulli_small_ball().coefficient == 2.0


class TestBernoulliLeakage:
    def test_one_flip(self):
        got = models.bernoulli_ml(1)
        assert math.isclose(got.exact, math.log(2.0), rel_tol=1e-12)

    def test_two_flips(self):
        # direct sum over weights: 1 + 2*(1/2)(1/2) + 1 = 2.5
        assert math.isclose(models.bernoulli_ml(2).exact, math.log(2.5),
                            rel_tol=1e-12)

    def test_exact_below_upper_bound_up_to_500(self):
        for n in range(1, 501):
            got = models.bernoulli_ml(n)
            assert got.exact <= got.upper + 1e-12


def _exponential_form(n, alpha):
    """S = exp((alpha-1)/alpha I_alpha), the Gamma-ratio sum over weights
    behind the Bernoulli Sibson kernel."""
    return math.exp((alpha - 1.0) / alpha
                    * models.bernoulli_sibson_first_order(n, alpha).value)


def _moment(n, p):
    """M = (p-1) H_p + 1, the Gamma-ratio sum over weights behind the
    Bernoulli Hellinger kernel."""
    return (p - 1.0) * models.bernoulli_hellinger_first_order(n, p).value + 1.0


def _egz(n, gamma, zeta):
    """The Bernoulli E_{gamma,zeta} at one (gamma, zeta) pair."""
    return models.bernoulli_e_gamma_zeta_batch(n, gamma, zeta).value[0]


class TestBernoulliSibson:
    def test_one_flip_order_two(self):
        # 2 * (Gamma(3)Gamma(1)/Gamma(4))^(1/2) = 2/sqrt(3)
        assert math.isclose(_exponential_form(1, 2.0),
                            2.0 / math.sqrt(3.0), rel_tol=1e-12)

    def test_large_order_approaches_leakage(self):
        for n in (1, 4, 9):
            exp_form = _exponential_form(n, 1e6)
            assert math.isclose(exp_form, math.exp(models.bernoulli_ml(n).exact),
                                rel_tol=1e-3)

    def test_small_order_approaches_mutual_information(self):
        mi = models.bernoulli_mutual_information(1)
        i_alpha = models.bernoulli_sibson_first_order(1, 1.001).value
        assert abs(i_alpha - mi) < 1e-3


def _closed_form_mutual_information(n):
    """Bernoulli MI at 40 digits: log(n+1) + mean_k[log C(n,k)
    + k(psi(k+1) - psi(n+2)) + (n-k)(psi(n-k+1) - psi(n+2))]."""
    with mpmath.workdps(40):
        psi = [mpmath.digamma(j) for j in range(n + 3)[1:]]  # psi[j] = psi(j+1)
        total = mpmath.fsum(
            mpmath.log(math.comb(n, k)) + k * (psi[k] - psi[n + 1])
            + (n - k) * (psi[n - k] - psi[n + 1])
            for k in range(n + 1))
        return mpmath.log(n + 1) + total / (n + 1)


class TestBernoulliMutualInformation:
    # the quadrature's output once each Simpson level's panels were summed
    # by np.bincount and only the weights k <= n/2 integrated; a change
    # that moves one updates it here and says so in CHANGES.md
    @pytest.mark.parametrize("n, value", [
        (1, 0.19314718056284702),
        (10, 0.8539973454353614),
        (48, 1.548662678478428),
        (200, 2.2391719209277348),
    ])
    def test_pinned_values(self, n, value):
        assert models.bernoulli_mutual_information(n) == value

    def test_failed_marginal_check_names_a_plain_float(self):
        # the quadrature marginal misses its sum-to-1 check at n = 562 (the
        # first such n), 599, 1232 and from 1265 on; numpy 2 would print a
        # numpy scalar as np.float64(...)
        with pytest.raises(ValueError) as err:
            models.bernoulli_mutual_information(562)
        assert re.fullmatch(r"observation marginal sums to 0\.99999\d+", str(err.value))

    def test_equals_the_quadrature_of_every_weight(self):
        # the oracle integrates all n+1 weights of the same integrand; the
        # mirror moves only the rounding
        for n in [*range(1, 61), 80, 100, 125, 150, 175, 200]:
            full = quadrature_oracle.mutual_information(n)
            value = models.bernoulli_mutual_information(n)
            assert abs(value - full) <= 1e-14 * full, n

    @pytest.mark.parametrize("n", [1, 2, 7, 48])
    def test_integrates_only_the_weights_up_to_half(self, n, monkeypatch):
        # both passes (the marginal, then the MI) see the labels
        # 0..floor(n/2) and no other
        passes = []

        def counting(f, a, b, rows=None):
            labels = set()

            def g(k, w):
                labels.update(np.unique(k).tolist())
                return f(k, w)

            passes.append((rows, labels))
            return adaptive_simpson(g, a, b, rows=rows)

        monkeypatch.setattr(models, "adaptive_simpson", counting)
        models.bernoulli_mutual_information(n)
        half = set(range(n // 2 + 1))
        assert passes == [(n // 2 + 1, half), (n // 2 + 1, half)]

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(1, 300), min_size=2, max_size=12).map(sorted))
    def test_table_batch_equals_each_n_alone(self, ns):
        # the chunks share their passes: rows of several n at once, and
        # chunk bounds wherever the row sums cross _MI_ROWS
        assume(sum(n // 2 + 1 for n in ns) > models._MI_ROWS)
        assert models.bernoulli_mutual_informations(ns) == \
            [models.bernoulli_mutual_information(n) for n in ns]

    def test_table_batch_raises_where_the_failing_n_would_be(self, monkeypatch):
        # each n is a chunk alone (281 or 282 half rows); 560 and 561 pass
        # their marginal checks and 562 fails its own, whose chunk raises
        # before its MI pass; a table names the n by calling each n alone
        # (bounds.optimize_bounds)
        passes = []

        def counting(f, a, b, rows=None):
            passes.append(rows)
            return adaptive_simpson(f, a, b, rows=rows)

        monkeypatch.setattr(models, "adaptive_simpson", counting)
        with pytest.raises(ValueError, match=r"observation marginal sums to 0\.99999\d+"):
            models.bernoulli_mutual_informations([560, 561, 562])
        assert passes == [281, 281, 281, 281, 282]
        assert models.bernoulli_mutual_informations([560, 561]) == \
            [models.bernoulli_mutual_information(560), models.bernoulli_mutual_information(561)]

    def test_no_pass_exceeds_the_row_limit_unless_one_n_does(self, monkeypatch):
        passes = []

        def counting(f, a, b, rows=None):
            passes.append(rows)
            return adaptive_simpson(f, a, b, rows=rows)

        monkeypatch.setattr(models, "adaptive_simpson", counting)
        ns = [*range(1, 40), 520, 2, 3, 300, 301]
        models.bernoulli_mutual_informations(ns)
        # the 419 rows of 1..39 make two chunks, 520 (261 rows) is one
        # alone, and 2, 3 and 300 (151 rows) share one that 301 cannot join
        alone = 520 // 2 + 1
        assert alone > models._MI_ROWS
        assert all(r <= models._MI_ROWS or r == alone for r in passes)
        assert sum(passes) == 2 * sum(n // 2 + 1 for n in ns)
        assert len(passes) == 2 * 5
        # at the limit: 510 fills a chunk exactly, and 2 (2 rows) and 509
        # (255 rows) would overfill one by a row
        assert models._MI_ROWS == 256
        passes.clear()
        models.bernoulli_mutual_informations([510, 2, 509])
        assert passes == [256, 256, 2, 2, 255, 255]

    def test_against_closed_form(self):
        # The quadrature errs by up to 6.25e-7 relative (n = 48).  The closed
        # form replaces it once the benchmark reference is rebuilt from an
        # independent oracle (ROADMAP item 1); the quadrature then stays as
        # the oracle.
        for n in [*range(1, 61), 80, 100, 125, 150, 175, 200]:
            exact = _closed_form_mutual_information(n)
            value = models.bernoulli_mutual_information(n)
            assert abs(value - exact) <= 1e-6 * exact, n


class TestBernoulliHellinger:
    def test_hand_values(self):
        assert math.isclose(_moment(1, 2.0), 4.0 / 3.0, rel_tol=1e-12)
        assert math.isclose(_moment(2, 2.0), 1.6, rel_tol=1e-12)

    def test_central_binomial_identity(self):
        for n in range(1, 31):
            closed = (n + 1) / (2 * n + 1) * 4.0 ** n / comb(2 * n, n, exact=True)
            assert math.isclose(_moment(n, 2.0), closed, rel_tol=1e-10)
            assert _moment(n, 2.0) <= 16.0 * math.sqrt(math.pi * n) / 21.0


def _bernoulli_e_gamma_zeta_bisection(n, gamma, zeta):
    """The interval-algebra E_{gamma,zeta} at each (gamma, zeta) pair, with
    both ends of every weight k = 0..n found by one 60-step bisection in w
    over a flat array of length R*2(n+1): entry k of a pair seeks the left
    end of weight k on [0, mode], entry n+1+k the right end on [mode, 1].
    The kernel's method before its ends became Newton steps in logit(w)
    over the mirror half k <= n/2, kept as its oracle."""
    pairs = list(zip(np.asarray(gamma, float).tolist(), np.asarray(zeta, float).tolist()))
    rows = [r for r, (g, _) in enumerate(pairs) if g != 0.0]
    k = np.arange(n + 1.0)
    a_par = k + 1.0
    b_par = n - k + 1.0
    right_side = np.tile(np.repeat([False, True], n + 1), len(rows))
    k2 = np.tile(k, 2 * len(rows))
    rest = n - k2
    log_norm = np.tile(gammaln(n + 2.0) - gammaln(a_par) - gammaln(b_par),
                       2 * len(rows))
    mode = k2 / n

    def log_ratio(w):
        return log_norm + xlogy(k2, w) + xlogy(rest, 1.0 - w)

    log_t = np.repeat([math.log(pairs[r][0] / pairs[r][1]) for r in rows],
                      2 * (n + 1))
    exists = log_ratio(mode) >= log_t
    edge = right_side.astype(float)
    need = exists & (log_ratio(edge) < log_t)
    lo = np.where(right_side, mode, 0.0)
    hi = np.where(right_side, 1.0, mode)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        move_lo = (log_ratio(mid) < log_t) != right_side
        lo = np.where(move_lo, mid, lo)
        hi = np.where(move_lo, hi, mid)
    ends = np.where(need, np.where(right_side, lo, hi), edge).reshape(-1, 2, n + 1)
    left, right = ends[:, 0], ends[:, 1]

    g, z = (np.array([pairs[r][i] for r in rows])[:, None] for i in (0, 1))
    mass = betainc(a_par, b_par, right) - betainc(a_par, b_par, left)
    contrib = np.where(exists.reshape(-1, 2, n + 1)[:, 0],
                       z * mass - g * (right - left), 0.0)
    values = [0.0] * len(pairs)
    for r, row in zip(rows, contrib):
        total = float(np.sum(row)) / (n + 1.0)
        values[r] = max(0.0, total - max(0.0, pairs[r][1] - pairs[r][0]))
    return values


def _exact_bernoulli_e_gamma_zeta(n, gamma, zeta):
    """The same interval algebra at 40 digits over every weight k = 0..n:
    each end a bracketed `mpmath.findroot` of the log density ratio, each
    mass a regularized `mpmath.betainc`."""
    with mpmath.workdps(40):
        g, z = mpmath.mpf(gamma), mpmath.mpf(zeta)
        log_t = mpmath.log(g / z)
        tiny = mpmath.mpf(10) ** -30
        total = mpmath.mpf(0)
        for k in range(n + 1):
            log_norm = mpmath.log((n + 1) * math.comb(n, k))

            def excess(w):
                return (log_norm + k * mpmath.log(w) + (n - k) * mpmath.log(1 - w)
                        - log_t)

            mode = mpmath.mpf(k) / n
            if 0 < k < n and excess(mode) < 0 or k in (0, n) and log_norm < log_t:
                continue
            inner = min(max(mode, tiny), 1 - tiny)
            left = 0 if k == 0 else mpmath.findroot(excess, (tiny, inner), solver="anderson")
            right = 1 if k == n else mpmath.findroot(excess, (inner, 1 - tiny),
                                                     solver="anderson")
            mass = mpmath.betainc(k + 1, n - k + 1, left, right, regularized=True)
            total += z * mass - g * (right - left)
        return max(mpmath.mpf(0), total / (n + 1) - max(mpmath.mpf(0), z - g))


class TestBernoulliHockeyStick:
    def test_matches_independent_quadrature(self):
        n, gamma, zeta = 5, 3.0, 1.5
        total = 0.0
        for k in range(n + 1):
            c = comb(n, k, exact=True)
            f = lambda w: max(0.0, zeta * (n + 1) * c * w ** k * (1 - w) ** (n - k)
                              - gamma) / (n + 1)
            val, _ = integrate.quad(f, 0.0, 1.0, limit=500,
                                    epsabs=1e-13, epsrel=1e-13)
            total += val
        expected = total - max(0.0, zeta - gamma)
        assert math.isclose(_egz(n, gamma, zeta), expected, abs_tol=1e-7)

    def test_matches_generic_quadrature_path(self):
        for n, gamma, zeta in [(1, 1.0, 1.0), (5, 3.0, 1.5), (12, 0.7, 2.0)]:
            fast = _egz(n, gamma, zeta)
            slow = quadrature_oracle.e_gamma_zeta(n, gamma, zeta)
            assert math.isclose(fast, slow, abs_tol=1e-7)

    def test_monotone_non_increasing_in_gamma(self):
        # holds from gamma = zeta on; below that the subtracted offset
        # max(0, zeta - gamma) shrinks with gamma as well
        zeta = 1.5
        values = [_egz(8, g, zeta) for g in (1.5, 2.0, 4.0, 8.0, 16.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_gamma_zero_is_zero(self):
        assert _egz(6, 0.0, 2.0) == 0.0

    # captured from the Newton-ends kernel; each row is n: values at
    # _EGZ_PIN_PAIRS
    _EGZ_PIN_PAIRS = ((0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (3.0, 1.5), (8.0, 0.5),
                      (0.01, 32.0))
    _EGZ_PINS = {
        1: [0.0625, 0.25, 0.0625, 0.0, 0.0, 7.81250001580247e-07],
        10: [0.23950600297521452, 0.5428549968569014, 0.3827052385175423,
             0.38037945840070103, 0.0, 0.0016786643876436358],
        50: [0.3562522872879509, 0.7415685955955925, 0.6409007231746457,
             0.8259701440312576, 0.0072850071847694025, 0.005158510737643951],
    }

    @pytest.mark.parametrize("n", sorted(_EGZ_PINS))
    def test_keeps_its_pinned_values(self, n):
        gamma, zeta = np.array(self._EGZ_PIN_PAIRS).T
        assert [_egz(n, g, z) for g, z in self._EGZ_PIN_PAIRS] == self._EGZ_PINS[n]
        assert models.bernoulli_e_gamma_zeta_batch(n, gamma, zeta).value == self._EGZ_PINS[n]

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 200), pairs=st.lists(st.tuples(
               st.one_of(st.just(0.0), st.floats(-4.0, 4.0).map(lambda x: 10.0 ** x)),
               st.floats(-2.0, 2.0).map(lambda x: 10.0 ** x)), min_size=1, max_size=40))
    def test_batch_equals_its_one_pair_calls(self, n, pairs):
        # pairs of (gamma / zeta, zeta): gamma = 0, gamma < zeta and gamma > zeta
        # with ratios from 1e-4 to 1e4, all in one call
        gamma = np.array([ratio * zeta for ratio, zeta in pairs])
        zeta = np.array([zeta for _, zeta in pairs])
        alone = [_egz(n, g, z) for g, z in zip(gamma.tolist(), zeta.tolist())]
        assert models.bernoulli_e_gamma_zeta_batch(n, gamma, zeta).value == alone

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 50), gamma=st.floats(1e-2, 32.0),
           zeta=st.floats(1e-2, 32.0),
           scale=st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x))
    def test_scaling_gamma_and_zeta_scales_the_value(self, n, gamma, zeta, scale):
        # the invariance behind the ratio search of `bernoulli --optimize`;
        # the tolerances absorb the last bit of (scale*gamma)/(scale*zeta)
        e = _egz(n, gamma, zeta)
        e_scaled = _egz(n, scale * gamma, scale * zeta)
        assert math.isclose(e_scaled, scale * e,
                            abs_tol=1e-13 * scale * max(gamma, zeta))
        L = models.bernoulli_small_ball()
        plain = bounds.bound("egz", e, L, gamma=gamma, zeta=zeta).value
        scaled = bounds.bound("egz", e_scaled, L, gamma=scale * gamma,
                              zeta=scale * zeta).value
        assert math.isclose(scaled, plain, rel_tol=1e-9, abs_tol=1e-15)

    @example(n=1, pairs=[(0.0, 1.0), (2.0, 1.5), (1e-4, 0.01), (1e4, 100.0)])
    @example(n=2, pairs=[(1.5, 1.0), (3.0, 1.0), (0.5, 2.0)])
    @example(n=117, pairs=[(1.0, 1.0), (1e-4, 1.0), (50.0, 0.1)])
    @example(n=200, pairs=[(201.0, 1.0), (1e-3, 10.0), (30.0, 1.0)])
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 500), pairs=st.lists(st.tuples(
               st.one_of(st.just(0.0), st.floats(-4.0, 4.0).map(lambda x: 10.0 ** x)),
               st.floats(-2.0, 2.0).map(lambda x: 10.0 ** x)), min_size=1, max_size=20))
    def test_newton_ends_match_the_bisection(self, n, pairs):
        # pairs of (gamma / zeta, zeta), as in the test above; the examples
        # hold t = n+1 (the peak of weight 0, where its right end runs to
        # w = 0) and t = 1.5 at n = 2 (the peak of weight 1)
        gamma = np.array([ratio * zeta for ratio, zeta in pairs])
        zeta = np.array([zeta for _, zeta in pairs])
        values = models.bernoulli_e_gamma_zeta_batch(n, gamma, zeta).value
        oracle = _bernoulli_e_gamma_zeta_bisection(n, gamma, zeta)
        # 4 ulps of gamma + zeta, the scale of the terms zeta*mass - gamma*width
        floor = 4.0 * np.finfo(float).eps * (gamma + zeta)
        assert np.all(np.abs(np.subtract(values, oracle)) <= floor), (values, oracle)

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 200])
    def test_against_the_exact_interval_algebra(self, n):
        # ratios from below every peak to above them all (the peak of
        # weight 0 is n+1)
        zeta = 1.0
        for ratio in np.geomspace(1e-3, 1e3, 7).tolist():
            gamma = ratio * zeta
            exact = _exact_bernoulli_e_gamma_zeta(n, gamma, zeta)
            value = _egz(n, gamma, zeta)
            floor = 4.0 * np.finfo(float).eps * (gamma + zeta)
            assert abs(value - exact) <= floor, (ratio, value)

    def test_newton_stops_within_its_cap_on_the_ratio_grid(self, monkeypatch):
        # the lowered cap counts the steps: the ratio ladder of `bernoulli
        # --optimize`, grown once, stops within 18 at every n to 1000, and so
        # do the 95 ratios from 1/3200 to 3200 that it replaced.  Where the
        # peak of weight 0, t = n+1, is a rung that its rounded log ratio
        # reaches (n = 1, 3, 7, 15, 63, 127, 255), that right end is the mode
        # w = 0 from the start; Newton walked to it in up to 40 steps before
        monkeypatch.setattr(models, "_NEWTON_CAP", 18)
        ladder = 2.0 ** np.arange(26)
        for n in range(1, 1001):
            models.bernoulli_e_gamma_zeta_batch(n, ladder, 1.0)
        ratios = np.geomspace(1.0 / 3200.0, 3200.0, 95)
        for n in [*range(1, 61), 100, 200, 500, 1000]:
            models.bernoulli_e_gamma_zeta_batch(n, ratios, 1.0)

    @pytest.mark.parametrize("n", [1, 3, 7, 15, 63, 127, 255])
    def test_a_rung_at_the_peak_of_weight_zero_has_no_interval(self, n):
        # at t = n+1 the superlevel set of weight 0 is the point w = 0: its
        # right end is the mode, so g = P + t Q - 1 = -1 and the slope is
        # 2 t dQ/d log t = -4/n, the speed of that end being -1/n
        out = models.bernoulli_e_gamma_zeta_batch(n, float(n + 1), 1.0)
        assert out.condition == -1.0
        assert out.slope == pytest.approx(-4.0 / n, rel=1e-15)

    def test_newton_raises_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(models, "_NEWTON_CAP", 3)
        with pytest.raises(ArithmeticError, match="still moving after 3 steps"):
            _egz(50, 3.0, 1.5)

    def test_newton_cap_in_a_call_of_several_n_names_the_first_still_moving(
            self, monkeypatch):
        # at 7 steps, t = 2 stops at n = 1, 2, 3 and 8 but not at 12 or 40:
        # a call with an n per pair names the first n, in order of first
        # appearance, whose call alone raises, as one call per n would
        monkeypatch.setattr(models, "_NEWTON_CAP", 7)
        ns = [8, 3, 40, 2, 12, 40, 1]

        def raises(n):
            try:
                _egz(n, 3.0, 1.5)
            except ArithmeticError:
                return True
            return False

        failing = [n for n in dict.fromkeys(ns) if raises(n)]
        assert failing[0] not in (ns[0], min(failing))
        with pytest.raises(ArithmeticError, match=f"at n={failing[0]} still moving"):
            models.bernoulli_e_gamma_zeta_batch(ns, 3.0, 1.5)


class TestBernoulliUpperBound:
    def test_values(self):
        assert math.isclose(models.bernoulli_upper_bound(6), 1.0 / 6.0,
                            rel_tol=1e-14)
        assert math.isclose(models.bernoulli_upper_bound(1), 0.4082482904638,
                            rel_tol=1e-10)
        assert math.isclose(models.bernoulli_upper_bound(24), 1.0 / 12.0,
                            rel_tol=1e-14)


def _gaussian_e_gamma_zeta_full_window(model, gamma, zeta):
    """E_{gamma,zeta} of the Gaussian model by adaptive Simpson over the
    8-sigma window of the sample mean x, one integration per piece between
    the window's ends and the interval-birth kinks +-x0: at each x the
    parameter interval x +- root where the density ratio clears gamma/zeta
    has closed-form posterior and prior masses."""
    sw2, s2 = model.sigma_w_sq, model.sigma_sq / model.n
    sx2 = sw2 + s2
    kappa, sv = sw2 / sx2, math.sqrt(sw2 * s2 / sx2)
    sw, sx = math.sqrt(sw2), math.sqrt(sx2)
    coeff = s2 / sx2
    const = s2 * math.log(sx2 / s2) - 2.0 * s2 * math.log(gamma / zeta)

    def integrand(x):
        disc = coeff * x * x + const
        has = disc > 0.0
        root = np.sqrt(np.where(has, disc, 0.0))
        post_mass = (ndtr((x + root - kappa * x) / sv)
                     - ndtr((x - root - kappa * x) / sv))
        prior_mass = ndtr((x + root) / sw) - ndtr((x - root) / sw)
        pdf_x = np.exp(-0.5 * (x / sx) ** 2) / (sx * math.sqrt(2.0 * math.pi))
        return np.where(has, pdf_x * (zeta * post_mass - gamma * prior_mass), 0.0)

    x0 = math.sqrt(-const / coeff) if const < 0.0 else math.inf
    edges = [-8.0 * sx] + [e for e in (-x0, x0) if abs(e) < 8.0 * sx] + [8.0 * sx]
    total = sum(adaptive_simpson(integrand, lo, hi, atol=1e-13, rtol=1e-12)
                for lo, hi in zip(edges[:-1], edges[1:]))
    return max(0.0, total - max(0.0, zeta - gamma))


def _gaussian_region_mpmath(model, t, part):
    """The mean over the sample mean x of part(post, prior), the posterior
    and the prior mass of the parameter interval x +- root where the
    density ratio clears t, at the working precision: the sample-mean
    integral of `_gaussian_e_gamma_zeta_full_window`, by `mpmath.quad` over
    x >= 0 (the integrand is even in x), starting at the kink x0 where the
    interval is born.  Each mass is a difference of erf values, or of erfc
    values right of the mean, so that the digits lost to cancellation stay
    far below the precision.  Call it inside `mpmath.workdps`."""
    sw2 = mpmath.mpf(model.sigma_w_sq)
    s2 = mpmath.mpf(model.sigma_sq) / model.n
    sx2 = sw2 + s2
    kappa, coeff = sw2 / sx2, s2 / sx2
    const = s2 * mpmath.log(sx2 / s2) - 2 * s2 * mpmath.log(t)

    def mass(lo, hi, mean, var):
        a, b = (lo - mean) / mpmath.sqrt(2 * var), (hi - mean) / mpmath.sqrt(2 * var)
        if a > 0:
            return (mpmath.erfc(a) - mpmath.erfc(b)) / 2
        return (mpmath.erf(b) - mpmath.erf(a)) / 2

    def integrand(x):
        disc = coeff * x * x + const
        if disc <= 0:
            return mpmath.mpf(0)
        root = mpmath.sqrt(disc)
        post = mass(x - root, x + root, kappa * x, sw2 * coeff)
        prior = mass(x - root, x + root, 0, sw2)
        return mpmath.exp(-x * x / (2 * sx2)) * part(post, prior)

    x0 = mpmath.sqrt(-const / coeff) if const < 0 else mpmath.mpf(0)
    sx = mpmath.sqrt(sx2)
    total = 2 * mpmath.quad(integrand, [x0, x0 + 2 * sx, x0 + 12 * sx])
    return total / mpmath.sqrt(2 * mpmath.pi * sx2)


def _gaussian_e_gamma_zeta_mpmath(model, gamma, zeta, dps=30):
    """E_{gamma,zeta} of the Gaussian model at ``dps`` digits, as
    zeta P(R) - gamma Q(R) - max(0, zeta - gamma) by `_gaussian_region_mpmath`."""
    with mpmath.workdps(dps):
        gamma, zeta = mpmath.mpf(gamma), mpmath.mpf(zeta)
        total = _gaussian_region_mpmath(model, gamma / zeta,
                                        lambda post, prior: zeta * post - gamma * prior)
        return float(max(0, total - max(0, zeta - gamma)))


def _gaussian_moment(model, p):
    """M = (p-1) H_p + 1 of the Gaussian Hellinger kernel."""
    return (p - 1.0) * models.gaussian_hellinger_first_order(model, p).value + 1.0


class TestGaussian:
    def test_small_ball(self):
        for sw2 in (2.0 / math.pi, 0.3, 4.0):
            L = models.gaussian_small_ball(models.GaussianModel(1, sw2, 1.0))
            assert math.isclose(L.coefficient, math.sqrt(2.0 / (math.pi * sw2)),
                                rel_tol=1e-15)

    def test_sibson_values(self):
        sibson = models.gaussian_sibson_first_order
        assert math.isclose(sibson(models.GaussianModel(1, 1.0, 2.0), 2.0).value,
                            0.5 * math.log(2.0), rel_tol=1e-12)
        tiny = sibson(models.GaussianModel(1, 1e-14, 1.0), 2.0).value
        assert tiny < 1e-13
        # I_alpha tends to the mutual information as alpha falls to 1
        g = models.GaussianModel(3, 1.0, 2.0)
        assert math.isclose(sibson(g, 1.0 + 1e-15).value,
                            models.gaussian_mutual_information(g), rel_tol=1e-14)

    def test_hellinger_values(self):
        g0 = models.GaussianModel(0, 1.0, 1.0)
        assert _gaussian_moment(g0, 1.5) == 1.0
        g1 = models.GaussianModel(1, 1.0, 1.0)
        s = g1.snr
        expected = math.sqrt((1 + s) ** 1.5 / (1 + 0.75 * s))
        assert math.isclose(_gaussian_moment(g1, 1.5), expected, rel_tol=1e-12)
        assert math.isclose(_gaussian_moment(g1, 2.0), 2.0, rel_tol=1e-12)

    def test_hellinger_two_against_2d_quadrature(self):
        g = models.GaussianModel(1, 1.0, 1.0)
        sw2 = g.sigma_w_sq
        s2 = g.sigma_sq
        sx2 = sw2 + s2

        def inner(x):
            f = lambda w: (
                math.exp(-w * w / (2 * sw2)) / math.sqrt(2 * math.pi * sw2)
                * (math.exp(-(x - w) ** 2 / (2 * s2))
                   / math.sqrt(2 * math.pi * s2)) ** 2
            )
            val, _ = integrate.quad(f, -12, 12, limit=300,
                                    epsabs=1e-13, epsrel=1e-12)
            px = math.exp(-x * x / (2 * sx2)) / math.sqrt(2 * math.pi * sx2)
            return val / px

        # the outer integrand decays on the sqrt(6) scale, so go wide
        val, _ = integrate.quad(inner, -30, 30, limit=500,
                                epsabs=1e-12, epsrel=1e-11)
        assert math.isclose(_gaussian_moment(g, 2.0), val, rel_tol=1e-7)

    def test_finiteness_region_boundary(self):
        g = models.GaussianModel(4, 1.0, 1.0)  # snr = 4
        for p in np.linspace(1.05, 8.0, 60):
            denom = 1.0 + (2.0 - p) * p * g.snr
            if denom <= 0:
                assert _gaussian_moment(g, float(p)) == math.inf
            else:
                assert _gaussian_moment(g, float(p)) >= 1.0

    def test_upper_bound(self):
        assert math.isclose(
            models.gaussian_upper_bound(models.GaussianModel(0, 2.0, 1.0)),
            math.sqrt(2.0), rel_tol=1e-14)
        assert math.isclose(
            models.gaussian_upper_bound(models.GaussianModel(2, 1.0, 2.0)),
            1.0 / math.sqrt(2.0), rel_tol=1e-14)
        assert models.gaussian_upper_bound(
            models.GaussianModel(10 ** 9, 1.0, 1.0)) < 1e-4

    def test_hockey_stick_against_nested_quadrature(self):
        g = models.GaussianModel(2, 1.0, 2.0)
        gamma, zeta = 2.0, 1.5
        sw2, s2 = g.sigma_w_sq, g.sigma_sq / g.n
        sx2 = sw2 + s2
        coeff, const = s2 / sx2, s2 * math.log(sx2 / s2) - 2 * s2 * math.log(gamma / zeta)

        def px(x):
            return math.exp(-x * x / (2 * sx2)) / math.sqrt(2 * math.pi * sx2)

        def inner(x):
            disc = coeff * x * x + const
            if disc <= 0:
                return 0.0
            root = math.sqrt(disc)
            f = lambda w: (
                math.exp(-w * w / (2 * sw2)) / math.sqrt(2 * math.pi * sw2)
                * (zeta * math.exp(-(x - w) ** 2 / (2 * s2))
                   / math.sqrt(2 * math.pi * s2) / px(x) - gamma))
            val, _ = integrate.quad(f, x - root, x + root, limit=400,
                                    epsabs=1e-12, epsrel=1e-11)
            return val * px(x)

        kink = math.sqrt(-const / coeff) if const < 0 else None
        val, _ = integrate.quad(inner, -10 * math.sqrt(sx2), 10 * math.sqrt(sx2),
                                limit=800, points=[-kink, kink] if kink else None,
                                epsabs=1e-12, epsrel=1e-11)
        expected = max(0.0, val - max(0.0, zeta - gamma))
        assert math.isclose(models.gaussian_e_gamma_zeta(g, gamma, zeta).value,
                            expected, abs_tol=1e-9)

    @example(n=1, sw2=1.0, s2=1.0, zeta=1.0, ratio=1000.0)
    # run as one integration at atol=1e-10, rtol=1e-9, the oracle was
    # 6e-8 to 6e-7 relative too high here; the kernel is within 1e-14 of
    # a 40-digit evaluation
    @example(n=147, sw2=2.5, s2=0.05078125, zeta=1.0, ratio=10.0 ** -0.703125)
    @example(n=52, sw2=0.1015625, s2=0.05078125, zeta=1.0, ratio=10.0 ** -1.59375)
    @example(n=103, sw2=1.0, s2=1.0, zeta=1.0, ratio=10.0 ** -1.59375)
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 200), sw2=st.floats(0.05, 20.0), s2=st.floats(0.05, 20.0),
           zeta=st.floats(0.1, 4.0),
           ratio=st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x))
    def test_hockey_stick_half_window_matches_full_window(self, n, sw2, s2, zeta, ratio):
        g = models.GaussianModel(n, sw2, s2)
        gamma = ratio * zeta
        value = models.gaussian_e_gamma_zeta(g, gamma, zeta).value
        full = _gaussian_e_gamma_zeta_full_window(g, gamma, zeta)
        # the Simpson oracle accepts a panel on its local error estimate,
        # which bounds no global error: the tolerance below holds for it
        # split at the kinks +-x0 and run at atol=1e-13, rtol=1e-12, not
        # as one integration at 1e-10, 1e-9;
        # test_hockey_stick_against_mpmath is the tight check
        assert math.isclose(value, full, rel_tol=0.0,
                            abs_tol=1e-10 + 1e-9 * (gamma + zeta)), (value, full)

    @pytest.mark.parametrize("n", [1, 14, 15, 50])
    @pytest.mark.parametrize("gamma", [0.5, 2.0])  # t < 1; c > 0 or c < 0 by n
    def test_hockey_stick_against_mpmath_at_the_defaults(self, n, gamma):
        g = models.GaussianModel(n, 1.0, 2.0)
        exact = _gaussian_e_gamma_zeta_mpmath(g, gamma, 1.5)
        assert exact > 1e-6
        assert math.isclose(models.gaussian_e_gamma_zeta(g, gamma, 1.5).value, exact,
                            rel_tol=1e-12)

    @pytest.mark.parametrize("n, sw2, s2, t", [
        pytest.param(500, 10.0, 0.1, 202.3, id="snr-5e4"),
        pytest.param(1000, 100.0, 1e-4, 28609.0, id="snr-1e9"),
    ])
    def test_hockey_stick_and_condition_where_the_ladder_reaches(self, n, sw2, s2, t):
        # the optimal ratios t* of `gaussian --optimize` at n = 500,
        # sigma_W^2 = 10, sigma^2 = 0.1 and at the largest signal-to-noise
        # ratio the tests reach (1e9, where the ladder grows); the kernel was
        # 3.4e-16 relative from 30 digits in value there and 1.6e-15 in the
        # condition g = P(R) + t Q(R) - 1
        g = models.GaussianModel(n, sw2, s2)
        gamma, zeta = 1.5 * t, 1.5
        out = models.gaussian_e_gamma_zeta(g, gamma, zeta)
        assert math.isclose(out.value, _gaussian_e_gamma_zeta_mpmath(g, gamma, zeta),
                            rel_tol=2e-15)
        with mpmath.workdps(30):
            ratio = mpmath.mpf(gamma) / zeta
            p_mass, q_mass = (_gaussian_region_mpmath(g, ratio, part) for part in
                              (lambda post, prior: post, lambda post, prior: prior))
            condition = float(p_mass + ratio * q_mass - 1)
        assert abs(out.condition) < 1e-4
        assert abs(out.condition - condition) <= 1e-14

    @example(n=25, sw2=0.165, s2=16.5, zeta=1.5, ratio=68.5 / 1.5)
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 300), sw2=st.floats(0.05, 20.0), s2=st.floats(0.05, 20.0),
           zeta=st.floats(0.1, 4.0),
           ratio=st.floats(-2.0, 2.0).map(lambda x: 10.0 ** x))
    def test_hockey_stick_against_mpmath(self, n, sw2, s2, zeta, ratio):
        g = models.GaussianModel(n, sw2, s2)
        gamma = ratio * zeta
        exact = _gaussian_e_gamma_zeta_mpmath(g, gamma, zeta)
        value = models.gaussian_e_gamma_zeta(g, gamma, zeta).value
        if exact > 1e-6:
            assert math.isclose(value, exact, rel_tol=1e-12), (value, exact)
        else:
            assert value < 2e-6

    @pytest.mark.parametrize("n, sw2, s2", [(20, 1.0, 2.0), (3, 3.0, 0.7),
                                            (300, 20.0, 0.05)])
    @pytest.mark.parametrize("offset", [0.0, 1e-13, -1e-13])
    def test_hockey_stick_where_the_interval_is_born(self, n, sw2, s2, offset):
        # at t = sqrt(1 + snr), c = 0: the parameter interval is born at
        # sample mean 0, and c, as the kernel computes it, is 0.0 exactly
        # for the settings here; offset moves c to about +-1e-13
        g = models.GaussianModel(n, sw2, s2)
        s2n = s2 / n
        sx2 = sw2 + s2n
        ratio = (math.sqrt(1.0 + g.snr) if offset == 0.0
                 else math.exp(0.5 * (math.log(sx2 / s2n) - offset / s2n)))
        zeta = 1.5
        gamma = ratio * zeta
        c = s2n * math.log(sx2 / s2n) - 2.0 * s2n * math.log(gamma / zeta)
        assert c == 0.0 if offset == 0.0 else math.isclose(c, offset, rel_tol=1e-2)
        assert math.isclose(models.gaussian_e_gamma_zeta(g, gamma, zeta).value,
                            _gaussian_e_gamma_zeta_mpmath(g, gamma, zeta), rel_tol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 200), sw2=st.floats(0.05, 20.0), s2=st.floats(0.05, 20.0),
           zeta=st.floats(0.1, 4.0),
           ratios=st.lists(st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x), max_size=6))
    def test_hockey_stick_batch_equals_scalar_calls(self, n, sw2, s2, zeta, ratios):
        g = models.GaussianModel(n, sw2, s2)
        edge = math.sqrt(1.0 + g.snr)  # a row has kinks where gamma/zeta > edge
        gammas = np.array([0.0, 0.5 * edge * zeta, 2.0 * edge * zeta]
                          + [t * zeta for t in ratios])
        alone = [models.gaussian_e_gamma_zeta(g, gamma, zeta).value
                 for gamma in gammas.tolist()]
        assert all(type(value) is float for value in alone)
        assert alone[0] == 0.0
        assert models.gaussian_e_gamma_zeta(g, gammas, zeta).value.tolist() == alone
        zetas = np.full(gammas.size, zeta)
        assert models.gaussian_e_gamma_zeta(g, gammas, zetas).value.tolist() == alone


class TestFirstOrderCondition:
    """The condition g(t) = P(R_t) + t Q(R_t) - 1 that both E_{gamma,zeta}
    kernels return with their values, against finite differences of
    the values alone: H(t) = E(t, 1) + max(0, 1 - t) = P - t Q and
    dH/d log t = -t Q, so g = H - 2 dH/d log t - 1."""

    H_STEP = 1e-5  # the step in log t of the centred differences

    @staticmethod
    def _kernel(setting, n):
        if setting == "bernoulli":
            return lambda t: models.bernoulli_e_gamma_zeta_batch(n, t, 1.0)
        g = models.GaussianModel(n, 1.0, 2.0)
        return lambda t: models.gaussian_e_gamma_zeta(g, t, 1.0)

    def _differences(self, f, t):
        up, down = f(t * math.exp(self.H_STEP)), f(t * math.exp(-self.H_STEP))
        return (np.asarray(up) - np.asarray(down)) / (2.0 * self.H_STEP)

    @pytest.mark.parametrize("setting", ["bernoulli", "gaussian"])
    @pytest.mark.parametrize("n", [1, 7, 50, 200])
    def test_condition_matches_the_differences_of_the_values(self, setting, n):
        kernel = self._kernel(setting, n)
        t = np.geomspace(1e-2 / 32.0, 32.0 / 1e-2, 95)
        out = kernel(t)
        assert isinstance(out, bounds.FirstOrder)

        def h(tt):
            return np.asarray(kernel(tt).value) + np.maximum(0.0, 1.0 - tt)

        expected = h(t) - 2.0 * self._differences(h, t) - 1.0
        np.testing.assert_allclose(out.condition, expected, rtol=0.0, atol=1e-8)
        if setting == "gaussian":
            assert out.slope is None
            return
        # the slope dg/d log t against the differences of g; near the t
        # at which an interval is born the slope has a 1/sqrt singularity
        slope = self._differences(lambda tt: kernel(tt).condition, t)
        np.testing.assert_allclose(out.slope, slope, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("setting", ["bernoulli", "gaussian"])
    def test_gamma_zero_has_a_zero_condition(self, setting):
        # R_0 is the whole space, so g = P + 0 Q - 1 = 0
        out = self._kernel(setting, 5)(np.array([0.0, 2.0]))
        assert out.condition[0] == 0.0 and out.condition[1] != 0.0
        if setting == "bernoulli":
            assert out.slope[0] == 0.0


_variance = st.floats(-1.0, 1.0).map(lambda x: 10.0 ** x)


class TestOrderCondition:
    """The first-order kernels of the Sibson and Hellinger columns: their
    values against the plain divergences, one order at a time, and their
    condition g = d log f / d log theta against differences of the log of
    the bound."""

    STEP = 1e-4  # the step in log theta of the five-point differences

    @staticmethod
    def _kernels(setting, method, n, sw2, s2):
        """The first-order kernel, and the plain divergence at one order in
        the kernel's arithmetic: for Bernoulli the Gamma-ratio sum over
        weights by scipy's logsumexp (S for Sibson, M for Hellinger), for
        Gaussian the closed form by libm."""
        if setting == "bernoulli":
            k = np.arange(n + 1)
            log_binom = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)

            def log_beta(theta):
                return (gammaln(k * theta + 1.0) + gammaln((n - k) * theta + 1.0)
                        - gammaln(n * theta + 2.0))

            if method == "sibson":
                def plain(a):
                    log_s = logsumexp(log_binom + log_beta(a) / a)
                    return a / (a - 1.0) * math.log(np.exp(log_s))

                return lambda a: models.bernoulli_sibson_first_order(n, a), plain

            def plain(p):
                # the terms added in the kernel's order, so that the sums are ==
                log_m = logsumexp((p - 1.0) * math.log(n + 1.0) + p * log_binom
                                  + gammaln(k * p + 1.0) + gammaln((n - k) * p + 1.0)
                                  - gammaln(n * p + 2.0))
                return (np.exp(log_m) - 1.0) / (p - 1.0)

            return lambda p: models.bernoulli_hellinger_first_order(n, p), plain
        g = models.GaussianModel(n, sw2, s2)
        s = g.snr
        if method == "sibson":
            return (lambda a: models.gaussian_sibson_first_order(g, a),
                    lambda a: 0.5 * math.log1p(a * s))

        def plain(p):
            denom = 1.0 + (2.0 - p) * p * s
            if not denom > 0.0:
                return math.inf
            return (math.sqrt((1.0 + s) ** p / denom) - 1.0) / (p - 1.0)

        return lambda p: models.gaussian_hellinger_first_order(g, p), plain

    @pytest.mark.parametrize("setting", ["bernoulli", "gaussian"])
    @pytest.mark.parametrize("method", ["sibson", "hellinger"])
    @pytest.mark.parametrize("n", [1, 7, 50, 200])
    def test_values_equal_the_plain_kernels(self, setting, method, n):
        kernel, plain = self._kernels(setting, method, n, 1.0, 2.0)
        orders = 1.0 + np.geomspace(1e-2, 63.0, 40)
        out = kernel(orders)
        assert isinstance(out, bounds.FirstOrder)
        assert out.value.tolist() == [plain(x) for x in orders.tolist()]
        # the slope is an array of the orders' shape, each entry == to the
        # call with that order alone
        assert out.slope.shape == orders.shape
        assert out.slope.tolist() == [kernel(x).slope for x in orders.tolist()]
        single = kernel(orders[7])
        assert type(single.value) is float and type(single.condition) is float
        assert type(single.slope) is float

    @settings(max_examples=150, deadline=None)
    @given(setting=st.sampled_from(["bernoulli", "gaussian"]),
           method=st.sampled_from(["sibson", "hellinger"]), n=st.integers(1, 200),
           sw2=_variance, s2=_variance, theta=st.floats(1.01, 64.0))
    @example(setting="gaussian", method="hellinger", n=9, sw2=10.0, s2=1.0,
             theta=2.0)  # 0.27% below the pole: a fixed step misses by 1.4e-6
    def test_condition_matches_the_differences_of_the_log_bound(
            self, setting, method, n, sw2, s2, theta):
        kernel, _ = self._kernels(setting, method, n, sw2, s2)
        name = "alpha" if method == "sibson" else "p"
        L = bounds.SmallBallFn(2.0)  # its slope only shifts log f

        def log_bound(x):
            order = math.exp(x)
            value = kernel(np.array([order])).value[0]
            if value == math.inf:
                return -math.inf
            return math.log(bounds.bound(method, value, L, **{name: order}).value)

        g = kernel(np.array([theta])).condition[0]
        if kernel(np.array([theta])).value[0] == math.inf:
            assert g == -math.inf  # the limit where the moment diverges
            return
        x, h = math.log(theta), self.STEP
        if setting == "gaussian" and method == "hellinger":
            # log f has a log singularity at the order p* where the moment
            # diverges, 1 + (2 - p*) p* s = 0; a step of at most 1/50 of the
            # distance to it keeps the stencil's h^4 error inside the tolerance
            pole = 1.0 + math.sqrt(1.0 + 1.0 / models.GaussianModel(n, sw2, s2).snr)
            h = min(h, (math.log(pole) - x) / 50.0)
        f = [log_bound(x + k * h) for k in (-2, -1, 1, 2)]
        assume(all(map(math.isfinite, f)))
        expected = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
        assert abs(g - expected) <= 1e-6 * (1.0 + abs(g)), (g, expected)


_wide_variance = st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x)
# orders on the ladder that the columns search, and between its rungs
_searched_order = st.one_of(
    st.sampled_from([x for x in cli.ORDER_LADDER.tolist() if 1.01 <= x <= 64.0]),
    st.floats(1.01, 64.0))


class TestOrderSlope:
    """The slope dg/d log theta of each order kernel's condition g against
    a central difference of g in x = log theta."""

    STEP = 1e-5  # the step in x

    @staticmethod
    def _kernel(name, n, sw2, s2):
        if name == "bernoulli_sibson":
            return lambda a: models.bernoulli_sibson_first_order(n, a)
        if name == "bernoulli_hellinger":
            return lambda p: models.bernoulli_hellinger_first_order(n, p)
        g = models.GaussianModel(n, sw2, s2)
        if name == "gaussian_sibson":
            return lambda a: models.gaussian_sibson_first_order(g, a)
        return lambda p: models.gaussian_hellinger_first_order(g, p)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(["bernoulli_sibson", "bernoulli_hellinger",
                                 "gaussian_sibson", "gaussian_hellinger"]),
           n=st.integers(1, 200), sw2=_wide_variance, s2=_wide_variance,
           theta=_searched_order)
    def test_slope_matches_the_differences_of_the_condition(self, name, n, sw2, s2,
                                                            theta):
        kernel = self._kernel(name, n, sw2, s2)
        x, h = math.log(theta), self.STEP
        if name == "gaussian_hellinger":
            snr = models.GaussianModel(n, sw2, s2).snr
            pole = 1.0 + math.sqrt(1.0 + 1.0 / snr)
            assume(theta < pole)
            # g has a pole there: a step of at most 1/1000 of the distance
            # keeps the differences' h^2 error near 1e-6 relative
            h = min(h, (math.log(pole) - x) / 1000.0)
        out = kernel(np.exp([x - h, x, x + h]))
        assume(np.all(np.isfinite(out.condition)))
        expected = (out.condition[2] - out.condition[0]) / (2.0 * h)
        slope = out.slope[1]
        assert abs(slope - expected) <= 1e-5 * abs(expected) + 1e-7, (slope, expected)

    @pytest.mark.parametrize("n, sw2, s2", [(50, 1.0, 2.0), (87, 1.26, 311.0)])
    def test_gaussian_hellinger_slope_is_minus_infinity_past_the_pole(self, n, sw2, s2):
        # from the pole p* = 1 + sqrt(1 + 1/s) on, the moment diverges and g
        # and its slope take their limit -inf; just below, both are finite
        # and g falls ever faster
        g = models.GaussianModel(n, sw2, s2)
        pole = 1.0 + math.sqrt(1.0 + 1.0 / g.snr)
        below = pole * (1.0 - np.array([1e-2, 1e-4, 1e-6]))
        out = models.gaussian_hellinger_first_order(g, np.concatenate([below, [pole * 1.01]]))
        assert np.all(np.isfinite(out.slope[:3])) and np.all(np.diff(out.slope[:3]) < 0.0)
        assert out.condition[3] == out.slope[3] == -math.inf


class TestNoisyBernoulli:
    def test_clean_channel_recovers_plain_bound(self):
        n = 9
        res = models.noisy_bernoulli_bound(models.NoisyBernoulliModel(n, 0.0))
        plain = (2.0 / 27.0) / _moment(n, 2.0)
        assert math.isclose(res.value, plain, rel_tol=1e-12)

    def test_fully_noisy_channel(self):
        res = models.noisy_bernoulli_bound(models.NoisyBernoulliModel(9, 0.5))
        assert math.isclose(res.value, 2.0 / 27.0, rel_tol=1e-12)

    def test_noise_strengthens_bound(self):
        for n in range(1, 51):
            noisy = models.noisy_bernoulli_bound(models.NoisyBernoulliModel(n, 0.25))
            plain = (2.0 / 27.0) / _moment(n, 2.0)
            assert noisy.value > plain

    def test_order_restricted(self):
        with pytest.raises(ValueError):
            models.noisy_bernoulli_bound(models.NoisyBernoulliModel(3, 0.2), p=3.0)

    def test_single_letter_contraction_fails_past_one_flip(self):
        # noisy_bernoulli_bound contracts the n-flip chi-square by the
        # single-letter eta, as the paper's formula does; the exact noisy
        # chi-square by quadrature is the oracle that shows where it breaks
        lam = 0.25
        eta = (1.0 - 2.0 * lam) ** 2
        exact, contracted = {}, {}
        for n in (1, 2, 5):
            exact[n] = quadrature_oracle.moment(n, 2.0, lam) - 1.0
            contracted[n] = eta * models.bernoulli_hellinger_first_order(n, 2.0).value
        assert abs(exact[1] - contracted[1]) <= 1e-9
        assert math.isclose(exact[2], 0.159441, abs_tol=5e-7)
        assert math.isclose(exact[5], 0.355368, abs_tol=5e-7)
        assert exact[2] > contracted[2]
        assert exact[5] > contracted[5]

    def test_upper_bound_recovers_clean_case(self):
        clean = models.noisy_bernoulli_upper_bound(models.NoisyBernoulliModel(9, 0.0))
        assert math.isclose(clean, min(models.bernoulli_upper_bound(9), 0.25),
                            rel_tol=1e-12)


class TestHideAndSeek:
    def test_leakage_extremes(self):
        base = dict(d=512, m=10, b=1536.0, n=3)
        assert models.hide_and_seek_leakage(
            models.HideAndSeekModel(theta=0.0, **base)) == 0.0
        no_budget = models.HideAndSeekModel(d=512, m=10, b=0.0, theta=0.3, n=3)
        assert models.hide_and_seek_leakage(no_budget) == 0.0

    def test_leakage_chain_rule_plateau(self):
        n = 10 ** 5
        model = models.HideAndSeekModel(d=512, m=10, b=3.0 * 512,
                                        theta=1.0 / (4.0 * n), n=n)
        value = models.hide_and_seek_leakage(model)
        assert abs(value - 5.0) < 1e-3  # n*m*log(1+1/(2n)) -> m/2
        assert value < math.log(512)

    def test_zero_bias_values(self):
        d = 512
        hb = models.hide_and_seek_bounds(
            models.HideAndSeekModel(d=d, m=10, b=1536.0, theta=0.0, n=5))
        assert math.isclose(hb.ml, 1.0 - 1.0 / d, rel_tol=1e-12)
        assert math.isclose(hb.nips, 1.0 - 3.0 / d, rel_tol=1e-12)
        assert math.isclose(hb.mi, 1.0 - 1.0 / math.log(d), rel_tol=1e-12)

    def test_validity_flags(self):
        hb = models.hide_and_seek_bounds(
            models.HideAndSeekModel(d=512, m=10, b=1536.0, theta=0.25, n=2))
        assert not hb.nips_valid
        hb = models.hide_and_seek_bounds(
            models.HideAndSeekModel(d=512, m=10, b=1536.0, theta=0.01, n=5))
        assert hb.nips_valid

    def test_fast_bias_decay_drives_bound_to_one(self):
        values = [models.hide_and_seek_bounds(
            models.HideAndSeekModel(d=512, m=10, b=1536.0,
                                    theta=float(n) ** -2.0, n=n)).ml
            for n in range(2, 101)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        # the vanishing-bias ceiling of the leakage bound is 1 - 1/d
        assert values[-1] > 1.0 - 1.5 / 512
        # from n = 4 on the leakage bound dominates both baselines
        for n in range(4, 101):
            hb = models.hide_and_seek_bounds(
                models.HideAndSeekModel(d=512, m=10, b=1536.0,
                                        theta=float(n) ** -2.0, n=n))
            assert hb.ml >= max(hb.nips, hb.mi)


class TestClosedFormVsQuadrature:
    """Gamma-ratio sums agree with direct integration over the bias."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("order", [1.5, 2.0, 3.0])
    def test_sibson_exponential_form(self, n, order):
        i_quad = quadrature_oracle.sibson(n, order)
        exp_quad = math.exp((order - 1.0) / order * i_quad)
        assert math.isclose(exp_quad, _exponential_form(n, order), abs_tol=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("order", [1.5, 2.0, 3.0])
    def test_hellinger_moment_form(self, n, order):
        assert math.isclose(quadrature_oracle.moment(n, order), _moment(n, order),
                            rel_tol=1e-6)
