"""Model closed forms against hand values and independent quadrature."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import comb

from riskbounds import bounds, measures, models
from riskbounds.bounds import hockey_stick_bound
from riskbounds.distributions import DivergenceKind, DivergenceSpec


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


_NAN_CALLS = {
    "sibson_bound": lambda: bounds.sibson_bound(0.1, math.nan, bounds.SmallBallFn.linear(2.0)),
    "hellinger_bound": lambda: bounds.hellinger_bound(0.1, math.nan,
                                                      bounds.SmallBallFn.linear(2.0)),
    "hockey_stick_bound": lambda: bounds.hockey_stick_bound(
        0.1, math.nan, 1.0, bounds.SmallBallFn.linear(2.0)),
    "bernoulli_e_gamma_zeta": lambda: models.bernoulli_e_gamma_zeta(5, math.nan, 1.0),
    "gaussian_e_gamma_zeta": lambda: models.gaussian_e_gamma_zeta(
        models.GaussianModel(5, 1.0, 2.0), math.nan, 1.0),
    "bernoulli_sibson": lambda: models.bernoulli_sibson(5, math.nan),
    "bernoulli_sibson[array]": lambda: models.bernoulli_sibson(5, np.array([2.0, math.nan])),
    "bernoulli_hellinger": lambda: models.bernoulli_hellinger(5, math.nan),
    "gaussian_sibson": lambda: models.gaussian_sibson(
        models.GaussianModel(5, 1.0, 2.0), math.nan),
    "gaussian_hellinger": lambda: models.gaussian_hellinger(
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


# the kernels at the orders below, captured from scalar calls: Gaussian
# with sigma_W^2 = 1 and sigma^2 = 2, whose Hellinger moment at p = 4 is
# outside its finite region (1 + (2-p)*p*snr <= 0) for every n here
_PIN_ORDERS = (1.25, 1.5, 2.0, 4.0)
_KERNEL_PINS = {
    1: {"bernoulli_sibson": [1.0454035755774875, 1.0857670466379625,
                             1.1547005383792515, 1.337480609952844],
        "bernoulli_hellinger": [1.05707299111353, 1.131370849898476,
                                1.3333333333333333, 3.2000000000000006],
        "gaussian_sibson": [0.24275390789085038, 0.27980789396771133,
                            0.34657359027997264, 0.5493061443340548],
        "gaussian_hellinger": [1.0631219796071063, 1.1558915668199028, 1.5,
                               math.inf]},
    10: {"bernoulli_sibson": [1.2017627440397618, 1.3817612881714754,
                              1.687395907502963, 2.466604995963822],
         "bernoulli_hellinger": [1.2592603986078352, 1.633939045913841,
                                 2.972862019301657, 80.8616969802177],
         "gaussian_sibson": [0.9905007344332917, 1.0700330817481354,
                             1.1989476363991853, 1.5222612188617115],
         "gaussian_hellinger": [1.2849428930186244, 1.7590032139463214, 6.0,
                                math.inf]},
    50: {"bernoulli_sibson": [1.3882342155337162, 1.7598966100055977,
                              2.431344908944245, 4.278299192114763],
         "bernoulli_hellinger": [1.5086720949117394, 2.3561930198729426,
                                 6.344457009847843, 1686.0811822370847],
         "gaussian_sibson": [1.7367590216208908, 1.8253291206468694,
                             1.9659128163621629, 2.30756025842063],
         "gaussian_hellinger": [1.549993779024676, 2.590875003491501, 26.0,
                                math.inf]},
}


@pytest.mark.parametrize("name", ["bernoulli_sibson", "bernoulli_hellinger",
                                  "gaussian_sibson", "gaussian_hellinger"])
@pytest.mark.parametrize("n", sorted(_KERNEL_PINS))
def test_kernels_keep_their_pinned_values(name, n):
    kernel = getattr(models, name)
    first = models.GaussianModel(n, 1.0, 2.0) if name.startswith("gaussian") else n
    expected = _KERNEL_PINS[n][name]
    scalars = [kernel(first, order) for order in _PIN_ORDERS]
    assert all(type(value) is float for value in scalars)
    assert scalars == expected
    assert kernel(first, np.array(_PIN_ORDERS)).tolist() == expected


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 200), sigma_w2=st.floats(0.1, 10.0),
       orders=st.lists(st.floats(1.0, 64.0, exclude_min=True), min_size=1,
                       max_size=40))
def test_gaussian_hellinger_is_infinite_exactly_outside_its_region(n, sigma_w2, orders):
    g = models.GaussianModel(n, sigma_w2, 2.0)
    values = models.gaussian_hellinger(g, np.array(orders)).tolist()
    for p, value in zip(orders, values):
        assert (value == math.inf) == (1.0 + (2.0 - p) * p * g.snr <= 0.0)
        assert value >= 1.0


class TestBernoulliSmallBall:
    def test_values(self):
        L = models.bernoulli_small_ball()
        assert math.isclose(L(0.1), 0.2, rel_tol=1e-14)
        assert L(0.0) == 0.0
        assert L(1.0) == 1.0


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


class TestBernoulliSibson:
    def test_one_flip_order_two(self):
        # 2 * (Gamma(3)Gamma(1)/Gamma(4))^(1/2) = 2/sqrt(3)
        assert math.isclose(models.bernoulli_sibson(1, 2.0),
                            2.0 / math.sqrt(3.0), rel_tol=1e-12)

    def test_large_order_approaches_leakage(self):
        for n in (1, 4, 9):
            exp_form = models.bernoulli_sibson(n, 1e6)
            assert math.isclose(exp_form, math.exp(models.bernoulli_ml(n).exact),
                                rel_tol=1e-3)

    def test_small_order_approaches_mutual_information(self):
        mi = models.bernoulli_mutual_information(1)
        s = models.bernoulli_sibson(1, 1.001)
        assert abs(1.001 / 0.001 * math.log(s) - mi) < 1e-3


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
    # the quadrature's output before its n+1 integrals were batched; the
    # batched integration must reproduce it bit for bit
    @pytest.mark.parametrize("n, value", [
        (1, 0.19314718056284705),
        (10, 0.8539973454353614),
        (48, 1.5486626784784276),
        (200, 2.2391719209277308),
    ])
    def test_pinned_values(self, n, value):
        assert models.bernoulli_mutual_information(n) == value

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
        assert math.isclose(models.bernoulli_hellinger(1, 2.0), 4.0 / 3.0,
                            rel_tol=1e-12)
        assert math.isclose(models.bernoulli_hellinger(2, 2.0), 1.6,
                            rel_tol=1e-12)

    def test_central_binomial_identity(self):
        for n in range(1, 31):
            closed = (n + 1) / (2 * n + 1) * 4.0 ** n / comb(2 * n, n, exact=True)
            assert math.isclose(models.bernoulli_hellinger(n, 2.0), closed,
                                rel_tol=1e-10)
            assert models.bernoulli_hellinger(n, 2.0) <= \
                16.0 * math.sqrt(math.pi * n) / 21.0


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
        assert math.isclose(models.bernoulli_e_gamma_zeta(n, gamma, zeta),
                            expected, abs_tol=1e-7)

    def test_matches_generic_quadrature_path(self):
        for n, gamma, zeta in [(1, 1.0, 1.0), (5, 3.0, 1.5), (12, 0.7, 2.0)]:
            fast = models.bernoulli_e_gamma_zeta(n, gamma, zeta)
            slow = measures.e_gamma_zeta(models.bernoulli_joint(n), gamma, zeta)
            assert math.isclose(fast, slow, abs_tol=1e-7)

    def test_monotone_non_increasing_in_gamma(self):
        # holds from gamma = zeta on; below that the subtracted offset
        # max(0, zeta - gamma) shrinks with gamma as well
        zeta = 1.5
        values = [models.bernoulli_e_gamma_zeta(8, g, zeta)
                  for g in (1.5, 2.0, 4.0, 8.0, 16.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_gamma_zero_is_zero(self):
        assert models.bernoulli_e_gamma_zeta(6, 0.0, 2.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 50), gamma=st.floats(1e-2, 32.0),
           zeta=st.floats(1e-2, 32.0),
           scale=st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x))
    def test_scaling_gamma_and_zeta_scales_the_value(self, n, gamma, zeta, scale):
        # the invariance behind the ratio search of `bernoulli --optimize`;
        # the tolerances absorb the last bit of (scale*gamma)/(scale*zeta)
        e = models.bernoulli_e_gamma_zeta(n, gamma, zeta)
        e_scaled = models.bernoulli_e_gamma_zeta(n, scale * gamma, scale * zeta)
        assert math.isclose(e_scaled, scale * e,
                            abs_tol=1e-13 * scale * max(gamma, zeta))
        L = models.bernoulli_small_ball()
        bound = hockey_stick_bound(e, gamma, zeta, L).value
        bound_scaled = hockey_stick_bound(e_scaled, scale * gamma,
                                          scale * zeta, L).value
        assert math.isclose(bound_scaled, bound, rel_tol=1e-9, abs_tol=1e-15)


class TestBernoulliUpperBound:
    def test_values(self):
        assert math.isclose(models.bernoulli_upper_bound(6), 1.0 / 6.0,
                            rel_tol=1e-14)
        assert math.isclose(models.bernoulli_upper_bound(1), 0.4082482904638,
                            rel_tol=1e-10)
        assert math.isclose(models.bernoulli_upper_bound(24), 1.0 / 12.0,
                            rel_tol=1e-14)


class TestGaussian:
    def test_small_ball(self):
        g = models.GaussianModel(1, 2.0 / math.pi, 1.0)
        L = models.gaussian_small_ball(g)
        assert math.isclose(L(0.5), 0.5, rel_tol=1e-12)
        assert L(0.0) == 0.0
        assert L(1e9) == 1.0

    def test_sibson_values(self):
        assert math.isclose(
            models.gaussian_sibson(models.GaussianModel(1, 1.0, 2.0), 2.0),
            0.5 * math.log(2.0), rel_tol=1e-12)
        tiny = models.gaussian_sibson(models.GaussianModel(1, 1e-14, 1.0), 2.0)
        assert tiny < 1e-13
        g = models.GaussianModel(3, 1.0, 2.0)
        assert math.isclose(models.gaussian_sibson(g, 1.0),
                            models.gaussian_mutual_information(g), rel_tol=1e-14)

    def test_hellinger_values(self):
        g0 = models.GaussianModel(0, 1.0, 1.0)
        assert models.gaussian_hellinger(g0, 1.5) == 1.0
        g1 = models.GaussianModel(1, 1.0, 1.0)
        s = g1.snr
        expected = math.sqrt((1 + s) ** 1.5 / (1 + 0.75 * s))
        assert math.isclose(models.gaussian_hellinger(g1, 1.5), expected,
                            rel_tol=1e-12)
        assert math.isclose(models.gaussian_hellinger(g1, 2.0), 2.0,
                            rel_tol=1e-12)

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
        assert math.isclose(models.gaussian_hellinger(g, 2.0), val,
                            rel_tol=1e-7)

    def test_finiteness_region_boundary(self):
        g = models.GaussianModel(4, 1.0, 1.0)  # snr = 4
        for p in np.linspace(1.05, 8.0, 60):
            denom = 1.0 + (2.0 - p) * p * g.snr
            if denom <= 0:
                assert models.gaussian_hellinger(g, float(p)) == math.inf
            else:
                assert models.gaussian_hellinger(g, float(p)) >= 1.0

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
        assert math.isclose(models.gaussian_e_gamma_zeta(g, gamma, zeta),
                            expected, abs_tol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 200), sw2=st.floats(0.05, 20.0), s2=st.floats(0.05, 20.0),
           zeta=st.floats(0.1, 4.0),
           ratios=st.lists(st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x), max_size=6))
    def test_hockey_stick_batch_equals_scalar_calls(self, n, sw2, s2, zeta, ratios):
        g = models.GaussianModel(n, sw2, s2)
        edge = math.sqrt(1.0 + g.snr)  # a row has kinks where gamma/zeta > edge
        gammas = np.array([0.0, 0.5 * edge * zeta, 2.0 * edge * zeta]
                          + [t * zeta for t in ratios])
        alone = [models.gaussian_e_gamma_zeta(g, gamma, zeta) for gamma in gammas.tolist()]
        assert all(type(value) is float for value in alone)
        assert alone[0] == 0.0
        assert models.gaussian_e_gamma_zeta(g, gammas, zeta).tolist() == alone
        zetas = np.full(gammas.size, zeta)
        assert models.gaussian_e_gamma_zeta(g, gammas, zetas).tolist() == alone


class TestNoisyBernoulli:
    def test_clean_channel_recovers_plain_bound(self):
        n = 9
        res = models.noisy_bernoulli_bound(models.NoisyBernoulliModel(n, 0.0))
        plain = (2.0 / 27.0) / models.bernoulli_hellinger(n, 2.0)
        assert math.isclose(res.value, plain, rel_tol=1e-12)

    def test_fully_noisy_channel(self):
        res = models.noisy_bernoulli_bound(models.NoisyBernoulliModel(9, 0.5))
        assert math.isclose(res.value, 2.0 / 27.0, rel_tol=1e-12)

    def test_noise_strengthens_bound(self):
        for n in range(1, 51):
            noisy = models.noisy_bernoulli_bound(models.NoisyBernoulliModel(n, 0.25))
            plain = (2.0 / 27.0) / models.bernoulli_hellinger(n, 2.0)
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
        spec = DivergenceSpec(DivergenceKind.CHI_SQUARE)
        exact, contracted = {}, {}
        for n in (1, 2, 5):
            joint = models.noisy_bernoulli_joint(models.NoisyBernoulliModel(n, lam))
            exact[n] = measures.divergence_from_independence(joint, spec)
            contracted[n] = eta * (models.bernoulli_hellinger(n, 2.0) - 1.0)
        assert abs(exact[1] - contracted[1]) <= 1e-9
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
        assert not hb.nips_valid and hb.mi_valid
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
    """Gamma-ratio sums agree with direct integration on the mixed joint."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("order", [1.5, 2.0, 3.0])
    def test_sibson_exponential_form(self, n, order):
        joint = models.bernoulli_joint(n)
        i_quad = measures.divergence_from_independence(
            joint, DivergenceSpec(DivergenceKind.SIBSON_MI, alpha=order))
        exp_quad = math.exp((order - 1.0) / order * i_quad)
        assert math.isclose(exp_quad, models.bernoulli_sibson(n, order),
                            abs_tol=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("order", [1.5, 2.0, 3.0])
    def test_hellinger_moment_form(self, n, order):
        joint = models.bernoulli_joint(n)
        h_quad = measures.divergence_from_independence(
            joint, DivergenceSpec(DivergenceKind.HELLINGER_P, p=order))
        moment_quad = (order - 1.0) * h_quad + 1.0
        assert math.isclose(moment_quad, models.bernoulli_hellinger(n, order),
                            rel_tol=1e-6)
