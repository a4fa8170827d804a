"""Bound formulas against grid-search oracles and hand-derived constants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds import bounds as B
from riskbounds import cli, models, oracle
from riskbounds.errors import EtaOutOfRange, NanValue, RiskboundsError
from riskbounds.quadrature import brent_max

L2 = B.SmallBallFn(2.0)


def grid_max(g, rho_max, points=10 ** 6):
    rho = np.linspace(rho_max / points, rho_max, points)
    vals = np.array([g(r) for r in rho]) if not callable(getattr(g, "shape", None)) \
        else g(rho)
    return float(np.max(vals)), float(rho[int(np.argmax(vals))])


class TestMaximizeRho:
    def test_symmetric_parabola(self):
        rho, val = B.maximize_rho(1.0, 1.0)
        assert (rho, val) == (0.5, 0.25)

    def test_leakage_constant(self):
        for n in (1, 10, 100):
            c = 2.0 * (2.0 + math.sqrt(math.pi * n / 2.0))
            _, val = B.maximize_rho(c, 1.0)
            assert math.isclose(val, 1.0 / (8.0 * (2.0 + math.sqrt(math.pi * n / 2.0))),
                                rel_tol=1e-14)

    def test_with_offset(self):
        rho, val = B.maximize_rho(4.0, 1.0, 0.5)
        assert math.isclose(rho, 1.0 / 16.0, rel_tol=1e-12)
        assert math.isclose(val, 1.0 / 64.0, rel_tol=1e-12)
        # verify against a dense grid
        gval, _ = grid_max(lambda rho: rho * (1.0 - 4.0 * rho - 0.5), 0.25)
        assert math.isclose(val, gval, rel_tol=1e-10)

    def test_degenerate_returns_sentinel(self):
        assert B.maximize_rho(0.0, 1.0) == (math.inf, math.inf)
        # an infinite or NaN penalty leaves no radius with a positive value
        assert B.maximize_rho(math.inf, 1.0) == (0.0, 0.0)
        assert B.maximize_rho(math.nan, 1.0) == (0.0, 0.0)
        # gamma = inf at slope 0: the penalty is inf * 0 = NaN, a vacuous bound
        res = B.hockey_stick_bound(0.1, math.inf, 1.0, B.SmallBallFn(0.0))
        assert res.vacuous and res.value == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            B.maximize_rho(-1.0, 1.0)
        with pytest.raises(ValueError):
            B.maximize_rho(1.0, 0.0)
        with pytest.raises(ValueError):
            B.maximize_rho(1.0, 1.0, 1.0)


class TestSibsonBound:
    def test_independence_value(self):
        res = B.sibson_bound(0.0, 2.0, L2)
        assert math.isclose(res.value, 2.0 / 27.0, rel_tol=1e-12)

    def test_bernoulli_one_flip_vs_grid(self):
        i2 = models.bernoulli_sibson_first_order(1, 2.0).value
        res = B.sibson_bound(i2, 2.0, L2)
        gval, _ = grid_max(
            lambda r: r * (1 - math.exp(0.5 * (i2 + math.log(2 * r)))), 0.5)
        assert abs(res.value - gval) < 1e-8

    def test_large_alpha_matches_leakage_bound(self):
        ml = models.bernoulli_ml(10).upper
        sib = B.sibson_bound(ml, 1e9, L2)
        lead = B.ml_bound(ml, L2)
        assert math.isclose(sib.value, lead.value, rel_tol=1e-6)

    def test_closed_form_rho_matches_grid(self):
        i2 = 0.7
        res = B.sibson_bound(i2, 3.0, L2)
        g = lambda r: r * (1 - math.exp((2 / 3) * (i2 + math.log(2 * r))))
        _, grho = grid_max(g, 0.5)
        x, _, _ = brent_max(g, grho - 1e-6, grho + 1e-6, tol=1e-14)
        assert abs(res.rho_star - x) / x < 1e-8

    def test_infinite_divergence_is_vacuous(self):
        res = B.sibson_bound(math.inf, 2.0, L2)
        assert res.value == 0.0 and res.vacuous


class TestLeakageBound:
    def test_paper_constant(self):
        for n in (1, 7, 200):
            res = B.ml_bound(models.bernoulli_ml(n).upper, L2)
            assert math.isclose(res.value,
                                1.0 / (8.0 * (2.0 + math.sqrt(math.pi * n / 2.0))),
                                rel_tol=1e-13)

    def test_independence(self):
        # sup of rho*(1 - 2*rho): same objective as the unit hockey-stick case
        assert math.isclose(B.ml_bound(0.0, L2).value, 1.0 / 8.0, rel_tol=1e-13)

    def test_asymptotic_further_bound(self):
        for n in (41, 127, 500):
            res = B.ml_bound(models.bernoulli_ml(n).upper, L2)
            assert res.value >= 1.0 / (5.0 * math.sqrt(2.0 * math.pi * n))


class TestHellingerBound:
    def test_bernoulli_chi_square_closed_form(self):
        for n in (1, 5, 30):
            chi2 = models.bernoulli_hellinger_first_order(n, 2.0).value
            res = B.hellinger_bound(chi2, 2.0, L2)
            assert math.isclose(res.value, (2.0 / 27.0) / (chi2 + 1.0), rel_tol=1e-12)

    def test_independence(self):
        assert math.isclose(B.hellinger_bound(0.0, 2.0, L2).value, 2.0 / 27.0,
                            rel_tol=1e-13)

    def test_gaussian_three_halves_dominates_simplified_constant(self):
        for n in (1, 4, 16):
            g = models.GaussianModel(n, 1.0, 2.0)
            h = models.gaussian_hellinger_first_order(g, 1.5).value
            res = B.hellinger_bound(h, 1.5, models.gaussian_small_ball(g))
            assert res.value >= models.gaussian_hellinger_closed_form_bound(g)


class TestHockeyStickBound:
    def test_bernoulli_closed_form(self):
        n, gamma, zeta = 8, 3.0, 1.5
        e = _bernoulli_egz(n, gamma, zeta)
        res = B.hockey_stick_bound(e, gamma, zeta, L2)
        assert math.isclose(res.value, (zeta - e) ** 2 / (8.0 * gamma * zeta),
                            rel_tol=1e-12)

    def test_gaussian_coefficient(self):
        g = models.GaussianModel(3, 1.0, 2.0)
        gamma, zeta = 2.0, 1.5
        e = models.gaussian_e_gamma_zeta(g, gamma, zeta).value
        res = B.hockey_stick_bound(e, gamma, zeta, models.gaussian_small_ball(g))
        expected = math.sqrt(2.0 * g.sigma_w_sq * math.pi) \
            * (zeta - e) ** 2 / (8.0 * gamma * zeta)
        assert math.isclose(res.value, expected, rel_tol=1e-12)

    def test_independence_unit_parameters(self):
        res = B.hockey_stick_bound(0.0, 1.0, 1.0, L2)
        assert math.isclose(res.value, 0.125, rel_tol=1e-13)

    def test_vacuous_when_divergence_reaches_zeta(self):
        res = B.hockey_stick_bound(1.5, 1.0, 1.5, L2)
        assert res.value == 0.0 and res.vacuous

    def test_gamma_below_zeta_branch_matches_grid(self):
        e, gamma, zeta = 0.1, 0.8, 1.2
        res = B.hockey_stick_bound(e, gamma, zeta, L2)
        g = lambda r: r * (1 - (e + gamma * min(2 * r, 1.0)
                                + max(0.0, zeta - gamma)) / zeta)
        gval, _ = grid_max(g, 0.5)
        assert abs(res.value - gval) < 1e-8


class TestMiBaseline:
    def test_zero_information_vs_grid(self):
        res = B.mi_baseline_bound(0.0, L2)
        g = lambda r: r * (1 - math.log(2.0) / (-math.log(min(2 * r, 1.0)))) \
            if 2 * r < 1 else -1.0
        gval, _ = grid_max(g, 0.5)
        assert abs(res.value - gval) < 1e-8

    def test_below_leakage_bound_on_ten_flips(self):
        mi = models.bernoulli_mutual_information(10)
        base = B.mi_baseline_bound(mi, L2)
        lead = B.ml_bound(models.bernoulli_ml(10).upper, L2)
        assert base.value < lead.value


def radius_scan(g, rho_max):
    """The oracle of every closed-form radius: the sup of g over
    (0, rho_max] from 512 even steps and one radius per decade from 1e-300
    of rho_max (at least the smallest normal double), refined by Brent's
    method in log rho between the best radius's neighbours.  Returns
    ``(value, rho)``."""
    grid = np.unique(np.concatenate([
        np.linspace(0.0, rho_max, 513)[1:],
        np.geomspace(max(rho_max * 1e-300, np.finfo(float).tiny), rho_max, 301),
    ])).tolist()
    values = [g(rho) for rho in grid]
    best = int(np.argmax(values))
    lo = grid[best - 1] if best > 0 else grid[0] * 0.5
    hi = grid[best + 1] if best + 1 < len(grid) else rho_max
    log_rho, value, _ = brent_max(lambda x: g(math.exp(x)), math.log(lo),
                                  math.log(hi), tol=1e-12)
    if values[best] > value:
        return values[best], grid[best]
    return value, math.exp(log_rho)


def _penalized(penalty, c):
    """rho -> rho*(1 - penalty(L(rho))) with L(rho) = min(c*rho, 1); a
    penalty beyond the largest double counts as -inf."""
    def g(rho):
        try:
            return rho * (1.0 - penalty(min(c * rho, 1.0)))
        except OverflowError:
            return -math.inf
    return g


def _mi_objective(x, c):
    """rho -> rho*(1 - (I + log 2)/log(1/L(rho))), -inf where L(rho) = 1."""
    a = x + math.log(2.0)
    return lambda rho: rho * (1.0 - a / -math.log(c * rho)) if c * rho < 1.0 else -math.inf


def _hellinger_objective(x, c, p):
    """rho -> rho*(1 - L(rho)^((p-1)/p) * ((p-1)*H_p + 1)^(1/p)) at H_p = x."""
    return _penalized(lambda l: l ** ((p - 1.0) / p) * ((p - 1.0) * x + 1.0) ** (1.0 / p), c)


def _egz_objective(x, c, gamma, zeta):
    """rho -> rho*(1 - (E + gamma*L(rho) + max(0, zeta - gamma))/zeta) at E = x."""
    return _penalized(lambda l: (x + gamma * l + max(0.0, zeta - gamma)) / zeta, c)


@settings(max_examples=200, deadline=None)
@given(i_value=st.floats(0.0, 300.0), c=st.floats(1e-3, 10.0))
def test_mi_closed_form_radius_matches_the_scan(i_value, c):
    # the objective scanned numerically is the oracle of the closed form
    closed = B.mi_baseline_bound(i_value, B.SmallBallFn(c))
    value, rho = radius_scan(_mi_objective(i_value, c), 1.0 / c)
    assert closed.evaluations == 1
    # the closed form is the supremum, and the scan sees radii down to
    # 1e-300 of the largest one; the objective is flat to rounding within
    # ~1e-8 of rho*, so that is as close as a search can place it
    assert closed.value >= value * (1.0 - 1e-12)
    assert closed.value <= value * (1.0 + 1e-12)
    assert abs(closed.rho_star - rho) <= 1e-6 * closed.rho_star


_order = st.floats(-2.0, math.log10(63.0)).map(lambda x: 1.0 + 10.0 ** x)
_scale = st.floats(-2.0, 1.5).map(lambda x: 10.0 ** x)

# each family's parameters, its bound at divergence x, and its objective
# in rho at x under the slope c; the sdpi families contract x by eta and
# take the bound of the method they name
FAMILIES = {
    "sibson": (st.fixed_dictionaries({"alpha": _order}),
               lambda x, L, alpha: B.sibson_bound(x, alpha, L),
               lambda x, c, alpha: _penalized(
                   lambda l: (math.exp(x) * l) ** ((alpha - 1.0) / alpha), c)),
    "ml": (st.just({}), lambda x, L: B.ml_bound(x, L),
           lambda x, c: _penalized(lambda l: math.exp(x) * l, c)),
    "hellinger": (st.fixed_dictionaries({"p": _order}),
                  lambda x, L, p: B.hellinger_bound(x, p, L), _hellinger_objective),
    "egz": (st.fixed_dictionaries({"gamma": _scale, "zeta": _scale}),
            lambda x, L, gamma, zeta: B.hockey_stick_bound(x, gamma, zeta, L),
            _egz_objective),
    "mi": (st.just({}), lambda x, L: B.mi_baseline_bound(x, L), _mi_objective),
    "sdpi-hellinger": (st.fixed_dictionaries({"eta": st.floats(0.0, 1.0), "p": _order}),
                       lambda x, L, eta, p: B.sdpi_bound(x, eta, "hellinger", L, p=p),
                       lambda x, c, eta, p: _hellinger_objective(eta * x, c, p)),
    "sdpi-egz": (st.fixed_dictionaries({"eta": st.floats(0.0, 1.0), "gamma": _scale,
                                        "zeta": _scale}),
                 lambda x, L, eta, gamma, zeta: B.sdpi_bound(x, eta, "egz", L,
                                                             gamma=gamma, zeta=zeta),
                 lambda x, c, eta, gamma, zeta: _egz_objective(eta * x, c, gamma, zeta)),
}
_family = st.sampled_from(sorted(FAMILIES)).flatmap(
    lambda name: st.tuples(st.just(name), FAMILIES[name][0]))
_divergence_values = st.floats(0.0, 1.0) | st.floats(0.0, 50.0)


@settings(max_examples=300, deadline=None)
@given(family=_family, x=_divergence_values, c=st.floats(1e-3, 10.0))
def test_closed_form_radius_matches_the_scan(family, x, c):
    # each family's objective scanned numerically is the oracle of its
    # closed form
    name, params = family
    _, bound, objective = FAMILIES[name]
    closed = bound(x, B.SmallBallFn(c), **params)
    value, _ = radius_scan(objective(x, c, **params), 1.0 / c)
    assert closed.evaluations == 1
    if closed.vacuous or value <= 0.0:
        assert closed.vacuous and value <= 0.0
    else:
        assert math.isclose(closed.value, value, rel_tol=1e-10)


@settings(max_examples=200, deadline=None)
@given(family=_family, xs=st.tuples(_divergence_values, _divergence_values),
       c=st.floats(1e-3, 10.0))
def test_bounds_do_not_rise_with_the_divergence(family, xs, c):
    name, params = family
    bound, L = FAMILIES[name][1], B.SmallBallFn(c)
    low, high = sorted(xs)
    assert bound(low, L, **params).value >= bound(high, L, **params).value


class TestSdpiBound:
    def test_eta_one_reduces_to_plain(self):
        h = 0.8
        plain = B.hellinger_bound(h, 2.0, L2)
        refined = B.sdpi_bound(h, 1.0, "hellinger", L2, p=2.0)
        assert math.isclose(refined.value, plain.value, rel_tol=1e-12)

    def test_eta_zero_gives_independence_value(self):
        refined = B.sdpi_bound(5.0, 0.0, "hellinger", L2, p=2.0)
        assert math.isclose(refined.value, 2.0 / 27.0, rel_tol=1e-12)

    def test_noisy_bernoulli_closed_form(self):
        lam, n = 0.25, 12
        chi2 = models.bernoulli_hellinger_first_order(n, 2.0).value
        eta = (1.0 - 2.0 * lam) ** 2
        res = B.sdpi_bound(chi2, eta, "hellinger", L2, p=2.0)
        assert math.isclose(res.value, (2.0 / 27.0) / (eta * chi2 + 1.0),
                            rel_tol=1e-12)

    def test_monotone_in_eta(self):
        values = [B.sdpi_bound(1.0, eta, "hellinger", L2, p=2.0).value
                  for eta in (1.0, 0.6, 0.3, 0.0)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_contracts_the_named_method(self):
        # E = 0.4 contracted to 0.2, against the plain bound at 0.2
        res = B.sdpi_bound(0.4, 0.5, "egz", L2, gamma=3.0, zeta=1.5)
        plain = B.hockey_stick_bound(0.2, 3.0, 1.5, L2)
        assert (res.value, res.rho_star) == (plain.value, plain.rho_star)
        assert (res.method, res.params) == ("sdpi", {"gamma": 3.0, "zeta": 1.5,
                                                     "eta": 0.5})

    def test_eta_out_of_range(self):
        # NaN fails the range check too, and eta is checked before the divergence
        for eta in (1.5, -0.1, math.nan):
            with pytest.raises(EtaOutOfRange):
                B.sdpi_bound(1.0, eta, "hellinger", L2, p=2.0)
            with pytest.raises(EtaOutOfRange):
                B.sdpi_bound(math.nan, eta, "hellinger", L2, p=2.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            B.sdpi_bound(1.0, 0.5, "bogus", L2)


BOUND_FUNCTIONS = {
    "sibson": lambda x, L: B.sibson_bound(x, 2.0, L),
    "ml": lambda x, L: B.ml_bound(x, L),
    "hellinger": lambda x, L: B.hellinger_bound(x, 2.0, L),
    "egz": lambda x, L: B.hockey_stick_bound(x, 3.0, 1.5, L),
    "mi": lambda x, L: B.mi_baseline_bound(x, L),
    "sdpi": lambda x, L: B.sdpi_bound(x, 0.5, "hellinger", L, p=2.0),
}
# at a divergence of 1e3, e^1000 overflows (sibson, ml), E exceeds zeta
# (egz), and the MI bound, near e^-1000, underflows to 0
VACUOUS_AT_1E3 = {"sibson", "ml", "egz", "mi"}


class TestNonFiniteDivergence:
    @pytest.mark.parametrize("L", [L2], ids=["linear"])
    @pytest.mark.parametrize("name", sorted(BOUND_FUNCTIONS))
    def test_nan_raises_and_inf_is_vacuous(self, name, L):
        with pytest.raises(RiskboundsError):
            BOUND_FUNCTIONS[name](math.nan, L)
        res = BOUND_FUNCTIONS[name](math.inf, L)
        assert res.value == 0.0 and res.vacuous

    @pytest.mark.parametrize("L", [L2], ids=["linear"])
    @pytest.mark.parametrize("name", sorted(BOUND_FUNCTIONS))
    def test_large_finite_divergence_does_not_overflow(self, name, L):
        # e^1000 is beyond the largest double, and E = 1e3 exceeds zeta:
        # those forms are vacuous, and no form raises or turns NaN
        res = BOUND_FUNCTIONS[name](1e3, L)
        assert res.vacuous == (name in VACUOUS_AT_1E3)
        assert (res.value == 0.0) if res.vacuous else 0.0 < res.value < math.inf

    def test_overflowed_moment_is_vacuous_not_nan(self):
        # the moment 2*H_3 + 1 of H_3 = 1e308 overflows to inf
        res = B.hellinger_bound(1e308, 3.0, L2)
        assert res.vacuous and res.value == 0.0

    def test_bound_result_rejects_nan(self):
        with pytest.raises(RiskboundsError):
            B.BoundResult(math.nan, 0.0, "mi")


class TestSmallBallSlope:
    """The slope c of L(rho) = min(c*rho, 1) is the bounds' one small-ball
    input."""

    @pytest.mark.parametrize("name", sorted(BOUND_FUNCTIONS))
    def test_zero_slope_leaves_the_objective_unbounded(self, name):
        # no ball has prior mass, so no radius is penalized
        res = BOUND_FUNCTIONS[name](0.5, B.SmallBallFn(0.0))
        assert res.value == res.rho_star == math.inf
        assert not res.vacuous

    def test_rejects_a_nan_negative_or_infinite_slope(self):
        with pytest.raises(NanValue):
            B.SmallBallFn(math.nan)
        for bad in (-1.0, math.inf):
            with pytest.raises(ValueError, match="finite and non-negative"):
                B.SmallBallFn(bad)


class TestOptimizeBound:
    def test_single_point_grid_equals_direct(self):
        i2 = models.bernoulli_sibson_first_order(5, 2.0).value
        direct = B.sibson_bound(i2, 2.0, L2)
        opt = B.optimize_bound(
            lambda alpha: models.bernoulli_sibson_first_order(5, alpha),
            "sibson", {"alpha": [2.0]}, L2)
        assert math.isclose(opt.value, direct.value, rel_tol=1e-12)

    def test_grid_maximum_dominates_members(self):
        grid = 1.0 + np.geomspace(1e-2, 63.0, 40)
        # the values alone: the grid maximum stands
        callback = lambda alpha: models.bernoulli_sibson_first_order(10, alpha).value
        opt = B.optimize_bound(callback, "sibson", {"alpha": grid}, L2)
        at_two = B.sibson_bound(callback(2.0), 2.0, L2)
        assert opt.value >= at_two.value
        assert opt.evaluations >= len(grid)

    def test_bernoulli_method_ordering_at_ten_flips(self):
        grid = 1.0 + np.geomspace(1e-2, 63.0, 40)
        gz = np.geomspace(1e-2, 32.0, 48)
        egz = B.optimize_bound(_per_point(_bernoulli_egz, 10),
                               "egz", {"gamma": gz, "zeta": gz}, L2)
        hel = B.optimize_bound(
            lambda p: models.bernoulli_hellinger_first_order(10, p).value,
            "hellinger", {"p": grid}, L2)
        mi = B.mi_baseline_bound(models.bernoulli_mutual_information(10), L2)
        assert egz.value >= hel.value >= mi.value

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            B.optimize_bound(lambda alpha: 0.0, "sibson", {"alpha": []}, L2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_value_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            B.optimize_bound(lambda alpha: 0.5, "sibson", {"alpha": [2.0, bad]}, L2)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            B.optimize_bound(lambda: 0.0, "bogus", {}, L2)

    def test_callback_failure_propagates(self):
        def boom(alpha):
            raise RuntimeError("callback exploded")

        with pytest.raises(RuntimeError):
            B.optimize_bound(boom, "sibson", {"alpha": [2.0]}, L2)

    def test_divergence_infinite_treated_as_vacuous(self):
        g = models.GaussianModel(10, 1.0, 1.0)

        def callback(p):
            return models.gaussian_hellinger_first_order(g, p).value

        opt = B.optimize_bound(callback, "hellinger",
                               {"p": [1.5, 2.0, 8.0]}, models.gaussian_small_ball(g))
        assert opt.value > 0.0

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_infinite_divergence_everywhere_is_vacuous(self, vectorized):
        # an array callback, or a scalar kernel called once per point
        if vectorized:
            def callback(p):
                return np.full(p.shape, math.inf)
        else:
            callback = _per_point(lambda first, p: math.inf, None)
        grid = [1.5, 2.0, 8.0]
        res = B.optimize_bound(callback, "hellinger", {"p": grid}, L2)
        # every point is vacuous with one evaluation, and without a
        # condition the first grid point stands
        assert res == B.BoundResult(0.0, 0.0, "hellinger", {"p": 1.5},
                                    len(grid), vacuous=True, path="grid")


    def test_falling_bracket_needs_a_finite_falling_end(self):
        # a -inf condition (a bound falling without limit) counts as
        # falling; the bracket's falling end must be finite, and a NaN or
        # +inf condition anywhere leaves no bracket
        xs = [0.0, 1.0, 2.0, 3.0]
        assert B._falling_bracket(xs, [1.0, 0.5, -0.5, -math.inf], 1) == 1
        assert B._falling_bracket(xs, [1.0, 0.5, -math.inf, -math.inf], 1) is None
        assert B._falling_bracket(xs, [1.0, 0.5, -0.5, math.nan], 1) is None
        assert B._falling_bracket(xs, [math.inf, 0.5, -0.5, -1.0], 1) is None


def _bernoulli_egz(n, gamma, zeta):
    """The Bernoulli E_{gamma,zeta} at one (gamma, zeta) pair."""
    return models.bernoulli_e_gamma_zeta_batch(n, gamma, zeta).value[0]


def _per_point(kernel, first):
    """The array callback that calls a scalar ``kernel(first, ...)`` once
    per parameter point."""
    return lambda **arrays: [kernel(first, *point)
                             for point in zip(*(a.tolist() for a in arrays.values()))]


def _bound_at(method, callback, params, L):
    """The bound at one parameter point, from a call of length 1; 0 where
    the divergence is infinite."""
    out = callback(**{name: np.array([x]) for name, x in params.items()})
    value = np.broadcast_to(out.value if isinstance(out, B.FirstOrder) else out, (1,))[0]
    if value == math.inf:
        return 0.0
    if method == "sibson":
        return B.sibson_bound(value, params["alpha"], L).value
    if method == "hellinger":
        return B.hellinger_bound(value, params["p"], L).value
    return B.hockey_stick_bound(value, params["gamma"], params["zeta"], L).value


def _divergence(setting, n, method):
    """The divergence callback of ``method`` at n, and the small-ball
    function; the Sibson and Hellinger callbacks report their condition."""
    if setting == "bernoulli":
        callbacks = {
            "sibson": lambda alpha: models.bernoulli_sibson_first_order(n, alpha),
            "hellinger": lambda p: models.bernoulli_hellinger_first_order(n, p),
            "egz": _per_point(_bernoulli_egz, n),
        }
        return callbacks[method], models.bernoulli_small_ball()
    g = models.GaussianModel(n, 1.0, 2.0)
    callbacks = {
        "sibson": lambda alpha: models.gaussian_sibson_first_order(g, alpha),
        # +inf from p = 2 + 1/snr on
        "hellinger": lambda p: models.gaussian_hellinger_first_order(g, p),
        "egz": lambda gamma, zeta: models.gaussian_e_gamma_zeta(g, gamma, zeta),
    }
    return callbacks[method], models.gaussian_small_ball(g)


_orders = st.lists(_order, min_size=1, max_size=6, unique=True)
_scales = st.lists(_scale, min_size=1, max_size=4, unique=True)


@settings(max_examples=30, deadline=None)
@given(setting=st.sampled_from(["bernoulli", "gaussian"]), n=st.integers(1, 50),
       method=st.sampled_from(["sibson", "hellinger", "egz"]), orders=_orders,
       gammas=_scales, zetas=_scales)
def test_optimize_bound_dominates_its_grid(setting, n, method, orders, gammas, zetas):
    callback, L = _divergence(setting, n, method)
    if method == "egz":
        grid = {"gamma": sorted(gammas), "zeta": sorted(zetas)}
    else:
        grid = {"alpha" if method == "sibson" else "p": sorted(orders)}
    seen = []  # every point optimize_bound evaluates, on the grid or by a root step

    def recorded(**params):
        seen.extend(dict(zip(params, values))
                    for values in zip(*(a.tolist() for a in params.values())))
        return callback(**params)

    res = B.optimize_bound(recorded, method, grid, L)
    names = sorted(grid)
    points = [dict(zip(names, values))
              for values in itertools.product(*(grid[name] for name in names))]
    assert seen[:len(points)] == points
    # each bound here is a closed form, one evaluation per point
    assert res.evaluations == len(seen)
    for params in seen:
        assert res.value >= _bound_at(method, callback, params, L)


class TestSibsonDominatesHellinger:
    """At a matched order the exponential form never loses to the moment form."""

    def test_pointwise_on_bernoulli_sweep(self):
        for n in range(1, 51):
            for order in (1.5, 2.0, 4.0):
                i_alpha = models.bernoulli_sibson_first_order(n, order).value
                sib = B.sibson_bound(i_alpha, order, L2).value
                hel = B.hellinger_bound(
                    models.bernoulli_hellinger_first_order(n, order).value, order, L2).value
                assert sib >= hel - 1e-12


class TestOptimizerTieBreak:
    def test_first_found_lowest_parameters_win(self):
        # when the divergence scales with zeta the bound depends only on
        # gamma/zeta, so (1, 1) and (2, 2) tie; the sweep must keep (1, 1)
        res = B.optimize_bound(lambda gamma, zeta: 0.1 * zeta, "egz",
                               {"gamma": [1.0, 2.0], "zeta": [1.0, 2.0]}, L2)
        assert res.params == {"gamma": 1.0, "zeta": 1.0}


class TestSandwichSpotChecks:
    """A light version of the global sandwich property (full in acceptance)."""

    def test_bernoulli_bounds_below_bayes_risk(self):
        n = 5
        risk = oracle.mc_risk(models.BernoulliUniformModel(n),
                              "posterior-median", 10 ** 4, seed=1)
        limit = risk.mean + 3.0 * risk.std_error
        i2 = models.bernoulli_sibson_first_order(n, 2.0).value
        assert B.sibson_bound(i2, 2.0, L2).value <= limit
        assert B.ml_bound(models.bernoulli_ml(n).upper, L2).value <= limit
