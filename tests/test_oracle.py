"""Monte-Carlo driver and brute-force divergence reference."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import betainc, betaincinv

from riskbounds import measures, models, oracle
from riskbounds.distributions import (
    DiscreteJoint,
    DivergenceKind,
    DivergenceSpec,
)
from riskbounds.errors import TooLarge, UnsupportedEstimator

ALL_SPECS = [
    DivergenceSpec(DivergenceKind.RENYI, alpha=2.5),
    DivergenceSpec(DivergenceKind.SIBSON_MI, alpha=3.0),
    DivergenceSpec(DivergenceKind.MAX_LEAKAGE),
    DivergenceSpec(DivergenceKind.HELLINGER_P, p=1.7),
    DivergenceSpec(DivergenceKind.CHI_SQUARE),
    DivergenceSpec(DivergenceKind.KL),
    DivergenceSpec(DivergenceKind.MUTUAL_INFORMATION),
    DivergenceSpec(DivergenceKind.E_GAMMA_ZETA, gamma=1.2, zeta=0.9),
]


class TestPosteriorMedian:
    def test_matches_scipy_beta_median(self):
        k = np.arange(0, 13)
        ours = oracle.posterior_median_bernoulli(k, 12)
        ref = stats.beta.ppf(0.5, k + 1, 12 - k + 1)
        assert np.allclose(ours, ref, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 200))
    def test_matches_betaincinv(self, data, n):
        k = data.draw(st.integers(0, n))
        ours = oracle.posterior_median_bernoulli(k, n)
        assert abs(ours - betaincinv(k + 1.0, n - k + 1.0, 0.5)) <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 200),
           lam=st.floats(0.0, 0.49))
    def test_noisy_median_halves_the_cut_posterior(self, data, n, lam):
        # u* is the median of Beta(a, b) cut to [lam, 1 - lam]
        k = data.draw(st.integers(0, n))
        a, b = k + 1.0, n - k + 1.0
        target = 0.5 * (betainc(a, b, lam) + betainc(a, b, 1.0 - lam))
        u_star = oracle.beta_quantile(a, b, target)
        # 50 halvings leave u* within 2^-51 of the root; betainc itself
        # errs by up to ~1e-14 at these parameters
        slack = 2.0 ** -50 * stats.beta.pdf(u_star, a, b) + 1e-13
        assert abs(betainc(a, b, u_star) - target) <= slack


def _per_sample_risk(n, trials, seed):
    """The Bernoulli posterior-median risk with the estimate computed per
    sample from the same Philox blocks: the oracle of the per-k table."""
    total = total_sq = 0.0
    base = np.random.Philox(key=seed)
    for index, start in enumerate(range(0, trials, oracle._BLOCK)):
        rng = np.random.Generator(base.jumped(index))
        w = rng.random(min(oracle._BLOCK, trials - start))
        losses = np.abs(w - oracle.posterior_median_bernoulli(rng.binomial(n, w), n))
        total += float(np.sum(losses))
        total_sq += float(np.sum(losses * losses))
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(var / trials)


class TestMcRisk:
    @pytest.mark.parametrize("model, estimator, seed, mean, se", [
        (models.BernoulliUniformModel(50), "posterior-median", 1,
         0.04352855143815396, 0.00011430150589289389),
        (models.BernoulliUniformModel(1), "posterior-median", 3,
         0.19529428232727722, 0.00043832705272802184),
        (models.NoisyBernoulliModel(13, 0.25), "posterior-median", 2,
         0.15396539262307124, 0.000377750200876044),
        (models.NoisyBernoulliModel(5, 0.5), "posterior-median", 0,
         0.2500374282175888, 0.00045575336653773705),
    ])
    def test_pinned_values(self, model, estimator, seed, mean, se):
        # pinned bit-for-bit at 10^5 trials; the per-k table must not move them
        est = oracle.mc_risk(model, estimator, 10 ** 5, seed)
        assert (est.mean, est.std_error) == (mean, se)

    @pytest.mark.parametrize("n, trials, seed", [(1, 10 ** 4, 0), (12, 70000, 4),
                                                 (50, 40000, 9), (7, 10 ** 5, 8)])
    def test_table_matches_per_sample_estimates(self, n, trials, seed):
        est = oracle.mc_risk(models.BernoulliUniformModel(n), "posterior-median",
                             trials, seed)
        assert (est.mean, est.std_error) == _per_sample_risk(n, trials, seed)

    @pytest.mark.parametrize("model, estimator", [
        (models.BernoulliUniformModel(9), "posterior-median"),
        (models.NoisyBernoulliModel(6, 0.2), "posterior-median"),
        (models.GaussianModel(4, 1.0, 2.0), "posterior-mean"),
    ])
    def test_worker_count_moves_no_bit(self, model, estimator, monkeypatch):
        # 1 to 6 blocks, whole and ragged, on one worker and on up to four
        workers = []
        real_pool = oracle.ThreadPoolExecutor

        def counted_pool(max_workers):
            workers.append(max_workers)
            return real_pool(max_workers)

        monkeypatch.setattr(oracle, "ThreadPoolExecutor", counted_pool)
        block = oracle._BLOCK
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches, more orderings
        try:
            for trials in [10 ** 4, block, block + 1, 10 ** 5, 5 * block + 7]:
                blocks = -(-trials // block)
                results = []
                for cpus in (1, 4):
                    monkeypatch.setattr(oracle, "_usable_cpus",
                                        lambda cpus=cpus: cpus)
                    est = oracle.mc_risk(model, estimator, trials, seed=5)
                    results.append((est.mean, est.std_error))
                    assert workers[-1] == min(blocks, cpus)
                assert results[0] == results[1], trials
        finally:
            sys.setswitchinterval(interval)

    def test_failing_block_raises_its_own_error(self, monkeypatch):
        class BlockFailure(Exception):
            pass

        real = oracle._simulate_block

        def fail_on_ragged_block(model, table, size, rng):
            if size < oracle._BLOCK:
                raise BlockFailure("synthetic blow-up")
            return real(model, table, size, rng)

        monkeypatch.setattr(oracle, "_simulate_block", fail_on_ragged_block)
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
        with pytest.raises(BlockFailure):
            oracle.mc_risk(models.BernoulliUniformModel(3), "posterior-median",
                           3 * oracle._BLOCK + 7)

    def test_reproducible_bit_for_bit(self):
        m = models.BernoulliUniformModel(4)
        a = oracle.mc_risk(m, "posterior-median", 10 ** 4, seed=42)
        b = oracle.mc_risk(m, "posterior-median", 10 ** 4, seed=42)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_seed_changes_result(self):
        m = models.BernoulliUniformModel(4)
        a = oracle.mc_risk(m, "posterior-median", 10 ** 4, seed=0)
        b = oracle.mc_risk(m, "posterior-median", 10 ** 4, seed=1)
        assert a.mean != b.mean

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            oracle.mc_risk(models.BernoulliUniformModel(2), "sample-mean", 100)

    def test_bernoulli_sample_mean_under_upper_bound(self):
        est = oracle.mc_risk(models.BernoulliUniformModel(6), "sample-mean",
                             10 ** 5, seed=3)
        assert est.mean <= 1.0 / 6.0 + 3.0 * est.std_error

    def test_gaussian_posterior_mean_under_upper_bound(self):
        g = models.GaussianModel(5, 1.0, 2.0)
        est = oracle.mc_risk(g, "posterior-mean", 10 ** 5, seed=4)
        assert est.mean <= models.gaussian_upper_bound(g) + 3.0 * est.std_error
        # analytic absolute risk of the posterior mean: sqrt(2 v / pi)
        v = g.sigma_w_sq / (1.0 + g.snr)
        assert abs(est.mean - math.sqrt(2.0 * v / math.pi)) \
            <= 4.0 * est.std_error

    def test_degenerate_prior_risk_vanishes(self):
        g = models.GaussianModel(3, 1e-14, 1.0)
        est = oracle.mc_risk(g, "posterior-mean", 10 ** 4, seed=5)
        assert est.mean < 1e-6

    def test_noisy_posterior_median_beats_sample_mean(self):
        m = models.NoisyBernoulliModel(8, 0.25)
        med = oracle.mc_risk(m, "posterior-median", 10 ** 5, seed=6)
        sm = oracle.mc_risk(m, "sample-mean", 10 ** 5, seed=6)
        assert med.mean <= sm.mean + 3.0 * sm.std_error

    def test_unsupported_estimators(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before the estimator was checked")

        # every model rejects an estimator before its first block, the
        # discrete ones while tabulating it
        monkeypatch.setattr(oracle, "_simulate_block", no_sampling)
        for model, estimator in [
            (models.BernoulliUniformModel(2), "map"),
            (models.BernoulliUniformModel(2), "posterior-mean"),
            (models.NoisyBernoulliModel(2, 0.5), "sample-mean"),
            (models.NoisyBernoulliModel(7, 0.1), "posterior-mean"),
            (models.GaussianModel(3, 1.0, 2.0), "sample-mean"),
            (models.GaussianModel(3, 1.0, 2.0), "posterior-median"),
            (models.HideAndSeekModel(d=4, m=1, b=1.0, theta=0.1, n=1),
             "posterior-median"),
        ]:
            with pytest.raises(UnsupportedEstimator):
                oracle.mc_risk(model, estimator, 10 ** 4)

    def test_gaussian_without_samples_fails_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before n was checked")

        monkeypatch.setattr(oracle, "_simulate_block", no_sampling)
        with pytest.raises(ValueError):
            oracle.mc_risk(models.GaussianModel(0, 1.0, 2.0), "posterior-mean",
                           10 ** 4)


_MC_MODELS = {
    # setting -> (its estimator, a strategy for one of its models)
    "bernoulli": ("posterior-median",
                  st.builds(models.BernoulliUniformModel, st.integers(1, 60))),
    "noisy-bernoulli": ("posterior-median",
                        st.builds(models.NoisyBernoulliModel, st.integers(1, 60),
                                  st.sampled_from([0.0, 0.1, 0.25, 0.45, 0.5]))),
    "gaussian": ("posterior-mean",
                 st.builds(models.GaussianModel, st.integers(1, 60),
                           st.floats(0.1, 10.0), st.floats(0.1, 10.0))),
}


@st.composite
def _mc_tables(draw):
    """A setting's estimator and 1 to 6 of its models."""
    estimator, model = _MC_MODELS[draw(st.sampled_from(sorted(_MC_MODELS)))]
    return estimator, draw(st.lists(model, min_size=1, max_size=6))


class TestMcRisks:
    @settings(max_examples=20, deadline=None)
    @given(table=_mc_tables(),
           trials=st.sampled_from([10 ** 4, 1 << 15, (1 << 15) + 1, 10 ** 5]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_each_estimate_equals_mc_risk_alone(self, table, trials, seed):
        estimator, table_models = table
        alone = [oracle.mc_risk(model, estimator, trials, seed)
                 for model in table_models]
        blocks = len(table_models) * -(-trials // oracle._BLOCK)
        real_pool = oracle.ThreadPoolExecutor
        for cpus in (1, 2, 4):
            workers = []

            def counted_pool(max_workers):
                workers.append(max_workers)
                return real_pool(max_workers)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "ThreadPoolExecutor", counted_pool)
                patch.setattr(oracle, "_usable_cpus", lambda: cpus)
                together = list(oracle.mc_risks(table_models, estimator, trials,
                                                seed))
            assert workers == [min(blocks, cpus)]
            assert [(e.mean, e.std_error, e.samples, e.seed) for e in together] \
                == [(e.mean, e.std_error, e.samples, e.seed) for e in alone]

    def test_refusals_raise_before_any_block(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before every model was checked")

        monkeypatch.setattr(oracle, "_simulate_block", no_sampling)
        good = models.BernoulliUniformModel(3)
        for table, estimator, trials, error in [
            ([good, models.NoisyBernoulliModel(2, 0.5)], "sample-mean", 10 ** 4,
             UnsupportedEstimator),
            ([good, models.GaussianModel(2, 1.0, 2.0)], "posterior-median", 10 ** 4,
             UnsupportedEstimator),
            ([models.GaussianModel(2, 1.0, 2.0), models.GaussianModel(0, 1.0, 2.0)],
             "posterior-mean", 10 ** 4, ValueError),
            ([good], "posterior-median", 100, ValueError),
        ]:
            with pytest.raises(error):
                oracle.mc_risks(table, estimator, trials)

    def test_a_failing_model_raises_in_its_place(self, monkeypatch):
        class BlockFailure(Exception):
            pass

        real = oracle._simulate_block
        ran = []

        def fail_at_two(model, table, size, rng):
            ran.append(model.n)
            if model.n == 2:
                if ran.count(2) > 1:
                    time.sleep(0.2)  # holds the worker while the error is read
                raise BlockFailure("synthetic blow-up")
            return real(model, table, size, rng)

        table = [models.BernoulliUniformModel(n) for n in (1, 2, 3)]
        expected = oracle.mc_risk(table[0], "posterior-median", 10 ** 5)
        monkeypatch.setattr(oracle, "_simulate_block", fail_at_two)
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
        before = threading.active_count()
        risks = oracle.mc_risks(table, "posterior-median", 10 ** 5)
        assert next(risks) == expected
        with pytest.raises(BlockFailure):
            next(risks)
        # the error of n = 2's first block cancelled the blocks still queued
        assert ran.count(2) == 2 and 3 not in ran
        assert threading.active_count() == before

    def test_no_models_no_pool(self, monkeypatch):
        monkeypatch.setattr(oracle, "ThreadPoolExecutor", None)
        assert list(oracle.mc_risks([], "posterior-mean", 10 ** 4)) == []


class TestBruteForce:
    def test_matches_measures_on_random_joints(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            joint = DiscreteJoint(rng.dirichlet(np.ones(16)).reshape(4, 4))
            for spec in ALL_SPECS:
                fast = measures.divergence_from_independence(joint, spec)
                slow = oracle.brute_force_divergence(joint, spec)
                assert abs(fast - slow) <= 1e-10, spec.kind

    def test_independent_joint_all_zero(self):
        joint = DiscreteJoint.independent([0.3, 0.7], [0.25, 0.75])
        for spec in ALL_SPECS:
            assert oracle.brute_force_divergence(joint, spec) <= 1e-12

    def test_deterministic_joint_leakage(self):
        joint = DiscreteJoint(np.eye(3) / 3.0)
        got = oracle.brute_force_divergence(
            joint, DivergenceSpec(DivergenceKind.MAX_LEAKAGE))
        assert math.isclose(got, math.log(3.0), rel_tol=1e-12)

    def test_size_limit(self):
        big = DiscreteJoint(np.full((101, 101), 1.0 / 101 ** 2))
        with pytest.raises(TooLarge):
            oracle.brute_force_divergence(
                big, DivergenceSpec(DivergenceKind.KL))
