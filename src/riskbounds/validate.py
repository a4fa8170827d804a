"""The numerical validation suites behind ``riskbounds validate``.

Each suite returns (ok, detail): the data-processing inequality over
random kernels, `measures` against the brute-force oracle and the closed
forms, every default bound column against the Monte-Carlo risk, and the
ordering of the optimized Bernoulli columns.
"""

from __future__ import annotations

import math

import numpy as np

from . import cli, measures, models, oracle
from .distributions import DiscreteJoint, DivergenceKind, DivergenceSpec, MarkovKernel


def _suite_dpi(seed: int, rounds: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    specs = [
        DivergenceSpec(DivergenceKind.KL),
        DivergenceSpec(DivergenceKind.CHI_SQUARE),
        DivergenceSpec(DivergenceKind.HELLINGER_P, p=1.7),
        DivergenceSpec(DivergenceKind.E_GAMMA_ZETA, gamma=1.4, zeta=0.9),
        DivergenceSpec(DivergenceKind.RENYI, alpha=2.5),
    ]
    worst = -math.inf
    for _ in range(rounds):
        k = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        kernel = MarkovKernel(rng.dirichlet(np.ones(k), size=k))
        for spec in specs:
            before = measures.pair_divergence(p, q, spec)
            after = measures.pair_divergence(kernel.push(p), kernel.push(q), spec)
            if math.isinf(before):
                continue
            worst = max(worst, after - before)
    ok = worst <= 1e-10
    return ok, f"max divergence increase across kernels: {worst:.3e}"


def _suite_oracle_agreement(seed: int, rounds: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    specs = [
        DivergenceSpec(DivergenceKind.KL),
        DivergenceSpec(DivergenceKind.CHI_SQUARE),
        DivergenceSpec(DivergenceKind.HELLINGER_P, p=2.6),
        DivergenceSpec(DivergenceKind.RENYI, alpha=3.0),
        DivergenceSpec(DivergenceKind.SIBSON_MI, alpha=2.2),
        DivergenceSpec(DivergenceKind.MAX_LEAKAGE),
        DivergenceSpec(DivergenceKind.MUTUAL_INFORMATION),
        DivergenceSpec(DivergenceKind.E_GAMMA_ZETA, gamma=1.2, zeta=1.1),
    ]
    worst = 0.0
    for _ in range(rounds):
        joint = DiscreteJoint(rng.dirichlet(np.ones(16)).reshape(4, 4))
        for spec in specs:
            a = measures.divergence_from_independence(joint, spec)
            b = oracle.brute_force_divergence(joint, spec)
            worst = max(worst, abs(a - b))
    ok = worst <= 1e-10
    if ok:
        gamma_check = abs(models.bernoulli_hellinger_first_order(8, 2.0).value + 1.0
                          - (8 + 1) / (2 * 8 + 1) * 4.0 ** 8
                          / math.comb(16, 8))
        quad = measures.divergence_from_independence(
            models.bernoulli_joint(5), DivergenceSpec(DivergenceKind.HELLINGER_P, p=2.0))
        closed = models.bernoulli_hellinger_first_order(5, 2.0).value
        gamma_check = max(gamma_check, abs(quad - closed))
        ok = gamma_check <= 1e-6
        return ok, f"max closed-form deviation: {gamma_check:.3e}"
    return ok, f"max measures/brute-force deviation: {worst:.3e}"


def _suite_sandwich(seed: int, trials: int, n_values) -> tuple[bool, str]:
    """Every bound column of each setting's default fixed-parameter row."""
    worst = -math.inf
    for setting in cli.SETTINGS.values():
        args = cli.build_parser().parse_args([setting.name])
        for n in n_values:
            row, _ = cli._estimation_point(setting, n, args)
            risk = oracle.mc_risk(setting.model(n, args), setting.estimator,
                                  trials, seed)
            limit = risk.mean + 3.0 * risk.std_error
            for method in cli._METHOD_ORDER:
                if row[method] is not None:
                    worst = max(worst, row[method] - limit)
    ok = worst <= 0.0
    return ok, f"max bound excess over MC risk + 3se: {worst:.3e}"


def _suite_ordering(n_values) -> tuple[bool, str]:
    worst = -math.inf
    args = cli.build_parser().parse_args(["bernoulli", "--optimize"])
    for n in n_values:
        row, _ = cli._estimation_point(cli.BERNOULLI, n, args)
        worst = max(worst, row["sibson"] - row["egz"],
                    row["hellinger"] - row["sibson"], row["mi"] - row["hellinger"],
                    row["egz"] - row["upper"])
    ok = worst <= 1e-9
    return ok, f"max ordering violation: {worst:.3e}"


def run_validation_suites(quick: bool = False, seed: int = 0):
    """Run all validation suites; returns a list of (name, ok, detail)."""
    if quick:
        dpi_rounds, agree_rounds, trials = 40, 40, 10 ** 4
        sandwich_n = (1, 5)
        ordering_n = (1, 2, 5, 10)
    else:
        dpi_rounds, agree_rounds, trials = 200, 200, 10 ** 5
        sandwich_n = (1, 2, 5, 10, 25, 50)
        ordering_n = (1, 2, 5, 10, 25, 50)
    results = []
    for name, fn in (
        ("dpi", lambda: _suite_dpi(seed, dpi_rounds)),
        ("oracle-agreement", lambda: _suite_oracle_agreement(seed, agree_rounds)),
        ("sandwich", lambda: _suite_sandwich(seed, trials, sandwich_n)),
        ("ordering", lambda: _suite_ordering(ordering_n)),
    ):
        ok, detail = fn()
        results.append((name, ok, detail))
    return results
