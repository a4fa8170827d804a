"""Workloads of the riskbounds benchmark: which CLI tables a seed produces.

A table kind is a fixed riskbounds subcommand with fixed parameters; the
workload seed only picks the sample counts n (from 1..N_MAX) and, for the
Monte-Carlo kinds, the MC ``--seed`` (from MC_SEEDS).  The reference file
covers every (kind, n, MC seed) these choices can produce.
"""

from __future__ import annotations

import random

N_MAX = 50
TRIALS = 100_000
MC_SEEDS = range(4)

# kind -> CLI arguments before --n; the parameters are the CLI defaults
KINDS = {
    "bernoulli-optimize": ["bernoulli", "--optimize"],
    "bernoulli": ["bernoulli"],
    "gaussian-optimize": ["gaussian", "--optimize"],
    "noisy-bernoulli": ["noisy-bernoulli"],
    "hide-and-seek": ["hide-and-seek"],
    "bernoulli-mc": ["bernoulli", "--trials", str(TRIALS)],
    "noisy-bernoulli-mc": ["noisy-bernoulli", "--trials", str(TRIALS)],
    "gaussian-mc": ["gaussian", "--trials", str(TRIALS)],
}

# workload -> (kind, number of n values per table: 1 or even); every
# table of a workload runs back to back as one "table set"
WORKLOADS = {
    # the optimized Bernoulli table: the 48x48 (gamma, zeta) grid under
    # optimize_bound dominates; no oracle, little quadrature.  One n per
    # table (about 4 s) fits several table sets into a run; the seed
    # spreads n over 1..N_MAX
    "bernoulli-optimize": [("bernoulli-optimize", 1)],
    # fixed-parameter tables without --trials: MI and Gaussian
    # E_{gamma,zeta} quadrature dominate; no Bernoulli grid, no oracle
    "quadrature-tables": [("bernoulli", 10), ("gaussian-optimize", 10),
                          ("noisy-bernoulli", 10), ("hide-and-seek", 10)],
    # fixed-parameter tables with --trials: the MC oracle dominates.  Four
    # n per table, because the CLI's pool runs the n of a table side by
    # side: the mirrored pairs then finish at the same time whatever the seed
    "mc-oracle": [("bernoulli-mc", 4), ("noisy-bernoulli-mc", 4),
                  ("gaussian-mc", 4)],
}


def is_mc(kind: str) -> bool:
    return kind.endswith("-mc")


def table_key(kind: str, mc_seed: int | None) -> str:
    """Key of a table's rows in the reference file."""
    return kind if mc_seed is None else f"{kind}@{mc_seed}"


def argv(kind: str, ns, mc_seed: int | None = None) -> list[str]:
    """The riskbounds command line for one table (JSON keeps every digit)."""
    args = KINDS[kind] + ["--n", ",".join(str(n) for n in ns), "--format", "json"]
    if is_mc(kind):
        args += ["--seed", str(mc_seed)]
    return args


def tables(workload: str, seed: int) -> list[dict]:
    """The table set of ``workload`` for ``seed``: deterministic in both.

    A table of one n draws it from 1..N_MAX.  A larger table takes half
    its n values as a systematic sample of the lower half of 1..N_MAX (a
    random start, then evenly spaced) and pairs each n with its mirror
    N_MAX + 1 - n.  A table's cost grows with n, so the pairs keep the cost
    of a table set nearly the same whatever the seed, while the seeds
    still cover every n.
    """
    rng = random.Random(f"{workload}/{seed}")
    mc_seed = rng.choice(list(MC_SEEDS))
    plan = []
    for kind, count in WORKLOADS[workload]:
        step = N_MAX // count
        start = 1 + rng.randrange(step)
        low = [start + i * step for i in range(count // 2)]
        ns = sorted(low + [N_MAX + 1 - n for n in low]) if low else [start]
        table = {"kind": kind, "ns": ns,
                 "mc_seed": mc_seed if is_mc(kind) else None}
        table["argv"] = argv(kind, ns, table["mc_seed"])
        plan.append(table)
    return plan
