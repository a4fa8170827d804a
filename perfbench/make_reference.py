"""Regenerate perfbench/reference.json, the rows the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every table kind for n = 1..N_MAX (and every MC seed) through
``riskbounds.cli.main`` and stores each row as the CLI emits it.  For the
Monte-Carlo kinds it also stores the standard error of ``mc_risk``, which
the CLI does not print, so that the check can apply the sandwich rule
bound <= mc_risk + 3 se.  Run it only at a commit whose tables are known
to be right: the benchmark treats these rows as ground truth.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from riskbounds import cli, models, oracle  # noqa: E402
from meta import commit, versions  # noqa: E402
from workloads import KINDS, MC_SEEDS, N_MAX, TRIALS, argv, is_mc, table_key  # noqa: E402


def _mc_model(kind: str, n: int):
    """The model and estimator the CLI uses for the mc_risk column."""
    if kind == "bernoulli-mc":
        return models.BernoulliUniformModel(n), "posterior-median"
    if kind == "noisy-bernoulli-mc":
        return models.NoisyBernoulliModel(n, 0.25), "posterior-median"
    return models.GaussianModel(n, 1.0, 2.0), "posterior-mean"


def _run_table(args: list[str]) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    if code != 0:
        raise SystemExit(f"reference table failed with exit code {code}: {args}")
    return json.loads(out.getvalue())["rows"]


def main() -> int:
    ns = list(range(1, N_MAX + 1))
    tables = {}
    for kind in KINDS:
        for mc_seed in (MC_SEEDS if is_mc(kind) else [None]):
            start = time.perf_counter()
            rows = {r["n"]: r for r in _run_table(argv(kind, ns, mc_seed))}
            entry = {}
            for n in ns:
                row = rows.get(n)
                if row is not None and is_mc(kind):
                    model, estimator = _mc_model(kind, n)
                    risk = oracle.mc_risk(model, estimator, TRIALS, mc_seed)
                    if risk.mean != row["mc"]:
                        raise SystemExit(f"{kind} n={n}: mc_risk {risk.mean!r} "
                                         f"differs from the table's {row['mc']!r}")
                    row = dict(row, mc_se=risk.std_error)
                entry[str(n)] = row
            tables[table_key(kind, mc_seed)] = entry
            print(f"{table_key(kind, mc_seed)}: {time.perf_counter() - start:.1f} s",
                  file=sys.stderr)
    reference = {"made_with": dict(versions(), commit=commit(ROOT)), "tables": tables}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
