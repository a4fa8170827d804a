"""The optimized tables against the benchmark's reference rows.

The benchmark checks every row it runs (perfbench/check.py) against
perfbench/reference.json, to 1e-12 relative for every cell but bound_egz,
which may only rise.  This runs that check on whole tables, n = 1..50, so
that a change which moves an optimized cell past it fails here first.  The
check is imported read-only from the benchmark's directory.
"""

from pathlib import Path

import pytest

from riskbounds import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("kind", ["bernoulli-optimize", "gaussian-optimize"])
def test_optimized_table_passes_the_benchmark_row_check(kind, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from check import check_table, load_reference
    from workloads import argv

    ns = list(range(1, 51))
    code = cli.main(argv(kind, ns))
    tally = check_table(load_reference(str(PERFBENCH / "reference.json")),
                        {"kind": kind, "ns": ns, "mc_seed": None}, code,
                        capsys.readouterr().out)
    assert tally.attempted == len(ns)
    assert tally.failed == 0, tally.problems
