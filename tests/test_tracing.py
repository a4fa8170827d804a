"""CLI tables run under the benchmark's tracer exactly as they run untraced.

The tracer (perfbench/spans.py) wraps every public function of each layer
and reads some arguments through its counting hooks, so a kernel whose
calling convention breaks a hook would fail every traced benchmark run.
The tracer is imported read-only from the benchmark's directory.
"""

from pathlib import Path

import pytest

from riskbounds import cli, models, oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TABLES = {
    "bernoulli": ["bernoulli", "--n", "1,7"],
    "bernoulli-optimize": ["bernoulli", "--optimize", "--n", "1,7"],
    "noisy-bernoulli": ["noisy-bernoulli", "--n", "3"],
    "gaussian-optimize": ["gaussian", "--optimize", "--n", "3"],
    # several n: the searches of each column run in lockstep
    "gaussian-optimize-table": ["gaussian", "--optimize", "--n", "1,7,50"],
    "bernoulli-trials": ["bernoulli", "--n", "1,7", "--trials", "10000"],
    "gaussian-trials": ["gaussian", "--n", "3", "--trials", "10000"],
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_traced_table_equals_untraced(name, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    assert cli.main(TABLES[name]) == 0
    untraced = capsys.readouterr().out
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(TABLES[name])
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out == untraced
    assert "cli.main" in tracer.summary()["functions"]


def test_traced_mc_risk_counts_its_trials(monkeypatch):
    # the tracer's mc_risk hook reads the returned RiskEstimate's samples
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        oracle.mc_risk(models.BernoulliUniformModel(3), "posterior-median", 10 ** 4)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["counts"]["mc_risk.trials"] == 10 ** 4
    assert {"oracle.mc_risk", "oracle.mc_risks"} <= set(summary["functions"])


def test_mi_span_covers_its_quadrature(capsys, monkeypatch):
    # the MI returns its list only after both passes, so the tracer's span
    # of it holds them, and the time of the MI shows as its own
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["bernoulli", "--n", "1,7,30"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0]: span[1] for span in tracer.spans}
    parents = [names.get(span[5]) for span in tracer.spans
               if span[1] == "quadrature.adaptive_simpson"]
    assert parents and set(parents) == {"models.bernoulli_mutual_informations"}
