"""The riskbounds benchmark: CLI tables end to end, traced layer by layer.

    python3 perfbench/run.py --workload mc-oracle --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, both modes

Run from the root of a checkout.  One client drives the CLI tables in a
closed loop from one worker process (perfbench/worker.py): each table
is one ``riskbounds.cli.main(argv)`` call, the tables of a workload run
back to back as one table set, and the set repeats until ``--seconds``
are used.  RISKBOUNDS_THREADS is unset, so the CLI sweeps with its own
default worker count.  The seed picks the sample counts and the MC seed
(perfbench/workloads.py); the program only sees the resulting argv.
Every row of every set is checked (perfbench/check.py) against
perfbench/reference.json.

``--trace 0`` reports the end-to-end metrics:

- setup_s: a fresh interpreter until riskbounds.cli is imported, the
  median of SETUP_SAMPLES starts;
- wall_s: one table set, median over the sets run; the package memo
  caches are cleared before each set, as for a CLI user;
- peak_rss_mb: peak resident memory of the worker that ran the tables.

wall_s is scaled to the nominal machine speed with the calibration loop
run before and after each table set (perfbench/calibrate.py explains
why); the raw median is printed and kept in the result file.

``--trace 1`` reports the per-layer metrics.  Each round runs the set
three ways: untraced with the default workers, untraced with
RISKBOUNDS_THREADS=1 (the plain single-threaded baseline), and traced
(perfbench/spans.py).  Layer figures are per table set, averaged over
the traced passes; ``.s`` is self CPU time summed over threads, so that a
pool thread waiting for the interpreter lock is not counted as busy.

The last line of standard output is one JSON object with the keys
correct, attempted, failed (rows) and metrics.  error_rate, failed rows
over attempted rows, is printed above it; it is 0 when the tables are
right, so it is carried by ``failed`` rather than as a metric.
Results with their run metadata are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from check import Tally, check_table, load_reference, self_test  # noqa: E402
from meta import commit, versions  # noqa: E402
from workloads import WORKLOADS, tables  # noqa: E402

SETUP_SAMPLES = 5
READY_TIMEOUT_S = 60.0
MIN_SETS = 3
LAYER_MODULES = ("bounds", "models", "measures", "quadrature", "oracle")


class BenchmarkError(Exception):
    pass


def _start_worker() -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for ``ready``; returns it and its set-up time."""
    env = {k: v for k, v in os.environ.items() if k != "RISKBOUNDS_THREADS"}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, bufsize=0)
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else b""
    setup = time.perf_counter() - start
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"worker did not start (exit status {proc.returncode})")
    return proc, setup


def _finish_worker(proc: subprocess.Popen, plan: dict | None) -> dict | None:
    """Send ``plan`` (None: tell the worker to exit) and wait for the result."""
    message = json.dumps(plan).encode() if plan else b""
    timeout = 3 * plan["seconds"] + 120 if plan else READY_TIMEOUT_S
    try:
        out, _ = proc.communicate(message + b"\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"worker ran past {timeout} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with status {proc.returncode}")
    if plan is None:
        return None
    if not out.strip():
        raise BenchmarkError("worker printed no result")
    return json.loads(out.decode().strip().splitlines()[-1])


def _check(reference: dict, plan_tables: list[dict], sets: list[dict]) -> Tally:
    tally = Tally()
    for entry in sets:
        for table, (code, stdout) in zip(plan_tables, entry["outputs"]):
            tally.add(check_table(reference, table, code, stdout))
    return tally


def _median_wall(sets: list[dict], kind: str) -> float:
    return statistics.median(s["wall_s"] for s in sets if s["pass"] == kind)


def _layer_metrics(sets: list[dict], tally: Tally) -> dict:
    traced = [s["layers"] for s in sets if s["pass"] == "traced"]
    count = len(traced)

    def per_set(getter):
        return sum(getter(layers) for layers in traced) / count

    def fn(name, field):
        return per_set(lambda layers: layers["functions"].get(name, {}).get(field, 0.0))

    def counter(name):
        return per_set(lambda layers: layers["counts"].get(name, 0.0))

    def share(num, den):
        return num / den if den else 0.0

    default = _median_wall(sets, "default")
    metrics = {
        "cli.workers": (max(layers["threads_seen"] for layers in traced), "count"),
        "cli.pool_speedup": (_median_wall(sets, "single") / default, "ratio"),
        "bounds.optimize_bound.s": (fn("bounds.optimize_bound", "self_cpu_s"), "s"),
        "bounds.optimize_bound.evals": (counter("optimize_bound.evals"), "count"),
        "bounds.mi_baseline_bound.s": (fn("bounds.mi_baseline_bound", "self_cpu_s"), "s"),
        "models.bernoulli_e_gamma_zeta.calls": (
            fn("models.bernoulli_e_gamma_zeta", "calls"), "count"),
        "models.bernoulli_e_gamma_zeta.s": (
            fn("models.bernoulli_e_gamma_zeta", "self_cpu_s"), "s"),
        "models.bernoulli_e_gamma_zeta.distinct_t_share": (share(
            per_set(lambda layers: layers["distinct_t"]),
            fn("models.bernoulli_e_gamma_zeta", "calls")), "ratio"),
        "models.gaussian_e_gamma_zeta.calls": (
            fn("models.gaussian_e_gamma_zeta", "calls"), "count"),
        "models.gaussian_e_gamma_zeta.s": (
            fn("models.gaussian_e_gamma_zeta", "self_cpu_s"), "s"),
        "measures.mutual_information.calls": (
            fn("measures.mutual_information", "calls"), "count"),
        "measures.mutual_information.s": (
            fn("measures.mutual_information", "self_cpu_s"), "s"),
        "quadrature.adaptive_simpson.calls": (
            fn("quadrature.adaptive_simpson", "calls"), "count"),
        "quadrature.adaptive_simpson.s": (
            fn("quadrature.adaptive_simpson", "self_cpu_s"), "s"),
        "quadrature.golden_section_max.calls": (
            fn("quadrature.golden_section_max", "calls"), "count"),
        "oracle.mc_risk.s": (fn("oracle.mc_risk", "self_cpu_s"), "s"),
        "oracle.mc_risk.trials_per_s": (share(
            counter("mc_risk.trials"), fn("oracle.mc_risk", "cpu_s")), "1/s"),
        "oracle.beta_quantile.s": (fn("oracle.beta_quantile", "self_cpu_s"), "s"),
        "oracle.beta_quantile.distinct_share": (share(
            counter("beta_quantile.distinct_pairs"),
            counter("beta_quantile.elements")), "ratio"),
    }
    for module in LAYER_MODULES:
        metrics[f"{module}.s"] = (per_set(lambda layers: sum(
            entry["self_cpu_s"] for name, entry in layers["functions"].items()
            if name.startswith(module + "."))), "s")
    metrics["trace.overhead"] = (_median_wall(sets, "traced") / default - 1.0, "ratio")
    metrics["check.max_rel_dev"] = (tally.max_rel_dev, "ratio")
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    reference = load_reference(os.path.join(HERE, "reference.json"))
    broken = self_test(reference)
    if broken:
        raise BenchmarkError("row check self-test failed: " + "; ".join(broken))

    plan_tables = tables(workload, seed)
    for table in plan_tables:
        print("# table riskbounds " + " ".join(table["argv"]))
    plan = {"tables": [t["argv"] for t in plan_tables], "seconds": seconds,
            "passes": ["default", "single", "traced"] if trace else ["default"],
            "min_rounds": 1 if trace else MIN_SETS, "calibrate": not trace,
            "trace_path": os.path.join(HERE, "out", f"spans-{workload}-{seed}.json")
            if trace else None}
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        proc, setup = _start_worker()
        _finish_worker(proc, None)
        setups.append(setup)
    proc, setup = _start_worker()
    setups.append(setup)
    result = _finish_worker(proc, plan)
    sets = result["sets"]
    tally = _check(reference, plan_tables, sets)
    for problem in tally.problems[:20]:
        print(f"# FAILED {problem}")
    walls = {kind: [round(s["wall_s"], 4) for s in sets if s["pass"] == kind]
             for kind in plan["passes"]}
    print(f"# table sets run: {json.dumps(walls)} (wall s per set)")
    print(f"# error_rate {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} rows failed)")

    if trace:
        metrics = _layer_metrics(sets, tally)
        traced = [s["layers"]["functions"] for s in sets if s["pass"] == "traced"]
        totals = {m: metrics[f"{m}.s"][0] for m in LAYER_MODULES}
        whole = sum(totals.values()) or 1.0
        print("# self CPU time by layer (share of the traced layers' total): "
              + ", ".join(f"{m} {totals[m] / whole:.1%}" for m in LAYER_MODULES))
        for module in ("sdpi", "distributions"):
            spent = sum(e["self_cpu_s"] for f in traced for n, e in f.items()
                        if n.startswith(module + ".")) / len(traced)
            print(f"# {module}: {spent:.6f} s self CPU time per table set (no metric)")
    else:
        print(f"# raw wall_s median {_median_wall(sets, 'default'):.6g} s; calibration "
              f"loop median {statistics.median(x for s in sets for x in s['loop_s']):.6g} s, "
              f"nominal {calibrate.NOMINAL_S} s")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(
                calibrate.scaled(s["wall_s"], *s["loop_s"]) for s in sets), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")

    metadata = dict(versions(), commit=commit(ROOT), workload=workload,
                    workload_seed=seed, seconds=seconds, trace=int(trace),
                    riskbounds_threads=None, default_workers=os.cpu_count(),
                    setup_samples=setups, table_walls=walls,
                    calibration_loops=[s.get("loop_s") for s in sets])
    output = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print("# meta " + json.dumps(metadata, sort_keys=True))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"result-{workload}-{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(dict(output, meta=metadata, problems=tally.problems), fh, indent=1)
    return output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload with --trace 0 and 1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            runs = {}
            for workload in WORKLOADS:
                for trace in (False, True):
                    print(f"# --- {workload}, trace {int(trace)}")
                    runs[workload, trace] = run(workload, args.seed, args.seconds, trace)
            result = {
                "correct": all(r["correct"] for r in runs.values()),
                "attempted": sum(r["attempted"] for r in runs.values()),
                "failed": sum(r["failed"] for r in runs.values()),
                "metrics": {f"{workload}/{name}": value
                            for (workload, _), r in runs.items()
                            for name, value in r["metrics"].items()},
            }
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
