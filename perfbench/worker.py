"""Benchmark worker: one fresh interpreter that runs riskbounds tables.

Protocol (driven by perfbench/run.py): the worker imports riskbounds.cli
from the checkout's ``src`` and prints ``ready``; the time until then is
the set-up time.  It then reads one JSON plan line from stdin (an empty
line or end of input means exit), runs the table set in a closed loop,
one ``riskbounds.cli.main(argv)`` call per table, and prints one JSON
result line.  A plan holds:

- ``tables``: the argv lists of one table set;
- ``passes``: the passes of one round, each "default" (the CLI's own
  worker count), "single" (RISKBOUNDS_THREADS=1) or "traced" (default
  workers with perfbench/spans.py spans);
- ``seconds`` and ``min_rounds``: rounds repeat until ``min_rounds``
  are done and another would end past ``seconds``;
- ``calibrate``: bracket every table set with perfbench/calibrate.py's
  loop, so that its time can be scaled to the nominal machine speed;
- ``trace_path``: where the spans of the traced passes are written.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import riskbounds.cli as cli  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"riskbounds was imported from {cli.__file__}, not from {SRC}")


def _memo_caches():
    """The package's lru caches; cleared before every table set so that
    each set starts cold, as a fresh CLI process does."""
    return [value for name, module in sys.modules.items()
            if name == "riskbounds" or name.startswith("riskbounds.")
            for value in vars(module).values() if hasattr(value, "cache_clear")]


def _run_table(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails the table's rows
            code = f"{type(exc).__name__}: {exc}"
    return [code, out.getvalue()]


def _run_set(argvs, caches):
    for cache in caches:
        cache.cache_clear()
    start = time.perf_counter()
    outputs = [_run_table(argv) for argv in argvs]
    return time.perf_counter() - start, outputs


def main():
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    plan = json.loads(line)
    import calibrate  # imported after "ready": set-up time covers riskbounds alone
    import spans

    caches = _memo_caches()
    os.environ.pop("RISKBOUNDS_THREADS", None)
    tracers = []
    sets = []
    deadline = time.perf_counter() + plan["seconds"]
    loop_s = calibrate.loop() if plan["calibrate"] else None
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for kind in plan["passes"]:
            tracer = None
            if kind == "single":
                os.environ["RISKBOUNDS_THREADS"] = "1"
            elif kind == "traced":
                tracer = spans.Tracer()
                tracer.install()
            try:
                wall, outputs = _run_set(plan["tables"], caches)
            finally:
                os.environ.pop("RISKBOUNDS_THREADS", None)
                if tracer is not None:
                    tracer.uninstall()
            entry = {"pass": kind, "wall_s": wall, "outputs": outputs}
            if loop_s is not None:
                entry["loop_s"] = [loop_s, calibrate.loop()]
                loop_s = entry["loop_s"][1]
            if tracer is not None:
                tracers.append(tracer)
                entry["layers"] = tracer.summary()
            sets.append(entry)
        rounds += 1
        now = time.perf_counter()
        if rounds >= plan["min_rounds"] and now + (now - round_start) > deadline:
            break
    if tracers:
        os.makedirs(os.path.dirname(plan["trace_path"]), exist_ok=True)
        spans.write(tracers, plan["trace_path"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"sets": sets, "peak_rss_mb": peak_kb / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
