"""Spans around the calls into riskbounds' public functions, from outside.

`Tracer.install` wraps every public function (each module's ``__all__``)
of the layers below, plus ``cli.main``, and rebinds the wrapper under
every name a riskbounds module holds the function by: callers that did
``from .quadrature import adaptive_simpson`` resolve the wrapper too.
Each call records a span (id, name, start, end, CPU seconds, parent
span id, thread) in memory; `write` saves them when the run ends.  A
span's self time is its duration minus the durations of its children,
which are always on the same thread because parents come from a
per-thread stack.  Self time is kept twice: on the wall clock, and as
the thread's CPU time (``time.thread_time``), which leaves out the time
a thread of the CLI's pool spends waiting for the interpreter lock.

A few wrappers also count what the call was asked to do, so waste shows
as a ratio where the work happens: the distinct gamma/zeta ratios per n
seen by ``models.bernoulli_e_gamma_zeta`` and the distinct (a, b) pairs
seen by ``oracle.beta_quantile``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "bounds", "models", "measures", "quadrature", "oracle",
          "sdpi", "distributions")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.t_keys: set = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._count_lock = threading.Lock()  # hooks run on the CLI's pool threads
        self._hooks = {
            "bounds.optimize_bound": self._on_optimize_bound,
            "models.bernoulli_e_gamma_zeta": self._on_bernoulli_egz,
            "oracle.beta_quantile": self._on_beta_quantile,
            "oracle.mc_risk": self._on_mc_risk,
        }

    # -- counters ------------------------------------------------------

    def _on_optimize_bound(self, bound, result):
        self.counts["optimize_bound.evals"] += result.evaluations

    def _on_bernoulli_egz(self, bound, result):
        args = bound.arguments
        ratio = float(args["gamma"]) / float(args["zeta"])
        self.t_keys.add((int(args["n"]), f"{ratio:.12g}"))

    def _on_beta_quantile(self, bound, result):
        a, b = np.broadcast_arrays(np.asarray(bound.arguments["a"], float),
                                   np.asarray(bound.arguments["b"], float))
        pairs = np.unique(a.ravel() + 1j * b.ravel())  # one complex per (a, b)
        self.counts["beta_quantile.elements"] += a.size
        self.counts["beta_quantile.distinct_pairs"] += pairs.size

    def _on_mc_risk(self, bound, result):
        self.counts["mc_risk.trials"] += result.samples

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                spans.append((span_id, name, start, end, cpu, parent,
                              threading.get_ident()))
            if hook:
                with self._count_lock:
                    hook(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self, package: str = "riskbounds") -> None:
        """Wrap the public functions of every layer; undo with `uninstall`."""
        modules = {key: mod for key, mod in sys.modules.items()
                   if key == package or key.startswith(package + ".")}
        wrapped = {}
        for layer in LAYERS:
            module = modules[f"{package}.{layer}"]
            names = ["main"] if layer == "cli" else module.__all__
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue  # re-exported; wrapped under its own layer
                wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, and inclusive and self seconds on the wall
        clock and in CPU time; plus the largest number of threads that ran
        spans during one cli.main call."""
        child_wall: dict[int, float] = defaultdict(float)
        child_cpu: dict[int, float] = defaultdict(float)
        for span_id, name, start, end, cpu, parent, thread in self.spans:
            if parent is not None:
                child_wall[parent] += end - start
                child_cpu[parent] += cpu
        per_name: dict[str, dict] = {}
        for span_id, name, start, end, cpu, parent, thread in self.spans:
            entry = per_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                               "cpu_s": 0.0, "self_cpu_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_wall[span_id]
            entry["cpu_s"] += cpu
            entry["self_cpu_s"] += cpu - child_cpu[span_id]
        mains = [s for s in self.spans if s[1] == "cli.main"]
        threads_seen = 0
        for _, _, lo, hi, _, _, _ in mains:
            threads = {s[6] for s in self.spans
                       if s[1] != "cli.main" and lo <= s[2] <= hi}
            threads_seen = max(threads_seen, len(threads))
        return {"functions": per_name, "counts": dict(self.counts),
                "distinct_t": len(self.t_keys), "threads_seen": threads_seen}


def write(tracers: list[Tracer], path: str) -> None:
    """Save the spans of several traced passes, one list per pass."""
    threads: dict[int, int] = {}
    passes = [[[span_id, name, start, end, cpu, parent,
                threads.setdefault(thread, len(threads))]
               for span_id, name, start, end, cpu, parent, thread in tracer.spans]
              for tracer in tracers]
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "cpu_s", "parent", "thread"],
                   "passes": passes}, fh)
