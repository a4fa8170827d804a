"""Row check behind error_rate: every emitted row against perfbench/reference.json.

A row fails when its table exits non-zero, when it is missing or
unexpected, or when any of these rules breaks:

- every cell except bound_egz and best_method equals its reference to
  REL_TOL relative (None stays None);
- bound_egz may only rise (a better (gamma, zeta) search dominates the
  old grid), so it may fall by at most REL_TOL relative;
- best_method is the reference's while bound_egz is unchanged, and
  otherwise names the row's largest bound;
- every bound is <= upper_bound;
- optimized Bernoulli rows keep egz >= sibson >= hellinger >= mi up to
  ORDER_SLACK;
- with an mc_risk column, every bound is <= mc_risk + 3 se, with se
  taken from the reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from workloads import table_key

REL_TOL = 1e-12
ORDER_SLACK = 1e-9
MC_SIGMAS = 3.0

BOUNDS = ("mi", "ml", "sibson", "hellinger", "egz", "sdpi")  # riskbounds.cli order
ORDERED = ("egz", "sibson", "hellinger", "mi")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    max_rel_dev: float = 0.0
    problems: list = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_rel_dev = max(self.max_rel_dev, other.max_rel_dev)
        self.problems.extend(other.problems)


def load_reference(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["tables"]


def _rel_dev(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _best(row: dict) -> str:
    """The largest bound of an estimation row, first in BOUNDS on ties."""
    best_name, best_val = "", -math.inf
    for name in BOUNDS:
        val = row.get(name)
        if val is not None and val > best_val:
            best_name, best_val = name, val
    return best_name


def check_row(kind: str, row: dict, ref: dict) -> tuple[float, list[str]]:
    """Return (largest relative deviation of a checked cell, broken rules)."""
    bad = []
    worst = 0.0
    expected_keys = set(ref) - {"mc_se"}
    if set(row) != expected_keys:
        return math.inf, [f"columns {sorted(row)} != {sorted(expected_keys)}"]
    for key in sorted(expected_keys - {"egz", "best"}):
        got, want = row[key], ref[key]
        if want is None or got is None:
            if got is not want:
                bad.append(f"{key}={got!r}, reference {want!r}")
            continue
        dev = _rel_dev(float(got), float(want))
        worst = max(worst, dev)
        if dev > REL_TOL:
            bad.append(f"{key}={got!r}, reference {want!r} (rel {dev:.3g})")

    egz_moved = False
    if "egz" in ref:
        got, want = row["egz"], ref["egz"]
        if want is None or got is None:
            if got is not want:
                bad.append(f"egz={got!r}, reference {want!r}")
        elif not got >= want - REL_TOL * abs(want):
            bad.append(f"egz={got!r} fell below reference {want!r}")
        else:
            egz_moved = _rel_dev(got, want) > REL_TOL
    want_best = _best(row) if egz_moved else ref["best"]
    if row["best"] != want_best:
        bad.append(f"best={row['best']!r}, expected {want_best!r}")

    if "upper" in ref:
        for name in BOUNDS:
            val = row.get(name)
            if val is not None and not val <= row["upper"]:
                bad.append(f"{name}={val!r} above upper_bound {row['upper']!r}")
        if kind == "bernoulli-optimize":
            for hi, lo in zip(ORDERED, ORDERED[1:]):
                if not row[hi] >= row[lo] - ORDER_SLACK:
                    bad.append(f"ordering {hi}={row[hi]!r} < {lo}={row[lo]!r}")
        if row.get("mc") is not None:
            limit = row["mc"] + MC_SIGMAS * ref["mc_se"]
            for name in BOUNDS:
                val = row.get(name)
                if val is not None and not val <= limit:
                    bad.append(f"{name}={val!r} above mc_risk + 3 se = {limit!r}")
    return worst, bad


def check_table(reference: dict, table: dict, code, stdout: str) -> Tally:
    """Check one table run; ``code`` is its exit status."""
    kind = table["kind"]
    expected = reference[table_key(kind, table["mc_seed"])]
    want = {n: expected[str(n)] for n in table["ns"] if expected[str(n)] is not None}
    tally = Tally(attempted=len(want))
    if code != 0:
        tally.failed = len(want)
        tally.problems.append(f"{kind}: exit status {code!r}")
        return tally
    try:
        rows = {row["n"]: row for row in json.loads(stdout)["rows"]}
    except (ValueError, KeyError, TypeError) as exc:
        tally.failed = len(want)
        tally.problems.append(f"{kind}: unreadable output ({exc})")
        return tally
    for n, ref in want.items():
        row = rows.pop(n, None)
        if row is None:
            tally.failed += 1
            tally.problems.append(f"{kind} n={n}: row missing")
            continue
        dev, bad = check_row(kind, row, ref)
        tally.max_rel_dev = max(tally.max_rel_dev, dev)
        if bad:
            tally.failed += 1
            tally.problems.append(f"{kind} n={n}: " + "; ".join(bad))
    for n in rows:  # rows nobody asked for
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append(f"{kind} n={n}: unexpected row")
    return tally


def self_test(reference: dict) -> list[str]:
    """Show that the check counts what it must; returns what went wrong.

    Feeds reference rows back in as table output, then the same output
    with one cell perturbed by 1e-9 relative, with bound_egz raised and
    lowered, and with a non-zero exit status.
    """
    errors = []

    def output(table, edit=None):
        key = table_key(table["kind"], table["mc_seed"])
        rows = []
        for n in table["ns"]:
            ref = reference[key][str(n)]
            if ref is not None:
                row = {k: v for k, v in ref.items() if k != "mc_se"}
                if edit:
                    edit(row)
                rows.append(row)
        return json.dumps({"setting": table["kind"], "rows": rows})

    def expect(label, table, code, text, failed):
        tally = check_table(reference, table, code, text)
        if tally.failed != failed:
            errors.append(f"{label}: {tally.failed} of {tally.attempted} rows "
                          f"failed, expected {failed}")

    opt = {"kind": "bernoulli-optimize", "ns": [3, 30], "mc_seed": None}
    mc = {"kind": "noisy-bernoulli-mc", "ns": [2, 40], "mc_seed": 0}
    hns = {"kind": "hide-and-seek", "ns": [1, 2, 50], "mc_seed": None}
    for table in (opt, mc, hns):
        expect(f"{table['kind']} unchanged", table, 0, output(table), 0)
        expect(f"{table['kind']} exit 3", table, 3, output(table), 2)

    def nudge(key, factor, only_n):
        def edit(row):
            if row["n"] == only_n:
                row[key] *= factor
        return edit

    expect("hellinger +1e-9", opt, 0, output(opt, nudge("hellinger", 1 + 1e-9, 30)), 1)
    expect("sdpi -1e-9", mc, 0, output(mc, nudge("sdpi", 1 - 1e-9, 2)), 1)
    expect("mc +1e-9", mc, 0, output(mc, nudge("mc", 1 + 1e-9, 40)), 1)
    expect("hide-and-seek ml +1e-9", hns, 0, output(hns, nudge("ml", 1 + 1e-9, 50)), 1)
    expect("egz -1e-9", opt, 0, output(opt, nudge("egz", 1 - 1e-9, 3)), 1)
    expect("egz +1e-9 (a rise is allowed)", opt, 0,
           output(opt, nudge("egz", 1 + 1e-9, 3)), 0)
    return errors
