"""Command-line front end: figure-data tables as CSV/JSON plus validation.

Subcommands: bernoulli, noisy-bernoulli, gaussian, hide-and-seek, validate.
Each estimation setting is one `Setting` record, from which its flags and
its rows are built; fixed-parameter and --optimize rows alike go through
`bounds.optimize_bound`.  One CSV row is emitted per sample count n; a
JSON sidecar next to --out records per point and column the optimizing
parameters, rho*, the value, the evaluations and the search path (fixed,
grid, root, or own for a column with its own bound function).
Float flags must be finite and seeds non-negative.  Every table sweeps its
n in the calling thread, in order, and stops at the first n that fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds, models, oracle

_METHOD_ORDER = ("mi", "ml", "sibson", "hellinger", "egz", "sdpi")

EST_HEADER = ("n,bound_mi,bound_ml,bound_sibson,bound_hellinger,bound_egz,"
              "bound_sdpi,upper_bound,mc_risk,best_method")
HNS_HEADER = "n,bound_ml,bound_nips,bound_mi,best_method"
# the row keys of the header columns
EST_KEYS = ("n", *_METHOD_ORDER, "upper", "mc", "best")
HNS_KEYS = ("n", "ml", "nips", "mi", "best")


def default_alpha_grid():
    """Log-spaced orders: 1 + 10^-2 .. 64, 40 points (log in alpha - 1)."""
    return 1.0 + np.geomspace(1e-2, 63.0, 40)


def default_gamma_zeta_grid():
    g = np.geomspace(1e-2, 32.0, 48)
    return g, g.copy()


def default_ratio_grid():
    """The 95 ratios gamma/zeta of `default_gamma_zeta_grid`, log-spaced."""
    g, _ = default_gamma_zeta_grid()
    return np.geomspace(g[0] / g[-1], g[-1] / g[0], 2 * g.size - 1)


def _parse_n_range(text: str) -> list[int]:
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            values.extend(range(int(lo), int(hi) + 1))
        elif part:
            values.append(int(part))
    if not values or any(v < 1 for v in values):
        raise ValueError(f"invalid sample-count range {text!r}")
    return sorted(set(values))


def _trials(text: str) -> int:
    """The type of --trials: 0 (no Monte-Carlo column) or at least 10^4."""
    value = int(text)
    if value != 0 and value < 10 ** 4:
        raise argparse.ArgumentTypeError(
            f"expected 0 or at least 10^4 trials, got {text!r}")
    return value


def _seed(text: str) -> int:
    """The type of every --seed: a Philox key, an integer in [0, 2^128)."""
    value = int(text)
    if not 0 <= value < 2 ** 128:
        raise argparse.ArgumentTypeError(
            f"expected a seed in [0, 2^128), got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """The type of every float flag: NaN and infinities are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, str)):
        return str(x)
    return f"{x:.12g}"


def _best(named_values: dict[str, float | None], order=_METHOD_ORDER) -> str:
    """The largest of the named values, the first in ``order`` on ties."""
    best_name = ""
    best_val = -math.inf
    for name in order:
        val = named_values.get(name)
        if val is not None and val > best_val:
            best_name, best_val = name, val
    return best_name


# ----------------------------------------------------------------------
# estimation settings
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Column:
    """One bound column: ``divergence(model, **params)`` feeds the `bounds`
    method ``method``, taking one array per parameter and returning the
    divergence at each point, +inf where it is infinite, or (the sibson,
    hellinger and egz columns) a `bounds.FirstOrder` of those values and
    the condition at whose root `bounds.optimize_bound` refines them;
    ``params`` names the flags that fix the parameters, ``grid(args)``
    gives the values searched under --optimize and ``fixed`` pins those
    without a flag.
    ``bound(model)`` replaces all of these for a column that computes its
    own `BoundResult`."""

    method: str
    divergence: Callable | None = None
    params: tuple[str, ...] = ()
    grid: Callable | None = None
    fixed: dict = field(default_factory=dict)
    bound: Callable | None = None


@dataclass(frozen=True)
class Setting:
    """One estimation setting: ``model(n, args)`` builds the model, which
    ``small_ball`` and ``upper`` map to the small-ball function and the
    risk upper bound; ``estimator`` is the Monte-Carlo reference
    estimator; ``defaults`` maps each float flag's dest to its default;
    ``notes`` explain in the sidecar the columns left empty.

    The callables look up `models` functions when called, so that
    wrappers installed on the module take effect."""

    name: str
    help: str
    model: Callable
    small_ball: Callable
    upper: Callable
    estimator: str
    columns: tuple[Column, ...]
    defaults: dict
    notes: dict = field(default_factory=dict)


def _alpha_grid(name):
    return lambda args: {name: default_alpha_grid()}


def _bernoulli_hellinger(model, p: np.ndarray) -> bounds.FirstOrder:
    return models.bernoulli_hellinger_first_order(model.n, p)


BERNOULLI = Setting(
    name="bernoulli",
    help="uniform-prior Bernoulli bias",
    model=lambda n, args: models.BernoulliUniformModel(n),
    small_ball=lambda model: models.bernoulli_small_ball(),
    upper=lambda model: models.bernoulli_upper_bound(model.n),
    estimator="posterior-median",
    columns=(
        Column("mi", lambda model: models.bernoulli_mutual_information(model.n)),
        Column("ml", lambda model: models.bernoulli_ml(model.n).upper),
        Column("sibson",
               lambda model, alpha: models.bernoulli_sibson_first_order(model.n, alpha),
               ("alpha",), _alpha_grid("alpha")),
        Column("hellinger", _bernoulli_hellinger, ("p",), _alpha_grid("p")),
        # the bound depends on gamma/zeta alone (linear L), so --optimize
        # searches the ratio with zeta = 1
        Column("egz",
               lambda model, gamma, zeta:
                   models.bernoulli_e_gamma_zeta_batch(model.n, gamma, zeta),
               ("gamma", "zeta"),
               lambda args: {"gamma": default_ratio_grid(), "zeta": [1.0]}),
    ),
    defaults={"alpha": 2.0, "p": 2.0, "gamma": 3.0, "zeta": 1.5},
)

NOISY_BERNOULLI = Setting(
    name="noisy-bernoulli",
    help="Bernoulli bias through a BSC with crossover probability --lambda",
    model=lambda n, args: models.NoisyBernoulliModel(n, args.lam),
    small_ball=lambda model: models.bernoulli_small_ball(),
    upper=lambda model: models.noisy_bernoulli_upper_bound(model),
    estimator="posterior-median",
    columns=(
        # the clean-sample chi-square bound that the contraction refines
        Column("hellinger", _bernoulli_hellinger, fixed={"p": 2.0}),
        Column("sdpi", bound=lambda model: models.noisy_bernoulli_bound(model, p=2.0)),
    ),
    defaults={"lam": 0.25},
)

GAUSSIAN = Setting(
    name="gaussian",
    help="Gaussian mean with Gaussian prior",
    model=lambda n, args: models.GaussianModel(n, args.sigma_w2, args.sigma2),
    small_ball=lambda model: models.gaussian_small_ball(model),
    upper=lambda model: models.gaussian_upper_bound(model),
    estimator="posterior-mean",
    columns=(
        Column("mi", lambda model: models.gaussian_mutual_information(model)),
        Column("sibson",
               lambda model, alpha: models.gaussian_sibson_first_order(model, alpha),
               ("alpha",), _alpha_grid("alpha")),
        Column("hellinger",
               lambda model, p: models.gaussian_hellinger_first_order(model, p),
               ("p",), _alpha_grid("p")),
        # the figure protocol: gamma optimized, zeta held at its flag; the
        # kernel integrates a whole array of gammas in one quadrature pass
        Column("egz",
               lambda model, gamma, zeta: models.gaussian_e_gamma_zeta(model, gamma, zeta),
               ("gamma", "zeta"),
               lambda args: {"gamma": default_gamma_zeta_grid()[0],
                             "zeta": [args.zeta]}),
    ),
    defaults={"alpha": 2.0, "p": 1.5, "gamma": 2.0, "zeta": 1.5,
              "sigma_w2": 1.0, "sigma2": 2.0},
    notes={"ml": "maximal leakage is infinite for a Gaussian parameter"},
)

SETTINGS = {s.name: s for s in (BERNOULLI, NOISY_BERNOULLI, GAUSSIAN)}

_FLAG_NAMES = {"lam": "--lambda", "sigma_w2": "--sigma-w2"}  # others: "--" + dest


# the range of each bound parameter, as the bound functions and the
# kernels enforce it
_PARAM_RANGES = {
    "alpha": (lambda v: v > 1.0, "must exceed 1"),
    "p": (lambda v: v > 1.0, "must exceed 1"),
    "gamma": (lambda v: v >= 0.0, "must be non-negative"),
    "zeta": (lambda v: v > 0.0, "must be positive"),
}


def _column_grid(column: Column, args) -> dict:
    """The values of each parameter that ``column`` searches: its grid
    under --optimize, else its flags, with ``column.fixed`` pinned."""
    if getattr(args, "optimize", False) and column.grid is not None:
        grid = column.grid(args)
    else:
        grid = {name: [getattr(args, name)] for name in column.params}
    grid.update((name, [value]) for name, value in column.fixed.items())
    return grid


def _check_bound_parameters(setting: Setting, args) -> None:
    """Raise `ValueError` for a bound parameter that the run would pass
    outside the range its bound function accepts."""
    for column in setting.columns:
        if column.bound is not None:
            continue
        for name, values in _column_grid(column, args).items():
            in_range, requirement = _PARAM_RANGES[name]
            bad = [v for v in values if not in_range(v)]
            if bad:
                raise ValueError(f"{_FLAG_NAMES.get(name, '--' + name)} {requirement}, "
                                 f"got {bad[0]:g}")


def _column_bound(column: Column, model, L, grid: dict) -> bounds.BoundResult:
    """``column``'s bound at ``model``, searched over ``grid``, the
    column's `_column_grid`."""
    if column.bound is not None:
        return column.bound(model)
    return bounds.optimize_bound(functools.partial(column.divergence, model),
                                 column.method, grid, L)


def _estimation_point(setting: Setting, n: int, args) -> tuple[dict, dict]:
    """The table row and the sidecar entry of one sample count n."""
    model = setting.model(n, args)
    L = setting.small_ball(model)
    row = dict.fromkeys(_METHOD_ORDER)
    info = {name: {"note": note} for name, note in setting.notes.items()}
    for column in setting.columns:
        res = _column_bound(column, model, L, _column_grid(column, args))
        row[column.method] = res.value
        # how the column found its bound: its own bound function, or the
        # path of `bounds.optimize_bound`
        info[column.method] = dict(res.params, rho=res.rho_star, value=res.value,
                                   vacuous=res.vacuous, evals=res.evaluations,
                                   path="own" if column.bound else res.path)
    mc = None
    if args.trials:
        risk = oracle.mc_risk(model, setting.estimator, args.trials, args.seed)
        mc = risk.mean
        info["mc"] = {"mean": risk.mean, "se": risk.std_error,
                      "trials": risk.samples}
    row.update(n=n, upper=setting.upper(model), mc=mc, best=_best(row))
    return row, info


def _theta_for(rule: str, n: int) -> float:
    rule = rule.strip()
    if rule.startswith("n^"):
        try:
            theta = float(n) ** float(rule[2:])
        except OverflowError:
            raise ValueError(f"bias rule {rule!r} overflows at n={n}") from None
    else:
        theta = float(rule)
    if not math.isfinite(theta):
        raise ValueError(f"bias rule {rule!r} gives theta={theta:g} at n={n}")
    return theta


def _hide_and_seek_point(n: int, args) -> tuple[dict, dict] | None:
    theta = _theta_for(args.theta_rule, n)
    if not 0.0 <= theta < 0.5:
        print(f"skipping n={n}: theta={theta:g} outside [0, 1/2)",
              file=sys.stderr)
        return None
    model = models.HideAndSeekModel(d=args.d, m=args.m, b=args.b,
                                    theta=theta, n=n)
    hb = models.hide_and_seek_bounds(model)
    row = dict(n=n, ml=hb.ml, nips=hb.nips, mi=hb.mi)
    row["best"] = _best(row, ("ml", "nips", "mi"))
    info = {"theta": theta, "nips_valid": hb.nips_valid, "mi_valid": hb.mi_valid,
            "leakage": models.hide_and_seek_leakage(model)}
    return row, info


def _emit(rows, infos, header, keys, args, setting):
    if args.format == "json":
        payload = json.dumps({"setting": setting, "rows": rows}, indent=2,
                             sort_keys=True, default=float)
        text = payload + "\n"
    else:
        lines = [header] + [",".join(_fmt(row[key]) for key in keys) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        sidecar = {"setting": setting, "seed": args.seed,
                   "points": {str(n): infos[n] for n in sorted(infos)}}
        with open(args.out + ".params.json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True, default=float)
    else:
        sys.stdout.write(text)


def _sweep(point_fn, n_values, args, setting, header, keys):
    rows: dict[int, dict] = {}
    infos: dict[int, dict] = {}
    for n in n_values:
        try:
            result = point_fn(n, args)
        except Exception as exc:  # exit code 3 names the failing point
            print(f"numerical failure near n={n}: {exc}", file=sys.stderr)
            return 3
        if result is not None:
            rows[n], infos[n] = result
    _emit([rows[n] for n in sorted(rows)], infos, header, keys, args, setting)
    return 0


def _cmd_validate(args) -> int:
    from . import validate  # imported here: its suites run this module's rows

    results = validate.run_validation_suites(quick=args.quick, seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_table_flags(sub, n_default: str) -> None:
    sub.add_argument("--config", default=None,
                     help="JSON file with defaults; explicit flags win")
    sub.add_argument("--n", default=n_default,
                     help="sample counts, e.g. '1..50' or '1,2,5'")
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--out", default="-", help="output path ('-' = stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbounds",
        description="Lower bounds on Bayesian estimation risk as CSV tables.")
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for setting in SETTINGS.values():
        sub = commands[setting.name] = subs.add_parser(setting.name,
                                                       help=setting.help)
        _add_table_flags(sub, "1..50")
        if any(column.grid is not None for column in setting.columns):
            sub.add_argument("--optimize", action="store_true",
                             help="optimize bound parameters over the default grids")
        for dest, default in setting.defaults.items():
            sub.add_argument(_FLAG_NAMES.get(dest, "--" + dest), dest=dest,
                             type=_finite_float, default=default)
        sub.add_argument("--trials", type=_trials, default=0,
                         help="Monte-Carlo trials for the mc_risk column "
                              "(0 = skip, else at least 10^4)")

    h = commands["hide-and-seek"] = subs.add_parser(
        "hide-and-seek", help="distributed biased-coordinate detection")
    _add_table_flags(h, "1..100")
    h.add_argument("--d", type=int, default=512)
    h.add_argument("--m", type=int, default=10)
    h.add_argument("--b", type=_finite_float, default=1536.0)
    h.add_argument("--theta-rule", dest="theta_rule", default="n^-2",
                   help="bias rule: a float, or 'n^-2' style power laws")

    v = commands["validate"] = subs.add_parser(
        "validate", help="run the numerical validation suites")
    v.add_argument("--quick", action="store_true")
    v.add_argument("--seed", type=_seed, default=0)
    parser._command_parsers = commands
    return parser


def _apply_config_file(parser, args, argv):
    """Re-parse with file values as defaults: flags > config > defaults.

    File values pass through the same types and choices as the flags they
    set; an on/off flag such as --optimize takes a JSON true or false.
    """
    try:
        with open(args.config) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.exit(2, f"configuration error: cannot read {args.config}: {exc}\n")
    sub = parser._command_parsers[args.command]
    # --help and --config itself are no settings a file could carry
    actions = {action.dest: action for action in sub._actions
               if action.dest not in ("help", "config")}
    unknown = set(loaded) - set(actions)
    if unknown:
        parser.exit(2, f"configuration error: unknown config keys {sorted(unknown)}\n")
    try:
        sub.set_defaults(**{key: _config_value(actions[key], value)
                            for key, value in loaded.items()})
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.exit(2, f"configuration error: {exc}\n")
    return parser.parse_args(argv)


def _config_value(action, value):
    """A config file value checked as the flag ``action`` checks its own."""
    if action.nargs == 0:  # an on/off flag
        if not isinstance(value, bool):
            raise ValueError(f"{action.dest} must be true or false, got {value!r}")
        return value
    if action.type:
        value = action.type(str(value))
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{action.dest} must be one of {list(action.choices)}, "
                         f"got {value!r}")
    return value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args = _apply_config_file(parser, args, argv)
    setting = SETTINGS.get(args.command)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        n_values = _parse_n_range(str(args.n))
        # surface bad model and bound parameters as configuration errors
        # up front
        if setting is not None:
            setting.model(n_values[0], args)
            _check_bound_parameters(setting, args)
        else:
            for n in n_values:
                _theta_for(args.theta_rule, n)
            # theta = 0 always lies in range; the rule's value may skip this n
            models.HideAndSeekModel(d=args.d, m=args.m, b=args.b, theta=0.0,
                                    n=n_values[0])
    except ValueError as exc:
        parser.exit(2, f"configuration error: {exc}\n")
    if setting is None:
        return _sweep(_hide_and_seek_point, n_values, args, "hide-and-seek",
                      HNS_HEADER, HNS_KEYS)
    return _sweep(functools.partial(_estimation_point, setting), n_values, args,
                  setting.name, EST_HEADER, EST_KEYS)


if __name__ == "__main__":
    sys.exit(main())
