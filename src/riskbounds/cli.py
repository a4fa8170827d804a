"""Command-line front end: figure-data tables as CSV/JSON plus validation.

Subcommands: bernoulli, noisy-bernoulli, gaussian, hide-and-seek, validate.
Each estimation setting is one `Setting` record, from which its flags and
its rows are built; every bound column, fixed-parameter or searched under
--optimize, goes through `bounds.optimize_bounds`.  One CSV row is
emitted per sample count n; a JSON sidecar next to --out records per
point and column the optimizing parameters, rho*, the value, the
evaluations and the search path (fixed, grid or root).
Float flags must be finite and seeds non-negative.

Every table sweeps its bounds in the calling thread, stage by stage over
all its n (`_estimation_table`): the models, then each column in column
order, then the upper bounds, each stage over the n before the first
failure found so far.  A column runs the searches of all those n in
lockstep, one kernel call per round (the grid, a growth, a root step) for
all the n, and a call that raises runs again one n at a time, in n
order, so that its error goes to its own n.  The failure named is thus
that of the first failing n, and at that n of the first failing column in
column order, as a sweep n by n would name it.  A parameter-free column
has one round, one call for all the n: the Bernoulli mi column's takes
its values from one `models.bernoulli_mutual_informations` iterator,
which shares its quadrature passes among chunks of consecutive n.  A
--trials table then fills its mc_risk column with one `oracle.mc_risks`
call over the n before the failing one: the Philox blocks of all of them
share one thread pool, and each n's block totals are added in block
order, so the column is the same as one `oracle.mc_risk` per n.
Exit code 3 names the first failing n, of a bound or of a simulation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds, models, oracle, sdpi

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


# the ratios t = gamma/zeta that both egz columns search under --optimize:
# powers of two, so that zeta * t / zeta is t exactly whatever zeta is
RATIO_LADDER = 2.0 ** np.arange(13)


def _parse_n_range(text: str) -> list[int]:
    values: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = map(int, part.split(".."))
                if lo > hi:
                    raise ValueError
                values.extend(range(lo, hi + 1))
            elif part:
                values.append(int(part))
    except ValueError:  # a bad int, more than one '..' in a part, or lo > hi
        values = []
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
    """One bound column, ``key`` in the rows and the sidecar:
    ``divergence(model, **params)`` feeds the `bounds` method ``method``
    (``key`` where not given), taking one model or, as
    `bounds.optimize_bounds` calls it, a list of one per point, and one
    array per parameter, and returning the divergence at each point, +inf
    where it is infinite, or (the sibson, hellinger and egz columns) a
    `bounds.FirstOrder` of those values and the condition at whose root
    the search refines them; ``params`` names the flags that fix the
    parameters, ``grid(args)`` gives the values searched under --optimize
    (the search extends a grid at its top while the bound still rises
    there) and ``fixed`` pins those without a flag.  ``record(model)``
    adds entries to the column's sidecar record at ``model``."""

    key: str
    divergence: Callable
    params: tuple[str, ...] = ()
    grid: Callable | None = None
    fixed: dict = field(default_factory=dict)
    method: str = ""
    record: Callable | None = None

    def __post_init__(self):
        if not self.method:
            object.__setattr__(self, "method", self.key)


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


def _ratio_grid(args):
    """The egz grid of both settings: gamma = zeta * t over `RATIO_LADDER`
    with zeta at its flag, which comes first so that a bad --zeta is named
    as itself.  Under a linear L the bound depends on t alone."""
    return {"zeta": [args.zeta], "gamma": args.zeta * RATIO_LADDER}


def _n(model):
    """The sample count of one model, or the list of those of a list of
    models."""
    return [m.n for m in model] if isinstance(model, list) else model.n


def _each(fn):
    """The parameter-free divergence ``fn(model)`` as a column's: of one
    model, or of each of a list of models."""
    return lambda model: [fn(m) for m in model] if isinstance(model, list) else fn(model)


def _bernoulli_mi(model):
    """The Bernoulli MI of one model, or of each of a list of models from
    one `models.bernoulli_mutual_informations` iterator."""
    if isinstance(model, list):
        return list(models.bernoulli_mutual_informations(_n(model)))
    return models.bernoulli_mutual_information(model.n)


def _bernoulli_hellinger(model, p: np.ndarray) -> bounds.FirstOrder:
    return models.bernoulli_hellinger_first_order(_n(model), p)


def _eta(model):
    """The BSC contraction constant of a noisy model, or of each of a list."""
    return _each(lambda m: sdpi.eta_operator_convex_bsc(m.lam))(model)


def _contracted_hellinger(model, p: np.ndarray) -> np.ndarray:
    """eta H_p of the clean flips, eta the BSC's contraction constant
    (`_eta`), as `models.noisy_bernoulli_bound` takes it: 0 where eta = 0,
    where nothing passes, whatever H_p."""
    eta = np.asarray(_eta(model))
    h_p = _bernoulli_hellinger(model, p).value
    with np.errstate(invalid="ignore"):  # 0 * inf, not taken
        return np.where(eta > 0.0, eta * h_p, 0.0)


BERNOULLI = Setting(
    name="bernoulli",
    help="uniform-prior Bernoulli bias",
    model=lambda n, args: models.BernoulliUniformModel(n),
    small_ball=lambda model: models.bernoulli_small_ball(),
    upper=lambda model: models.bernoulli_upper_bound(model.n),
    estimator="posterior-median",
    columns=(
        Column("mi", _bernoulli_mi),
        Column("ml", _each(lambda model: models.bernoulli_ml(model.n).upper)),
        Column("sibson",
               lambda model, alpha: models.bernoulli_sibson_first_order(_n(model), alpha),
               ("alpha",), _alpha_grid("alpha")),
        Column("hellinger", _bernoulli_hellinger, ("p",), _alpha_grid("p")),
        Column("egz",
               lambda model, gamma, zeta:
                   models.bernoulli_e_gamma_zeta_batch(_n(model), gamma, zeta),
               ("gamma", "zeta"), _ratio_grid),
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
        # the same bound at the divergence contracted through the channel
        Column("sdpi", _contracted_hellinger, fixed={"p": 2.0}, method="hellinger",
               record=lambda model: {"eta": _eta(model)}),
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
        Column("mi", _each(lambda model: models.gaussian_mutual_information(model))),
        Column("sibson",
               lambda model, alpha: models.gaussian_sibson_first_order(model, alpha),
               ("alpha",), _alpha_grid("alpha")),
        Column("hellinger",
               lambda model, p: models.gaussian_hellinger_first_order(model, p),
               ("p",), _alpha_grid("p")),
        Column("egz",
               lambda model, gamma, zeta: models.gaussian_e_gamma_zeta(model, gamma, zeta),
               ("gamma", "zeta"), _ratio_grid),
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
        for name, values in _column_grid(column, args).items():
            in_range, requirement = _PARAM_RANGES[name]
            bad = [v for v in values if not in_range(v)]
            if bad:
                raise ValueError(f"{_FLAG_NAMES.get(name, '--' + name)} {requirement}, "
                                 f"got {bad[0]:g}")


def _estimation_table(setting: Setting, n_values, args) -> tuple[dict, dict, tuple | None]:
    """The table rows and the sidecar entries of the sample counts
    ``n_values``, by n, and the first failure as (n, error), or None.

    The sweep goes stage by stage over all the n before the first failure
    found so far: the models and their small-ball functions, then each
    column in column order (`bounds.optimize_bounds`), then the upper
    bounds.  A later stage runs only the n before the failing one, so the
    failure named is that of the first failing n, and at that n that of
    the first failing stage and column, as a sweep n by n would name it."""
    failure = None
    table_models, small_balls = [], []
    for n in n_values:
        try:
            model = setting.model(n, args)
            small_balls.append(setting.small_ball(model))
        except Exception as exc:
            failure = n, exc
            break
        table_models.append(model)
    ns = list(n_values[:len(table_models)])
    rows = [dict.fromkeys(_METHOD_ORDER) for _ in ns]
    infos = [{name: {"note": note} for name, note in setting.notes.items()} for _ in ns]
    for column in setting.columns:
        results = bounds.optimize_bounds(column.divergence, column.method,
                                         _column_grid(column, args),
                                         table_models[:len(ns)], small_balls[:len(ns)])
        for i, res in enumerate(results):
            if isinstance(res, Exception):
                failure = ns[i], res
                del ns[i:]
                break
            rows[i][column.key] = res.value
            infos[i][column.key] = dict(res.params, rho=res.rho_star, value=res.value,
                                        vacuous=res.vacuous, evals=res.evaluations,
                                        path=res.path)
            if column.record is not None:
                infos[i][column.key].update(column.record(table_models[i]))
    for i, (n, row) in enumerate(zip(ns, rows)):
        try:
            upper = setting.upper(table_models[i])
        except Exception as exc:
            failure = n, exc
            del ns[i:]
            break
        row.update(n=n, upper=upper, mc=None, best=_best(row))
    return dict(zip(ns, rows)), dict(zip(ns, infos)), failure


def _estimation_point(setting: Setting, n: int, args) -> tuple[dict, dict]:
    """The table row and the sidecar entry of one sample count n; a
    failure raises its error."""
    rows, infos, failure = _estimation_table(setting, [n], args)
    if failure is not None:
        raise failure[1]
    return rows[n], infos[n]


def _fill_mc(setting: Setting, args, rows: dict, infos: dict):
    """Fill the mc cell of each row, and its sidecar entry, from one
    `oracle.mc_risks` call over the rows' n; returns the first n whose
    simulation raised, with its error, or None.  An error raised before
    any block runs (the oracle refusing a model) names the first n."""
    ns = sorted(rows)
    n = ns[0]
    try:
        with contextlib.closing(oracle.mc_risks(
                [setting.model(k, args) for k in ns], setting.estimator,
                args.trials, args.seed)) as risks:
            for n in ns:
                risk = next(risks)
                rows[n]["mc"] = risk.mean
                infos[n]["mc"] = {"mean": risk.mean, "se": risk.std_error,
                                  "trials": risk.samples}
    except Exception as exc:
        return n, exc
    return None


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
    info = {"theta": theta, "nips_valid": hb.nips_valid,
            "leakage": models.hide_and_seek_leakage(model)}
    return row, info


def _hide_and_seek_table(n_values, args) -> tuple[dict, dict, tuple | None]:
    """`_hide_and_seek_point` of each n in order, up to the first that
    raises: the rows and sidecar entries by n, and the failure or None."""
    rows: dict[int, dict] = {}
    infos: dict[int, dict] = {}
    for n in n_values:
        try:
            result = _hide_and_seek_point(n, args)
        except Exception as exc:
            return rows, infos, (n, exc)
        if result is not None:
            rows[n], infos[n] = result
    return rows, infos, None


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


def _finish(table, args, setting, header, keys, fill=None):
    """Emit ``table``, the rows and sidecar entries by n of the n before
    the first failing one, with that failure or None; ``fill(args, rows,
    infos)`` first completes the rows and may name an earlier failing n.
    Exit code 3 names the first failing n."""
    rows, infos, failure = table
    if fill is not None and rows:
        failure = fill(args, rows, infos) or failure
    if failure is not None:
        print(f"numerical failure near n={failure[0]}: {failure[1]}", file=sys.stderr)
        return 3
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
        return _finish(_hide_and_seek_table(n_values, args), args, "hide-and-seek",
                       HNS_HEADER, HNS_KEYS)
    return _finish(_estimation_table(setting, n_values, args), args, setting.name,
                   EST_HEADER, EST_KEYS,
                   functools.partial(_fill_mc, setting) if args.trials else None)


if __name__ == "__main__":
    sys.exit(main())
