"""Command-line behaviour: schemas, determinism, exit codes, validation."""

import dataclasses
import functools
import json
import math
import pathlib
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbounds import bounds, cli, models, oracle, validate

from quadrature_oracle import brent_max
from test_bounds import optimize_one


class TestParsing:
    def test_n_range_forms(self):
        assert cli._parse_n_range("1..5") == [1, 2, 3, 4, 5]
        assert cli._parse_n_range("1,2,5") == [1, 2, 5]
        assert cli._parse_n_range("7") == [7]
        assert cli._parse_n_range("3..4,1") == [1, 3, 4]

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            cli._parse_n_range("0..3")
        with pytest.raises(ValueError):
            cli._parse_n_range("")

    def test_theta_rules(self):
        assert cli._theta_for("n^-2", 4) == 4.0 ** -2
        assert cli._theta_for("n^-1.5", 9) == 9.0 ** -1.5
        assert cli._theta_for("0.01", 33) == 0.01

    @pytest.mark.parametrize("rule", ["nan", "n^nan", "inf", "n^inf", "n^1e10"])
    def test_non_finite_theta_rule_rejected(self, rule):
        with pytest.raises(ValueError):
            cli._theta_for(rule, 2)

    def test_config_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["bernoulli", "--n", "0..3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("text", ["0", "1..2..3", "..5", "1..", "a", "2.5", "",
                                      "5..1,3"])
    def test_malformed_range_is_named(self, text, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["bernoulli", "--n", text])
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            f"configuration error: invalid sample-count range {text!r}\n")

    def test_config_file_precedence(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": "2", "gamma": 4.0, "zeta": 2.0}))
        out = tmp_path / "cfg.csv"
        # --gamma on the command line must beat the config file value
        assert cli.main(["bernoulli", "--config", str(cfg), "--gamma", "3.0",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("2,")  # n from config
        sidecar = json.loads((tmp_path / "cfg.csv.params.json").read_text())
        assert sidecar["points"]["2"]["egz"]["gamma"] == 3.0
        assert sidecar["points"]["2"]["egz"]["zeta"] == 2.0
        assert "mc" not in sidecar["points"]["2"]  # no --trials

    def test_unknown_config_key_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"granma": 4.0}))
        with pytest.raises(SystemExit) as err:
            cli.main(["bernoulli", "--config", str(cfg)])
        assert err.value.code == 2

    def test_bad_model_parameter_exit_code(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["gaussian", "--n", "1,2", "--sigma2", "-1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["bernoulli", "--n", "3", "--alpha", "1"],
        ["bernoulli", "--n", "3", "--p", "1"],
        ["bernoulli", "--n", "3", "--zeta", "0"],
        ["bernoulli", "--n", "3", "--gamma", "-1"],
        ["gaussian", "--n", "3", "--alpha", "0.5"],
        ["gaussian", "--n", "3", "--optimize", "--zeta", "-2"],
    ])
    def test_bad_bound_parameter_exit_code(self, argv, capsys):
        # refused before any n runs, as a bad model parameter is
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "configuration error: --" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gaussian", "--n", "3", "--p", "3"],  # an infinite divergence: vacuous
        ["bernoulli", "--n", "3", "--gamma", "0"],
        ["bernoulli", "--n", "3", "--optimize", "--alpha", "1"],  # grid, not flag
    ])
    def test_bound_parameters_in_range_run(self, argv, capsys):
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("setting", ["bernoulli", "gaussian"])
    @pytest.mark.parametrize("gamma, zeta", [("1e300", "1e-10"), ("1e-308", "1e308")])
    def test_gamma_zeta_ratio_outside_the_float_range_fails(self, setting, gamma,
                                                            zeta, capsys):
        assert cli.main([setting, "--n", "2", "--gamma", gamma, "--zeta", zeta]) == 3
        err = capsys.readouterr().err
        assert "numerical failure near n=2: gamma/zeta" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("argv", [
        ["bernoulli", "--n", "2", "--alpha", "1e200"],
        ["bernoulli", "--n", "2", "--p", "1e200"],
        ["gaussian", "--n", "2", "--alpha", "1e200"],
    ])
    def test_huge_order_gives_a_row(self, argv, capsys):
        # the square (order - 1)^2 of the first-order condition leaves the
        # float range from about 1.34e154; the fixed column never reads it
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("n,") and out.split("\n")[1].startswith("2,")
        assert err == ""

    def test_order_beyond_the_gamma_ratio_sums_fails_by_name(self, capsys):
        assert cli.main(["bernoulli", "--n", "2", "--alpha", "1e307"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure near n=2: order 1e+307 is too large" in err
        assert "Warning" not in err

    def test_mi_marginal_failure_names_a_plain_float(self, capsys):
        # the quadrature MI misses its marginal check first at n = 562
        assert cli.main(["bernoulli", "--n", "562"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure near n=562: observation marginal sums to 0.9")
        assert "np.float64" not in err

    def test_mi_failure_inside_a_table_names_its_n(self, capsys):
        # 560 and 561 pass their checks; the table stops at 562, not 563
        assert cli.main(["bernoulli", "--n", "560..563"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure near n=562: observation marginal sums to 0.9")

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def boom(n):
            raise ArithmeticError("synthetic blow-up")

        monkeypatch.setattr(cli.models, "bernoulli_ml", boom)
        assert cli.main(["bernoulli", "--n", "1,2"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    # n = 1 is skipped (theta = 1), so the first pending n is not the culprit
    @pytest.mark.parametrize("argv, target", [
        pytest.param(["hide-and-seek", "--n", "1..4"], "hide_and_seek_bounds",
                     id="hide-and-seek"),
        pytest.param(["bernoulli", "--n", "1..4", "--trials", "10000"],
                     "bernoulli_upper_bound", id="trials"),
    ])
    def test_numerical_failure_names_the_failing_n(self, argv, target,
                                                   monkeypatch, capsys):
        real = getattr(models, target)
        failed_on = []

        def fail_at_three(arg):
            if getattr(arg, "n", arg) == 3:
                failed_on.append(threading.current_thread())
                raise ArithmeticError("synthetic blow-up")
            return real(arg)

        monkeypatch.setattr(cli.models, target, fail_at_three)
        assert cli.main(argv) == 3
        assert "numerical failure near n=3:" in capsys.readouterr().err
        assert failed_on == [threading.main_thread()]

    def test_failing_oracle_block_names_the_failing_n(self, monkeypatch, capsys):
        real = oracle._simulate_block

        def fail_at_three(model, table, size, rng):
            if model.n == 3:
                raise ArithmeticError("synthetic blow-up")
            return real(model, table, size, rng)

        # the block runs on a pool thread; its error still names its n
        monkeypatch.setattr(oracle, "_simulate_block", fail_at_three)
        assert cli.main(["bernoulli", "--n", "1..4", "--trials", "10000"]) == 3
        assert "numerical failure near n=3:" in capsys.readouterr().err

    @pytest.mark.parametrize("bound_n, block_n, named", [
        (4, 2, 2),  # the simulation of an n before the failing bound
        (2, 4, 2),  # n = 4 is never simulated: the sweep stopped at 2
        (1, 1, 1),  # nothing to simulate
        (None, 5, 5),  # a simulation failure alone
    ])
    def test_first_failure_of_bound_or_block_is_named(self, bound_n, block_n, named,
                                                       monkeypatch, capsys):
        real_upper, real_block = models.bernoulli_upper_bound, oracle._simulate_block
        simulated = []

        def upper(n):
            if n == bound_n:
                raise ArithmeticError("synthetic bound blow-up")
            return real_upper(n)

        def block(model, table, size, rng):
            simulated.append(model.n)
            if model.n == block_n:
                raise ArithmeticError("synthetic block blow-up")
            return real_block(model, table, size, rng)

        monkeypatch.setattr(cli.models, "bernoulli_upper_bound", upper)
        monkeypatch.setattr(oracle, "_simulate_block", block)
        threads = threading.active_count()
        assert cli.main(["bernoulli", "--n", "1..6", "--trials", "40000"]) == 3
        assert f"numerical failure near n={named}:" in capsys.readouterr().err
        assert all(n < (bound_n or 7) for n in simulated)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("argv", [
        ["bernoulli", "--n", "2", "--gamma", "nan"],
        ["gaussian", "--n", "1", "--zeta", "nan"],
        ["noisy-bernoulli", "--n", "1", "--lambda", "inf"],
        ["hide-and-seek", "--n", "2", "--b", "nan"],
        ["bernoulli", "--n", "2", "--alpha", "two"],
    ])
    def test_non_finite_float_flag_exit_code(self, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["hide-and-seek", "--n", "2..4", "--theta-rule", "nan"],
        ["hide-and-seek", "--n", "2..4", "--theta-rule", "n^nan"],
        ["hide-and-seek", "--n", "2", "--theta-rule", "half"],
        ["hide-and-seek", "--n", "2", "--d", "1"],
        ["hide-and-seek", "--n", "2", "--b", "-1"],
        ["bernoulli", "--n", "2", "--trials", "-5"],
        ["gaussian", "--n", "2", "--trials", "9999"],
        ["hide-and-seek", "--n", "1..3", "--theta-rule", "n^1e10"],
        ["bernoulli", "--n", "2", "--trials", "10000", "--seed", "-1"],
        ["bernoulli", "--n", "2", "--seed", "-1"],
        ["hide-and-seek", "--n", "2", "--seed", "-1"],
        ["gaussian", "--n", "2", "--trials", "10000", "--seed", str(2 ** 128)],
        ["validate", "--quick", "--seed", "-1"],
        # a dict stands for a --config file with that content
        ["bernoulli", "--n", "1", "--config", {"format": "xml"}],
        ["gaussian", "--n", "1", "--config", {"optimize": "false"}],
        ["gaussian", "--n", "1", "--config", {"optimize": 1}],
        ["bernoulli", "--n", "1", "--config", {"optimize": None}],
        ["bernoulli", "--n", "1", "--config", {"help": True}],
        ["bernoulli", "--n", "1", "--config", {"config": "other.json"}],
    ])
    def test_bad_configuration_exit_code(self, argv, tmp_path):
        cfg = tmp_path / "run.json"
        for item in argv:
            if isinstance(item, dict):
                cfg.write_text(json.dumps(item))
        argv = [str(cfg) if isinstance(item, dict) else item for item in argv]
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2

    def test_config_choice_and_flag_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": "1", "format": "json", "optimize": False}))
        assert cli.main(["gaussian", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["setting"] == "gaussian"

    def test_non_finite_config_value_exit_code(self, tmp_path):
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"gamma": NaN}')
        with pytest.raises(SystemExit) as err:
            cli.main(["bernoulli", "--n", "2", "--config", str(cfg)])
        assert err.value.code == 2

    def test_too_few_trials_in_config_exit_code(self, tmp_path):
        cfg = tmp_path / "trials.json"
        cfg.write_text('{"trials": 5}')
        with pytest.raises(SystemExit) as err:
            cli.main(["bernoulli", "--n", "2", "--config", str(cfg)])
        assert err.value.code == 2

    @pytest.mark.parametrize("seed", ["-1", "1.5", str(2 ** 128)])
    def test_bad_seed_in_config_exit_code(self, tmp_path, seed):
        cfg = tmp_path / "seed.json"
        cfg.write_text(f'{{"seed": {seed}}}')
        with pytest.raises(SystemExit) as err:
            cli.main(["bernoulli", "--n", "2", "--config", str(cfg)])
        assert err.value.code == 2

    def test_largest_seed_is_accepted(self, capsys):
        assert cli.main(["bernoulli", "--n", "1", "--trials", "10000",
                         "--seed", str(2 ** 128 - 1)]) == 0


class TestBernoulliCommand:
    def test_schema_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["bernoulli", "--n", "1,2,3", "--trials", "10000",
                "--seed", "9"]
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == cli.EST_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[-1] in {"mi", "ml", "sibson", "hellinger", "egz"}
        sidecar = json.loads((tmp_path / "a.csv.params.json").read_text())
        assert sidecar["setting"] == "bernoulli"
        assert "1" in sidecar["points"]
        point = sidecar["points"]["1"]
        # the Monte-Carlo cell: the row's mc_risk, its standard error, trials
        mc = point.pop("mc")
        assert mc["trials"] == 10000 and mc["se"] > 0.0
        assert cli._fmt(mc["mean"]) == first[-2]
        # fixed parameters and a closed-form radius (the mi bound's too,
        # for a linear small-ball function): one evaluation each
        evals = {name: entry["evals"] for name, entry in point.items()}
        assert set(evals.values()) == {1}
        assert {entry["path"] for entry in point.values()} == {"fixed"}

    def test_row_values_match_direct_computation(self, tmp_path):
        out = tmp_path / "one.csv"
        assert cli.main(["bernoulli", "--n", "4", "--out", str(out)]) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        ml_expect = 1.0 / (8.0 * (2.0 + math.sqrt(math.pi * 4 / 2.0)))
        assert math.isclose(float(row[2]), ml_expect, rel_tol=1e-10)
        chi2 = models.bernoulli_hellinger_first_order(4, 2.0).value
        chi_expect = (2.0 / 27.0) / (chi2 + 1.0)
        assert math.isclose(float(row[4]), chi_expect, rel_tol=1e-10)
        L = models.bernoulli_small_ball()
        i2 = models.bernoulli_sibson_first_order(4, 2.0).value
        assert math.isclose(float(row[3]), bounds.bound("sibson", i2, L, alpha=2.0).value,
                            rel_tol=1e-10)
        egz = bounds.bound("egz", models.bernoulli_e_gamma_zeta_batch(4, 3.0, 1.5).value[0],
                           L, gamma=3.0, zeta=1.5)
        assert math.isclose(float(row[5]), egz.value, rel_tol=1e-10)


# the 48 gammas (and zetas) of the product grid that --optimize searched
# before the ratio ladder, and the 95 ratios gamma/zeta it spans
OLD_GAMMAS = np.geomspace(1e-2, 32.0, 48)
OLD_RATIOS = np.geomspace(OLD_GAMMAS[0] / OLD_GAMMAS[-1], OLD_GAMMAS[-1] / OLD_GAMMAS[0], 95)


class TestOptimizedRuns:
    def test_bernoulli_optimized_best_is_hockey_stick(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert cli.main(["bernoulli", "--n", "1,2,3", "--optimize",
                         "--out", str(out)]) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            assert line.split(",")[-1] == "egz"
        sidecar = json.loads((tmp_path / "opt.csv.params.json").read_text())
        egz = sidecar["points"]["1"]["egz"]
        assert egz["zeta"] == 1.5 and egz["gamma"] > 0.0  # (zeta t*, --zeta)
        # the ratio ladder plus the root steps of the first-order condition
        ratios = cli.RATIO_LADDER.size
        assert egz["path"] == "root"
        assert ratios < egz["evals"] <= ratios + 5
        orders = len(cli.default_alpha_grid())
        for method in ("sibson", "hellinger"):
            entry = sidecar["points"]["1"][method]
            assert entry["path"] == "root"
            assert orders < entry["evals"] <= orders + 6

    def test_bernoulli_one_flip_is_exact(self, tmp_path):
        # at n = 1, P(R_t) + t Q(R_t) = 1 holds at t* = 4/3, where the bound
        # is 2/27
        out = tmp_path / "one.csv"
        assert cli.main(["bernoulli", "--n", "1", "--optimize", "--out", str(out)]) == 0
        egz = json.loads((tmp_path / "one.csv.params.json").read_text())["points"]["1"]["egz"]
        assert egz["path"] == "root"
        assert abs(egz["value"] - 2.0 / 27.0) <= 2.0 * math.ulp(2.0 / 27.0)
        assert abs(egz["gamma"] / egz["zeta"] - 4.0 / 3.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 10, 50])
    def test_bernoulli_ratio_search_dominates_the_full_grid(self, n):
        # the (gamma, zeta) product grid that --optimize once searched is
        # the oracle of the ratio search
        args = cli.build_parser().parse_args(["bernoulli", "--optimize"])
        row, _ = cli._estimation_point(cli.BERNOULLI, n, args)
        column = next(c for c in cli.BERNOULLI.columns if c.method == "egz")
        full = optimize_one(
            functools.partial(column.divergence, cli.BERNOULLI.model(n, args)),
            "egz", {"gamma": OLD_GAMMAS, "zeta": OLD_GAMMAS},
            models.bernoulli_small_ball())
        assert row["egz"] >= full.value * (1.0 - 1e-12)

    @pytest.mark.parametrize("setting", ["bernoulli", "gaussian"])
    def test_optimized_egz_does_not_depend_on_zeta(self, setting):
        # under a linear L the bound depends on t = gamma/zeta alone, and
        # both columns search the same ratios whatever --zeta is
        values = []
        for zeta in ("0.001", "1.5", "100"):
            args = cli.build_parser().parse_args([setting, "--optimize", "--zeta", zeta])
            row, info = cli._estimation_point(cli.SETTINGS[setting], 10, args)
            assert info["egz"]["zeta"] == float(zeta) and info["egz"]["path"] == "root"
            values.append(row["egz"])
        assert max(values) - min(values) <= 1e-12 * max(values)

    @pytest.mark.parametrize("setting", ["bernoulli", "gaussian"])
    def test_optimize_refuses_a_bad_zeta_by_its_name(self, setting, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main([setting, "--n", "3", "--optimize", "--zeta", "-1"])
        assert err.value.code == 2
        assert "configuration error: --zeta must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [1, 10, 50])
    def test_gaussian_batched_grid_equals_scalar_search(self, n):
        # the egz column's one batched call per grid and a search that
        # calls the kernel once per point agree on the root path, and
        # grid + Brent is the oracle of its value
        args = cli.build_parser().parse_args(["gaussian", "--optimize"])
        model = cli.GAUSSIAN.model(n, args)
        L = cli.GAUSSIAN.small_ball(model)
        column = next(c for c in cli.GAUSSIAN.columns if c.method == "egz")
        grid = column.grid(args)

        def per_point(gamma, zeta):
            calls = [models.gaussian_e_gamma_zeta(model, g, z)
                     for g, z in zip(gamma.tolist(), zeta.tolist())]
            return bounds.FirstOrder([c.value for c in calls],
                                     [c.condition for c in calls])

        scalar = optimize_one(per_point, "egz", grid, L)
        batched = optimize_one(functools.partial(column.divergence, model), "egz", grid, L)
        assert batched == scalar and batched.path == "root"
        assert bounds.optimize_bounds(column.divergence, "egz", cli._column_grid(column, args),
                                      [model], [L]) == [scalar]
        oracle = grid_and_brent(per_point, "egz", grid, L)
        assert abs(batched.value - oracle.value) <= 1e-14 * oracle.value
        assert batched.evaluations < oracle.evaluations

    def test_gaussian_optimized_runs(self, tmp_path):
        out = tmp_path / "gopt.csv"
        assert cli.main(["gaussian", "--n", "1", "--optimize",
                         "--out", str(out)]) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert float(row[5]) > 0.0  # hockey-stick column populated


def _egz_search(setting, argv, n):
    """The egz column of ``setting`` under --optimize at n: its callback
    (a `bounds.FirstOrder`), its grid and the small-ball function."""
    args = cli.build_parser().parse_args([setting.name, "--optimize", *argv])
    model = setting.model(n, args)
    column = next(c for c in setting.columns if c.method == "egz")
    return (functools.partial(column.divergence, model), cli._column_grid(column, args),
            setting.small_ball(model))


def _values_only(callback):
    """``callback`` without its first-order condition."""
    def values(**params):
        out = callback(**params)
        return out.value if isinstance(out, bounds.FirstOrder) else out
    return values


def grid_and_brent(callback, method, grid, L):
    """The oracle of the root path: the grid maximum, then Brent's method
    (`quadrature_oracle.brent_max`, tol=1e-6) in each searched parameter between
    the grid neighbours of the best point, the other parameters held
    there, as the parameter search refined before the root path served
    every searched column.  Returns the best bound of every point
    evaluated, with ``evaluations`` counting them all."""
    values = _values_only(callback)
    best = optimize_one(values, method, grid, L)  # the grid maximum
    evals = best.evaluations
    for name in sorted(grid):
        g = np.sort(np.asarray(grid[name], dtype=float))
        if g.size < 2:
            continue
        i = int(np.searchsorted(g, best.params[name]))
        fixed = {key: [value] for key, value in best.params.items()}

        def h(x, name=name, fixed=fixed):
            nonlocal best, evals
            found = optimize_one(values, method, dict(fixed, **{name: [x]}), L)
            evals += found.evaluations
            if found.value > best.value:
                best = found
            return found.value

        brent_max(h, g[max(i - 1, 0)], g[min(i + 1, g.size - 1)], tol=1e-6)
    return dataclasses.replace(best, evaluations=evals, path="grid+brent")


_variance = st.floats(0.1, 10.0).map(str)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["bernoulli", "gaussian"]), n=st.integers(1, 200),
       sigma_w2=_variance, sigma2=_variance)
def test_egz_root_path_matches_grid_and_brent(name, n, sigma_w2, sigma2):
    # the root of the first-order condition is taken exactly when the
    # condition falls through 0 once over the grid, and reaches what grid +
    # Brent finds; elsewhere the grid maximum stands
    setting = cli.SETTINGS[name]
    argv = ["--sigma-w2", sigma_w2, "--sigma2", sigma2] if name == "gaussian" else []
    callback, grid, L = _egz_search(setting, argv, n)
    calls = []

    def counted(**params):
        calls.append(params["gamma"].size)
        return callback(**params)

    res = optimize_one(counted, "egz", grid, L)
    assert res.value >= grid_and_brent(callback, "egz", grid, L).value * (1.0 - 1e-14)
    gammas = np.asarray(grid["gamma"])
    rises = np.asarray(callback(gamma=gammas, zeta=np.full(gammas.size, grid["zeta"][0]))
                       .condition) > 0.0
    once = bool(rises[0]) and np.count_nonzero(rises[1:] != rises[:-1]) == 1
    assert res.path == ("root" if once else "grid")
    if not once:
        assert res == optimize_one(_values_only(callback), "egz", grid, L)
    # one call for the grid, then one call of length 1 per step
    assert calls[0] == gammas.size and set(calls[1:]) <= {1}
    assert res.evaluations == sum(calls)


class TestRootFallbacks:
    """Where the root path does not apply, the grid maximum stands, as it
    does for a callback without the condition."""

    @pytest.mark.parametrize("signs", [
        pytest.param([1, 1, -1, 1], id="two-changes"),
        pytest.param([-1, 1, 1, 1], id="rising"),
        pytest.param([1, 1, 1, -1], id="away-from-the-maximum"),
    ])
    def test_condition_without_one_falling_change_at_the_maximum(self, signs):
        # at Bernoulli n = 10 the grid maximum is the second of these four
        # ratios (2.36), and the true condition reads +, +, -, -; none of
        # the crafted patterns falls through 0 once, next to that maximum
        callback, _, L = _egz_search(cli.BERNOULLI, [], 10)
        grid = {"gamma": OLD_RATIOS[51:55], "zeta": [1.0]}

        def crafted(gamma, zeta):
            out = callback(gamma=gamma, zeta=zeta)
            if gamma.size == 1:
                return out
            return bounds.FirstOrder(out.value, np.array(signs, dtype=float), out.slope)

        res = optimize_one(crafted, "egz", grid, L)
        assert res.path == "grid"
        assert res == optimize_one(_values_only(callback), "egz", grid, L)
        values = callback(gamma=np.asarray(grid["gamma"]), zeta=np.ones(4)).value
        assert res.value == max(bounds.bound("egz", v, L, gamma=x, zeta=1.0).value
                                for v, x in zip(values, grid["gamma"]))
        assert res.evaluations == 4


def _column_search(setting, argv, n, method):
    """The ``method`` column of ``setting`` under --optimize at n: its
    callback, its grid and the small-ball function."""
    args = cli.build_parser().parse_args([setting.name, "--optimize", *argv])
    model = setting.model(n, args)
    column = next(c for c in setting.columns if c.method == method)
    return (functools.partial(column.divergence, model), cli._column_grid(column, args),
            setting.small_ball(model))


@pytest.mark.parametrize("method", ["sibson", "hellinger", "egz"])
def test_bernoulli_root_path_reaches_grid_and_brent(method):
    # at every n of 1..200 and at 500 each searched column takes the root
    # path, and its value is at least what grid + Brent finds
    for n in [*range(1, 201), 500]:
        callback, grid, L = _column_search(cli.BERNOULLI, [], n, method)
        res = optimize_one(callback, method, grid, L)
        assert res.path == "root", n
        oracle = grid_and_brent(callback, method, grid, L)
        assert res.value >= oracle.value * (1.0 - 1e-12), (n, res, oracle)


_log_variance = st.floats(-1.0, 1.0).map(lambda x: str(10.0 ** x))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 500), sigma_w2=_log_variance, sigma2=_log_variance)
def test_gaussian_root_path_reaches_grid_and_brent(n, sigma_w2, sigma2):
    # every searched column takes the root path, and its value is at least
    # what grid + Brent finds on the column's grid
    for method in ("sibson", "hellinger", "egz"):
        callback, grid, L = _column_search(
            cli.GAUSSIAN, ["--sigma-w2", sigma_w2, "--sigma2", sigma2], n, method)
        res = optimize_one(callback, method, grid, L)
        assert res.path == "root"
        oracle = grid_and_brent(callback, method, grid, L)
        assert res.value >= oracle.value * (1.0 - 1e-12), (method, res, oracle)


def test_egz_ladder_grows_past_its_top():
    # at n = 1000, sigma_W^2 = 100, sigma^2 = 1e-4 the optimal ratio t* =
    # 2.9e4 lies above the ladder's 2^12: the ladder grows by 13 rungs, and
    # the root reaches what grid + Brent finds on the grown ladder
    callback, grid, L = _column_search(
        cli.GAUSSIAN, ["--sigma-w2", "100", "--sigma2", "1e-4"], 1000, "egz")
    res = optimize_one(callback, "egz", grid, L)
    assert res.path == "root" and res.evaluations > cli.RATIO_LADDER.size
    assert 2.0 ** 14 < res.params["gamma"] / res.params["zeta"] < 2.0 ** 15
    grown = dict(grid, gamma=grid["zeta"][0] * 2.0 ** np.arange(26))
    oracle = grid_and_brent(callback, "egz", grown, L)
    assert res.value >= oracle.value * (1.0 - 1e-12), (res, oracle)


_wide_variance = st.floats(-3.0, 3.0).map(lambda x: str(10.0 ** x))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 1000), sigma_w2=_wide_variance, sigma2=_wide_variance)
def test_optimized_gaussian_rows_keep_the_ordering(n, sigma_w2, sigma2):
    # the paper's ordering of the optimized bounds, on every searched
    # column's root path
    args = cli.build_parser().parse_args(
        ["gaussian", "--optimize", "--sigma-w2", sigma_w2, "--sigma2", sigma2])
    row, info = cli._estimation_point(cli.GAUSSIAN, n, args)
    assert [info[m]["path"] for m in ("sibson", "hellinger", "egz")] == ["root"] * 3
    assert row["egz"] >= row["sibson"] >= row["hellinger"] >= row["mi"], row


def test_gaussian_hellinger_root_beside_infinite_moments():
    # at n = 50 the moment is +inf from p = 2.04 on, and the condition -inf
    callback, grid, L = _column_search(cli.GAUSSIAN, [], 50, "hellinger")
    out = callback(p=np.asarray(grid["p"]))
    infinite = np.asarray(out.value) == math.inf
    assert 0 < np.count_nonzero(infinite) < infinite.size
    assert np.all(np.asarray(out.condition)[infinite] == -math.inf)
    near = [1.4530256619384359, 1.5669461259901696, 1.7095136915642142]
    # the default grid; then the bracket (the last two of ``near``) with an
    # infinite outer neighbour, which the first root step leaves out
    for orders in (grid["p"], near + [3.0]):
        res = optimize_one(callback, "hellinger", {"p": orders}, L)
        assert res.path == "root"
        oracle = grid_and_brent(callback, "hellinger", {"p": orders}, L)
        assert res.value >= oracle.value * (1.0 - 1e-12)
    # a bracket whose falling end is -inf is no bracket: the grid maximum stands
    res = optimize_one(callback, "hellinger", {"p": near[:2] + [3.0]}, L)
    assert res.path == "grid" and res.params == {"p": near[1]}


_SEARCHED = {f"{setting.name}-{column.key}": (setting, column)
             for setting in cli.SETTINGS.values() for column in setting.columns
             if column.params or column.fixed}
_order = st.floats(-2.0, math.log10(63.0)).map(lambda x: 1.0 + 10.0 ** x)
_scale = st.floats(-2.0, 1.5).map(lambda x: 10.0 ** x)


@pytest.mark.parametrize("name", sorted(_SEARCHED))
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 200), size=st.integers(1, 40), data=st.data())
def test_column_on_an_array_equals_its_one_element_calls(name, n, size, data):
    # every searched column takes one array per parameter; each value of an
    # array call is == to the call on that one-element slice
    setting, column = _SEARCHED[name]
    model = setting.model(n, cli.build_parser().parse_args([setting.name]))
    arrays = {param: np.array(data.draw(st.lists(
                  _scale if param in ("gamma", "zeta") else _order,
                  min_size=size, max_size=size)))
              for param in column.params + tuple(column.fixed)}
    # an egz column also returns the first-order condition of its bound,
    # and each of its parts is == to the one-element call's
    def parts(out):
        if not isinstance(out, bounds.FirstOrder):
            return [np.asarray(out).ravel().tolist()]
        return [np.asarray(part).ravel().tolist() for part in out if part is not None]

    whole = parts(column.divergence(model, **arrays))
    slices = [parts(column.divergence(
        model, **{param: a[i:i + 1] for param, a in arrays.items()}))
        for i in range(size)]
    assert whole == [sum((piece[j] for piece in slices), []) for j in range(len(whole))]


_n_set = st.lists(st.integers(1, 1000), min_size=1, max_size=8, unique=True).map(sorted)
_variance = st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x)


def _outcome(result):
    """A search's `BoundResult`, or its exception as (type, message)."""
    return (type(result), str(result)) if isinstance(result, Exception) else result


def _lockstep_equals_one_search_per_model(argv, ns) -> list:
    """Every column of the table ``ns`` gives, at each model, what its
    search alone gives: the same `BoundResult`, or an exception of the same
    type and message (the Bernoulli mi from n = 562 on).  Returns the
    column keys."""
    setting = cli.SETTINGS[argv[0]]
    args = cli.build_parser().parse_args(argv)
    table_models = [setting.model(n, args) for n in ns]
    small_balls = [setting.small_ball(model) for model in table_models]
    for column in setting.columns:
        grid = cli._column_grid(column, args)
        alone = [_outcome(bounds.optimize_bounds(column.divergence, column.method, grid,
                                                 [model], [L])[0])
                 for model, L in zip(table_models, small_balls)]
        together = bounds.optimize_bounds(column.divergence, column.method, grid,
                                          table_models, small_balls)
        assert list(map(_outcome, together)) == alone, column.key
    return [column.key for column in setting.columns]


@pytest.mark.parametrize("optimize", [[], ["--optimize"]], ids=["fixed", "optimize"])
@settings(max_examples=15, deadline=None)
@given(ns=_n_set, sigma_w2=_variance, sigma2=_variance)
@example(ns=[1000], sigma_w2=100.0, sigma2=1e-4)  # t* = 2.9e4: the ladder grows
def test_gaussian_lockstep_searches_equal_one_search_per_model(optimize, ns, sigma_w2,
                                                                sigma2):
    argv = ["gaussian", *optimize, "--sigma-w2", repr(sigma_w2), "--sigma2", repr(sigma2)]
    assert _lockstep_equals_one_search_per_model(argv, ns) == ["mi", "sibson", "hellinger",
                                                                "egz"]


@pytest.mark.parametrize("optimize", [[], ["--optimize"]], ids=["fixed", "optimize"])
@settings(max_examples=10, deadline=None)
@given(ns=_n_set)
def test_bernoulli_lockstep_searches_equal_one_search_per_model(optimize, ns):
    # the mi column, parameter-free, is one call of the table's quadrature
    # iterator for all the n; n >= 562 fails its marginal check
    assert _lockstep_equals_one_search_per_model(["bernoulli", *optimize], ns) == [
        "mi", "ml", "sibson", "hellinger", "egz"]


@settings(max_examples=10, deadline=None)
@given(ns=_n_set, lam=st.sampled_from(["0", "0.25", "0.5"]))
def test_noisy_lockstep_searches_equal_one_search_per_model(ns, lam):
    assert _lockstep_equals_one_search_per_model(["noisy-bernoulli", "--lambda", lam],
                                                 ns) == ["hellinger", "sdpi"]


def test_lockstep_grows_the_ladder_where_the_root_lies_past_it():
    args = cli.build_parser().parse_args(["gaussian", "--optimize", "--sigma-w2", "100",
                                          "--sigma2", "1e-4"])
    _, info = cli._estimation_point(cli.GAUSSIAN, 1000, args)
    assert info["egz"]["path"] == "root" and info["egz"]["gamma"] / info["egz"]["zeta"] > 2.0 ** 12


# the CSV each table printed before the array calling convention; a change
# that moves a value updates its file here and says so in CHANGES.md
PINNED = pathlib.Path(__file__).parent / "pinned"
PINNED_TABLES = {
    "bernoulli": ["bernoulli", "--n", "1,7,50"],
    "bernoulli-optimize": ["bernoulli", "--optimize", "--n", "1,7,50"],
    "gaussian": ["gaussian", "--n", "1,7,50"],
    "gaussian-optimize": ["gaussian", "--optimize", "--n", "1,7,50"],
    "noisy-bernoulli": ["noisy-bernoulli", "--n", "1,7,50"],
    "hide-and-seek": ["hide-and-seek", "--n", "1,7,100"],
}


@pytest.mark.parametrize("name", sorted(PINNED_TABLES))
def test_table_matches_its_pinned_csv(name, capsys):
    assert cli.main(PINNED_TABLES[name]) == 0
    assert capsys.readouterr().out == (PINNED / f"{name}.csv").read_text()


@pytest.mark.parametrize("name", sorted(PINNED_TABLES))
def test_json_rows_and_sidecar_match_their_pins_bit_for_bit(name, tmp_path):
    # the CSV rounds to 12 digits; the JSON rows and the sidecar carry
    # every bit of each value, rho* and search record
    out = tmp_path / f"{name}.json"
    assert cli.main(PINNED_TABLES[name] + ["--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == (PINNED / f"{name}.json").read_bytes()
    assert (tmp_path / f"{name}.json.params.json").read_bytes() == \
        (PINNED / f"{name}.params.json").read_bytes()


_RECORD_KEYS = ("evals", "path", "rho", "vacuous", "value")


def _replay(setting, column, model, entry) -> bounds.BoundResult:
    """The bound of one sidecar entry recomputed from its record alone: the
    column's one-n kernel, called once at the recorded parameters, then
    `bounds.bound`.  The entries of the column's ``record`` (the noisy
    sdpi column's eta) are read from the entry and must be the model's."""
    record = column.record(model) if column.record is not None else {}
    assert {key: entry[key] for key in record} == record
    params = {key: value for key, value in entry.items()
              if key not in _RECORD_KEYS and key not in record}
    L = setting.small_ball(model)
    divergence = column.divergence(model, **{key: np.array([value])
                                             for key, value in params.items()})
    if isinstance(divergence, bounds.FirstOrder):
        divergence = divergence.value
    return bounds.bound(column.method, float(np.ravel(divergence)[0]), L, **params)


@pytest.mark.parametrize("argv", [["bernoulli"], ["bernoulli", "--optimize"],
                                  ["gaussian"], ["gaussian", "--optimize"],
                                  ["noisy-bernoulli"]], ids=" ".join)
def test_every_sidecar_entry_replays(argv, tmp_path):
    # the sidecar names enough to rebuild each cell: the mi cells come from
    # the table's batched quadrature, their replay from the one-n kernel
    out = tmp_path / "t.csv"
    assert cli.main(argv + ["--n", "1..20", "--out", str(out)]) == 0
    points = json.loads((tmp_path / "t.csv.params.json").read_text())["points"]
    setting = cli.SETTINGS[argv[0]]
    args = cli.build_parser().parse_args(argv)
    assert sorted(points, key=int) == [str(n) for n in range(1, 21)]
    for n, point in points.items():
        model = setting.model(int(n), args)
        for column in setting.columns:
            entry = point[column.key]
            res = _replay(setting, column, model, entry)
            assert (res.value, res.rho_star) == (entry["value"], entry["rho"]), (n, column)


class TestOtherCommands:
    def test_noisy_schema_and_refinement_column(self, tmp_path):
        out = tmp_path / "noisy.csv"
        assert cli.main(["noisy-bernoulli", "--n", "1,4", "--lambda", "0.25",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.EST_HEADER
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[6]) > float(cells[4])  # sdpi beats plain
            assert cells[-1] == "sdpi"
        sidecar = json.loads((tmp_path / "noisy.csv.params.json").read_text())
        paths = {name: entry["path"] for name, entry in sidecar["points"]["4"].items()}
        assert paths == {"hellinger": "fixed", "sdpi": "fixed"}

    @pytest.mark.parametrize("lam", ["0", "0.25", "0.5"])
    def test_noisy_sdpi_column_is_noisy_bernoulli_bound(self, lam, tmp_path):
        # the contracted column of the lockstep search is == to its oracle;
        # at lambda = 0.5 eta is 0, and so is the contracted divergence
        out = tmp_path / "noisy.json"
        assert cli.main(["noisy-bernoulli", "--n", "1..60", "--lambda", lam,
                         "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        points = json.loads((tmp_path / "noisy.json.params.json").read_text())["points"]
        assert [row["n"] for row in rows] == list(range(1, 61))
        for row in rows:
            oracle = models.noisy_bernoulli_bound(
                models.NoisyBernoulliModel(row["n"], float(lam)))
            entry = points[str(row["n"])]["sdpi"]
            assert row["sdpi"] == entry["value"] == oracle.value
            assert (entry["rho"], entry["eta"]) == (oracle.rho_star, oracle.params["eta"])

    def test_no_contraction_is_zero_whatever_the_divergence(self):
        # where eta = 0 the contracted divergence is 0, never 0 * H_p: an
        # order past the float range of the moment makes H_p +inf
        for model in (models.NoisyBernoulliModel(50, 0.5),
                      [models.NoisyBernoulliModel(50, 0.5)] * 2):
            p = np.array([200.0] * (2 if isinstance(model, list) else 1))
            assert np.all(cli._bernoulli_hellinger(model, p).value == math.inf)
            assert cli._contracted_hellinger(model, p).tolist() == [0.0] * p.size

    @pytest.mark.parametrize("flag", ["--optimize", "--alpha=9", "--p=1.5",
                                      "--gamma=7", "--zeta=2"])
    def test_noisy_rejects_the_flags_it_does_not_read(self, flag):
        with pytest.raises(SystemExit) as err:
            cli.main(["noisy-bernoulli", "--n", "1", flag])
        assert err.value.code == 2

    def test_noisy_rejects_config_keys_it_does_not_read(self, tmp_path):
        cfg = tmp_path / "noisy.json"
        cfg.write_text(json.dumps({"gamma": 7.0}))
        with pytest.raises(SystemExit) as err:
            cli.main(["noisy-bernoulli", "--n", "1", "--config", str(cfg)])
        assert err.value.code == 2

    def test_gaussian_infinite_hellinger_is_vacuous(self, tmp_path):
        # p = 3 leaves the finite region at n = 50, as under --optimize
        out = tmp_path / "g50.csv"
        assert cli.main(["gaussian", "--n", "50", "--p", "3",
                         "--out", str(out)]) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[4] == "0"
        sidecar = json.loads((tmp_path / "g50.csv.params.json").read_text())
        assert sidecar["points"]["50"]["hellinger"]["vacuous"] is True

    def test_gaussian_fixed_parameter_table(self, tmp_path):
        out = tmp_path / "gauss.csv"
        assert cli.main(["gaussian", "--n", "2", "--sigma-w2", "1",
                         "--sigma2", "2", "--alpha", "2", "--p", "1.5",
                         "--gamma", "2", "--zeta", "1.5",
                         "--out", str(out)]) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        g = models.GaussianModel(2, 1.0, 2.0)
        assert row[2] == ""  # leakage is infinite here
        assert math.isclose(float(row[7]), models.gaussian_upper_bound(g),
                            rel_tol=1e-10)

    def test_hide_and_seek_column_reaches_one(self, tmp_path):
        out = tmp_path / "hns.csv"
        assert cli.main(["hide-and-seek", "--n", "2..100", "--d", "512",
                         "--m", "10", "--b", "1536", "--theta-rule", "n^-2",
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.HNS_HEADER
        ml = [float(line.split(",")[1]) for line in lines[1:]]
        assert ml == sorted(ml)
        assert ml[-1] > 1.0 - 1.5 / 512  # ceiling of the column is 1 - 1/d

    def test_json_format(self, capsys):
        assert cli.main(["hide-and-seek", "--n", "2,3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["setting"] == "hide-and-seek"
        assert len(payload["rows"]) == 2


class TestValidate:
    def test_quick_suite_passes_within_a_minute(self, capsys):
        import time

        start = time.monotonic()
        assert cli.main(["validate", "--quick"]) == 0
        assert time.monotonic() - start < 60.0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_mutation_is_detected(self, monkeypatch):
        # corrupt a closed form; the oracle-agreement suite must flag it
        real = models.bernoulli_hellinger_first_order
        monkeypatch.setattr(models, "bernoulli_hellinger_first_order",
                            lambda n, p: real(n, p)._replace(value=real(n, p).value * 1.001))
        ok, detail = validate._suite_oracle_agreement(seed=0, rounds=5)
        assert not ok

    def test_failing_suite_sets_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(
            validate, "run_validation_suites",
            lambda quick=False, seed=0: [("sandwich", False, "forced failure")])
        assert cli.main(["validate", "--quick"]) == 1
        assert "FAIL sandwich" in capsys.readouterr().out
