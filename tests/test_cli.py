"""Command-line behaviour: schemas, determinism, exit codes, validation."""

import json
import math

import pytest

from riskbounds import bounds, cli, models


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

    def test_config_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["bernoulli", "--n", "0..3"])
        assert err.value.code == 2

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

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def boom(n):
            raise ArithmeticError("synthetic blow-up")

        monkeypatch.setattr(cli.models, "bernoulli_ml", boom)
        assert cli.main(["bernoulli", "--n", "1,2"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_numerical_failure_names_the_failing_n(self, threads, monkeypatch,
                                                   capsys):
        # n = 1 is skipped (theta = 1), so the first pending n is not the culprit
        real = models.hide_and_seek_bounds

        def fail_at_three(model):
            if model.n == 3:
                raise ArithmeticError("synthetic blow-up")
            return real(model)

        monkeypatch.setenv("RISKBOUNDS_THREADS", threads)
        monkeypatch.setattr(cli.models, "hide_and_seek_bounds", fail_at_three)
        assert cli.main(["hide-and-seek", "--n", "1..4"]) == 3
        assert "numerical failure near n=3:" in capsys.readouterr().err

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

    def test_non_finite_config_value_exit_code(self, tmp_path):
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"gamma": NaN}')
        with pytest.raises(SystemExit) as err:
            cli.main(["bernoulli", "--n", "2", "--config", str(cfg)])
        assert err.value.code == 2


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

    def test_row_values_match_direct_computation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RISKBOUNDS_THREADS", "1")
        out = tmp_path / "one.csv"
        assert cli.main(["bernoulli", "--n", "4", "--out", str(out)]) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        ml_expect = 1.0 / (8.0 * (2.0 + math.sqrt(math.pi * 4 / 2.0)))
        assert math.isclose(float(row[2]), ml_expect, rel_tol=1e-10)
        chi_expect = (2.0 / 27.0) / models.bernoulli_hellinger(4, 2.0)
        assert math.isclose(float(row[4]), chi_expect, rel_tol=1e-10)
        L = models.bernoulli_small_ball()
        i2 = 2.0 * math.log(models.bernoulli_sibson(4, 2.0))
        assert math.isclose(float(row[3]), bounds.sibson_bound(i2, 2.0, L).value,
                            rel_tol=1e-10)
        egz = bounds.hockey_stick_bound(
            models.bernoulli_e_gamma_zeta(4, 3.0, 1.5), 3.0, 1.5, L)
        assert math.isclose(float(row[5]), egz.value, rel_tol=1e-10)


class TestOptimizedRuns:
    def test_bernoulli_optimized_best_is_hockey_stick(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert cli.main(["bernoulli", "--n", "1,2,3", "--optimize",
                         "--out", str(out)]) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            assert line.split(",")[-1] == "egz"
        sidecar = json.loads((tmp_path / "opt.csv.params.json").read_text())
        assert "gamma" in sidecar["points"]["1"]["egz"]

    def test_gaussian_optimized_runs(self, tmp_path):
        out = tmp_path / "gopt.csv"
        assert cli.main(["gaussian", "--n", "1", "--optimize",
                         "--out", str(out)]) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert float(row[5]) > 0.0  # hockey-stick column populated


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
        real = models.bernoulli_hellinger
        monkeypatch.setattr(models, "bernoulli_hellinger",
                            lambda n, p: real(n, p) * 1.001)
        ok, detail = cli._suite_oracle_agreement(seed=0, rounds=5)
        assert not ok

    def test_failing_suite_sets_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "run_validation_suites",
            lambda quick=False, seed=0: [("sandwich", False, "forced failure")])
        assert cli.main(["validate", "--quick"]) == 1
        assert "FAIL sandwich" in capsys.readouterr().out
