import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetdata
from hetdata.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY_FAIL,
    MAX_GRID_POINTS,
    _parse_grid,
    load_config,
    main,
)
from hetdata import cli, mc, statics, threshold, verify, wealth
from hetdata.errors import ConfigError
from hetdata.model import ModelParams, default_params, load_params
from hetdata.numerics import make_stream
from domain import census, validated_params


def _write_params(tmp_path, **overrides):
    record = dict(
        gamma=2.0, sigma_mu=1.0, sigma_agg=0.2, sigma_idio=0.5, theta=0.1,
        tau=0.4, D=1.0, eta=0.5, d0=1.0, r_f=0.02, alpha=0.5, mu0=0.08,
        w=0.1, loss=0.2, sigma_w=0.3, W0=1.0, t_star=2.0, EK_target=0.02,
    )
    record.update(overrides)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(record))
    return path


def _wealth_rows(out):
    """wealth.csv's rows as (lambda, t, closed_form, mc_estimate, mc_se,
    pass) tuples."""
    header, *lines = (out / "wealth.csv").read_text().splitlines()
    assert header == "lambda,t,closed_form,mc_estimate,mc_se,pass"
    return [(*map(float, fields[:5]), fields[5] == "True")
            for fields in (line.split(",") for line in lines)]


class TestLoadConfig:
    def test_defaults(self):
        config = load_config(["threshold"])
        assert config.command == "threshold"
        assert config.seed is None
        assert config.n_paths == 100_000
        assert config.population == 1_000_000

    def test_grid_parsing(self):
        config = load_config(["threshold", "--tau-grid", "0.1:0.5:0.1"])
        assert config.tau_grid == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    @pytest.mark.parametrize("spec", ["0.1:0.5", "a:b:c", "0.5:0.1:0.1",
                                      "0.1:0.5:-0.1"])
    def test_bad_grid_rejected(self, spec):
        with pytest.raises(ConfigError):
            load_config(["threshold", "--tau-grid", spec])

    @pytest.mark.parametrize("command", ["wealth", "verify", "report"])
    def test_seed_required_for_stochastic(self, command):
        with pytest.raises(ConfigError, match="seed"):
            load_config([command])

    def test_seed_optional_for_deterministic(self):
        assert load_config(["statics"]).seed is None

    def test_tau_override(self):
        config = load_config(["threshold", "--tau", "0.7"])
        assert config.params.tau == 0.7

    def test_tau_out_of_range(self):
        with pytest.raises(ConfigError, match="tau"):
            load_config(["threshold", "--tau", "1.5"])

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            load_config(["frobnicate"])

    def test_params_file(self, tmp_path):
        path = _write_params(tmp_path)
        config = load_config(["threshold", "--params", str(path)])
        assert config.params.tau == 0.4

    def test_params_file_with_tau_override(self, tmp_path):
        path = _write_params(tmp_path)
        config = load_config(["threshold", "--params", str(path),
                              "--tau", "0.7"])
        assert config.params == replace(load_params(path), tau=0.7)


class TestExitCodes:
    def test_missing_params_file_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["threshold", "--params", str(tmp_path / "nope.json"),
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()  # rejected before any artifact is written

    def test_invalid_params_content_exits_2(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("{\"tau\": 2.0}")
        assert main(["threshold", "--params", str(path)]) == EXIT_CONFIG

    def test_params_tau_below_solver_band_exits_2_without_outputs(self, tmp_path):
        path = _write_params(tmp_path, tau=1e-7)
        out = tmp_path / "out"
        code = main(["threshold", "--params", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_underflowing_sigma_mu_square_exits_2_naming_it(self, tmp_path,
                                                             capsys):
        # 1e-163 squared underflows to 0
        path = _write_params(tmp_path, sigma_mu=1e-163)
        out = tmp_path / "out"
        code = main(["threshold", "--params", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "sigma_mu: must be in [" in capsys.readouterr().err

    def test_missing_seed_exits_2(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_solver_failure_exits_3(self, tmp_path, capsys):
        # at this target capital the friction match has no root
        path = _write_params(tmp_path, EK_target=1.0)
        code = main(["statics", "--params", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_SOLVER
        assert "no root exists" in capsys.readouterr().err

    def test_unconverged_moment_exits_3_naming_inputs(self, tmp_path, capsys):
        # the moment itself is past the float range
        path = _write_params(tmp_path, theta=0.999, sigma_idio=3.0, gamma=200.0)
        code = main(["threshold", "--params", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver error:") and "Traceback" not in err
        assert "OverflowError" in err and "RuntimeWarning" not in err
        for text in ("theta=0.999", "sigma_idio=3.0", "gamma=200.0"):
            assert text in err

    def test_overflowing_tail_mean_exits_3_naming_inputs(self, tmp_path, capsys):
        path = _write_params(tmp_path, sigma_mu=40.0, tau=0.99)
        code = main(["threshold", "--params", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver error:") and "Traceback" not in err
        for text in ("mu_bar=0.0", "sigma_mu=40.0"):
            assert text in err

    def test_underflowing_tail_mean_exits_3_naming_inputs(self, tmp_path,
                                                          capsys):
        # E[e^mu | mu > K] underflows to 0, which provider_utility refuses
        path = _write_params(tmp_path, mu_bar=-800.0)
        code = main(["threshold", "--params", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver error:") and "underflows" in err
        for text in ("mu_bar=-800.0", "sigma_mu=1.0"):
            assert text in err

    def test_undrawable_jump_count_exits_3(self, tmp_path, capsys):
        # w * t* = 2e19 is past the largest Poisson mean numpy draws; its
        # untyped ValueError ended the run with a traceback and exit 1
        path = _write_params(tmp_path, w=1e19)
        code = main(["wealth", "--params", str(path), "--paths", "100",
                     "--seed", "1", "--out", str(tmp_path / "out")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver error:") and "w*t" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, code, message", [
        ("threshold", EXIT_OK, None),
        # lambda_L and lambda_H of the Theorem-1 report are one float
        ("statics", EXIT_SOLVER, "solver error:"),
        ("wealth", EXIT_CONFIG, "config error: wealth: E K_t overflows"),
        ("report", EXIT_CONFIG, "config error: report: E K_t overflows"),
        ("figure1", EXIT_CONFIG,
         "config error: --mu-grid for figure1: f(mu_i, t*) overflows"),
    ])
    def test_overflowing_jump_compensation_is_valid(self, tmp_path, capsys,
                                                    command, code, message):
        # mu0 + w E L overflows, but no layer forms that sum: the jumps'
        # compensator leaves E K_t and f, which are refused only where
        # e^(alpha mu0 t) overflows them.  Every command exited 2 before
        path = _write_params(tmp_path, mu0=1e308, w=1e308, loss=0.9)
        assert main([command, "--seed", "1", "--paths", "100", "--params",
                     str(path), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        if message is None:
            assert err == ""
        else:
            assert err.startswith(message)

    @pytest.mark.parametrize("grid", [[], ["--mu-grid", "0:1:0.5"]],
                             ids=["default_grid", "mu_grid"])
    def test_overflowing_mu_grid_exits_2_without_outputs(self, tmp_path,
                                                         capsys, grid):
        # f(mu_i, t*) overflows at the top of the grid figure1 uses, given
        # or its default about the threshold: the default was first
        # evaluated after --out was made, and exited 3
        path = _write_params(tmp_path, mu0=1e308, w=1e308, loss=0.9)
        out = tmp_path / "out"
        assert main(["figure1", "--params", str(path), *grid,
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith(
            "config error: --mu-grid for figure1: f(mu_i, t*) overflows")

    def test_population_without_users_fails_verify(self, tmp_path, capsys):
        # the first of seeds 0, 1, 2, ... whose population stream (index 1)
        # draws no data user among 2 agents: a failed check, not exit 3
        params = default_params()
        seed = next(s for s in itertools.count() if mc.draw_population(
            2, params, make_stream(s, 1)).n_users == 0)
        code = main(["verify", "--seed", str(seed), "--population", "2",
                     "--paths", "100", "--out", str(tmp_path)])
        assert code == EXIT_VERIFY_FAIL
        assert "[FAIL] lln_and_clearing" in capsys.readouterr().out
        results = json.loads((tmp_path / "verify.json").read_text())
        lln = next(r for r in results if r["name"] == "lln_and_clearing")
        assert lln["pass"] is False
        assert lln["detail"] == {"error": "population contains no data users",
                                 "population": 2}

    @pytest.mark.parametrize("argv", [
        ["report", "--seed", "1", "--paths", "50"],
        ["verify", "--seed", "1", "--population", "1"],
        ["verify", "--seed", "1", "--population", "1000000000000000",
         "--paths", "100"],
    ])
    def test_bad_sample_size_exits_2_without_outputs(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["wealth", "--seed", "-1"],
        ["verify", "--seed", "-3", "--population", "1000", "--paths", "100"],
        ["report", "--seed", "-1"],
    ])
    def test_negative_seed_exits_2_without_outputs(self, tmp_path, capsys,
                                                   argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "config error: --seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["file", "below_file", "dangling_link"])
    def test_out_not_a_directory_exits_2_without_outputs(self, tmp_path, capsys,
                                                         kind):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = {"file": afile, "below_file": afile / "sub",
               "dangling_link": tmp_path / "link"}[kind]
        if kind == "dangling_link":
            out.symlink_to(tmp_path / "missing")
        assert main(["statics", "--out", str(out)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert afile.read_text() == "kept\n"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("override", [
        {"gamma": True},   # would solve as gamma = 1, log utility
        {"alpha": True},
        {"w": False},
        {"D": 10 ** 400},  # an int past the float range
        {"loss": False},   # would be a zero loss
        {"loss": {"values": "ab", "probs": [1.0]}},
        {"loss": {"values": [None], "probs": [1.0]}},
        {"loss": {"values": [0.2], "probs": 1.0}},
    ])
    def test_non_numeric_param_exits_2_without_outputs(self, tmp_path, capsys,
                                                       override):
        path = _write_params(tmp_path, **override)
        out = tmp_path / "out"
        assert main(["threshold", "--params", str(path),
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "config error: bad params file" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b'{"gamma": \xff}',                          # not UTF-8
        b'{"gamma": 1' + b"0" * 5000 + b"}",          # past json's digit limit
    ], ids=["not_utf8", "too_many_digits"])
    def test_unreadable_params_file_exits_2_without_outputs(self, tmp_path,
                                                            capsys, text):
        path = tmp_path / "params.json"
        path.write_bytes(text)
        out = tmp_path / "out"
        assert main(["threshold", "--params", str(path),
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "config error: bad params file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["threshold", "--tau-grid", "0.5:1.5:0.5"],  # reaches tau = 1
        ["statics", "--tau-grid", "0.3:0.4:1.0"],    # one point: tau_L = tau_H
        ["wealth", "--seed", "1", "--lambda-grid", "0.5:1.0:0.5"],
        ["figure1", "--lambda-grid", "0.0:1.0:0.5"],  # f(lambda) needs lambda > 0
        ["figure1", "--lambda-grid", "100:400:100"],  # f(lambda, t*) overflows
        ["threshold", "--tau", "0.0000001"],          # below the solver's band
        ["threshold", "--tau-grid", "0.0000001:0.5:0.1"],
        ["figure1", "--mu-grid", "800:900:50"],       # f(mu_i, t*) overflows
        ["report", "--seed", "1", "--mu-grid", "700:710:5"],
        ["figure1", "--mu-grid", "700:709:9"],        # e^709 is finite, f is not
        ["figure1", "--mu-grid", "nan:1:0.5"],        # non-finite ends or step
        ["figure1", "--mu-grid", "0:inf:0.5"],
        ["threshold", "--tau-grid", "nan:0.5:0.1"],
        ["figure1", "--lambda-grid", "1:2:nan"],
        ["wealth", "--seed", "1", "--lambda-grid", "1:inf:1"],
        # more than a million points: each is past numpy's size limit, so
        # without the point cap np.arange raises instead of allocating
        ["threshold", "--tau-grid", "0:1e12:1e-9"],
        ["threshold", "--tau-grid", "0.1:0.2:1e-300"],
        ["wealth", "--seed", "1", "--lambda-grid", "1:1e300:1"],
        ["figure1", "--mu-grid=-1e308:1e308:1"],      # b - a overflows to inf
        # malformed specs stop every command before it writes
        ["wealth", "--seed", "1", "--lambda-grid", "1:2"],  # not a:b:step
        ["report", "--seed", "1", "--lambda-grid", "3:1:1"],  # decreasing
        ["statics", "--tau-grid", "0.1:0.5:-0.1"],          # negative step
    ])
    def test_bad_grid_exits_2_without_outputs(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("override", [
        {"mu0": 1000.0},               # the exponential overflows
        {"mu0": 700.0, "W0": 1e10},    # its product with lambda W0 does
        {"t_star": 1500.0, "mu0": 5.0},  # the exponential, at t* = 1500
    ])
    def test_default_lambda_capital_out_of_range_exits_2(self, tmp_path,
                                                          capsys, override):
        # E K_t* overflows at lambda 1.5, the one row: expected_capital's
        # error is a configuration error, written nowhere
        path = _write_params(tmp_path, **override)
        out = tmp_path / "out"
        assert main(["wealth", "--seed", "1", "--paths", "1000", "--params",
                     str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert ("config error: wealth: E K_t overflows at lambda=1.5"
                in capsys.readouterr().err)

    def test_overflowing_first_grid_row_exits_2(self, tmp_path, capsys):
        # E K_t* is about 1.5 at lambda 1.5, but overflows at lambda 1
        path = _write_params(tmp_path, t_star=1500.0, mu0=2.96)
        out = tmp_path / "out"
        assert main(["wealth", "--seed", "1", "--params", str(path),
                     "--lambda-grid", "1:2:0.5", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert ("config error: wealth: E K_t overflows at lambda=1.0, t=1500.0"
                in capsys.readouterr().err)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_row_exits_3(self, tmp_path, capsys):
        # E K_t* is 1.798e308 at lambda 1.5, below max float, but the
        # sample's mean of K_t* / E K_t* is above 1, so the row's estimate
        # is not; the bounds refused this file before
        path = _write_params(tmp_path, mu0=712.3372477852758)
        out = tmp_path / "out"
        assert main(["wealth", "--seed", "1", "--paths", "1000", "--params",
                     str(path), "--out", str(out)]) == EXIT_SOLVER
        assert not (out / "wealth.csv").exists()
        assert ("solver error: Monte Carlo row overflows at lambda=1.5"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("grid, lambda_star", [
        # just below the branch minimum, inside the no-solution tolerance
        ("-1.1938758248687:-1.1938758248686:1", "1.0"),
        # far below it: no root is an answer, not a configuration error
        ("-31.0:-30.0:1", ""),
    ], ids=["branch_minimum", "no_root"])
    def test_mu_grid_at_or_below_branch_minimum_runs(self, tmp_path, capsys,
                                                     grid, lambda_star):
        code = main(["figure1", f"--mu-grid={grid}", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "figure1.csv").read_text().splitlines()
        stars = rows[rows.index("mu,level,lambda_star") + 1:]
        assert stars and {row.split(",")[2] for row in stars} == {lambda_star}

    def test_mu_grid_past_exp_overflow_bound_runs(self, tmp_path, capsys):
        # lambda* at mu_i = 700 lies past 700 / t* = 350, where e^(lambda t*)
        # overflows; the friction solve in log space has no such bound
        code = main(["figure1", "--mu-grid", "600:700:50", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "figure1.csv").read_text().splitlines()
        stars = [float(row.split(",")[2])
                 for row in rows[rows.index("mu,level,lambda_star") + 1:]]
        assert len(stars) == 3 and all(map(math.isfinite, stars))
        assert stars[-1] * 2.0 > 700.0

    def test_lambda_grid_past_old_exp_bound_runs(self, tmp_path, capsys):
        # lambda t* = 704 at the curve's end: e^704 / 352 is finite
        code = main(["figure1", "--lambda-grid", "1:352:351", "--mu-grid",
                     "600:700:50", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "figure1.csv").read_text().splitlines()
        assert rows[2] == f"352.0,{math.exp(704.0) / 352.0!r}"

    def test_threshold_ok(self, tmp_path):
        assert main(["threshold", "--out", str(tmp_path)]) == EXIT_OK
        rows = json.loads((tmp_path / "threshold.json").read_text())
        assert rows[0]["tau"] == 0.5
        assert {"mu_k", "K", "m", "tail_mean", "residual"} <= set(rows[0])


class TestGridEnd:
    """a:b:step runs a, a + step, ... up to b and never past it."""

    def test_statics_pair_ends_inside_b(self, tmp_path):
        assert main(["statics", "--tau-grid", "0.2:0.79:0.1",
                     "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "theorem1.json").read_text())
        assert report["tau_H"] == pytest.approx(0.7) and report["tau_H"] < 0.79
        rows = (tmp_path / "sensitivity.csv").read_text().splitlines()
        assert len(rows) == 1 + 6

    def test_figure1_curve_ends_inside_b(self, tmp_path):
        assert main(["figure1", "--lambda-grid", "1:2.7:1",
                     "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "figure1.csv").read_text().split("\n\n")[0]
        assert [r.split(",")[0] for r in rows.splitlines()[1:]] == ["1.0", "2.0"]

    def test_threshold_grid_never_leaves_the_unit_interval(self, tmp_path):
        assert main(["threshold", "--tau-grid", "0.000001:0.999999:0.5",
                     "--out", str(tmp_path)]) == EXIT_OK
        rows = json.loads((tmp_path / "threshold.json").read_text())
        assert [row["tau"] for row in rows] == pytest.approx([1e-6, 0.500001])

    @pytest.mark.parametrize("spec", ["0.1:0.9:0.1", "0.2:0.8:0.05",
                                      "1.2:2.0:0.4", "1e6:1000001:0.001"])
    def test_grid_ending_on_b_keeps_numpy_points(self, spec):
        # the last point of each lies a rounding error from b, some above it
        a, b, step = (float(x) for x in spec.split(":"))
        assert _parse_grid(spec, "grid") == np.arange(
            a, b + 0.5 * step, step).tolist()

    def test_point_cap_counts_the_points_kept(self):
        assert len(_parse_grid("0:999999.6:1", "grid")) == MAX_GRID_POINTS
        with pytest.raises(ConfigError, match="1e\\+06 points"):
            _parse_grid("0:1000000:1", "grid")

    # a step below the float spacing at a rounds every point to a (the first
    # three); one below the spacing past the binade at 2 rounds two points
    # to 2.0 (the last)
    REPEATING = ["0.3:0.30000000000000004:1e-17", "1:1.0000000000000002:1e-16",
                 "1e16:1.0000000000000002e16:1",
                 "1.9999999999999996:2.000000000000001:2.220446049250313e-16"]

    def test_tau_grid_validates_its_two_ends(self, monkeypatch):
        # the band is an interval and the grid increases: its ends decide
        calls, real = [], cli.validate
        monkeypatch.setattr(cli, "validate", lambda params: (
            calls.append(params.tau) or real(params)))
        config = load_config(["threshold", "--tau-grid",
                              "0.000001:0.999999:0.000001"])
        assert len(config.tau_grid) == MAX_GRID_POINTS - 1
        assert calls == [config.tau_grid[0], config.tau_grid[-1]]

    @pytest.mark.parametrize("spec", REPEATING)
    def test_repeated_point_refused(self, spec):
        with pytest.raises(ConfigError, match="^--grid: .* repeats a point"):
            _parse_grid(spec, "grid")

    @pytest.mark.parametrize("command", ["threshold", "statics"])
    @pytest.mark.parametrize("spec", REPEATING)
    def test_repeated_point_is_a_config_error(self, command, spec, tmp_path,
                                              capsys):
        out = tmp_path / "out"
        assert main([command, "--tau-grid", spec,
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --tau-grid: ")
        assert "repeats a point" in err
        assert not out.exists()


class TestArtifacts:
    def test_statics_outputs(self, tmp_path):
        code = main(["statics", "--tau-grid", "0.3:0.6:0.3",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "sensitivity.csv").read_text().splitlines()
        assert lines[0] == "tau,mu_k,dmu_dtau,output_ratio"
        assert len(lines) == 3
        report = json.loads((tmp_path / "theorem1.json").read_text())
        assert report["verdicts"]["d_H_gt_d_L"] is True

    def test_wealth_csv(self, tmp_path):
        code = main(["wealth", "--seed", "5", "--paths", "2000",
                     "--lambda-grid", "1.5:2.0:0.5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "wealth.csv").read_text().splitlines()
        assert lines[0] == "lambda,t,closed_form,mc_estimate,mc_se,pass"
        assert len(lines) == 3 and lines[1].endswith("True")

    def test_figure1_csv(self, tmp_path):
        code = main(["figure1", "--lambda-grid", "1.0:3.0:0.5",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "figure1.csv").read_text().splitlines()
        assert lines[0] == "lambda,f_lambda"

    def test_verify_passes_and_writes_report(self, tmp_path, capsys):
        code = main(["verify", "--seed", "11", "--paths", "4000",
                     "--population", "50000", "--out", str(tmp_path)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "[PASS]" in printed and "[FAIL]" not in printed
        results = json.loads((tmp_path / "verify.json").read_text())
        assert all(r["pass"] for r in results)

    def test_verify_deterministic_given_seed(self, tmp_path):
        args = ["verify", "--seed", "42", "--paths", "4000",
                "--population", "50000"]
        for sub in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / sub)]) == EXIT_OK
        first = (tmp_path / "a" / "verify.json").read_bytes()
        second = (tmp_path / "b" / "verify.json").read_bytes()
        assert first == second


_FIELDS = tuple(f.name for f in fields(ModelParams))
_NOT_NUMBER = st.one_of(st.booleans(), st.text(max_size=4), st.none())
_WRONG_KIND = st.one_of(
    _NOT_NUMBER,
    st.lists(st.floats(0.0, 0.5), max_size=2),
    st.dictionaries(st.text(max_size=4), st.floats(0.0, 0.5), max_size=2),
)
# values or probs that are not a list of numbers: a scalar, or a list
# holding a non-number
_NOT_NUMBER_LIST = st.one_of(
    _NOT_NUMBER,
    st.floats(0.0, 0.5),
    st.lists(_NOT_NUMBER, min_size=1, max_size=2),
    st.tuples(st.floats(0.0, 0.5), _NOT_NUMBER).map(list),
)
_BAD_LOSS = st.one_of(
    st.fixed_dictionaries({"values": _NOT_NUMBER_LIST, "probs": st.just([1.0])}),
    st.fixed_dictionaries({"values": st.just([0.2]), "probs": _NOT_NUMBER_LIST}),
)


class TestWealthGrid:
    """wealth draws and judges one Monte Carlo sample, at lambda 1.5; each
    grid row is that sample rescaled by the ratio of the closed forms."""

    def test_grid_draws_one_sample(self, tmp_path):
        wealth.mc_expected_capital.cache_clear()
        assert main(["wealth", "--seed", "7", "--lambda-grid", "1:3:0.1",
                     "--out", str(tmp_path)]) == EXIT_OK
        info = wealth.mc_expected_capital.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        rows = _wealth_rows(tmp_path)
        assert len(rows) == 21
        # each closed form is expected_capital itself, not a rescaled one
        params = default_params()
        assert [row[2] for row in rows] == [
            wealth.expected_capital(params, params.t_star, row[0])
            for row in rows]

    def test_report_fits_the_monte_carlo_memo(self, tmp_path, capsys):
        # verify's three jump_diffusion_mean cases miss, and the wealth
        # sample is its diffusion_and_jumps case, a hit: the memo's four
        # entries hold one run
        wealth.mc_expected_capital.cache_clear()
        assert main(["report", "--seed", "42",
                     "--out", str(tmp_path)]) == EXIT_OK
        info = wealth.mc_expected_capital.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 1, 3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("overrides, argv, code", [
        (None, ["wealth", "--seed", "7", "--lambda-grid", "1:3:0.1"], EXIT_OK),
        # E K_t* of 6e-173 at 201, 9e-259 at 300 and 0 at 501: these rows
        # scale the sample judged at lambda 1.5; none judges paths that
        # underflowed
        (None, ["report", "--seed", "1", "--lambda-grid", "1:400:100"], EXIT_OK),
        (None, ["wealth", "--seed", "1", "--paths", "100", "--lambda-grid",
                "300:301:1"], EXIT_OK),
        (None, ["wealth", "--seed", "1", "--lambda-grid", "1:1000:500"], EXIT_OK),
        # E K_t* of 1.5 at lambda 1.5, which 1,000 paths miss: at t* = 3000
        # the estimate passed at none of seeds 1 to 200 (at t* = 1500, at 14
        # of them, seed 1 among them)
        ({"t_star": 3000.0, "mu0": 2.96},
         ["wealth", "--seed", "1", "--paths", "1000", "--lambda-grid",
          "1.5:1.7:0.1"], EXIT_VERIFY_FAIL),
        # E K_t* of 1.5e-175, whose squared paths underflowed to an SE of 0,
        # of 1.7e155, whose squared paths overflowed, and of 1.2e153, of
        # whose paths about 1% had squares that overflowed: the sample, in
        # units of E K_t*, is judged like any other (these were refused)
        ({"r_f": -200.0}, ["wealth", "--seed", "1", "--paths", "1000"],
         EXIT_OK),
        ({"mu0": 360.0}, ["wealth", "--seed", "1", "--paths", "1000"],
         EXIT_OK),
        ({"mu0": 355.0, "sigma_w": 2.0},
         ["wealth", "--seed", "1", "--paths", "1000"], EXIT_OK),
    ], ids=["seed7", "report_underflow", "underflow", "zero", "fails",
            "tiny_capital", "huge_capital", "huge_capital_paths"])
    def test_rows_share_one_sample_and_one_verdict(self, tmp_path, capsys,
                                                   overrides, argv, code):
        params = default_params()
        if overrides is not None:
            path = _write_params(tmp_path, **overrides)
            argv = argv + ["--params", str(path)]
            params = load_params(path)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == code
        assert capsys.readouterr().err == ""
        flags = dict(zip(argv[1::2], argv[2::2]))
        # the one sample, drawn and judged at lambda 1.5 in units of E K_t*
        ratio, se, passed = verify.mc_ratio(
            params, int(flags["--seed"]), int(flags.get("--paths", 100_000)))
        assert passed is (code == EXIT_OK)
        rows = _wealth_rows(out)
        grid = flags.get("--lambda-grid")
        assert [row[0] for row in rows] == (
            _parse_grid(grid, "lambda-grid") if grid else [1.5])
        for row in rows:
            assert row[-1] is passed
            assert row[3:5] == (ratio * row[2], se * row[2])


class TestParamsFileKinds:
    """A value of the wrong JSON kind in any field is a configuration
    error, written nowhere; a boolean is not a number."""

    @given(st.one_of(
        st.tuples(st.sampled_from(_FIELDS), _WRONG_KIND),
        st.tuples(st.just("loss"), _BAD_LOSS),
    ))
    @settings(max_examples=150, deadline=None)
    def test_wrong_kind_exits_2_without_outputs(self, case):
        name, value = case
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_params(Path(tmp), **{name: value})
            out = Path(tmp) / "out"
            assert main(["threshold", "--params", str(path),
                         "--out", str(out)]) == EXIT_CONFIG
            assert not out.exists()


class TestValidatedDomain:
    """Every command the census runs, on a file that validate accepts,
    exits 0, 1, 2 or 3: no untyped exception and no RuntimeWarning, which
    the census's run_command raises as an error."""

    @given(validated_params())
    @settings(max_examples=100, deadline=None)
    def test_every_command_exits_with_a_code(self, params):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "params.json"
            path.write_text(json.dumps(asdict(params)))
            for argv in census.COMMANDS:
                code, kind = census.run_command(argv + [
                    "--params", str(path), "--out", str(Path(tmp) / argv[0])])
                assert code in ("0", "1", "2", "3"), (argv, kind)


def _leaves(payload):
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, list):
        for item in payload:
            yield from _leaves(item)
    else:
        yield payload


class TestPlainRecords:
    """The records behind the JSON artifacts hold Python scalars only, so
    json.dumps needs no hook for numpy types."""

    def _assert_plain(self, payload):
        json.dumps(payload)
        assert {type(v) for v in _leaves(payload)} <= {bool, int, float, str}

    @pytest.mark.parametrize("seed,n_paths,population",
                             [(6, 100, 2), (7, 1000, 1000)])
    def test_verify_results(self, seed, n_paths, population):
        self._assert_plain(
            [r.to_dict() for r in verify.run_all(seed, n_paths, population)])

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_threshold_and_theorem1(self, gamma):
        params = default_params(gamma=gamma)
        self._assert_plain(threshold.solve_threshold(0.5, params).to_dict())
        self._assert_plain(statics.theorem1_report(0.3, 0.6, params).to_dict())


def _run_python(code, *args):
    """Exit code of `code` in a fresh interpreter that imports this
    hetdata."""
    src = str(Path(hetdata.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          timeout=120).returncode


class TestWithoutScipy:
    """numpy is the only runtime dependency: scipy is a test extra."""

    def test_import_loads_no_scipy_module(self):
        code = ("import sys, hetdata.cli; sys.exit(any(name == 'scipy' or "
                "name.startswith('scipy.') for name in sys.modules))")
        assert _run_python(code) == 0

    def test_report_runs_with_scipy_blocked(self, tmp_path):
        # None in sys.modules makes every import of scipy raise ImportError
        code = ("import sys; sys.modules['scipy'] = None; "
                "from hetdata import cli; "
                "sys.exit(cli.main(['report', '--seed', '42', '--out', sys.argv[1]]))")
        assert _run_python(code, str(tmp_path)) == EXIT_OK
        assert (tmp_path / "verify.json").is_file()
