import hashlib
import math
import os
import re
import subprocess
import sys
import time

import pytest

import thermomap
from thermomap import cli, expr, gibbs, inducing
from thermomap.cli import detect_phase_transition, run
from thermomap.errors import DomainError, NotApplicableError
from thermomap.gibbs import CurveRow, PressureCurve, ScanConfig, scan_pressure
from thermomap.interval_map import parse_map_spec
from thermomap.thermo import markov_oracle

from conftest import LOG_GOLDEN


class TestMarkovOracle:
    def test_golden_t0(self, golden_map):
        assert markov_oracle(golden_map, 0.0) == pytest.approx(LOG_GOLDEN, abs=1e-11)

    def test_golden_t1_zero(self, golden_map):
        assert abs(markov_oracle(golden_map, 1.0)) <= 1e-11

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 1.5])
    def test_full_shift_closed_form(self, full_map, t):
        want = math.log(3.0 ** -t + 1.5 ** -t)
        assert markov_oracle(full_map, t) == pytest.approx(want, abs=1e-11)

    def test_tent_closed_form(self, tent_map):
        for t in (-0.5, 0.3, 1.2):
            assert markov_oracle(tent_map, t) == pytest.approx(
                (1 - t) * math.log(2.0), abs=1e-11)

    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
    def test_period_two_matrix(self, t):
        # eigenvalues +-lambda share the spectral radius, which power
        # iteration cannot separate
        m = parse_map_spec("kind = plinear\nbreakpoints = 0, 1/3, 2/3, 1\n"
                           "images = [1/3,1], [0,1/3], [0,1/3]\n"
                           "orientations = 1, 1, 1\n")
        assert markov_oracle(m, t) == pytest.approx(
            (1 - t) * math.log(2.0) / 2, abs=1e-12)

    @pytest.mark.parametrize("name, t, want", [
        ("markov_golden", -2000.0, 1000.0 * math.log(3.0)),
        ("markov_golden", 2000.0, -2000.0 * math.log(1.5)),
        ("markov_full", -3000.0, 3000.0 * math.log(3.0)),
        ("markov_full", 3000.0, -3000.0 * math.log(1.5))])
    def test_large_t_in_log_space(self, capsys, name, t, want):
        # |slope|^-t leaves the float range; the log weights do not
        assert markov_oracle(thermomap.fixture(name), t) == pytest.approx(
            want, rel=1e-12)
        assert run(["oracle", "--map", name, f"--t={t}"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-8)

    def test_not_applicable_for_quadratic(self, quad_map):
        with pytest.raises(NotApplicableError):
            markov_oracle(quad_map, 1.0)


class TestScanPressure:
    def test_tent_affine_rows(self, tent_map):
        cfg = ScanConfig(tent_map, 0.0, 2.0, 21, x_depth=0)
        curve = scan_pressure(cfg)
        assert len(curve.rows) == 21
        for row in curve.rows:
            assert row.p_mid == pytest.approx((1 - row.t) * math.log(2.0), abs=1e-8)

    def test_golden_endpoints(self, golden_map):
        cfg = ScanConfig(golden_map, 0.0, 1.0, 11, x_point=1.0 / 3.0)
        curve = scan_pressure(cfg)
        assert curve.rows[0].p_mid == pytest.approx(LOG_GOLDEN, abs=1e-8)
        assert curve.rows[-1].p_mid == pytest.approx(0.0, abs=1e-8)

    def test_oracle_agreement_all_rows(self, golden_map, full_map, tent_map):
        # the flagship end-to-end property on every Markov linear fixture
        configs = [
            ScanConfig(golden_map, 0.0, 1.0, 6, x_point=1.0 / 3.0),
            ScanConfig(full_map, 0.0, 1.0, 6, x_depth=0),
            ScanConfig(tent_map, -0.5, 1.5, 6, x_depth=0),
        ]
        for cfg in configs:
            for row in scan_pressure(cfg).rows:
                oracle = markov_oracle(cfg.map, row.t)
                assert row.p_lo - 1e-12 <= oracle <= row.p_hi + 1e-12

    def test_monotone_in_t(self, golden_map):
        cfg = ScanConfig(golden_map, 0.0, 1.0, 6, x_point=1.0 / 3.0)
        rows = scan_pressure(cfg).rows
        for a, b in zip(rows, rows[1:]):
            assert b.p_mid <= a.p_mid + a.width + b.width + 1e-12

    def test_quadratic_scan(self, quad_scheme):
        cfg = ScanConfig(quad_scheme.map, 0.9, 1.0, 5, scheme_kind="extendible",
                         x_point=0.3, x_depth=2, cap=14, tolerance=1e-8)
        curve = scan_pressure(cfg, scheme=quad_scheme)
        mids = [r.p_mid for r in curve.rows]
        assert all(b < a for a, b in zip(mids, mids[1:]))
        last = curve.rows[-1]
        assert last.p_lo <= 0.0 <= last.p_hi
        for row in curve.rows[:-1]:
            assert row.tail_kind == "exponential"

    def test_config_validation(self, tent_map):
        with pytest.raises(DomainError):
            ScanConfig(tent_map, 1.0, 0.0, 5)
        with pytest.raises(DomainError):
            ScanConfig(tent_map, 0.0, 1.0, 1)
        with pytest.raises(DomainError):
            ScanConfig(tent_map, 0.0, 1.0, 5, tolerance=0.0)
        with pytest.raises(DomainError):
            ScanConfig(tent_map, 0.0, 1.0, 5, tolerance=math.nan)
        with pytest.raises(DomainError):
            ScanConfig(tent_map, 0.0, 1.0, 5, tolerance=math.inf)
        with pytest.raises(DomainError, match="unknown scheme kind"):
            ScanConfig(tent_map, 0.0, 1.0, 5, scheme_kind="bogus")


def synthetic_curve(f, t_lo, t_hi, n):
    rows = []
    for i in range(n):
        t = t_lo + (t_hi - t_lo) * i / (n - 1)
        rows.append(CurveRow(t, f(t), f(t), math.nan, "synthetic", math.nan,
                             1.0, 1.0, 1.0))
    return PressureCurve(rows)


class TestDetectPhaseTransition:
    def test_two_slope_kink(self):
        curve = synthetic_curve(
            lambda t: max((1 - t) * math.log(2.0), -t * math.log(4.0)), -2.0, 0.0, 41)
        rep = detect_phase_transition(curve)
        assert len(rep.kinks) == 1
        assert rep.kinks[0] == pytest.approx(-1.0, abs=0.05)
        assert not rep.smooth

    def test_affine_smooth(self):
        curve = synthetic_curve(lambda t: (1 - t) * math.log(2.0), -1.0, 2.0, 31)
        rep = detect_phase_transition(curve)
        assert rep.kinks == ()
        assert rep.smooth

    def test_flat_corner_at_one(self):
        curve = synthetic_curve(lambda t: max(0.0, (1 - t) * 0.5), 0.5, 1.5, 41)
        rep = detect_phase_transition(curve)
        assert rep.kinks and rep.kinks[0] == pytest.approx(1.0, abs=0.05)

    def test_too_few_rows(self):
        curve = synthetic_curve(lambda t: t, 0.0, 1.0, 4)
        assert detect_phase_transition(curve).inconclusive

    def test_smooth_curved_background(self):
        curve = synthetic_curve(lambda t: (1 - t) ** 2, 0.0, 1.0, 41)
        rep = detect_phase_transition(curve)
        assert rep.kinks == ()


class TestRunCli:
    def test_oracle_command(self, capsys):
        assert run(["oracle", "--map", "markov_golden", "--t", "0"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(LOG_GOLDEN, abs=1e-9)

    def test_unknown_command_exits_two(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_bad_map_exits_two(self, capsys):
        assert run(["oracle", "--map", "nonexistent", "--t", "0"]) == 2

    @pytest.mark.parametrize("argv, option", [
        (["pressure", "--t", "nan"], "--t"),
        (["pressure", "--t", "0", "--tol", "nan"], "--tol"),
        (["oracle", "--t", "inf"], "--t"),
        (["scan", "--t-min=-inf", "--t-max", "1", "--steps", "3"], "--t-min"),
        (["scan", "--t-min", "0", "--t-max", "nan", "--steps", "3"], "--t-max"),
        (["induce", "--delta", "inf"], "--delta"),
        (["induce", "--x-point", "nan"], "--x-point"),
        (["diagnose", "--eps", "nan"], "--eps"),
    ])
    def test_non_finite_option_exits_two(self, capsys, argv, option):
        assert run(argv[:1] + ["--map", "tent2"] + argv[1:]) == 2
        assert f"argument {option}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pressure", "--t", "0", "--tol", "0"],
        ["pressure", "--t", "0", "--tol=-1e-10"],
        ["scan", "--t-min", "0", "--t-max", "1", "--steps", "3", "--tol", "0"],
        ["diagnose", "--eps", "-1"],
        ["diagnose", "--eps", "0"],
    ])
    def test_non_positive_tolerance_exits_two(self, monkeypatch, capsys, argv):
        # rejected by the parser, before the map is loaded
        def no_load(name):
            raise AssertionError("map loaded")
        monkeypatch.setattr(cli, "load_map", no_load)
        option = [a for a in argv if a.startswith("--")][-1].split("=")[0]
        assert run(argv[:1] + ["--map", "tent2"] + argv[1:]) == 2
        assert f"argument {option}: must be > 0" in capsys.readouterr().err

    def test_negative_seed_exits_two(self, monkeypatch, capsys):
        def no_load(name):
            raise AssertionError("map loaded")
        monkeypatch.setattr(cli, "load_map", no_load)
        assert run(["diagnose", "--map", "quad4", "--seed", "-1"]) == 2
        assert "argument --seed: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["induce", "--cap", "0"],
        ["pressure", "--t", "0", "--cap=-1"],
        ["scan", "--t-min", "0", "--t-max", "1", "--steps", "3", "--cap", "0"],
    ])
    def test_cap_below_one_exits_two(self, monkeypatch, capsys, argv):
        # rejected by the parser, before the map is loaded
        def no_load(name):
            raise AssertionError("map loaded")
        monkeypatch.setattr(cli, "load_map", no_load)
        assert run(argv[:1] + ["--map", "tent2"] + argv[1:]) == 2
        assert "argument --cap: must be >= 1" in capsys.readouterr().err

    def test_depth_is_a_tower_option_only(self, capsys):
        assert run(["induce", "--map", "tent2", "--depth", "5"]) == 2
        assert "unrecognized arguments: --depth" in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(thermomap.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "thermomap",
             "oracle", "--map", "markov_golden", "--t", "1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert float(proc.stdout) == pytest.approx(0.0, abs=1e-9)

    def test_one_parser_serves_a_refused_and_a_valid_call(self, capsys):
        refused = ["pressure", "--map", "tent2", "--t", "nan"]
        valid = ["oracle", "--map", "markov_golden", "--t", "0"]
        src = os.path.dirname(os.path.dirname(thermomap.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = [subprocess.run([sys.executable, "-m", "thermomap", *argv],
                                capture_output=True, text=True, env=env,
                                timeout=60) for argv in (refused, valid)]
        here = []
        for argv in (refused, valid):
            code = run(argv)
            here.append((code, capsys.readouterr().out))
        assert here == [(p.returncode, p.stdout) for p in fresh]
        assert [code for code, _ in here] == [2, 0]
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("argv", [
        ["pressure", "--map", "tent2", "--x-depth", "0", "--t", "{}"],
        ["scan", "--map", "tent2", "--x-depth", "0", "--t-min", "{}",
         "--t-max", "1", "--steps", "3"],
        ["scan", "--map", "tent2", "--x-depth", "0", "--t-min", "-1",
         "--t-max", "{}", "--steps", "3"],
    ])
    def test_negative_exponent_value_as_own_token(self, capsys, argv):
        option = argv[argv.index("{}") - 1]
        joined = [a for a in argv if a != "{}"]
        joined[joined.index(option)] = option + "=-1e-1"
        assert run(joined) == 0
        want = capsys.readouterr()
        assert run([a if a != "{}" else "-1e-1" for a in argv]) == 0
        assert capsys.readouterr() == want

    def test_negative_x_depth_exits_two(self, capsys):
        assert run(["pressure", "--map", "tent2", "--t", "0", "--x-depth", "-1"]) == 2
        assert "x_depth must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pressure", "--t", "1"],
        ["scan", "--t-min", "0", "--t-max", "1", "--steps", "2"],
    ], ids=["pressure", "scan"])
    def test_scheme_without_branches_exits_two(self, capsys, argv):
        # quad4's depth-40 cylinder, 1.2e-12 wide, gets no branch within
        # the cap: a scan's stacked stage must not turn this into numpy's
        # max over an empty axis
        assert run(argv + ["--map", "quad4", "--x-depth", "40"]) == 2
        assert capsys.readouterr().err == "error: scheme has no branches\n"

    def test_zero_denominator_in_map_spec_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "m.map"
        spec.write_text("kind = plinear\nbreakpoints = 0, 1/0, 1\n"
                        "images = [0,1], [0,1]\n")
        assert run(["oracle", "--map", str(spec), "--t", "0"]) == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, field", [
        ("expr = sin(pi*x)\nbreakpoints = 0\n", "breakpoints"),
        ("expr = 1/x\nbreakpoints = 0, 1\n", "expr"),
        ("expr = log(x)\nbreakpoints = 0, 1\n", "expr"),
        ("expr = y\nbreakpoints = 0, 1\n", "expr"),
        ("expr = f(x)\nbreakpoints = 0, 1\n", "expr"),
        ("expr = [x]\nbreakpoints = 0, 1\n", "expr"),
        ("expr = Abs(x - 1/2)\nbreakpoints = 0, 1/2, 1\n", "expr"),
    ], ids=["one-breakpoint", "pole", "log-of-zero", "free-symbol",
            "unknown-function", "not-an-expression", "derivative-not-code"])
    def test_unevaluable_custom_map_exits_two(self, tmp_path, capsys, spec,
                                              field):
        path = tmp_path / "m.map"
        path.write_text("kind = custom\n" + spec + "crit = 1/2:2\n")
        assert run(["oracle", "--map", str(path), "--t", "0"]) == 2
        assert f"error: {field}:" in capsys.readouterr().err

    def test_derivative_pole_at_a_branch_end_exits_two(self, tmp_path, capsys):
        # f' has a pole at the fixed point 0, where building the scheme
        # would evaluate it: the map is refused when it is loaded
        path = tmp_path / "s.map"
        path.write_text("kind = custom\nexpr = sin(pi*sqrt(x))\n"
                        "breakpoints = 0, 1/4, 1\ncrit = 1/4:2\n")
        assert run(["pressure", "--map", str(path), "--t", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expr: cannot evaluate") and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "x.real", "x[0]", '__import__("os")', "(lambda: x)()",
        "[x for x in (1,)]", '"x"', "1j*x", "True*x", "sin(x=1)", "log(x, 2)",
        "x < 1", "9**9**9**9*x"])
    def test_refused_expression_builds_no_code(self, tmp_path, capsys,
                                               monkeypatch, text):
        def no_code(tree):
            raise AssertionError(f"code built for {text!r}")

        monkeypatch.setattr(expr, "_function", no_code)
        path = tmp_path / "m.map"
        path.write_text(f"kind = custom\nexpr = {text}\n"
                        "breakpoints = 0, 1/2, 1\ncrit = 1/2:2\n")
        start = time.perf_counter()
        assert run(["oracle", "--map", str(path), "--t", "0"]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err.startswith("error: expr:")

    @pytest.mark.parametrize("t", ["1e308"])
    def test_underflowing_weights_exit_three(self, capsys, t):
        # -t log|DF| is held at the float range, where no shift the search
        # reaches lifts the lower bound above 0
        assert run(["pressure", "--map", "tent2", "--t", t]) == 3
        assert "lower pressure bound never went positive" in capsys.readouterr().err

    def test_vanishing_depth2_weights_exit_three(self, capsys):
        # at t = 1e10 every depth-2 weight but the largest is below
        # e^-745 of it, so the power iteration has nothing to iterate
        assert run(["pressure", "--map", "quad4", "--t", "1e10"]) == 3
        assert "depth-2 weights vanish" in capsys.readouterr().err

    def test_scan_records_a_numeric_failure_in_its_row(self, capsys):
        # the t = 1e10 row fails as ``pressure --t 1e10`` does; the t = -1
        # row is the one a scan without t = 1e10 writes
        assert run(["scan", "--map", "quad4", "--t-min", "-1", "--t-max", "1e10",
                    "--steps", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[2] == "1e+10,nan,nan,nan,error:numeric,nan,nan,nan,nan"
        assert run(["scan", "--map", "quad4", "--t-min", "-1", "--t-max", "1",
                    "--steps", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == rows[:2]

    def test_scan_where_tau_mean_reaches_zero(self, capsys):
        # at t = 39 and 40 the lower edge of tau_mean underflows to 0: the
        # Abramov brackets that divide by it are +-inf, and the rows keep
        # their pressure brackets
        assert run(["scan", "--map", "quad4", "--t-min", "39", "--t-max", "40",
                    "--steps", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            t, p_lo, p_hi = map(float, row.split(",")[:3])
            assert p_lo <= (1.0 - t) * math.log(2.0) <= p_hi

    @pytest.mark.parametrize("delta", ["1e-160", "1e-200"])
    def test_tiny_delta_gives_a_bracket(self, capsys, delta):
        # the Koebe bound is inf once (1 + 2d)/d^2 leaves the float range:
        # at 1e-200 through d^2 underflowing to 0
        assert run(["pressure", "--map", "quad4", "--scheme", "extendible",
                    "--delta", delta, "--x-point", "0.3", "--x-depth", "2",
                    "--cap", "8", "--t", "1"]) == 0
        assert capsys.readouterr().out.startswith("P_+ bracket: [")

    @pytest.mark.parametrize("t,code", [("-60", 0)])
    def test_overflowing_depth2_weights_exit_three(self, capsys, t, code):
        # the negative-t case, which never overflowed, still exits 0
        assert run(["pressure", "--map", "quad4", "--scheme", "extendible",
                    "--x-point", "0.3", "--x-depth", "2", "--cap", "14",
                    f"--t={t}"]) == code

    @pytest.mark.parametrize("argv", [
        ["--map", "quad4", "--t", "40"],
        ["--map", "quad4", "--t", "120"],
        ["--map", "tent2", "--t", "1e5"],
    ], ids=["quad4-40", "quad4-120", "tent2-1e5"])
    def test_large_t_bracket_contains_closed_form(self, capsys, argv):
        # log weights do not leave the float range: P(t) = (1-t) log 2
        assert run(["pressure"] + argv) == 0
        lo, hi = map(float, re.search(r"P_\+ bracket: \[([^,]+), ([^\]]+)\]",
                                      capsys.readouterr().out).groups())
        t = float(argv[-1])
        assert lo <= (1.0 - t) * math.log(2.0) <= hi

    @pytest.mark.parametrize("t_min", ["0", "-1e308"])
    def test_t_grid_overflow_exits_two(self, capsys, t_min):
        # the grid step (t_max - t_min) * k / (steps - 1) would reach inf
        assert run(["scan", "--map", "tent2", "--x-depth", "0", f"--t-min={t_min}",
                    "--t-max", "1e308", "--steps", "3"]) == 2
        assert "t-grid overflows" in capsys.readouterr().err

    def test_vanishing_derivative_bracket_exits_three(self, capsys):
        # five quad4 first-return branches at cap 20 have inf |DF| = 0.0
        assert run(["pressure", "--map", "quad4", "--t", "1",
                    "--cap", "20"]) == 3
        assert "vanishing derivative" in capsys.readouterr().err

    def test_oracle_quadratic_exits_three(self, capsys):
        assert run(["oracle", "--map", "quad4", "--t", "1"]) == 3

    def test_tower_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "t.dot"
        assert run(["tower", "--map", "markov_golden", "--depth", "5",
                    "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.count(" -> ") == 3

    def test_scan_csv_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["scan", "--map", "markov_golden", "--t-min", "0", "--t-max", "1",
                "--steps", "5", "--x-point", "0.33", "--out"]
        assert run(argv + [str(out1)]) == 0
        assert run(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "t,p_lo,p_hi,zero_entropy,tail_kind,tail_rate,tau_mean,lyap,entropy"
        assert len(out1.read_text().splitlines()) == 6

    def test_induce_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["induce", "--map", "markov_golden", "--x-point", "0.33",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "i,lo,hi,tau,inf_DF,sup_DF,ext_lo,ext_hi"
        assert len(lines) == 3

    def test_induce_builds_the_tower_to_the_cap(self, tmp_path, capsys):
        spec = tmp_path / "q.map"
        spec.write_text("kind = quadratic\na = 3.8\n")
        out = tmp_path / "s.csv"
        assert run(["induce", "--map", str(spec), "--x-depth", "3",
                    "--x-point", "0.6", "--cap", "14", "--out", str(out)]) == 0
        m = thermomap.load_map(str(spec))
        want = thermomap.first_return_scheme(
            m, inducing.default_base_cylinder(m, 0.6, 3), 14)
        assert len(want.branches) == 82
        assert out.read_text() == gibbs.csv_text(*inducing.scheme_table(want))

    def test_induce_extendible_cap_20(self, capsys):
        # only the cylinders that can still give a branch are refined, so
        # the cylinder cap no longer stops a deep extendible scheme
        assert run(["induce", "--map", "quad4", "--scheme", "extendible",
                    "--x-point", "0.3", "--x-depth", "2", "--cap", "20"]) == 0
        assert capsys.readouterr().out.startswith("scheme: 190 branches")

    def test_pressure_json(self, tmp_path, capsys):
        import json
        js = tmp_path / "p.json"
        assert run(["pressure", "--map", "markov_golden", "--t", "1",
                    "--x-point", "0.33", "--json", str(js)]) == 0
        data = json.loads(js.read_text())
        assert data["log_lambda"] == pytest.approx(0.0, abs=1e-9)
        lo, hi = data["log_lambda_bracket"]
        assert lo <= data["log_lambda"] <= hi

    def test_diagnose_runs(self, capsys):
        assert run(["diagnose", "--map", "quad4", "--n-max", "25"]) == 0
        out = capsys.readouterr().out
        assert "growth verdict: CE" in out

    def test_diagnose_with_u_over_the_domain_reads_nan(self, capsys):
        # eps 2 puts the whole domain in U: no orbit takes a step outside
        # it, so neither estimate has a sample
        assert run(["diagnose", "--map", "quad4", "--n-max", "25",
                    "--eps", "2"]) == 0
        out = capsys.readouterr().out
        assert "expansion outside U: nan  first-entry bound: nan" in out

    def test_diagnose_passes_t0_to_the_binding_sums(self, tmp_path, capsys):
        prefix = str(tmp_path / "diag")
        assert run(["diagnose", "--map", "quad4", "--n-max", "30",
                    "--t0", "0.5", "--out", prefix]) == 0
        rows = (tmp_path / "diag_binding.csv").read_text().splitlines()[1:]
        want = thermomap.diagnostics.binding_analysis(
            thermomap.fixture("quad4"), 0.25, 0.1, 30, t0=0.5).summable_partial
        assert [float(r.split(",")[2]) for r in rows] == pytest.approx(
            want, rel=1e-8)

    def test_diagnose_writes_every_critical_orbit(self, tmp_path, capsys):
        spec = tmp_path / "cheb3.map"
        spec.write_text("kind = chebyshev\nd = 3\n")
        prefix = str(tmp_path / "diag")
        assert run(["diagnose", "--map", str(spec), "--n-max", "20",
                    "--out", prefix]) == 0
        lines = (tmp_path / "diag_growth.csv").read_text().splitlines()
        # c = 0.25 and 0.75 both map to an end of [0, 1], a fixed point of slope 9
        assert lines[0] == "n,0.25,0.75"
        assert len(lines) == 21
        assert [line.split(",") for line in lines[1:3]] == [["1", "9", "9"],
                                                           ["2", "81", "81"]]

    def test_diagnose_without_vanishing_crit(self, capsys):
        assert run(["diagnose", "--map", "markov_golden", "--n-max", "25"]) == 0
        out = capsys.readouterr().out
        assert "binding skipped" in out

    def test_diagnose_without_vanishing_crit_writes_the_growth(self, tmp_path,
                                                               capsys):
        prefix = str(tmp_path / "t2")
        assert run(["diagnose", "--map", "tent2", "--n-max", "25",
                    "--out", prefix]) == 0
        assert "binding skipped" in capsys.readouterr().out
        lines = (tmp_path / "t2_growth.csv").read_text().splitlines()
        # c = 1/2 maps to the fixed point 0 of slope 2
        assert lines[0] == "n,deriv" and len(lines) == 26
        assert lines[1:3] == ["1,2", "2,4"]
        assert not (tmp_path / "t2_binding.csv").exists()

    def test_scan_stdout_when_no_out(self, capsys):
        assert run(["scan", "--map", "tent2", "--x-depth", "0", "--t-min", "0",
                    "--t-max", "1", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,p_lo,p_hi")

    @pytest.mark.parametrize("argv", [
        ["tower", "--map", "tent2", "--depth", "2", "--dot", "{}"],
        ["tower", "--map", "tent2", "--depth", "2", "--json", "{}"],
        ["induce", "--map", "tent2", "--out", "{}"],
        ["pressure", "--map", "tent2", "--t", "1", "--json", "{}"],
        ["scan", "--map", "tent2", "--x-depth", "0", "--t-min", "0",
         "--t-max", "1", "--steps", "3", "--out", "{}"],
        # tent2 has no vanishing-derivative point, so it writes nothing
        ["diagnose", "--map", "quad4", "--n-max", "25", "--out", "{}"],
    ])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, argv):
        path = str(tmp_path / "no_such_dir" / "out")
        assert run([a.format(path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_map_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "m.map"
        spec.write_text("kind = plinear\nbreakpoints = 0, 2/3, 1\n"
                        "images = [0,1], [0,2/3]\n")
        assert run(["oracle", "--map", str(spec), "--t", "0"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(LOG_GOLDEN, abs=1e-9)


#: The README's commands (``tower`` with ``--json`` as well) and the sha256
#: of what each writes to stdout and to its output files, recorded before
#: the exporters returned text and the command line alone opened files.
README_OUTPUTS = [
    (["tower", "--map", "markov_golden", "--depth", "5", "--dot", "tower.dot",
      "--json", "tower.json"],
     {"stdout": "76e12caf9d849b22dbe75da764e6dec280f4eb38c91f7a8ab43e87acb865be5a",
      "tower.dot": "58362e783c1018d40965c2868303f1930145aa417ca3787e2cb6cc0cc834c856",
      "tower.json": "5570b4d369aa3e2399691074dfa15a03aa10b6139cf27eff65db734aac483f9f"}),
    (["induce", "--map", "quad4", "--scheme", "extendible", "--x-point", "0.3",
      "--x-depth", "2", "--cap", "14", "--out", "scheme.csv"],
     {"stdout": "cf0ec0ee979a440f3b1a0b1911b00339a05dd1925bb04a11456010e81b5ce053",
      "scheme.csv": "27dba274d9f4a5a83fb5f2b62185dd7856fdb787140cfc187883583cf258f728"}),
    (["pressure", "--map", "markov_golden", "--t", "1", "--x-point", "0.33",
      "--json", "gibbs.json"],
     {"stdout": "116519031a9ba3f653a8e9f65590219c7f719bc347daffaf33ef470a8496cff0",
      "gibbs.json": "9aefb4f00c4453d7ba6b2abef2f99e9e76e057cc0e7bfbad5e1c821ea24d1e1d"}),
    (["scan", "--map", "tent2", "--x-depth", "0", "--t-min", "-1", "--t-max", "2",
      "--steps", "31", "--out", "curve.csv"],
     {"stdout": "7d2df4ae62ef8fbca3d64cf9f97e4700e54afab34902b99d6bbc1287dd8d60aa",
      "curve.csv": "0b37eb921e9ae151e5a172d841f25d2aadc2ccc7b55016838354c17f1a60a7f5"}),
    (["scan", "--map", "tent2", "--x-depth", "0", "--t-min", "-1", "--t-max", "2",
      "--steps", "31"],
     {"stdout": "e355fafbc9484e2f3f846953f3997aa490d7eb10ec090850bf1df7251ca09f3c"}),
    (["diagnose", "--map", "quad4", "--n-max", "40", "--out", "diag"],
     {"stdout": "95709e93baf8f1849391d79682511af8b32a7a6f2ae4efef023d40396773e7bb",
      "diag_growth.csv": "5793e89831e280135f2d6d914aba1260db11d55d233fb7551310017f7747d4b4",
      "diag_binding.csv": "551740f111947a77669925a739df829d7708f62476b44ad046d792970b9d6ca4"}),
]


class TestOutputBytes:
    @pytest.mark.parametrize("argv, want", README_OUTPUTS,
                             ids=["tower", "induce", "pressure", "scan-out",
                                  "scan-stdout", "diagnose"])
    def test_readme_command_outputs_pinned(self, tmp_path, monkeypatch, capsys,
                                           argv, want):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 0
        got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
        got.update((name, hashlib.sha256((tmp_path / name).read_bytes()).hexdigest())
                   for name in want if name != "stdout")
        assert got == want


class TestPackageSurface:
    def test_import_alone_binds_the_cli(self):
        src = os.path.dirname(os.path.dirname(thermomap.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, thermomap; "
             "sys.exit(thermomap.cli.run(['oracle', '--map', 'tent2', '--t', '0']))"],
            capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("module, name", [
        (gibbs, "scan_pressure"),
        (gibbs, "ScanConfig"),
        (gibbs, "PressureCurve"),
        (gibbs, "TransitionReport"),
        (gibbs, "detect_phase_transition"),
        (cli, "detect_phase_transition"),
        (thermomap.thermo, "markov_oracle"),
        (inducing, "build_scheme"),
        (inducing, "default_base_cylinder"),
    ])
    def test_moved_names_are_one_object(self, module, name):
        assert getattr(thermomap, name) is getattr(module, name)
