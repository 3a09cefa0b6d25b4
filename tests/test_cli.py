import math

import pytest

from thermomap import cli
from thermomap.cli import (
    CurveRow,
    PressureCurve,
    ScanConfig,
    detect_phase_transition,
    markov_oracle,
    run,
    scan_pressure,
)
from thermomap.errors import DomainError, NotApplicableError
from thermomap.interval_map import parse_map_spec

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
    ])
    def test_non_finite_option_exits_two(self, capsys, argv, option):
        assert run(argv[:1] + ["--map", "tent2"] + argv[1:]) == 2
        assert f"argument {option}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pressure", "--t", "0", "--tol", "0"],
        ["pressure", "--t", "0", "--tol=-1e-10"],
        ["scan", "--t-min", "0", "--t-max", "1", "--steps", "3", "--tol", "0"],
    ])
    def test_non_positive_tolerance_exits_two(self, monkeypatch, capsys, argv):
        # rejected by the parser, before the map is loaded
        def no_load(name):
            raise AssertionError("map loaded")
        monkeypatch.setattr(cli, "load_map", no_load)
        assert run(argv[:1] + ["--map", "tent2"] + argv[1:]) == 2
        assert "argument --tol: must be > 0" in capsys.readouterr().err

    def test_negative_x_depth_exits_two(self, capsys):
        assert run(["pressure", "--map", "tent2", "--t", "0", "--x-depth", "-1"]) == 2
        assert "x_depth must be >= 0" in capsys.readouterr().err

    def test_zero_denominator_in_map_spec_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "m.map"
        spec.write_text("kind = plinear\nbreakpoints = 0, 1/0, 1\n"
                        "images = [0,1], [0,1]\n")
        assert run(["oracle", "--map", str(spec), "--t", "0"]) == 2
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["1e5", "1e308"])
    def test_underflowing_weights_exit_three(self, capsys, t):
        assert run(["pressure", "--map", "tent2", "--t", t]) == 3

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

    def test_pressure_json(self, tmp_path, capsys):
        import json
        js = tmp_path / "p.json"
        assert run(["pressure", "--map", "markov_golden", "--t", "1",
                    "--x-point", "0.33", "--json", str(js)]) == 0
        data = json.loads(js.read_text())
        assert data["lambda"] == pytest.approx(1.0, abs=1e-9)

    def test_diagnose_runs(self, capsys):
        assert run(["diagnose", "--map", "quad4", "--n-max", "25"]) == 0
        out = capsys.readouterr().out
        assert "growth verdict: CE" in out

    def test_diagnose_without_vanishing_crit(self, capsys):
        assert run(["diagnose", "--map", "markov_golden", "--n-max", "25"]) == 0
        out = capsys.readouterr().out
        assert "binding skipped" in out

    def test_scan_stdout_when_no_out(self, capsys):
        assert run(["scan", "--map", "tent2", "--x-depth", "0", "--t-min", "0",
                    "--t-max", "1", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,p_lo,p_hi")

    def test_map_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "m.map"
        spec.write_text("kind = plinear\nbreakpoints = 0, 2/3, 1\n"
                        "images = [0,1], [0,2/3]\n")
        assert run(["oracle", "--map", str(spec), "--t", "0"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(LOG_GOLDEN, abs=1e-9)
