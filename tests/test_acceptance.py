"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with  pytest tests/test_acceptance.py -s  to see the verdict lines.
"""

import contextlib
import math
import time

import numpy as np
import pytest

import thermomap as tm
from thermomap.cli import (
    CurveRow,
    PressureCurve,
    ScanConfig,
    detect_phase_transition,
    markov_oracle,
    scan_pressure,
)
from thermomap.thermo import synthetic_model

from conftest import LOG_GOLDEN, partition_function_exact


@contextlib.contextmanager
def verdict(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number} PASS: {label}")


def test_criterion_1_exact_markov_end_to_end():
    with verdict(1, "markov_golden pipeline reproduces the matrix oracle"):
        t_start = time.perf_counter()
        m = tm.fixture("markov_golden")
        scheme = tm.first_return_scheme(m, (0.0, 2.0 / 3.0), 10)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            res = tm.equilibrium_shift_solve(scheme, t, 1e-10)
            assert res.s_hi - res.s_lo <= 1e-9
            oracle = markov_oracle(m, t)
            assert res.s_lo - 1e-12 <= oracle <= res.s_hi + 1e-12
            if t == 0.0:
                assert res.mid == pytest.approx(LOG_GOLDEN, abs=1e-9)
            if t == 1.0:
                assert res.mid == pytest.approx(0.0, abs=1e-9)
        elapsed = time.perf_counter() - t_start
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


def test_criterion_2_constant_slope_closed_form():
    with verdict(2, "tent(2) scan equals (1-t) log 2 on [-1, 2]"):
        t_start = time.perf_counter()
        m = tm.fixture("tent2")
        cfg = ScanConfig(m, -1.0, 2.0, 31, x_depth=0)
        curve = scan_pressure(cfg)
        assert len(curve.rows) == 31
        for row in curve.rows:
            want = (1.0 - row.t) * math.log(2.0)
            assert abs(row.p_mid - want) <= 1e-8
        elapsed = time.perf_counter() - t_start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_3_projection_abramov_cross_check():
    with verdict(3, "markov_golden t=1 matches the acip density oracle"):
        t_start = time.perf_counter()
        m = tm.fixture("markov_golden")
        scheme = tm.first_return_scheme(m, (0.0, 2.0 / 3.0), 10)
        res = tm.equilibrium_shift_solve(scheme, 1.0, 1e-10)
        ab = tm.abramov_quantities(scheme, res.solution)
        # oracle values from the piecewise-constant density c_A=9/8, c_B=3/4
        mu_a_oracle = 9.0 / 8.0 * (2.0 / 3.0)
        assert mu_a_oracle == pytest.approx(0.75, abs=1e-15)
        lyap_oracle = 9.0 / 8.0 * (2.0 / 3.0) * math.log(1.5) \
            + 3.0 / 4.0 * (1.0 / 3.0) * math.log(2.0)
        mu_a = tm.project_measure(scheme, res.solution, [(0.0, 2.0 / 3.0)])[0]
        assert mu_a.mid == pytest.approx(mu_a_oracle, abs=1e-6)
        assert ab.tau_mean == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert ab.lyap == pytest.approx(lyap_oracle, abs=1e-6)
        assert ab.entropy == pytest.approx(lyap_oracle, abs=1e-6)
        assert lyap_oracle == pytest.approx(0.477386, abs=1e-6)
        elapsed = time.perf_counter() - t_start
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


def test_criterion_4_gibbs_property(golden_scheme, quad_scheme):
    with verdict(4, "Gibbs ratio exact on the linear scheme, bounded with distortion"):
        res = tm.equilibrium_shift_solve(golden_scheme, 1.0, 1e-10)
        k_linear = tm.gibbs_ratio_check(res.solution, 6)
        assert k_linear <= 1.0 + 1e-9
        res_q = tm.equilibrium_shift_solve(quad_scheme, 0.95, 1e-8)
        k_quad = tm.gibbs_ratio_check(res_q.solution, 6, word_cap=3000)
        assert k_quad <= 9.0 ** (0.95 * 2)


def test_criterion_5_pressure_shift_structure(golden_scheme, tent_trivial_scheme,
                                              full_trivial_scheme):
    with verdict(5, "shift-monotonicity and almost-subadditivity on three fixtures"):
        schemes = (golden_scheme, tent_trivial_scheme, full_trivial_scheme)
        for scheme in schemes:
            pts = tm.pressure_vs_shift(scheme, 0.8,
                                       [0.05 * k for k in range(10)])
            for (s1, p1), (s2, p2) in zip(pts, pts[1:]):
                assert p2.mid <= p1.mid + p1.width + p2.width + 1e-12
            # log Z_m1 + log Z_m2 <= log Z_(m1+m2) + log B, with Z_n summed
            # over periodic points and B = k^(2|t|) from the distortion k
            model = tm.induced_potential(scheme, 0.8)
            base = int(np.argmax(model.weights(0.05)[2]))
            log_b = 2.0 * abs(model.t) * math.log(model.k_dist)
            log_z = {n: math.log(partition_function_exact(model, n, base, 0.05))
                     for n in range(1, 9)}
            for m1 in range(1, 8):
                for m2 in range(1, 8 - m1 + 1):
                    assert log_z[m1] + log_z[m2] <= log_z[m1 + m2] + log_b + 1e-9


def test_criterion_6_discriminant_tails():
    with verdict(6, "finiteness boundary and tail class on synthetic schemes"):
        rng = np.random.default_rng(20260809)
        for theta in rng.uniform(0.2, 0.8, size=50):
            w = [(1 - theta) * theta ** (n - 1) for n in range(1, 41)]
            rec = tm.p_star_discriminant(synthetic_model(w))
            assert rec.p_star == pytest.approx(math.log(theta), abs=1e-6)
            masses = [v / sum(w) for v in w]
            tails = tm.tail_classify(masses)
            assert tails.kind == "exponential" and tails.r2 >= 0.99
        # 21 polynomial-weight schemes: three exponents, seven horizons
        for p in (2.5, 3.0, 4.0):
            for n_top in (30, 45, 60, 80, 100, 120, 140):
                w = np.arange(1.0, n_top + 1.0) ** -p
                masses = list(w / w.sum())
                tails = tm.tail_classify(masses)
                assert tails.kind == "polynomial"
                assert abs(tails.exponent - p) <= 0.05 * p


def test_criterion_7_hypothesis_diagnostics(quad_scheme, golden_scheme):
    with verdict(7, "CE verdict for quadratic(4); lower pressure inequality"):
        from thermomap import diagnostics as dg
        m = tm.fixture("quad4")
        g = dg.critical_orbit_growth(m, 40, 0.9)
        assert g.verdict == "CE"
        assert abs(g.records[0].alpha - math.log(4.0)) <= 0.01 * math.log(4.0)
        # P(phi_t) >= (1 - t) * lyap(mu_1), bracket-aware, on both fixtures
        for scheme, grid in ((quad_scheme, [0.9, 0.925, 0.95, 0.975, 1.0]),
                             (golden_scheme, [0.0, 0.25, 0.5, 0.75, 1.0])):
            res1 = tm.equilibrium_shift_solve(scheme, 1.0, 1e-9)
            ab1 = tm.abramov_quantities(scheme, res1.solution)
            lyap_lo = ab1.lyap_bracket.lo
            for t in grid:
                res = tm.equilibrium_shift_solve(scheme, t, 1e-9)
                assert res.s_hi >= (1.0 - t) * lyap_lo - 1e-9


def test_criterion_8_phase_transition_detector():
    with verdict(8, "kink found at t=-1 on the two-slope curve; none on affine"):
        def curve_of(f, t_lo, t_hi, n):
            rows = [CurveRow(t_lo + (t_hi - t_lo) * i / (n - 1), 0, 0,
                             math.nan, "synthetic", math.nan, 1.0, 1.0, 1.0)
                    for i in range(n)]
            rows = [CurveRow(r.t, f(r.t), f(r.t), math.nan, "synthetic",
                             math.nan, 1.0, 1.0, 1.0) for r in rows]
            return PressureCurve(rows)

        kinked = curve_of(
            lambda t: max((1 - t) * math.log(2.0), -t * math.log(4.0)),
            -2.0, 0.0, 41)
        rep = detect_phase_transition(kinked)
        assert len(rep.kinks) == 1
        assert abs(rep.kinks[0] - (-1.0)) <= 0.05
        tent_cfg = ScanConfig(tm.fixture("tent2"), -1.0, 2.0, 13, x_depth=0)
        rep2 = detect_phase_transition(scan_pressure(tent_cfg))
        assert rep2.smooth and rep2.kinks == ()


def test_criterion_9_tower_combinatorics():
    with verdict(9, "path counts equal cylinder counts; golden tower shape"):
        for name in ("tent2", "quad4", "markov_golden", "markov_full"):
            m = tm.fixture(name)
            tower = tm.build_tower(m, 10)
            for n in range(1, 11):
                assert tower.count_paths(n) == len(tm.refine(m, n))
        golden = tm.build_tower(tm.fixture("markov_golden"), 10)
        assert len(golden.real_nodes()) == 2
        assert len(golden.real_edges()) == 3
        res = tm.closed_primitive_subgraph(golden)
        assert res.found and set(res.members) == {0, 1}
