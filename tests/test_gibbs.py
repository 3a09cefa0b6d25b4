import math
import signal

import numpy as np
import pytest

import thermomap as tm
from thermomap.errors import DomainError
from thermomap.thermo import synthetic_model

from conftest import ACIP_LYAP, LOG_GOLDEN

GOLDEN = (1 + math.sqrt(5)) / 2


class TestSolveGibbs:
    def test_golden_t1(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        sol = tm.solve_gibbs(model, 0.0)
        assert sol.lam == pytest.approx(1.0, abs=1e-12)
        assert sol.masses == pytest.approx([2 / 3, 1 / 3], rel=1e-12)
        assert sol.masses.sum() == pytest.approx(1.0, abs=1e-10)
        assert sol.residual <= 1e-10

    def test_stochastic_two_branch(self):
        model = synthetic_model([0.4, 0.6], taus=[1, 1])
        sol = tm.solve_gibbs(model, 0.0)
        assert sol.lam == pytest.approx(1.0, abs=1e-14)
        assert sol.masses == pytest.approx([0.4, 0.6], rel=1e-12)
        assert np.all(sol.rho == pytest.approx(1.0, abs=1e-12))
        assert sol.conformal == pytest.approx([0.4, 0.6], rel=1e-12)

    def test_golden_t0_at_golden_shift(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 0.0)
        sol = tm.solve_gibbs(model, LOG_GOLDEN)
        assert sol.lam == pytest.approx(1.0, abs=1e-12)
        assert sol.masses == pytest.approx([1 / GOLDEN, 1 / GOLDEN ** 2], rel=1e-10)

    def test_all_masses_positive(self, quad_scheme):
        model = tm.induced_potential(quad_scheme, 0.95)
        sol = tm.solve_gibbs(model, 0.05)
        assert np.all(sol.masses > 0)
        assert sol.masses.sum() == pytest.approx(1.0, abs=1e-10)

    def test_conformal_fixed_point_depth_two(self, golden_scheme):
        # m(F(A)) = exp(-Psi + log lam) m(A) on depth-2 cylinders
        model = tm.induced_potential(golden_scheme, 1.0)
        sol = tm.solve_gibbs(model, 0.0)
        for i in range(2):
            for j in range(2):
                m_ij = sol.conformal[i] * sol.conformal[j]
                psi_i = math.log(model.w_pt[i])
                lhs = sol.conformal[j]  # F maps the 2-cylinder onto X_j
                rhs = math.exp(-psi_i + math.log(sol.lam)) * m_ij
                assert lhs == pytest.approx(rhs, abs=1e-9)


class TestGibbsRatio:
    def test_golden_exact(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        sol = tm.solve_gibbs(model, 0.0)
        assert tm.gibbs_ratio_check(sol, 4) <= 1.0 + 1e-9

    def test_synthetic_exact(self):
        sol = tm.solve_gibbs(synthetic_model([0.3, 0.2, 0.5], taus=[1, 2, 3]), 0.0)
        assert tm.gibbs_ratio_check(sol, 3) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_bounded(self, quad_scheme):
        res = tm.equilibrium_shift_solve(quad_scheme, 0.95, 1e-8)
        k = tm.gibbs_ratio_check(res.solution, 4, word_cap=4000)
        assert k <= 9.0 ** (0.95 * 2)


class TestProjectMeasure:
    def test_golden_branch_masses(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        sol = tm.solve_gibbs(model, 0.0)
        a, b, full = tm.project_measure(
            golden_scheme, sol, [(0.0, 2 / 3), (2 / 3, 1.0), (0.0, 1.0)])
        assert a.mid == pytest.approx(0.75, abs=1e-9)
        assert b.mid == pytest.approx(0.25, abs=1e-9)
        assert full.mid == pytest.approx(1.0, abs=1e-12)

    def test_matches_acip_density(self, golden_scheme):
        # piecewise-constant invariant density: 9/8 on A, 3/4 on B
        model = tm.induced_potential(golden_scheme, 1.0)
        sol = tm.solve_gibbs(model, 0.0)
        for lo, hi in [(0.0, 0.3), (0.1, 0.55), (0.7, 0.95), (0.5, 0.9)]:
            expect = 9 / 8 * max(0.0, min(hi, 2 / 3) - lo) \
                + 3 / 4 * max(0.0, hi - max(lo, 2 / 3))
            got = tm.project_measure(golden_scheme, sol, [(lo, hi)])[0]
            assert got.mid == pytest.approx(expect, abs=1e-8)

    def test_branch_across_a_join(self):
        # f is continuous and increasing across 1/4, so some branches span
        # two words; each point must be pushed along its own word
        m = tm.make_plinear([0, 0.25, 0.5, 1], [(0, 0.3), (0.3, 1), (0, 1)],
                            [1, 1, -1])
        sch = tm.extendible_return_scheme(m, (0.0, 0.5), 0.25, 8)
        assert any(b.df_hi > 1.5 * b.df_lo for b in sch.branches)
        sol = tm.equilibrium_shift_solve(sch, 1.0).solution
        parts = tm.project_measure(sch, sol, [(k / 8, (k + 1) / 8) for k in range(8)])
        assert sum(b.lo for b in parts) <= 1.0 <= sum(b.hi for b in parts)

    def test_additivity(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        sol = tm.solve_gibbs(model, 0.0)
        for c in (0.2, 0.5, 2 / 3, 0.8):
            left, right = tm.project_measure(
                golden_scheme, sol, [(0.0, c), (c, 1.0)])
            assert left.mid + right.mid == pytest.approx(1.0, abs=1e-9)


class TestAbramov:
    def test_golden_t1_acip_quantities(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        sol = tm.solve_gibbs(model, 0.0)
        ab = tm.abramov_quantities(golden_scheme, sol)
        assert ab.tau_mean == pytest.approx(4 / 3, abs=1e-9)
        assert ab.lyap_f == pytest.approx(
            2 / 3 * math.log(1.5) + 1 / 3 * math.log(3.0), abs=1e-9)
        assert ab.lyap == pytest.approx(ACIP_LYAP, abs=1e-9)
        assert ab.entropy == pytest.approx(ACIP_LYAP, abs=1e-9)
        assert ab.free_energy == pytest.approx(0.0, abs=1e-9)

    def test_golden_t0_entropy_is_htop(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 0.0)
        sol = tm.solve_gibbs(model, LOG_GOLDEN)
        ab = tm.abramov_quantities(golden_scheme, sol)
        assert ab.entropy == pytest.approx(LOG_GOLDEN, abs=1e-9)

    def test_tent_trivial(self, tent_trivial_scheme):
        model = tm.induced_potential(tent_trivial_scheme, 0.4)
        sol = tm.solve_gibbs(model, 0.6 * math.log(2))
        ab = tm.abramov_quantities(tent_trivial_scheme, sol)
        assert ab.tau_mean == pytest.approx(1.0, abs=1e-12)
        assert ab.entropy == pytest.approx(math.log(2.0), abs=1e-10)
        assert ab.lyap == pytest.approx(math.log(2.0), abs=1e-12)

    def test_abramov_scaling_consistency(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        sol = tm.solve_gibbs(model, 0.0)
        ab = tm.abramov_quantities(golden_scheme, sol)
        assert ab.h_f == pytest.approx(ab.tau_mean * ab.entropy, rel=1e-9)
        assert ab.lyap_f == pytest.approx(ab.tau_mean * ab.lyap, rel=1e-9)


class TestShiftSolve:
    def test_golden_t1_pressure_zero(self, golden_scheme):
        res = tm.equilibrium_shift_solve(golden_scheme, 1.0, 1e-10)
        assert res.s_hi - res.s_lo <= 1e-9
        assert res.bracket.contains(0.0)

    def test_golden_t0_log_golden(self, golden_scheme):
        res = tm.equilibrium_shift_solve(golden_scheme, 0.0, 1e-10)
        assert res.bracket.contains(LOG_GOLDEN, slack=1e-9)

    def test_tent_t07(self, tent_trivial_scheme):
        res = tm.equilibrium_shift_solve(tent_trivial_scheme, 0.7, 1e-10)
        assert res.mid == pytest.approx(0.3 * math.log(2.0), abs=1e-9)

    def test_tolerance_below_float_spacing_returns(self, tent_trivial_scheme):
        def expire(signum, frame):
            raise TimeoutError("edge bisection did not stop")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(30)
        try:
            res = tm.equilibrium_shift_solve(tent_trivial_scheme, 0.0, 1e-20)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert res.bracket.contains(math.log(2.0))

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tent_trivial_scheme, tol):
        with pytest.raises(DomainError):
            tm.equilibrium_shift_solve(tent_trivial_scheme, 0.0, tol)

    def test_equilibrium_identity(self, golden_scheme):
        for t in (0.0, 0.5, 1.0):
            res = tm.equilibrium_shift_solve(golden_scheme, t, 1e-10)
            ab = tm.abramov_quantities(golden_scheme, res.solution)
            assert ab.free_energy == pytest.approx(res.mid, abs=1e-8)

    def test_pressure_inequality_vs_acip(self, golden_scheme):
        # P(phi_t) >= (1-t) * lyap of the t=1 equilibrium state
        res1 = tm.equilibrium_shift_solve(golden_scheme, 1.0, 1e-10)
        lyap1 = tm.abramov_quantities(golden_scheme, res1.solution).lyap
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            res = tm.equilibrium_shift_solve(golden_scheme, t, 1e-10)
            assert res.s_hi >= (1 - t) * lyap1 - 1e-9

    def test_scheme_independence(self, golden_map, golden_scheme):
        other = tm.extendible_return_scheme(golden_map, (0.0, 4 / 9), 0.25, 14)
        for t in (0.0, 0.7, 1.0):
            r1 = tm.equilibrium_shift_solve(golden_scheme, t, 1e-9)
            r2 = tm.equilibrium_shift_solve(other, t, 1e-9)
            lo = max(r1.s_lo, r2.s_lo)
            hi = min(r1.s_hi, r2.s_hi)
            assert lo <= hi + 1e-6

    def test_zero_entropy_competitor(self, golden_scheme):
        res = tm.equilibrium_shift_solve(golden_scheme, 1.0, 1e-10)
        # best atomic candidate is the fixed point of the slope-1.5 branch
        assert res.zero_entropy_bound == pytest.approx(-math.log(1.5), abs=1e-9)

    def test_divergent_tau_mean_raises(self):
        model = synthetic_model([0.5 / (n * (n + 1)) for n in range(1, 30)])
        # masses ~ n^-2: the tau-series diverges only logarithmically, so
        # truncated sums stay finite; just confirm the solve runs
        sol = tm.solve_gibbs(model, 0.0)
        assert sol.masses.sum() == pytest.approx(1.0, abs=1e-9)


class TestSchemeGeometryCache:
    def test_solve_does_not_depend_on_earlier_t(self, quad_map, quad_x_cylinder):
        x = (quad_x_cylinder.lo, quad_x_cylinder.hi)
        fresh = tm.extendible_return_scheme(quad_map, x, 0.5, 8)
        reused = tm.extendible_return_scheme(quad_map, x, 0.5, 8)
        want = tm.equilibrium_shift_solve(fresh, 0.5)
        tm.equilibrium_shift_solve(reused, 2.0)
        assert "depth2_derivatives" in vars(reused)  # built by the t = 2 solve
        geometry = reused.depth2_derivatives
        got = tm.equilibrium_shift_solve(reused, 0.5)
        assert reused.depth2_derivatives is geometry
        assert (got.s_lo, got.s_hi, got.zero_entropy_bound, got.solution.lam) == \
            (want.s_lo, want.s_hi, want.zero_entropy_bound, want.solution.lam)
        assert np.array_equal(got.solution.masses, want.solution.masses)


class TestGibbsSandwich:
    def test_golden_depth_six(self, golden_scheme):
        res = tm.equilibrium_shift_solve(golden_scheme, 1.0, 1e-10)
        k = tm.gibbs_ratio_check(res.solution, 6)
        assert k <= 1.0 + 1e-9

    def test_json_dump(self, golden_scheme):
        import json
        res = tm.equilibrium_shift_solve(golden_scheme, 1.0, 1e-10)
        data = json.loads(tm.gibbs.solution_to_json(res.solution))
        assert len(data["branches"]) == 2
        assert data["lambda"] == pytest.approx(1.0, abs=1e-9)

    def test_mass_by_tau(self, golden_scheme):
        res = tm.equilibrium_shift_solve(golden_scheme, 1.0, 1e-10)
        masses = tm.mass_by_tau(res.solution)
        assert masses == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
