import math

import numpy as np
import pytest

import thermomap as tm
from thermomap import diagnostics as dg


class TestCriticalOrbitGrowth:
    def test_quadratic_full_is_ce(self, quad_map):
        v = dg.critical_orbit_growth(quad_map, 40, 0.9)
        assert v.verdict == "CE"
        rec = v.records[0]
        assert rec.alpha == pytest.approx(math.log(4.0), rel=1e-6)
        assert rec.alpha_r2 >= 0.999999

    def test_tent_constant_slope(self, tent_map):
        v = dg.critical_orbit_growth(tent_map, 40, 0.9)
        assert v.verdict == "CE"
        assert v.records[0].alpha == pytest.approx(math.log(2.0), rel=1e-9)

    def test_misiurewicz_parameter_is_ce(self):
        # a solves f_a^3(c) = fixed point 1 - 1/a (preperiodic critical orbit)
        a = 3.6785735104283224
        m = tm.make_quadratic(a)
        v = dg.critical_orbit_growth(m, 40, 0.9)
        assert v.verdict == "CE"
        assert v.records[0].alpha > 0.3

    def test_threshold_formula(self, quad_map):
        v = dg.critical_orbit_growth(quad_map, 20, 0.9)
        assert v.beta_threshold == pytest.approx(2.0 * (1 + 1 / 0.9) - 1.0)

    def test_polynomial_growth_fails_threshold(self):
        # beta = 1 < ell_max(1 + 1/t0) - 1: the fit utility must see it
        ns = np.arange(1, 41, dtype=float)
        beta, r2 = dg._fit_line(np.log(ns), np.log(ns ** 1.0))
        assert beta == pytest.approx(1.0, abs=1e-12) and r2 == pytest.approx(1.0)
        assert beta < 2.0 * (1 + 1 / 0.9) - 1.0

    def test_requires_horizon(self, quad_map):
        with pytest.raises(tm.DomainError):
            dg.critical_orbit_growth(quad_map, 10, 0.9)


class TestBinding:
    def test_gamma_formula(self):
        g = dg.gamma_sequence(0.1, 3)
        assert g[0] == pytest.approx(0.1 / math.log(11.0) ** 2, rel=1e-12)
        assert g[0] == pytest.approx(0.0173916, abs=1e-6)

    def test_quadratic_summable_trend(self, quad_map):
        rec = dg.binding_analysis(quad_map, 0.25, 0.1, 40, t0=0.9)
        assert rec.verdict == "converged-trend"
        tail = np.diff(rec.summable_partial[-5:])
        assert np.all(tail < 1e-8)

    def test_partial_sums_monotone(self, quad_map):
        rec = dg.binding_analysis(quad_map, 0.25, 0.1, 30)
        sums = np.array(rec.summable_partial)
        assert np.all(np.diff(sums) >= -1e-15)
        comp = np.array(rec.composition_partial)
        assert np.all(np.diff(comp) >= -1e-15)

    def test_binding_period_definition(self, quad_map):
        rec = dg.binding_analysis(quad_map, 0.05, 0.1, 30)
        assert 1 <= rec.p_u <= 30
        assert all(v > 0 for v in rec.f_prime_p.values())


class TestKoebe:
    def test_linear_scheme_unit_distortion(self, golden_scheme):
        rep = tm.validate_scheme(golden_scheme)
        assert rep.max_distortion == pytest.approx(1.0, abs=1e-12)
        assert rep.ok

    def test_quadratic_within_bound(self, quad_scheme):
        rep = tm.validate_scheme(quad_scheme)
        assert rep.max_distortion <= 9.0
        assert rep.koebe_bound == 9.0

    def test_delta_one_bound(self, golden_map):
        # (1 + 2*delta) / delta^2 + 1 = 4 at delta = 1
        sch = tm.extendible_return_scheme(golden_map, (1 / 3, 4 / 9), 1.0, 12)
        assert tm.validate_scheme(sch).koebe_bound == pytest.approx(4.0)


class TestVariationDecay:
    def test_golden_locally_constant(self, golden_scheme):
        rec = dg.variation_decay(golden_scheme, 1.0)
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in rec.v_n)
        assert rec.summable_trend

    def test_t_zero_vanishes(self, quad_scheme):
        rec = dg.variation_decay(quad_scheme, 0.0, n_max=4)
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in rec.v_n)

    def test_quadratic_geometric_decay(self, quad_scheme):
        rec = dg.variation_decay(quad_scheme, 1.0, n_max=6)
        arr = list(rec.v_n)
        assert all(b < a for a, b in zip(arr, arr[1:]))
        assert rec.geometric_rate < 1.0
        assert rec.fit_r2 >= 0.9


class TestNeighbourhoodChecks:
    def test_quadratic_nice_at_quarter(self, quad_map):
        # eps = 1/4 puts the boundary of U on the fixed point 3/4
        comps = dg.critical_neighbourhood(quad_map, 0.25)
        assert comps[0] == pytest.approx((0.25, 0.75), abs=1e-12)
        rep = dg.nice_check(quad_map, comps, 64)
        assert rep.nice

    def test_quadratic_not_nice_generic(self, quad_map):
        comps = dg.critical_neighbourhood(quad_map, 0.3)
        rep = dg.nice_check(quad_map, comps, 64)
        assert not rep.nice
        assert rep.offending_n is not None and rep.offending_n >= 1

    def test_mane_positive(self, quad_map):
        comps = dg.critical_neighbourhood(quad_map, 0.25)
        lam1 = dg.mane_expansion_estimate(quad_map, comps, seed=1)
        assert lam1 > 0

    def test_first_entry_bound_positive(self, quad_map):
        comps = dg.critical_neighbourhood(quad_map, 0.25)
        b = dg.first_entry_derivative_bound(quad_map, comps, seed=1)
        assert b > 0

    def test_csv_rows(self, quad_map):
        g = dg.critical_orbit_growth(quad_map, 25, 0.9)
        rows = dg.growth_csv_rows(g.records[0])
        assert rows[0] == (1, pytest.approx(4.0))
        b = dg.binding_analysis(quad_map, 0.25, 0.1, 25)
        assert len(dg.binding_csv_rows(b)) == 25
