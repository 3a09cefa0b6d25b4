import math

import numpy as np
import pytest

import thermomap as tm
from conftest import (ORBIT_MAPS, SINE_SPEC, counting_lookups, hexes,
                      inline_critical_neighbourhood,
                      rewalking_binding_analysis,
                      rewalking_first_entry_derivative_bound,
                      rewalking_mane_expansion_estimate)
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

    def test_fit_skips_derivatives_past_float_range(self, quad_map, recwarn):
        # |Df^n(f(c))| = 4^n is inf from n = 512 on
        v = dg.critical_orbit_growth(quad_map, 520, 0.9)
        rec = v.records[0]
        assert math.isinf(rec.derivatives[-1])
        assert v.verdict == "CE"
        assert rec.alpha == pytest.approx(math.log(4.0), abs=1e-9)
        assert rec.alpha_r2 >= dg.R2_CE
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        # a line fit to values past float range fits nothing
        ns = np.arange(1.0, len(rec.derivatives) + 1)
        assert all(map(math.isnan, dg._fit_line(ns, np.log(rec.derivatives))))

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

    def test_first_entry_bound_counts_only_entries(self):
        # at a = 2.5 most orbits are drawn to the fixed point 0.6, outside
        # U; counted as entries at step ENTRY_HORIZON they read 4.34e-61
        a = 2.5
        m = tm.make_quadratic(a)
        comps = dg.critical_neighbourhood(m, 0.01)
        (u_lo, u_hi), = comps
        rng = np.random.default_rng(0)
        want = math.inf
        for _ in range(dg.ENTRY_SAMPLES):
            z = float(rng.uniform(0.0, 1.0))
            r, df = 0, 1.0
            while r < dg.ENTRY_HORIZON and not u_lo < z < u_hi:
                df *= abs(a * (1.0 - 2.0 * z))
                z = a * z * (1.0 - z)
                r += 1
            if r > 0 and u_lo < z < u_hi:
                want = min(want, df)
        assert 0.5 < want < 1.0
        assert dg.first_entry_derivative_bound(m, comps, seed=0) == \
            pytest.approx(want, rel=1e-12)

    def test_csv_rows(self, quad_map):
        g = dg.critical_orbit_growth(quad_map, 25, 0.9)
        header, rows = dg.growth_table(g.records)
        assert header == ("n", "deriv")
        assert rows[0] == (1, pytest.approx(4.0))
        b = dg.binding_analysis(quad_map, 0.25, 0.1, 25)
        header, rows = dg.binding_table(b)
        assert header == ("n", "gamma", "partial_sum") and len(rows) == 25

    def test_growth_table_pads_a_cut_orbit_with_nan(self):
        cut = dg.GrowthRecord(0.25, (2.0, 4.0), *[math.nan] * 4, truncated_at=2)
        full = dg.GrowthRecord(0.75, (3.0, 9.0, 27.0), *[math.nan] * 4, None)
        header, rows = dg.growth_table([cut, full])
        assert header == ("n", 0.25, 0.75)
        assert rows[:2] == [(1, 2.0, 3.0), (2, 4.0, 9.0)]
        assert rows[2][0] == 3 and math.isnan(rows[2][1]) and rows[2][2] == 27.0


class TestOrbitReuse:
    """The estimates read |Df^k| off the orbits they walk, with the floats
    of the estimates that walked each orbit a second time."""

    # without a vanishing critical point U is empty whatever eps is
    @pytest.mark.parametrize("name,eps", [
        (name, eps) for name in sorted(ORBIT_MAPS) for eps in (0.25, 0.05)
        if eps == 0.25 or any(cp.vanishing for cp in ORBIT_MAPS[name]().crit)])
    def test_same_floats_as_rewalking_estimates(self, name, eps):
        m = ORBIT_MAPS[name]()
        comps = dg.critical_neighbourhood(m, eps)
        want = inline_critical_neighbourhood(m, eps)
        assert [hexes(c) for c in comps] == [hexes(c) for c in want]
        got = dg.binding_analysis(m, eps, 0.1, 40)
        ref = rewalking_binding_analysis(m, eps, 0.1, 40)
        assert got.p_u == ref.p_u and got.verdict == ref.verdict
        assert {p: v.hex() for p, v in got.f_prime_p.items()} == \
            {p: v.hex() for p, v in ref.f_prime_p.items()}
        for field in ("gammas", "summable_partial", "composition_partial"):
            assert hexes(getattr(got, field)) == hexes(getattr(ref, field)), field
        for seed in range(3):
            assert repr(dg.mane_expansion_estimate(m, comps, seed)) == repr(
                rewalking_mane_expansion_estimate(m, comps, seed)), seed
            assert repr(dg.first_entry_derivative_bound(m, comps, seed)) == repr(
                rewalking_first_entry_derivative_bound(m, comps, seed)), seed

    def test_each_walked_point_is_looked_up_once(self):
        m, lookups, steps = counting_lookups(tm.parse_map_spec(SINE_SPEC))
        for eps in (0.25, 0.05):
            comps = dg.critical_neighbourhood(m, eps)
            lookups.clear()
            dg.mane_expansion_estimate(m, comps, seed=0)
            assert len(lookups) == dg.MANE_ORBITS * dg.MANE_ORBIT_LEN, eps
            for estimate in (dg.first_entry_derivative_bound,
                             dg.nice_check):
                lookups.clear()
                steps.clear()
                estimate(m, comps)
                assert 0 < len(lookups) <= len(steps), estimate
        lookups.clear()
        steps.clear()
        dg.critical_orbit_growth(m, 40, 0.9)
        assert 0 < len(lookups) <= len(steps)
        lookups.clear()
        steps.clear()
        dg.binding_analysis(m, 0.05, 0.1, 40)
        # critical_neighbourhood looks c up once from each side
        assert 0 < len(lookups) <= len(steps) + 2
        lookups.clear()
        assert tm.itinerary(m, 0.3, 2, side="left") == (0, 1)
        assert len(lookups) == 2

    def test_superstable_growth_is_cut_at_the_return_to_c(self):
        # f(c) = a/4 and f^2(c) = c: the critical growth has one term
        m = ORBIT_MAPS["quad_superstable"]()
        rec = dg.binding_analysis(m, 0.05, 0.1, 40)
        assert len(rec.summable_partial) == 1
