import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermomap as tm
from thermomap.thermo import partition_function_exact, synthetic_model

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


class TestInducedPotential:
    def test_golden_exact_weights(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0, 0.0)
        assert model.w_pt == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-12)
        assert np.all(model.w_hi - model.w_lo < 1e-15)

    def test_t_zero_kills_potential(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 0.0, 0.0)
        assert model.w_pt == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_quadratic_bracket_ratio(self, quad_scheme):
        model = tm.induced_potential(quad_scheme, 1.0, 0.1)
        ratios = model.w_hi / model.w_lo
        assert np.all(ratios <= 9.0 + 1e-9)

    def test_bracket_flips_with_negative_t(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, -1.0, 0.0)
        assert model.w_pt == pytest.approx([1.5, 3.0], rel=1e-12)
        assert np.all(model.w_lo <= model.w_hi + 1e-15)

    def test_variation_based_subadditivity_constant(self, quad_scheme):
        from thermomap.diagnostics import variation_decay
        v_n = variation_decay(quad_scheme, 1.0, n_max=5).v_n
        model = tm.induced_potential(quad_scheme, 1.0, 0.0, variations=v_n)
        fallback = tm.induced_potential(quad_scheme, 1.0, 0.0)
        assert model.log_b == pytest.approx(2.0 * sum(v_n), rel=1e-12)
        assert model.log_b < fallback.log_b  # measured decay beats the bound


class TestPartitionFunction:
    def test_golden_z1_branch(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0, 0.0)
        z = tm.partition_function(model, 1, 0)
        assert z.lo == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert z.width < 1e-15

    def test_golden_z2_total_is_one(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0, 0.0)
        total = sum(tm.partition_function(model, 2, b).mid for b in range(2))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_exact_path_agrees(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0, 0.0)
        for n in (1, 2, 3):
            for base in (0, 1):
                z = tm.partition_function(model, n, base)
                exact = partition_function_exact(model, n, base)
                assert z.contains(exact, slack=1e-9)

    def test_base_outside_truncation(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0, 0.0)
        z = tm.partition_function(model, 1, 99)
        assert z.lo == z.hi == 0.0

    def test_star_two_branch_words(self):
        p, q = 0.3, 0.6
        model = synthetic_model([p, q], taus=[1, 1])
        assert tm.partition_function_star(model, 2, 0).mid == pytest.approx(p * q)
        assert tm.partition_function_star(model, 3, 0).mid == pytest.approx(p * q * q)
        assert tm.partition_function_star(model, 1, 0).mid == pytest.approx(p)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.05, 2.0), min_size=2, max_size=6),
           st.integers(1, 5))
    def test_full_shift_exactness(self, weights, n):
        model = synthetic_model(weights, taus=[1] * len(weights))
        total = sum(tm.partition_function(model, n, b).mid
                    for b in range(len(weights)))
        assert total == pytest.approx(sum(weights) ** n, rel=1e-9)


class TestGurevichPressure:
    def test_golden_t1_zero_bracket(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0, 0.0)
        pb = tm.gurevich_pressure(model)
        assert pb.width <= 1e-12
        assert pb.contains(0.0, slack=1e-12)

    def test_golden_t0_log_two(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 0.0, 0.0)
        pb = tm.gurevich_pressure(model)
        assert pb.mid == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("t", [-0.5, 0.0, 0.7, 1.3])
    def test_tent_trivial_closed_form(self, tent_trivial_scheme, t):
        model = tm.induced_potential(tent_trivial_scheme, t, 0.0)
        pb = tm.gurevich_pressure(model)
        assert pb.mid == pytest.approx((1.0 - t) * math.log(2.0), abs=1e-11)
        assert pb.width <= 1e-11

    @pytest.mark.parametrize("fixture_name",
                             ["golden_scheme", "tent_trivial_scheme",
                              "quad_scheme"])
    def test_finite_n_never_beats_weight_sum(self, fixture_name, request):
        # Z_n = w_base * W^(n-1) on a full shift, so no base and no finite n
        # gives a lower bound above log W
        scheme = request.getfixturevalue(fixture_name)
        model = tm.induced_potential(scheme, 0.5, 0.1)
        lower = tm.gurevich_pressure(model).lower
        for base in range(model.n):
            for n in range(1, 9):
                z = tm.partition_function(model, n, base)
                if z.lo > 0.0:
                    assert (math.log(z.lo) - model.log_b) / n <= lower + 1e-12


class TestPressureVsShift:
    def test_golden_t1_midpoints(self, golden_scheme):
        pts = tm.pressure_vs_shift(golden_scheme, 1.0, [0.0, 0.1, 0.2])
        mids = [pb.mid for _, pb in pts]
        assert mids[0] == pytest.approx(0.0, abs=1e-12)
        want = math.log(2 / 3 * math.exp(-0.1) + 1 / 3 * math.exp(-0.2))
        assert mids[1] == pytest.approx(want, rel=1e-12)
        assert mids[0] > mids[1] > mids[2]

    def test_golden_t0_root_at_log_golden(self, golden_scheme):
        pts = tm.pressure_vs_shift(golden_scheme, 0.0, [LOG_GOLDEN])
        assert pts[0][1].contains(0.0, slack=1e-12)

    def test_large_shift_diverges_down(self, golden_scheme):
        pts = tm.pressure_vs_shift(golden_scheme, 1.0, [0.0, 5.0, 50.0])
        mids = [pb.mid for _, pb in pts]
        assert mids[2] < mids[1] < mids[0]
        assert mids[2] < -40

    @pytest.mark.parametrize("fixture_name",
                             ["golden_scheme", "tent_trivial_scheme",
                              "full_trivial_scheme"])
    def test_subadditivity(self, fixture_name, request):
        scheme = request.getfixturevalue(fixture_name)
        model = tm.induced_potential(scheme, 0.8, 0.05)
        base = model.default_base()
        log_b = model.log_b
        for m1 in range(1, 8):
            for m2 in range(1, 8 - m1 + 1):
                z1 = tm.partition_function(model, m1, base)
                z2 = tm.partition_function(model, m2, base)
                z12 = tm.partition_function(model, m1 + m2, base)
                lhs = math.log(z1.lo) + math.log(z2.lo)
                rhs = math.log(z12.hi) + log_b
                assert lhs <= rhs + 1e-9

    def test_monotone_in_shift(self, golden_scheme):
        pts = tm.pressure_vs_shift(golden_scheme, 0.3,
                                   [k * 0.1 for k in range(8)])
        mids = [pb.mid for _, pb in pts]
        widths = [pb.width for _, pb in pts]
        for k in range(len(mids) - 1):
            assert mids[k + 1] <= mids[k] + widths[k] + widths[k + 1] + 1e-12


class TestPStarDiscriminant:
    def test_finite_family_flags(self, golden_scheme):
        rec = tm.p_star_discriminant(golden_scheme, t=1.0)
        assert rec.kind == "finite-family"
        assert rec.p_star == -math.inf
        assert rec.discriminant == math.inf

    def test_geometric_boundary(self):
        theta = 0.5
        w = [(1 - theta) * theta ** (n - 1) for n in range(1, 41)]
        rec = tm.p_star_discriminant(synthetic_model(w))
        assert rec.p_star == pytest.approx(math.log(theta), abs=1e-6)
        assert rec.discriminant == math.inf

    def test_polynomial_boundary(self):
        w = [n ** -2.0 for n in range(1, 61)]
        rec = tm.p_star_discriminant(synthetic_model(w))
        assert rec.p_star == pytest.approx(0.0, abs=1e-8)
        assert rec.discriminant == pytest.approx(math.log(math.pi ** 2 / 6), abs=2e-3)
        assert rec.poly_exponent == pytest.approx(2.0, abs=1e-6)

    def test_noise_is_inconclusive(self):
        rng = np.random.default_rng(7)
        w = list(rng.uniform(0.1, 1.0, size=30))
        rec = tm.p_star_discriminant(synthetic_model(w))
        assert rec.kind == "inconclusive"


class TestRecurrence:
    def test_golden_recurrent(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0, 0.0)
        rep = tm.recurrence_check(model, 1.0, 6)
        assert rep.recurrent_trend and rep.positive_recurrent_trend
        assert all(t == pytest.approx(rep.terms[0], rel=1e-12) for t in rep.terms)

    def test_stochastic_weights_recurrent(self):
        model = synthetic_model([0.4, 0.6], taus=[1, 1])
        rep = tm.recurrence_check(model, 1.0, 8)
        assert rep.recurrent_trend

    def test_subcritical_weights_transient(self):
        model = synthetic_model([0.4, 0.5], taus=[1, 1])
        rep = tm.recurrence_check(model, 1.0, 10)
        assert not rep.recurrent_trend


class TestTailClassify:
    def test_geometric_masses(self):
        rec = tm.tail_classify([0.5 ** n for n in range(1, 13)])
        assert rec.kind == "exponential"
        assert rec.rate == pytest.approx(math.log(2.0), abs=1e-6)
        assert rec.r2 == pytest.approx(1.0, abs=1e-12)

    def test_power_law_masses(self):
        rec = tm.tail_classify([n ** -3.0 for n in range(1, 21)])
        assert rec.kind == "polynomial"
        assert rec.exponent == pytest.approx(3.0, abs=0.01)

    def test_finite_support_flag(self):
        rec = tm.tail_classify([2 / 3, 1 / 3] + [0.0] * 10)
        assert rec.kind == "exponential"
        assert rec.finite_support

    def test_too_few_points(self):
        rec = tm.tail_classify([0.5, 0.0, 0.25, 0.0])
        assert rec.kind == "inconclusive"


class TestCsvRows:
    def test_pressure_rows(self, golden_scheme):
        from thermomap.thermo import pressure_rows
        pts = tm.pressure_vs_shift(golden_scheme, 1.0, [0.0, 0.1])
        rows = pressure_rows(pts)
        assert rows[0][0] == 0.0 and rows[0][1] <= rows[0][2]

    def test_zn_and_mass_rows(self, golden_scheme):
        from thermomap.thermo import mass_rows, zn_rows
        model = tm.induced_potential(golden_scheme, 1.0, 0.0)
        zr = zn_rows(model, 3)
        assert [r[0] for r in zr] == [1, 2, 3]
        assert all(r[1] <= r[2] for r in zr)
        mr = mass_rows([0.5, 0.25])
        assert mr == [(1, 0.5), (2, 0.25)]

    def test_gibbs_mass_rows(self, golden_scheme):
        from thermomap.gibbs import mass_csv_rows
        sol = tm.solve_gibbs(tm.induced_potential(golden_scheme, 1.0, 0.0))
        rows = mass_csv_rows(sol)
        assert rows[0][0] == "0" and rows[1][0] == "0-1"
        assert rows[0][1] == pytest.approx(2 / 3, rel=1e-12)


class TestDiscriminantTails:
    @settings(max_examples=25, deadline=None)
    @given(theta=st.floats(0.2, 0.8))
    def test_negative_pstar_iff_exponential(self, theta):
        w = [(1 - theta) * theta ** (n - 1) for n in range(1, 41)]
        model = synthetic_model(w)
        rec = tm.p_star_discriminant(model)
        assert rec.p_star == pytest.approx(math.log(theta), abs=1e-6)
        assert rec.p_star < 0
        # at the solved shift the masses are the normalized weights
        masses = [v / sum(w) for v in w]
        tails = tm.tail_classify(masses)
        assert tails.kind == "exponential" and tails.r2 >= 0.99
