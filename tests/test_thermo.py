import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermomap as tm
from thermomap.thermo import synthetic_model

from conftest import partition_function_exact

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


class TestInducedPotential:
    def test_golden_exact_weights(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        assert model.w_pt == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-12)
        assert np.all(model.w_hi - model.w_lo < 1e-15)

    def test_t_zero_kills_potential(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 0.0)
        assert model.w_pt == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_quadratic_bracket_ratio(self, quad_scheme):
        w_lo, w_hi, _ = tm.induced_potential(quad_scheme, 1.0).weights(0.1)
        ratios = w_hi / w_lo
        assert np.all(ratios <= 9.0 + 1e-9)

    def test_bracket_flips_with_negative_t(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, -1.0)
        assert model.w_pt == pytest.approx([1.5, 3.0], rel=1e-12)
        assert np.all(model.w_lo <= model.w_hi + 1e-15)


class TestWithShift:
    def test_underflowed_weight_is_unknown_not_nan(self):
        # exp(1e4) overflows, and 0 * inf would be NaN
        zero = np.array([0.0, 0.25])
        model = replace(synthetic_model([0.5, 0.25], taus=[1, 2]),
                        w_lo=zero, w_hi=zero.copy(), w_pt=zero.copy())
        w_lo, w_hi, w_pt = model.weights(-1e4)
        for w in (w_lo, w_hi, w_pt):
            assert not np.any(np.isnan(w))
        assert np.all(w_lo <= w_hi)
        assert w_lo[0] == 0.0 and w_hi[0] == math.inf

    def test_golden_underflow_times_overflow_is_unknown(self, golden_scheme):
        # |DF|^-1e5 underflows to 0 and exp(1e4 * tau) overflows
        model = tm.induced_potential(golden_scheme, 1e5)
        w_lo, w_hi, w_pt = model.weights(-1e4)
        for w in (w_lo, w_hi, w_pt):
            assert not np.any(np.isnan(w))
        assert np.all(w_lo == 0.0) and np.all(w_hi == math.inf)
        pb = tm.gurevich_pressure(model, -1e4)
        assert (pb.lo, pb.hi) == (-math.inf, math.inf)


class TestPartitionFunction:
    def test_golden_z1_branch(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        assert partition_function_exact(model, 1, 0, 0.0) == pytest.approx(
            2.0 / 3.0, rel=1e-12)
        assert model.w_hi[0] - model.w_lo[0] < 1e-15

    def test_golden_z2_total_is_one(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        total = sum(partition_function_exact(model, 2, b, 0.0) for b in range(2))
        assert total == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.05, 2.0), min_size=2, max_size=6),
           st.integers(1, 5))
    def test_full_shift_exactness(self, weights, n):
        # the total Z_n over all bases is W^n = exp(n * P) on a full shift
        model = synthetic_model(weights, taus=[1] * len(weights))
        pb = tm.gurevich_pressure(model, 0.0)
        for p in (pb.lo, pb.hi):
            assert math.exp(n * p) == pytest.approx(sum(weights) ** n, rel=1e-9)

    def test_exact_path_agrees(self, golden_scheme, tent_trivial_scheme,
                               full_trivial_scheme):
        # on a full shift Z_n(base) = w_base * W^(n-1) for the weight sum W
        for scheme in (golden_scheme, tent_trivial_scheme, full_trivial_scheme):
            model = tm.induced_potential(scheme, 0.8)
            w_pt = model.weights(0.05)[2]
            w_sum = float(w_pt.sum())
            for n in range(1, 9):
                for base in range(model.n):
                    want = float(w_pt[base]) * w_sum ** (n - 1)
                    got = partition_function_exact(model, n, base, 0.05)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestGurevichPressure:
    def test_golden_t1_zero_bracket(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        pb = tm.gurevich_pressure(model, 0.0)
        assert pb.width <= 1e-12
        assert pb.contains(0.0, slack=1e-12)

    def test_golden_t0_log_two(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 0.0)
        pb = tm.gurevich_pressure(model, 0.0)
        assert pb.mid == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("t", [-0.5, 0.0, 0.7, 1.3])
    def test_tent_trivial_closed_form(self, tent_trivial_scheme, t):
        model = tm.induced_potential(tent_trivial_scheme, t)
        pb = tm.gurevich_pressure(model, 0.0)
        assert pb.mid == pytest.approx((1.0 - t) * math.log(2.0), abs=1e-11)
        assert pb.width <= 1e-11

    @pytest.mark.parametrize("fixture_name",
                             ["golden_scheme", "tent_trivial_scheme",
                              "quad_scheme"])
    def test_finite_n_never_beats_weight_sum(self, fixture_name, request):
        # Z_n >= w_lo[base] * W_lo^(n-1) on a full shift, so no base and no
        # finite n gives a lower bound above log W
        scheme = request.getfixturevalue(fixture_name)
        model = tm.induced_potential(scheme, 0.5)
        lower = tm.gurevich_pressure(model, 0.1).lo
        log_b = 2.0 * abs(model.t) * math.log(model.k_dist)
        w_sum_lo = model.weight_sum(0.1)[0]
        w_lo = model.weights(0.1)[0]
        for base in range(model.n):
            for n in range(1, 9):
                z_lo = float(w_lo[base]) * w_sum_lo ** (n - 1)
                if z_lo > 0.0:
                    assert (math.log(z_lo) - log_b) / n <= lower + 1e-12


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
        # log Z_m1 + log Z_m2 <= log Z_(m1+m2) + log B, with Z_n summed over
        # periodic points and B = k^(2|t|) from the distortion k
        scheme = request.getfixturevalue(fixture_name)
        model = tm.induced_potential(scheme, 0.8)
        base = int(np.argmax(model.weights(0.05)[2]))
        log_b = 2.0 * abs(model.t) * math.log(model.k_dist)
        log_z = {n: math.log(partition_function_exact(model, n, base, 0.05))
                 for n in range(1, 9)}
        for m1 in range(1, 8):
            for m2 in range(1, 8 - m1 + 1):
                assert log_z[m1] + log_z[m2] <= log_z[m1 + m2] + log_b + 1e-9

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
