import dataclasses
import functools
import math
import signal

import numpy as np
import pytest

import thermomap as tm
from thermomap import gibbs
from thermomap.errors import (DomainError, InfinitePressureError, NumericError,
                              ThermomapError)
from thermomap.gibbs import (CSV_HEADER, CurveRow, PressureCurve, ScanConfig,
                             scan_pressure)
from thermomap.inducing import build_scheme, default_base_cylinder
from thermomap.thermo import (Bracket, induced_potentials, synthetic_model,
                              tail_classify_rows)

import conftest
from conftest import (ACIP_LYAP, JOIN_MAP, LOG_GOLDEN, SINE_SPEC,
                      counting_inverses, hexes, linear_gurevich_pressure,
                      linear_solve_gibbs,
                      pointwise_gibbs_ratio_check, scalar_project_measure,
                      unreachable_after)

GOLDEN = (1 + math.sqrt(5)) / 2


class TestSolveGibbs:
    def test_golden_t1(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        sol = tm.solve_gibbs(model, 0.0)
        assert sol.log_lam == pytest.approx(0.0, abs=1e-12)
        assert sol.masses == pytest.approx([2 / 3, 1 / 3], rel=1e-12)
        assert sol.masses.sum() == pytest.approx(1.0, abs=1e-10)
        assert sol.residual <= 1e-10

    def test_stochastic_two_branch(self):
        model = synthetic_model([0.4, 0.6], taus=[1, 1])
        sol = tm.solve_gibbs(model, 0.0)
        assert sol.log_lam == pytest.approx(0.0, abs=1e-14)
        assert sol.masses == pytest.approx([0.4, 0.6], rel=1e-12)
        assert np.all(sol.rho == pytest.approx(1.0, abs=1e-12))
        assert sol.conformal == pytest.approx([0.4, 0.6], rel=1e-12)

    def test_golden_t0_at_golden_shift(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 0.0)
        sol = tm.solve_gibbs(model, LOG_GOLDEN)
        assert sol.log_lam == pytest.approx(0.0, abs=1e-12)
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
                psi_i = model.log_w_pt[i]
                lhs = sol.conformal[j]  # F maps the 2-cylinder onto X_j
                rhs = math.exp(-psi_i + sol.log_lam) * m_ij
                assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("t", [-60.0])
    def test_overflowing_depth2_weights_raise_numeric_error(self, quad_scheme, t):
        # log weights no longer overflow at any t (test_large_t_probes); the
        # negative-t case, which never raised, still solves to a finite log lam
        res = tm.equilibrium_shift_solve(quad_scheme, t)
        assert math.isfinite(res.solution.log_lam)
        assert not np.any(np.isnan(res.solution.masses))

    @pytest.mark.parametrize("scheme_kind", ["first-return", "extendible"])
    @pytest.mark.parametrize("t", [40.0, -40.0, 120.0, -120.0, 1000.0, -1000.0])
    def test_large_t_probes(self, scheme_kind, t):
        # quad4, first-return at cap 12 and extendible (X the depth-2
        # cylinder at 0.3, delta 0.5) at cap 14: P = (1-t) log 2 wherever
        # the scheme sees the whole interval; the first-return X holds the
        # fixed point 0, whose -t log 4 wins for t <= -1
        m = tm.fixture("quad4")
        if scheme_kind == "extendible":
            scheme = tm.extendible_return_scheme(
                m, default_base_cylinder(m, 0.3, 2), 0.5, 14)
            ref = (1.0 - t) * math.log(2.0)
        else:
            scheme = tm.first_return_scheme(m, default_base_cylinder(m, None, 1), 12)
            ref = (1.0 - t) * math.log(2.0) if t >= 1 else -t * math.log(4.0)
        # the induced pressure at the reference shift is 0
        assert tm.gurevich_pressure(tm.induced_potential(scheme, t), ref).contains(0.0)
        try:
            res = tm.equilibrium_shift_solve(scheme, t)
        except InfinitePressureError:
            # the tail bound k^|t| diverges at the midpoint shift
            assert (scheme_kind, t) == ("extendible", 1000.0)
            return
        assert res.bracket.contains(ref)
        assert math.isfinite(res.solution.log_lam)
        assert not np.any(np.isnan(res.solution.masses))


@functools.cache
def _linear_oracle_scheme(name):
    """First-return schemes at cap 12 on the depth-1 cylinder, as ``scan``
    builds them, and quad4's extendible scheme at cap 14."""
    if name == "quad4-extendible":
        m = tm.fixture("quad4")
        return tm.extendible_return_scheme(
            m, default_base_cylinder(m, 0.3, 2), 0.5, 14)
    m = tm.fixture(name)
    return tm.first_return_scheme(m, default_base_cylinder(m, None, 1), 12)


class TestAgainstLinearSpace:
    """Log-space weights against the float weights they replace, wherever
    the floats are finite."""

    T_GRID = [-1.0 + 0.25 * k for k in range(17)]

    @staticmethod
    def _shifts(scheme, t):
        try:
            res = tm.equilibrium_shift_solve(scheme, t)
        except InfinitePressureError:
            return [-1.0, 0.0, 1.0]
        return [res.s_lo, res.mid, res.s_hi, res.s_hi + 0.5]

    @pytest.mark.parametrize("name", ["markov_golden", "tent2", "markov_full",
                                      "quad4", "quad4-extendible"])
    def test_pressure_and_masses(self, name):
        scheme = _linear_oracle_scheme(name)
        checked = 0
        for t in self.T_GRID:
            model = tm.induced_potential(scheme, t)
            for s in self._shifts(scheme, t):
                try:
                    want = linear_gurevich_pressure(model, s)
                    lam, lam_lo, lam_hi, masses, mass_lo, mass_hi = \
                        linear_solve_gibbs(model, s)
                except OverflowError:
                    continue
                if not all(math.isfinite(v) for v in (want.lo, want.hi, lam_hi)):
                    continue
                got = tm.gurevich_pressure(model, s)
                assert got.lo == pytest.approx(want.lo, rel=0.0, abs=1e-13)
                assert got.hi == pytest.approx(want.hi, rel=0.0, abs=1e-13)
                sol = tm.solve_gibbs(model, s)
                assert sol.log_lam_bracket == got
                assert sol.masses == pytest.approx(masses, rel=1e-12, abs=0.0)
                assert sol.mass_lo == pytest.approx(mass_lo, rel=1e-12, abs=0.0)
                assert sol.mass_hi == pytest.approx(mass_hi, rel=1e-12, abs=0.0)
                checked += 1
        assert checked >= 3 * len(self.T_GRID)


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


    def test_underflowed_masses_raise_numeric_error(self, quad_scheme):
        # at t = 120 46 of the 91 masses underflow to 0: a ratio of 0
        sol = tm.solve_gibbs(tm.induced_potential(quad_scheme, 120.0), 0.0)
        assert np.count_nonzero(sol.masses == 0.0) == 46
        with pytest.raises(NumericError):
            tm.gibbs_ratio_check(sol, 1)

    def test_overflowing_ratio_raises_numeric_error(self, golden_scheme):
        sol = tm.solve_gibbs(tm.induced_potential(golden_scheme, 1.0), 0.0)
        with pytest.raises(NumericError):
            tm.gibbs_ratio_check(dataclasses.replace(sol, log_lam=math.log(1e-300)), 2)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_leaves_no_garbage_cycle(self, depth):
        # the suffix memo is freed when the call returns, without the cyclic
        # collector; two memoised closures, one calling itself, left 11
        # objects at depth 2 and 28,082 at depth 3
        m = tm.parse_map_spec(SINE_SPEC)
        scheme = tm.extendible_return_scheme(
            m, default_base_cylinder(m, 0.3, 2), 0.5, 8)
        sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
        assert unreachable_after(tm.gibbs_ratio_check, sol, depth) == 0

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_refused(self, golden_scheme, depth):
        sol = tm.solve_gibbs(tm.induced_potential(golden_scheme, 1.0), 0.0)
        with pytest.raises(DomainError):
            tm.gibbs_ratio_check(sol, depth)

    @pytest.mark.parametrize("word_cap", [0, -1, 2.5])
    def test_word_cap_not_a_positive_integer_refused(self, golden_scheme,
                                                     word_cap):
        # a cap of 0 checked no word and read a perfect constant, 1.0
        sol = tm.solve_gibbs(tm.induced_potential(golden_scheme, 1.0), 0.0)
        with pytest.raises(DomainError, match="word_cap"):
            tm.gibbs_ratio_check(sol, 2, word_cap=word_cap)


@functools.cache
def _oracle_scheme(name):
    """The schemes the library projection and ratio check are held to
    their scalar oracles on."""
    if name == "sine":
        m = tm.parse_map_spec(SINE_SPEC)
        return tm.extendible_return_scheme(
            m, default_base_cylinder(m, 0.3, 2), 0.5, 10)
    if name == "quad4":
        m = tm.fixture("quad4")
        return tm.extendible_return_scheme(
            m, default_base_cylinder(m, 0.3, 2), 0.5, 14)
    if name == "tent2":
        return tm.extendible_return_scheme(tm.fixture("tent2"), (0.4, 0.9),
                                           0.05, 8)
    if name == "markov_golden":
        return tm.first_return_scheme(tm.fixture("markov_golden"),
                                      (0.0, 2.0 / 3.0), 10)
    return tm.extendible_return_scheme(tm.make_plinear(*JOIN_MAP), (0.0, 0.5),
                                       0.25, 8)


def _edge_targets(scheme):
    """Targets given as cylinders, reversed and empty, straddling either
    end of X, and beside X."""
    m = scheme.map
    (d_lo, d_hi), (x_lo, x_hi) = m.domain, scheme.x
    w = 0.1 * (x_hi - x_lo)
    return [tm.cylinder_of_word(m, (0,)), tm.cylinder_of_word(m, (0, 1)),
            (0.6, 0.3), (0.4, 0.4), (x_lo - w, x_lo + w), (x_hi - w, x_hi + w),
            (x_lo - w, x_hi + w), (d_lo, x_lo), (x_hi, d_hi), (x_hi + w, d_hi),
            (x_lo, x_hi), m.domain]


BENCH_TARGETS = [(k / 32, (k + 1) / 32) for k in range(32)]


def counted_projection(monkeypatch, scheme, sol, targets):
    """project_measure's brackets, and how many times it evaluated F."""
    calls = []
    forward = tm.inducing.SchemeBranch.forward

    def counted(br, m, x):
        calls.append(x)
        return forward(br, m, x)

    monkeypatch.setattr(tm.inducing.SchemeBranch, "forward", counted)
    try:
        got = tm.project_measure(scheme, sol, targets)
    finally:
        monkeypatch.setattr(tm.inducing.SchemeBranch, "forward", forward)
    return got, len(calls)


class TestAgainstScalarOracle:
    """Projection and the Gibbs-ratio check give the floats of their scalar
    oracles in conftest, which recompute every segment orbit, branch-end
    image and suffix point for each target and word."""

    @staticmethod
    def same_projection(scheme, sol, targets):
        got = tm.project_measure(scheme, sol, targets)
        want = scalar_project_measure(scheme, sol, targets)
        assert [hexes((b.lo, b.hi)) for b in got] \
            == [hexes((b.lo, b.hi)) for b in want]

    @staticmethod
    def same_ratio(sol, depth, word_cap=20_000):
        assert tm.gibbs_ratio_check(sol, depth, word_cap).hex() \
            == pointwise_gibbs_ratio_check(sol, depth, word_cap).hex()

    def test_sine_bench_targets(self):
        scheme = _oracle_scheme("sine")
        sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
        self.same_projection(scheme, sol, [(k / 32, (k + 1) / 32)
                                           for k in range(32)])
        self.same_ratio(sol, 2)

    def test_sine_bench_targets_take_each_inverse_step_once(self):
        # neighbouring targets share an end, and segments share the words it
        # is pulled back along; the parent pulled target ends back through a
        # memo keyed by (segment, k) and made 1,517 inverse calls here
        scheme = _oracle_scheme("sine")
        sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
        targets = [(k / 32, (k + 1) / 32) for k in range(32)]
        m, calls = counting_inverses(scheme.map)
        got = tm.project_measure(dataclasses.replace(scheme, map=m), sol, targets)
        want = scalar_project_measure(scheme, sol, targets)
        assert [hexes((b.lo, b.hi)) for b in got] \
            == [hexes((b.lo, b.hi)) for b in want]
        assert 0 < len(calls) == len(set(calls)) < 1517

    def test_sine_bench_targets_stop_light_chains(self, monkeypatch):
        # following every chain PROJECTION_DEPTH levels down evaluates F
        # 8,515 times here
        scheme = _oracle_scheme("sine")
        sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
        _, evals = counted_projection(monkeypatch, scheme, sol, BENCH_TARGETS)
        assert 0 < evals <= 4500

    def test_depth_two_ratio_pulls_nothing_back(self, monkeypatch):
        # the depth-2 solve caches |DF| at every point the check reads
        scheme = dataclasses.replace(_oracle_scheme("sine"))
        sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
        assert "depth2_derivatives" in vars(scheme)
        calls = []
        for module in (tm.interval_map, tm.inducing):
            def pullback_word(m, word, y, inner=module.pullback_word):
                calls.append(tuple(word))
                return inner(m, word, y)
            monkeypatch.setattr(module, "pullback_word", pullback_word)
        tm.gibbs_ratio_check(sol, 2)
        assert calls == []

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
    def test_quad4_cap14(self, t):
        scheme = _oracle_scheme("quad4")
        sol = tm.equilibrium_shift_solve(scheme, t).solution
        self.same_projection(scheme, sol, [(k / 4, (k + 1) / 4) for k in range(4)])
        self.same_ratio(sol, 2)

    @pytest.mark.parametrize("name", ["tent2", "markov_golden", "join"])
    def test_small_maps(self, name):
        scheme = _oracle_scheme(name)
        sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
        self.same_projection(scheme, sol, [(k / 8, (k + 1) / 8) for k in range(8)])
        self.same_ratio(sol, 3)

    @pytest.mark.parametrize("name", ["sine", "quad4"])
    def test_sampled_depth_three(self, name):
        scheme = _oracle_scheme(name)
        sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
        assert len(scheme.branches) ** 3 > 3000
        self.same_ratio(sol, 3, word_cap=3000)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_sampled_pairs_leave_the_matrix_unbuilt(self, depth):
        # 45 branches: 2,025 length-2 words, of which 500 are sampled, and
        # only the pairs the sampled words end in are computed
        m = tm.fixture("quad4")
        scheme = tm.extendible_return_scheme(
            m, default_base_cylinder(m, 0.3, 2), 0.5, 10)
        sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
        fresh = dataclasses.replace(scheme)  # without the solve's matrix
        sol = dataclasses.replace(
            sol, model=dataclasses.replace(sol.model, scheme=fresh))
        self.same_ratio(sol, depth, word_cap=500)
        assert "depth2_derivatives" not in vars(fresh)

    @pytest.mark.parametrize("name", ["sine", "quad4", "tent2",
                                      "markov_golden", "join"])
    def test_edge_targets(self, name):
        scheme = _oracle_scheme(name)
        sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
        self.same_projection(scheme, sol, _edge_targets(scheme))


@functools.cache
def _floor_case(name):
    """The scheme, solution and scalar-oracle brackets of the bench targets
    at t = 1 on which the chain floor is checked."""
    scheme = _oracle_scheme(name)
    sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
    return scheme, sol, scalar_project_measure(scheme, sol, BENCH_TARGETS)


class TestChainFloor:
    """A chain of the product rule stops where its weight falls to
    CHAIN_FLOOR; the depth guard alone is the oracle's rule, and a higher
    floor only widens brackets."""

    @pytest.mark.parametrize("name", ["sine", "quad4"])
    def test_depth_guard_alone_is_the_oracle(self, monkeypatch, name):
        scheme, sol, want = _floor_case(name)
        monkeypatch.setattr(gibbs, "CHAIN_FLOOR", 0.0)
        got = tm.project_measure(scheme, sol, BENCH_TARGETS)
        assert [hexes((b.lo, b.hi)) for b in got] \
            == [hexes((b.lo, b.hi)) for b in want]

    @pytest.mark.parametrize("name", ["sine", "quad4"])
    def test_raised_floor_widens_outward(self, monkeypatch, name):
        scheme, sol, want = _floor_case(name)
        _, evals = counted_projection(monkeypatch, scheme, sol, BENCH_TARGETS)
        for floor in (2.0 ** -20, 2.0 ** -10):
            monkeypatch.setattr(gibbs, "CHAIN_FLOOR", floor)
            got, fewer = counted_projection(monkeypatch, scheme, sol,
                                            BENCH_TARGETS)
            assert all(g.lo <= w.lo and w.hi <= g.hi
                       for g, w in zip(got, want, strict=True)), floor
            assert fewer < evals, floor
            evals = fewer


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

    def test_leaves_no_garbage_cycle(self):
        # the call's memos are freed when it returns, without the cyclic
        # collector
        m = tm.parse_map_spec(SINE_SPEC)
        scheme = tm.extendible_return_scheme(
            m, default_base_cylinder(m, 0.3, 2), 0.5, 8)
        sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
        targets = [(k / 8, (k + 1) / 8) for k in range(8)]
        assert unreachable_after(tm.project_measure, scheme, sol, targets) == 0

    @pytest.mark.parametrize("target", [(math.nan, 0.5), (0.2, math.nan),
                                        (-math.inf, 0.5), (0.2, math.inf)])
    def test_non_finite_target_end_refused(self, target):
        m = tm.fixture("quad4")
        scheme = tm.extendible_return_scheme(
            m, default_base_cylinder(m, 0.3, 2), 0.5, 10)
        sol = tm.equilibrium_shift_solve(scheme, 1.0).solution
        with pytest.raises(DomainError, match="not finite"):
            tm.project_measure(scheme, sol, [(0.2, 0.5), target])


class TestAbramov:
    def test_per_tau_at_a_zero_tau_edge(self):
        # an edge that would divide by tau's 0 edge is +-inf, or 0 where
        # the edge itself is 0
        tau = Bracket(0.0, 4.0)
        assert gibbs._per_tau(-1.0, 2.0, tau) == Bracket(-math.inf, math.inf)
        assert gibbs._per_tau(1.0, 2.0, tau) == Bracket(0.25, math.inf)
        assert gibbs._per_tau(-2.0, -1.0, tau) == Bracket(-math.inf, -0.25)
        assert gibbs._per_tau(0.0, 0.0, tau) == Bracket(0.0, 0.0)
        assert gibbs._per_tau(-1.0, 2.0, Bracket(0.5, 4.0)) == Bracket(-2.0, 4.0)

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


def _first_return_12(name):
    return lambda: build_scheme(tm.fixture(name), scheme_kind="first-return",
                                x_point=None, x_depth=1, delta=0.5, cap=12)


#: The schemes on which the shift solve is checked against the bisection
#: oracle: the markov_scan maps (the full map with breakpoint 1/24 among
#: them) and quad4, at the bench's options.
SHIFT_ORACLE_SCHEMES = {
    "tent2": _first_return_12("tent2"),
    "markov_golden": _first_return_12("markov_golden"),
    "markov_full": _first_return_12("markov_full"),
    "full_1_up": lambda: build_scheme(
        tm.make_plinear([0.0, 1 / 24, 1.0], [(0.0, 1.0), (0.0, 1.0)], [1, 1]),
        scheme_kind="first-return", x_point=None, x_depth=1, delta=0.5, cap=12),
    "quad4": _first_return_12("quad4"),
    "quad4_extendible": lambda: build_scheme(
        tm.fixture("quad4"), scheme_kind="extendible", x_point=0.3, x_depth=2,
        delta=0.5, cap=14),
}
#: The markov_scan grid, 61 points on [-1, 2], and large |t|.
SHIFT_PROBE_TS = [-1.0 + 3.0 * k / 60 for k in range(61)] + \
    [40.0, -40.0, 120.0, -120.0, 1000.0, -1000.0]


def count_pressure_calls(monkeypatch):
    """Count the shift solve's weight sums in calls[0]: each distinct
    (t, shift) that one ``gibbs.log_weight_sums`` call evaluates is one
    weight sum, one ``gurevich_pressure`` of a solve that searches alone;
    more than 1000 of them raise, so that a search that does not stop
    fails."""
    calls = [0]
    inner = gibbs.log_weight_sums

    def counting(models, upper, shifts):
        calls[0] += len({(m.t, s) for m, s in zip(models, shifts)})
        if calls[0] > 1000:
            raise RuntimeError("more than 1000 weight sums")
        return inner(models, upper, shifts)

    monkeypatch.setattr(gibbs, "log_weight_sums", counting)
    return calls


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

    @pytest.mark.parametrize("case", sorted(SHIFT_ORACLE_SCHEMES))
    def test_false_position_matches_bisection(self, monkeypatch, case):
        # the same outcome as bisection, edges within the tolerance of the
        # bisected ones, and no more weight sums; over the 61-point grid
        # false position takes 10 to 25 weight sums per solve on average,
        # and bisection 72 to 80
        scheme = SHIFT_ORACLE_SCHEMES[case]()
        calls = count_pressure_calls(monkeypatch)

        def outcome(solve, t):
            calls[0] = 0
            try:
                return solve(scheme, t, 1e-10), calls[0]
            except ThermomapError as exc:
                return type(exc), calls[0]

        counts = []
        for t in SHIFT_PROBE_TS:
            got, n_got = outcome(lambda *a: tm.equilibrium_shift_solve(*a).bracket, t)
            want, n_want = outcome(conftest.bisection_shift_solve, t)
            counts.append(n_got)
            assert 0 < n_got <= n_want, (t, n_got, n_want)
            if isinstance(want, Bracket):
                assert (got.lo, got.hi) == pytest.approx((want.lo, want.hi), abs=1e-10), t
            else:
                assert got is want, t
        assert sum(counts[:61]) / 61 <= 30, counts[:61]

    def test_upper_edge_from_the_tail_pole(self, monkeypatch):
        # left of the tail's pole the upper bound is +inf, so the upper
        # edge starts from an infinite end value and takes midpoints
        scheme = SHIFT_ORACLE_SCHEMES["tent2"]()
        model = tm.induced_potential(scheme, 0.5)
        assert tm.gurevich_pressure(model, -1.0).lo > 0.0  # s_left = -1
        assert tm.gurevich_pressure(model, -1.0).hi == math.inf
        calls = count_pressure_calls(monkeypatch)
        want = conftest.bisection_shift_solve(scheme, 0.5, 1e-10)
        n_want, calls[0] = calls[0], 0
        res = tm.equilibrium_shift_solve(scheme, 0.5, 1e-10)
        assert res.s_hi == pytest.approx(want.hi, abs=1e-10)
        assert 0 < calls[0] <= n_want

    @pytest.mark.parametrize("fixture", ["golden_scheme", "tent_trivial_scheme"])
    def test_flat_bound_at_float_resolution(self, request, monkeypatch, fixture):
        # at t = 1 the float weight sum is exactly 1 for |S| below about
        # 1e-16: the bound is 0 on a whole interval, where a chord through
        # an end value 0 stays at that end, so the edges are bisected
        scheme = request.getfixturevalue(fixture)
        calls = count_pressure_calls(monkeypatch)
        want = conftest.bisection_shift_solve(scheme, 1.0, 1e-20)
        n_want, calls[0] = calls[0], 0
        res = tm.equilibrium_shift_solve(scheme, 1.0, 1e-20)
        assert res.bracket.contains(0.0)
        assert (res.s_lo, res.s_hi) == pytest.approx((want.lo, want.hi), abs=1e-20)
        assert 0 < calls[0] <= 1.1 * n_want

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


class TestLockstepShiftSolves:
    """The lockstep searches against ``conftest.scalar_shift_solve``, the
    solve as it was when each t searched alone, float for float."""

    # at t = +-1e300 an end search fails: the lower bound never goes
    # positive, or the upper bound never goes negative
    CASES = [(name, t) for name in sorted(SHIFT_ORACLE_SCHEMES)
             for t in SHIFT_PROBE_TS + [1e300, -1e300]] + \
        [("quad4_extendible_10", t) for t in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)]

    @staticmethod
    def _scheme(name):
        if name == "quad4_extendible_10":
            return build_scheme(tm.fixture("quad4"), scheme_kind="extendible",
                                x_point=0.3, x_depth=2, delta=0.5, cap=10)
        return SHIFT_ORACLE_SCHEMES[name]()

    @staticmethod
    def _assert_same(got, scheme, t):
        try:
            want, want_sum = conftest.scalar_shift_solve(scheme, t, 1e-10)
        except ThermomapError as exc:
            assert (type(got), str(got)) == (type(exc), str(exc)), t
            return
        assert not isinstance(got, ThermomapError), (t, got)
        sol, ref = got.solution, want.solution
        assert hexes([got.s_lo, got.s_hi, got.zero_entropy_bound, sol.shift,
                      sol.log_lam, sol.log_lam_bracket.lo, sol.log_lam_bracket.hi]) \
            == hexes([want.s_lo, want.s_hi, want.zero_entropy_bound, ref.shift,
                      ref.log_lam, *want_sum]), t
        assert hexes(sol.masses) == hexes(ref.masses), t

    @pytest.mark.parametrize("name", sorted(SHIFT_ORACLE_SCHEMES) + ["quad4_extendible_10"])
    def test_same_floats_as_the_scalar_solve(self, name):
        scheme = self._scheme(name)
        ts = [t for case, t in self.CASES if case == name]
        for t, got in zip(ts, gibbs._shift_solves(scheme, ts, 1e-10)):
            self._assert_same(got, scheme, t)
        for t in ts:
            try:
                got = tm.equilibrium_shift_solve(scheme, t, 1e-10)
            except ThermomapError as exc:
                got = exc
            self._assert_same(got, scheme, t)

    def test_failures_leave_no_garbage_cycles(self):
        # a stored error keeps no traceback, whose frames would hold the
        # list of results that holds the error
        scheme = SHIFT_ORACLE_SCHEMES["full_1_up"]()
        cfg = ScanConfig(scheme.map, -1.0, 2.0, 61)
        assert "error:infinite-pressure" in scan_pressure(cfg, scheme=scheme).to_csv()
        assert unreachable_after(scan_pressure, cfg, scheme) == 0

        def failing_solve():
            with pytest.raises(InfinitePressureError):
                tm.equilibrium_shift_solve(scheme, 1.0)

        assert unreachable_after(failing_solve) == 0

    @pytest.mark.parametrize("name", ["tent2", "markov_golden", "full_1_up"])
    def test_scan_csv_matches_scalar_rows(self, name):
        scheme = SHIFT_ORACLE_SCHEMES[name]()
        cfg = ScanConfig(scheme.map, -1.0, 2.0, 61)
        want = PressureCurve()
        nan = math.nan
        for t in cfg.t_grid():
            try:
                res, _ = conftest.scalar_shift_solve(scheme, t, cfg.tolerance)
            except InfinitePressureError:
                want.rows.append(CurveRow(t, nan, nan, nan, "error:infinite-pressure",
                                          nan, nan, nan, nan))
                continue
            ab = tm.abramov_quantities(scheme, res.solution)
            tail = tm.tail_classify(tm.mass_by_tau(res.solution))
            rate = tail.rate if tail.kind == "exponential" else tail.exponent
            want.rows.append(CurveRow(t, res.s_lo, res.s_hi, res.zero_entropy_bound,
                                      tail.kind, rate, ab.tau_mean, ab.lyap,
                                      ab.entropy))
        got = scan_pressure(cfg, scheme=scheme).to_csv()
        assert got == want.to_csv()
        if name == "full_1_up":
            assert "error:infinite-pressure" in got

    @pytest.mark.parametrize("name", ["tent2", "markov_golden"])
    def test_scan_takes_no_more_steps_than_its_slowest_t(self, monkeypatch, name):
        # one kernel call per lockstep step; a scan that searched its t
        # values one after another, one weight sum per call, would make
        # about 1,200
        scheme = SHIFT_ORACLE_SCHEMES[name]()
        cfg = ScanConfig(scheme.map, -1.0, 2.0, 61)
        calls = [0]
        inner = gibbs.log_weight_sums

        def counting(*args):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(gibbs, "log_weight_sums", counting)
        alone = []
        for t in cfg.t_grid():
            calls[0] = 0
            try:
                tm.equilibrium_shift_solve(scheme, t, cfg.tolerance)
            except ThermomapError:
                pass
            alone.append(calls[0])
        calls[0] = 0
        scan_pressure(cfg, scheme=scheme)
        assert 0 < calls[0] <= max(alone), (calls[0], max(alone))


@dataclasses.dataclass(frozen=True)
class GridConfig(ScanConfig):
    """A ScanConfig whose t-grid is any list of t."""

    grid: tuple = ()

    def t_grid(self) -> list[float]:
        return list(self.grid)


def _scan_at(scheme, ts) -> PressureCurve:
    return scan_pressure(GridConfig(scheme.map, -1.0, 1.0, 2, grid=tuple(ts)),
                         scheme=scheme)


def _assert_same_result(got, want):
    """Two one-row results are the same error, or the same floats."""
    if isinstance(want, ThermomapError):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert not isinstance(got, ThermomapError), got
    for name in ("masses", "mass_lo", "mass_hi", "conformal", "rho"):
        assert hexes(getattr(got, name)) == hexes(getattr(want, name)), name
    assert hexes([got.shift, got.log_lam, *dataclasses.astuple(got.log_lam_bracket),
                  got.residual]) == \
        hexes([want.shift, want.log_lam, *dataclasses.astuple(want.log_lam_bracket),
               want.residual])


def _flat(record) -> list:
    """A record's fields, the fields of its brackets among them."""
    out = []
    for v in dataclasses.astuple(record):
        out += list(v) if isinstance(v, tuple) else [v]
    return out


def _one_row(fn, *args):
    try:
        return fn(*args)
    except ThermomapError as exc:
        return exc


class TestStackedScanStage:
    """What follows the search, done for every row of a scan at once, is
    the per-t path row by row: ``conftest.scalar_scan_rows`` is that path
    as it was, each t alone, with ``np.polyfit`` tail fits."""

    TS = SHIFT_PROBE_TS + [1e300, -1e300]
    #: The t at which the lower edge of tau_mean underflows to 0, by scheme
    TAU_LO_ZERO = {"quad4": [40.0, 120.0, 1000.0]}

    @pytest.mark.parametrize("name", sorted(SHIFT_ORACLE_SCHEMES) + ["quad4_extendible_10"])
    def test_same_rows_as_the_scalar_path(self, name):
        scheme = TestLockstepShiftSolves._scheme(name)
        want = []
        for t in self.TS:
            want += conftest.scalar_scan_rows(scheme, [t])
        got = _scan_at(scheme, self.TS)
        assert len(got.rows) == len(want)
        floats = [i for i, k in enumerate(CSV_HEADER)
                  if k not in ("tail_kind", "tail_rate")]
        for g, w in zip(got.rows, want):
            assert g.tail_kind == w.tail_kind, g.t
            assert hexes([g.as_tuple()[i] for i in floats]) == \
                hexes([w.as_tuple()[i] for i in floats]), g.t
            assert g.tail_rate == pytest.approx(w.tail_rate, rel=1e-12, nan_ok=True), g.t
        assert got.to_csv() == PressureCurve(want).to_csv()
        for t in self.TAU_LO_ZERO.get(name, []):
            # the Abramov brackets that divide by the 0 edge are +-inf, and
            # the row keeps its pressure bracket, which holds the closed form
            sol = tm.equilibrium_shift_solve(scheme, t).solution
            assert gibbs._tau_mean_bracket(sol).lo == 0.0, t
            (row,) = [row for row in got.rows if row.t == t]
            assert row.p_lo <= (1.0 - t) * math.log(2.0) <= row.p_hi, t
        if name == "full_1_up":
            assert "error:infinite-pressure" in got.to_csv()

    @pytest.mark.parametrize("name", ["markov_full", "full_1_up", "tent2",
                                      "quad4_extendible_10"])
    def test_each_one_t_function_is_one_row(self, name):
        scheme = TestLockstepShiftSolves._scheme(name)
        ts = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, -120.0, -1000.0, 1e300]
        models = induced_potentials(scheme, ts)
        for t, model in zip(ts, models):
            one = tm.induced_potential(scheme, t)
            assert (model.t, hexes(model.log_w.ravel()), hexes(model.log_w_pt)) == \
                (one.t, hexes(one.log_w.ravel()), hexes(one.log_w_pt))
        # the solved midpoints (0 where the search fails), and t = 0.5 at
        # S = -1, where tent2's upper weight sum diverges
        shifts = [res.solution.shift if not isinstance(res, ThermomapError) else 0.0
                  for res in gibbs._shift_solves(scheme, ts, 1e-10)] + [-1.0]
        models.append(tm.induced_potential(scheme, 0.5))
        rows = gibbs._solve_gibbs_rows(models, shifts)
        for model, shift, row in zip(models, shifts, rows):
            _assert_same_result(row, _one_row(tm.solve_gibbs, model, shift))
            _assert_same_result(row, _one_row(conftest.scalar_solve_gibbs, model, shift))
        if name == "tent2":
            assert isinstance(rows[-1], InfinitePressureError)
        sols = [row for row in rows if not isinstance(row, ThermomapError)]
        # quad4's extendible scheme is distorted: its rows take the depth-2
        # power iteration
        assert any(sol.residual > 0.0 for sol in sols) == (name == "quad4_extendible_10")
        for sol, got in zip(sols, gibbs.abramov_rows(sols)):
            for want in (_one_row(tm.abramov_quantities, scheme, sol),
                         _one_row(conftest.scalar_abramov_quantities, sol)):
                if isinstance(want, ThermomapError):
                    assert (type(got), str(got)) == (type(want), str(want))
                else:
                    assert hexes(_flat(got)) == hexes(_flat(want))
        by_tau = gibbs.mass_by_tau_rows(sols)
        for sol, got, tail in zip(sols, by_tau, tail_classify_rows(by_tau)):
            assert hexes(got) == hexes(tm.mass_by_tau(sol)) == \
                hexes(conftest.scalar_mass_by_tau(sol))
            want = tm.tail_classify(tm.mass_by_tau(sol))
            assert (tail.kind, tail.finite_support) == (want.kind, want.finite_support)
            assert hexes([tail.rate, tail.exponent, tail.r2]) == \
                hexes([want.rate, want.exponent, want.r2])

    def test_masses_by_tau_add_in_branch_order(self):
        # many branches share each inducing time, so the order of the adds
        # shows in the last bits
        rng = np.random.default_rng(0)
        taus = np.repeat([1, 2, 3], 40)
        sols = [tm.solve_gibbs(synthetic_model(rng.uniform(0.5, 1.5, 120), taus), 0.0)
                for _ in range(3)]
        for sol, got in zip(sols, gibbs.mass_by_tau_rows(sols)):
            assert hexes(got) == hexes(tm.mass_by_tau(sol)) == \
                hexes(conftest.scalar_mass_by_tau(sol))

    @pytest.mark.parametrize("masses", [
        [0.5 ** n for n in range(1, 13)],
        [n ** -3.0 for n in range(1, 21)],
        [2 / 3, 1 / 3] + [0.0] * 10,
        [0.5, 0.0, 0.25, 0.0],
        [(1 - 0.3) * 0.3 ** (n - 1) / (1 - 0.3 ** 40) for n in range(1, 41)],
    ], ids=["geometric", "power-law", "finite-support", "too-few", "theta-0.3"])
    def test_tail_fit_is_the_polyfit_fit(self, masses):
        got = tm.tail_classify(masses)
        want = conftest.polyfit_tail_classify(masses)
        assert (got.kind, got.finite_support) == (want.kind, want.finite_support)
        assert got.rate == pytest.approx(want.rate, rel=1e-12, nan_ok=True)
        assert got.exponent == pytest.approx(want.exponent, rel=1e-12, nan_ok=True)
        for row in tail_classify_rows(np.array([masses, masses])):
            assert hexes([row.rate, row.exponent, row.r2]) == \
                hexes([got.rate, got.exponent, got.r2])


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
        assert (got.s_lo, got.s_hi, got.zero_entropy_bound, got.solution.log_lam) == \
            (want.s_lo, want.s_hi, want.zero_entropy_bound, want.solution.log_lam)
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
        assert data["log_lambda"] == pytest.approx(0.0, abs=1e-9)

    def test_mass_by_tau(self, golden_scheme):
        res = tm.equilibrium_shift_solve(golden_scheme, 1.0, 1e-10)
        masses = tm.mass_by_tau(res.solution)
        assert masses == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
