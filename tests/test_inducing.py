import pytest

import thermomap as tm
from thermomap.errors import DomainError
from thermomap.inducing import SchemeBranch
from thermomap.interval_map import derivative_along, eval_along_word


def tower_first_return_time(tower, c_lo, c_hi, x, t_cap=50):
    """Pointwise oracle: iterate (x, node) and report the first return
    into a qualifying copy of the cylinder."""
    qualifying = {d.index for d in tower.nodes
                  if not d.is_stub and d.contains_interval(c_lo, c_hi)}
    m = tower.map
    node = 0
    z = x
    for k in range(1, t_cap + 1):
        a = m.branch_index(z)
        node = tower.edges[(node, a)]
        z = m.apply(z)
        if node in qualifying and c_lo < z < c_hi:
            return k
    return None


class TestFirstReturn:
    def test_golden_branches(self, golden_scheme):
        sch = golden_scheme
        assert len(sch.branches) == 2
        b1, b2 = sch.branches
        assert (b1.lo, b1.hi) == pytest.approx((0.0, 4.0 / 9.0), abs=1e-12)
        assert b1.tau == 1 and b1.df_mid == pytest.approx(1.5, rel=1e-12)
        assert (b2.lo, b2.hi) == pytest.approx((4.0 / 9.0, 2.0 / 3.0), abs=1e-12)
        assert b2.tau == 2 and b2.df_mid == pytest.approx(3.0, rel=1e-12)
        assert sch.escaping_mass_bound == pytest.approx(0.0, abs=1e-12)
        assert sch.exhausted

    def test_golden_pointwise_oracle(self, golden_tower, golden_scheme):
        for k in range(1, 40):
            x = k / 40 * (2.0 / 3.0)
            hit = [b for b in golden_scheme.branches if b.lo < x < b.hi]
            if not hit:
                continue
            tau = tower_first_return_time(golden_tower, 0.0, 2.0 / 3.0, x)
            assert tau == hit[0].tau

    def test_tent_half_cylinder(self, tent_map):
        tower = tm.build_tower(tent_map, 5)
        sch = tm.first_return_scheme(tower, (0, (0.0, 0.5)), 3)
        by_tau = {b.tau: b for b in sch.branches}
        assert set(by_tau) == {1, 2, 3}
        assert (by_tau[1].lo, by_tau[1].hi) == pytest.approx((0.0, 0.25), abs=1e-13)
        assert (by_tau[2].lo, by_tau[2].hi) == pytest.approx((0.375, 0.5), abs=1e-13)
        # uncovered mass after the cap: exactly 2^-3 of |X|
        assert sch.escaping_mass_bound == pytest.approx(2.0 ** -3 * 0.5, abs=1e-13)
        assert not sch.exhausted

    def test_tent_pointwise_oracle(self, tent_map):
        tower = tm.build_tower(tent_map, 5)
        sch = tm.first_return_scheme(tower, (0, (0.0, 0.5)), 6)
        for k in range(1, 50):
            x = k / 100.0
            hit = [b for b in sch.branches if b.lo < x < b.hi]
            if not hit:
                continue
            assert tower_first_return_time(tower, 0.0, 0.5, x) == hit[0].tau

    def test_cylinder_outside_node(self, golden_tower):
        with pytest.raises(DomainError):
            tm.first_return_scheme(golden_tower, (1, (0.9, 1.0)), 5)

    def test_no_intermediate_reentry(self, golden_tower, golden_scheme):
        # the tower path of each branch stays outside the base cylinder
        # strictly before its return time
        for b in golden_scheme.branches:
            x = b.midpoint
            for j in range(1, b.tau):
                tau = tower_first_return_time(golden_tower, 0.0, 2.0 / 3.0, x)
                assert tau == b.tau

    def test_coverage_monotone_in_cap(self, tent_map):
        tower = tm.build_tower(tent_map, 5)
        escapes = [tm.first_return_scheme(tower, (0, (0.0, 0.5)), T).escaping_mass_bound
                   for T in (2, 4, 6, 8)]
        assert all(b <= a + 1e-15 for a, b in zip(escapes, escapes[1:]))


class TestExtendibleReturn:
    def test_golden_aa_full_branches(self, golden_map):
        sch = tm.extendible_return_scheme(golden_map, (0.0, 4.0 / 9.0), 0.25, 12)
        assert sch.conflicts == 0
        y_lo, y_hi = sch.meta["y"]
        assert y_hi - y_lo == pytest.approx(1.5 * sch.x_len, abs=1e-12)
        # every extension maps onto the scaled neighbourhood
        for b in sch.branches:
            u = eval_along_word(golden_map, b.word, b.ext_lo)
            v = eval_along_word(golden_map, b.word, b.ext_hi)
            assert min(u, v) == pytest.approx(y_lo, abs=1e-9)
            assert max(u, v) == pytest.approx(y_hi, abs=1e-9)
        assert sch.escaping_mass_bound < 0.01 * sch.x_len

    def test_tent_zero_distortion(self, tent_map):
        sch = tm.extendible_return_scheme(tent_map, (0.0, 0.5), 0.5, 8)
        assert sch.branches
        for b in sch.branches:
            assert b.distortion == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_koebe_bound(self, quad_scheme):
        bound = (1 + 2 * 0.5) / 0.5 ** 2 + 1
        assert bound == 9.0
        for b in quad_scheme.branches:
            assert b.distortion <= bound

    def test_neighbourhood_must_fit(self, tent_map):
        with pytest.raises(DomainError):
            tm.extendible_return_scheme(tent_map, (0.0, 0.5), 2.0, 4)

    def test_derivative_bounds_across_a_join(self):
        # f is continuous and increasing across 1/4 with slopes 1.2 and 2.8,
        # so a monotone piece of f^j, hence one branch, spans two words
        m = tm.make_plinear([0, 0.25, 0.5, 1], [(0, 0.3), (0.3, 1), (0, 1)],
                            [1, 1, -1])
        spans = 0
        for x in [(0.0, 0.5), (0.1, 0.4), (0.5, 1.0), (0.6, 0.9)]:
            sch = tm.extendible_return_scheme(m, x, 0.25, 6)
            for b in sch.branches:
                ds = [derivative_along(m, b.lo + (b.hi - b.lo) * k / 50, b.tau)
                      for k in range(1, 50)]
                assert b.df_lo <= min(ds) * (1 + 1e-12)
                assert max(ds) <= b.df_hi * (1 + 1e-12)
                spans += max(ds) > min(ds)
        assert spans > 0

    def test_escape_monotone(self, tent_map):
        e4 = tm.extendible_return_scheme(tent_map, (0.0, 0.5), 0.5, 4)
        e8 = tm.extendible_return_scheme(tent_map, (0.0, 0.5), 0.5, 8)
        assert e8.escaping_mass_bound <= e4.escaping_mass_bound + 1e-15


class TestValidateScheme:
    def test_golden_passes(self, golden_scheme):
        rep = tm.validate_scheme(golden_scheme)
        assert rep.ok
        assert rep.max_distortion == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_passes_with_bound(self, quad_scheme):
        rep = tm.validate_scheme(quad_scheme)
        assert rep.ok
        assert rep.max_distortion <= rep.koebe_bound

    def test_corrupted_overlap_detected(self, golden_scheme):
        import copy
        sch = copy.copy(golden_scheme)
        b = golden_scheme.branches[0]
        bad = SchemeBranch(b.lo, 0.5, b.tau, b.word, b.ext_lo, b.ext_hi,
                           b.df_lo, b.df_hi, b.df_mid)
        sch.branches = [bad, golden_scheme.branches[1]]
        rep = tm.validate_scheme(sch)
        assert not rep.ok
        failed = [c for c in rep.checks if not c.disjoint]
        assert failed and failed[0].overlap_interval is not None

    def test_csv_rows(self, golden_scheme):
        from thermomap.inducing import scheme_to_csv_rows
        rows = scheme_to_csv_rows(golden_scheme)
        assert len(rows) == 2
        assert rows[0][3] == 1 and rows[1][3] == 2


class TestKac:
    def test_golden_kac_consistency(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0, 0.0)
        sol = tm.solve_gibbs(model)
        ab = tm.abramov_quantities(golden_scheme, sol)
        assert ab.tau_mean == pytest.approx(4.0 / 3.0, abs=1e-9)
        mu_a = tm.project_measure(golden_scheme, sol, [(0.0, 2.0 / 3.0)])[0]
        assert 1.0 / ab.tau_mean == pytest.approx(mu_a.mid, abs=1e-9)
