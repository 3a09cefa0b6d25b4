import math

import pytest
from hypothesis import given, settings, strategies as st

import thermomap as tm
from thermomap.errors import CriticalOrbitError, DomainError, SchemaError
from thermomap.interval_map import derivative_prefixes


class TestEvalOrbit:
    def test_quadratic_critical_orbit(self, quad_map):
        assert tm.eval_orbit(quad_map, 0.5, 2) == [0.5, 1.0, 0.0]

    def test_tent_third(self, tent_map):
        orbit = tm.eval_orbit(tent_map, 1.0 / 3.0, 3)
        assert orbit[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        for z in orbit[1:]:
            assert z == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_golden_period_two(self, golden_map):
        orbit = tm.eval_orbit(golden_map, 0.5, 2)
        assert orbit[1] == pytest.approx(0.75, abs=1e-15)
        assert orbit[2] == pytest.approx(0.5, abs=1e-14)

    def test_outside_domain(self, tent_map):
        with pytest.raises(DomainError):
            tm.eval_orbit(tent_map, 1.5, 3)


class TestDerivativeAlong:
    def test_tent_constant_slope(self, tent_map):
        assert tm.derivative_along(tent_map, 0.1, 5) == pytest.approx(32.0, rel=1e-12)

    def test_quadratic_along_postcritical(self, quad_map):
        assert tm.derivative_along(quad_map, 1.0, 3) == pytest.approx(64.0, rel=1e-12)

    def test_golden_period_two_multiplier(self, golden_map):
        assert tm.derivative_along(golden_map, 0.5, 2) == pytest.approx(3.0, rel=1e-12)

    def test_critical_hit_reports_time(self, quad_map):
        with pytest.raises(CriticalOrbitError) as exc:
            tm.derivative_along(quad_map, 0.5, 2)
        assert exc.value.hit_time == 0

    def test_prefixes_are_the_products_up_to_a_critical_hit(self, quad_map):
        prefixes = derivative_prefixes(quad_map, 0.3, 12)
        assert prefixes == [tm.derivative_along(quad_map, 0.3, k)
                            for k in range(1, 13)]
        # f(x) = 1/2, the critical point, so the orbit hits it at time 1
        x = 0.5 * (1.0 - math.sqrt(0.5))
        with pytest.raises(CriticalOrbitError) as exc:
            tm.derivative_along(quad_map, x, 2)
        assert exc.value.hit_time == 1
        assert derivative_prefixes(quad_map, x, 12) == [
            tm.derivative_along(quad_map, x, 1)]
        assert derivative_prefixes(quad_map, 0.5, 12) == []

    def test_chain_rule_split(self, golden_map):
        x = 0.21
        full = tm.derivative_along(golden_map, x, 5)
        mid = tm.eval_orbit(golden_map, x, 2)[-1]
        part = tm.derivative_along(golden_map, x, 2) * tm.derivative_along(golden_map, mid, 3)
        assert full == pytest.approx(part, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(0.01, 0.99), m=st.integers(1, 4), n=st.integers(1, 4))
    def test_chain_rule_property(self, x, m, n):
        mp = tm.fixture("markov_full")
        full = tm.derivative_along(mp, x, m + n)
        mid = tm.eval_orbit(mp, x, m)[-1]
        assert full == pytest.approx(
            tm.derivative_along(mp, x, m) * tm.derivative_along(mp, mid, n),
            rel=1e-10)


class TestBranchData:
    def test_orientation_matches_derivative(self):
        for name in ("tent2", "quad4", "markov_golden", "markov_full"):
            m = tm.fixture(name)
            for b in m.branches:
                for k in range(1, 20):
                    x = b.lo + (b.hi - b.lo) * k / 20
                    assert b.deriv(x) * b.orientation > 0

    def test_quadratic_derivative_formula(self, quad_map):
        for x in (0.0, 0.1, 0.3, 0.5, 0.77, 1.0):
            side = "left" if x > 0 else "right"
            assert abs(quad_map.deriv(x, side)) == pytest.approx(
                4.0 * abs(1.0 - 2.0 * x), abs=1e-15)

    def test_branch_inverse_roundtrip(self):
        for name in ("tent2", "quad4", "markov_golden"):
            m = tm.fixture(name)
            for b in m.branches:
                for k in range(1, 10):
                    x = b.lo + (b.hi - b.lo) * k / 10
                    assert b.inv(b.fwd(x)) == pytest.approx(x, abs=1e-12)

    def test_chebyshev_degree_three(self):
        m = tm.make_chebyshev(3)
        assert m.n_branches == 3
        assert len(m.crit) == 2
        # conjugate of x -> cos(3 arccos x): check a full orbit stays in [0,1]
        orbit = tm.eval_orbit(m, 0.123, 50)
        assert all(0.0 <= z <= 1.0 for z in orbit)
        assert abs(m.deriv(0.0, side="right")) == pytest.approx(9.0, rel=1e-9)

    def test_custom_inverse_matches_the_100_step_bisection(self):
        m = tm.parse_map_spec(
            "kind = custom\nexpr = sin(pi*x)\nbreakpoints = 0, 1/2, 1\n"
            "crit = 1/2:2\n")

        def bisect_100(br, y):
            a, b = br.lo, br.hi
            for _ in range(100):
                c = 0.5 * (a + b)
                if (br.fwd(c) - y) * br.orientation < 0:
                    a = c
                else:
                    b = c
            return 0.5 * (a + b)

        ys = [k / 997 for k in range(998)] + [0.0, 1.0, 5e-324, 1.0 - 2 ** -53]
        ys += [10.0 ** -k for k in range(1, 21)]
        for br in m.branches:
            for y in ys:
                assert br.inv(y) == bisect_100(br, y), (br.lo, y)


class TestParseMapSpec:
    def test_tent_document(self):
        m = tm.parse_map_spec("kind = tent\ns = 2\n")
        assert m.n_branches == 2
        assert m.branches[0].deriv(0.2) == pytest.approx(2.0)
        assert m.branches[1].deriv(0.8) == pytest.approx(-2.0)
        (cp,) = m.crit
        assert cp.c == 0.5 and cp.kind == "turning" and not cp.vanishing

    def test_quadratic_document(self):
        m = tm.parse_map_spec("kind: quadratic\na: 4\n")
        (cp,) = m.crit
        assert cp.c == 0.5 and cp.order == 2.0 and cp.image == 1.0

    def test_plinear_golden_document(self):
        text = """
        kind = plinear
        breakpoints = 0, 2/3, 1
        images = [0,1], [0,2/3]
        """
        m = tm.parse_map_spec(text)
        assert m.branches[0].deriv(0.1) == pytest.approx(1.5, rel=1e-12)
        assert m.branches[1].deriv(0.9) == pytest.approx(-2.0, rel=1e-12)

    def test_non_monotone_rejected(self):
        text = "kind = custom\nexpr = x*x - x\nbreakpoints = 0, 1\ncrit = 0.5:2\n"
        with pytest.raises(SchemaError):
            tm.parse_map_spec(text)

    def test_image_escape_rejected(self):
        text = "kind = plinear\nbreakpoints = 0, 1/2, 1\nimages = [0,2], [0,1]\n"
        with pytest.raises(SchemaError) as exc:
            tm.parse_map_spec(text)
        assert "branches[0]" in str(exc.value)

    @pytest.mark.parametrize("point", ["1/0", "0/0", "inf", "nan"])
    def test_non_finite_number_rejected(self, point):
        text = f"kind = plinear\nbreakpoints = 0, {point}, 1\nimages = [0,1], [0,1]\n"
        with pytest.raises(SchemaError) as exc:
            tm.parse_map_spec(text)
        assert "breakpoints" in str(exc.value)

    @pytest.mark.parametrize("text, field", [
        ("kind = plinear\nbreakpoints = 0, 1/2, 1\nimages = [0,1], [0,1]\n"
         "orientations = 1\n", "orientations"),
        ("kind = plinear\nbreakpoints = 0, 1/2, 1\nimages = [0,1], [0,1]\n"
         "orientations = 0.5, -3\n", "orientations"),
        ("kind = chebyshev\nd = 2.5\n", "params.d"),
    ], ids=["short-orientations", "orientation-not-a-sign", "fractional-degree"])
    def test_malformed_field_rejected(self, text, field):
        with pytest.raises(SchemaError) as exc:
            tm.parse_map_spec(text)
        assert str(exc.value).startswith(field + ":")

    def test_missing_kind(self):
        with pytest.raises(SchemaError):
            tm.parse_map_spec("s = 2\n")

    def test_custom_requires_crit(self):
        with pytest.raises(SchemaError):
            tm.parse_map_spec("kind=custom\nexpr=4*x*(1-x)\nbreakpoints=0,1/2,1\n")

    def test_custom_expression(self):
        text = "kind=custom\nexpr=4*x*(1-x)\nbreakpoints=0,1/2,1\ncrit=1/2:2\n"
        m = tm.parse_map_spec(text)
        assert m.apply(0.3) == pytest.approx(0.84, abs=1e-12)
        assert m.crit[0].image == pytest.approx(1.0, abs=1e-12)

    def test_fixture_names(self):
        assert tm.load_map("markov_golden").kind == "plinear"
        with pytest.raises(SchemaError):
            tm.load_map("no_such_fixture_or_file")


class TestCriticalPoints:
    def test_inflection_excluded_from_turning_logic(self):
        from thermomap.interval_map import CriticalPoint, IntervalMap
        base = tm.fixture("quad4")
        infl = CriticalPoint(0.25, 3.0, base.apply(0.25),
                             kind="inflection", vanishing=True)
        m = IntervalMap(base.domain, base.branches, base.crit + (infl,),
                        base.kind, base.params)
        assert infl not in m.turning_points()
        assert m.ell_max == 3.0  # order still counts toward ell_max


class TestSnapping:
    def test_boundary_goes_left_by_default(self, golden_map):
        assert golden_map.branch_index(2.0 / 3.0) == 0
        assert golden_map.branch_index(2.0 / 3.0, side="right") == 1

    def test_snap_tolerance(self, golden_map):
        x = 2.0 / 3.0 + 5e-15
        assert golden_map.branch_index(x) == 0
