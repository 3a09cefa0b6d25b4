import dataclasses
import math
import os
import subprocess
import sys
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermomap as tm
from conftest import (ORBIT_MAPS, SINE_SPEC, _inflection_map,
                      bisection_inverse, hexes, inverse_grid, looping_apply,
                      looping_branch_index, looping_deriv, plinear_maps,
                      stepwise_derivative_along, stepwise_derivative_prefixes)
from thermomap import interval_map
from thermomap.errors import CriticalOrbitError, DomainError, SchemaError
from thermomap.interval_map import (SNAP_TOL, BranchSpec, InverseSteps,
                                    _chain, _validate, _walk,
                                    derivative_along_word,
                                    derivative_along_words,
                                    derivative_prefixes, pullback_word,
                                    pullback_words)


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

    def test_first_point_is_snapped_before_the_critical_test(self, tent_map):
        # a vanishing critical point declared 8e-15 right of the breakpoint
        # 1/2: x snaps onto 1/2, which is within SNAP_TOL of c, though x
        # itself is not
        m = dataclasses.replace(tent_map, crit=(
            tm.CriticalPoint(0.5 + 8e-15, 2.0, 1.0, vanishing=True),))
        x = 0.5 - 8e-15
        assert stepwise_derivative_prefixes(m, x, 2) == []
        assert derivative_prefixes(m, x, 2) == []
        # a later point is tested as walked: x, the image of x / 2, is
        # 1.6e-14 from c and not cut
        assert m.apply(x / 2) == x
        assert stepwise_derivative_prefixes(m, x / 2, 2) == [2.0, 4.0]
        assert derivative_prefixes(m, x / 2, 2) == [2.0, 4.0]
        # a stretch that starts mid-orbit, as the binding analysis's
        # critical growth does, snaps its first point too
        stretch = _chain(m, islice(_walk(m, x / 2), 1, None))
        assert [d for _, d in islice(stretch, 3)] == [1.0, None, None]

    @pytest.mark.parametrize("name", sorted(ORBIT_MAPS))
    def test_same_floats_and_hit_times_as_a_stepwise_walk(self, name):
        m = ORBIT_MAPS[name]()
        lo, hi = m.domain
        # critical points and their preimages (orbits that hit at time 0
        # and 1), points within SNAP_TOL of a breakpoint, and random points
        crit = [cp.c for cp in m.crit]
        starts = crit + [pullback_word(m, (i,), c)
                         for c in crit for i in range(m.n_branches)]
        starts += list(m.breakpoints) + [lo - 5e-15, hi + 5e-15]
        starts += [p + d for p in m.breakpoints[1:-1] for d in (-5e-15, 5e-15)]
        for seed in range(3):
            starts += np.random.default_rng(seed).uniform(lo, hi, 6).tolist()

        def outcome(along, x, n):
            try:
                return along(m, x, n).hex()
            except CriticalOrbitError as exc:
                return ("hit", exc.hit_time)

        hits = 0
        for x in starts:
            for n in (0, 1, 2, 5, 17, 40):
                want = outcome(stepwise_derivative_along, x, n)
                assert outcome(tm.derivative_along, x, n) == want, (x, n)
                hits += isinstance(want, tuple)
            assert hexes(derivative_prefixes(m, x, 40)) == hexes(
                stepwise_derivative_prefixes(m, x, 40)), x
        assert hits > 0 or not any(cp.vanishing for cp in m.crit)


def assert_kernels_match(m, word, points):
    """Both stacked kernels, given one word, equal their scalar kernels,
    point for point."""
    pts = np.array(points, dtype=np.float64)
    one = np.zeros(len(points), dtype=np.intp)
    pulled = pullback_words(m, [word], one, pts)
    assert hexes(pulled) == hexes(pullback_word(m, word, y) for y in points)
    derivs = derivative_along_words(m, [word], one, pts)
    assert hexes(derivs) == hexes(derivative_along_word(m, word, x)
                                  for x in points)
    assert hexes(pts) == hexes(points)  # the input is left as it was
    # words that share suffixes, each at every point, in one call
    words = [word[1:], word, word[::-1], (word[0],) + word, word]
    index = np.repeat(np.arange(len(words)), len(points))
    assert hexes(pullback_words(m, words, index, np.tile(pts, len(words)))) \
        == hexes(pullback_word(m, w, y) for w in words for y in points)
    # memoised by step, one helper for every word and point
    steps = InverseSteps(m)
    for w in (word[1:], word, word[::-1], (word[0],) + word, word):
        assert hexes(steps(w, y) for y in points) == hexes(
            pullback_word(m, w, y) for y in points)


@st.composite
def maps_words_points(draw):
    """A plinear or quadratic(a >= 3.5) map, a word and points on and off
    the branch ends and image ends, so that every clamp is exercised."""
    m = draw(plinear_maps() | st.floats(3.5, 4.0).map(tm.make_quadratic))
    word = tuple(draw(st.lists(st.integers(0, m.n_branches - 1),
                               min_size=1, max_size=6)))
    ends = [v for b in m.branches for v in (b.lo, b.hi, *b.image)]
    point = (st.sampled_from(ends + [-0.0])
             | st.floats(-0.1, 1.1, allow_nan=False))
    return m, word, draw(st.lists(point, min_size=1, max_size=40))


class TestArrayKernels:
    @settings(max_examples=150, deadline=None)
    @given(case=maps_words_points())
    def test_equal_to_the_scalar_kernels(self, case):
        assert_kernels_match(*case)

    @pytest.mark.parametrize("m", [
        tm.make_chebyshev(3),
        tm.parse_map_spec("kind = custom\nexpr = sin(pi*x)\n"
                          "breakpoints = 0, 1/2, 1\ncrit = 1/2:2\n")],
        ids=["chebyshev3", "sine"])
    def test_scalar_fallback(self, m):
        assert all(b.array is None for b in m.branches)
        points = [k / 37 for k in range(38)] + [-0.0, 1e-300, 0.5]
        for word in [(0,), (1, 0), (0, 1, 1), (m.n_branches - 1, 0, 1)]:
            assert_kernels_match(m, word, points)

    def test_signed_zero_ties_follow_python(self):
        # Python's max and min keep their first operand on a tie of -0.0
        # and 0.0, which a branch starting at -0.0 passes on to the result
        m = tm.make_plinear([-0.0, 0.5, 1.0], [(0.0, 1.0), (0.0, 1.0)], [1, -1])
        for word in [(0,), (1,), (0, 1), (1, 0)]:
            assert_kernels_match(m, word, [-0.0, 0.0, 0.5, 1.0])
        assert pullback_word(m, (0,), -0.0).hex() == "-0x0.0p+0"

    def test_empty_input(self, quad_map):
        empty = np.array([])
        for kernel in (pullback_words, derivative_along_words):
            assert kernel(quad_map, [(0, 1)], [], empty).shape == (0,)


def assert_stacked_kernels_match(m, words, index, points):
    """Both stacked kernels equal their scalar kernels, row for row."""
    pts = np.array(points, dtype=np.float64)
    assert hexes(derivative_along_words(m, words, index, pts)) == hexes(
        derivative_along_word(m, words[k], x) for k, x in zip(index, points))
    assert hexes(pullback_words(m, words, index, pts)) == hexes(
        pullback_word(m, words[k], y) for k, y in zip(index, points))
    assert hexes(pts) == hexes(points)  # the input is left as it was


@st.composite
def maps_rows(draw):
    """A plinear or quadratic(a >= 3.5) map, words of mixed length (the
    empty word among them) and rows that each take one word at one point,
    on and off the branch ends and image ends."""
    m = draw(plinear_maps() | st.floats(3.5, 4.0).map(tm.make_quadratic))
    words = [()] + draw(st.lists(
        st.lists(st.integers(0, m.n_branches - 1), max_size=8).map(tuple),
        min_size=1, max_size=6))
    ends = [v for b in m.branches for v in (b.lo, b.hi, *b.image)]
    point = (st.sampled_from(ends + [-0.0])
             | st.floats(-0.1, 1.1, allow_nan=False))
    rows = draw(st.lists(st.tuples(st.integers(0, len(words) - 1), point),
                         max_size=40))
    return m, words, [k for k, _ in rows], [x for _, x in rows]


class TestStackedKernels:
    """``derivative_along_words`` and ``pullback_words`` walk many (word,
    point) rows at once and give each row the scalar kernel's float."""

    @settings(max_examples=150, deadline=None)
    @given(case=maps_rows())
    def test_equal_to_the_scalar_kernels(self, case):
        assert_stacked_kernels_match(*case)

    def test_mixed_lengths_and_repeated_words(self, quad_map):
        words = [(0, 1, 1, 0, 1), (), (1,), (0, 0, 1, 1, 0, 1, 0, 1, 1, 0)]
        points = [k / 23 for k in range(24)] + [-0.0, 0.5, 1.0]
        index = [k % len(words) for k in range(len(points))]
        assert_stacked_kernels_match(quad_map, words, index, points)
        # rows that all take one word are the kernel given that word alone
        one = np.array(points)
        assert hexes(derivative_along_words(quad_map, words, [3] * len(points),
                                            one)) == hexes(
            derivative_along_words(quad_map, [words[3]], [0] * len(points), one))

    def test_empty_input(self, quad_map):
        for words in ([], [(0, 1)], [(), (1,)]):
            for kernel in (derivative_along_words, pullback_words):
                got = kernel(quad_map, words, [], np.array([]))
                assert got.shape == (0,) and got.dtype == np.float64

    @pytest.mark.parametrize("m", [tm.make_chebyshev(3),
                                   tm.parse_map_spec(SINE_SPEC)],
                             ids=["chebyshev3", "sine"])
    def test_scalar_fallback(self, m):
        assert all(b.array is None for b in m.branches)
        words = [(0,), (), (1, 0), (0, 1, 1), (m.n_branches - 1, 0, 1)]
        points = [k / 37 for k in range(38)] + [-0.0, 1e-300, 0.5]
        index = [k % len(words) for k in range(len(points))]
        assert_stacked_kernels_match(m, words, index, points)

    def test_mixed_array_and_scalar_branches(self, quad_map):
        # a branch without array kernels applies its scalar kernels, once
        # per distinct point, to the rows that take it at a letter position;
        # the array branches stay stacked
        left, right = quad_map.branches
        m = dataclasses.replace(quad_map, branches=(
            left, dataclasses.replace(right, array=None)))
        words = [(0, 0, 0), (0, 1), (1,), (), (1, 0, 0)]
        points = [k / 29 for k in range(30)]
        index = [k % len(words) for k in range(len(points))]
        assert_stacked_kernels_match(m, words, index, points)


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

    def test_custom_inverse_matches_the_100_step_bisection_at_resolution(self):
        # wherever 100 halvings already leave no float strictly inside the
        # interval, stopping at float resolution gives the same float
        m = tm.parse_map_spec(SINE_SPEC)

        def bisect_100(br, y):
            a, b = br.lo, br.hi
            for _ in range(100):
                c = 0.5 * (a + b)
                if (br.fwd(c) - y) * br.orientation < 0:
                    a = c
                else:
                    b = c
            return 0.5 * (a + b), a, b

        ys = [k / 997 for k in range(998)] + [0.0, 1.0, 5e-324, 1.0 - 2 ** -53]
        ys += [10.0 ** -k for k in range(1, 21)]
        checked = 0
        for br in m.branches:
            for y in ys:
                x, a, b = bisect_100(br, y)
                if math.nextafter(a, b) < b:
                    continue  # 100 halvings were too few to reach resolution
                assert br.inv(y) == x, (br.lo, y)
                checked += 1
        assert checked >= 2 * 998

    def test_custom_inverse_to_the_last_float_near_zero(self):
        m = tm.parse_map_spec(SINE_SPEC)
        left = m.branches[0]
        for k in range(15, 301):
            y = 10.0 ** -k
            want = math.asin(y) / math.pi
            assert abs(left.inv(y) - want) <= 4 * math.ulp(want), k
        assert left.inv(0.0) == 0.0
        assert left.inv(5e-324) == 0.0


def _custom(expr: str, breakpoints: str, crit: str):
    return tm.parse_map_spec(f"kind = custom\nexpr = {expr}\n"
                             f"breakpoints = {breakpoints}\ncrit = {crit}\n")


#: Custom maps whose inverse is checked against bisection.  On the two
#: sines the float predicate (f(x) - y) * orientation < 0 is monotone on
#: each branch; 4x(1 - x) and the inflection map round it non-monotone
#: at some crossings and near y = 1, where f is flat to rounding.
ORACLE_MAPS = {
    "sine": lambda: tm.parse_map_spec(SINE_SPEC),
    "wide_sine": lambda: _custom("2048*sin(pi*x/2048)", "0, 1024, 2048", "1024:2"),
    "quad": lambda: _custom("4*x*(1-x)", "0, 1/2, 1", "1/2:2"),
    "inflection": _inflection_map,
}


def predicate_is_monotone_near(br, y: float, xs) -> bool:
    """Whether P(x) = (f(x) - y) * orientation < 0 is true then false along
    the floats within one of the points ``xs``."""
    pts = sorted({v for x in xs for v in (math.nextafter(x, -math.inf), x,
                                          math.nextafter(x, math.inf))
                  if br.lo < v < br.hi})
    flags = [(br.fwd(v) - y) * br.orientation < 0 for v in pts]
    return flags == sorted(flags, reverse=True)


@pytest.fixture
def counted_sine(monkeypatch):
    """sin(pi x) built through parse_map_spec with f and f' counting their
    calls into one list."""
    calls = []

    def counting(text):
        f, df = compile_expr(text)

        def fc(x):
            calls.append(x)
            return f(x)

        def dfc(x):
            calls.append(x)
            return df(x)
        return fc, dfc

    compile_expr = interval_map.compile_expr
    monkeypatch.setattr(interval_map, "compile_expr", counting)
    m = tm.parse_map_spec(SINE_SPEC)

    def evaluations(call, *args):
        calls.clear()
        call(*args)
        return len(calls)
    return m, evaluations


class TestCustomInverse:
    @pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
    def test_bisection_floats(self, name):
        m = ORACLE_MAPS[name]()
        differ, unexplained = [], []
        for i, br in enumerate(m.branches):
            for y in inverse_grid(br):
                got, want = br.inv(y), bisection_inverse(br, y)
                if got == want or (got != got and want != want):
                    continue
                differ.append((i, y, want, got))
                if predicate_is_monotone_near(br, y, (got, want)):
                    unexplained.append((i, y, want, got))
        # (branch, y, bisection's x, the inverse's x) for every y that differs
        assert not unexplained, unexplained
        if name in ("sine", "wide_sine"):
            assert not differ, differ

    def test_evaluations_per_call(self, counted_sine):
        m, evaluations = counted_sine
        grid = [k / 997 for k in range(998)]
        for br in m.branches:
            counts = [evaluations(br.inv, y) for y in grid]
            assert sum(counts) / len(counts) <= 24, br.lo  # bisection: 54.5
            for y in inverse_grid(br):
                assert evaluations(br.inv, y) <= 1.5 * evaluations(
                    bisection_inverse, br, y), (br.lo, y)

    def test_every_float_ends_within_the_bound(self, counted_sine):
        m, evaluations = counted_sine
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2 ** 64, 4000, dtype=np.uint64)
        ys = bits.view(np.float64).tolist() + [
            math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
            -5e-324, -1.0, 2.0, 1.0 + 2 ** -52, -1e-300, 1e308, -1e308]
        for br in m.branches:
            h = math.ceil(math.log2(br.hi - br.lo) + 1074)
            worst = 0
            for y in ys:
                worst = max(worst, evaluations(br.inv, y))
                assert br.lo <= br.inv(y) <= br.hi, y
            assert worst <= 6 * (h + 2), (br.lo, worst)
            # y at an image end: one probe next to that end of the branch
            assert evaluations(br.inv, br.image[0]) <= 2

    def test_a_pole_of_f_prime_inside_a_branch(self):
        # f' = ... * 0.0 ** -0.25 raises at x = 0.3, where f is increasing
        m = _custom("(x + ((x - 0.3)**2)**0.75)/1.75", "0, 1.2", "")
        br = m.branches[0]
        f_lo, f_hi = br.fwd(br.lo), br.fwd(br.hi)
        scale = (br.hi - br.lo) / (f_hi - f_lo)
        y = f_lo + (0.3 - br.lo) / scale
        y = next(v for v in (y + k * math.ulp(y) for k in range(-20, 21))
                 if br.lo + (v - f_lo) * scale == 0.3)  # the chord's point
        with pytest.raises(ZeroDivisionError):
            br.deriv(0.3)
        assert br.inv(y) == bisection_inverse(br, y)


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

    def test_derivative_pole_at_a_branch_end_rejected(self):
        # f' = pi cos(pi sqrt x) / (2 sqrt x) cannot be evaluated at x = 0
        text = ("kind = custom\nexpr = sin(pi*sqrt(x))\n"
                "breakpoints = 0, 1/4, 1\ncrit = 1/4:2\n")
        with pytest.raises(SchemaError, match="^expr: cannot evaluate"):
            tm.parse_map_spec(text)

    @pytest.mark.parametrize("end", [0.0, 1.0])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_derivative_at_a_branch_end_rejected(self, end, value):
        ident = lambda x: x  # noqa: E731
        branch = BranchSpec(0.0, 1.0, 1, ident,
                            lambda x: value if x == end else 1.0, ident)
        with pytest.raises(SchemaError, match=r"^branches\[0\]: derivative .* "
                                              r"is not finite"):
            _validate(tm.IntervalMap((0.0, 1.0), (branch,), (), "custom", {}))

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

    def test_only_custom_maps_import_sympy(self):
        # in a fresh interpreter; importing sympy takes about 0.25 s on a
        # 2-core machine, and no map kind needs it: custom expressions go
        # through thermomap.expr
        fixtures = ("import sys, thermomap as tm\n"
                    "from thermomap.interval_map import _FIXTURES\n"
                    "for name in _FIXTURES: tm.fixture(name)\n"
                    "tm.parse_map_spec('kind = plinear\\nbreakpoints = 0, 2/3, 1\\n'\n"
                    "                  'images = [0,1], [0,2/3]\\n')\n"
                    "print('sympy' in sys.modules)\n")
        custom = ("import contextlib, io, sys, tempfile, thermomap as tm\n"
                  "from thermomap.inducing import build_scheme\n"
                  f"m = tm.parse_map_spec({SINE_SPEC!r})\n"
                  "build_scheme(m, scheme_kind='extendible', x_point=0.3,\n"
                  "             x_depth=2, delta=0.5, cap=6)\n"
                  "with tempfile.TemporaryDirectory() as tmp:\n"
                  "    path = tmp + '/sine.map'\n"
                  "    with open(path, 'w') as fh:\n"
                  f"        fh.write({SINE_SPEC!r})\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        code = tm.cli.run(['diagnose', '--map', path])\n"
                  "print(code, 'sympy' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(tm.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for code, out in [(fixtures, "False\n"), (custom, "0 False\n")]:
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env, timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


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

    @staticmethod
    def _gapped_tent():
        # the right branch starts 1e-13 after the left one ends, as
        # _validate allows, so the lookup falls back to walking the branches
        m = tm.fixture("tent2")
        left, right = m.branches
        return dataclasses.replace(m, branches=(
            left, dataclasses.replace(right, lo=0.5 + 1e-13)))

    @pytest.mark.parametrize("name", ["tent2", "quad4", "markov_golden",
                                      "markov_full", "sine", "chebyshev3",
                                      "quad3.8", "gapped", "overshoot"])
    def test_one_snap_lookup_equals_the_looping_one(self, name):
        if name == "gapped":
            m = self._gapped_tent()
        elif name == "overshoot":
            # images 5e-10 past the domain, as _validate allows, so apply's
            # clamp to the domain acts
            m = tm.make_plinear([0, 0.5, 1], [(0, 1 + 5e-10), (0, 1 + 5e-10)])
        else:
            m = ORBIT_MAPS[name]()
        lo, hi = m.domain
        points = np.random.default_rng(0).uniform(lo, hi, 200).tolist()
        for p in m.breakpoints + (0.5 + 1e-13,):
            points += [p, p - 1e-15, p + 1e-15]
        for end in (lo, hi):
            points += [end - SNAP_TOL, end + SNAP_TOL, end - 0.5 * SNAP_TOL,
                       end + 0.5 * SNAP_TOL]
        # out of the domain, and not covered by any branch
        points += [lo - 2 * SNAP_TOL, hi + 2 * SNAP_TOL, lo - 1.0, math.nan]

        def outcome(fn, x, side):
            try:
                value = fn(m, x, side)
            except DomainError as exc:
                return ("DomainError", str(exc))
            return value if isinstance(value, int) else value.hex()

        errors = 0
        for x in points:
            for side in ("left", "right"):
                for new, old in [
                        (tm.IntervalMap.branch_index, looping_branch_index),
                        (tm.IntervalMap.apply, looping_apply),
                        (tm.IntervalMap.deriv, looping_deriv)]:
                    want = outcome(old, x, side)
                    assert outcome(new, x, side) == want, (x, side)
                    errors += isinstance(want, tuple)
        assert errors == 4 * 2 * 3
