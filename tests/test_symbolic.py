import dataclasses
import math

import pytest

import thermomap as tm
from thermomap.errors import AmbiguityError, ResourceError
from thermomap.interval_map import parse_map_spec, pullback_word
from thermomap.symbolic import DEGEN_TOL, Cylinder, refine_levels

# f is continuous and increasing across 1/4, so cylinders are not all full
JOIN_MAP = ([0, 0.25, 0.5, 1], [(0, 0.3), (0.3, 1), (0, 1)], [1, 1, -1])
SINE_SPEC = "kind = custom\nexpr = sin(pi*x)\nbreakpoints = 0, 1/2, 1\ncrit = 1/2:2\n"


def _map(name):
    if name == "chebyshev3":
        return tm.make_chebyshev(3)
    if name == "join":
        return tm.make_plinear(*JOIN_MAP)
    if name == "sine":
        return parse_map_spec(SINE_SPEC)
    return tm.fixture(name)


def reference_levels(m, n):
    """P_1, ..., P_n with every child endpoint that lies inside the parent's
    image pulled back through the whole word by ``pullback_word``."""
    level = [Cylinder((a,), b.lo, b.hi, *b.image, b.orientation)
             for a, b in enumerate(m.branches)]
    levels = [sorted(level, key=lambda c: c.lo)]
    for _ in range(n - 1):
        nxt = []
        for cyl in level:
            for a, b in enumerate(m.branches):
                p, q = max(cyl.image_lo, b.lo), min(cyl.image_hi, b.hi)
                if q - p <= DEGEN_TOL:
                    continue
                up = cyl.orientation > 0
                xp = (cyl.lo if up else cyl.hi) if p == cyl.image_lo \
                    else pullback_word(m, cyl.word, p)
                xq = (cyl.hi if up else cyl.lo) if q == cyl.image_hi \
                    else pullback_word(m, cyl.word, q)
                lo, hi = min(xp, xq), max(xp, xq)
                if hi - lo <= DEGEN_TOL:
                    continue
                u, v = b.fwd(p), b.fwd(q)
                nxt.append(Cylinder(cyl.word + (a,), lo, hi, min(u, v), max(u, v),
                                    cyl.orientation * b.orientation))
        level = nxt
        levels.append(sorted(level, key=lambda c: c.lo))
    return levels


class TestRefine:
    def test_tent_depth_three(self, tent_map):
        cyls = tm.refine(tent_map, 3)
        assert len(cyls) == 8
        for c in cyls:
            assert c.length == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_quadratic_depth_two(self, quad_map):
        cyls = tm.refine(quad_map, 2)
        assert len(cyls) == 4
        q = 0.5 * (1.0 - math.sqrt(0.5))  # preimage of 1/2 in the left branch
        endpoints = sorted({c.lo for c in cyls} | {c.hi for c in cyls})
        expect = [0.0, q, 0.5, 1.0 - q, 1.0]
        assert endpoints == pytest.approx(expect, abs=1e-12)

    def test_golden_depth_two_words(self, golden_map):
        cyls = tm.refine(golden_map, 2)
        assert [c.word for c in cyls] == [(0, 0), (0, 1), (1, 0)]
        assert cyls[0].hi == pytest.approx(4.0 / 9.0, abs=1e-13)

    def test_empty_word_absent(self, golden_map):
        assert tm.cylinder_of_word(golden_map, (1, 1)) is None

    def test_cap_enforced(self, tent_map):
        with pytest.raises(ResourceError):
            tm.refine(tent_map, 10, cap=100)

    @pytest.mark.parametrize("name", ["tent2", "quad4", "markov_golden", "markov_full"])
    def test_partition_tiles_domain(self, name):
        m = tm.fixture(name)
        cyls = tm.refine(m, 6)
        total = sum(c.length for c in cyls)
        assert total == pytest.approx(1.0, abs=1e-10)
        for a, b in zip(cyls, cyls[1:]):
            assert b.lo >= a.hi - 1e-12


class TestRefineFloats:
    """The suffix-memoised refinement keeps the floats of word-by-word
    pullback exactly."""

    @pytest.mark.parametrize("name, depth", [
        ("tent2", 9), ("quad4", 9), ("markov_golden", 9), ("markov_full", 9),
        ("chebyshev3", 9), ("join", 9), ("sine", 9)])
    def test_levels_bit_identical(self, name, depth):
        m = _map(name)
        want = reference_levels(m, depth)
        got = list(refine_levels(m, depth))
        assert len(got) == depth
        for n, (g, w) in enumerate(zip(got, want), start=1):
            assert g == w, f"level {n} differs"

    @pytest.mark.parametrize("name", ["quad4", "markov_golden", "chebyshev3",
                                      "join", "sine"])
    def test_cylinder_of_word_bit_identical(self, name):
        m = _map(name)
        deepest = reference_levels(m, 6)[-1]
        for cyl in (deepest[0], deepest[len(deepest) // 3], deepest[-1]):
            assert tm.cylinder_of_word(m, cyl.word) == cyl

    def test_inverse_steps_per_cylinder(self):
        # each level costs O(1) inverse steps per cylinder; pulling every
        # child back through its whole word costs 10 per cylinder at depth 12
        calls = 0

        def counted(b):
            def inv(y, inner=b.inv):
                nonlocal calls
                calls += 1
                return inner(y)
            return dataclasses.replace(b, inv=inv)

        quad = tm.fixture("quad4")
        m = dataclasses.replace(
            quad, branches=tuple(counted(b) for b in quad.branches))
        produced = sum(len(level) for level in refine_levels(m, 12))
        assert produced == 2 ** 13 - 2
        assert calls <= 2 * produced


class TestItinerary:
    def test_tent_third(self, tent_map):
        assert tm.itinerary(tent_map, 1.0 / 3.0, 4) == (0, 1, 1, 1)

    def test_golden_period_two(self, golden_map):
        assert tm.itinerary(golden_map, 0.5, 4) == (0, 1, 0, 1)

    def test_quadratic_single_letter(self, quad_map):
        assert tm.itinerary(quad_map, 0.3, 1) == (0,)

    def test_boundary_needs_side(self, golden_map):
        with pytest.raises(AmbiguityError) as exc:
            tm.itinerary(golden_map, 2.0 / 3.0, 2)
        assert exc.value.hit_time == 0
        assert tm.itinerary(golden_map, 2.0 / 3.0, 1, side="left") == (0,)
        assert tm.itinerary(golden_map, 2.0 / 3.0, 1, side="right") == (1,)

    @pytest.mark.parametrize("name", ["tent2", "markov_golden", "markov_full"])
    def test_midpoint_consistency(self, name):
        m = tm.fixture(name)
        for c in tm.refine(m, 4):
            assert tm.itinerary(m, c.midpoint, 4, side="left") == c.word


class TestLaps:
    def test_tent_exact_counts(self, tent_map):
        rec = tm.laps_entropy(tent_map, 10)
        assert rec.laps == tuple(2 ** n for n in range(1, 11))
        assert rec.h_top_estimate == pytest.approx(math.log(2.0), abs=1e-9)

    def test_golden_entropy(self, golden_map):
        rec = tm.laps_entropy(golden_map, 12)
        assert abs(rec.h_top_estimate - math.log((1 + math.sqrt(5)) / 2)) < 0.02

    def test_quadratic_counts(self, quad_map):
        rec = tm.laps_entropy(quad_map, 10)
        assert rec.laps == tuple(2 ** n for n in range(1, 11))
        assert rec.h_top_estimate == pytest.approx(math.log(2.0), abs=1e-9)

    @pytest.mark.parametrize("name", ["tent2", "quad4", "markov_golden", "markov_full"])
    def test_count_bound(self, name):
        m = tm.fixture(name)
        rec = tm.laps_entropy(m, 8)
        for n in range(1, 9):
            assert len(tm.refine(m, n)) <= rec.laps[n - 1]


class TestPeriodicPoint:
    def test_golden_fixed_point(self, golden_map):
        pp = tm.periodic_point(golden_map, (0,))
        assert pp.x == pytest.approx(0.0, abs=1e-13)
        assert pp.multiplier == pytest.approx(1.5, rel=1e-12)

    def test_golden_period_two(self, golden_map):
        pp = tm.periodic_point(golden_map, (0, 1))
        assert pp.x == pytest.approx(0.5, abs=1e-12)
        assert pp.multiplier == pytest.approx(3.0, rel=1e-10)

    def test_golden_bb_empty(self, golden_map):
        assert tm.periodic_point(golden_map, (1, 1)) is None

    def test_golden_b_not_covered(self, golden_map):
        # f(B) = A does not cover B, so no fixed point is reported in B
        assert tm.periodic_point(golden_map, (1,)) is None

    def test_tent_period_two(self, tent_map):
        pp = tm.periodic_point(tent_map, (0, 1))
        assert pp.x == pytest.approx(0.4, abs=1e-12)
        assert pp.multiplier == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("name", ["tent2", "markov_golden", "quad4"])
    def test_validity_all_short_words(self, name):
        m = tm.fixture(name)
        words = [(a,) for a in range(m.n_branches)]
        for _ in range(3):
            words += [w + (a,) for w in words for a in range(m.n_branches)
                      if len(w) < 4]
        checked = 0
        for w in set(words):
            pp = tm.periodic_point(m, w)
            if pp is None:
                continue
            from thermomap.interval_map import eval_along_word
            assert eval_along_word(m, w, pp.x) == pytest.approx(pp.x, abs=1e-10)
            checked += 1
        assert checked >= 3

    def test_csv_rows(self, golden_map):
        from thermomap.symbolic import cylinders_to_csv_rows
        rows = cylinders_to_csv_rows(tm.refine(golden_map, 2))
        assert rows[0][0] == "0-0"
        assert len(rows) == 3
