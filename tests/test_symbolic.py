import dataclasses
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import thermomap as tm
from thermomap.errors import AmbiguityError, NumericError, ResourceError
from thermomap.interval_map import parse_map_spec, pullback_word
from thermomap.symbolic import (DEGEN_TOL, Cylinder, laps_entropy,
                                monotone_pieces, refine_levels)

# f is continuous and increasing across 1/4, so cylinders are not all full
JOIN_MAP = ([0, 0.25, 0.5, 1], [(0, 0.3), (0.3, 1), (0, 1)], [1, 1, -1])
SINE_SPEC = "kind = custom\nexpr = sin(pi*x)\nbreakpoints = 0, 1/2, 1\ncrit = 1/2:2\n"
# the first third maps onto the other two, and each of those onto the first
PERIOD2_MAP = ([0, 1 / 3, 2 / 3, 1], [(1 / 3, 1), (0, 1 / 3), (0, 1 / 3)], [1, 1, 1])


def _map(name):
    if name == "chebyshev3":
        return tm.make_chebyshev(3)
    if name == "join":
        return tm.make_plinear(*JOIN_MAP)
    if name == "sine":
        return parse_map_spec(SINE_SPEC)
    if name == "period2":
        return tm.make_plinear(*PERIOD2_MAP)
    return tm.fixture(name)


def counted_inverses(m):
    """A copy of m whose branch inverses count their calls in ``calls[0]``."""
    calls = [0]

    def counted(b):
        def inv(y, inner=b.inv):
            calls[0] += 1
            return inner(y)
        return dataclasses.replace(b, inv=inv)

    return dataclasses.replace(
        m, branches=tuple(counted(b) for b in m.branches)), calls


def refined_laps(m, n):
    """Lap counts of f^1..f^n as monotone pieces of each refined level, and
    whether refinement dropped a cylinder narrower than DEGEN_TOL."""
    counts, dropped, prev = [], False, None
    for level in refine_levels(m, n):
        counts.append(len(monotone_pieces(m, level)))
        if prev is not None:
            kids = sum(min(c.image_hi, b.hi) - max(c.image_lo, b.lo) > DEGEN_TOL
                       for c in prev for b in m.branches)
            dropped = dropped or kids != len(level)
        prev = level
    return tuple(counts), dropped


@st.composite
def plinear_maps(draw):
    """2-4 affine branches with rational breakpoints and images, each
    branch oriented at random, discontinuities allowed."""
    k = draw(st.integers(2, 4))
    den = draw(st.sampled_from([6, 7, 12]))
    cuts = draw(st.lists(st.integers(1, den - 1), min_size=k - 1,
                         max_size=k - 1, unique=True))
    img_den = draw(st.sampled_from([4, 5, 12]))
    ends = st.lists(st.integers(0, img_den), min_size=2, max_size=2, unique=True)
    images = [tuple(e / img_den for e in sorted(draw(ends))) for _ in range(k)]
    orientations = draw(st.lists(st.sampled_from([1, -1]), min_size=k,
                                 max_size=k))
    return tm.make_plinear([0] + sorted(c / den for c in cuts) + [1],
                           images, orientations)


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
        m, calls = counted_inverses(tm.fixture("quad4"))
        produced = sum(len(level) for level in refine_levels(m, 12))
        assert produced == 2 ** 13 - 2
        assert calls[0] <= 2 * produced


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

    @pytest.mark.parametrize("name", ["tent2", "quad4", "markov_golden",
                                      "markov_full", "join"])
    def test_count_bound(self, name):
        # a lap is a union of cylinders, so there are never more laps
        m = _map(name)
        rec = tm.laps_entropy(m, 8)
        for n in range(1, 9):
            assert rec.laps[n - 1] <= len(tm.refine(m, n))

    @pytest.mark.parametrize("name", ["tent2", "quad4", "markov_golden",
                                      "markov_full", "period2", "chebyshev3",
                                      "sine", "join"])
    def test_states_match_refinement(self, name):
        m = _map(name)
        want, dropped = refined_laps(m, 10)
        assert not dropped
        assert laps_entropy(m, 10).laps == want

    @settings(max_examples=60, deadline=None)
    @given(m=plinear_maps(), n=st.integers(2, 7))
    def test_states_match_refinement_random(self, m, n):
        want, dropped = refined_laps(m, n)
        assume(not dropped)
        assert laps_entropy(m, n).laps == want

    @pytest.mark.parametrize("k", [1, 23])
    @pytest.mark.parametrize("orientation", [1, -1])
    def test_full_map_thin_cylinders(self, k, orientation):
        # the depth-10 cylinder at the short branch is 24**-10 wide, under
        # DEGEN_TOL, and still one of the 2**10 laps
        m = tm.make_plinear([0, k / 24, 1], [(0, 1), (0, 1)], [1, orientation])
        assert laps_entropy(m, 10).laps == tuple(2 ** n for n in range(1, 11))

    def test_no_inverse_steps(self):
        m, calls = counted_inverses(tm.fixture("quad4"))
        assert laps_entropy(m, 10).laps == tuple(2 ** n for n in range(1, 11))
        assert calls[0] == 0

    def test_image_meeting_no_branch_raises(self):
        # the second branch squeezes its half onto an image narrower than
        # DEGEN_TOL, which no branch meets in more than a point
        m = tm.make_plinear([0, 0.5, 1], [(0, 1), (0, 1e-14)], [1, 1])
        with pytest.raises(NumericError):
            laps_entropy(m, 3)

    def test_state_cap(self):
        with pytest.raises(ResourceError):
            laps_entropy(_map("join"), 10, cap=5)


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
