import hashlib
import itertools
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermomap as tm
from conftest import (JOIN_MAP, SINE_SPEC, column_depth2, counting_inverses,
                      hexes, plinear_maps, unpruned_extendible_return_scheme)
from thermomap import hofbauer, inducing
from thermomap.errors import DegenerateBranchError, DomainError
from thermomap.inducing import (InducingScheme, SchemeBranch, _fit_neighbourhood,
                                default_base_cylinder, scheme_table)
from thermomap.interval_map import (derivative_along, derivative_along_word,
                                    derivative_along_words, eval_along_word,
                                    eval_orbit, parse_map_spec, pullback_word)
from thermomap.thermo import tail_info_for


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
        sch = tm.first_return_scheme(tent_map, (0.0, 0.5), 3)
        by_tau = {b.tau: b for b in sch.branches}
        assert set(by_tau) == {1, 2, 3}
        assert (by_tau[1].lo, by_tau[1].hi) == pytest.approx((0.0, 0.25), abs=1e-13)
        assert (by_tau[2].lo, by_tau[2].hi) == pytest.approx((0.375, 0.5), abs=1e-13)
        # uncovered mass after the cap: exactly 2^-3 of |X|
        assert sch.escaping_mass_bound == pytest.approx(2.0 ** -3 * 0.5, abs=1e-13)
        assert not sch.exhausted

    def test_tent_pointwise_oracle(self, tent_map):
        tower = tm.build_tower(tent_map, 5)
        sch = tm.first_return_scheme(tent_map, (0.0, 0.5), 6)
        for k in range(1, 50):
            x = k / 100.0
            hit = [b for b in sch.branches if b.lo < x < b.hi]
            if not hit:
                continue
            assert tower_first_return_time(tower, 0.0, 0.5, x) == hit[0].tau

    def test_cylinder_outside_node(self, golden_map):
        with pytest.raises(DomainError):
            tm.first_return_scheme(golden_map, (0.9, 1.1), 5)

    def test_no_intermediate_reentry(self, golden_tower, golden_scheme):
        # the tower path of each branch stays outside the base cylinder
        # strictly before its return time
        for b in golden_scheme.branches:
            x = b.midpoint
            for j in range(1, b.tau):
                tau = tower_first_return_time(golden_tower, 0.0, 2.0 / 3.0, x)
                assert tau == b.tau

    def test_tower_shallower_than_the_cap_refused(self, monkeypatch):
        m = tm.make_quadratic(3.8)
        x = default_base_cylinder(m, 0.6, 3)
        # the scheme builds its tower to the cap, deep enough for every
        # return: a deeper tower gives the same scheme
        rows = [scheme_table(tm.first_return_scheme(m, x, 14))[1]]
        monkeypatch.setattr(inducing, "build_tower",
                            lambda m, R: hofbauer.build_tower(m, R + 5))
        rows.append(scheme_table(tm.first_return_scheme(m, x, 14))[1])
        assert len(rows[0]) == 82 and rows[1] == rows[0]

    def test_coverage_monotone_in_cap(self, tent_map):
        escapes = [tm.first_return_scheme(tent_map, (0.0, 0.5), T).escaping_mass_bound
                   for T in (2, 4, 6, 8)]
        assert all(b <= a + 1e-15 for a, b in zip(escapes, escapes[1:]))


class TestExtendibleReturn:
    def test_golden_aa_full_branches(self, golden_map):
        sch = tm.extendible_return_scheme(golden_map, (0.0, 4.0 / 9.0), 0.25, 12)
        assert sch.conflicts == 0
        y_lo, y_hi = _fit_neighbourhood(golden_map, sch.x_lo, sch.x_hi, 0.25)
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

    @pytest.mark.parametrize("delta", [1e-160, 1e-200])
    def test_koebe_bound_past_the_float_range(self, quad_scheme, delta):
        # the quotient overflows at 1e-160; delta^2 underflows at 1e-200
        assert replace(quad_scheme, delta=delta).koebe_bound() == math.inf

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_refused(self, quad_map, delta):
        # a NaN delta passed the old delta <= 0 test and built a scheme
        # whose Koebe bound was NaN
        x = default_base_cylinder(quad_map, 0.3, 2)
        with pytest.raises(DomainError, match="delta must be finite"):
            tm.extendible_return_scheme(quad_map, x, delta, 10)

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

    @pytest.mark.parametrize("name, sha, conflicts, escape, exhausted", [
        ("quad4", "b0758e0f492c11d8099a431111ab4359e8726c0bd9f68cd9ccca13bb1ad6bd5b",
         0, 0.0036566930129461883, False),
        ("join", "ca3e86547194b174c84856f62c1aef03d6231ca912f0a0d2dba6054c8332db81",
         0, 0.001395089285714246, False),
    ])
    def test_scan_pinned(self, name, sha, conflicts, escape, exhausted):
        # recorded before pieces beside X were skipped and before cylinder
        # endpoints came from suffix pullbacks; both must leave these as they are
        if name == "quad4":
            m = tm.fixture("quad4")
            c = tm.cylinder_of_word(m, tm.itinerary(m, 0.3, 2, side="left"))
            sch = tm.extendible_return_scheme(m, (c.lo, c.hi), 0.5, 10)
        else:
            m = tm.make_plinear([0, 0.25, 0.5, 1], [(0, 0.3), (0.3, 1), (0, 1)],
                                [1, 1, -1])
            sch = tm.extendible_return_scheme(m, (0.0, 0.5), 0.25, 8)
        rows = repr(scheme_table(sch)[1]).encode()
        assert hashlib.sha256(rows).hexdigest() == sha
        assert sch.conflicts == conflicts
        assert sch.escaping_mass_bound == escape
        assert sch.exhausted is exhausted

    def test_escape_monotone(self, tent_map):
        e4 = tm.extendible_return_scheme(tent_map, (0.0, 0.5), 0.5, 4)
        e8 = tm.extendible_return_scheme(tent_map, (0.0, 0.5), 0.5, 8)
        assert e8.escaping_mass_bound <= e4.escaping_mass_bound + 1e-15


def scheme_outputs(sch):
    """Everything a pruned refinement must leave as the full one had it."""
    return (scheme_table(sch)[1],
            [(b.word, b.parts) for b in sch.branches],
            sch.conflicts, sch.escaping_mass_bound, sch.exhausted)


def quad4_x():
    m = tm.fixture("quad4")
    return m, default_base_cylinder(m, 0.3, 2)


def _oracle_cases():
    q, qx = quad4_x()
    cases = [(f"quad4-T{T}", q, qx, 0.5, T) for T in (8, 10, 12, 14)]
    join = tm.make_plinear(*JOIN_MAP)
    cases += [(f"join-{x}", join, x, 0.25, 8)
              for x in [(0.0, 0.5), (0.1, 0.4), (0.5, 1.0), (0.6, 0.9)]]
    # f^3 joins across a jump of f^2 just right of X, into a piece that
    # straddles x_hi: a conflict that refining pieces of f^2 alone would miss
    jump = tm.make_plinear([0, 1 / 7, 4 / 7, 5 / 7, 1],
                           [(0.8, 1), (0, 1), (0, 1), (0.6, 0.8)], [1, -1, -1, 1])
    cases.append(("jump", jump, (10 / 24, 21 / 24), 0.05, 5))
    sine = parse_map_spec(SINE_SPEC)
    cases.append(("sine", sine, default_base_cylinder(sine, 0.3, 2), 0.5, 10))
    for a in (3.7, 3.83, 3.9):
        m = tm.make_quadratic(a)
        cases.append((f"quadratic-{a}", m, default_base_cylinder(m, 0.6, 3),
                      0.5, 12))
    for name, xs in [("tent2", [(0.0, 0.5), (0.25, 0.75), (0.1, 0.3)]),
                     ("markov_golden", [(0.0, 4 / 9), (0.0, 2 / 3), (0.7, 0.9)]),
                     ("markov_full", [(0.0, 1 / 3), (1 / 3, 1.0), (0.2, 0.6)])]:
        cases += [(f"{name}-{x}", tm.fixture(name), x, 0.25, 10) for x in xs]
    # 2/5 has period 2 and 4/5 lies inside X: once a branch covers X from
    # x_lo, only the rule that keeps the runs holding x_lo still finds the
    # deeper pieces that straddle it (conflicts)
    cases.append(("tent2-boundary", tm.fixture("tent2"), (0.4, 0.9), 0.25, 10))
    return cases


class TestPrunedRefinement:
    """The extendible builder refines only the runs of f^j that can still
    give a branch or a conflict; the oracle refines every cylinder."""

    @pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
    def test_matches_unpruned_oracle(self, case):
        _, m, x, delta, T = case
        want = unpruned_extendible_return_scheme(m, x, delta, T)
        assert want.branches
        got = tm.extendible_return_scheme(m, x, delta, T)
        assert scheme_outputs(got) == scheme_outputs(want)

    @settings(max_examples=80, deadline=None)
    @given(m=plinear_maps(), ends=st.lists(st.integers(0, 12), min_size=2,
                                            max_size=2, unique=True),
           delta=st.sampled_from([0.1, 0.25, 0.5]), T=st.integers(1, 6))
    def test_matches_unpruned_oracle_random(self, m, ends, delta, T):
        x = (min(ends) / 12, max(ends) / 12)
        try:
            want = unpruned_extendible_return_scheme(m, x, delta, T)
        except DomainError:
            with pytest.raises(DomainError):
                tm.extendible_return_scheme(m, x, delta, T)
            return
        got = tm.extendible_return_scheme(m, x, delta, T)
        assert scheme_outputs(got) == scheme_outputs(want)

    def test_quad4_cap14_refines_few_cylinders(self, monkeypatch):
        built, refine_levels = [0], inducing.refine_levels

        def counted(*args, **kwargs):
            for level in refine_levels(*args, **kwargs):
                built[0] += len(level)
                yield level

        monkeypatch.setattr(inducing, "refine_levels", counted)
        m, x = quad4_x()
        sch = tm.extendible_return_scheme(m, x, 0.5, 14)
        assert len(sch.branches) == 91
        # refining every cylinder of every level builds 2 + 4 + ... + 2^14
        assert 0 < built[0] <= 1_000

    def test_sine_build_takes_each_inverse_step_once(self):
        # the refinement and the branch ends share one InverseSteps; the
        # parent pulled X's and Y's ends back along every piece's full word
        # and made 3,004 inverse calls here
        sine = parse_map_spec(SINE_SPEC)
        x = default_base_cylinder(sine, 0.3, 2)
        m, calls = counting_inverses(sine)
        got = tm.extendible_return_scheme(m, x, 0.5, 10)
        assert scheme_outputs(got) == scheme_outputs(
            unpruned_extendible_return_scheme(sine, x, 0.5, 10))
        assert 0 < len(calls) == len(set(calls)) < 3004

    def test_deep_caps_build_and_escape_falls(self):
        m, x = quad4_x()
        escapes = []
        for T in (14, 16, 20):
            sch = tm.extendible_return_scheme(m, x, 0.5, T)
            assert sch.conflicts == 0 and not sch.exhausted
            # onto is left out: a few branches at T >= 16 end next to the
            # critical orbit, where F maps the pulled-back ends up to 2e-5
            # from the ends of X, and validate_scheme reports them not onto
            rep = tm.validate_scheme(sch)
            assert all(c.disjoint and c.distortion_ok for c in rep.checks)
            escapes.append(sch.escaping_mass_bound)
        assert len(sch.branches) == 190
        assert escapes == [pytest.approx(3.1e-4, rel=0.01),
                           pytest.approx(8.8e-5, rel=0.01),
                           pytest.approx(6.8e-6, rel=0.01)]

    @pytest.mark.parametrize("x", [(0.6, 0.4), (0.5, 0.5)])
    def test_empty_or_reversed_x_refused(self, golden_map, x):
        with pytest.raises(DomainError):
            tm.extendible_return_scheme(golden_map, x, 0.5, 5)
        with pytest.raises(DomainError):
            tm.first_return_scheme(golden_map, x, 5)


def preimage(m, br, y):
    """The x in [br.lo, br.hi] with f^tau(x) = y, by bisection on the
    unpinned forward map (F is monotone on the branch)."""
    def f(x):
        return eval_orbit(m, x, br.tau)[-1]

    a, b = br.lo, br.hi
    up = f(a) < f(b)
    for _ in range(200):
        c = 0.5 * (a + b)
        if (f(c) < y) == up:
            a = c
        else:
            b = c
    return 0.5 * (a + b)


class TestMultiWordReaders:
    """Readers of a branch follow the word of each point, not the word at
    the branch midpoint, on the plinear join map's extendible scheme."""

    @pytest.fixture(scope="class")
    def join(self):
        m = tm.make_plinear(*JOIN_MAP)
        return m, tm.extendible_return_scheme(m, (0.0, 0.5), 0.25, 8)

    def test_pullback_inverts_the_branch(self, join):
        m, sch = join
        assert any(b.parts for b in sch.branches)
        for br in sch.branches:
            for k in range(9):
                y = 0.5 * k / 8
                x = br.pullback(m, y)
                assert x == pytest.approx(preimage(m, br, y), abs=1e-12)
                assert br.forward(m, x) == pytest.approx(y, abs=1e-12)

    def test_single_word_pullback_unchanged(self, quad_scheme):
        m = quad_scheme.map
        for br in quad_scheme.branches:
            assert not br.parts
            for y in (quad_scheme.x_lo, 0.3, quad_scheme.x_hi):
                assert br.pullback(m, y) == pullback_word(m, br.word, y)

    @pytest.mark.parametrize("x", [(0.0, 0.5), (0.1, 0.4), (0.5, 1.0),
                                   (0.6, 0.9)])
    def test_validate_reports_every_branch_onto(self, x):
        m = tm.make_plinear(*JOIN_MAP)
        sch = tm.extendible_return_scheme(m, x, 0.25, 6)
        assert any(b.parts for b in sch.branches)
        rep = tm.validate_scheme(sch)
        assert all(c.onto for c in rep.checks)
        assert rep.ok

    def test_stacked_kernel_on_every_part_word(self, join):
        # rows of every part word of every multi-part branch, at points on
        # and beside the part ends, in one stacked call
        m, sch = join
        words, index, xs = [], [], []
        for br in sch.branches:
            for c in br.parts:
                words.append(c.word)
                for x in (c.lo, c.hi, 0.5 * (c.lo + c.hi), c.lo - 1e-12,
                          c.hi + 1e-12, br.lo, br.hi):
                    index.append(len(words) - 1)
                    xs.append(x)
        assert len(set(words)) > 1
        assert hexes(derivative_along_words(m, words, index, np.array(xs))) \
            == hexes(derivative_along_word(m, words[k], x)
                     for k, x in zip(index, xs))

    def test_depth2_derivatives(self, join):
        m, sch = join
        assert len(sch.branches) == 8
        for j, bj in enumerate(sch.branches):
            for i, bi in enumerate(sch.branches):
                want = derivative_along(m, preimage(m, bi, bj.midpoint), bi.tau)
                assert sch.depth2_derivatives[j][i] == pytest.approx(
                    want, rel=1e-9), (j, i)

    def test_gibbs_ratio_at_depth_two(self, join):
        m, sch = join
        sol = tm.equilibrium_shift_solve(sch, 1.0).solution
        t, shift = sol.model.t, sol.shift
        brs = sch.branches
        want = 1.0
        for d in (1, 2):
            for w in itertools.product(range(len(brs)), repeat=d):
                # the point x_w of the cylinder w and its F-image: the
                # midpoint of the last branch, pulled back along w
                if d == 1:
                    zs = [brs[w[0]].midpoint]
                else:
                    bi, bj = brs[w[0]], brs[w[1]]
                    zs = [preimage(m, bi, bj.midpoint), bj.midpoint]
                psi = sum(-t * math.log(derivative_along(m, z, brs[i].tau))
                          - shift * brs[i].tau for z, i in zip(zs, w))
                mass = math.prod(sol.masses[i] for i in w)
                ratio = mass / math.exp(psi - d * sol.log_lam)
                want = max(want, ratio, 1.0 / ratio)
        assert tm.gibbs_ratio_check(sol, 2) == pytest.approx(want, rel=1e-9)


def scalar_depth2(sch):
    """The depth-2 matrix as one scalar pullback and |DF| per entry."""
    m = sch.map
    return [[bi.dF(m, bi.pullback(m, bj.midpoint)) for bi in sch.branches]
            for bj in sch.branches]


class TestGeometryArrays:
    """The t-independent geometry, read with the array kernels, keeps the
    scalar readers' floats, and the branch readers their Python float type."""

    @pytest.fixture(scope="class", params=["quad4", (0.0, 0.5), (0.1, 0.4),
                                           (0.6, 0.9), "chebyshev3"])
    def scheme(self, request):
        if request.param == "quad4":
            m = tm.fixture("quad4")
            c = tm.cylinder_of_word(m, tm.itinerary(m, 0.3, 2, side="left"))
            return tm.extendible_return_scheme(m, (c.lo, c.hi), 0.5, 14)
        if request.param == "chebyshev3":
            # no array kernels: each letter position applies the scalar
            # kernels once per distinct point
            m = tm.make_chebyshev(3)
            return tm.extendible_return_scheme(
                m, default_base_cylinder(m, 0.3, 2), 0.5, 6)
        return tm.extendible_return_scheme(tm.make_plinear(*JOIN_MAP),
                                           request.param, 0.25, 8)

    def test_depth2_equals_the_scalar_readers(self, scheme):
        got, want = scheme.depth2_derivatives, scalar_depth2(scheme)
        assert len(got) == len(want) == len(scheme.branches)
        for row, want_row in zip(got, want):
            assert hexes(row) == hexes(want_row)

    def test_python_floats(self, scheme):
        # an np.float64 reprs as np.float64(...) under numpy 2; the depth-2
        # matrix is only read by array code
        n = len(scheme.branches)
        assert scheme.depth2_derivatives.shape == (n, n)
        assert scheme.depth2_derivatives.dtype == np.float64
        assert all(type(v) is float for b in scheme.branches
                   for v in (b.df_lo, b.df_hi, b.df_mid))

    def test_branch_readers_equal_the_scalar_ones(self, scheme):
        m = scheme.map
        for br in scheme.branches:
            ends = [v for c in br.parts for v in (c.lo, c.hi)]
            xs = [br.lo, br.hi, br.midpoint] + ends
            xs += [v + d for v in ends for d in (-2e-12, -1e-12, 1e-12, 2e-12)]
            block = [(br.parts, br.word)]
            assert hexes(inducing._along_words(m, block, np.array([xs]))) \
                == hexes(br.dF(m, x) for x in xs)
            img = [v for c in br.parts for v in (c.image_lo, c.image_hi)]
            ys = [scheme.x_lo, scheme.x_hi, 0.3] + img
            ys += [v + d for v in img for d in (-2e-12, -1e-12, 1e-12, 2e-12)]
            assert hexes(inducing._along_words(m, block, np.array([ys]),
                                               image=True)) \
                == hexes(br.pullback(m, y) for y in ys)

    def test_sine_fallback_equals_the_scalar_readers(self):
        m = parse_map_spec(SINE_SPEC)
        sch = tm.extendible_return_scheme(m, (0.25, 0.5), 0.5, 6)
        assert sch.branches
        for row, want_row in zip(sch.depth2_derivatives, scalar_depth2(sch)):
            assert hexes(row) == hexes(want_row)

    def test_branch_samples_equal_the_scalar_readers(self, scheme):
        # every branch is sampled in one stacked pass; each sample is the
        # scalar |DF| along the word of the sample's own cylinder
        m, k = scheme.map, inducing.DF_SAMPLES + 1
        for br in scheme.branches:
            lo, hi, length = br.lo, br.hi, br.hi - br.lo
            xs = [lo + length * 1e-9, hi - length * 1e-9]
            xs += [lo + length * i / k for i in range(1, k)]
            vals = [br.dF(m, x) for x in xs]
            assert hexes((br.df_lo, br.df_hi, br.df_mid)) == hexes(
                (min(vals), max(vals), br.dF(m, br.midpoint)))


class TestStackedSampling:
    """Both builders sample every branch in one stacked |DF| pass, and the
    depth-2 matrix takes one stacked pullback and one more |DF| pass,
    keeping the layout of the matrix built one column at a time."""

    @staticmethod
    def counted(monkeypatch):
        """The (kernel, rows) of each stacked kernel call in ``inducing``."""
        calls = []
        for name in ("derivative_along_words", "pullback_words"):
            def counting(m, words, index, xs, name=name,
                         inner=getattr(inducing, name)):
                calls.append((name, len(xs)))
                return inner(m, words, index, xs)
            monkeypatch.setattr(inducing, name, counting)
        return calls

    def test_quad4_cap14_takes_three_stacked_calls(self, monkeypatch):
        calls = self.counted(monkeypatch)
        sch = tm.extendible_return_scheme(*quad4_x(), 0.5, 14)
        sch.depth2_derivatives
        n = len(sch.branches)
        assert calls == [("derivative_along_words", n * (inducing.DF_SAMPLES + 3)),
                         ("pullback_words", n * n),
                         ("derivative_along_words", n * n)]

    def test_first_return_takes_two_stacked_calls(self, monkeypatch):
        calls = self.counted(monkeypatch)
        sch = tm.first_return_scheme(*quad4_x(), 12)
        n = len(sch.branches)
        assert calls == [("pullback_words", 4 * n),
                         ("derivative_along_words", n * (inducing.DF_SAMPLES + 3))]

    @pytest.mark.parametrize("name, T, calls", [("sine", 10, 4180),
                                                ("chebyshev3", 7, 140_824)],
                             ids=["sine", "chebyshev3"])
    def test_depth2_takes_each_inverse_step_once(self, name, T, calls):
        # rows that share a suffix and a point share its scalar inverse
        # steps; one scalar pullback per entry takes 14,080 and 344,752
        m = (tm.parse_map_spec(SINE_SPEC) if name == "sine"
             else tm.make_chebyshev(3))
        sch = tm.extendible_return_scheme(m, default_base_cylinder(m, 0.3, 2),
                                          0.5, T)
        counting, made = counting_inverses(m)
        assert all(b.array is None for b in m.branches)
        replace(sch, map=counting).depth2_derivatives
        assert 0 < len(made) == len(set(made)) <= calls

    def test_first_return_ends_equal_the_scalar_pullbacks(self):
        m, (x_lo, x_hi) = quad4_x()
        sch = tm.first_return_scheme(m, (x_lo, x_hi), 12)
        tower = hofbauer.build_tower(m, 12)
        ends = {(n.lo, n.hi) for n in tower.nodes
                if n.contains_interval(x_lo, x_hi)}
        for br in sch.branches:
            a, b = (pullback_word(m, br.word, y) for y in (x_lo, x_hi))
            assert hexes((br.lo, br.hi)) == hexes((min(a, b), max(a, b)))
            # the extension ends are those of one qualifying tower domain
            assert any(hexes((br.ext_lo, br.ext_hi)) == hexes(sorted(
                pullback_word(m, br.word, y) for y in end)) for end in ends)

    def test_empty_schemes(self, monkeypatch):
        calls = self.counted(monkeypatch)
        sch = tm.extendible_return_scheme(*quad4_x(), 0.5, 1)
        assert sch.branches == []
        assert sch.depth2_derivatives.shape == (0, 0)
        assert [rows for _, rows in calls] == [0, 0, 0]

    def test_depth2_layout_sets_the_gibbs_floats(self):
        # B @ rho and B.T @ mvec sum in the matrix's layout order, so a
        # C-ordered copy of the same entries gives other floats
        m = parse_map_spec(SINE_SPEC)
        sch = tm.extendible_return_scheme(m, (0.25, 0.5), 0.5, 6)
        shift = tm.equilibrium_shift_solve(sch, 1.0).solution.shift

        def solved(matrix=None):
            copy = replace(sch)
            if matrix is not None:
                vars(copy)["depth2_derivatives"] = matrix
            sol = tm.solve_gibbs(tm.induced_potential(copy, 1.0), shift)
            assert sol.residual > 0.0  # the depth-2 power iteration ran
            return hexes([sol.log_lam, *sol.masses, *sol.rho, sol.residual])

        columns = column_depth2(sch)
        assert columns.strides == sch.depth2_derivatives.strides
        assert hexes(columns.ravel()) == hexes(sch.depth2_derivatives.ravel())
        assert solved() == solved(columns)
        assert solved(np.ascontiguousarray(columns)) != solved(columns)


class TestFrozenScheme:
    """A scheme is frozen and caches its own t-free data: a ``replace``
    copy computes its own."""

    @pytest.fixture
    def quad_cap10(self, quad_map, quad_x_cylinder):
        return tm.extendible_return_scheme(
            quad_map, (quad_x_cylinder.lo, quad_x_cylinder.hi), 0.5, 10)

    def test_replace_gives_a_copy_its_own_caches(self, quad_cap10):
        s = quad_cap10
        for t in (0.5, 1.0):  # fill every cache of the original
            tm.equilibrium_shift_solve(s, t)
        assert not s.exhausted and len(s.branches) == 45
        copy = replace(s, delta=0.05, branches=s.branches[:5])
        fresh = InducingScheme(s.map, s.x_lo, s.x_hi, s.branches[:5], 0.05,
                               s.truncation, s.escaping_mass_bound,
                               s.exhausted, s.conflicts)
        assert tail_info_for(copy) == tail_info_for(fresh)
        for t in (0.5, 1.0):
            got = tm.equilibrium_shift_solve(copy, t).bracket
            want = tm.equilibrium_shift_solve(fresh, t).bracket
            assert hexes((got.lo, got.hi)) == hexes((want.lo, want.hi)), t
        assert copy.tail_info == tail_info_for(fresh) != s.tail_info

    def test_frozen(self, quad_cap10):
        assert not hasattr(quad_cap10, "meta")
        with pytest.raises(FrozenInstanceError):
            quad_cap10.delta = 0.05
        with pytest.raises(FrozenInstanceError):
            quad_cap10.meta = {}


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
        b = golden_scheme.branches[0]
        bad = SchemeBranch(b.lo, 0.5, b.tau, b.word, b.ext_lo, b.ext_hi,
                           b.df_lo, b.df_hi, b.df_mid)
        sch = replace(golden_scheme, branches=[bad, golden_scheme.branches[1]])
        rep = tm.validate_scheme(sch)
        assert not rep.ok
        failed = [c for c in rep.checks if not c.disjoint]
        assert failed and failed[0].overlap_interval is not None

    def test_vanishing_df_lo_gives_infinite_distortion(self):
        sch = tm.first_return_scheme(tm.fixture("quad4"), (0.0, 0.5), 20)
        flat = [b for b in sch.branches if b.df_lo == 0.0]
        assert sorted(b.tau for b in flat) == [16, 17, 18, 19, 20]
        assert all(b.distortion == math.inf for b in flat)
        assert sch.measured_distortion() == math.inf
        assert tm.validate_scheme(sch).max_distortion == math.inf
        with pytest.raises(DegenerateBranchError):
            tm.equilibrium_shift_solve(sch, 1.0)

    def test_infinite_distortion_is_never_within_bound(self):
        # delta = 0 makes the Koebe bound inf, and inf <= inf
        sch = tm.first_return_scheme(tm.fixture("quad4"), (0.0, 0.5), 20)
        rep = tm.validate_scheme(sch)
        assert rep.koebe_bound == math.inf
        flat = [c for c in rep.checks if c.distortion == math.inf]
        assert len(flat) == 5
        assert not any(c.distortion_ok for c in flat)
        assert all(c.ok for c in rep.checks if c.distortion < math.inf)
        assert not rep.ok

    def test_csv_rows(self, golden_scheme):
        header, rows = scheme_table(golden_scheme)
        assert header == ("i", "lo", "hi", "tau", "inf_DF", "sup_DF", "ext_lo", "ext_hi")
        assert len(rows) == 2
        assert rows[0][3] == 1 and rows[1][3] == 2


class TestKac:
    def test_golden_kac_consistency(self, golden_scheme):
        model = tm.induced_potential(golden_scheme, 1.0)
        sol = tm.solve_gibbs(model, 0.0)
        ab = tm.abramov_quantities(golden_scheme, sol)
        assert ab.tau_mean == pytest.approx(4.0 / 3.0, abs=1e-9)
        mu_a = tm.project_measure(golden_scheme, sol, [(0.0, 2.0 / 3.0)])[0]
        assert 1.0 / ab.tau_mean == pytest.approx(mu_a.mid, abs=1e-9)
