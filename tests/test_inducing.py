import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermomap as tm
from conftest import (JOIN_MAP, SINE_SPEC, counting_inverses, hexes,
                      plinear_maps, unpruned_extendible_return_scheme)
from thermomap import hofbauer, inducing
from thermomap.cli import default_base_cylinder
from thermomap.diagnostics import variation_decay
from thermomap.errors import DegenerateBranchError, DomainError
from thermomap.inducing import SchemeBranch, scheme_to_csv_rows
from thermomap.interval_map import (WordPullbacks, derivative_along,
                                    eval_along_word, eval_orbit,
                                    parse_map_spec, pullback_word)


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
        rows = [scheme_to_csv_rows(tm.first_return_scheme(m, x, 14))]
        monkeypatch.setattr(inducing, "build_tower",
                            lambda m, R: hofbauer.build_tower(m, R + 5))
        rows.append(scheme_to_csv_rows(tm.first_return_scheme(m, x, 14)))
        assert len(rows[0]) == 82 and rows[1] == rows[0]

    def test_coverage_monotone_in_cap(self, tent_map):
        escapes = [tm.first_return_scheme(tent_map, (0.0, 0.5), T).escaping_mass_bound
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
        rows = repr(scheme_to_csv_rows(sch)).encode()
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
    return (scheme_to_csv_rows(sch),
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

    def test_variation_decay_first_level(self, join):
        m, sch = join
        brs = sorted(sch.branches, key=lambda b: -b.length)[:12]
        want = 0.0
        for br in brs:
            vals = [-math.log(derivative_along(
                m, br.lo + (br.hi - br.lo) * k / 6, br.tau)) for k in range(7)]
            want = max(want, max(vals) - min(vals))
        assert want > 0.5
        rec = variation_decay(sch, 1.0, n_max=3)
        assert rec.v_n[0] == pytest.approx(want, rel=1e-9)


def scalar_depth2(sch):
    """The depth-2 matrix as one scalar pullback and |DF| per entry."""
    m = sch.map
    return [[bi.dF(m, bi.pullback(m, bj.midpoint)) for bi in sch.branches]
            for bj in sch.branches]


class TestGeometryArrays:
    """The t-independent geometry, read with the array kernels, keeps the
    scalar readers' floats, and the branch readers their Python float type."""

    @pytest.fixture(scope="class", params=["quad4", (0.0, 0.5), (0.1, 0.4),
                                           (0.6, 0.9)])
    def scheme(self, request):
        if request.param == "quad4":
            m = tm.fixture("quad4")
            c = tm.cylinder_of_word(m, tm.itinerary(m, 0.3, 2, side="left"))
            return tm.extendible_return_scheme(m, (c.lo, c.hi), 0.5, 14)
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
            assert hexes(br.dF_array(m, np.array(xs))) == hexes(
                br.dF(m, x) for x in xs)
            img = [v for c in br.parts for v in (c.image_lo, c.image_hi)]
            ys = [scheme.x_lo, scheme.x_hi, 0.3] + img
            ys += [v + d for v in img for d in (-2e-12, -1e-12, 1e-12, 2e-12)]
            assert hexes(br.pullback_array(WordPullbacks(m, ys))) == hexes(
                br.pullback(m, y) for y in ys)

    def test_sine_fallback_equals_the_scalar_readers(self):
        m = parse_map_spec(SINE_SPEC)
        sch = tm.extendible_return_scheme(m, (0.25, 0.5), 0.5, 6)
        assert sch.branches
        for row, want_row in zip(sch.depth2_derivatives, scalar_depth2(sch)):
            assert hexes(row) == hexes(want_row)


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
        from thermomap.inducing import scheme_to_csv_rows
        rows = scheme_to_csv_rows(golden_scheme)
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
