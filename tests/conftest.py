import bisect
import gc
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

import thermomap as tm
from thermomap import diagnostics as dg
from thermomap import gibbs
from thermomap.cli import CurveRow
from thermomap.errors import (CriticalOrbitError, DomainError,
                              InfinitePressureError, NonCompatibleError,
                              NumericError)
from thermomap.gibbs import (LOG_FLOAT_MAX, PROJECTION_DEPTH, RATIO_SEED,
                             REFINE_CAP, RESIDUAL_TOL, _tau_mean_bracket)
from thermomap.inducing import (CYLINDER_CAP, ONTO_RTOL, InducingScheme,
                                _fit_neighbourhood, _make_branches, _Uncovered,
                                _word_of)
from thermomap.interval_map import (SNAP_TOL, eval_along_word, eval_orbit,
                                    pullback_word)
from thermomap.symbolic import DEGEN_TOL, monotone_pieces, refine_levels
from thermomap.thermo import (MIN_TAIL_MASSES, TAIL_R2_FLOOR, Bracket,
                              TailRecord, ThermoModel, _log_weights_of)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# f is continuous and increasing across 1/4 with slopes 1.2 and 2.8, so a
# monotone piece of f^j, hence one extendible branch, can span two words
JOIN_MAP = ([0, 0.25, 0.5, 1], [(0, 0.3), (0.3, 1), (0, 1)], [1, 1, -1])
SINE_SPEC = "kind = custom\nexpr = sin(pi*x)\nbreakpoints = 0, 1/2, 1\ncrit = 1/2:2\n"
LOG_GOLDEN = math.log(GOLDEN)

def _inflection_map():
    """A unimodal custom map, g(4x(1-x)) with g(y) = 4(y - 1/2)^3 + 1/2:
    a quadratic turning point at 1/2 and a cubic inflection point, where
    f' vanishes, inside each branch."""
    r = math.sqrt(0.5)
    crit = (tm.CriticalPoint(0.5, 2.0, 1.0),
            tm.CriticalPoint(0.5 * (1.0 - r), 3.0, 0.5, kind="inflection"),
            tm.CriticalPoint(0.5 * (1.0 + r), 3.0, 0.5, kind="inflection"))
    return tm.make_custom("4*(4*x*(1 - x) - 1/2)**3 + 1/2", [0.0, 0.5, 1.0], crit)


#: Maps on which the orbit-walking estimates are checked against their
#: oracles: smooth and piecewise-linear, with and without vanishing
#: critical points, a critical orbit that returns to c (a = 1 + sqrt 5
#: is superstable of period 2), and vanishing points off the breakpoints.
ORBIT_MAPS = {
    "sine": lambda: tm.parse_map_spec(SINE_SPEC),
    "quad4": lambda: tm.fixture("quad4"),
    "quad3.8": lambda: tm.make_quadratic(3.8),
    "quad3.83": lambda: tm.make_quadratic(3.83),
    "quad_superstable": lambda: tm.make_quadratic(1.0 + math.sqrt(5.0)),
    "chebyshev3": lambda: tm.make_chebyshev(3),
    "tent2": lambda: tm.fixture("tent2"),
    "markov_golden": lambda: tm.fixture("markov_golden"),
    "markov_full": lambda: tm.fixture("markov_full"),
    "inflection": _inflection_map,
}


# acip of the golden-mean fixture: piecewise-constant density
ACIP_CA = 9.0 / 8.0
ACIP_CB = 3.0 / 4.0
ACIP_LYAP = 0.75 * math.log(1.5) + 0.25 * math.log(2.0)


def partition_function_exact(model, n: int, base: int, shift: float) -> float:
    """Z_n summed over located periodic points of the underlying map.

    Enumerates every n-word of scheme branches that starts at the base
    branch and adds exp(-t log|Df^tau| - S*tau) at the periodic point of
    the concatenated map word: an oracle independent of the weight
    brackets, for small families only.
    """
    scheme = model.scheme
    total = 0.0
    for rest in itertools.product(range(model.n), repeat=n - 1):
        brs = [scheme.branches[i] for i in (base,) + rest]
        pp = tm.periodic_point(scheme.map, sum((b.word for b in brs), ()))
        if pp is None:
            continue
        total += math.exp(-model.t * math.log(pp.multiplier)
                          - shift * sum(b.tau for b in brs))
    return total


def hexes(values):
    """Each value as float.hex, which tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


def counting_inverses(m):
    """m with every branch inverse recording its calls, and the list they
    go to: one (letter, float.hex of the point) per call."""
    calls = []

    def counted(a, inv):
        def inv_counted(y):
            calls.append((a, float(y).hex()))
            return inv(y)
        return inv_counted

    return replace(m, branches=tuple(replace(b, inv=counted(a, b.inv))
                                     for a, b in enumerate(m.branches))), calls


def counting_lookups(m):
    """A copy of m, and two lists it records to: the point of each
    ``_locate`` call (a lookup), and that of each branch forward map
    evaluation (a step; the branch images are evaluated beforehand, so
    they are not counted)."""
    lookups, steps = [], []

    def counted(fwd):
        def fwd_counted(x):
            steps.append(x)
            return fwd(x)
        return fwd_counted

    m = replace(m, branches=tuple(replace(b, fwd=counted(b.fwd))
                                  for b in m.branches))
    for b in m.branches:
        b.image
    steps.clear()
    locate = m._locate

    def locate_counted(x, side):
        lookups.append(x)
        return locate(x, side)

    object.__setattr__(m, "_locate", locate_counted)
    return m, lookups, steps


def looping_branch_index(m, x: float, side: str = "left") -> int:
    """``IntervalMap.branch_index`` as it was when it snapped and then
    walked the branches: an oracle for the library's one-snap lookup."""
    lo, hi = m.domain
    if x < lo - SNAP_TOL or x > hi + SNAP_TOL:
        raise DomainError(f"point {x!r} outside domain [{lo}, {hi}]")
    x = m.snap(x)
    for i, b in enumerate(m.branches):
        if b.lo < x < b.hi:
            return i
        if x == b.lo:
            if i == 0 or side == "right":
                return i
            return i - 1
        if x == b.hi and i == m.n_branches - 1:
            return i
    for i, b in enumerate(m.branches):
        if b.contains(x):
            return i
    raise DomainError(f"point {x!r} not covered by any branch")


def looping_apply(m, x: float, side: str = "left") -> float:
    """``IntervalMap.apply`` over ``looping_branch_index``, snapping twice."""
    b = m.branches[looping_branch_index(m, x, side)]
    y = b.fwd(b.clamp(m.snap(x)))
    lo, hi = m.domain
    return min(max(y, lo), hi)


def looping_deriv(m, x: float, side: str = "left") -> float:
    """``IntervalMap.deriv`` over ``looping_branch_index``."""
    b = m.branches[looping_branch_index(m, x, side)]
    return b.deriv(b.clamp(m.snap(x)))


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


def unpruned_extendible_return_scheme(m, x, delta: float, T: int):
    """The extendible builder as it was when it refined every cylinder of
    every level up to T: an oracle for the pruned library builder.

    First delta-extendible return scheme on the interval X.

    For each maximal monotone piece of f^j (j <= T) whose image covers
    the scaled neighbourhood Y of X, the pullback of X is a branch with
    inducing time j, provided no earlier branch already owns it.
    """
    x_lo, x_hi = x
    if delta <= 0:
        raise DomainError("delta must be > 0")
    if T < 1:
        raise DomainError("time cap must be >= 1")
    x_len = x_hi - x_lo
    y_lo, y_hi = _fit_neighbourhood(m, x_lo, x_hi, delta)
    tol = ONTO_RTOL * max(x_len, 1e-30)

    uncovered = _Uncovered(x_lo, x_hi)
    branches = []
    conflicts = 0

    levels = refine_levels(m, T, cap=CYLINDER_CAP)
    exhausted = False
    for level in levels:
        if uncovered.total() <= DEGEN_TOL:
            exhausted = True
            break
        j = level[0].depth
        for piece in monotone_pieces(level):
            # a candidate lies inside its piece, so a piece beside X yields
            # neither a branch nor a conflict
            if piece[-1].hi < x_lo - tol or piece[0].lo > x_hi + tol:
                continue
            img_lo = min(c.image_lo for c in piece)
            img_hi = max(c.image_hi for c in piece)
            if img_lo > y_lo + 1e-12 or img_hi < y_hi - 1e-12:
                continue
            # a piece's cylinder images meet within 1e-12 and cover Y, so
            # each pullback below finds the cylinder that holds its target
            pa = pullback_word(
                m, _word_of(piece, x_lo, piece[0].word, image=True), x_lo)
            pb = pullback_word(
                m, _word_of(piece, x_hi, piece[0].word, image=True), x_hi)
            b_lo, b_hi = min(pa, pb), max(pa, pb)
            # candidates must live inside X (clip boundary noise only)
            if b_lo < x_lo - tol or b_hi > x_hi + tol:
                if min(b_hi, x_hi) - max(b_lo, x_lo) > tol:
                    conflicts += 1
                continue
            b_lo, b_hi = max(b_lo, x_lo), min(b_hi, x_hi)
            if b_hi - b_lo <= DEGEN_TOL:
                continue
            state = uncovered.classify(b_lo, b_hi, tol)
            if state == "outside":
                continue
            if state == "partial":
                conflicts += 1
                continue
            ea = pullback_word(
                m, _word_of(piece, y_lo, piece[0].word, image=True), y_lo)
            eb = pullback_word(
                m, _word_of(piece, y_hi, piece[0].word, image=True), y_hi)
            # the piece's cylinders that a point of [b_lo, b_hi] can fall in
            parts = tuple(c for c in piece
                          if c.hi + 1e-12 >= b_lo and c.lo - 1e-12 <= b_hi)
            branches += _make_branches(m, [(b_lo, b_hi, j, piece[0].word,
                                            (ea, eb), parts, 1e-9)])
            uncovered.remove(b_lo, b_hi)
    else:
        exhausted = uncovered.total() <= max(DEGEN_TOL, 1e-12 * x_len)

    branches.sort(key=lambda b: b.lo)
    return InducingScheme(m, x_lo, x_hi, branches, delta, T,
                          uncovered.total(), exhausted, conflicts)


def column_depth2(scheme) -> np.ndarray:
    """The depth-2 matrix built one branch column at a time, each entry
    the scalar ``SchemeBranch.dF`` at the branch's scalar ``pullback`` of
    a midpoint, and returned as the transposed view of the stacked
    columns: the float layout that the depth-2 power iteration sums in."""
    m, n = scheme.map, len(scheme.branches)
    columns = [[bi.dF(m, bi.pullback(m, bj.midpoint)) for bj in scheme.branches]
               for bi in scheme.branches]
    return np.array(columns).reshape(n, n).T


def unreachable_after(call, *args) -> int:
    """The number of unreachable objects that ``call(*args)`` leaves for
    the cyclic collector: it runs with the collector off, and one
    collection then counts them."""
    gc.collect()
    gc.disable()
    try:
        call(*args)
        return gc.collect()
    finally:
        gc.enable()


def pointwise_gibbs_ratio_check(solution, depth: int, word_cap: int = 20_000):
    """``gibbs_ratio_check`` word by word, with no memo: an oracle for the
    library check, which shares points and terms between words.

    Each word w pulls the midpoint of its last branch back letter by
    letter with ``SchemeBranch.pullback``, which gives the point
    x_{w_k ... w_n} of every suffix, and sums -t log|DF_{w_k}| - S tau_{w_k}
    at those points, by ``SchemeBranch.dF``, in word order.
    """
    if depth > 8:
        raise DomainError("depth must be <= 8")
    model = solution.model
    scheme = model.scheme
    n = len(solution.masses)
    if scheme is None:
        return 1.0
    m, branches = scheme.map, scheme.branches
    log_lam = solution.log_lam
    rng = np.random.default_rng(RATIO_SEED)
    k_best = 1.0
    for d in range(1, depth + 1):
        total = n ** d
        if total <= word_cap:
            words = itertools.product(range(n), repeat=d)
        else:
            words = rng.integers(0, n, size=(word_cap, d)).tolist()
        for w in words:
            xs = [branches[w[-1]].midpoint]
            for i in reversed(w[:-1]):
                xs.append(branches[i].pullback(m, xs[-1]))
            psi = 0.0
            for x, i in zip(reversed(xs), w):
                br = branches[i]
                psi += -model.t * math.log(br.dF(m, x)) - solution.shift * br.tau
            mass = float(np.prod([solution.masses[i] for i in w]))
            ratio = mass / math.exp(psi - d * log_lam)
            k_best = max(k_best, ratio, 1.0 / ratio)
    return k_best


def scalar_project_measure(scheme, solution, targets):
    """``project_measure`` as it was when every target re-evaluated the
    segment orbits and every product-rule level re-evaluated F at branch
    ends: an oracle for the library projection, which reuses them.

    mu(A) for each target interval or cylinder A, as brackets.
    """
    tau = _tau_mean_bracket(solution)
    m = scheme.map
    branches = scheme.branches
    los = [br.lo for br in branches]
    his = list(itertools.accumulate((br.hi for br in branches), max))

    def base_mass(lo, hi, depth):
        lo = max(lo, scheme.x_lo)
        hi = min(hi, scheme.x_hi)
        if hi - lo <= DEGEN_TOL:
            return Bracket(0.0, 0.0)
        if lo <= scheme.x_lo + DEGEN_TOL and hi >= scheme.x_hi - DEGEN_TOL:
            return Bracket(1.0, 1.0)
        acc_lo = 0.0
        acc_hi = 0.0
        for i in range(bisect.bisect_right(his, lo), bisect.bisect_left(los, hi)):
            br = branches[i]
            p, q = max(lo, br.lo), min(hi, br.hi)
            if q - p <= DEGEN_TOL:
                continue
            mass = float(solution.masses[i])
            if p <= br.lo + DEGEN_TOL and q >= br.hi - DEGEN_TOL:
                acc_lo += mass
                acc_hi += mass
                continue
            if depth <= 0:
                acc_hi += mass
                continue
            u, v = br.forward(m, p), br.forward(m, q)
            inner = base_mass(min(u, v), max(u, v), depth - 1)
            acc_lo += mass * inner.lo
            acc_hi += mass * inner.hi
        return Bracket(acc_lo, min(acc_hi, 1.0))

    def value(a_lo, a_hi):
        if a_hi <= a_lo:
            return Bracket(0.0, 0.0)
        num_lo = 0.0
        num_hi = 0.0
        for br in scheme.branches:
            for lo, hi, word in br.segments():
                for k in range(br.tau):
                    head = word[:k]
                    u = eval_along_word(m, head, lo)
                    v = eval_along_word(m, head, hi)
                    j_lo, j_hi = min(u, v), max(u, v)
                    p, q = max(j_lo, a_lo), min(j_hi, a_hi)
                    if q - p <= DEGEN_TOL:
                        continue
                    increasing = u <= v
                    if p == j_lo:
                        xa = lo if increasing else hi
                    else:
                        xa = pullback_word(m, head, p)
                    if q == j_hi:
                        xb = hi if increasing else lo
                    else:
                        xb = pullback_word(m, head, q)
                    part = base_mass(min(xa, xb), max(xa, xb), PROJECTION_DEPTH)
                    num_lo += part.lo
                    num_hi += part.hi
        lo = min(max(num_lo / tau.hi, 0.0), 1.0)
        hi = min(num_hi / tau.lo, 1.0) if tau.lo > 0 else 1.0
        return Bracket(lo, hi)

    spans = [(a.lo, a.hi) if hasattr(a, "lo") else a for a in targets]
    return [value(lo, hi) for lo, hi in spans]


def linear_weights(model, shift: float):
    """The weights as floats, |DF|^-t times exp(-tau*S): ``ThermoModel.weights``
    as it was before the model held log weights, with its unknown-weight
    rule (0 in the lower and point weights, +inf in the upper one, where a
    weight that underflowed meets a factor that overflowed, or the reverse).
    An oracle for the log-space weights wherever it is finite."""
    t = model.t
    branches = model.scheme.branches
    df_lo = np.array([b.df_lo for b in branches])
    df_hi = np.array([b.df_hi for b in branches])
    df_pt = np.array([b.df_mid for b in branches])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if t >= 0:
            w_lo, w_hi = df_hi ** (-t), df_lo ** (-t)
        else:
            w_lo, w_hi = df_lo ** (-t), df_hi ** (-t)
        factor = np.exp(-model.taus * shift)
        w_lo, w_hi, w_pt = w_lo * factor, w_hi * factor, df_pt ** (-t) * factor
    w_lo[np.isnan(w_lo)] = 0.0
    w_hi[np.isnan(w_hi)] = math.inf
    w_pt[np.isnan(w_pt)] = 0.0
    return w_lo, w_hi, w_pt


def linear_tail_weight(model, shift: float) -> float:
    """``TailInfo.weight_tail`` as a float; raises OverflowError where the
    float leaves the range."""
    if model.tail is None:
        return 0.0
    coeff, rate = model.tail._log_term(model.t, shift, math.log(model.k_dist))
    if rate >= 0.0:
        return math.inf
    r = math.exp(rate)
    return math.exp(coeff) * r ** (model.tail.T + 1) / (1.0 - r)


def linear_weight_sum(model, shift: float) -> tuple[float, float]:
    """(lower, upper) float bracket on the weight sum, tail included."""
    w_lo, w_hi, _ = linear_weights(model, shift)
    return float(w_lo.sum()), float(w_hi.sum()) + linear_tail_weight(model, shift)


def linear_gurevich_pressure(model, shift: float) -> Bracket:
    """``gurevich_pressure`` over ``linear_weight_sum``, with its zero and
    inf special cases."""
    w_lo, w_hi = linear_weight_sum(model, shift)
    lower = math.log(w_lo) if w_lo > 0 else -math.inf
    if w_hi == 0.0:
        upper = -math.inf
    else:
        upper = math.log(w_hi) if math.isfinite(w_hi) else math.inf
    return Bracket(lower, upper)


def linear_solve_gibbs(model, shift: float):
    """``solve_gibbs`` over float weights: (lam, lam_lo, lam_hi, masses,
    mass_lo, mass_hi).  The depth-2 matrix is |DF|^-t exp(-tau S) entry by
    entry, with the scalar ``**`` and ``math.exp``."""
    w_lo, w_hi, w_pt = linear_weights(model, shift)
    tail = linear_tail_weight(model, shift)
    lam_lo, lam_hi = float(w_lo.sum()), float(w_hi.sum()) + tail
    lam = float(w_pt.sum())
    masses = w_pt / lam
    n = model.n
    if model.scheme.measured_distortion() > 1.0 + 1e-12 and n <= REFINE_CAP:
        branches = model.scheme.branches
        decay = np.array([math.exp(-br.tau * shift) for br in branches])
        B = np.array([[df ** -model.t for df in row]
                      for row in model.scheme.depth2_derivatives.tolist()]) * decay
        rho = np.ones(n) / n
        mvec = np.ones(n) / n
        for _ in range(100_000):
            rho_new = B @ rho
            lam = float(rho_new.sum())
            rho_new /= lam
            m_new = B.T @ mvec
            m_new /= m_new.sum()
            done = float(np.max(np.abs(B @ rho_new - lam * rho_new))) <= \
                RESIDUAL_TOL * lam and float(np.max(np.abs(rho_new - rho))) <= RESIDUAL_TOL
            rho, mvec = rho_new, m_new
            if done:
                break
        masses = (rho / rho.mean()) * mvec
        masses = masses / masses.sum()
    mass_lo = np.minimum(w_lo / max(lam_hi, lam), 1.0) \
        if math.isfinite(lam_hi) else np.zeros(n)
    mass_hi = np.minimum(w_hi / lam_lo, 1.0)
    return lam, lam_lo, lam_hi, masses, mass_lo, mass_hi


def counted_pressure(model, shift: float) -> Bracket:
    """``gurevich_pressure`` through ``gibbs.log_weight_sums``, looked up at
    call time, so that a test counting that kernel's (t, shift) pairs
    counts it as one weight sum."""
    return Bracket(*gibbs.log_weight_sums((model, model), (False, True),
                                         (shift, shift)))


def bisection_shift_solve(scheme, t: float, tolerance: float) -> Bracket:
    """``equilibrium_shift_solve`` as it was when it bisected each edge:
    its bracket on S, an oracle for the library's false position.  Every
    weight sum is one ``counted_pressure``, so that a test can count
    them."""
    model = tm.induced_potential(scheme, t)

    def p_low(s):
        return counted_pressure(model, s).lo

    def p_up(s):
        return counted_pressure(model, s).hi

    def edge_bisect(f, a, b):
        while b - a > tolerance:
            c = 0.5 * (a + b)
            if c == a or c == b:
                break
            if f(c) <= 0.0:
                b = c
            else:
                a = c
        return 0.5 * (a + b)

    def bracket_end(bound, sign):
        for k in range(80):
            s = sign * 2.0 ** k
            if sign * bound(s) < 0.0:
                return s
        raise InfinitePressureError("pressure bound never changed sign")

    s_right = bracket_end(p_up, 1.0)
    s_left = bracket_end(p_low, -1.0)
    edge_hi = edge_bisect(p_up, s_left, s_right)
    edge_lo = edge_bisect(p_low, s_left, s_right)
    pad = max(0.5 * tolerance,
              8.0 * math.ulp(max(1.0, abs(edge_lo), abs(edge_hi))))
    s_lo = min(edge_lo, edge_hi) - pad
    s_hi = max(edge_lo, edge_hi) + pad
    tm.solve_gibbs(model, 0.5 * (s_lo + s_hi))
    return Bracket(s_lo, s_hi)


def scalar_weight_sum(model, shift: float) -> tuple[float, float]:
    """``ThermoModel.weight_sum`` as it was before the batched kernel: the
    log-sum-exp of both rows at one shift, and the tail's scalar log-add."""
    logs = model.log_w - shift * model.taus
    top = logs.max(axis=1)
    lo, hi = (top + np.log(np.exp(logs - top[:, None]).sum(axis=1))).tolist()
    if model.tail is not None:
        tail = model.tail.weight_tail(model.t, shift, math.log(model.k_dist))
        top_hi = max(hi, tail)
        hi = top_hi + math.log1p(math.exp(min(hi, tail) - top_hi))
    return lo, hi


def scalar_induced_potential(scheme, t: float):
    """``induced_potential`` as it was when it built one t alone."""
    if not scheme.branches:
        raise DomainError("scheme has no branches")
    taus, log_df, log_df_pt, k_dist = scheme.potential_geometry
    ends = _log_weights_of(t, log_df)
    log_w = np.stack([ends.min(axis=0), ends.max(axis=0)])
    return ThermoModel(taus, log_w, _log_weights_of(t, log_df_pt),
                       log_df[0], log_df[1], log_df_pt,
                       t, k_dist, tail=scheme.tail_info, scheme=scheme)


def scalar_solve_gibbs(model, shift: float):
    """``solve_gibbs`` as it was when it solved one (t, shift) alone, its
    weight sums one ``scalar_weight_sum`` call."""
    log_lo, log_hi = scalar_weight_sum(model, shift)
    if log_hi == math.inf:
        raise InfinitePressureError("weight sum diverges at this shift")
    w_lo, w_hi, w_pt = model.log_weights(shift)
    top = float(w_pt.max())
    log_lam = top + math.log(float(np.exp(w_pt - top).sum()))
    masses = np.exp(w_pt - log_lam)
    n = model.n
    rho = np.ones(n)
    conformal = masses.copy()
    residual = 0.0
    nontrivial = model.scheme is not None and \
        model.scheme.measured_distortion() > 1.0 + 1e-12
    if nontrivial and n <= REFINE_CAP:
        log_lam, rho, conformal, residual = gibbs._depth2_power_iteration(model, shift)
        masses = rho * conformal
        masses = masses / masses.sum()
    mass_lo = np.exp(np.minimum(w_lo - max(log_hi, log_lam), 0.0))
    mass_hi = np.exp(np.minimum(w_hi - log_lo, 0.0))
    return gibbs.GibbsSolution(model, shift, log_lam, Bracket(log_lo, log_hi), masses,
                               mass_lo, mass_hi, conformal, rho, residual)


def scalar_tau_mean_bracket(solution) -> Bracket:
    """``_tau_mean_bracket`` as it was for one solution alone."""
    model = solution.model
    lo = float(np.sum(model.taus * solution.mass_lo))
    hi = float(np.sum(model.taus * solution.mass_hi))
    if model.tail is not None:
        log_extra = model.tail.tau_weight_tail(model.t, solution.shift,
                                               math.log(model.k_dist)) \
            - solution.log_lam_bracket.lo
        if not log_extra < LOG_FLOAT_MAX:
            raise NonCompatibleError(
                "inducing time not integrable within the truncation bound")
        hi += math.exp(log_extra)
    return Bracket(lo, hi)


def scalar_abramov_quantities(solution):
    """``abramov_quantities`` as it was for one solution alone."""
    model = solution.model
    shift = solution.shift
    tau_b = scalar_tau_mean_bracket(solution)
    tau_pt = float(np.sum(model.taus * solution.masses))
    lyap_f_pt = float(np.sum(solution.masses * model.log_df_pt))
    v_lo, v_hi = model.log_df_lo, model.log_df_hi
    m_lo, m_hi = solution.mass_lo, solution.mass_hi
    lyap_lo = float(np.where(v_lo >= 0, m_lo * v_lo, m_hi * v_lo).sum())
    lyap_hi = float(np.where(v_hi >= 0, m_hi * v_hi, m_lo * v_hi).sum())
    log_lam = solution.log_lam_bracket
    h_f_pt = solution.log_lam + model.t * lyap_f_pt + shift * tau_pt
    h_f_lo = log_lam.lo + min(model.t * lyap_lo, model.t * lyap_hi) \
        + min(shift * tau_b.lo, shift * tau_b.hi)
    h_f_hi = log_lam.hi + max(model.t * lyap_lo, model.t * lyap_hi) \
        + max(shift * tau_b.lo, shift * tau_b.hi)
    entropy = h_f_pt / tau_pt
    lyap = lyap_f_pt / tau_pt
    return gibbs.AbramovRecord(tau_pt, tau_b, h_f_pt, entropy, lyap_f_pt, lyap,
                               entropy - model.t * lyap,
                               gibbs._per_tau(h_f_lo, h_f_hi, tau_b),
                               gibbs._per_tau(lyap_lo, lyap_hi, tau_b))


def scalar_mass_by_tau(solution) -> list[float]:
    """``mass_by_tau`` as it was: one Python add per branch."""
    taus = solution.model.taus.astype(int)
    out = [0.0] * int(taus.max())
    for tau, mu in zip(taus, solution.masses):
        out[tau - 1] += float(mu)
    return out


def polyfit_fit_line(x, y) -> tuple[float, float]:
    """Slope and R^2 of the ``np.polyfit`` line of y against x."""
    slope, intercept = np.polyfit(x, y, 1)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - (slope * x + intercept)) ** 2)) / ss_tot \
        if ss_tot != 0 else 1.0
    return float(slope), r2


def polyfit_tail_classify(masses) -> TailRecord:
    """``tail_classify`` as it was, with two ``np.polyfit`` fits per call."""
    arr = np.asarray(masses, dtype=float)
    ns = np.arange(1, len(arr) + 1, dtype=float)
    pos = arr > 0.0
    n_pos = int(pos.sum())
    if n_pos < MIN_TAIL_MASSES:
        last = int(np.nonzero(pos)[0][-1]) if n_pos else -1
        if n_pos >= 2 and bool(np.all(pos[:last + 1])):
            slope, r2 = polyfit_fit_line(ns[pos], np.log(arr[pos]))
            return TailRecord("exponential", -slope, math.nan, r2,
                              finite_support=True)
        return TailRecord("inconclusive", math.nan, math.nan, math.nan,
                          finite_support=n_pos < 2)
    x, y = ns[pos], np.log(arr[pos])
    slope_e, r2_e = polyfit_fit_line(x, y)
    slope_p, r2_p = polyfit_fit_line(np.log(x), y)
    if max(r2_e, r2_p) < TAIL_R2_FLOOR:
        return TailRecord("inconclusive", math.nan, math.nan, max(r2_e, r2_p))
    if r2_e >= r2_p:
        return TailRecord("exponential", -slope_e, math.nan, r2_e)
    return TailRecord("polynomial", math.nan, -slope_p, r2_p)


def scalar_scan_rows(scheme, ts, tolerance: float = 1e-10) -> list:
    """``scan_pressure``'s rows at each t of ts, as they were when every t
    was solved alone and its Gibbs masses, Abramov quantities and tail fit
    (two ``np.polyfit`` calls) were computed for that t alone: an oracle
    for the scan's stacked stage.  An error that no row records raises."""
    nan = math.nan
    rows = []
    for t in ts:
        try:
            res, _ = scalar_shift_solve(scheme, t, tolerance)
            ab = scalar_abramov_quantities(res.solution)
            tail = polyfit_tail_classify(scalar_mass_by_tau(res.solution))
        except InfinitePressureError:
            kind = "error:infinite-pressure"
        except NonCompatibleError:
            kind = "error:non-compatible"
        except NumericError:
            kind = "error:numeric"
        else:
            rate = tail.rate if tail.kind == "exponential" else tail.exponent
            rows.append(CurveRow(t, res.s_lo, res.s_hi, res.zero_entropy_bound,
                                 tail.kind, rate, ab.tau_mean, ab.lyap, ab.entropy))
            continue
        rows.append(CurveRow(t, nan, nan, nan, kind, nan, nan, nan, nan))
    return rows


def scalar_shift_solve(scheme, t: float, tolerance: float = 1e-10):
    """``equilibrium_shift_solve`` as it was when it solved one t alone,
    each weight sum one ``scalar_weight_sum`` call and the Gibbs solve
    ``scalar_solve_gibbs``: an oracle, float for float, for the lockstep
    searches.  Returns (ShiftSolveResult, the ``scalar_weight_sum`` at its
    midpoint)."""
    if not 0.0 < tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and > 0, got {tolerance!r}")
    model = scalar_induced_potential(scheme, t)

    def p_low(s):
        return scalar_weight_sum(model, s)[0]

    def p_up(s):
        return scalar_weight_sum(model, s)[1]

    def false_position(f, a, fa, b, fb):
        half = 0.5 * tolerance
        kept = 0
        flat = False
        while b - a > tolerance:
            c = 0.5 * (a + b)
            if c == a or c == b:
                break
            if not flat and fa < math.inf and -math.inf < fb < fa:
                x = a + (b - a) * (fa / (fa - fb))
                if a <= x <= b:
                    y = min(max(x, a + half), b - half)
                    if a < y < b:
                        c, flat = y, y != x
            fc = f(c)
            if fc <= 0.0:
                b, fb = c, fc
                if kept == 1:
                    fa *= 0.5
                kept = 1
            else:
                a, fa = c, fc
                if kept == -1:
                    fb *= 0.5
                kept = -1
        return 0.5 * (a + b)

    def bracket_end(sign):
        for k in range(80):
            s = sign * 2.0 ** k
            p = Bracket(*scalar_weight_sum(model, s))
            if (p.hi < 0.0) if sign > 0 else (p.lo > 0.0):
                return s, p
        raise InfinitePressureError(
            "upper pressure bound never went negative" if sign > 0
            else "lower pressure bound never went positive")

    zeb = gibbs.zero_entropy_competitor(scheme, t)
    s_right, at_right = bracket_end(1.0)
    s_left, at_left = bracket_end(-1.0)
    edge_hi = false_position(p_up, s_left, at_left.hi, s_right, at_right.hi)
    edge_lo = false_position(p_low, s_left, at_left.lo, s_right, at_right.lo)
    pad = max(0.5 * tolerance,
              8.0 * math.ulp(max(1.0, abs(edge_lo), abs(edge_hi))))
    s_lo = min(edge_lo, edge_hi) - pad
    s_hi = max(edge_lo, edge_hi) + pad
    mid = 0.5 * (s_lo + s_hi)
    solution = scalar_solve_gibbs(model, mid)
    return gibbs.ShiftSolveResult(s_lo, s_hi, solution, zeb), \
        scalar_weight_sum(model, mid)


def stepwise_chain_rule(m, x: float, n: int):
    """The chain rule as it was when it walked the orbit itself, one
    step per factor: yield |Df^k(x)| for k = 1, ..., n.

    Raises CriticalOrbitError (with the hitting time) when the orbit
    meets a critical point where the derivative vanishes.
    """
    vanish = [c.c for c in m.crit if c.vanishing]
    z = m.snap(x)
    prod = 1.0
    for k in range(n):
        for c in vanish:
            if abs(z - c) <= SNAP_TOL:
                raise CriticalOrbitError(
                    f"orbit hits critical point {c} at time {k}", hit_time=k)
        d = m.deriv(z)
        if d == 0.0:
            raise CriticalOrbitError(
                f"derivative vanishes at orbit point {z} (time {k})", hit_time=k)
        prod *= abs(d)
        yield prod
        z = m.apply(z)


def stepwise_derivative_along(m, x: float, n: int) -> float:
    """``derivative_along`` over ``stepwise_chain_rule``: an oracle for
    the library's product over ``eval_orbit``."""
    prod = 1.0
    for prod in stepwise_chain_rule(m, x, n):
        pass
    return prod


def stepwise_derivative_prefixes(m, x: float, n: int) -> list[float]:
    """``derivative_prefixes`` over ``stepwise_chain_rule``."""
    out = []
    try:
        for prod in stepwise_chain_rule(m, x, n):
            out.append(prod)
    except CriticalOrbitError:
        pass
    return out


def inline_critical_neighbourhood(m, eps: float):
    """``critical_neighbourhood`` with each end's inverse step written out
    by hand: an oracle for the library's ``pullback_word`` steps.

    U = f^{-1}(B_eps(f(Crit))): one component around each turning point.
    """
    comps = []
    for cp in m.turning_points():
        if not cp.vanishing:
            continue
        target_lo, target_hi = cp.image - eps, cp.image + eps
        bi = m.branch_index(cp.c, side="left")
        bj = m.branch_index(cp.c, side="right")
        left_b, right_b = m.branches[bi], m.branches[bj]
        l_lo, l_hi = left_b.image
        r_lo, r_hi = right_b.image
        a = left_b.inv(min(max(target_lo, l_lo), l_hi)) \
            if left_b.orientation > 0 else left_b.inv(min(max(target_hi, l_lo), l_hi))
        b = right_b.inv(min(max(target_lo, r_lo), r_hi)) \
            if right_b.orientation < 0 else right_b.inv(min(max(target_hi, r_lo), r_hi))
        comps.append((min(a, b), max(a, b)))
    return comps


def rewalking_binding_analysis(m, eps: float, delta_x: float, n_max: int,
                               t0: float = 0.9):
    """``binding_analysis`` as it was when |Df^p(x)| and the critical
    growth walked their orbits a second time: an oracle for the library
    estimate, which reads them off the orbits it already holds.
    """
    gammas = dg.gamma_sequence(delta_x, n_max)
    comps = inline_critical_neighbourhood(m, eps)
    crits = [cp for cp in m.turning_points() if cp.vanishing]
    crit_pts = [q.c for q in crits]
    p_u = n_max
    f_prime = {}
    for (u_lo, u_hi), cp in zip(comps, crits):
        orb_c = eval_orbit(m, cp.c, n_max)
        for k in range(1, dg.BINDING_SAMPLES + 1):
            x = u_lo + (u_hi - u_lo) * k / (dg.BINDING_SAMPLES + 1)
            if abs(x - cp.c) < 1e-12:
                continue
            orb_x = eval_orbit(m, x, n_max)
            p = n_max
            for k2 in range(1, n_max + 1):
                dist_c = min(abs(orb_c[k2] - cc) for cc in crit_pts)
                if abs(orb_x[k2] - orb_c[k2]) >= gammas[k2 - 1] * dist_c:
                    p = k2
                    break
            p_u = min(p_u, p)
            try:
                dfp = stepwise_derivative_along(m, x, p)
            except CriticalOrbitError:
                continue
            f_prime[p] = min(f_prime.get(p, math.inf), dfp)
    growth = [stepwise_derivative_prefixes(m, m.apply(cp.c), n_max)
              for cp in crits]
    worst = []
    for cp, derivs in zip(crits, growth):
        terms = [(gammas[n - 1] ** (cp.order - 1.0) * dn) ** (-t0 / cp.order)
                 for n, dn in enumerate(derivs, start=1)]
        cum = np.cumsum(terms)
        if len(cum) and (not worst or cum[-1] > worst[-1]):
            worst = list(cum)
    partials = worst or [math.nan]
    comp_partials = dg._composition_sums(crits, growth, gammas, p_u, n_max)
    tail_ok = (len(partials) >= 4 and
               partials[-1] - partials[-2] < 1e-8 and not math.isnan(partials[-1]))
    verdict = "converged-trend" if tail_ok else "inconclusive"
    return dg.BindingRecord(tuple(gammas), p_u, f_prime, tuple(partials),
                            tuple(comp_partials), verdict)


def rewalking_mane_expansion_estimate(m, comps, seed: int = 0) -> float:
    """``mane_expansion_estimate`` as it was when each avoidance window
    walked its stretch of orbit a second time for |Df^k|."""
    rng = np.random.default_rng(seed)
    lo, hi = m.domain
    best = math.inf
    seen = False
    for _ in range(dg.MANE_ORBITS):
        x = float(rng.uniform(lo, hi))
        orb = eval_orbit(m, x, dg.MANE_ORBIT_LEN)
        start = None
        for idx, z in enumerate(orb):
            if dg._in_any(z, comps):
                if start is not None and idx - start >= dg.MANE_K_MIN:
                    k = idx - start
                    try:
                        best = min(best, math.log(
                            stepwise_derivative_along(m, orb[start], k)) / k)
                        seen = True
                    except CriticalOrbitError:
                        pass
                start = None
            elif start is None:
                start = idx
    return best if seen else math.nan


def rewalking_first_entry_derivative_bound(m, comps, seed: int = 0) -> float:
    """``first_entry_derivative_bound`` as it was when |Df^r| walked the
    orbit to U a second time, with an orbit that has not entered U after
    ENTRY_HORIZON steps counted as no entry, and nan when no orbit enters."""
    rng = np.random.default_rng(seed)
    lo, hi = m.domain
    best = math.inf
    seen = False
    for _ in range(dg.ENTRY_SAMPLES):
        x = float(rng.uniform(lo, hi))
        z = x
        r = 0
        while r < dg.ENTRY_HORIZON and not dg._in_any(z, comps):
            z = m.apply(z)
            r += 1
        if r == 0 or not dg._in_any(z, comps):
            continue
        try:
            best = min(best, stepwise_derivative_along(m, x, r))
            seen = True
        except CriticalOrbitError:
            continue
    return best if seen else math.nan


@pytest.fixture(scope="session")
def golden_map():
    return tm.fixture("markov_golden")


@pytest.fixture(scope="session")
def tent_map():
    return tm.fixture("tent2")


@pytest.fixture(scope="session")
def quad_map():
    return tm.fixture("quad4")


@pytest.fixture(scope="session")
def full_map():
    return tm.fixture("markov_full")


@pytest.fixture(scope="session")
def golden_tower(golden_map):
    return tm.build_tower(golden_map, 5)


@pytest.fixture(scope="session")
def golden_scheme(golden_map):
    return tm.first_return_scheme(golden_map, (0.0, 2.0 / 3.0), 10)


@pytest.fixture(scope="session")
def tent_trivial_scheme(tent_map):
    return tm.first_return_scheme(tent_map, (0.0, 1.0), 5)


@pytest.fixture(scope="session")
def full_trivial_scheme(full_map):
    return tm.first_return_scheme(full_map, (0.0, 1.0), 5)


@pytest.fixture(scope="session")
def quad_x_cylinder(quad_map):
    word = tm.itinerary(quad_map, 0.3, 2, side="left")
    return tm.cylinder_of_word(quad_map, word)


@pytest.fixture(scope="session")
def quad_scheme(quad_map, quad_x_cylinder):
    return tm.extendible_return_scheme(
        quad_map, (quad_x_cylinder.lo, quad_x_cylinder.hi), 0.5, 14)
