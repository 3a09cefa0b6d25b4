"""Gibbs/equilibrium data of truncated induced systems.

For a full-branch scheme the transfer operator restricted to functions
constant on branches is rank-one: the leading eigenvalue is the weight
sum and branch masses are weights over the eigenvalue.  When distortion
is non-trivial the solve is refined by power iteration on depth-2
cylinder weights.  Projection back to the interval follows the standard
lift formula mu(A) ~ sum_i sum_{k<tau_i} mu_F(X_i n f^-k A).

The projected interval measures are positive on open sets but are in
general not Gibbs for unbounded geometric potentials (the comparison
constant cannot be uniform near critical orbits); only the induced
system carries the Gibbs property computed here.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    InfinitePressureError,
    NonCompatibleError,
    NumericError,
)
from .inducing import InducingScheme
from .interval_map import InverseSteps
from .symbolic import DEGEN_TOL
from .thermo import (Bracket, ThermoModel, _log_weights_of, gurevich_pressure,
                     induced_potential)


#: Largest branch family refined by the depth-2 power iteration.
REFINE_CAP = 256
#: Relative residual at which the depth-2 power iteration stops.
RESIDUAL_TOL = 1e-10
#: Levels of the product rule that projection resolves inside the base.
PROJECTION_DEPTH = 60
#: Largest x with exp(x) in the float range.
LOG_FLOAT_MAX = math.log(sys.float_info.max)
#: Seed of the word sample that the Gibbs-ratio check draws past its word cap.
RATIO_SEED = 0


@dataclass(frozen=True)
class GibbsSolution:
    model: ThermoModel
    shift: float
    log_lam: float
    log_lam_bracket: Bracket
    masses: np.ndarray
    mass_lo: np.ndarray
    mass_hi: np.ndarray
    conformal: np.ndarray
    rho: np.ndarray
    residual: float


def solve_gibbs(model: ThermoModel, shift: float) -> GibbsSolution:
    """Leading eigendata of the induced transfer operator at the shift S.

    The beyond-cap tail weight goes into the eigenvalue bracket.  lam is
    carried as log lam, and each mass as exp(log w - log lam).

    A scheme with distortion is refined by power iteration on the depth-2
    matrix only while it has at most REFINE_CAP branches, since that
    matrix is n x n.  Past the cap it silently keeps the rank-one masses
    of an undistorted scheme: on quad4's extendible scheme (X the depth-2
    cylinder at 0.3, delta 0.5, t = 1) the Lyapunov exponent is 0.700499
    at caps 20 and 22, but 0.697993 at cap 24 (276 branches), where the
    depth-2 solve would still give 0.700499.
    """
    log_lo, log_hi = model.weight_sum(shift)
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
        log_lam, rho, conformal, residual = _depth2_power_iteration(model, shift)
        masses = rho * conformal
        masses = masses / masses.sum()
    mass_lo = np.exp(np.minimum(w_lo - max(log_hi, log_lam), 0.0))
    mass_hi = np.exp(np.minimum(w_hi - log_lo, 0.0))
    return GibbsSolution(model, shift, log_lam, Bracket(log_lo, log_hi), masses,
                         mass_lo, mass_hi, conformal, rho, residual)


def _depth2_power_iteration(model: ThermoModel, shift: float
                            ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Power-iterate the operator on branch-constant functions using
    weights evaluated at one point of each depth-2 cylinder (i, j), the
    F_i-preimage of branch j's midpoint: the matrix is exp(L - max L) for
    their logs L, and max L goes back into log lam."""
    logs = (_log_weights_of(model.t, np.log(model.scheme.depth2_derivatives))
            - shift * model.taus)
    top = float(logs.max())
    B = np.exp(logs - top)
    n = model.n
    rho = np.ones(n) / n
    mvec = np.ones(n) / n
    lam = 1.0
    for _ in range(100_000):
        rho_new = B @ rho
        lam = float(rho_new.sum())
        if not lam > 0.0:
            raise NumericError("depth-2 weights vanish against their largest")
        rho_new /= lam
        m_new = B.T @ mvec
        m_new /= m_new.sum()
        if float(np.max(np.abs(B @ rho_new - lam * rho_new))) <= RESIDUAL_TOL * lam \
                and float(np.max(np.abs(rho_new - rho))) <= RESIDUAL_TOL:
            rho, mvec = rho_new, m_new
            break
        rho, mvec = rho_new, m_new
    else:
        raise NumericError("depth-2 power iteration did not converge")
    residual = float(np.max(np.abs(B @ rho - lam * rho))) / lam
    return math.log(lam) + top, rho / rho.mean(), mvec, residual


# ---------------------------------------------------------------------------
# Gibbs ratio
# ---------------------------------------------------------------------------

def gibbs_ratio_check(solution: GibbsSolution, depth: int,
                      word_cap: int = 20_000) -> float:
    """Measured two-sided Gibbs constant over induced cylinders.

    K = max over words w of depth <= given of the ratio between the
    product-rule cylinder mass and exp(Psi_n - n log lam).  Psi_n is the
    Birkhoff sum S_n Phi(x_w) of Phi = -t log|DF| - S tau at one point
    x_w of the cylinder [w]: x_(j) is the midpoint of branch j, and
    x_w = F_{w_0}^{-1}(x_{w_1 ... w_n}), so F^k(x_w) = x_{w_k ... w_n}.
    At length 2 these are the points the depth-2 solve weighs.
    Exhaustive when the word count is small, seeded sampling otherwise.
    A ratio that over- or underflows raises NumericError.
    """
    if not 1 <= depth <= 8:
        raise DomainError(f"depth must be in 1..8, got {depth!r}")
    model = solution.model
    scheme = model.scheme
    n = len(solution.masses)
    if scheme is None:
        return 1.0
    m, branches = scheme.map, scheme.branches
    t, shift = model.t, solution.shift
    log_lam = solution.log_lam
    # per word suffix s, memoised: the point x_s, found innermost first
    # (pullbacks contract error, while forward iterates of one point would
    # leave deep cylinders), and the term -t log|DF_{s_0}| - S tau_{s_0} at
    # x_s; points are pulled back only for suffixes of length 3 or more
    @functools.cache
    def point(s: tuple[int, ...]) -> float:
        if len(s) == 1:
            return branches[s[0]].midpoint
        return branches[s[0]].pullback(m, point(s[1:]))

    @functools.cache
    def term(s: tuple[int, ...]) -> float:
        br = branches[s[0]]
        if len(s) == 1:
            df = br.df_mid
        elif len(s) == 2:
            df = scheme.depth2_derivatives[s[1], s[0]]
        else:
            df = br.dF(m, point(s))
        return -t * math.log(df) - shift * br.tau

    rng = np.random.default_rng(RATIO_SEED)
    k_best = 1.0
    for d in range(1, depth + 1):
        total = n ** d
        if total <= word_cap:
            words = itertools.product(range(n), repeat=d)
        else:
            words = map(tuple, rng.integers(0, n, size=(word_cap, d)).tolist())
        for w in words:
            psi = 0.0
            for k in range(d):
                psi += term(w[k:])
            mass = float(np.prod([solution.masses[i] for i in w]))
            try:
                ratio = mass / math.exp(psi - d * log_lam)
                k_best = max(k_best, ratio, 1.0 / ratio)
            except (OverflowError, ZeroDivisionError) as exc:
                raise NumericError(
                    f"Gibbs ratio of word {w} out of float range") from exc
    return k_best


# ---------------------------------------------------------------------------
# projection to the interval
# ---------------------------------------------------------------------------

def _tau_mean_bracket(solution: GibbsSolution) -> Bracket:
    """Bracket on the mean inducing time, the tail bound included."""
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


def project_measure(scheme: InducingScheme, solution: GibbsSolution,
                    targets: Sequence) -> list[Bracket]:
    """mu(A) for each target interval or cylinder A, as brackets.

    mu(A) comes from the lift formula.  Values on sub-intervals of the
    inducing base are resolved by the product (Bernoulli) rule of the
    branch masses, recursively, with a bracket for the unresolved leaves.
    A target with an end that is not finite raises DomainError.

    Two memos live for one call.  Target ends are pulled back along
    segment words through one ``InverseSteps``, keyed by (letter, point),
    so each inverse step is taken once however many segments and targets
    share it.  F at a branch cut inside the base is kept per branch,
    keyed by the cut, for the current and the previous target:
    neighbouring targets share an end, which cuts the same branches at
    the same points at every level of the product rule.
    """
    spans = [(a.lo, a.hi) if hasattr(a, "lo") else a for a in targets]
    for lo, hi in spans:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"target [{lo}, {hi}] has an end that is not finite")
    tau = _tau_mean_bracket(solution)
    m = scheme.map
    branches = scheme.branches
    x_lo, x_hi = scheme.x_lo, scheme.x_hi
    # branches are sorted by lo: those that can meet [lo, hi] run from the
    # first whose running-maximum hi exceeds lo to the last with lo < hi
    los = [br.lo for br in branches]
    his = list(itertools.accumulate((br.hi for br in branches), max))
    masses = solution.masses.tolist()
    images = scheme.end_images
    # what a branch inside [lo, hi] adds: all its mass, or nothing when it
    # is no longer than DEGEN_TOL
    inside = [mu if br.hi - br.lo > DEGEN_TOL else 0.0
              for br, mu in zip(branches, masses)]

    # F at cuts per branch, keyed by the cut, a zero by its repr, which tells
    # -0.0 from 0.0: this target's and the previous one's (one dict per
    # branch keeps the peak memory below that of (branch, cut) keys)
    cuts: list[dict[float | str, float]] = [{} for _ in branches]
    cuts_before = cuts

    def forward(i: int, x: float) -> float:
        key = x if x else repr(x)
        mine = cuts[i]
        y = mine.get(key)
        if y is None:
            y = cuts_before[i].get(key)
            if y is None:
                y = branches[i].forward(m, x)
            mine[key] = y
        return y

    def base_mass(lo: float, hi: float, depth: int) -> tuple[float, float]:
        """Bracket (lo, hi) on mu_F of [lo, hi] intersected with the base X."""
        lo = max(lo, x_lo)
        hi = min(hi, x_hi)
        if hi - lo <= DEGEN_TOL:
            return 0.0, 0.0
        if lo <= x_lo + DEGEN_TOL and hi >= x_hi - DEGEN_TOL:
            return 1.0, 1.0
        # branches in [in_lo, in_hi) lie inside [lo, hi]
        in_lo, in_hi = bisect.bisect_left(los, lo), bisect.bisect_right(his, hi)
        acc_lo = 0.0
        acc_hi = 0.0
        for i in range(bisect.bisect_right(his, lo), bisect.bisect_left(los, hi)):
            if in_lo <= i < in_hi:
                acc_lo += inside[i]
                acc_hi += inside[i]
                continue
            br = branches[i]
            p, q = max(lo, br.lo), min(hi, br.hi)
            if q - p <= DEGEN_TOL:
                continue
            mass = masses[i]
            if p <= br.lo + DEGEN_TOL and q >= br.hi - DEGEN_TOL:
                acc_lo += mass
                acc_hi += mass
                continue
            if depth <= 0:
                acc_hi += mass
                continue
            # an end cut off at a branch end maps to that end's image
            ends = images[i]
            u = ends[0] if ends and lo < br.lo else forward(i, p)
            v = ends[1] if ends and hi > br.hi else forward(i, q)
            inner_lo, inner_hi = base_mass(min(u, v), max(u, v), depth - 1)
            acc_lo += mass * inner_lo
            acc_hi += mass * inner_hi
        return acc_lo, min(acc_hi, 1.0)

    pull = InverseSteps(m)

    def value(a_lo: float, a_hi: float) -> Bracket:
        nonlocal cuts, cuts_before
        cuts_before, cuts = cuts, [{} for _ in branches]
        if a_hi <= a_lo:
            return Bracket(0.0, 0.0)
        num_lo = 0.0
        num_hi = 0.0
        for lo, hi, word, ends in scheme.segment_orbits:
            for k, (u, v) in enumerate(ends):
                j_lo, j_hi = min(u, v), max(u, v)
                p, q = max(j_lo, a_lo), min(j_hi, a_hi)
                if q - p <= DEGEN_TOL:
                    continue
                increasing = u <= v
                if p == j_lo:
                    xa = lo if increasing else hi
                else:
                    xa = pull(word[:k], p)
                if q == j_hi:
                    xb = hi if increasing else lo
                else:
                    xb = pull(word[:k], q)
                part_lo, part_hi = base_mass(min(xa, xb), max(xa, xb),
                                             PROJECTION_DEPTH)
                num_lo += part_lo
                num_hi += part_hi
        lo = min(max(num_lo / tau.hi, 0.0), 1.0)
        hi = min(num_hi / tau.lo, 1.0) if tau.lo > 0 else 1.0
        return Bracket(lo, hi)

    return [value(lo, hi) for lo, hi in spans]


# ---------------------------------------------------------------------------
# Abramov quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbramovRecord:
    tau_mean: float
    tau_mean_bracket: Bracket
    h_f: float
    entropy: float
    lyap_f: float
    lyap: float
    free_energy: float
    entropy_bracket: Bracket
    lyap_bracket: Bracket


def _mass_weighted_bracket(mass_lo: np.ndarray, mass_hi: np.ndarray,
                           v_lo: np.ndarray, v_hi: np.ndarray) -> Bracket:
    lo = np.where(v_lo >= 0, mass_lo * v_lo, mass_hi * v_lo)
    hi = np.where(v_hi >= 0, mass_hi * v_hi, mass_lo * v_hi)
    return Bracket(float(lo.sum()), float(hi.sum()))


def abramov_quantities(scheme: InducingScheme,
                       solution: GibbsSolution) -> AbramovRecord:
    """Entropy, Lyapunov exponent and free energy of the projected measure.

    Induced quantities divide by the mean inducing time; the induced
    entropy comes from h_F = log(lam) + t*lyap_F + S*tau_mean, which at
    the solved shift reduces to the equilibrium identity.
    """
    model = solution.model
    shift = solution.shift
    tau_b = _tau_mean_bracket(solution)
    tau_pt = float(np.sum(model.taus * solution.masses))
    lyap_f_pt = float(np.sum(solution.masses * model.log_df_pt))
    lyap_f_b = _mass_weighted_bracket(solution.mass_lo, solution.mass_hi,
                                      model.log_df_lo, model.log_df_hi)
    log_lam = solution.log_lam_bracket
    h_f_pt = solution.log_lam + model.t * lyap_f_pt + shift * tau_pt
    h_f_lo = log_lam.lo + min(model.t * lyap_f_b.lo, model.t * lyap_f_b.hi) \
        + min(shift * tau_b.lo, shift * tau_b.hi)
    h_f_hi = log_lam.hi + max(model.t * lyap_f_b.lo, model.t * lyap_f_b.hi) \
        + max(shift * tau_b.lo, shift * tau_b.hi)
    entropy = h_f_pt / tau_pt
    lyap = lyap_f_pt / tau_pt
    entropy_b = Bracket(h_f_lo / tau_b.hi if h_f_lo >= 0 else h_f_lo / tau_b.lo,
                        h_f_hi / tau_b.lo if h_f_hi >= 0 else h_f_hi / tau_b.hi)
    lyap_b = Bracket(lyap_f_b.lo / tau_b.hi if lyap_f_b.lo >= 0 else lyap_f_b.lo / tau_b.lo,
                     lyap_f_b.hi / tau_b.lo if lyap_f_b.hi >= 0 else lyap_f_b.hi / tau_b.hi)
    return AbramovRecord(tau_pt, tau_b, h_f_pt, entropy, lyap_f_pt, lyap,
                         entropy - model.t * lyap, entropy_b, lyap_b)


# ---------------------------------------------------------------------------
# pressure by shift solve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShiftSolveResult:
    s_lo: float
    s_hi: float
    solution: GibbsSolution
    zero_entropy_bound: float

    @property
    def bracket(self) -> Bracket:
        return Bracket(self.s_lo, self.s_hi)

    @property
    def mid(self) -> float:
        return 0.5 * (self.s_lo + self.s_hi)


def zero_entropy_competitor(scheme: InducingScheme, t: float) -> float:
    """Best atomic lower bound max over periodic orbits of -t*lyap(orbit)."""
    return max((-t * lm / p for lm, p in scheme.periodic_orbits),
               default=-math.inf)


def _false_position(f, a: float, fa: float, b: float, fb: float,
                    tol: float) -> float:
    """Zero crossing of the decreasing bound f in [a, b], to width tol,
    from the end values fa = f(a) > 0 >= fb = f(b).

    Illinois false position: each step goes to the zero of the chord
    through (a, fa) and (b, fb), and the end value kept at an end that
    has stayed fixed twice in a row is halved, so both ends move.  A
    chord zero within tol/2 of an end, an exact zero at the end
    included, moves to tol/2 from it, so the bracket can close.  The
    step is the midpoint when an end value is not finite (the upper
    bound is +inf left of the tail's pole), or when the chord zero is
    not in [a, b] or its moved step not strictly inside (a, b).  A moved
    step that leaves the bracket open finds f flat at float level, as
    it is where the float weight sum rounds to 1, and the rest of the
    edge is bisected.
    """
    half = 0.5 * tol
    kept = 0  # +1: the last step kept a, -1: it kept b
    flat = False
    while b - a > tol:
        c = 0.5 * (a + b)
        if c == a or c == b:  # no float left strictly inside [a, b]
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


def _bracket_end(model: ThermoModel, sign: float) -> tuple[float, Bracket]:
    """The first s = sign * 2^k, k = 0, ..., 79, past the zero crossing of
    the decreasing pressure bound on that side, the upper bound negative
    for sign > 0 and the lower bound positive for sign < 0, with the
    pressure bracket at s."""
    for k in range(80):
        s = sign * 2.0 ** k
        p = gurevich_pressure(model, s)
        if (p.hi < 0.0) if sign > 0 else (p.lo > 0.0):
            return s, p
    raise InfinitePressureError(
        "upper pressure bound never went negative" if sign > 0
        else "lower pressure bound never went positive")


def equilibrium_shift_solve(scheme: InducingScheme, t: float,
                            tolerance: float = 1e-10) -> ShiftSolveResult:
    """Solve P_G(Psi_S) = 0 for the shift S by bracket-aware false position.

    Both bounds of S -> P_G(Psi_S) are continuous and decreasing, so
    each has one zero crossing; the two edges (lower bound crossing
    zero, upper bound crossing zero) are refined separately, by false
    position with a midpoint fallback, to width ``tolerance`` or to
    float resolution, so the returned bracket is honest about model
    width.  The solved S is the pressure estimate of the original
    potential at this t, relative to the chosen scheme.
    """
    if not 0.0 < tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and > 0, got {tolerance!r}")
    model = induced_potential(scheme, t)

    def p_low(s: float) -> float:
        return gurevich_pressure(model, s).lo

    def p_up(s: float) -> float:
        return gurevich_pressure(model, s).hi

    zeb = zero_entropy_competitor(scheme, t)
    s_right, at_right = _bracket_end(model, 1.0)
    s_left, at_left = _bracket_end(model, -1.0)
    edge_hi = _false_position(p_up, s_left, at_left.hi, s_right, at_right.hi,
                              tolerance)
    edge_lo = _false_position(p_low, s_left, at_left.lo, s_right, at_right.lo,
                              tolerance)
    # the float-evaluated bounds place their roots only to a few ulps
    pad = max(0.5 * tolerance,
              8.0 * math.ulp(max(1.0, abs(edge_lo), abs(edge_hi))))
    s_lo = min(edge_lo, edge_hi) - pad
    s_hi = max(edge_lo, edge_hi) + pad
    solution = solve_gibbs(model, 0.5 * (s_lo + s_hi))
    return ShiftSolveResult(s_lo, s_hi, solution, zeb)


def solution_to_json(solution: GibbsSolution) -> str:
    data = {
        "log_lambda": solution.log_lam,
        "log_lambda_bracket": [solution.log_lam_bracket.lo,
                               solution.log_lam_bracket.hi],
        "t": solution.model.t,
        "shift": solution.shift,
        "truncation": solution.model.n,
        "residual": solution.residual,
        "branches": [
            {"tau": int(t), "mass": float(mu), "conformal": float(cm),
             "rho": float(r)}
            for t, mu, cm, r in zip(solution.model.taus, solution.masses,
                                    solution.conformal, solution.rho)
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True)


def mass_by_tau(solution: GibbsSolution) -> list[float]:
    """Masses grouped by inducing time: entry k is mu_F{tau = k+1}."""
    taus = solution.model.taus.astype(int)
    out = [0.0] * int(taus.max())
    for tau, mu in zip(taus, solution.masses):
        out[tau - 1] += float(mu)
    return out
