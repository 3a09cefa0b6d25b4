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
import itertools
import json
import math
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
from .interval_map import eval_along_word, pullback_word
from .symbolic import DEGEN_TOL
from .thermo import Bracket, ThermoModel, gurevich_pressure, induced_potential


#: Largest branch family refined by the depth-2 power iteration.
REFINE_CAP = 256
#: Relative residual at which the depth-2 power iteration stops.
RESIDUAL_TOL = 1e-10
#: Levels of the product rule that projection resolves inside the base.
PROJECTION_DEPTH = 60
#: Seed of the word sample that the Gibbs-ratio check draws past its word cap.
RATIO_SEED = 0


@dataclass(frozen=True)
class GibbsSolution:
    model: ThermoModel
    shift: float
    lam: float
    lam_lo: float
    lam_hi: float
    masses: np.ndarray
    mass_lo: np.ndarray
    mass_hi: np.ndarray
    conformal: np.ndarray
    rho: np.ndarray
    residual: float

    @property
    def log_lam_bracket(self) -> Bracket:
        hi = math.log(self.lam_hi) if math.isfinite(self.lam_hi) else math.inf
        return Bracket(math.log(self.lam_lo), hi)


def solve_gibbs(model: ThermoModel, shift: float) -> GibbsSolution:
    """Leading eigendata of the induced transfer operator at the shift S.

    The beyond-cap tail weight goes into the eigenvalue bracket.
    """
    w_lo, w_hi, w_pt = model.weights(shift)
    tail = model.tail_weight(shift)
    if not math.isfinite(tail):
        raise InfinitePressureError("weight sum diverges at this shift")
    lam_lo, lam_hi = float(w_lo.sum()), float(w_hi.sum()) + tail
    n = model.n
    lam = float(w_pt.sum())
    masses = w_pt / lam
    rho = np.ones(n)
    conformal = masses.copy()
    residual = 0.0

    nontrivial = model.scheme is not None and \
        model.scheme.measured_distortion() > 1.0 + 1e-12
    if nontrivial and n <= REFINE_CAP:
        lam, rho, conformal, residual = _depth2_power_iteration(model, shift)
        masses = rho * conformal
        masses = masses / masses.sum()
    mass_lo = np.minimum(w_lo / max(lam_hi, lam), 1.0) \
        if math.isfinite(lam_hi) else np.zeros(n)
    mass_hi = np.minimum(w_hi / lam_lo, 1.0)
    return GibbsSolution(model, shift, lam, lam_lo, lam_hi, masses, mass_lo,
                         mass_hi, conformal, rho, residual)


def _depth2_power_iteration(model: ThermoModel, shift: float
                            ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Power-iterate the operator on branch-constant functions using
    weights evaluated at depth-2 cylinder midpoints."""
    branches = model.scheme.branches
    t = model.t
    # scalar ** and math.exp: numpy's vectorised versions differ in the last bit
    decay = [math.exp(-br.tau * shift) for br in branches]
    B = np.array([[df ** (-t) * d for df, d in zip(row, decay)]
                  for row in model.scheme.depth2_derivatives])
    n = len(branches)
    rho = np.ones(n) / n
    mvec = np.ones(n) / n
    lam = 1.0
    for _ in range(100_000):
        rho_new = B @ rho
        lam = float(rho_new.sum())
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
    return lam, rho / rho.mean(), mvec, residual


# ---------------------------------------------------------------------------
# Gibbs ratio
# ---------------------------------------------------------------------------

def gibbs_ratio_check(solution: GibbsSolution, depth: int,
                      word_cap: int = 20_000) -> float:
    """Measured two-sided Gibbs constant over induced cylinders.

    K = max over words w of depth <= given of the ratio between the
    product-rule cylinder mass and exp(Psi_n - n log lam) evaluated at
    the cylinder midpoint.  Exhaustive when the word count is small,
    seeded sampling otherwise.
    """
    if depth > 8:
        raise DomainError("depth must be <= 8")
    model = solution.model
    scheme = model.scheme
    n = len(solution.masses)
    if scheme is None:
        return 1.0
    m = scheme.map
    log_lam = math.log(solution.lam)
    rng = np.random.default_rng(RATIO_SEED)
    k_best = 1.0
    for d in range(1, depth + 1):
        total = n ** d
        if total <= word_cap:
            words = itertools.product(range(n), repeat=d)
        else:
            words = rng.integers(0, n, size=(word_cap, d)).tolist()
        for w in words:
            # suffix cylinders, innermost first: pullbacks contract error,
            # while forward iterates of one point would leave deep cylinders
            suffix = [None] * d
            lo, hi = scheme.branches[w[-1]].lo, scheme.branches[w[-1]].hi
            suffix[d - 1] = (lo, hi)
            for k in range(d - 2, -1, -1):
                br = scheme.branches[w[k]]
                a = br.pullback(m, suffix[k + 1][0])
                b = br.pullback(m, suffix[k + 1][1])
                suffix[k] = (min(a, b), max(a, b))
            psi = 0.0
            for k, i in enumerate(w):
                br = scheme.branches[i]
                df = br.dF(m, 0.5 * (suffix[k][0] + suffix[k][1]))
                psi += -model.t * math.log(df) - solution.shift * br.tau
            mass = float(np.prod([solution.masses[i] for i in w]))
            ratio = mass / math.exp(psi - d * log_lam)
            k_best = max(k_best, ratio, 1.0 / ratio)
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
        extra = model.tail.tau_weight_tail(model.t, solution.shift,
                                           math.log(model.k_dist))
        if not math.isfinite(extra):
            raise NonCompatibleError(
                "inducing time not integrable within the truncation bound")
        hi += extra / solution.lam_lo
    return Bracket(lo, hi)


def project_measure(scheme: InducingScheme, solution: GibbsSolution,
                    targets: Sequence) -> list[Bracket]:
    """mu(A) for each target interval or cylinder A, as brackets.

    mu(A) comes from the lift formula.  Values on sub-intervals of the
    inducing base are resolved by the product (Bernoulli) rule of the
    branch masses, recursively, with a bracket for the unresolved leaves.
    """
    tau = _tau_mean_bracket(solution)
    m = scheme.map
    branches = scheme.branches
    # branches are sorted by lo: those that can meet [lo, hi] run from the
    # first whose running-maximum hi exceeds lo to the last with lo < hi
    los = [br.lo for br in branches]
    his = list(itertools.accumulate((br.hi for br in branches), max))

    def base_mass(lo: float, hi: float, depth: int) -> Bracket:
        """Bracket on mu_F of [lo, hi] intersected with the base X."""
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

    def value(a_lo: float, a_hi: float) -> Bracket:
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
    h_f_pt = math.log(solution.lam) + model.t * lyap_f_pt + shift * tau_pt
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


def _edge_bisect(f, lo: float, hi: float, tol: float) -> float:
    """Zero crossing of the monotone-decreasing bound f, to width tol."""
    a, b = lo, hi
    while b - a > tol:
        c = 0.5 * (a + b)
        if c == a or c == b:  # no float left strictly inside [a, b]
            break
        if f(c) <= 0.0:
            b = c
        else:
            a = c
    return 0.5 * (a + b)


def equilibrium_shift_solve(scheme: InducingScheme, t: float,
                            tolerance: float = 1e-10) -> ShiftSolveResult:
    """Solve P_G(Psi_S) = 0 for the shift S by bracket-aware bisection.

    Monotone continuity of S -> P_G(Psi_S) justifies bisection; the two
    edges (lower bound crossing zero, upper bound crossing zero) are
    refined separately so the returned bracket is honest about model
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

    # find s_right with upper < 0
    s_right = 1.0
    for _ in range(80):
        if p_up(s_right) < 0.0:
            break
        s_right = max(2.0 * abs(s_right), s_right + 1.0)
    else:
        raise InfinitePressureError("upper pressure bound never went negative")
    # find s_left with lower > 0
    s_left = -1.0
    for _ in range(80):
        if p_low(s_left) > 0.0:
            break
        s_left = -max(2.0 * abs(s_left), abs(s_left) + 1.0)
    else:
        raise InfinitePressureError("lower pressure bound never went positive")

    edge_hi = _edge_bisect(p_up, s_left, s_right, tol=tolerance)
    edge_lo = _edge_bisect(p_low, s_left, s_right, tol=tolerance)
    # the float-evaluated bounds place their roots only to a few ulps
    pad = max(0.5 * tolerance,
              8.0 * math.ulp(max(1.0, abs(edge_lo), abs(edge_hi))))
    s_lo = min(edge_lo, edge_hi) - pad
    s_hi = max(edge_lo, edge_hi) + pad
    solution = solve_gibbs(model, 0.5 * (s_lo + s_hi))
    return ShiftSolveResult(s_lo, s_hi, solution, zeb)


def solution_to_json(solution: GibbsSolution) -> str:
    data = {
        "lambda": solution.lam,
        "lambda_bracket": [solution.lam_lo, solution.lam_hi],
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
