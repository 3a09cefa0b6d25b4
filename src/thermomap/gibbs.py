"""Gibbs/equilibrium data of truncated induced systems.

For a full-branch scheme the transfer operator restricted to functions
constant on branches is rank-one: the leading eigenvalue is the weight
sum and branch masses are weights over the eigenvalue.  When distortion
is non-trivial the solve is refined by power iteration on depth-2
cylinder weights.  Projection back to the interval follows the standard
lift formula mu(A) ~ sum_i sum_{k<tau_i} mu_F(X_i n f^-k A).

The pressure by shift solve is read over a t-grid by ``scan_pressure``,
which assembles a ``PressureCurve``: its ``to_csv`` is the curve as CSV
text with 9 significant digits, and ``detect_phase_transition`` looks
for kinks in it.

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
import operator
import statistics
import sys
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DomainError,
    InfinitePressureError,
    NonCompatibleError,
    NumericError,
    ThermomapError,
)
from .inducing import (InducingScheme, _check_scheme_kind, _scheme_options,
                       build_scheme)
from .interval_map import IntervalMap, InverseSteps
from .symbolic import DEGEN_TOL
from .thermo import (Bracket, ThermoModel, _log_weights_of, induced_potentials,
                     log_weight_sums, tail_classify_rows)


#: Largest branch family refined by the depth-2 power iteration.
REFINE_CAP = 256
#: Relative residual at which the depth-2 power iteration stops.
RESIDUAL_TOL = 1e-10
#: Guard on the levels of the product rule that projection resolves inside
#: the base: it stops a chain whose weight does not fall to CHAIN_FLOOR
#: (one through branches of mass 1).
PROJECTION_DEPTH = 60
#: Chain weight at or below which the product rule stops a chain, far below
#: float resolution: on the 32 sin(pi x) bench targets no float moves at
#: 2^-72, while one edge moves at 2^-64.
CHAIN_FLOOR = 2.0 ** -80
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
    depth-2 solve would still give 0.700499.  It is the one-row case of
    ``_solve_gibbs_rows``.
    """
    return _raised(_solve_gibbs_rows([model], [shift])[0])


def _raised(result):
    """A one-row result as it is, or the ThermomapError stored for it,
    raised."""
    if isinstance(result, ThermomapError):
        try:
            raise result
        finally:
            del result  # its traceback holds this frame: make no cycle
    return result


def _solve_gibbs_rows(models: Sequence[ThermoModel], shifts: Sequence[float]
                      ) -> list[GibbsSolution | ThermomapError]:
    """``solve_gibbs`` at each row (models[r], shifts[r]), the models of one
    scheme: entry r is that solution, or the ThermomapError it raises.

    One ``log_weight_sums`` call gives every row's eigenvalue bracket.  The
    rank-one log lam, masses and mass brackets are (R, n) arrays, each row
    reduced alone, so its floats do not depend on the other rows; log lam
    takes a scalar log per row.  A distorted scheme runs the depth-2 power
    iteration row by row.  The solutions hold row views of the arrays.
    """
    if not models:
        return []
    sums = log_weight_sums([m for m in models for _ in (0, 1)],
                           [False, True] * len(models),
                           [s for s in shifts for _ in (0, 1)])
    log_lo, log_hi = sums[0::2], sums[1::2]
    model = models[0]
    decay = np.array(shifts)[:, None] * model.taus
    w_edges = np.array([m.log_w for m in models]) - decay[:, None]
    w_pt = np.array([m.log_w_pt for m in models]) - decay
    top = w_pt.max(axis=1)
    log_lam = [a + math.log(b) for a, b in
               zip(top.tolist(), np.exp(w_pt - top[:, None]).sum(axis=1).tolist())]
    masses = np.exp(w_pt - np.array(log_lam)[:, None])
    rho, conformal, residual = np.ones_like(masses), masses.copy(), [0.0] * len(models)
    # a diverging row keeps its rank-one arrays, and its error replaces them
    out: list[GibbsSolution | ThermomapError | None] = [
        InfinitePressureError("weight sum diverges at this shift") if hi == math.inf
        else None for hi in log_hi]
    if model.scheme is not None and model.n <= REFINE_CAP and \
            model.scheme.measured_distortion() > 1.0 + 1e-12:
        for r in [r for r, res in enumerate(out) if res is None]:
            try:
                log_lam[r], rho[r], conformal[r], residual[r] = \
                    _depth2_power_iteration(models[r], shifts[r])
            except ThermomapError as exc:
                out[r] = exc.with_traceback(None)  # a stored traceback makes a cycle
                continue
            mixed = rho[r] * conformal[r]
            masses[r] = mixed / mixed.sum()
    # the mass bracket: w_lo / max(upper sum, lam) and w_hi / lower sum,
    # each at most 1
    divisors = np.array([(max(hi, lam), lo)
                         for lo, hi, lam in zip(log_lo, log_hi, log_lam)])
    mass_lo, mass_hi = np.exp(np.minimum(w_edges - divisors[:, :, None], 0.0)
                              ).transpose(1, 0, 2)
    return [res if res is not None else
            GibbsSolution(m, shift, lam, Bracket(lo, hi), masses[r], mass_lo[r],
                          mass_hi[r], conformal[r], rho[r], residual[r])
            for r, (res, m, shift, lam, lo, hi) in enumerate(
                zip(out, models, shifts, log_lam, log_lo, log_hi))]


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
    Exhaustive when the word count at a depth is at most ``word_cap``,
    ``word_cap`` seeded samples otherwise.  Each suffix's point and term
    are computed once, in one dict that is freed when the call returns:
    for k = 2, ..., depth, the distinct length-k suffixes that the words
    end in are pulled back in one stacked ``depth2_points`` pass, from
    the points of their length-(k-1) suffixes.  At depth 2 with every
    length-2 word checked, their terms are read from the depth-2 matrix
    instead.  A ratio that over- or underflows raises NumericError.
    """
    if not 1 <= depth <= 8:
        raise DomainError(f"depth must be in 1..8, got {depth!r}")
    if not isinstance(word_cap, (int, np.integer)) or word_cap < 1:
        raise DomainError(f"word_cap must be an integer >= 1, got {word_cap!r}")
    model = solution.model
    scheme = model.scheme
    n = len(solution.masses)
    if scheme is None:
        return 1.0
    branches = scheme.branches
    t, shift = model.t, solution.shift
    log_lam = solution.log_lam
    masses = solution.masses.tolist()
    rng = np.random.default_rng(RATIO_SEED)
    words = [list(itertools.product(range(n), repeat=d)) if n ** d <= word_cap
             else list(map(tuple, rng.integers(0, n, size=(word_cap, d)).tolist()))
             for d in range(1, depth + 1)]
    # per word suffix s: (x_s, the term -t log|DF_{s_0}| - S tau_{s_0} at
    # x_s), points found innermost first (pullbacks contract error, while
    # forward iterates of one point would leave deep cylinders)
    memo: dict[tuple[int, ...], tuple[float | None, float]] = {}

    def remember(s: tuple[int, ...], x: float | None, df: float) -> None:
        memo[s] = (x, -t * math.log(df) - shift * branches[s[0]].tau)

    for j, br in enumerate(branches):
        remember((j,), br.midpoint, br.df_mid)
    for k in range(2, depth + 1):
        suffixes = list(dict.fromkeys(w[-k:] for ws in words[k - 1:] for w in ws))
        first = [s[0] for s in suffixes]
        if depth == 2 and n * n <= word_cap:
            # every pair is checked, and only |DF| is read: the depth-2
            # solve has these entries cached
            xs = itertools.repeat(None)
            dfs = scheme.depth2_derivatives[[s[1] for s in suffixes], first].tolist()
        else:
            ys = np.array([memo[s[1:]][0] for s in suffixes])[:, None]
            xs, dfs = (a.ravel().tolist() for a in scheme.depth2_points(first, ys))
        for s, x, df in zip(suffixes, xs, dfs):
            remember(s, x, df)
    k_best = 1.0
    for d, ws in enumerate(words, 1):
        for w in ws:
            psi = 0.0
            for k in range(d):
                psi += memo[w[k:]][1]
            mass = math.prod([masses[i] for i in w])
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
    return _raised(_tau_mean_brackets([solution], solution.mass_lo[None],
                                      solution.mass_hi[None])[0])


def _tau_mean_brackets(solutions: Sequence[GibbsSolution], mass_lo: np.ndarray,
                       mass_hi: np.ndarray) -> list[Bracket | ThermomapError]:
    """``_tau_mean_bracket`` of each solution, from the (R, n) stacks of
    their mass brackets: two row-wise sums, and a scalar tail term per row.
    Entry r is the bracket, or the NonCompatibleError of its row."""
    taus = solutions[0].model.taus
    out: list[Bracket | ThermomapError] = []
    for sol, lo, hi in zip(solutions, (taus * mass_lo).sum(axis=1).tolist(),
                           (taus * mass_hi).sum(axis=1).tolist()):
        model = sol.model
        if model.tail is not None:
            log_extra = model.tail.tau_weight_tail(model.t, sol.shift,
                                                   math.log(model.k_dist)) \
                - sol.log_lam_bracket.lo
            if not log_extra < LOG_FLOAT_MAX:
                out.append(NonCompatibleError(
                    "inducing time not integrable within the truncation bound"))
                continue
            hi += math.exp(log_extra)
        out.append(Bracket(lo, hi))
    return out


class _ProductRule:
    """mu_F on sub-intervals of the base X by the product rule, for one
    projection call.  F at a branch cut, a branch end included, is kept
    per branch, keyed by the cut, a zero by its repr, which tells -0.0
    from 0.0 (one dict per branch keeps the peak memory below that of
    (branch, cut) keys)."""

    def __init__(self, scheme: InducingScheme, masses: list[float]):
        self.map, self.branches = scheme.map, scheme.branches
        self.x_lo, self.x_hi = scheme.x_lo, scheme.x_hi
        # branches are sorted by lo: those that can meet [lo, hi] run from
        # the first whose running-maximum hi exceeds lo to the last with
        # lo < hi
        self.los = [br.lo for br in self.branches]
        self.his = list(itertools.accumulate((br.hi for br in self.branches),
                                             max))
        self.masses = masses
        # what a branch inside [lo, hi] adds: all its mass, or nothing when
        # it is no longer than DEGEN_TOL
        self.inside = [mu if br.hi - br.lo > DEGEN_TOL else 0.0
                       for br, mu in zip(self.branches, masses)]
        self.cuts: list[dict[float | str, float]] = [{} for _ in self.branches]

    def forward(self, i: int, x: float) -> float:
        """F(x) on branch i, memoised."""
        key = x if x else repr(x)
        mine = self.cuts[i]
        y = mine.get(key)
        if y is None:
            y = mine[key] = self.branches[i].forward(self.map, x)
        return y

    def base_mass(self, lo: float, hi: float, depth: int,
                  weight: float) -> tuple[float, float]:
        """Bracket (lo, hi) on mu_F of [lo, hi] intersected with the base X,
        for a chain of the given weight: 1 at the top level, times the mass
        of each partial branch the recursion has entered.

        A partial branch whose weight times mass is at most CHAIN_FLOOR,
        or met at depth 0, is a leaf: all of its mass goes to the upper
        edge and none to the lower.  Float rounding is monotone, so each
        edge lies outside the edge that recursing further would give, and
        each chain stopped by the floor moves the edge of the top-level
        sum outward by at most CHAIN_FLOOR.
        """
        lo = max(lo, self.x_lo)
        hi = min(hi, self.x_hi)
        if hi - lo <= DEGEN_TOL:
            return 0.0, 0.0
        if lo <= self.x_lo + DEGEN_TOL and hi >= self.x_hi - DEGEN_TOL:
            return 1.0, 1.0
        los, his, branches = self.los, self.his, self.branches
        # branches in [in_lo, in_hi) lie inside [lo, hi]
        in_lo, in_hi = bisect.bisect_left(los, lo), bisect.bisect_right(his, hi)
        acc_lo = 0.0
        acc_hi = 0.0
        for i in range(bisect.bisect_right(his, lo), bisect.bisect_left(los, hi)):
            if in_lo <= i < in_hi:
                acc_lo += self.inside[i]
                acc_hi += self.inside[i]
                continue
            br = branches[i]
            p, q = max(lo, br.lo), min(hi, br.hi)
            if q - p <= DEGEN_TOL:
                continue
            mass = self.masses[i]
            if p <= br.lo + DEGEN_TOL and q >= br.hi - DEGEN_TOL:
                acc_lo += mass
                acc_hi += mass
                continue
            inner_weight = weight * mass
            if depth <= 0 or inner_weight <= CHAIN_FLOOR:
                acc_hi += mass
                continue
            u, v = self.forward(i, p), self.forward(i, q)
            inner_lo, inner_hi = self.base_mass(min(u, v), max(u, v), depth - 1,
                                                inner_weight)
            acc_lo += mass * inner_lo
            acc_hi += mass * inner_hi
        return acc_lo, min(acc_hi, 1.0)


def project_measure(scheme: InducingScheme, solution: GibbsSolution,
                    targets: Sequence) -> list[Bracket]:
    """mu(A) for each target interval or cylinder A, as brackets.

    mu(A) comes from the lift formula.  Values on sub-intervals of the
    inducing base are resolved by the product (Bernoulli) rule of the
    branch masses, recursively, with a bracket for the unresolved leaves.
    A chain of the recursion stops where its weight, the product of the
    masses of the partial branches it has entered, falls to CHAIN_FLOOR
    (2^-80), or at the guard depth PROJECTION_DEPTH: the stopped branch
    puts all of its mass in the upper edge and none in the lower.  A
    stop only widens a bracket, each by at most CHAIN_FLOOR in mu_F of
    the base before the division by the mean inducing time.
    A target with an end that is not finite raises DomainError.

    Two memos live for one call and are freed when it returns.  Target
    ends are pulled back along segment words through one
    ``InverseSteps``, keyed by (letter, point), so each inverse step is
    taken once however many segments and targets share it.  F at a
    branch cut inside the base, a branch end included, is kept per
    branch, keyed by the cut: neighbouring targets share an end, which
    cuts the same branches at the same points at every level of the
    product rule.
    """
    spans = [(a.lo, a.hi) if hasattr(a, "lo") else a for a in targets]
    for lo, hi in spans:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"target [{lo}, {hi}] has an end that is not finite")
    tau = _tau_mean_bracket(solution)
    rule = _ProductRule(scheme, solution.masses.tolist())
    pull = InverseSteps(scheme.map)
    out = []
    for a_lo, a_hi in spans:
        if a_hi <= a_lo:
            out.append(Bracket(0.0, 0.0))
            continue
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
                part_lo, part_hi = rule.base_mass(min(xa, xb), max(xa, xb),
                                                  PROJECTION_DEPTH, 1.0)
                num_lo += part_lo
                num_hi += part_hi
        lo = min(max(num_lo / tau.hi, 0.0), 1.0)
        hi = min(num_hi / tau.lo, 1.0) if tau.lo > 0 else 1.0
        out.append(Bracket(lo, hi))
    return out


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


def _over(v: float, d: float) -> float:
    """v / d for d >= 0, where v / 0 is +-inf, or v itself for v == 0."""
    return v / d if d else math.copysign(math.inf, v) if v else v


def _per_tau(b_lo: float, b_hi: float, tau: Bracket) -> Bracket:
    """The bracket [b_lo, b_hi] divided by the non-negative bracket tau:
    an edge that would divide by a tau edge of 0 (tau_mean's lower edge
    underflows at large t) is +-inf, or 0 where it is 0."""
    return Bracket(_over(b_lo, tau.hi) if b_lo >= 0 else _over(b_lo, tau.lo),
                   _over(b_hi, tau.lo) if b_hi >= 0 else _over(b_hi, tau.hi))


def abramov_quantities(scheme: InducingScheme,
                       solution: GibbsSolution) -> AbramovRecord:
    """Entropy, Lyapunov exponent and free energy of the projected measure.

    Induced quantities divide by the mean inducing time; the induced
    entropy comes from h_F = log(lam) + t*lyap_F + S*tau_mean, which at
    the solved shift reduces to the equilibrium identity.  It is the
    one-row case of ``abramov_rows``.
    """
    return _raised(abramov_rows([solution])[0])


def abramov_rows(solutions: Sequence[GibbsSolution]
                 ) -> list[AbramovRecord | ThermomapError]:
    """``abramov_quantities`` of each solution, the solutions of one scheme:
    every mass-weighted sum is a row-wise reduction of the stacked masses,
    and the rest is scalar per row.  Entry r is the record, or the
    ThermomapError of its row."""
    if not solutions:
        return []
    model = solutions[0].model
    masses, mass_lo, mass_hi = (np.array([getattr(sol, name) for sol in solutions])
                                for name in ("masses", "mass_lo", "mass_hi"))
    tau_pts = (model.taus * masses).sum(axis=1).tolist()
    lyap_f_pts = (masses * model.log_df_pt).sum(axis=1).tolist()
    # the mass-weighted bracket on lyap_F: each edge takes the mass edge
    # that moves it outward
    v_lo, v_hi = model.log_df_lo, model.log_df_hi
    lyap_los = np.where(v_lo >= 0, mass_lo * v_lo, mass_hi * v_lo).sum(axis=1).tolist()
    lyap_his = np.where(v_hi >= 0, mass_hi * v_hi, mass_lo * v_hi).sum(axis=1).tolist()
    out: list[AbramovRecord | ThermomapError] = []
    for sol, tau_b, tau_pt, lyap_f_pt, lyap_lo, lyap_hi in zip(
            solutions, _tau_mean_brackets(solutions, mass_lo, mass_hi),
            tau_pts, lyap_f_pts, lyap_los, lyap_his):
        if isinstance(tau_b, ThermomapError):
            out.append(tau_b)
            continue
        t, shift = sol.model.t, sol.shift
        log_lam = sol.log_lam_bracket
        h_f_pt = sol.log_lam + t * lyap_f_pt + shift * tau_pt
        h_f_lo = log_lam.lo + min(t * lyap_lo, t * lyap_hi) \
            + min(shift * tau_b.lo, shift * tau_b.hi)
        h_f_hi = log_lam.hi + max(t * lyap_lo, t * lyap_hi) \
            + max(shift * tau_b.lo, shift * tau_b.hi)
        entropy = h_f_pt / tau_pt
        lyap = lyap_f_pt / tau_pt
        out.append(AbramovRecord(tau_pt, tau_b, h_f_pt, entropy, lyap_f_pt, lyap,
                                 entropy - t * lyap, _per_tau(h_f_lo, h_f_hi, tau_b),
                                 _per_tau(lyap_lo, lyap_hi, tau_b)))
    return out


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


def _chord_step(a: float, fa: float, b: float, fb: float, flat: bool,
                tol: float) -> tuple[float, bool] | None:
    """The next step of the false-position search for the zero crossing of
    a decreasing bound f in [a, b], from the end values fa = f(a) > 0 >=
    fb = f(b): the step c with the flat flag that it leaves, or None once
    the edge is closed, at width tol or with no float strictly inside.

    The step is the zero of the chord through (a, fa) and (b, fb).  A
    chord zero within tol/2 of an end, an exact zero at the end
    included, moves to tol/2 from it, so the bracket can close.  The
    step is the midpoint when an end value is not finite (the upper
    bound is +inf left of the tail's pole), or when the chord zero is
    not in [a, b] or its moved step not strictly inside (a, b).  A moved
    step that leaves the bracket open finds f flat at float level, as
    it is where the float weight sum rounds to 1: the caller passes
    flat on, and the rest of the edge is bisected.
    """
    if b - a <= tol:
        return None
    c = 0.5 * (a + b)
    if c == a or c == b:  # no float left strictly inside [a, b]
        return None
    half = 0.5 * tol
    if not flat and fa < math.inf and -math.inf < fb < fa:
        x = a + (b - a) * (fa / (fa - fb))
        if a <= x <= b:
            y = min(max(x, a + half), b - half)
            if a < y < b:
                c, flat = y, y != x
    return c, flat


def _shift_solves(scheme: InducingScheme, ts: Sequence[float],
                  tolerance: float) -> list[ShiftSolveResult | ThermomapError]:
    """``equilibrium_shift_solve`` at each t, with the searches of every t
    run side by side: each step evaluates every weight sum that an open
    search asks for in one ``log_weight_sums`` call.  Entry i is the
    result at ts[i], or the ThermomapError that solve raises.

    Each t first searches its two ends, s = 2^k and s = -2^k for k = 0,
    ..., 79, both bounds at each s, for the first s where the upper
    bound is negative and the first where the lower bound is positive.
    In the step after both ends are found it searches its two edges,
    the upper and the lower bound's zero crossing between the ends, by
    Illinois false position: each step is ``_chord_step``'s, and the end
    value kept at an end that has stayed fixed twice in a row is halved,
    so both ends move.  An end fails only at k = 79; the right end's
    error wins when both fail.  Once every search has closed, one
    ``_solve_gibbs_rows`` call solves every closed t at the midpoint of
    its padded bracket.
    """
    if not 0.0 < tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and > 0, got {tolerance!r}")
    out: list[ShiftSolveResult | ThermomapError | None] = [None] * len(ts)
    # each open t: [entry, model, zeb, k, ends, edges]; an end is (s, the
    # pressure Bracket there), None while k searches; edges is None until
    # both ends are found, then two lists [a, fa, b, fb, kept, c, flat],
    # c the step asked for, None once the edge is closed, and kept +1 when
    # the last step kept a, -1 when it kept b
    solves = []
    for i, (t, model) in enumerate(zip(ts, induced_potentials(scheme, ts))):
        try:
            solves.append([i, model, zero_entropy_competitor(scheme, t), 0,
                           [None, None], None])
        except ThermomapError as exc:
            out[i] = exc.with_traceback(None)  # a stored traceback makes a cycle
    # each closed t: (entry, model, zeb, s_lo, s_hi)
    closed = []
    while solves:
        asks = []
        for _, model, _, k, ends, edges in solves:
            if edges is None:
                for sign, end in zip((1.0, -1.0), ends):
                    if end is None:
                        asks += [(model, False, sign * 2.0 ** k),
                                 (model, True, sign * 2.0 ** k)]
            else:
                asks += [(model, upper, edge[5])
                         for upper, edge in zip((True, False), edges)
                         if edge[5] is not None]
        got = iter(log_weight_sums(*zip(*asks)))
        still = []
        for solve in solves:
            i, model, zeb, k, ends, edges = solve
            if edges is None:
                for j, sign in enumerate((1.0, -1.0)):
                    if ends[j] is None:
                        p = Bracket(next(got), next(got))
                        if (p.hi < 0.0) if sign > 0 else (p.lo > 0.0):
                            ends[j] = (sign * 2.0 ** k, p)
                if None in ends:
                    if k == 79:
                        out[i] = InfinitePressureError(
                            "upper pressure bound never went negative"
                            if ends[0] is None
                            else "lower pressure bound never went positive")
                    else:
                        solve[3] = k + 1
                        still.append(solve)
                    continue
                (s_right, at_right), (s_left, at_left) = ends
                moved = solve[5] = edges = [
                    [s_left, at_left.hi, s_right, at_right.hi, 0, None, False],
                    [s_left, at_left.lo, s_right, at_right.lo, 0, None, False]]
            else:
                moved = [edge for edge in edges if edge[5] is not None]
                for edge in moved:
                    a, fa, b, fb, kept, c, _ = edge
                    fc = next(got)
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
                    edge[:5] = a, fa, b, fb, kept
            for edge in moved:
                a, fa, b, fb, _, _, flat = edge
                edge[5:] = _chord_step(a, fa, b, fb, flat, tolerance) or (None, flat)
            if edges[0][5] is None and edges[1][5] is None:
                up, low = edges
                edge_lo, edge_hi = 0.5 * (low[0] + low[2]), 0.5 * (up[0] + up[2])
                # the float-evaluated bounds place their roots only to a
                # few ulps
                pad = max(0.5 * tolerance,
                          8.0 * math.ulp(max(1.0, abs(edge_lo), abs(edge_hi))))
                closed.append((i, model, zeb, min(edge_lo, edge_hi) - pad,
                               max(edge_lo, edge_hi) + pad))
            else:
                still.append(solve)
        solves = still
    solutions = _solve_gibbs_rows([c[1] for c in closed],
                                  [0.5 * (c[3] + c[4]) for c in closed])
    for (i, _, zeb, s_lo, s_hi), sol in zip(closed, solutions):
        out[i] = sol if isinstance(sol, ThermomapError) \
            else ShiftSolveResult(s_lo, s_hi, sol, zeb)
    return out


def equilibrium_shift_solve(scheme: InducingScheme, t: float,
                            tolerance: float = 1e-10) -> ShiftSolveResult:
    """Solve P_G(Psi_S) = 0 for the shift S by bracket-aware false position.

    Both bounds of S -> P_G(Psi_S) are continuous and decreasing, so
    each has one zero crossing; the two edges (lower bound crossing
    zero, upper bound crossing zero) are refined separately, by false
    position with a midpoint fallback, to width ``tolerance`` or to
    float resolution, so the returned bracket is honest about model
    width.  The solved S is the pressure estimate of the original
    potential at this t, relative to the chosen scheme.  It is the
    one-t case of the searches that ``scan_pressure`` runs side by side
    over its whole t-grid.
    """
    return _raised(_shift_solves(scheme, [t], tolerance)[0])


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
    """Masses grouped by inducing time: entry k is mu_F{tau = k+1}.  It is
    the one-row case of ``mass_by_tau_rows``."""
    return mass_by_tau_rows([solution])[0].tolist()


def mass_by_tau_rows(solutions: Sequence[GibbsSolution]) -> np.ndarray:
    """``mass_by_tau`` of each solution, the solutions of one scheme, as the
    rows of one (R, max tau) array: each entry adds its branches' masses
    one at a time, in branch order (``np.add.at`` is unbuffered)."""
    if not solutions:
        return np.zeros((0, 0))
    cols = solutions[0].model.taus.astype(int) - 1
    out = np.zeros((len(solutions), int(cols.max()) + 1))
    cells = np.arange(len(out))[:, None] * out.shape[1] + cols
    np.add.at(out.reshape(-1), cells.ravel(),
              np.array([sol.masses for sol in solutions]).ravel())
    return out


# ---------------------------------------------------------------------------
# pressure curve
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v + 0.0:.9g}"  # +0.0 normalizes negative zero
    return str(v)


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """A table as CSV text: one line per row, the header first, every
    cell as ``_fmt`` writes it."""
    return "".join(",".join(map(_fmt, row)) + "\n"
                   for row in itertools.chain([header], rows))


@dataclass(frozen=True)
class ScanConfig:
    map: IntervalMap
    t_min: float
    t_max: float
    steps: int
    scheme_kind: str = "first-return"   # "first-return" | "extendible"
    x_point: float | None = None
    x_depth: int = 1
    delta: float = 0.5
    cap: int = 12                        # inducing time cap T
    tolerance: float = 1e-10

    def __post_init__(self):
        _check_scheme_kind(self.scheme_kind)
        if not self.t_min < self.t_max:
            raise DomainError("t_min must be < t_max")
        if self.steps < 2:
            raise DomainError("steps must be >= 2")
        if not 0.0 < self.tolerance < math.inf:
            raise DomainError(f"tolerance must be finite and > 0, got {self.tolerance!r}")
        if not math.isfinite((self.t_max - self.t_min) * (self.steps - 1)):
            raise DomainError("t-grid overflows: (t_max - t_min) * (steps - 1) "
                              "is not finite")

    def t_grid(self) -> list[float]:
        span = self.t_max - self.t_min
        return [self.t_min + span * k / (self.steps - 1) for k in range(self.steps)]


@dataclass(frozen=True)
class CurveRow:
    t: float
    p_lo: float
    p_hi: float
    zero_entropy: float
    tail_kind: str
    tail_rate: float
    tau_mean: float
    lyap: float
    entropy: float

    @property
    def p_mid(self) -> float:
        return 0.5 * (self.p_lo + self.p_hi)

    @property
    def width(self) -> float:
        return self.p_hi - self.p_lo

    def as_tuple(self) -> tuple:
        return _curve_cells(self)


CSV_HEADER = tuple(f.name for f in fields(CurveRow))
_curve_cells = operator.attrgetter(*CSV_HEADER)


@dataclass
class PressureCurve:
    rows: list[CurveRow] = field(default_factory=list)

    def to_csv(self) -> str:
        return csv_text(CSV_HEADER, map(_curve_cells, self.rows))


@dataclass(frozen=True)
class TransitionReport:
    kinks: tuple[float, ...]
    competitor_crossings: tuple[float, ...]
    smooth: bool
    inconclusive: bool
    max_second_difference: float


def detect_phase_transition(curve: PressureCurve) -> TransitionReport:
    """Flag grid points where the curve bends far above the noise floor.

    The second central difference of bracket midpoints is compared with
    5x the local bracket widths and with the background curvature level;
    a clean kink stands out on both counts.  This is the numerical
    stand-in for smoothness of the pressure curve: silence means "no
    transition visible at this resolution", never a proof.
    """
    rows = [r for r in curve.rows if not math.isnan(r.p_lo)]
    if len(rows) < 5:
        return TransitionReport((), (), False, True, math.nan)
    rows = sorted(rows, key=lambda r: r.t)
    mids = [r.p_mid for r in rows]
    widths = [r.width for r in rows]
    scale = max(abs(v) for v in mids) * 1e-12 + 1e-15
    d2 = [abs(mids[i - 1] - 2.0 * mids[i] + mids[i + 1])
          for i in range(1, len(rows) - 1)]
    med = statistics.median(d2)
    kinks = []
    for i in range(1, len(rows) - 1):
        noise = widths[i - 1] + 2.0 * widths[i] + widths[i + 1]
        v = d2[i - 1]
        if v > 5.0 * noise + scale and v > 10.0 * med + scale:
            kinks.append(rows[i].t)
    crossings = [r.t for r in rows
                 if not math.isnan(r.zero_entropy) and r.zero_entropy >= r.p_hi - 1e-12]
    return TransitionReport(tuple(kinks), tuple(crossings),
                            smooth=not kinks, inconclusive=False,
                            max_second_difference=max(d2) if d2 else math.nan)


def _error_kind(exc: ThermomapError) -> str:
    """The kind that a scan row records for its failure; any other error
    is raised, and ends the scan."""
    if isinstance(exc, InfinitePressureError):
        return "error:infinite-pressure"
    if isinstance(exc, NonCompatibleError):
        return "error:non-compatible"
    if isinstance(exc, NumericError):
        return "error:numeric"
    raise exc


def scan_pressure(config: ScanConfig,
                  scheme: InducingScheme | None = None) -> PressureCurve:
    """Solve the shift equation on the t-grid and assemble the curve.

    The shift solves of all grid points run in lockstep, one batched
    weight sum per search step.  What follows the search is done once
    for the whole grid, on (T, n) arrays: the Gibbs masses at every
    midpoint (one more batched weight sum), the Abramov sums, the masses
    by inducing time and the tail fits.  Each row's floats are those of
    its own ``equilibrium_shift_solve``, ``abramov_quantities`` and
    ``tail_classify``.  Per-row numeric failures are recorded in the row
    and the scan continues.
    """
    if scheme is None:
        scheme = build_scheme(config.map, **_scheme_options(config))
    curve = PressureCurve()
    nan = math.nan
    ts = config.t_grid()
    results = _shift_solves(scheme, ts, config.tolerance)
    solutions = [res.solution for res in results
                 if not isinstance(res, ThermomapError)]
    post = zip(abramov_rows(solutions),
               tail_classify_rows(mass_by_tau_rows(solutions)))
    for t, res in zip(ts, results):
        if not isinstance(res, ThermomapError):
            ab, tail = next(post)
            if not isinstance(ab, ThermomapError):
                rate = tail.rate if tail.kind == "exponential" else tail.exponent
                curve.rows.append(CurveRow(t, res.s_lo, res.s_hi,
                                           res.zero_entropy_bound, tail.kind, rate,
                                           ab.tau_mean, ab.lyap, ab.entropy))
                continue
            res = ab
        curve.rows.append(CurveRow(t, nan, nan, nan, _error_kind(res),
                                   nan, nan, nan, nan))
    return curve
