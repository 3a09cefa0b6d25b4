"""Induced potentials and Gurevich pressure brackets.

Every quantity is carried as a two-sided bracket: per-branch weights
come from derivative brackets, truncated branch families get an explicit
tail bound (from lap growth and the scheme's expansion), and pressure is
reported as an interval, never a bare point estimate.  For Markov
piecewise-linear maps, ``markov_oracle`` gives the pressure independently,
as the log spectral radius of the weighted transition matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DegenerateBranchError, DomainError, NotApplicableError,
                     NumericError)
from .inducing import InducingScheme, TailInfo
from .interval_map import IntervalMap
from .symbolic import laps_entropy

#: Log weights are held inside [-LOG_W_MAX, LOG_W_MAX], where the
#: difference of two of them, shifted, is still a float.
LOG_W_MAX = sys.float_info.max / 4.0
#: Depth of the lap counts behind the tail bound's growth rate.
LAP_DEPTH = 10
#: Added to the lap-count entropy estimate h_top <= (1/n) log laps(f^n).
H_MARGIN = 0.05
#: Fewest inducing times that p* is fitted on.
MIN_TAIL_POINTS = 6
#: Fewest positive masses a tail class is fitted on, and the R^2 either
#: fit must reach.
MIN_TAIL_MASSES = 8
TAIL_R2_FLOOR = 0.95


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, v: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= v <= self.hi + slack


@dataclass(frozen=True)
class ThermoModel:
    """Per-branch brackets of the log weights -t log|DF| at S = 0; the
    shift S enters through ``log_weights`` and ``weight_sum``."""

    taus: np.ndarray
    log_w: np.ndarray       # rows: lower and upper log weight
    log_w_pt: np.ndarray
    log_df_lo: np.ndarray
    log_df_hi: np.ndarray
    log_df_pt: np.ndarray
    t: float
    k_dist: float
    tail: TailInfo | None = None
    scheme: InducingScheme | None = None

    @property
    def n(self) -> int:
        return len(self.taus)

    def log_weights(self, shift: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lower, upper, point) log weights -t log|DF| - tau*S at the shift S."""
        decay = shift * self.taus
        lo, hi = self.log_w - decay
        return lo, hi, self.log_w_pt - decay

    def weight_sum(self, shift: float) -> tuple[float, float]:
        """(lower, upper) bracket on the log of the full weight sum at the
        shift S: ``log_weight_sums`` of both edges."""
        lo, hi = log_weight_sums((self, self), (False, True), (shift, shift))
        return lo, hi


def log_weight_sums(models: Sequence[ThermoModel], upper: Sequence[bool],
                    shifts: Sequence[float]) -> list[float]:
    """Log of the lower or upper weight sum of each model at its shift S,
    in one numpy pass over the models' stacked log weights: entry r is
    models[r]'s upper edge where upper[r], else its lower edge.  The
    models share their inducing times.  An upper edge adds the tail bound
    by a scalar log-add, and is +inf when the tail diverges.  Each row is
    reduced alone, so its float does not depend on the other rows."""
    logs = np.array([m.log_w[int(u)] for m, u in zip(models, upper)]) \
        - np.array(shifts, dtype=float)[:, None] * models[0].taus
    top = logs.max(axis=1)
    sums = (top + np.log(np.exp(logs - top[:, None]).sum(axis=1))).tolist()
    for r, (m, u, shift) in enumerate(zip(models, upper, shifts)):
        if u and m.tail is not None:
            tail = m.tail.weight_tail(m.t, shift, math.log(m.k_dist))
            top_hi = max(sums[r], tail)
            sums[r] = top_hi + math.log1p(math.exp(min(sums[r], tail) - top_hi))
    return sums


def _log_weights_of(t: float | np.ndarray, log_df: np.ndarray) -> np.ndarray:
    """-t log|DF|, held inside [-LOG_W_MAX, LOG_W_MAX], so that no log-sum
    meets inf - inf; only |t| log|DF| beyond 4.4e307 reaches the edge.
    An array t broadcasts against log|DF|, one IEEE product per entry."""
    with np.errstate(over="ignore"):
        return np.clip(-t * log_df, -LOG_W_MAX, LOG_W_MAX)


def markov_oracle(m: IntervalMap, t: float) -> float:
    """log spectral radius of the weighted transition matrix.

    Applies to Markov piecewise-linear maps only: every branch affine,
    every branch image a union of branch-partition atoms.  Entry (a, b)
    is |slope_a|^-t when atom b sits inside f(atom a).  The entries are
    taken as exp(L_a - max L) for the log weights L_a = -t log|slope_a|,
    and max L is added back to the log radius, so no |t| overflows.
    """
    atoms = [(b.lo, b.hi) for b in m.branches]
    pts = m.breakpoints
    slopes = []
    for i, b in enumerate(m.branches):
        d_lo, d_mid, d_hi = (b.deriv(b.lo + (b.hi - b.lo) * q)
                             for q in (0.25, 0.5, 0.75))
        if abs(d_lo - d_mid) > 1e-9 * abs(d_mid) or abs(d_hi - d_mid) > 1e-9 * abs(d_mid):
            raise NotApplicableError(f"branch {i} is not affine")
        img_lo, img_hi = b.image
        if not any(abs(img_lo - p) <= 1e-9 for p in pts) or \
           not any(abs(img_hi - p) <= 1e-9 for p in pts):
            raise NotApplicableError(
                f"branch {i} image is not a union of partition atoms")
        slopes.append(abs(d_mid))
    n = len(atoms)
    logs = _log_weights_of(t, np.log(slopes))
    top = float(logs.max())
    mat = np.zeros((n, n))
    for a in range(n):
        img_lo, img_hi = m.branches[a].image
        for b in range(n):
            if atoms[b][0] >= img_lo - 1e-9 and atoms[b][1] <= img_hi + 1e-9:
                mat[a, b] = math.exp(logs[a] - top)
    radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
    if radius <= 0.0:
        raise NumericError("transition matrix is nilpotent on the support")
    return top + math.log(radius)


def tail_info_for(scheme: InducingScheme) -> TailInfo | None:
    """Lap-growth tail data for a truncated scheme; None when exhausted.

    They do not depend on (t, S): read them as ``scheme.tail_info``,
    which computes them once per scheme.
    """
    if scheme.exhausted:
        return None
    rec = laps_entropy(scheme.map, LAP_DEPTH)
    h = rec.h_top_estimate + H_MARGIN
    log_c = max(math.log(lap) - h * (k + 1) for k, lap in enumerate(rec.laps))
    log_c = max(log_c, 0.0)
    # measured decay of the total branch length at each inducing time
    lens: dict[int, float] = {}
    for b in scheme.branches:
        lens[b.tau] = lens.get(b.tau, 0.0) + b.length
    ns = np.array(sorted(lens))
    ys = np.log(np.array([lens[n] for n in ns]))
    alpha_len = (max(-_fit_line(ns.astype(float), ys)[0], 0.0)
                 if len(ns) >= 3 else 0.0)
    log_c_len = float(max(ys + alpha_len * ns))
    lam_max = max(b.df_hi ** (1.0 / b.tau) for b in scheme.branches)
    return TailInfo(scheme.truncation, log_c, h, log_c_len, alpha_len,
                    math.log(lam_max), math.log(scheme.x_len))


def induced_potentials(scheme: InducingScheme,
                       ts: Sequence[float]) -> list[ThermoModel]:
    """``induced_potential`` at each t of ``ts``: -t log|DF| is one (T, 2, n)
    clip of -t (x) log|DF|, and model i holds row views of it."""
    if not scheme.branches:
        raise DomainError("scheme has no branches")
    taus, log_df, log_df_pt, k_dist = scheme.potential_geometry
    t_col = np.asarray(ts, dtype=float)[:, None]
    ends = _log_weights_of(t_col[:, :, None], log_df)
    log_w = np.empty_like(ends)
    np.minimum(ends[:, 0], ends[:, 1], out=log_w[:, 0])
    np.maximum(ends[:, 0], ends[:, 1], out=log_w[:, 1])
    log_w_pt = _log_weights_of(t_col, log_df_pt)
    tail = scheme.tail_info
    return [ThermoModel(taus, w, w_pt, log_df[0], log_df[1], log_df_pt,
                        t, k_dist, tail=tail, scheme=scheme)
            for t, w, w_pt in zip(ts, log_w, log_w_pt)]


def induced_potential(scheme: InducingScheme, t: float) -> ThermoModel:
    """Log weight brackets -t log|DF| on each branch, at S = 0."""
    return induced_potentials(scheme, [t])[0]


def synthetic_model(weights: Sequence[float],
                    taus: Sequence[int] | None = None) -> ThermoModel:
    """Exact-weight full-shift model at t = 1; used for countable-family studies."""
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise DegenerateBranchError("synthetic weights must be positive")
    tau = (np.arange(1, len(w) + 1, dtype=float) if taus is None
           else np.asarray(taus, dtype=float))
    logw = np.log(w)
    return ThermoModel(tau, np.stack([logw, logw]), logw.copy(),
                       -logw, -logw, -logw, 1.0,
                       k_dist=1.0, tail=None, scheme=None)


# ---------------------------------------------------------------------------
# Gurevich pressure
# ---------------------------------------------------------------------------

def gurevich_pressure(model: ThermoModel, shift: float) -> Bracket:
    """Bracket on the exponential growth rate of Z_n at the shift S.

    On a full shift Z_n = w_base * W^(n-1) for the weight sum W, so the
    Gurevich pressure is exactly log W.  The bracket is the log of the
    lower and upper weight sums, the upper one including the truncation
    tail; +inf signals a divergent weight sum.
    """
    return Bracket(*model.weight_sum(shift))


def _as_model(model_or_scheme, t: float | None) -> ThermoModel:
    """A model as given, or a scheme's induced potential at t."""
    if isinstance(model_or_scheme, ThermoModel):
        return model_or_scheme
    if t is None:
        raise DomainError("t is required when passing a scheme")
    return induced_potential(model_or_scheme, t)


def pressure_vs_shift(scheme_or_model, t: float | None,
                      s_grid: Sequence[float]) -> list[tuple[float, Bracket]]:
    """Pressure brackets along an ascending grid of shifts, the
    ``gurevich_pressure`` of each, from one ``log_weight_sums`` call."""
    s_grid = list(s_grid)
    if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise DomainError("shift grid must be ascending")
    model = _as_model(scheme_or_model, t)
    if not s_grid:
        return []
    n = len(s_grid)
    sums = log_weight_sums([model] * (2 * n), [False, True] * n,
                           [s for s in s_grid for _ in (0, 1)])
    return [(s, Bracket(lo, hi)) for s, lo, hi in zip(s_grid, sums[::2], sums[1::2])]


# ---------------------------------------------------------------------------
# finiteness boundary and discriminant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PStarRecord:
    p_star: float           # -inf for finite families
    discriminant: float     # +inf when the sum blows up at the boundary
    kind: str               # "finite-family" | "fitted" | "inconclusive"
    poly_exponent: float
    decay_rate: float
    r2: float


def _tau_grouped_log_weights(model: ThermoModel) -> tuple[np.ndarray, np.ndarray]:
    taus = model.taus.astype(int)
    uniq = np.unique(taus)
    return uniq, np.array([np.logaddexp.reduce(model.log_w_pt[taus == n])
                           for n in uniq])


def p_star_discriminant(model_or_scheme, t: float | None = None) -> PStarRecord:
    """Finiteness boundary p* of S -> sum w_i e^{-tau_i S}, and its sup.

    The tail of the tau-grouped weights a_n is fitted to c * n^-p * e^-(beta n);
    the sum converges exactly for S > -beta, so p* = -beta.  The
    discriminant is the boundary value of the pressure: log of the sum
    at p*, +inf-flagged when the fitted polynomial part is not summable.
    """
    model = _as_model(model_or_scheme, t)
    ns, log_a = _tau_grouped_log_weights(model)
    if len(ns) < MIN_TAIL_POINTS:
        return PStarRecord(-math.inf, math.inf, "finite-family",
                           math.nan, math.nan, math.nan)
    start = max(1, len(ns) // 3)
    nf = ns[start:].astype(float)
    yf = log_a[start:]
    design = np.column_stack([np.ones_like(nf), np.log(nf), nf])
    coef, *_ = np.linalg.lstsq(design, yf, rcond=None)
    fit = design @ coef
    ss_res = float(np.sum((yf - fit) ** 2))
    ss_tot = float(np.sum((yf - yf.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < 0.9:
        return PStarRecord(math.nan, math.nan, "inconclusive",
                           math.nan, math.nan, r2)
    log_c, neg_p, neg_beta = coef
    p = -float(neg_p)
    beta = -float(neg_beta)
    p_star = -beta
    finite_part = float(np.exp(log_a - p_star * ns).sum())
    if p <= 1.05:
        return PStarRecord(p_star, math.inf, "fitted", p, beta, r2)
    n_top = float(ns[-1])
    tail_est = math.exp(float(log_c)) * n_top ** (1.0 - p) / (p - 1.0)
    return PStarRecord(p_star, math.log(finite_part + tail_est),
                       "fitted", p, beta, r2)


# ---------------------------------------------------------------------------
# tail classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailRecord:
    kind: str                # "exponential" | "polynomial" | "inconclusive"
    rate: float              # decay rate alpha for exponential masses
    exponent: float          # power p for polynomial masses
    r2: float
    finite_support: bool = False


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x, and the R^2 of the line (both
    nan, not an R^2 of 1, where y is not finite).

    The t-free fits, ``tail_info_for``'s length decay and
    ``diagnostics.critical_orbit_growth``, keep ``np.polyfit``: their
    floats feed every upper pressure bracket (through alpha_len) and the
    ``diagnose`` output.  The closed form of ``_fit_lines`` moves them in
    the last bits, which changes printed scan, pressure and diagnose
    values.
    """
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - fit) ** 2)) / ss_tot if ss_tot != 0 else 1.0
    return float(slope), r2


def _fit_lines(x: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_fit_line`` of each row of ys against x, as two arrays, by the
    closed-form least squares on centred x: the slope may differ from
    ``np.polyfit``'s in the last bits."""
    xc = x - x.mean()
    dy = ys - ys.mean(axis=1, keepdims=True)
    slope = (dy * xc).sum(axis=1) / float((xc ** 2).sum())
    ss_tot = (dy ** 2).sum(axis=1)
    ss_res = ((dy - slope[:, None] * xc) ** 2).sum(axis=1)
    flat = ss_tot == 0
    return slope, np.where(flat, 1.0, 1.0 - ss_res / np.where(flat, 1.0, ss_tot))


def tail_classify(masses: Sequence[float]) -> TailRecord:
    """Least-squares competition between exponential and power-law decay.

    ``masses[k]`` is the mass of inducing time n = k+1.  A family whose
    support simply ends (trailing zeros after fewer than MIN_TAIL_MASSES
    entries) is reported as exponential with the finite-support flag.
    It is the one-row case of ``tail_classify_rows``.
    """
    return tail_classify_rows(np.asarray(masses, dtype=float)[None])[0]


def tail_classify_rows(masses: np.ndarray) -> list[TailRecord]:
    """``tail_classify`` of each row of a (R, L) array of masses by inducing
    time.  The rows that share their positive entries share the x of their
    fits, so each such group is fitted in one batch."""
    nan = math.nan
    arr = np.asarray(masses, dtype=float)
    ns = np.arange(1, arr.shape[1] + 1, dtype=float)
    pos = arr > 0.0
    out: list[TailRecord | None] = [None] * len(arr)
    groups: dict[bytes, list[int]] = {}
    for r, row in enumerate(pos):
        groups.setdefault(row.tobytes(), []).append(r)
    for rows in groups.values():
        pat = pos[rows[0]]
        n_pos = int(pat.sum())
        # in C order, so that each row is reduced as a one-row call reduces it
        x, y = ns[pat], np.log(np.ascontiguousarray(arr[rows][:, pat]))
        if n_pos >= MIN_TAIL_MASSES:
            recs = []
            for slope_e, r2_e, slope_p, r2_p in zip(
                    *(a.tolist() for a in _fit_lines(x, y) + _fit_lines(np.log(x), y))):
                if max(r2_e, r2_p) < TAIL_R2_FLOOR:
                    recs.append(TailRecord("inconclusive", nan, nan, max(r2_e, r2_p)))
                elif r2_e >= r2_p:
                    recs.append(TailRecord("exponential", -slope_e, nan, r2_e))
                else:
                    recs.append(TailRecord("polynomial", nan, -slope_p, r2_p))
        elif n_pos >= 2 and pat[:n_pos].all():
            # a clean prefix of nonzero masses followed by zeros = finite support
            recs = [TailRecord("exponential", -slope, nan, r2, finite_support=True)
                    for slope, r2 in zip(*(a.tolist() for a in _fit_lines(x, y)))]
        else:
            recs = [TailRecord("inconclusive", nan, nan, nan,
                               finite_support=n_pos < 2)] * len(rows)
        for r, rec in zip(rows, recs):
            out[r] = rec
    return out
