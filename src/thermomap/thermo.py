"""Induced potentials and Gurevich pressure brackets.

Every quantity is carried as a two-sided bracket: per-branch weights
come from derivative brackets, truncated branch families get an explicit
tail bound (from lap growth and the scheme's expansion), and pressure is
reported as an interval, never a bare point estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateBranchError, DomainError
from .inducing import InducingScheme
from .symbolic import laps_entropy

#: Depth of the lap counts behind the tail bound's growth rate.
LAP_DEPTH = 10
#: Added to the lap-count entropy estimate h_top <= (1/n) log laps(f^n).
H_MARGIN = 0.05
#: Fewest inducing times with positive weight that p* is fitted on.
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
class TailInfo:
    """Shift-independent data bounding branches beyond the time cap T.

    The count of tau = n branches is bounded by lap growth c*e^{h*n} and
    the total length of tau = n branches by the measured decay
    c_len*e^{-alpha*n}.  A weight is comparable to (|X_i|/|X|)^t up to
    distortion, so the Hoelder split bounds the omitted weight sum at
    exponent t by  k^|t| (c_len e^{-a n}/|X|)^t (c e^{h n})^{1-t} e^{-n S}
    for t in [0, 1], with the obvious one-factor versions outside [0, 1].
    The length-decay rate is a measured-trend extrapolation, as flagged.
    """

    T: int
    log_c: float
    h: float
    log_c_len: float
    alpha_len: float
    log_lam_max: float
    log_x_len: float

    def _log_term(self, t: float, s: float, log_k: float) -> tuple[float, float]:
        """(log coefficient, log per-step ratio) of the tail bound."""
        if t < 0.0:
            coeff = self.log_c + abs(t) * log_k
            rate = self.h + abs(t) * self.log_lam_max - s
        elif t <= 1.0:
            coeff = (abs(t) * log_k + t * (self.log_c_len - self.log_x_len)
                     + (1.0 - t) * self.log_c)
            rate = -t * self.alpha_len + (1.0 - t) * self.h - s
        else:
            coeff = abs(t) * log_k + t * (self.log_c_len - self.log_x_len)
            rate = -t * self.alpha_len - s
        return coeff, rate

    def weight_tail(self, t: float, s: float, log_k: float) -> float:
        """Upper bound on the omitted weight sum; inf when divergent."""
        coeff, rate = self._log_term(t, s, log_k)
        if rate >= 0.0:
            return math.inf
        r = math.exp(rate)
        return math.exp(coeff) * r ** (self.T + 1) / (1.0 - r)

    def tau_weight_tail(self, t: float, s: float, log_k: float) -> float:
        """Upper bound on the omitted sum of tau * weight."""
        coeff, rate = self._log_term(t, s, log_k)
        if rate >= 0.0:
            return math.inf
        r = math.exp(rate)
        head = math.exp(coeff) * r ** (self.T + 1)
        return head * ((self.T + 1) * (1.0 - r) + r) / (1.0 - r) ** 2


@dataclass(frozen=True)
class ThermoModel:
    """Per-branch brackets of |DF|^-t; the shift S enters through ``weights``."""

    taus: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray
    w_pt: np.ndarray
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

    def weights(self, shift: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w_lo, w_hi, w_pt) times exp(-tau*S) at the shift S.

        A weight that underflowed to 0 (or overflowed) times a factor that
        overflowed (or underflowed) is unknown: 0 in w_lo and w_pt, +inf in w_hi.
        """
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            factor = np.exp(-self.taus * shift)
            w_lo, w_hi, w_pt = (self.w_lo * factor, self.w_hi * factor,
                                self.w_pt * factor)
        w_lo[np.isnan(w_lo)] = 0.0
        w_hi[np.isnan(w_hi)] = math.inf
        w_pt[np.isnan(w_pt)] = 0.0
        return w_lo, w_hi, w_pt

    def tail_weight(self, shift: float) -> float:
        if self.tail is None:
            return 0.0
        return self.tail.weight_tail(self.t, shift, math.log(self.k_dist))

    def weight_sum(self, shift: float) -> tuple[float, float]:
        """(lower, upper) bracket on the full weight sum at the shift S,
        tail included."""
        w_lo, w_hi, _ = self.weights(shift)
        return float(w_lo.sum()), float(w_hi.sum()) + self.tail_weight(shift)


def tail_info_for(scheme: InducingScheme) -> TailInfo | None:
    """Lap-growth tail data for a truncated scheme; None when exhausted.

    Cached on the scheme, since it does not depend on (t, S).
    """
    if scheme.exhausted:
        return None
    cached = scheme.meta.get("tail_info")
    if cached is not None:
        return cached
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
    info = TailInfo(scheme.truncation, log_c, h, log_c_len, alpha_len,
                    math.log(lam_max), math.log(scheme.x_len))
    scheme.meta["tail_info"] = info
    return info


def induced_potential(scheme: InducingScheme, t: float) -> ThermoModel:
    """Weight brackets |DF|^-t on each branch, at S = 0."""
    if not scheme.branches:
        raise DomainError("scheme has no branches")
    taus = np.array([b.tau for b in scheme.branches], dtype=float)
    df_lo = np.array([b.df_lo for b in scheme.branches])
    df_hi = np.array([b.df_hi for b in scheme.branches])
    df_pt = np.array([b.df_mid for b in scheme.branches])
    if np.any(df_lo <= 0.0):
        raise DegenerateBranchError("a branch has a vanishing derivative bracket")
    with np.errstate(over="ignore", under="ignore"):
        if t >= 0:
            w_lo, w_hi = df_hi ** (-t), df_lo ** (-t)
        else:
            w_lo, w_hi = df_lo ** (-t), df_hi ** (-t)
        w_pt = df_pt ** (-t)
    kb = scheme.koebe_bound()
    k_dist = kb if math.isfinite(kb) else max(scheme.measured_distortion(), 1.0)
    return ThermoModel(taus, w_lo, w_hi, w_pt,
                       np.log(df_lo), np.log(df_hi), np.log(df_pt),
                       t, k_dist, tail=tail_info_for(scheme), scheme=scheme)


def synthetic_model(weights: Sequence[float], taus: Sequence[int] | None = None,
                    t: float = 1.0) -> ThermoModel:
    """Exact-weight full-shift model; used for countable-family studies."""
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise DegenerateBranchError("synthetic weights must be positive")
    tau = (np.arange(1, len(w) + 1, dtype=float) if taus is None
           else np.asarray(taus, dtype=float))
    logw = np.log(w)
    return ThermoModel(tau, w.copy(), w.copy(), w.copy(),
                       -logw, -logw, -logw, t,
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
    w_lo, w_hi = model.weight_sum(shift)
    lower = math.log(w_lo) if w_lo > 0 else -math.inf
    if w_hi == 0.0:  # every weight underflowed
        upper = -math.inf
    else:
        upper = math.log(w_hi) if math.isfinite(w_hi) else math.inf
    return Bracket(lower, upper)


def _as_model(model_or_scheme, t: float | None) -> ThermoModel:
    """A model as given, or a scheme's induced potential at t."""
    if isinstance(model_or_scheme, ThermoModel):
        return model_or_scheme
    if t is None:
        raise DomainError("t is required when passing a scheme")
    return induced_potential(model_or_scheme, t)


def pressure_vs_shift(scheme_or_model, t: float | None,
                      s_grid: Sequence[float]) -> list[tuple[float, Bracket]]:
    """Pressure brackets along an ascending grid of shifts."""
    s_grid = list(s_grid)
    if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise DomainError("shift grid must be ascending")
    model = _as_model(scheme_or_model, t)
    return [(s, gurevich_pressure(model, s)) for s in s_grid]


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


def _tau_grouped_weights(model: ThermoModel) -> tuple[np.ndarray, np.ndarray]:
    taus = model.taus.astype(int)
    uniq = np.unique(taus)
    sums = np.array([model.w_pt[taus == n].sum() for n in uniq])
    return uniq, sums


def p_star_discriminant(model_or_scheme, t: float | None = None) -> PStarRecord:
    """Finiteness boundary p* of S -> sum w_i e^{-tau_i S}, and its sup.

    The tail of the tau-grouped weights a_n is fitted to c * n^-p * e^-(beta n);
    the sum converges exactly for S > -beta, so p* = -beta.  The
    discriminant is the boundary value of the pressure: log of the sum
    at p*, +inf-flagged when the fitted polynomial part is not summable.
    """
    model = _as_model(model_or_scheme, t)
    ns, a_n = _tau_grouped_weights(model)
    keep = a_n > 0
    ns, a_n = ns[keep], a_n[keep]
    if len(ns) < MIN_TAIL_POINTS:
        return PStarRecord(-math.inf, math.inf, "finite-family",
                           math.nan, math.nan, math.nan)
    start = max(1, len(ns) // 3)
    nf = ns[start:].astype(float)
    yf = np.log(a_n[start:])
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
    boundary_terms = a_n * np.exp(-p_star * ns)
    finite_part = float(boundary_terms.sum())
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
    """Least-squares slope of y against x, and the R^2 of the line."""
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - fit) ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def tail_classify(masses: Sequence[float]) -> TailRecord:
    """Least-squares competition between exponential and power-law decay.

    ``masses[k]`` is the mass of inducing time n = k+1.  A family whose
    support simply ends (trailing zeros after fewer than MIN_TAIL_MASSES
    entries) is reported as exponential with the finite-support flag.
    """
    arr = np.asarray(masses, dtype=float)
    ns = np.arange(1, len(arr) + 1, dtype=float)
    pos = arr > 0.0
    n_pos = int(pos.sum())
    if n_pos < MIN_TAIL_MASSES:
        # a clean prefix of nonzero masses followed by zeros = finite support
        last = int(np.nonzero(pos)[0][-1]) if n_pos else -1
        prefix = bool(np.all(pos[:last + 1]))
        if n_pos >= 2 and prefix:
            slope, r2 = _fit_line(ns[pos], np.log(arr[pos]))
            return TailRecord("exponential", -slope, math.nan, r2,
                              finite_support=True)
        return TailRecord("inconclusive", math.nan, math.nan, math.nan,
                          finite_support=n_pos < 2)
    x, y = ns[pos], np.log(arr[pos])
    slope_e, r2_e = _fit_line(x, y)
    slope_p, r2_p = _fit_line(np.log(x), y)
    if max(r2_e, r2_p) < TAIL_R2_FLOOR:
        return TailRecord("inconclusive", math.nan, math.nan, max(r2_e, r2_p))
    if r2_e >= r2_p:
        return TailRecord("exponential", -slope_e, math.nan, r2_e)
    return TailRecord("polynomial", math.nan, -slope_p, r2_p)
