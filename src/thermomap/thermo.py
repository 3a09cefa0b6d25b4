"""Induced potentials, partition functions and Gurevich pressure brackets.

Every quantity is carried as a two-sided bracket: per-branch weights
come from derivative brackets, truncated branch families get an explicit
tail bound (from lap growth and the scheme's expansion), and pressure is
reported as an interval, never a bare point estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DegenerateBranchError, DomainError
from .inducing import InducingScheme
from .symbolic import laps_entropy, periodic_point

#: Depth of the lap counts behind the tail bound's growth rate.
LAP_DEPTH = 10
#: Added to the lap-count entropy estimate h_top <= (1/n) log laps(f^n).
H_MARGIN = 0.05


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
    """Per-branch weight brackets for the shifted induced potential."""

    taus: np.ndarray
    w_lo: np.ndarray
    w_hi: np.ndarray
    w_pt: np.ndarray
    log_df_lo: np.ndarray
    log_df_hi: np.ndarray
    log_df_pt: np.ndarray
    t: float
    shift: float
    k_dist: float
    log_b: float
    tail: TailInfo | None = None
    scheme: InducingScheme | None = None

    @property
    def n(self) -> int:
        return len(self.taus)

    def tail_weight(self) -> float:
        if self.tail is None:
            return 0.0
        return self.tail.weight_tail(self.t, self.shift, math.log(self.k_dist))

    def weight_sum(self) -> tuple[float, float]:
        """(lower, upper) bracket on the full weight sum, tail included."""
        return float(self.w_lo.sum()), float(self.w_hi.sum()) + self.tail_weight()

    def default_base(self) -> int:
        return int(np.argmax(self.w_pt))


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


def induced_potential(scheme: InducingScheme, t: float, shift: float,
                      variations: Sequence[float] | None = None) -> ThermoModel:
    """Weight brackets w_i = exp(-t log|DF| - tau*S) on each branch.

    The almost-subadditivity constant log B comes from the measured
    variation decay when supplied, else from the distortion constant.
    """
    if not scheme.branches:
        raise DomainError("scheme has no branches")
    taus = np.array([b.tau for b in scheme.branches], dtype=float)
    df_lo = np.array([b.df_lo for b in scheme.branches])
    df_hi = np.array([b.df_hi for b in scheme.branches])
    df_pt = np.array([b.df_mid for b in scheme.branches])
    if np.any(df_lo <= 0.0):
        raise DegenerateBranchError("a branch has a vanishing derivative bracket")
    with np.errstate(over="ignore", under="ignore"):
        decay = np.exp(-taus * shift)
        if t >= 0:
            w_lo = df_hi ** (-t) * decay
            w_hi = df_lo ** (-t) * decay
        else:
            w_lo = df_lo ** (-t) * decay
            w_hi = df_hi ** (-t) * decay
        w_pt = df_pt ** (-t) * decay
    kb = scheme.koebe_bound()
    k_dist = kb if math.isfinite(kb) else max(scheme.measured_distortion(), 1.0)
    if variations is not None:
        log_b = 2.0 * float(sum(variations))
    else:
        log_b = 2.0 * abs(t) * math.log(k_dist)
    return ThermoModel(taus, w_lo, w_hi, w_pt,
                       np.log(df_lo), np.log(df_hi), np.log(df_pt),
                       t, shift, k_dist, log_b,
                       tail=tail_info_for(scheme), scheme=scheme)


def synthetic_model(weights: Sequence[float], taus: Sequence[int] | None = None,
                    t: float = 1.0, shift: float = 0.0) -> ThermoModel:
    """Exact-weight full-shift model; used for countable-family studies."""
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise DegenerateBranchError("synthetic weights must be positive")
    tau = (np.arange(1, len(w) + 1, dtype=float) if taus is None
           else np.asarray(taus, dtype=float))
    logw = np.log(w)
    return ThermoModel(tau, w.copy(), w.copy(), w.copy(),
                       -logw, -logw, -logw, t, shift,
                       k_dist=1.0, log_b=0.0, tail=None, scheme=None)


def with_shift(model: ThermoModel, shift: float) -> ThermoModel:
    """The same model at a different potential shift S.

    A weight that underflowed to 0 (or overflowed) times a factor that
    overflowed (or underflowed) is unknown: 0 in w_lo and w_pt, +inf in w_hi.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        factor = np.exp(-model.taus * (shift - model.shift))
        w_lo, w_hi, w_pt = (model.w_lo * factor, model.w_hi * factor,
                            model.w_pt * factor)
    w_lo[np.isnan(w_lo)] = 0.0
    w_hi[np.isnan(w_hi)] = math.inf
    w_pt[np.isnan(w_pt)] = 0.0
    return replace(model, w_lo=w_lo, w_hi=w_hi, w_pt=w_pt, shift=shift)


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------

def partition_function(model: ThermoModel, n: int, base: int) -> Bracket:
    """Bracket on Z_n over n-periodic words starting in the base branch.

    For locally constant weights the bracket is exact: the full shift
    makes Z_n a plain product of weight sums.  Branches beyond the time
    cap enter through the tail bound on the upper side only.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if base < 0 or base >= model.n:
        return Bracket(0.0, 0.0)
    w_sum_lo, w_sum_hi = model.weight_sum()
    lo = float(model.w_lo[base]) * max(w_sum_lo, 0.0) ** (n - 1)
    hi = (math.inf if math.isinf(w_sum_hi) and n > 1
          else float(model.w_hi[base]) * w_sum_hi ** (n - 1))
    return Bracket(lo, hi)


def partition_function_star(model: ThermoModel, n: int, base: int) -> Bracket:
    """As Z_n but words must avoid the base branch at intermediate times."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if base < 0 or base >= model.n:
        return Bracket(0.0, 0.0)
    rest_lo = max(float(model.w_lo.sum() - model.w_hi[base]), 0.0)
    rest_hi = float(model.w_hi.sum() - model.w_lo[base]) + model.tail_weight()
    lo = float(model.w_lo[base]) * rest_lo ** (n - 1)
    hi = (math.inf if math.isinf(rest_hi) and n > 1
          else float(model.w_hi[base]) * rest_hi ** (n - 1))
    return Bracket(lo, hi)


def partition_function_exact(model: ThermoModel, n: int, base: int,
                             word_cap: int = 100_000) -> float:
    """Z_n evaluated at located periodic points of the underlying map.

    Needs the geometric scheme; enumerates all n-words starting at the
    base branch, so it is only for small families (cross-checking the
    bracket path).
    """
    scheme = model.scheme
    if scheme is None:
        raise DomainError("exact evaluation needs a geometric scheme")
    if model.n ** max(n - 1, 0) > word_cap:
        raise DomainError("word count exceeds cap")
    m = scheme.map
    total = 0.0
    for rest in itertools.product(range(model.n), repeat=n - 1):
        brs = [scheme.branches[i] for i in (base,) + rest]
        f_word = sum((b.word for b in brs), ())
        tau_total = sum(b.tau for b in brs)
        pp = periodic_point(m, f_word)
        if pp is None:
            continue
        total += math.exp(-model.t * math.log(pp.multiplier)
                          - model.shift * tau_total)
    return total


# ---------------------------------------------------------------------------
# Gurevich pressure
# ---------------------------------------------------------------------------

def gurevich_pressure(model: ThermoModel) -> Bracket:
    """Bracket on the exponential growth rate of Z_n.

    On a full shift Z_n = w_base * W^(n-1) for the weight sum W, so the
    Gurevich pressure is exactly log W.  The bracket is the log of the
    lower and upper weight sums, the upper one including the truncation
    tail; +inf signals a divergent weight sum.
    """
    w_lo, w_hi = model.weight_sum()
    lower = math.log(w_lo) if w_lo > 0 else -math.inf
    if w_hi == 0.0:  # every weight underflowed
        upper = -math.inf
    else:
        upper = math.log(w_hi) if math.isfinite(w_hi) else math.inf
    return Bracket(lower, upper)


def _as_model(model_or_scheme, t: float | None) -> ThermoModel:
    """A model as given, or a scheme's induced potential at t and S = 0."""
    if isinstance(model_or_scheme, ThermoModel):
        return model_or_scheme
    if t is None:
        raise DomainError("t is required when passing a scheme")
    return induced_potential(model_or_scheme, t, 0.0)


def pressure_vs_shift(scheme_or_model, t: float | None,
                      s_grid: Sequence[float]) -> list[tuple[float, Bracket]]:
    """Pressure brackets along an ascending grid of shifts."""
    s_grid = list(s_grid)
    if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise DomainError("shift grid must be ascending")
    base_model = _as_model(scheme_or_model, t)
    return [(s, gurevich_pressure(with_shift(base_model, s))) for s in s_grid]


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


def p_star_discriminant(model_or_scheme, t: float | None = None,
                        min_tail_points: int = 6) -> PStarRecord:
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
    if len(ns) < min_tail_points:
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
# recurrence diagnostics and tail classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecurrenceReport:
    terms: tuple[float, ...]
    star_terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    partial_sums_star: tuple[float, ...]
    recurrent_trend: bool
    positive_recurrent_trend: bool


def _geometric_ratio(terms: Sequence[float]) -> float:
    vals = [v for v in terms if v > 0]
    if len(vals) < 2:
        return 0.0
    i = len(vals) // 2
    span = len(vals) - 1 - i
    if span == 0 or vals[i] == 0:
        return 0.0
    return (vals[-1] / vals[i]) ** (1.0 / span)


def recurrence_check(model: ThermoModel, lam: float, n_max: int,
                     base: int | None = None) -> RecurrenceReport:
    """Partial sums of lam^-n Z_n and n lam^-n Z*_n with trend flags.

    The flags are finite-truncation heuristics (growth-trend readings),
    not theorems: recurrence needs the first series to diverge, positive
    recurrence additionally needs the starred series to converge.
    """
    if base is None:
        base = model.default_base()
    terms, star = [], []
    for n in range(1, n_max + 1):
        terms.append(lam ** (-n) * partition_function(model, n, base).mid)
        star.append(n * lam ** (-n) * partition_function_star(model, n, base).mid)
    sums = list(np.cumsum(terms))
    sums_star = list(np.cumsum(star))
    recurrent = _geometric_ratio(terms) >= 0.999
    positive = recurrent and _geometric_ratio(star) < 0.999
    return RecurrenceReport(tuple(terms), tuple(star), tuple(sums),
                            tuple(sums_star), recurrent, positive)


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


def tail_classify(masses: Sequence[float], min_points: int = 8,
                  r2_floor: float = 0.95) -> TailRecord:
    """Least-squares competition between exponential and power-law decay.

    ``masses[k]`` is the mass of inducing time n = k+1.  A family whose
    support simply ends (trailing zeros after fewer than min_points
    entries) is reported as exponential with the finite-support flag.
    """
    arr = np.asarray(masses, dtype=float)
    ns = np.arange(1, len(arr) + 1, dtype=float)
    pos = arr > 0.0
    n_pos = int(pos.sum())
    if n_pos < min_points:
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
    if max(r2_e, r2_p) < r2_floor:
        return TailRecord("inconclusive", math.nan, math.nan, max(r2_e, r2_p))
    if r2_e >= r2_p:
        return TailRecord("exponential", -slope_e, math.nan, r2_e)
    return TailRecord("polynomial", math.nan, -slope_p, r2_p)


# ---------------------------------------------------------------------------
# CSV row generators
# ---------------------------------------------------------------------------

def pressure_rows(points: list[tuple[float, Bracket]]) -> list[tuple]:
    return [(s, pb.lo, pb.hi) for s, pb in points]


def zn_rows(model: ThermoModel, n_max: int, base: int | None = None) -> list[tuple]:
    if base is None:
        base = model.default_base()
    return [(n,) + (lambda z: (z.lo, z.hi))(partition_function(model, n, base))
            for n in range(1, n_max + 1)]


def mass_rows(masses: Sequence[float]) -> list[tuple]:
    return [(n + 1, m) for n, m in enumerate(masses)]
