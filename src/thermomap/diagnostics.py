"""Finite-horizon checks of the standing hypotheses.

Everything here is a trend verdict at a finite horizon and is labelled
as such: derivative growth along critical orbits, binding periods and
summability gauges, and sampled expansion outside a critical
neighbourhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice, zip_longest
from typing import Sequence

import numpy as np

from .errors import DomainError
from .interval_map import (IntervalMap, _chain, _step_factor,
                           _vanishing_points, _walk, derivative_prefixes,
                           eval_orbit, pullback_word)
from .thermo import _fit_line

#: R^2 that the exponential fit of every critical orbit must reach for CE.
R2_CE = 0.99
#: Proof constant of the composition sums.
ZETA = 1.0
#: Points sampled in each critical-neighbourhood component for binding.
BINDING_SAMPLES = 64
#: Mane estimate: shortest avoidance window, orbit count and orbit length.
MANE_K_MIN = 4
MANE_ORBITS = 24
MANE_ORBIT_LEN = 2000
#: First-entry bound: starting points, and iterations before giving up.
ENTRY_SAMPLES = 400
ENTRY_HORIZON = 200


# ---------------------------------------------------------------------------
# growth along critical orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthRecord:
    c: float
    derivatives: tuple[float, ...]   # |Df^n(f(c))| for n = 1..n_max
    alpha: float                     # exponential rate fit
    alpha_r2: float
    beta: float                      # polynomial exponent fit
    beta_r2: float
    truncated_at: int | None


@dataclass(frozen=True)
class GrowthVerdict:
    records: tuple[GrowthRecord, ...]
    verdict: str                     # "CE" | "polynomial" | "neither"
    beta_threshold: float


def critical_orbit_growth(m: IntervalMap, n_max: int, t0: float) -> GrowthVerdict:
    """Classify derivative growth along every critical orbit.

    CE when the log-linear fit has positive rate with R^2 >= 0.99 for
    every critical point; otherwise polynomial when the log-log exponent
    clears ell_max*(1 + 1/t0) - 1; otherwise neither.
    """
    if n_max < 20:
        raise DomainError("n_max must be >= 20")
    if not 0 < t0 < 1:
        raise DomainError("t0 must lie in (0, 1)")
    records = []
    for cp in m.turning_points():
        derivs = derivative_prefixes(m, m.apply(cp.c), n_max)
        # a cut list stops at the critical hit: its length is the hit time
        truncated = len(derivs) if len(derivs) < n_max else None
        arr = np.array(derivs)
        fits = (arr > 0.0) & np.isfinite(arr)  # 4^n is inf from n = 512
        ns, logs = np.arange(1.0, len(arr) + 1)[fits], np.log(arr[fits])
        if len(logs) >= 3:
            alpha, a_r2 = _fit_line(ns, logs)
            beta, b_r2 = _fit_line(np.log(ns), logs)
            if a_r2 < 0.9:  # fits below this are not reported
                alpha = math.nan
            if b_r2 < 0.9:
                beta = math.nan
        else:
            alpha = beta = a_r2 = b_r2 = math.nan
        records.append(GrowthRecord(cp.c, tuple(derivs), alpha, a_r2,
                                    beta, b_r2, truncated))
    threshold = m.ell_max * (1.0 + 1.0 / t0) - 1.0
    ce_ok = bool(records) and all(
        not math.isnan(r.alpha) and r.alpha > 0 and r.alpha_r2 >= R2_CE
        for r in records)
    poly_ok = bool(records) and all(
        not math.isnan(r.beta) and r.beta > threshold for r in records)
    if ce_ok or not records:  # no turning point leaves nothing to disprove CE
        verdict = "CE"
    elif poly_ok:
        verdict = "polynomial"
    else:
        verdict = "neither"
    return GrowthVerdict(tuple(records), verdict, threshold)


# ---------------------------------------------------------------------------
# binding periods and summability gauges
# ---------------------------------------------------------------------------

def gamma_sequence(delta_x: float, n_max: int) -> np.ndarray:
    """The gauge gamma_n = delta*|X| / (n * log^2(n + 10))."""
    ns = np.arange(1, n_max + 1, dtype=float)
    return delta_x / (ns * np.log(ns + 10.0) ** 2)


@dataclass(frozen=True)
class BindingRecord:
    gammas: tuple[float, ...]
    p_u: int                                  # minimal binding period seen
    f_prime_p: dict[int, float]               # per-p lower bounds on |Df^p|
    summable_partial: tuple[float, ...]       # gauge-weighted growth sums
    composition_partial: tuple[float, ...]    # multi-binding DP sums vs 1
    verdict: str                              # "converged-trend" | "inconclusive"


def critical_neighbourhood(m: IntervalMap, eps: float) -> list[tuple[float, float]]:
    """U = f^{-1}(B_eps(f(Crit))): one component around each turning point."""
    comps = []
    for cp in m.turning_points():
        if not cp.vanishing:
            continue
        target_lo, target_hi = cp.image - eps, cp.image + eps
        bi = m.branch_index(cp.c, side="left")
        bj = m.branch_index(cp.c, side="right")
        a = pullback_word(m, (bi,), target_lo if m.branches[bi].orientation > 0
                          else target_hi)
        b = pullback_word(m, (bj,), target_lo if m.branches[bj].orientation < 0
                          else target_hi)
        comps.append((min(a, b), max(a, b)))
    return comps


def binding_analysis(m: IntervalMap, eps: float, delta_x: float, n_max: int,
                     t0: float = 0.9) -> BindingRecord:
    """Binding periods sampled on U and the two summability partial sums.

    The per-orbit sum uses terms (gamma_n^(l-1) |Df^n(f(c))|)^(-t0/l);
    the composition sum checks products over binding-period strings
    against 1, with the proof constant ZETA.
    """
    gammas = gamma_sequence(delta_x, n_max)
    comps = critical_neighbourhood(m, eps)
    crits = [cp for cp in m.turning_points() if cp.vanishing]
    crit_pts = [q.c for q in crits]
    p_u = n_max
    f_prime: dict[int, float] = {}
    growth = []  # |Df^n(f(c))| for n = 1.. up to the orbit's first critical hit
    for (u_lo, u_hi), cp in zip(comps, crits):
        # one walk: orb_c[k] = f^k(c) and ds[k] = |Df^k(f(c))|
        pts, ds = zip(*islice(_chain(m, islice(_walk(m, cp.c), 1, None)), n_max + 1))
        orb_c = (cp.c,) + pts
        growth.append([d for d in ds[1:] if d is not None])
        for k in range(1, BINDING_SAMPLES + 1):
            x = u_lo + (u_hi - u_lo) * k / (BINDING_SAMPLES + 1)
            if abs(x - cp.c) < 1e-12:
                continue
            # walk x's orbit to its binding period p; d = |Df^p(x)|
            for p, (z, d) in enumerate(islice(_chain(m, _walk(m, x)), 1, n_max + 1), 1):
                dist_c = min(abs(orb_c[p] - cc) for cc in crit_pts)
                if abs(z - orb_c[p]) >= gammas[p - 1] * dist_c:
                    break
            p_u = min(p_u, p)
            if d is not None:
                f_prime[p] = min(f_prime.get(p, math.inf), d)
    # gauge-weighted growth sums, worst critical point
    worst: list[float] = []
    for cp, derivs in zip(crits, growth):
        terms = [(gammas[n - 1] ** (cp.order - 1.0) * dn) ** (-t0 / cp.order)
                 for n, dn in enumerate(derivs, start=1)]
        cum = np.cumsum(terms)
        if len(cum) and (not worst or cum[-1] > worst[-1]):
            worst = list(cum)
    partials = worst or [math.nan]
    # composition sums: G_n = sum over binding strings with parts >= p_U
    comp_partials = _composition_sums(crits, growth, gammas, p_u, n_max)
    tail_ok = (len(partials) >= 4 and
               partials[-1] - partials[-2] < 1e-8 and not math.isnan(partials[-1]))
    verdict = "converged-trend" if tail_ok else "inconclusive"
    return BindingRecord(tuple(gammas), p_u, f_prime, tuple(partials),
                         tuple(comp_partials), verdict)


def _composition_sums(crits, growth, gammas, p_u, n_max) -> list[float]:
    if not crits:
        return [0.0] * n_max
    u = np.zeros(n_max + 1)
    for p in range(max(p_u, 1), n_max + 1):
        best = 0.0
        for cp, derivs in zip(crits, growth):
            if p > len(derivs):
                continue
            dp = derivs[p - 1]
            term = ZETA * (gammas[p - 1] ** (cp.order - 1.0) * dp) ** (-1.0 / cp.order)
            best = max(best, term)
        u[p] = best
    g = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        total = 0.0
        for p in range(1, n + 1):
            if u[p] > 0:
                total += u[p] * (1.0 + g[n - p])
        g[n] = total
    return list(g[1:])


# ---------------------------------------------------------------------------
# expansion outside a neighbourhood, niceness, first-entry derivatives
# ---------------------------------------------------------------------------

def _in_any(x: float, comps: Sequence[tuple[float, float]]) -> bool:
    for lo, hi in comps:
        if lo < x < hi:
            return True
    return False


def mane_expansion_estimate(m: IntervalMap, comps: Sequence[tuple[float, float]],
                            seed: int = 0) -> float:
    """min over sampled avoidance windows of (1/k) log |Df^k|.

    Long generic orbits are cut into maximal excursions outside U of
    length >= MANE_K_MIN; a positive minimum is the finite-horizon
    reading of uniform expansion away from the critical neighbourhood.
    A window counts only when it returns to U: one still open at the end
    of its orbit is dropped.  nan means that no window counted, either
    because no orbit steps outside U or because none of the windows
    outside it returns: on quad4 at eps 1e-9, U is 3.2e-5 wide, and with
    seeds 0 and 1 no sampled orbit comes back to it.

    Each orbit is walked once: |Df^k| of the open window is multiplied
    step by step as ``_chain`` multiplies it, from 1.0 at the window's
    first point, snapped, and the window's last step is its return to U.
    """
    rng = np.random.default_rng(seed)
    lo, hi = m.domain
    vanish = _vanishing_points(m)
    best = math.inf
    seen = False
    for _ in range(MANE_ORBITS):
        k = 0  # the walk's steps out of U since it last left U
        d = w = None  # |Df^k| of the window (None once cut), its last point
        walk = _walk(m, float(rng.uniform(lo, hi)))
        for z, i, u in islice(walk, MANE_ORBIT_LEN + 1):
            if k and d is not None:
                df = _step_factor(m, vanish, w, i, u)
                d = None if df == 0.0 else d * df
            if not _in_any(z, comps):
                if k:
                    w = z
                else:
                    d, w = 1.0, m.snap(z)
                k += 1
                continue
            if k >= MANE_K_MIN and d is not None:
                best = min(best, math.log(d) / k)
                seen = True
            k = 0
    return best if seen else math.nan


@dataclass(frozen=True)
class NiceReport:
    nice: bool
    offending_n: int | None


def nice_check(m: IntervalMap, comps: Sequence[tuple[float, float]],
               n_max: int = 64) -> NiceReport:
    """Check f^n(boundary of U) never enters the open set U, n <= n_max."""
    for endpoint in chain.from_iterable(comps):
        for n, z in enumerate(eval_orbit(m, endpoint, n_max)[1:], start=1):
            if _in_any(z, comps):
                return NiceReport(False, n)
    return NiceReport(True, None)


def first_entry_derivative_bound(m: IntervalMap,
                                 comps: Sequence[tuple[float, float]],
                                 seed: int = 0) -> float:
    """Sampled lower bound b on |Df^r| at the first entry r <= ENTRY_HORIZON into U.

    nan when no sampled orbit enters U after a step outside it (or every
    one that does meets a critical point first), as when U covers the domain.
    """
    rng = np.random.default_rng(seed)
    lo, hi = m.domain
    best = math.inf
    seen = False
    for _ in range(ENTRY_SAMPLES):
        walk = _walk(m, float(rng.uniform(lo, hi)))
        for r, (z, d) in enumerate(islice(_chain(m, walk), ENTRY_HORIZON + 1)):
            if d is None or _in_any(z, comps):  # a cut, or the entry
                if d is not None and r:
                    best = min(best, d)
                    seen = True
                break
    return best if seen else math.nan


def growth_table(records: Sequence[GrowthRecord]) -> tuple[tuple, list[tuple]]:
    """The growth CSV's header and rows: n, then |Df^n(f(c))| of each
    critical orbit.  One orbit is headed ``deriv``; several get one column
    each, headed by its c, with nan past an orbit's critical hit."""
    header = ("n", "deriv") if len(records) == 1 else ("n", *(r.c for r in records))
    cells = zip_longest(*(r.derivatives for r in records), fillvalue=math.nan)
    return header, [(n, *row) for n, row in enumerate(cells, start=1)]


def binding_table(record: BindingRecord) -> tuple[tuple, list[tuple]]:
    """The binding CSV's header and rows: n, gamma_n and the summability
    partial sum (nan past the sums computed)."""
    partial = record.summable_partial
    return ("n", "gamma", "partial_sum"), [
        (n, g, partial[n - 1] if n <= len(partial) else math.nan)
        for n, g in enumerate(record.gammas, start=1)]
