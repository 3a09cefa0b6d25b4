"""Finite-horizon checks of the standing hypotheses.

Everything here is a trend verdict at a finite horizon and is labelled
as such: derivative growth along critical orbits, binding periods and
summability gauges, variation decay of induced potentials, and sampled
expansion outside a critical neighbourhood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CriticalOrbitError, DomainError
from .inducing import InducingScheme
from .interval_map import (IntervalMap, derivative_along, derivative_prefixes,
                           eval_orbit)
from .thermo import _fit_line

#: R^2 that the exponential fit of every critical orbit must reach for CE.
R2_CE = 0.99
#: Proof constant of the composition sums.
ZETA = 1.0
#: Points sampled in each critical-neighbourhood component for binding.
BINDING_SAMPLES = 64
#: Variation decay: the longest branches followed, and the widest
#: pullback intervals kept per level.
VARIATION_BRANCHES = 12
VARIATION_KEEP = 64
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
        ns = np.arange(1, len(arr) + 1, dtype=float)
        if len(arr) >= 3:
            alpha, a_r2 = _fit_line(ns, np.log(arr))
            beta, b_r2 = _fit_line(np.log(ns), np.log(arr))
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
        left_b, right_b = m.branches[bi], m.branches[bj]
        l_lo, l_hi = left_b.image
        r_lo, r_hi = right_b.image
        a = left_b.inv(min(max(target_lo, l_lo), l_hi)) \
            if left_b.orientation > 0 else left_b.inv(min(max(target_hi, l_lo), l_hi))
        b = right_b.inv(min(max(target_lo, r_lo), r_hi)) \
            if right_b.orientation < 0 else right_b.inv(min(max(target_hi, r_lo), r_hi))
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
    for (u_lo, u_hi), cp in zip(comps, crits):
        orb_c = eval_orbit(m, cp.c, n_max)
        for k in range(1, BINDING_SAMPLES + 1):
            x = u_lo + (u_hi - u_lo) * k / (BINDING_SAMPLES + 1)
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
                dfp = derivative_along(m, x, p)
            except CriticalOrbitError:
                continue
            f_prime[p] = min(f_prime.get(p, math.inf), dfp)
    # |Df^n(f(c))| for n = 1.. up to the orbit's first critical hit
    growth = [derivative_prefixes(m, m.apply(cp.c), n_max) for cp in crits]
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
# variation decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationRecord:
    v_n: tuple[float, ...]
    geometric_rate: float
    fit_r2: float
    summable_trend: bool


def variation_decay(scheme: InducingScheme, t: float,
                    n_max: int = 6) -> VariationRecord:
    """Oscillation of the induced potential over scheme n-cylinders.

    The potential -t log|DF| only sees the first letter of a cylinder
    word, so V_n is the oscillation over depth-n pullback intervals.
    Words are drawn from the longest branches and the widest intervals
    are kept per level (the full cylinder count explodes).
    """
    if n_max > 8:
        raise DomainError("n_max must be <= 8 (cylinder blow-up)")
    m = scheme.map
    branches = sorted(scheme.branches, key=lambda b: -b.length)[:VARIATION_BRANCHES]
    if not branches:
        raise DomainError("scheme has no branches")

    def osc_on(br, lo: float, hi: float) -> float:
        xs = [lo + (hi - lo) * k / 6 for k in range(7)]
        vals = [-t * math.log(br.dF(m, x)) for x in xs]
        return max(vals) - min(vals)

    v_n = []
    # level n holds (first branch, interval): depth-n cylinder pullbacks
    level = [(br, br.lo, br.hi) for br in branches]
    for n in range(1, n_max + 1):
        v_n.append(max(osc_on(br, lo, hi) for br, lo, hi in level))
        if n == n_max:
            break
        nxt = []
        for parent in branches:
            for _, lo, hi in level:
                a = parent.pullback(m, lo)
                b = parent.pullback(m, hi)
                if abs(b - a) > 1e-15:
                    nxt.append((parent, min(a, b), max(a, b)))
        nxt.sort(key=lambda r: r[1] - r[2])
        level = nxt[:VARIATION_KEEP]
    arr = np.array(v_n)
    pos = arr > 1e-15
    if pos.sum() >= 3:
        ns = np.arange(1, n_max + 1, dtype=float)[pos]
        slope, r2 = _fit_line(ns, np.log(arr[pos]))
        rate = math.exp(slope)
    else:
        rate, r2 = 0.0, 1.0
    summable = rate < 1.0
    return VariationRecord(tuple(v_n), rate, r2, summable)


# ---------------------------------------------------------------------------
# expansion outside a neighbourhood, niceness, first-entry derivatives
# ---------------------------------------------------------------------------

def _in_any(x: float, comps: Sequence[tuple[float, float]]) -> bool:
    return any(lo < x < hi for lo, hi in comps)


def mane_expansion_estimate(m: IntervalMap, comps: Sequence[tuple[float, float]],
                            seed: int = 0) -> float:
    """min over sampled avoidance windows of (1/k) log |Df^k|.

    Long generic orbits are cut into maximal excursions outside U of
    length >= MANE_K_MIN; a positive minimum is the finite-horizon
    reading of uniform expansion away from the critical neighbourhood.
    """
    rng = np.random.default_rng(seed)
    lo, hi = m.domain
    best = math.inf
    seen = False
    for _ in range(MANE_ORBITS):
        x = float(rng.uniform(lo, hi))
        orb = eval_orbit(m, x, MANE_ORBIT_LEN)
        start = None
        for idx, z in enumerate(orb):
            if _in_any(z, comps):
                if start is not None and idx - start >= MANE_K_MIN:
                    k = idx - start
                    try:
                        best = min(best, math.log(
                            derivative_along(m, orb[start], k)) / k)
                        seen = True
                    except CriticalOrbitError:
                        pass
                start = None
            elif start is None:
                start = idx
    return best if seen else math.nan


@dataclass(frozen=True)
class NiceReport:
    nice: bool
    offending_n: int | None


def nice_check(m: IntervalMap, comps: Sequence[tuple[float, float]],
               n_max: int = 64) -> NiceReport:
    """Check f^n(boundary of U) never enters the open set U, n <= n_max."""
    for lo, hi in comps:
        for endpoint in (lo, hi):
            orb = eval_orbit(m, endpoint, n_max)
            for n, z in enumerate(orb[1:], start=1):
                if _in_any(z, comps):
                    return NiceReport(False, n)
    return NiceReport(True, None)


def first_entry_derivative_bound(m: IntervalMap,
                                 comps: Sequence[tuple[float, float]],
                                 seed: int = 0) -> float:
    """Sampled lower bound b on |Df^r| at the first entry time into U."""
    rng = np.random.default_rng(seed)
    lo, hi = m.domain
    best = math.inf
    for _ in range(ENTRY_SAMPLES):
        x = float(rng.uniform(lo, hi))
        z = x
        r = 0
        while r < ENTRY_HORIZON and not _in_any(z, comps):
            z = m.apply(z)
            r += 1
        if r == 0:
            continue
        try:
            best = min(best, derivative_along(m, x, r))
        except CriticalOrbitError:
            continue
    return best


def growth_csv_rows(record: GrowthRecord) -> list[tuple]:
    return [(n + 1, d) for n, d in enumerate(record.derivatives)]


def binding_csv_rows(record: BindingRecord) -> list[tuple]:
    rows = []
    for n, g in enumerate(record.gammas, start=1):
        s = record.summable_partial[n - 1] if n - 1 < len(record.summable_partial) else math.nan
        rows.append((n, g, s))
    return rows
