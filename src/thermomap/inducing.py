"""Full-branch inducing schemes: tower first returns and extendible returns.

A scheme (X, F, tau) is a countable family of disjoint subintervals
X_i of X, each mapped monotonically onto X by F = f^{tau_i}.  Two
constructions are provided: the first return map to a cylinder subset
of the Hofbauer tower, and the first delta-extendible return in the
interval itself.  Both are truncated at a time cap T; uncovered mass is
reported, never silently dropped.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import DomainError, ResourceError
from .hofbauer import HofbauerTower
from .interval_map import (
    IntervalMap,
    derivative_along_word,
    eval_along_word,
    pullback_word,
)
from .symbolic import Cylinder, DEGEN_TOL, monotone_pieces, refine_levels

#: Relative tolerance for onto/containment checks, in units of |X|.
ONTO_RTOL = 1e-9


@dataclass(frozen=True)
class SchemeBranch:
    lo: float
    hi: float
    tau: int
    word: tuple[int, ...]
    ext_lo: float
    ext_hi: float
    df_lo: float
    df_hi: float
    df_mid: float

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def distortion(self) -> float:
        return self.df_hi / self.df_lo


@dataclass
class InducingScheme:
    map: IntervalMap
    x_lo: float
    x_hi: float
    branches: list[SchemeBranch]
    delta: float
    origin: str                    # "tower-first-return" | "delta-extendible"
    truncation: int
    escaping_mass_bound: float
    exhausted: bool
    conflicts: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def x_len(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def x(self) -> tuple[float, float]:
        return (self.x_lo, self.x_hi)

    def koebe_bound(self) -> float:
        """Distortion bound (1+2d)/d^2 + 1 from the extension margin."""
        if self.delta <= 0:
            return math.inf
        return (1.0 + 2.0 * self.delta) / self.delta ** 2 + 1.0

    def measured_distortion(self) -> float:
        return max((b.distortion for b in self.branches), default=1.0)

    def covered_length(self) -> float:
        return sum(b.length for b in self.branches)


def _sample_derivative(m: IntervalMap,
                       word_at: Callable[[float], tuple[int, ...]],
                       lo: float, hi: float, n_inner: int = 9,
                       edge: float = 1e-12) -> tuple[float, float, float]:
    """(inf, sup, midpoint) of |Df^tau| on [lo, hi], sampled.

    ``word_at(x)`` names the branch word at each sample, so a branch that
    spans several cylinders of one monotone piece is followed piece by
    piece. The two end samples sit a relative ``edge`` inside the interval.
    """
    length = hi - lo
    xs = [lo + length * edge, hi - length * edge]
    xs += [lo + length * k / (n_inner + 1) for k in range(1, n_inner + 1)]
    vals = [derivative_along_word(m, word_at(x), x) for x in xs]
    x_mid = 0.5 * (lo + hi)
    mid = derivative_along_word(m, word_at(x_mid), x_mid)
    return min(vals), max(vals), mid


# ---------------------------------------------------------------------------
# first return map on the Hofbauer tower
# ---------------------------------------------------------------------------

def first_return_scheme(tower: HofbauerTower,
                        xhat: tuple[int, object],
                        T: int,
                        piece_cap: int = 200_000) -> InducingScheme:
    """First-return inducing scheme for X-hat = (cylinder C, tower node D).

    X-hat is read as the copies of C in every tower domain whose interval
    contains C; the enumeration starts from the given node.  Each return
    produces one full branch (the word pullback of C); remainders keep
    iterating until the time cap T.
    """
    m = tower.map
    node_idx, c_like = xhat
    if isinstance(c_like, Cylinder):
        c_lo, c_hi = c_like.lo, c_like.hi
    else:
        c_lo, c_hi = c_like
    if node_idx < 0 or node_idx >= len(tower.nodes):
        raise DomainError(f"node {node_idx} not in tower")
    start = tower.nodes[node_idx]
    if start.is_stub:
        raise DomainError("X-hat sits on a frontier stub of the truncation")
    if not start.contains_interval(c_lo, c_hi):
        raise DomainError(
            f"cylinder [{c_lo}, {c_hi}] not inside node interval "
            f"[{start.lo}, {start.hi}]")
    if T < 1:
        raise DomainError("time cap must be >= 1")
    x_len = c_hi - c_lo
    tol = ONTO_RTOL * max(x_len, 1e-30)
    qualifying = {d.index for d in tower.nodes
                  if not d.is_stub and d.contains_interval(c_lo, c_hi)}

    branches: list[SchemeBranch] = []
    conflicts = 0
    exhausted = True
    queue: deque[tuple[int, float, float, tuple[int, ...]]] = deque()

    def push_children(node_i: int, j_lo: float, j_hi: float,
                      word: tuple[int, ...]) -> None:
        nonlocal exhausted
        if len(word) >= T:
            exhausted = False
            return
        node = tower.nodes[node_i]
        if node.is_stub:
            exhausted = False
            return
        for a, b in enumerate(m.branches):
            p, q = max(j_lo, b.lo), min(j_hi, b.hi)
            if q - p <= DEGEN_TOL:
                continue
            target = tower.edges.get((node_i, a))
            if target is None:
                exhausted = False
                continue
            u, v = b.fwd(p), b.fwd(q)
            queue.append((target, min(u, v), max(u, v), word + (a,)))

    push_children(node_idx, c_lo, c_hi, ())
    seen = 0
    while queue:
        seen += 1
        if seen > piece_cap:
            raise ResourceError(f"piece cap {piece_cap} exceeded", count=seen)
        node_i, j_lo, j_hi, word = queue.popleft()
        remainders = [(j_lo, j_hi)]
        if node_i in qualifying:
            ov_lo, ov_hi = max(j_lo, c_lo), min(j_hi, c_hi)
            if ov_hi - ov_lo > tol:
                if ov_lo > c_lo + tol or ov_hi < c_hi - tol:
                    # partial overlap: not a full branch; report and drop
                    conflicts += 1
                    exhausted = False
                else:
                    x_i_a = pullback_word(m, word, c_lo)
                    x_i_b = pullback_word(m, word, c_hi)
                    b_lo, b_hi = min(x_i_a, x_i_b), max(x_i_a, x_i_b)
                    node = tower.nodes[node_i]
                    ext_a = pullback_word(m, word, node.lo)
                    ext_b = pullback_word(m, word, node.hi)
                    dlo, dhi, dmid = _sample_derivative(
                        m, lambda _x: word, b_lo, b_hi)
                    branches.append(SchemeBranch(
                        b_lo, b_hi, len(word), word,
                        min(ext_a, ext_b), max(ext_a, ext_b),
                        dlo, dhi, dmid))
                remainders = [(j_lo, ov_lo), (ov_hi, j_hi)]
        for r_lo, r_hi in remainders:
            if r_hi - r_lo > DEGEN_TOL:
                push_children(node_i, r_lo, r_hi, word)

    branches.sort(key=lambda b: b.lo)
    covered = sum(b.length for b in branches)
    margins = []
    for b in branches:
        final = tower.nodes[_final_node(tower, node_idx, b.word)]
        margins.append(min(c_lo - final.lo, final.hi - c_hi))
    delta = max(0.0, min(margins) / x_len) if margins else 0.0
    return InducingScheme(
        m, c_lo, c_hi, branches, delta, "tower-first-return", T,
        max(0.0, x_len - covered), exhausted, conflicts,
        meta={"node": node_idx})


def _final_node(tower: HofbauerTower, start: int, word: Sequence[int]) -> int:
    node = start
    for a in word:
        node = tower.edges[(node, a)]
    return node


# ---------------------------------------------------------------------------
# first delta-extendible returns
# ---------------------------------------------------------------------------

def _fit_neighbourhood(m: IntervalMap, x_lo: float, x_hi: float,
                       delta: float) -> tuple[float, float]:
    """Concentric (1+2*delta)-scaled neighbourhood, slid to fit the domain."""
    dlo, dhi = m.domain
    margin = delta * (x_hi - x_lo)
    y_lo, y_hi = x_lo - margin, x_hi + margin
    if y_hi - y_lo > dhi - dlo + 1e-12:
        raise DomainError(
            f"(1+2*delta)-neighbourhood of X (length {y_hi - y_lo:.6g}) "
            f"cannot fit in the domain")
    if y_lo < dlo:
        y_hi += dlo - y_lo
        y_lo = dlo
    if y_hi > dhi:
        y_lo -= y_hi - dhi
        y_hi = dhi
    return y_lo, y_hi


class _Uncovered:
    """Sorted disjoint subintervals of X not yet owned by a branch."""

    def __init__(self, lo: float, hi: float):
        self.parts: list[tuple[float, float]] = [(lo, hi)]

    def total(self) -> float:
        return sum(b - a for a, b in self.parts)

    def classify(self, lo: float, hi: float, tol: float) -> str:
        """'inside' one part, 'outside' all parts, or 'partial'."""
        for a, b in self.parts:
            if lo >= a - tol and hi <= b + tol:
                return "inside"
        if all(min(hi, b) - max(lo, a) <= tol for a, b in self.parts):
            return "outside"
        return "partial"

    def remove(self, lo: float, hi: float) -> None:
        out = []
        for a, b in self.parts:
            if hi <= a or lo >= b:
                out.append((a, b))
                continue
            if lo > a:
                out.append((a, lo))
            if hi < b:
                out.append((hi, b))
        self.parts = [(a, b) for a, b in out if b - a > DEGEN_TOL]


def extendible_return_scheme(m: IntervalMap, x: tuple[float, float] | Cylinder,
                             delta: float, T: int,
                             cap: int = 400_000) -> InducingScheme:
    """First delta-extendible return scheme on the interval X.

    For each maximal monotone piece of f^j (j <= T) whose image covers
    the scaled neighbourhood Y of X, the pullback of X is a branch with
    inducing time j, provided no earlier branch already owns it.
    """
    if isinstance(x, Cylinder):
        x_lo, x_hi = x.lo, x.hi
    else:
        x_lo, x_hi = x
    if delta <= 0:
        raise DomainError("delta must be > 0")
    if T < 1:
        raise DomainError("time cap must be >= 1")
    x_len = x_hi - x_lo
    y_lo, y_hi = _fit_neighbourhood(m, x_lo, x_hi, delta)
    tol = ONTO_RTOL * max(x_len, 1e-30)

    uncovered = _Uncovered(x_lo, x_hi)
    branches: list[SchemeBranch] = []
    conflicts = 0

    def pull(piece: list[Cylinder], y: float) -> float:
        for cyl in piece:
            if cyl.image_lo - 1e-12 <= y <= cyl.image_hi + 1e-12:
                return pullback_word(m, cyl.word, y)
        raise DomainError(f"target {y} outside piece image")

    levels = refine_levels(m, T, cap=cap)
    exhausted = False
    for level in levels:
        if uncovered.total() <= DEGEN_TOL:
            exhausted = True
            break
        j = level[0].depth
        for piece in monotone_pieces(m, level):
            img_lo = min(c.image_lo for c in piece)
            img_hi = max(c.image_hi for c in piece)
            if img_lo > y_lo + 1e-12 or img_hi < y_hi - 1e-12:
                continue
            pa, pb = pull(piece, x_lo), pull(piece, x_hi)
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
            ea, eb = pull(piece, y_lo), pull(piece, y_hi)
            word = _word_at(piece, 0.5 * (b_lo + b_hi))
            dlo, dhi, dmid = _sample_derivative(
                m, lambda xx: _word_at(piece, xx), b_lo, b_hi, edge=1e-9)
            branches.append(SchemeBranch(
                b_lo, b_hi, j, word, min(ea, eb), max(ea, eb), dlo, dhi, dmid))
            uncovered.remove(b_lo, b_hi)
    else:
        exhausted = uncovered.total() <= max(DEGEN_TOL, 1e-12 * x_len)

    branches.sort(key=lambda b: b.lo)
    return InducingScheme(
        m, x_lo, x_hi, branches, delta, "delta-extendible", T,
        uncovered.total(), exhausted, conflicts,
        meta={"y": (y_lo, y_hi)})


def _word_at(piece: list[Cylinder], x: float) -> tuple[int, ...]:
    for cyl in piece:
        if cyl.lo - 1e-12 <= x <= cyl.hi + 1e-12:
            return cyl.word
    return piece[0].word


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchCheck:
    index: int
    disjoint: bool
    onto: bool
    distortion: float
    distortion_ok: bool
    overlap_with: int | None = None
    overlap_interval: tuple[float, float] | None = None

    @property
    def ok(self) -> bool:
        return self.disjoint and self.onto and self.distortion_ok


@dataclass(frozen=True)
class SchemeReport:
    checks: tuple[BranchCheck, ...]
    koebe_bound: float
    max_distortion: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def validate_scheme(scheme: InducingScheme) -> SchemeReport:
    """Disjointness, onto-ness and the Koebe distortion bound, per branch."""
    m = scheme.map
    x_lo, x_hi = scheme.x
    tol = ONTO_RTOL * max(scheme.x_len, 1e-30)
    bound = scheme.koebe_bound()
    ordered = sorted(range(len(scheme.branches)),
                     key=lambda i: scheme.branches[i].lo)
    checks = []
    for pos, i in enumerate(ordered):
        b = scheme.branches[i]
        disjoint = True
        overlap_with = None
        overlap_interval = None
        if pos + 1 < len(ordered):
            nb = scheme.branches[ordered[pos + 1]]
            if nb.lo < b.hi - tol:
                disjoint = False
                overlap_with = ordered[pos + 1]
                overlap_interval = (nb.lo, min(b.hi, nb.hi))
        try:
            v_lo = eval_along_word(m, b.word, b.lo)
            v_hi = eval_along_word(m, b.word, b.hi)
        except DomainError:
            v_lo = v_hi = math.nan
        lo_img, hi_img = min(v_lo, v_hi), max(v_lo, v_hi)
        # forward evaluation amplifies roundoff by |DF| per remaining step;
        # endpoints came from the contracting pullback, so allow that noise
        onto_tol = tol + b.df_hi * max(b.tau, 1) * 128.0 * 2.3e-16
        onto = (abs(lo_img - x_lo) <= onto_tol and abs(hi_img - x_hi) <= onto_tol)
        dist = b.distortion
        checks.append(BranchCheck(i, disjoint, onto, dist,
                                  dist <= bound * (1.0 + 1e-9),
                                  overlap_with, overlap_interval))
    max_dist = max((c.distortion for c in checks), default=1.0)
    return SchemeReport(tuple(checks), bound, max_dist)


def scheme_to_csv_rows(scheme: InducingScheme) -> list[tuple]:
    """Rows (i, lo, hi, tau, inf_DF, sup_DF, ext_lo, ext_hi)."""
    return [(i, b.lo, b.hi, b.tau, b.df_lo, b.df_hi, b.ext_lo, b.ext_hi)
            for i, b in enumerate(scheme.branches)]
