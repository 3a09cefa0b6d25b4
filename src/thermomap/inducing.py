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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateBranchError, DomainError, ResourceError
from .hofbauer import build_tower
from .interval_map import (
    IntervalMap,
    InverseSteps,
    derivative_along_word,
    derivative_along_words,
    eval_along_word,
    pullback_word,
    pullback_words,
)
from .symbolic import (Cylinder, DEGEN_TOL, Word, _branch_images,
                       fold_free_runs, monotone_pieces, periodic_point,
                       refine_levels)

#: Relative tolerance for onto/containment checks, in units of |X|.
ONTO_RTOL = 1e-9
#: Interior points at which |DF| is sampled on each branch, besides the ends.
DF_SAMPLES = 9
#: Tower pieces a first-return scheme may visit before giving up.
PIECE_CAP = 200_000
#: Cylinders per refinement level an extendible scheme may build; only live
#: runs get children, so the cap bounds those.
CYLINDER_CAP = 400_000
#: A run of f^j between folds is refined further while its x-span comes
#: within this many onto tolerances of uncovered X or of a point of its
#: boundary.
LIVE_MARGIN = 4


def _checked_x(x: tuple[float, float], T: int) -> tuple[float, float]:
    """X's ends, refused unless x_lo < x_hi and the time cap T is >= 1."""
    x_lo, x_hi = x
    if not x_lo < x_hi:
        raise DomainError(f"X = [{x_lo}, {x_hi}] is empty or reversed")
    if T < 1:
        raise DomainError("time cap must be >= 1")
    return x_lo, x_hi


def _word_of(cyls: Sequence[Cylinder], x: float, default: Word,
             image: bool = False) -> Word:
    """The word of the first cylinder whose interval, or with ``image`` its
    image, holds x within 1e-12, else ``default``."""
    for c in cyls:
        lo, hi = (c.image_lo, c.image_hi) if image else (c.lo, c.hi)
        if lo - 1e-12 <= x <= hi + 1e-12:
            return c.word
    return default


def _part_words(cyls: Sequence[Cylinder], zs: np.ndarray, default: Word,
                image: bool = False) -> tuple[list[Word], np.ndarray]:
    """(words, index) with words[index[r]] = ``_word_of(cyls, zs[r],
    default, image)``: the scalar readers' rule, point by point."""
    index = np.full(len(zs), len(cyls), dtype=np.intp)
    for k in range(len(cyls) - 1, -1, -1):  # the first cylinder wins
        c = cyls[k]
        lo, hi = (c.image_lo, c.image_hi) if image else (c.lo, c.hi)
        index[(lo - 1e-12 <= zs) & (zs <= hi + 1e-12)] = k
    return [c.word for c in cyls] + [default], index


def _along_words(m: IntervalMap,
                 blocks: Sequence[tuple[Sequence[Cylinder], Word]],
                 xs: np.ndarray, image: bool = False) -> np.ndarray:
    """|DF| at each point of the 2-D array xs, or with ``image`` the
    F-preimage of each point, flat, in one stacked kernel call: the points
    of row i follow the words that ``_part_words`` gives them for
    blocks[i] = (parts, word), as ``SchemeBranch.dF`` and ``pullback`` do
    point by point.  The kernel gets each distinct word once."""
    slots: dict[Word, int] = {}
    index = np.empty(xs.shape, dtype=np.intp)
    for i, (parts, word) in enumerate(blocks):
        if parts:
            ws, k = _part_words(parts, xs[i], word, image)
            index[i] = np.array([slots.setdefault(w, len(slots)) for w in ws])[k]
        else:
            index[i] = slots.setdefault(word, len(slots))
    kernel = pullback_words if image else derivative_along_words
    return kernel(m, list(slots), index.ravel(), xs.ravel())


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
    #: the cylinders of f^tau that the branch spans, when it spans more than
    #: one; empty when ``word`` holds on the whole branch
    parts: tuple[Cylinder, ...] = ()

    def forward(self, m: IntervalMap, x: float) -> float:
        """F(x), along the word of x's own cylinder."""
        return eval_along_word(m, _word_of(self.parts, x, self.word), x)

    def dF(self, m: IntervalMap, x: float) -> float:
        """|DF(x)|, along the word of x's own cylinder."""
        return derivative_along_word(m, _word_of(self.parts, x, self.word), x)

    def pullback(self, m: IntervalMap, y: float) -> float:
        """The F-preimage in the branch of y in X.

        y is pulled back along the word of the first part whose image
        holds it; a single-word branch is exactly
        ``pullback_word(m, word, y)``.
        """
        return pullback_word(m, _word_of(self.parts, y, self.word, image=True), y)

    def segments(self) -> tuple[tuple[float, float, tuple[int, ...]], ...]:
        """The branch cut into (lo, hi, word) pieces that follow one word."""
        if not self.parts:
            return ((self.lo, self.hi, self.word),)
        return tuple((max(c.lo, self.lo), min(c.hi, self.hi), c.word)
                     for c in self.parts
                     if min(c.hi, self.hi) > max(c.lo, self.lo))

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def distortion(self) -> float:
        return self.df_hi / self.df_lo if self.df_lo > 0.0 else math.inf


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
        """Log of an upper bound on the omitted weight sum; inf when divergent."""
        coeff, rate = self._log_term(t, s, log_k)
        if not (rate < 0.0 and coeff < math.inf):
            return math.inf
        return coeff + (self.T + 1) * rate - math.log(-math.expm1(rate))

    def tau_weight_tail(self, t: float, s: float, log_k: float) -> float:
        """Log of an upper bound on the omitted sum of tau * weight."""
        coeff, rate = self._log_term(t, s, log_k)
        if not (rate < 0.0 and coeff < math.inf):
            return math.inf
        q = -math.expm1(rate)
        return (coeff + (self.T + 1) * rate + math.log1p(self.T * q)
                - 2.0 * math.log(q))


@dataclass(frozen=True)
class InducingScheme:
    """Frozen: its t-free data are cached properties, computed once and
    shared by every t; a ``dataclasses.replace`` copy has its own caches."""

    map: IntervalMap
    x_lo: float
    x_hi: float
    branches: list[SchemeBranch]
    delta: float
    truncation: int
    escaping_mass_bound: float
    exhausted: bool
    conflicts: int = 0

    @property
    def x_len(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def x(self) -> tuple[float, float]:
        return (self.x_lo, self.x_hi)

    def koebe_bound(self) -> float:
        """Distortion bound (1+2d)/d^2 + 1 from the extension margin."""
        # d^2 underflows to 0 below about d = 1e-162, where the bound is inf
        if self.delta <= 0 or self.delta ** 2 == 0.0:
            return math.inf
        return (1.0 + 2.0 * self.delta) / self.delta ** 2 + 1.0

    def measured_distortion(self) -> float:
        return max((b.distortion for b in self.branches), default=1.0)

    def depth2_points(self, first: Sequence[int], ys: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """(xs, dfs) for the 2-D array ys: xs[r, k] is the F_i-preimage of
        ys[r, k] for i = first[r], and dfs[r, k] is |DF_i| there, in two
        stacked passes; ``SchemeBranch.pullback`` and ``dF`` float for
        float."""
        blocks = [(self.branches[i].parts, self.branches[i].word)
                  for i in first]
        xs = _along_words(self.map, blocks, ys, image=True).reshape(ys.shape)
        return xs, _along_words(self.map, blocks, xs).reshape(ys.shape)

    @cached_property
    def depth2_derivatives(self) -> np.ndarray:
        """Entry [j, i] is |DF_i| at the F_i-preimage of branch j's midpoint."""
        n = len(self.branches)
        mids = np.tile([b.midpoint for b in self.branches], (n, 1))
        # row i is column i of the matrix: the matrix is the transposed
        # (F-ordered) view, whose layout sets the summation order of the
        # depth-2 power iteration
        return self.depth2_points(range(n), mids)[1].T

    @cached_property
    def potential_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                          float]:
        """What the induced potential reads at every t, read-only: (taus,
        log df_lo and log df_hi stacked, log df_mid, k) over the branches,
        where k is the Koebe bound, or the measured distortion (at least
        1) where that is inf."""
        bs = self.branches
        df_lo = np.array([b.df_lo for b in bs])
        if np.any(df_lo <= 0.0):
            raise DegenerateBranchError(
                "a branch has a vanishing derivative bracket")
        arrays = (np.array([b.tau for b in bs], dtype=float),
                  np.stack([np.log(df_lo), np.log([b.df_hi for b in bs])]),
                  np.log([b.df_mid for b in bs]))
        for a in arrays:
            a.flags.writeable = False
        kb = self.koebe_bound()
        return (*arrays,
                kb if math.isfinite(kb) else max(self.measured_distortion(), 1.0))

    @cached_property
    def tail_info(self) -> TailInfo | None:
        """``thermo.tail_info_for(self)``: tail data, None if exhausted."""
        from .thermo import tail_info_for  # thermo imports this module
        return tail_info_for(self)

    @cached_property
    def segment_orbits(self) -> list[tuple[float, float, Word,
                                           list[tuple[float, float]]]]:
        """(lo, hi, word, ends) for each segment of each branch, in order:
        ends[k] is (f^k(lo), f^k(hi)) along ``word`` for k < tau, the floats
        of ``eval_along_word(m, word[:k], .)``, one letter at a time."""
        m = self.map
        out = []
        for b in self.branches:
            for lo, hi, word in b.segments():
                u, v = lo, hi
                ends = [(u, v)]
                for a in word[:b.tau - 1]:
                    u = eval_along_word(m, (a,), u)
                    v = eval_along_word(m, (a,), v)
                    ends.append((u, v))
                out.append((lo, hi, word, ends))
        return out

    @cached_property
    def periodic_orbits(self) -> list[tuple[float, int]]:
        """(log multiplier, period) of the map's orbits of period <= 3, by
        period and then word; the cylinders come from one refinement."""
        m = self.map
        orbits = []
        # level 3 holds at most n^3 cylinders, so the cap never binds
        for level in refine_levels(m, 3, cap=m.n_branches ** 3):
            for cyl in sorted(level, key=lambda c: c.word):
                pp = periodic_point(m, cyl)
                if pp is not None and pp.multiplier > 0:
                    orbits.append((math.log(pp.multiplier), cyl.depth))
        return orbits


#: What a scheme builder records of a branch before its |DF| is sampled:
#: (lo, hi, tau, word, ext, parts, edge).
BranchGeometry = tuple[float, float, int, Word, tuple[float, float],
                       Sequence[Cylinder], float]


def _make_branches(m: IntervalMap,
                   geometry: Sequence[BranchGeometry]) -> list[SchemeBranch]:
    """Each branch [lo, hi] with return time tau and extension ends
    ``ext``, in either order, and its |DF| sampled: df_lo and df_hi are the
    inf and sup of its values at the ends, a relative ``edge`` inside the
    branch, and at DF_SAMPLES interior points, and df_mid its value at the
    midpoint.  Every branch is sampled in one stacked pass.

    ``parts`` are the cylinders of f^tau that a point of the branch can
    fall in.  The branch word is that of the part holding the midpoint,
    else ``word``; a branch with one part follows its word throughout.
    """
    blocks, xs = [], []
    for lo, hi, _, word, _, parts, edge in geometry:
        mid = 0.5 * (lo + hi)
        length = hi - lo
        xs.append([lo + length * edge, hi - length * edge]
                  + [lo + length * k / (DF_SAMPLES + 1)
                     for k in range(1, DF_SAMPLES + 1)] + [mid])
        blocks.append((tuple(parts) if len(parts) > 1 else (),
                       _word_of(parts, mid, word)))
    xs = np.array(xs).reshape(len(blocks), DF_SAMPLES + 3)
    vals = _along_words(m, blocks, xs).reshape(xs.shape).tolist()
    return [SchemeBranch(lo, hi, tau, word, min(ext), max(ext), min(ends),
                         max(ends), df_mid, parts)
            for (lo, hi, tau, _, ext, _, _), (parts, word), (*ends, df_mid)
            in zip(geometry, blocks, vals)]


# ---------------------------------------------------------------------------
# first return map on the Hofbauer tower
# ---------------------------------------------------------------------------

def first_return_scheme(m: IntervalMap, x: tuple[float, float],
                        T: int) -> InducingScheme:
    """First-return inducing scheme to X = [c_lo, c_hi] on the Hofbauer tower.

    X is lifted to its copies in every tower domain whose interval
    contains it, and the enumeration starts from the base domain.  Each
    return produces one full branch (the word pullback of X); remainders
    keep iterating until the time cap T, the scheme's only truncation.
    The tower is built to level T, which every return of length <= T
    stays within.
    """
    c_lo, c_hi = _checked_x(x, T)
    tower = build_tower(m, T)
    base = tower.nodes[0]
    if not base.contains_interval(c_lo, c_hi):
        raise DomainError(f"X = [{c_lo}, {c_hi}] not inside the domain "
                          f"[{base.lo}, {base.hi}]")
    x_len = c_hi - c_lo
    tol = ONTO_RTOL * max(x_len, 1e-30)
    qualifying = {d.index for d in tower.nodes
                  if d.contains_interval(c_lo, c_hi)}

    # (word, node.lo, node.hi) of each return, pulled back at the end
    returns: list[tuple[Word, float, float]] = []
    margins: list[float] = []
    conflicts = 0
    exhausted = True
    queue: deque[tuple[int, float, float, tuple[int, ...]]] = deque()

    def push_children(node_i: int, j_lo: float, j_hi: float,
                      word: tuple[int, ...]) -> None:
        nonlocal exhausted
        if len(word) >= T:
            exhausted = False
            return
        for a, _, _, img_lo, img_hi in _branch_images(m, j_lo, j_hi):
            queue.append((tower.edges[(node_i, a)], img_lo, img_hi, word + (a,)))

    push_children(0, c_lo, c_hi, ())
    seen = 0
    while queue:
        seen += 1
        if seen > PIECE_CAP:
            raise ResourceError(f"piece cap {PIECE_CAP} exceeded", count=seen)
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
                    node = tower.nodes[node_i]
                    returns.append((word, node.lo, node.hi))
                    margins.append(min(c_lo - node.lo, node.hi - c_hi))
                remainders = [(j_lo, ov_lo), (ov_hi, j_hi)]
        for r_lo, r_hi in remainders:
            if r_hi - r_lo > DEGEN_TOL:
                push_children(node_i, r_lo, r_hi, word)

    # X's ends and the tower domain's ends, pulled back along every
    # return word at once
    ends = _along_words(m, [((), w) for w, _, _ in returns],
                        np.array([(c_lo, c_hi, n_lo, n_hi)
                                  for _, n_lo, n_hi in returns]).reshape(-1, 4),
                        image=True)
    branches = _make_branches(m, [
        (min(a, b), max(a, b), len(w), w, (e_a, e_b), (), 1e-12)
        for (w, _, _), (a, b, e_a, e_b) in zip(returns,
                                                ends.reshape(-1, 4).tolist())])
    branches.sort(key=lambda b: b.lo)
    covered = sum(b.length for b in branches)
    delta = max(0.0, min(margins) / x_len) if margins else 0.0
    return InducingScheme(m, c_lo, c_hi, branches, delta, T,
                          max(0.0, x_len - covered), exhausted, conflicts)


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


def extendible_return_scheme(m: IntervalMap, x: tuple[float, float],
                             delta: float, T: int) -> InducingScheme:
    """First delta-extendible return scheme on the interval X.

    For each maximal monotone piece of f^j (j <= T) whose image covers
    the scaled neighbourhood Y of X, the pullback of X is a branch with
    inducing time j, provided no earlier branch already owns it.  Only
    the cylinders that can still lead to a branch or a conflict are
    refined; the scheme is the one full refinement gives.
    """
    x_lo, x_hi = _checked_x(x, T)
    if not 0 < delta < math.inf:
        raise DomainError(f"delta must be finite and > 0, got {delta!r}")
    x_len = x_hi - x_lo
    y_lo, y_hi = _fit_neighbourhood(m, x_lo, x_hi, delta)
    tol = ONTO_RTOL * max(x_len, 1e-30)

    uncovered = _Uncovered(x_lo, x_hi)
    geometry: list[BranchGeometry] = []  # sampled at the end
    conflicts = 0

    def live(level: list[Cylinder]) -> list[Cylinder]:
        """The cylinders that can still lead to a branch or a conflict:
        those of the runs between folds that come within LIVE_MARGIN * tol
        of uncovered X or of a point of its boundary.  A candidate lies in
        its piece, every later piece in one run, and uncovered X only
        shrinks, so no other cylinder has a descendant that counts."""
        margin = LIVE_MARGIN * tol
        targets = uncovered.parts + [(x_lo, x_lo), (x_hi, x_hi)]
        return [c for run in fold_free_runs(level)
                if any(run[0].lo - margin <= b and a <= run[-1].hi + margin
                       for a, b in targets)
                for c in run]

    # the refinement and the branch ends below share their inverse steps
    steps = InverseSteps(m)

    def pull(piece: list[Cylinder], y: float) -> float:
        return steps(_word_of(piece, y, piece[0].word, image=True), y)

    levels = refine_levels(m, T, cap=CYLINDER_CAP, keep=live, _steps=steps)
    exhausted = False
    for j, level in enumerate(levels, 1):
        if uncovered.total() <= DEGEN_TOL:
            exhausted = True
            break
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
            pa = pull(piece, x_lo)
            pb = pull(piece, x_hi)
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
            # the piece's cylinders that a point of [b_lo, b_hi] can fall in
            parts = [c for c in piece
                     if c.hi + 1e-12 >= b_lo and c.lo - 1e-12 <= b_hi]
            geometry.append((b_lo, b_hi, j, piece[0].word,
                             (pull(piece, y_lo), pull(piece, y_hi)), parts,
                             1e-9))
            uncovered.remove(b_lo, b_hi)
    else:
        exhausted = uncovered.total() <= max(DEGEN_TOL, 1e-12 * x_len)

    branches = _make_branches(m, geometry)
    branches.sort(key=lambda b: b.lo)
    return InducingScheme(m, x_lo, x_hi, branches, delta, T,
                          uncovered.total(), exhausted, conflicts)


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
    x_lo, x_hi = scheme.x
    tol = ONTO_RTOL * max(scheme.x_len, 1e-30)
    bound = scheme.koebe_bound()
    ordered = sorted(range(len(scheme.branches)),
                     key=lambda i: scheme.branches[i].lo)
    m = scheme.map
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
            v_lo, v_hi = b.forward(m, b.lo), b.forward(m, b.hi)
        except DomainError:  # an end F cannot evaluate is not onto
            v_lo = v_hi = math.nan
        lo_img, hi_img = min(v_lo, v_hi), max(v_lo, v_hi)
        # forward evaluation amplifies roundoff by |DF| per remaining step;
        # endpoints came from the contracting pullback, so allow that noise
        onto_tol = tol + b.df_hi * max(b.tau, 1) * 128.0 * 2.3e-16
        onto = (abs(lo_img - x_lo) <= onto_tol and abs(hi_img - x_hi) <= onto_tol)
        dist = b.distortion
        # an infinite distortion is never within bound, not even an inf one
        checks.append(BranchCheck(i, disjoint, onto, dist,
                                  math.isfinite(dist) and dist <= bound * (1.0 + 1e-9),
                                  overlap_with, overlap_interval))
    max_dist = max((c.distortion for c in checks), default=1.0)
    return SchemeReport(tuple(checks), bound, max_dist)


def scheme_to_csv_rows(scheme: InducingScheme) -> list[tuple]:
    """Rows (i, lo, hi, tau, inf_DF, sup_DF, ext_lo, ext_hi)."""
    return [(i, b.lo, b.hi, b.tau, b.df_lo, b.df_hi, b.ext_lo, b.ext_hi)
            for i, b in enumerate(scheme.branches)]
