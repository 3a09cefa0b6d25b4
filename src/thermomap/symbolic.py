"""Cylinder partitions, itineraries, lap counts and periodic points.

Cylinders are pulled back through closed-form branch inverses, which
contract numerical error, so endpoints of deep cylinders stay accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import AmbiguityError, DomainError, NumericError, ResourceError
from .interval_map import (
    IntervalMap,
    SNAP_TOL,
    derivative_along_word,
    eval_along_word,
    pullback_word,
)

#: Intersections shorter than this are treated as degenerate and dropped.
DEGEN_TOL = 1e-13

Word = tuple[int, ...]


@dataclass(frozen=True)
class Cylinder:
    """An n-cylinder: branch word, interval, and its image under f^n."""

    word: Word
    lo: float
    hi: float
    image_lo: float
    image_hi: float
    orientation: int

    @property
    def depth(self) -> int:
        return len(self.word)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def value_at(self, x_endpoint: str) -> float:
        """Image value at the 'lo' or 'hi' endpoint (orientation-aware)."""
        incr = self.orientation > 0
        if x_endpoint == "lo":
            return self.image_lo if incr else self.image_hi
        return self.image_hi if incr else self.image_lo


def _children(m: IntervalMap, cyl: Cylinder) -> list[Cylinder]:
    out = []
    for a, b in enumerate(m.branches):
        p = max(cyl.image_lo, b.lo)
        q = min(cyl.image_hi, b.hi)
        if q - p <= DEGEN_TOL:
            continue
        # pull the piece [p, q] back through the word chain
        if p == cyl.image_lo:
            xp = cyl.lo if cyl.orientation > 0 else cyl.hi
        else:
            xp = pullback_word(m, cyl.word, p)
        if q == cyl.image_hi:
            xq = cyl.hi if cyl.orientation > 0 else cyl.lo
        else:
            xq = pullback_word(m, cyl.word, q)
        lo, hi = (xp, xq) if xp <= xq else (xq, xp)
        if hi - lo <= DEGEN_TOL:
            continue
        u, v = b.fwd(p), b.fwd(q)
        img_lo, img_hi = (u, v) if u <= v else (v, u)
        out.append(Cylinder(cyl.word + (a,), lo, hi, img_lo, img_hi,
                            cyl.orientation * b.orientation))
    return out


def _level_one(m: IntervalMap) -> list[Cylinder]:
    out = []
    for a, b in enumerate(m.branches):
        img_lo, img_hi = b.image
        out.append(Cylinder((a,), b.lo, b.hi, img_lo, img_hi, b.orientation))
    return out


def refine(m: IntervalMap, n: int, cap: int = 200_000) -> list[Cylinder]:
    """The partition P_n into n-cylinders, ordered left to right."""
    if n < 1:
        raise DomainError("refinement depth must be >= 1")
    for level in refine_levels(m, n, cap=cap):
        pass
    return level


def refine_levels(m: IntervalMap, n_max: int,
                  cap: int = 200_000) -> Iterable[list[Cylinder]]:
    """Yield P_1, ..., P_{n_max} incrementally (shared work)."""
    level = _level_one(m)
    yield sorted(level, key=lambda c: c.lo)
    for _ in range(n_max - 1):
        nxt: list[Cylinder] = []
        for cyl in level:
            nxt.extend(_children(m, cyl))
            if len(nxt) > cap:
                raise ResourceError(
                    f"cylinder cap {cap} exceeded at depth {len(cyl.word) + 1}",
                    count=len(nxt))
        level = nxt
        yield sorted(level, key=lambda c: c.lo)


def cylinder_of_word(m: IntervalMap, word: Sequence[int]) -> Cylinder | None:
    """The cylinder of one word, or None when it is empty."""
    word = tuple(word)
    if not word:
        lo, hi = m.domain
        return Cylinder((), lo, hi, lo, hi, 1)
    for a in word:
        if not 0 <= a < m.n_branches:
            raise DomainError(f"letter {a} does not index a branch")
    cyl = None
    for c in _level_one(m):
        if c.word == (word[0],):
            cyl = c
            break
    assert cyl is not None
    for a in word[1:]:
        kids = [k for k in _children(m, cyl) if k.word[-1] == a]
        if not kids:
            return None
        cyl = kids[0]
    return cyl


def itinerary(m: IntervalMap, x: float, n: int,
              side: str | None = None) -> Word:
    """Symbolic address of x through the branch partition, n letters.

    Boundary hits raise AmbiguityError (with the hitting time) unless a
    side flag 'left'/'right' is supplied.
    """
    letters = []
    z = m.snap(x)
    for k in range(n):
        if m.boundary_hit(z) and side is None:
            raise AmbiguityError(
                f"orbit meets a branch boundary at time {k}", hit_time=k)
        s = side or "left"
        letters.append(m.branch_index(z, s))
        z = m.apply(z, s)
    return tuple(letters)


# ---------------------------------------------------------------------------
# lap counts and topological entropy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LapsRecord:
    laps: tuple[int, ...]
    h_top_estimate: float
    cauchy_diff: float


def monotone_pieces(m: IntervalMap, cylinders: list[Cylinder]) -> list[list[Cylinder]]:
    """Group a sorted cylinder level into maximal monotone pieces of f^n.

    Adjacent cylinders merge when f^n is continuous across the shared
    endpoint and keeps the same direction.
    """
    pieces: list[list[Cylinder]] = []
    for cyl in cylinders:
        if pieces:
            prev = pieces[-1][-1]
            touching = abs(prev.hi - cyl.lo) <= SNAP_TOL
            same_dir = prev.orientation == cyl.orientation
            if touching and same_dir and \
                    abs(prev.value_at("hi") - cyl.value_at("lo")) <= 1e-12:
                pieces[-1].append(cyl)
                continue
        pieces.append([cyl])
    return pieces


def laps_entropy(m: IntervalMap, n_max: int, cap: int = 200_000) -> LapsRecord:
    """Exact lap counts of f^n for n <= n_max and the entropy estimate.

    h_top is estimated as log(laps(f^{n_max})) / n_max; the Cauchy
    difference against the previous level is reported as a convergence
    diagnostic.
    """
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    counts = []
    for level in refine_levels(m, n_max, cap=cap):
        counts.append(len(monotone_pieces(m, level)))
    h_last = math.log(counts[-1]) / n_max
    h_prev = math.log(counts[-2]) / (n_max - 1)
    return LapsRecord(tuple(counts), h_last, abs(h_last - h_prev))


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicPoint:
    x: float
    multiplier: float
    word: Word


def periodic_point(m: IntervalMap, word: Sequence[int]) -> PeriodicPoint | None:
    """The unique fixed point of f^n on the word's cylinder, if it exists.

    Returns None when the cylinder is empty or its f^n-image does not
    cover it.  The point is located by bisection to 1e-13; the multiplier
    is |Df^n| along the pinned branch word.
    """
    word = tuple(word)
    if len(word) < 1:
        raise DomainError("word must have length >= 1")
    cyl = cylinder_of_word(m, word)
    if cyl is None:
        return None
    scale = max(1.0, abs(cyl.hi), abs(cyl.lo))
    if cyl.image_lo > cyl.lo + 1e-12 * scale or cyl.image_hi < cyl.hi - 1e-12 * scale:
        return None

    def h(x: float) -> float:
        return eval_along_word(m, word, x) - x

    a, b = cyl.lo, cyl.hi
    ha, hb = h(a), h(b)
    if abs(ha) <= 1e-13:
        root = a
    elif abs(hb) <= 1e-13:
        root = b
    else:
        if ha * hb > 0:
            # covering holds so a sign change must exist; tolerate boundary noise
            if min(abs(ha), abs(hb)) > 1e-9:
                raise NumericError(
                    f"no sign change for word {word}: h={ha:.3g},{hb:.3g}")
            root = a if abs(ha) < abs(hb) else b
        else:
            for _ in range(200):
                c = 0.5 * (a + b)
                hc = h(c)
                if abs(hc) == 0.0 or b - a <= 1e-13:
                    break
                if (hc < 0) == (ha < 0):
                    a, ha = c, hc
                else:
                    b, hb = c, hc
            root = 0.5 * (a + b)
    return PeriodicPoint(root, derivative_along_word(m, word, root), word)


def cylinders_to_csv_rows(cylinders: list[Cylinder]) -> list[tuple]:
    """Rows (word, lo, hi, image_lo, image_hi) for CSV export."""
    rows = []
    for c in cylinders:
        rows.append(("-".join(str(a) for a in c.word),
                     c.lo, c.hi, c.image_lo, c.image_hi))
    return rows
