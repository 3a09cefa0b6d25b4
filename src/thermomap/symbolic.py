"""Cylinder partitions, itineraries, lap counts and periodic points.

Cylinders are pulled back through closed-form branch inverses, which
contract numerical error, so endpoints of deep cylinders stay accurate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice, pairwise
from typing import Callable, Iterable, Sequence

from .errors import AmbiguityError, DomainError, NumericError, ResourceError
from .interval_map import (
    IntervalMap,
    InverseSteps,
    SNAP_TOL,
    _walk,
    derivative_along_word,
    eval_along_word,
)

#: Intersections shorter than this are treated as degenerate and dropped.
DEGEN_TOL = 1e-13

Word = tuple[int, ...]

#: A cylinder's (image_lo, image_hi, orientation), which fixes its children
_State = tuple[float, float, int]


@dataclass(frozen=True, slots=True)
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


def _branch_images(m: IntervalMap, lo: float, hi: float
                   ) -> list[tuple[int, float, float, float, float]]:
    """(a, p, q, img_lo, img_hi) for each branch a that meets [lo, hi].

    [p, q] is the overlap with branch a, and [img_lo, img_hi] its image
    in increasing order; overlaps of at most DEGEN_TOL are dropped.
    """
    out = []
    for a, b in enumerate(m.branches):
        p, q = max(lo, b.lo), min(hi, b.hi)
        if q - p <= DEGEN_TOL:
            continue
        u, v = b.fwd(p), b.fwd(q)
        out.append((a, p, q, u, v) if u <= v else (a, p, q, v, u))
    return out


def _children(m: IntervalMap, cyl: Cylinder,
              pull: InverseSteps) -> list[Cylinder]:
    out = []
    for a, p, q, img_lo, img_hi in _branch_images(m, cyl.image_lo,
                                                 cyl.image_hi):
        # pull the piece [p, q] back through the word chain; an end inside
        # the image is a branch endpoint
        if p == cyl.image_lo:
            xp = cyl.lo if cyl.orientation > 0 else cyl.hi
        else:
            xp = pull(cyl.word, p)
        if q == cyl.image_hi:
            xq = cyl.hi if cyl.orientation > 0 else cyl.lo
        else:
            xq = pull(cyl.word, q)
        lo, hi = (xp, xq) if xp <= xq else (xq, xp)
        if hi - lo <= DEGEN_TOL:
            continue
        out.append(Cylinder(cyl.word + (a,), lo, hi, img_lo, img_hi,
                            cyl.orientation * m.branches[a].orientation))
    return out


def refine(m: IntervalMap, n: int, cap: int = 200_000) -> list[Cylinder]:
    """The partition P_n into n-cylinders, ordered left to right."""
    if n < 1:
        raise DomainError("refinement depth must be >= 1")
    for level in refine_levels(m, n, cap=cap):
        pass
    return level


def refine_levels(m: IntervalMap, n_max: int, cap: int = 200_000,
                  keep: Callable[[list[Cylinder]], list[Cylinder]] | None = None,
                  *, _steps: InverseSteps | None = None
                  ) -> Iterable[list[Cylinder]]:
    """Yield P_1, ..., P_{n_max} incrementally (shared work).

    With ``keep``, only the cylinders ``keep(level)`` returns get children,
    so each level after the first holds the children of the previous
    level's kept cylinders.  ``keep`` is called on a yielded level when
    the next one is asked for, after the caller has handled it; an
    emptied level is still yielded, and every later one is empty.

    Cylinder ends are pulled back through ``_steps``, a fresh
    ``InverseSteps`` unless the caller passes the one it pulls its own
    points back with, so that the two share their steps.
    """
    level = sorted((Cylinder((a,), b.lo, b.hi, *b.image, b.orientation)
                    for a, b in enumerate(m.branches)), key=lambda c: c.lo)
    pull = InverseSteps(m) if _steps is None else _steps
    for _ in range(n_max - 1):
        yield level
        nxt: list[Cylinder] = []
        for cyl in level if keep is None else keep(level):
            nxt.extend(_children(m, cyl, pull))
            if len(nxt) > cap:
                raise ResourceError(
                    f"cylinder cap {cap} exceeded at depth {len(cyl.word) + 1}",
                    count=len(nxt))
        level = sorted(nxt, key=lambda c: c.lo)
    yield level


def cylinder_of_word(m: IntervalMap, word: Sequence[int]) -> Cylinder | None:
    """The cylinder of one word, or None when it is empty."""
    word = tuple(word)
    if not word:
        lo, hi = m.domain
        return Cylinder((), lo, hi, lo, hi, 1)
    for a in word:
        if not 0 <= a < m.n_branches:
            raise DomainError(f"letter {a} does not index a branch")
    *_, level = refine_levels(m, len(word), keep=lambda level: [
        c for c in level if c.word == word[:len(c.word)]])
    return next((c for c in level if c.word == word), None)


def itinerary(m: IntervalMap, x: float, n: int,
              side: str | None = None) -> Word:
    """Symbolic address of x: the branches of n ``_walk`` steps, one
    lookup each.  An orbit point that snaps onto an interior breakpoint
    raises AmbiguityError (with the hitting time) unless a side flag
    'left'/'right' is supplied."""
    letters = []
    steps = islice(_walk(m, x, side or "left"), max(n, 0) + 1)
    for k, ((z, _, _), (_, i, _)) in enumerate(pairwise(steps)):
        if side is None and m.snap(z) in m.breakpoints[1:-1]:
            raise AmbiguityError(
                f"orbit meets a branch boundary at time {k}", hit_time=k)
        letters.append(i)
    return tuple(letters)


# ---------------------------------------------------------------------------
# lap counts and topological entropy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LapsRecord:
    laps: tuple[int, ...]
    h_top_estimate: float
    cauchy_diff: float


def _touching_runs(cylinders: list[Cylinder],
                   joins: Callable[[Cylinder, Cylinder], bool]
                   ) -> list[list[Cylinder]]:
    """Cut a sorted cylinder level between neighbours that do not touch
    within SNAP_TOL or that ``joins`` keeps apart."""
    runs: list[list[Cylinder]] = []
    for cyl in cylinders:
        if runs and abs(runs[-1][-1].hi - cyl.lo) <= SNAP_TOL \
                and joins(runs[-1][-1], cyl):
            runs[-1].append(cyl)
        else:
            runs.append([cyl])
    return runs


def monotone_pieces(cylinders: list[Cylinder]) -> list[list[Cylinder]]:
    """Group a sorted cylinder level into maximal monotone pieces of f^n.

    Adjacent cylinders merge when f^n is continuous across the shared
    endpoint and keeps the same direction.
    """
    return _touching_runs(cylinders, lambda a, b: _joins(
        (a.image_lo, a.image_hi, a.orientation),
        (b.image_lo, b.image_hi, b.orientation)))


def fold_free_runs(cylinders: list[Cylinder]) -> list[list[Cylinder]]:
    """Cut a sorted cylinder level where f^n folds back or the cylinders
    leave a gap.

    At a fold two neighbours meet at one end value (equal floats) with
    opposite orientations.  Their children at the fold are mapped on by
    the same branch from that value, so they fold again: folds and gaps
    persist, and a monotone piece of any deeper f^k lies inside one run.
    A discontinuity of f^n is no cut, since f^k may join across it.
    """
    def no_fold(prev: Cylinder, cyl: Cylinder) -> bool:
        end = prev.image_hi if prev.orientation > 0 else prev.image_lo
        start = cyl.image_lo if cyl.orientation > 0 else cyl.image_hi
        return prev.orientation == cyl.orientation or end != start

    return _touching_runs(cylinders, no_fold)


def _joins(left: _State, right: _State) -> bool:
    """Whether f^n runs on in one direction from the left state's x-end
    into the right state's."""
    if left[2] != right[2]:
        return False
    end = left[1] if left[2] > 0 else left[0]
    start = right[0] if right[2] > 0 else right[1]
    return abs(end - start) <= 1e-12


def laps_entropy(m: IntervalMap, n_max: int, cap: int = 200_000) -> LapsRecord:
    """Exact lap counts of f^n for n <= n_max and the entropy estimate.

    A cylinder's children depend only on its state (image_lo, image_hi,
    orientation), so each level is a multiset of states plus a multiset
    of left-to-right adjacent state pairs; no cylinder is built.  Two
    neighbours join into one lap by the rule ``monotone_pieces`` uses
    (same orientation, end values within 1e-12), so laps(f^n) is the
    number of states minus the number of joining pairs.  ``cap`` bounds the number
    of distinct states stored.  A state whose image meets no branch in
    more than DEGEN_TOL (only possible when a branch squeezes an image
    below it) raises NumericError rather than losing laps.

    h_top is estimated as log(laps(f^{n_max})) / n_max; the Cauchy
    difference against the previous level is reported as a convergence
    diagnostic.
    """
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    kids: dict[_State, tuple[_State, ...]] = {}

    def children(state: _State) -> tuple[_State, ...]:
        known = kids.get(state)
        if known is not None:
            return known
        img_lo, img_hi, ori = state
        out = [(u, v, ori * m.branches[a].orientation)
               for a, _, _, u, v in _branch_images(m, img_lo, img_hi)]
        if not out:
            raise NumericError(
                f"image [{img_lo!r}, {img_hi!r}] meets no branch")
        if ori < 0:
            out.reverse()
        kids[state] = known = tuple(out)
        if len(kids) > cap:
            raise ResourceError(f"lap state cap {cap} exceeded",
                                count=len(kids))
        return known

    order = [(*b.image, b.orientation) for b in m.branches]
    states, pairs = Counter(order), Counter(zip(order, order[1:]))
    counts = []
    while True:
        counts.append(sum(states.values())
                      - sum(c for pair, c in pairs.items() if _joins(*pair)))
        if len(counts) == n_max:
            break
        nxt_states: Counter = Counter()
        nxt_pairs: Counter = Counter()
        for state, c in states.items():
            ks = children(state)
            for k in ks:
                nxt_states[k] += c
            for pair in zip(ks, ks[1:]):
                nxt_pairs[pair] += c
        for (a, b), c in pairs.items():
            nxt_pairs[children(a)[-1], children(b)[0]] += c
        states, pairs = nxt_states, nxt_pairs
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


def periodic_point(m: IntervalMap, word: Sequence[int] | Cylinder
                   ) -> PeriodicPoint | None:
    """The unique fixed point of f^n on the word's cylinder, if it exists.

    Returns None when the cylinder is empty or its f^n-image does not
    cover it.  For tent and piecewise-linear maps f^n is affine on the
    cylinder and the point is where the line through its end values
    crosses the diagonal; otherwise it is located by bisection to width
    1e-13, an exact zero, or float resolution, whichever comes first.
    The multiplier is |Df^n| along the pinned branch word.  ``word`` may
    be given as its cylinder of m (from ``refine_levels``, say), which is
    then not rebuilt.
    """
    cyl = word if isinstance(word, Cylinder) else None
    word = tuple(word.word if cyl is not None else word)
    if len(word) < 1:
        raise DomainError("word must have length >= 1")
    if cyl is None:
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
        elif m.kind in ("tent", "plinear"):
            # h is affine and changes sign, so ha != hb
            root = min(max(a + ha * (b - a) / (ha - hb), a), b)
        else:
            while b - a > 1e-13:
                c = 0.5 * (a + b)
                if c == a or c == b:  # no float left strictly inside [a, b]
                    break
                hc = h(c)
                if hc == 0.0:
                    break
                if (hc < 0) == (ha < 0):
                    a = c
                else:
                    b = c
            root = 0.5 * (a + b)
    return PeriodicPoint(root, derivative_along_word(m, word, root), word)
