"""Piecewise-monotone interval maps with closed-form branch data.

A map is a finite ordered list of monotone branches on a closed interval
(default [0, 1]).  Each branch carries exact forward, derivative and
inverse evaluation, so cylinder pullbacks downstream contract floating
point error instead of amplifying it.  Built-in families: tent(s),
quadratic(a), chebyshev(d), piecewise-linear, and custom expressions.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice, takewhile
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CriticalOrbitError, DomainError, SchemaError

#: Points closer than this to a branch endpoint are snapped onto it.
SNAP_TOL = 1e-14

#: Slack for "image inside domain" and similar containment checks.
GEOM_TOL = 1e-12


@dataclass(frozen=True)
class BranchSpec:
    """One maximal monotone branch of the map.

    ``fwd``/``deriv`` evaluate the map and its (signed) derivative on
    [lo, hi]; ``inv`` is the inverse defined on the branch image.
    ``array`` holds (fwd, deriv, inv) for float64 arrays doing the same
    float operations in the same order, or None where numpy's functions
    round differently from ``math``'s and a per-point loop over the
    scalar ones is the only way to the same floats.
    """

    lo: float
    hi: float
    orientation: int
    fwd: Callable[[float], float]
    deriv: Callable[[float], float]
    inv: Callable[[float], float]
    array: tuple[Callable, Callable, Callable] | None = None

    @cached_property
    def image(self) -> tuple[float, float]:
        """(min, max) of ``fwd`` over the branch, computed once."""
        a, b = self.fwd(self.lo), self.fwd(self.hi)
        return (a, b) if a <= b else (b, a)

    def contains(self, x: float, tol: float = SNAP_TOL) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def clamp(self, x: float) -> float:
        return min(max(x, self.lo), self.hi)

    def clamp_image(self, y: float) -> float:
        a, b = self.image
        return min(max(y, a), b)


@dataclass(frozen=True)
class CriticalPoint:
    """A turning or inflection point of the map.

    ``order`` is the local exponent (2 for a quadratic tip, 1.0 for a
    piecewise-linear corner).  ``vanishing`` marks points where the
    derivative is actually zero; only those poison derivative products.
    """

    c: float
    order: float
    image: float
    kind: str = "turning"  # "turning" | "inflection"
    vanishing: bool = True


@dataclass(frozen=True)
class IntervalMap:
    domain: tuple[float, float]
    branches: tuple[BranchSpec, ...]
    crit: tuple[CriticalPoint, ...]
    kind: str
    params: dict = field(default_factory=dict)

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    @cached_property
    def breakpoints(self) -> tuple[float, ...]:
        """Branch endpoints in order, computed once."""
        pts = [b.lo for b in self.branches]
        pts.append(self.branches[-1].hi)
        return tuple(pts)

    @property
    def ell_max(self) -> float:
        return max((c.order for c in self.crit), default=1.0)

    def turning_points(self) -> tuple[CriticalPoint, ...]:
        return tuple(c for c in self.crit if c.kind == "turning")

    def snap(self, x: float) -> float:
        """Snap ``x`` onto a breakpoint if it is within SNAP_TOL of one."""
        for p in self.breakpoints:
            if abs(x - p) <= SNAP_TOL:
                return p
        return x

    @cached_property
    def _tiled(self) -> bool:
        """Whether the branches tile the domain exactly, each ending where
        the next begins, with breakpoints more than 4 SNAP_TOL apart: then
        at most one breakpoint is within SNAP_TOL of a point, and bisection
        finds it and the point's branch."""
        pts = self.breakpoints
        return (self.domain == (pts[0], pts[-1])
                and all(b.hi == nb.lo for b, nb in zip(self.branches,
                                                        self.branches[1:]))
                and all(q - p > 4.0 * SNAP_TOL for p, q in zip(pts, pts[1:])))

    def _locate(self, x: float, side: str) -> tuple[int, float]:
        """(``branch_index(x, side)``, ``snap(x)`` clamped into that branch)."""
        lo, hi = self.domain
        if x < lo - SNAP_TOL or x > hi + SNAP_TOL:
            raise DomainError(f"point {x!r} outside domain [{lo}, {hi}]")
        if self._tiled:
            pts = self.breakpoints
            i = bisect.bisect_left(pts, x)  # pts[i - 1] < x <= pts[i]
            if i < len(pts) and pts[i] - x <= SNAP_TOL:
                x = pts[i]
                if i == 0 or side == "right" and i < len(pts) - 1:
                    return i, x
                return i - 1, x
            if 0 < i < len(pts):
                if x - pts[i - 1] <= SNAP_TOL:
                    x = pts[i - 1]
                    if i > 1 and side != "right":
                        return i - 2, x
                return i - 1, x
        # a NaN, or a map whose branches leave gaps or overlap
        x = self.snap(x)
        for i, b in enumerate(self.branches):
            if b.lo < x < b.hi:
                return i, x
            if x == b.lo:
                if i == 0 or side == "right":
                    return i, x
                return i - 1, self.branches[i - 1].clamp(x)
            if x == b.hi and i == self.n_branches - 1:
                return i, x
        # not snapped but numerically at a boundary: pick the covering branch
        for i, b in enumerate(self.branches):
            if b.contains(x):
                return i, b.clamp(x)
        raise DomainError(f"point {x!r} not covered by any branch")

    def branch_index(self, x: float, side: str = "left") -> int:
        """Index of the branch containing ``x``.

        Interior breakpoints belong to the left branch unless
        ``side='right'``.  This is the tie-breaking rule used everywhere
        the partition has to behave like a partition of open sets.
        """
        return self._locate(x, side)[0]

    def apply(self, x: float, side: str = "left") -> float:
        i, x = self._locate(x, side)
        y = self.branches[i].fwd(x)
        lo, hi = self.domain
        return lo if lo > y else hi if hi < y else y  # min(max(y, lo), hi)

    def deriv(self, x: float, side: str = "left") -> float:
        i, x = self._locate(x, side)
        return self.branches[i].deriv(x)


# ---------------------------------------------------------------------------
# orbit-level operations
# ---------------------------------------------------------------------------

def _walk(m: IntervalMap, x: float, side: str = "left"
          ) -> Iterator[tuple[float, int | None, float | None]]:
    """Yield (z, i, u) for z = f^k(x), k = 0, 1, ..., the start snapped:
    (i, u) is ``_locate`` of z's predecessor (None at k = 0), looked up
    only when z is asked for, so n steps cost n lookups."""
    lo, hi = m.domain
    if x < lo - SNAP_TOL or x > hi + SNAP_TOL:
        raise DomainError(f"orbit start {x!r} outside domain")
    z, i, u = m.snap(min(max(x, lo), hi)), None, None
    while True:
        yield z, i, u
        i, u = m._locate(z, side)
        z = m.branches[i].fwd(u)
        z = lo if lo > z else hi if hi < z else z  # as apply clamps


def _chain(m: IntervalMap, steps: Iterable[tuple[float, int | None, float | None]]
           ) -> Iterator[tuple[float, float | None]]:
    """Yield (z, |Df^k|) for z the k-th point of a stretch of ``_walk``
    steps: |f'| at the recorded inputs, multiplied from 1.0 in orbit order,
    and None from the step that leaves a point w on a critical point where
    f' vanishes (w the first point snapped, later ones as walked) or where
    f' == 0."""
    vanish = [c.c for c in m.crit if c.vanishing]
    d, w = 1.0, None
    for z, i, u in steps:
        if w is not None and d is not None:
            hit = any(abs(w - c) <= SNAP_TOL for c in vanish)
            df = 0.0 if hit else m.branches[i].deriv(u)
            d = None if df == 0.0 else d * abs(df)
        yield z, d
        w = m.snap(z) if w is None else z


def eval_orbit(m: IntervalMap, x: float, n: int) -> list[float]:
    """Return the orbit segment ``[x, f(x), ..., f^n(x)]`` of one walk."""
    if n < 0:
        raise DomainError("orbit length must be >= 0")
    return [z for z, _, _ in islice(_walk(m, x), n + 1)]


def derivative_along(m: IntervalMap, x: float, n: int) -> float:
    """|Df^n(x)| by the chain rule; relative error <= 1e-12 per factor.

    Raises CriticalOrbitError (with the hitting time) if the orbit meets
    a critical point where the derivative vanishes before step n.
    """
    prefixes = derivative_prefixes(m, x, n)
    if len(prefixes) < n:
        raise CriticalOrbitError(
            f"orbit meets a vanishing critical point at time {len(prefixes)}",
            hit_time=len(prefixes))
    return prefixes[-1] if prefixes else 1.0


def derivative_prefixes(m: IntervalMap, x: float, n: int) -> list[float]:
    """[|Df^k(x)| for k = 1, ..., n], cut before the first k at which
    ``derivative_along(m, x, k)`` would raise; one walk, stopped there."""
    points = islice(_chain(m, _walk(m, x)), 1, n + 1) if n > 0 else ()
    return [d for _, d in takewhile(lambda zd: zd[1] is not None, points)]


def eval_along_word(m: IntervalMap, word: Sequence[int], x: float) -> float:
    """Apply the branches named by ``word`` in order, starting at ``x``.

    Equivalent to f^len(word)(x) for x in the word's cylinder, but with
    the branch choice pinned, so boundary points cannot stray.
    """
    z = x
    for k, a in enumerate(word):
        b = m.branches[a]
        if not b.contains(z, tol=1e-9):
            raise DomainError(
                f"point left branch {a} at step {k} of word (got {z!r})")
        z = b.fwd(b.clamp(z))
    return z


def derivative_along_word(m: IntervalMap, word: Sequence[int], x: float) -> float:
    """|Df^n(x)| with the branch at each step pinned by ``word``."""
    z = x
    prod = 1.0
    for a in word:
        b = m.branches[a]
        prod *= abs(b.deriv(b.clamp(z)))
        z = b.fwd(b.clamp(z))
    return prod


def pullback_word(m: IntervalMap, word: Sequence[int], y: float) -> float:
    """Preimage of ``y`` under f^len(word) along the given branch word."""
    z = y
    for a in reversed(word):
        b = m.branches[a]
        z = b.inv(b.clamp_image(z))
    return z


def _clamp_array(z: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``min(max(z, lo), hi)`` per point, in place.  np.maximum and
    np.minimum may return either operand on a tie of signed zeros, where
    Python's max and min return their first, so the comparisons are
    spelled out."""
    np.putmask(z, lo > z, lo)
    np.putmask(z, hi < z, hi)
    return z


def _per_point(f: Callable[[float], float], z: np.ndarray) -> np.ndarray:
    """The scalar ``f`` at each point of z, called once per distinct float
    (a zero's sign included): how the stacked kernels apply a branch
    without array kernels."""
    values, back = np.unique(z.view(np.int64), return_inverse=True)
    return np.array([f(v) for v in values.view(np.float64).tolist()],
                    dtype=np.float64)[back]


def _kernels(b: BranchSpec) -> tuple[Callable, Callable, Callable]:
    """b's array (fwd, deriv, inv), or its scalar ones by ``_per_point``."""
    if b.array is not None:
        return b.array
    return tuple(partial(_per_point, f) for f in (b.fwd, b.deriv, b.inv))


def _letter_steps(m: IntervalMap, words: Sequence[Sequence[int]],
                  index: np.ndarray, reverse: bool = False
                  ) -> Iterator[tuple[BranchSpec, np.ndarray | slice]]:
    """The walk of the stacked word kernels, row r along words[index[r]]:
    letter position by letter position (from the word's end with
    ``reverse``), each branch with a boolean mask of the rows that take it
    there, or a full slice where every word takes it.  The letter table
    has one row per word, not per point, and is read one position at a
    time."""
    width = max(map(len, words), default=0)
    table = np.full((len(words), width), -1, dtype=np.intp)
    for k, w in enumerate(words):
        if w:
            table[k, :len(w)] = w[::-1] if reverse else w
    for k in range(width):
        column = table[:, k]
        letters = set(column.tolist())
        for a in letters - {-1}:
            rows = slice(None) if letters == {a} else (column == a)[index]
            yield m.branches[a], rows


def derivative_along_words(m: IntervalMap, words: Sequence[Sequence[int]],
                           index: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``derivative_along_word(m, words[index[r]], xs[r])`` for each row r,
    float for float.

    One pass over the letter positions applies each branch's kernels to
    the rows that take it there: its array kernels, or its scalar ones
    once per distinct point.
    """
    xs = np.asarray(xs, dtype=np.float64)
    index = np.asarray(index, dtype=np.intp)
    z = xs.copy()  # clamps work in place
    prod = np.ones(len(z))
    for b, rows in _letter_steps(m, words, index):
        fwd, deriv, _ = _kernels(b)
        zr = _clamp_array(z[rows], b.lo, b.hi)
        prod[rows] *= abs(deriv(zr))
        z[rows] = fwd(zr)
    return prod


def pullback_words(m: IntervalMap, words: Sequence[Sequence[int]],
                   index: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``pullback_word(m, words[index[r]], ys[r])`` for each row r, float
    for float, in one pass over the letter positions from the words'
    ends, as ``derivative_along_words`` walks them.  A branch without
    array kernels inverts each distinct point once per letter position,
    so rows that share a suffix and a point share its inverse steps."""
    ys = np.asarray(ys, dtype=np.float64)
    index = np.asarray(index, dtype=np.intp)
    z = ys.copy()
    for b, rows in _letter_steps(m, words, index, reverse=True):
        z[rows] = _kernels(b)[2](_clamp_array(z[rows], *b.image))
    return z


class InverseSteps:
    """``pullback_word(m, word, y)``, float for float, taking each inverse
    step once.

    A step is one branch inverse at one point: ``pullback_word`` clamps z
    into the image of branch ``a`` and applies ``a``'s inverse there, once
    per letter.  Steps are memoised by (a, clamped z), so words that share
    a suffix share its steps, as do pullbacks of different points that
    pass through one point.  A zero is keyed by its repr, which tells -0.0
    from 0.0.  The memo lives as long as the helper, which one
    refinement, scheme build or projection makes for itself.
    """

    def __init__(self, m: IntervalMap):
        self._images = [b.image for b in m.branches]
        self._invs = [b.inv for b in m.branches]
        self._memo: dict[tuple[int, float | str], float] = {}

    def __call__(self, word: Sequence[int], y: float) -> float:
        images, memo, z = self._images, self._memo, y
        for a in reversed(word):
            # BranchSpec.clamp_image, min(max(z, lo), hi), written out
            lo, hi = images[a]
            if lo > z:
                z = lo
            elif hi < z:
                z = hi
            key = (a, z) if z else (a, repr(z))
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = self._invs[a](z)
            z = hit
        return z


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _affine_branch(lo: float, hi: float, v_lo: float, v_hi: float) -> BranchSpec:
    slope = (v_hi - v_lo) / (hi - lo)
    if slope == 0.0:
        raise SchemaError(f"branch [{lo}, {hi}]: zero slope is not monotone")

    def fwd(x: float, lo=lo, v_lo=v_lo, slope=slope) -> float:
        return v_lo + slope * (x - lo)

    def deriv(x: float, slope=slope) -> float:
        return slope

    def inv(y: float, lo=lo, v_lo=v_lo, slope=slope) -> float:
        return lo + (y - v_lo) / slope

    # the closures take arrays as they are
    return BranchSpec(lo, hi, 1 if slope > 0 else -1, fwd, deriv, inv,
                      (fwd, deriv, inv))


def make_tent(s: float) -> IntervalMap:
    if not 0 < s <= 2:
        raise SchemaError("params.s: tent slope must be in (0, 2]")
    left = _affine_branch(0.0, 0.5, 0.0, s / 2)
    right = _affine_branch(0.5, 1.0, s / 2, 0.0)
    crit = (CriticalPoint(0.5, 1.0, s / 2, kind="turning", vanishing=False),)
    return IntervalMap((0.0, 1.0), (left, right), crit, "tent", {"s": s})


def make_quadratic(a: float) -> IntervalMap:
    if not 0 < a <= 4:
        raise SchemaError("params.a: quadratic parameter must be in (0, 4]")

    def fwd(x: float) -> float:
        return a * x * (1.0 - x)

    def deriv(x: float) -> float:
        return a * (1.0 - 2.0 * x)

    def inv_left(y: float) -> float:
        return 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * y / a)))

    def inv_right(y: float) -> float:
        return 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * y / a)))

    # np.sqrt rounds as math.sqrt does; max(0.0, v) is v only when v > 0.0
    def root_array(y: np.ndarray) -> np.ndarray:
        v = 1.0 - 4.0 * y / a
        np.putmask(v, ~(v > 0.0), 0.0)
        return np.sqrt(v, out=v)

    def inv_left_array(y: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 - root_array(y))

    def inv_right_array(y: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + root_array(y))

    left = BranchSpec(0.0, 0.5, 1, fwd, deriv, inv_left,
                      (fwd, deriv, inv_left_array))
    right = BranchSpec(0.5, 1.0, -1, fwd, deriv, inv_right,
                       (fwd, deriv, inv_right_array))
    crit = (CriticalPoint(0.5, 2.0, a / 4, kind="turning", vanishing=True),)
    return IntervalMap((0.0, 1.0), (left, right), crit, "quadratic", {"a": a})


def make_chebyshev(d: int) -> IntervalMap:
    """Degree-d Chebyshev-conjugate map on [0,1]; d = 2 is quadratic(4)."""
    if not float(d).is_integer() or d < 2:
        raise SchemaError(f"params.d: chebyshev degree must be an integer "
                          f">= 2, got {d!r}")
    d = int(d)

    def theta(x: float) -> float:
        return math.acos(min(1.0, max(-1.0, 1.0 - 2.0 * x)))

    def fwd(x: float) -> float:
        return 0.5 * (1.0 - math.cos(d * theta(x)))

    def deriv(x: float) -> float:
        th = theta(x)
        s = math.sin(th)
        if s < 1e-9:
            # limit d*sin(d*th)/sin(th) at th -> 0 or pi
            return d * d * math.cos(d * th) / math.cos(th)
        return d * math.sin(d * th) / s

    branches = []
    for j in range(d):
        lo = 0.5 * (1.0 - math.cos(j * math.pi / d))
        hi = 0.5 * (1.0 - math.cos((j + 1) * math.pi / d))

        def inv(y: float, j=j) -> float:
            phi = math.acos(min(1.0, max(-1.0, (1.0 - 2.0 * y) * (-1.0) ** j)))
            return 0.5 * (1.0 - math.cos((j * math.pi + phi) / d))

        branches.append(BranchSpec(lo, hi, 1 if j % 2 == 0 else -1, fwd, deriv, inv))
    crit = tuple(
        CriticalPoint(0.5 * (1.0 - math.cos(k * math.pi / d)), 2.0,
                      0.5 * (1.0 - (-1.0) ** k), kind="turning", vanishing=True)
        for k in range(1, d))
    return IntervalMap((0.0, 1.0), tuple(branches), crit, "chebyshev", {"d": d})


def make_plinear(breakpoints: Sequence[float],
                 images: Sequence[tuple[float, float]],
                 orientations: Sequence[int] | None = None) -> IntervalMap:
    """Piecewise-linear map from breakpoints and per-branch image pairs.

    Each image is read as the pair ``(f(lo), f(hi))``; an unordered pair
    (first <= second) takes its direction from ``orientations``, default
    alternating +,-,+,... as for a continuous multimodal map.
    """
    pts = list(breakpoints)
    if len(pts) < 2 or any(b <= a for a, b in zip(pts, pts[1:])):
        raise SchemaError("breakpoints: need a strictly increasing list")
    if len(images) != len(pts) - 1:
        raise SchemaError(
            f"images: expected {len(pts) - 1} image pairs, got {len(images)}")
    if orientations is not None and (len(orientations) != len(images) or
                                     any(o not in (1, -1) for o in orientations)):
        raise SchemaError(f"orientations: expected {len(images)} entries of "
                          f"+1 or -1, got {list(orientations)}")
    branches = []
    for i, (u, v) in enumerate(images):
        lo, hi = pts[i], pts[i + 1]
        if u <= v:
            ori = orientations[i] if orientations is not None else (1 if i % 2 == 0 else -1)
            v_lo, v_hi = (u, v) if ori > 0 else (v, u)
        else:
            v_lo, v_hi = u, v
        branches.append(_affine_branch(lo, hi, v_lo, v_hi))
    crit = []
    for i in range(len(branches) - 1):
        left, right = branches[i], branches[i + 1]
        joint_continuous = abs(left.fwd(left.hi) - right.fwd(right.lo)) <= GEOM_TOL
        if joint_continuous and left.orientation != right.orientation:
            crit.append(CriticalPoint(left.hi, 1.0, left.fwd(left.hi),
                                      kind="turning", vanishing=False))
    dom = (pts[0], pts[-1])
    m = IntervalMap(dom, tuple(branches), tuple(crit), "plinear",
                    {"breakpoints": tuple(pts)})
    _validate(m)
    return m


def make_custom(expr: str, breakpoints: Sequence[float],
                crit: Sequence[CriticalPoint]) -> IntervalMap:
    """Map from a sympy expression in x; orders must be declared in ``crit``."""
    import sympy as sp

    x = sp.symbols("x")
    try:
        sym = sp.sympify(expr)
    except (sp.SympifyError, SyntaxError) as exc:
        raise SchemaError(f"expr: cannot parse {expr!r}: {exc}") from exc
    if not isinstance(sym, sp.Expr):  # a list, a comparison, ...
        raise SchemaError(f"expr: {expr!r} is not an expression in x")
    # a symbol or a function sympy does not know cannot be evaluated
    others = (sym.free_symbols - {x}) | sym.atoms(sp.core.function.AppliedUndef)
    if others:
        raise SchemaError(f"expr: {expr!r} names other than x: "
                          f"{', '.join(sorted(map(str, others)))}")
    pts = list(breakpoints)
    if len(pts) < 2:
        raise SchemaError("breakpoints: need at least two")
    try:
        f = sp.lambdify(x, sym, "math")
        df = sp.lambdify(x, sp.diff(sym, x), "math")
        branches = []
        for lo, hi in zip(pts, pts[1:]):
            mid_d = df(0.5 * (lo + hi))
            ori = 1 if mid_d > 0 else -1

            def inv(y: float, lo=lo, hi=hi, ori=ori, f=f) -> float:
                a, b = lo, hi
                c = 0.5 * (a + b)
                while c != a and c != b:  # until the midpoint can move no more
                    if (f(c) - y) * ori < 0:
                        a = c
                    else:
                        b = c
                    c = 0.5 * (a + b)
                return c

            branches.append(BranchSpec(lo, hi, ori, f, df, inv))
        m = IntervalMap((pts[0], pts[-1]), tuple(branches), tuple(crit),
                        "custom", {"expr": expr})
        _validate(m)
    except (ArithmeticError, NotImplementedError, TypeError, ValueError) as exc:
        # a derivative sympy cannot write as math code, a pole, a log or a
        # root out of range, a complex value: the map cannot be evaluated
        raise SchemaError(f"expr: cannot evaluate {expr!r} on "
                          f"[{pts[0]}, {pts[-1]}]: {exc!r}") from exc
    return m


def _validate(m: IntervalMap) -> None:
    """Check the map invariants; raise SchemaError with a field path."""
    dlo, dhi = m.domain
    prev_hi = dlo
    for i, b in enumerate(m.branches):
        if abs(b.lo - prev_hi) > GEOM_TOL:
            raise SchemaError(f"branches[{i}]: gap or overlap at {b.lo}")
        if b.hi <= b.lo:
            raise SchemaError(f"branches[{i}]: empty interval")
        prev_hi = b.hi
        ilo, ihi = b.image
        if ilo < dlo - 1e-9 or ihi > dhi + 1e-9:
            raise SchemaError(
                f"branches[{i}]: image [{ilo}, {ihi}] escapes domain")
        # sampled monotonicity / orientation
        n_samp = 33
        for k in range(1, n_samp):
            xx = b.lo + (b.hi - b.lo) * k / n_samp
            d = b.deriv(xx)
            if d * b.orientation <= 0:
                raise SchemaError(
                    f"branches[{i}]: derivative sign flips inside the branch "
                    f"(at x={xx:.6g})")
    if abs(prev_hi - dhi) > GEOM_TOL:
        raise SchemaError(f"branches[{len(m.branches) - 1}]: do not reach domain end")


# ---------------------------------------------------------------------------
# map-spec documents and fixtures
# ---------------------------------------------------------------------------

def fixture(name: str) -> IntervalMap:
    try:
        return _FIXTURES[name]()
    except KeyError:
        raise SchemaError(f"kind: unknown fixture {name!r} "
                          f"(have {sorted(_FIXTURES)})") from None


_FIXTURES: dict[str, Callable[[], IntervalMap]] = {
    "tent2": lambda: make_tent(2.0),
    "quad4": lambda: make_quadratic(4.0),
    # two-branch Markov map with golden-mean transition structure
    "markov_golden": lambda: make_plinear(
        (0.0, 2.0 / 3.0, 1.0), [(0.0, 1.0), (0.0, 2.0 / 3.0)]),
    # full-shift Markov map with unequal slopes 3 and -3/2
    "markov_full": lambda: make_plinear(
        (0.0, 1.0 / 3.0, 1.0), [(0.0, 1.0), (0.0, 1.0)]),
}


def _parse_number(tok: str, path: str) -> float:
    tok = tok.strip()
    frac = re.fullmatch(r"(-?\d+)\s*/\s*(\d+)", tok)
    try:
        value = float(frac.group(1)) / float(frac.group(2)) if frac else float(tok)
    except ValueError:
        raise SchemaError(f"{path}: not a number: {tok!r}") from None
    except ZeroDivisionError:
        raise SchemaError(f"{path}: zero denominator: {tok!r}") from None
    if not math.isfinite(value):
        raise SchemaError(f"{path}: not a finite number: {tok!r}")
    return value


def parse_map_spec(text: str) -> IntervalMap:
    """Build a validated map from a keyed text document.

    Keys (one ``key = value`` or ``key: value`` per line, ``#`` comments):
      kind        tent | quadratic | chebyshev | plinear | custom | fixture name
      s, a, d     family parameter
      breakpoints comma-separated numbers, rationals like 2/3 accepted
      images      comma-separated pairs like [0,1], [1,0]  (plinear)
      orientations comma-separated +1/-1                    (plinear, optional)
      expr        expression in x                           (custom)
      crit        comma-separated c:order entries           (custom, required)
    """
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        mobj = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*[:=]\s*(.*)", line)
        if not mobj:
            raise SchemaError(f"line {raw!r}: expected 'key = value'")
        fields[mobj.group(1).lower()] = mobj.group(2).strip()
    kind = fields.get("kind")
    if kind is None:
        raise SchemaError("kind: missing")
    kind = kind.strip()
    if kind in _FIXTURES:
        return fixture(kind)
    if kind == "tent":
        return make_tent(_parse_number(fields.get("s", "2"), "s"))
    if kind == "quadratic":
        return make_quadratic(_parse_number(fields.get("a", "4"), "a"))
    if kind == "chebyshev":
        return make_chebyshev(_parse_number(fields.get("d", "2"), "d"))
    if kind == "plinear":
        if "breakpoints" not in fields or "images" not in fields:
            raise SchemaError("breakpoints/images: required for kind=plinear")
        pts = [_parse_number(t, "breakpoints")
               for t in fields["breakpoints"].strip("()").split(",") if t.strip()]
        pairs = re.findall(r"\[([^\]]*)\]", fields["images"])
        if not pairs:
            raise SchemaError("images: expected pairs like [0,1], [1,0]")
        images = []
        for i, p in enumerate(pairs):
            nums = [_parse_number(t, f"images[{i}]") for t in p.split(",")]
            if len(nums) != 2:
                raise SchemaError(f"images[{i}]: expected exactly two numbers")
            images.append((nums[0], nums[1]))
        orientations = None
        if "orientations" in fields:
            orientations = [_parse_number(t, "orientations")
                            for t in fields["orientations"].split(",")]
        return make_plinear(pts, images, orientations)
    if kind == "custom":
        if "expr" not in fields or "breakpoints" not in fields:
            raise SchemaError("expr/breakpoints: required for kind=custom")
        if "crit" not in fields:
            raise SchemaError("crit: custom maps must declare critical orders")
        pts = [_parse_number(t, "breakpoints")
               for t in fields["breakpoints"].strip("()").split(",") if t.strip()]
        crit = []
        for i, entry in enumerate(fields["crit"].split(",")):
            entry = entry.strip()
            if not entry:
                continue
            if ":" not in entry:
                raise SchemaError(f"crit[{i}]: expected c:order")
            cs, os_ = entry.split(":", 1)
            c = _parse_number(cs, f"crit[{i}].c")
            order = _parse_number(os_, f"crit[{i}].order")
            if not math.isfinite(order) or order < 1.0:
                raise SchemaError(f"crit[{i}].order: must be finite and >= 1")
            crit.append(CriticalPoint(c, order, 0.0, kind="turning", vanishing=True))
        m = make_custom(fields["expr"], pts, tuple(crit))
        # fill images of the declared critical points
        crit_filled = tuple(CriticalPoint(c.c, c.order, m.apply(c.c),
                                          c.kind, c.vanishing) for c in m.crit)
        return IntervalMap(m.domain, m.branches, crit_filled, m.kind, m.params)
    raise SchemaError(f"kind: unknown kind {kind!r}")


def load_map(name_or_path: str) -> IntervalMap:
    """Resolve a fixture name, or read and parse a map-spec file."""
    if name_or_path in _FIXTURES:
        return fixture(name_or_path)
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            return parse_map_spec(fh.read())
    except OSError as exc:
        raise SchemaError(f"map: {name_or_path!r} is neither a fixture "
                          f"({sorted(_FIXTURES)}) nor a readable file") from exc
