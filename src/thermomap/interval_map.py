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
from functools import cached_property
from typing import Callable, Sequence

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

    def boundary_hit(self, x: float) -> bool:
        """True when ``x`` snaps to an interior breakpoint."""
        x = self.snap(x)
        return any(abs(x - p) == 0.0 for p in self.breakpoints[1:-1])

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
        """(``branch_index(x, side)``, ``snap(x)``), snapping once."""
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
                return i - 1, x
            if x == b.hi and i == self.n_branches - 1:
                return i, x
        # not snapped but numerically at a boundary: pick the covering branch
        for i, b in enumerate(self.branches):
            if b.contains(x):
                return i, x
        raise DomainError(f"point {x!r} not covered by any branch")

    def branch_index(self, x: float, side: str = "left") -> int:
        """Index of the branch containing ``x``.

        Interior breakpoints belong to the left branch unless
        ``side='right'``.  This is the tie-breaking rule used everywhere
        the partition has to behave like a partition of open sets.
        """
        return self._locate(x, side)[0]

    # apply and deriv clamp as min(max(v, lo), hi) does, written out

    def apply(self, x: float, side: str = "left") -> float:
        i, x = self._locate(x, side)
        b = self.branches[i]
        y = b.fwd(b.lo if b.lo > x else b.hi if b.hi < x else x)
        lo, hi = self.domain
        return lo if lo > y else hi if hi < y else y

    def deriv(self, x: float, side: str = "left") -> float:
        i, x = self._locate(x, side)
        b = self.branches[i]
        return b.deriv(b.lo if b.lo > x else b.hi if b.hi < x else x)


# ---------------------------------------------------------------------------
# orbit-level operations
# ---------------------------------------------------------------------------

def eval_orbit(m: IntervalMap, x: float, n: int) -> list[float]:
    """Return the orbit segment ``[x, f(x), ..., f^n(x)]``."""
    lo, hi = m.domain
    if x < lo - SNAP_TOL or x > hi + SNAP_TOL:
        raise DomainError(f"orbit start {x!r} outside domain")
    if n < 0:
        raise DomainError("orbit length must be >= 0")
    orbit = [m.snap(min(max(x, lo), hi))]
    for _ in range(n):
        orbit.append(m.apply(orbit[-1]))
    return orbit


def _orbit_derivatives(m: IntervalMap, orbit: list[float]) -> list[float]:
    """[|Df^k(orbit[0])| for k = 1, ..., len(orbit)]: the products of
    |f'| over the given orbit points in order, cut before the first point
    that meets a critical point where the derivative vanishes, or where
    f' == 0, so that the length of a cut list is the hitting time.

    The first point is snapped, as an orbit starting there would be.
    """
    vanish = [c.c for c in m.crit if c.vanishing]
    out: list[float] = []
    prod = 1.0
    for z in [m.snap(z) for z in orbit[:1]] + orbit[1:]:
        for c in vanish:
            if abs(z - c) <= SNAP_TOL:
                return out
        d = m.deriv(z)
        if d == 0.0:
            return out
        prod *= abs(d)
        out.append(prod)
    return out


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
    ``derivative_along(m, x, k)`` would raise."""
    return _orbit_derivatives(m, eval_orbit(m, x, n - 1)) if n > 0 else []


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


def _array_kernels(m: IntervalMap, word: Sequence[int]) -> bool:
    return all(m.branches[a].array is not None for a in word)


def derivative_along_word_array(m: IntervalMap, word: Sequence[int],
                                xs: np.ndarray) -> np.ndarray:
    """``derivative_along_word`` at each point of a 1-D float64 array,
    float for float."""
    if not _array_kernels(m, word):
        return np.array([derivative_along_word(m, word, x)
                         for x in np.asarray(xs, dtype=np.float64).tolist()])
    z = np.array(xs, dtype=np.float64)  # a copy: clamps work in place
    prod = np.ones(len(z))
    for a in word:
        b = m.branches[a]
        fwd, deriv, _ = b.array
        z = _clamp_array(z, b.lo, b.hi)
        prod *= abs(deriv(z))
        z = fwd(z)
    return prod


def pullback_word_array(m: IntervalMap, word: Sequence[int],
                        ys: np.ndarray) -> np.ndarray:
    """``pullback_word`` at each point of a 1-D float64 array, float for
    float."""
    if not _array_kernels(m, word):
        return np.array([pullback_word(m, word, y)
                         for y in np.asarray(ys, dtype=np.float64).tolist()])
    z = np.array(ys, dtype=np.float64)  # a copy: clamps work in place
    for a in reversed(word):
        b = m.branches[a]
        z = b.array[2](_clamp_array(z, *b.image))
    return z


class WordPullbacks:
    """The points ``ys`` pulled back along any word, memoised by word
    suffix.

    Called with a word, it gives ``pullback_word_array(m, word, ys)``,
    float for float, taking one inverse step per letter past the longest
    suffix of the word already pulled back.  The arrays it returns are
    shared, so they are read-only.
    """

    def __init__(self, m: IntervalMap, ys: np.ndarray):
        self.map = m
        self.ys = np.array(ys, dtype=np.float64)
        self.ys.flags.writeable = False
        self._known: dict[tuple[int, ...], np.ndarray] = {(): self.ys}

    def __call__(self, word: Sequence[int]) -> np.ndarray:
        word, known = tuple(word), self._known
        k = 0
        while word[k:] not in known:
            k += 1
        z = known[word[k:]]
        for j in range(k - 1, -1, -1):
            z = pullback_word_array(self.map, word[j:j + 1], z)
            z.flags.writeable = False
            known[word[j:]] = z
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
    f = sp.lambdify(x, sym, "math")
    df = sp.lambdify(x, sp.diff(sym, x), "math")
    pts = list(breakpoints)
    branches = []
    for i, (lo, hi) in enumerate(zip(pts, pts[1:])):
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
