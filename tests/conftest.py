import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import strategies as st

import thermomap as tm
from thermomap.errors import DomainError
from thermomap.inducing import (CYLINDER_CAP, ONTO_RTOL, InducingScheme,
                                SchemeBranch, _fit_neighbourhood,
                                _pullback_through, _sample_derivative,
                                _Uncovered)
from thermomap.symbolic import DEGEN_TOL, monotone_pieces, refine_levels

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
LOG_GOLDEN = math.log(GOLDEN)

# acip of the golden-mean fixture: piecewise-constant density
ACIP_CA = 9.0 / 8.0
ACIP_CB = 3.0 / 4.0
ACIP_LYAP = 0.75 * math.log(1.5) + 0.25 * math.log(2.0)


def partition_function_exact(model, n: int, base: int, shift: float) -> float:
    """Z_n summed over located periodic points of the underlying map.

    Enumerates every n-word of scheme branches that starts at the base
    branch and adds exp(-t log|Df^tau| - S*tau) at the periodic point of
    the concatenated map word: an oracle independent of the weight
    brackets, for small families only.
    """
    scheme = model.scheme
    total = 0.0
    for rest in itertools.product(range(model.n), repeat=n - 1):
        brs = [scheme.branches[i] for i in (base,) + rest]
        pp = tm.periodic_point(scheme.map, sum((b.word for b in brs), ()))
        if pp is None:
            continue
        total += math.exp(-model.t * math.log(pp.multiplier)
                          - shift * sum(b.tau for b in brs))
    return total


def hexes(values):
    """Each value as float.hex, which tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


@st.composite
def plinear_maps(draw):
    """2-4 affine branches with rational breakpoints and images, each
    branch oriented at random, discontinuities allowed."""
    k = draw(st.integers(2, 4))
    den = draw(st.sampled_from([6, 7, 12]))
    cuts = draw(st.lists(st.integers(1, den - 1), min_size=k - 1,
                         max_size=k - 1, unique=True))
    img_den = draw(st.sampled_from([4, 5, 12]))
    ends = st.lists(st.integers(0, img_den), min_size=2, max_size=2, unique=True)
    images = [tuple(e / img_den for e in sorted(draw(ends))) for _ in range(k)]
    orientations = draw(st.lists(st.sampled_from([1, -1]), min_size=k,
                                 max_size=k))
    return tm.make_plinear([0] + sorted(c / den for c in cuts) + [1],
                           images, orientations)


def unpruned_extendible_return_scheme(m, x, delta: float, T: int):
    """The extendible builder as it was when it refined every cylinder of
    every level up to T: an oracle for the pruned library builder.

    First delta-extendible return scheme on the interval X.

    For each maximal monotone piece of f^j (j <= T) whose image covers
    the scaled neighbourhood Y of X, the pullback of X is a branch with
    inducing time j, provided no earlier branch already owns it.
    """
    x_lo, x_hi = x
    if delta <= 0:
        raise DomainError("delta must be > 0")
    if T < 1:
        raise DomainError("time cap must be >= 1")
    x_len = x_hi - x_lo
    y_lo, y_hi = _fit_neighbourhood(m, x_lo, x_hi, delta)
    tol = ONTO_RTOL * max(x_len, 1e-30)

    uncovered = _Uncovered(x_lo, x_hi)
    branches = []
    conflicts = 0

    levels = refine_levels(m, T, cap=CYLINDER_CAP)
    exhausted = False
    for level in levels:
        if uncovered.total() <= DEGEN_TOL:
            exhausted = True
            break
        j = level[0].depth
        for piece in monotone_pieces(m, level):
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
            pa = _pullback_through(m, piece, x_lo, piece[0].word)
            pb = _pullback_through(m, piece, x_hi, piece[0].word)
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
            ea = _pullback_through(m, piece, y_lo, piece[0].word)
            eb = _pullback_through(m, piece, y_hi, piece[0].word)
            # the piece's cylinders that a point of [b_lo, b_hi] can fall in
            parts = tuple(c for c in piece
                          if c.hi + 1e-12 >= b_lo and c.lo - 1e-12 <= b_hi)
            br = SchemeBranch(b_lo, b_hi, j, piece[0].word, min(ea, eb),
                              max(ea, eb), math.nan, math.nan, math.nan, parts)
            br = replace(br, word=br._word_at(br.midpoint),
                         parts=parts if len(parts) > 1 else ())
            branches.append(_sample_derivative(m, br, edge=1e-9))
            uncovered.remove(b_lo, b_hi)
    else:
        exhausted = uncovered.total() <= max(DEGEN_TOL, 1e-12 * x_len)

    branches.sort(key=lambda b: b.lo)
    return InducingScheme(
        m, x_lo, x_hi, branches, delta, T,
        uncovered.total(), exhausted, conflicts,
        meta={"y": (y_lo, y_hi)})


@pytest.fixture(scope="session")
def golden_map():
    return tm.fixture("markov_golden")


@pytest.fixture(scope="session")
def tent_map():
    return tm.fixture("tent2")


@pytest.fixture(scope="session")
def quad_map():
    return tm.fixture("quad4")


@pytest.fixture(scope="session")
def full_map():
    return tm.fixture("markov_full")


@pytest.fixture(scope="session")
def golden_tower(golden_map):
    return tm.build_tower(golden_map, 5)


@pytest.fixture(scope="session")
def golden_scheme(golden_map):
    return tm.first_return_scheme(golden_map, (0.0, 2.0 / 3.0), 10)


@pytest.fixture(scope="session")
def tent_trivial_scheme(tent_map):
    return tm.first_return_scheme(tent_map, (0.0, 1.0), 5)


@pytest.fixture(scope="session")
def full_trivial_scheme(full_map):
    return tm.first_return_scheme(full_map, (0.0, 1.0), 5)


@pytest.fixture(scope="session")
def quad_x_cylinder(quad_map):
    word = tm.itinerary(quad_map, 0.3, 2, side="left")
    return tm.cylinder_of_word(quad_map, word)


@pytest.fixture(scope="session")
def quad_scheme(quad_map, quad_x_cylinder):
    return tm.extendible_return_scheme(
        quad_map, (quad_x_cylinder.lo, quad_x_cylinder.hi), 0.5, 14)
