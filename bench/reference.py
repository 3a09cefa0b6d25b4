"""Pressure references that do not use thermomap.

Every value here comes from a closed form or from the benchmark's own
transcription of a Markov map, never from thermomap's oracle, so a
bracket that misses one of these points at the program, not at a
shared helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

LOG2 = math.log(2.0)

# CSV and stdout values carry 9 significant digits, so a printed bracket
# may miss the exact value by one rounding step on each side.
PRINT_SLACK_REL = 1e-8
PRINT_SLACK_ABS = 1e-8


@dataclass(frozen=True)
class MapCase:
    """One benchmark map: the spec text the program reads, and its pressure."""

    name: str
    spec: str
    pressure: Callable[[float], float]


def markov_pressure(atoms, t: float) -> float:
    """log max|eigvals| of the slope-weighted transition matrix.

    Entry (a, b) is |slope_a|^-t when atom b lies inside the image of
    atom a.  Perron-Frobenius makes this the pressure for an irreducible
    matrix, periodic ones included.
    """
    n = len(atoms)
    mat = np.zeros((n, n))
    for a, (lo, hi, u, v) in enumerate(atoms):
        slope = abs(v - u) / (hi - lo)
        img_lo, img_hi = min(u, v), max(u, v)
        for b, (blo, bhi, _, _) in enumerate(atoms):
            if blo >= img_lo - 1e-12 and bhi <= img_hi + 1e-12:
                mat[a, b] = slope ** (-t)
    return math.log(float(np.max(np.abs(np.linalg.eigvals(mat)))))


def quad4_pressure(t: float) -> float:
    """Pressure of x -> 4x(1-x) for t >= -1 (Bruin-Todd)."""
    if t < -1.0:
        raise ValueError("closed form holds for t >= -1 only")
    return (1.0 - t) * LOG2


def contains(lo: float, hi: float, ref: float) -> bool:
    """Whether a printed bracket [lo, hi] contains ``ref``."""
    slack = PRINT_SLACK_ABS + PRINT_SLACK_REL * abs(ref)
    return lo - slack <= ref <= hi + slack


def fixed_cases() -> list[MapCase]:
    """tent2, markov_golden, markov_full and the period-2 three-atom map.

    The two matrix references use this module's transcription of each
    fixture as (lo, hi, f(lo), f(hi)) per affine branch.
    """
    golden = ((0.0, 2 / 3, 0.0, 1.0), (2 / 3, 1.0, 2 / 3, 0.0))
    full = ((0.0, 1 / 3, 0.0, 1.0), (1 / 3, 1.0, 1.0, 0.0))
    return [
        MapCase("tent2", "kind = tent2\n", lambda t: (1.0 - t) * LOG2),
        MapCase("markov_golden", "kind = markov_golden\n",
                lambda t: markov_pressure(golden, t)),
        MapCase("markov_full", "kind = markov_full\n",
                lambda t: markov_pressure(full, t)),
        MapCase("period2",
                "kind = plinear\nbreakpoints = 0, 1/3, 2/3, 1\n"
                "images = [1/3,1], [0,1/3], [0,1/3]\norientations = 1, 1, 1\n",
                lambda t: 0.5 * (1.0 - t) * LOG2),
    ]


def full_map_case(k: int, orientation: int) -> MapCase:
    """Two-branch full map with breakpoint c = k/24: P(t) = log(c^t + (1-c)^t)."""
    c = k / 24
    return MapCase(
        f"full_{k}_{'up' if orientation > 0 else 'down'}",
        f"kind = plinear\nbreakpoints = 0, {k}/24, 1\n"
        f"images = [0,1], [0,1]\norientations = 1, {orientation}\n",
        lambda t: math.log(c ** t + (1.0 - c) ** t))
