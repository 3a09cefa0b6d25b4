"""Pressure-curve scanning, phase-transition detection, the Markov matrix
oracle, and the command-line front end.

Subcommands: tower | induce | pressure | scan | diagnose | oracle.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.
All numeric output uses 9 significant digits; identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import io
import math
import statistics
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import diagnostics
from .errors import (
    DomainError,
    InfinitePressureError,
    NonCompatibleError,
    NotApplicableError,
    NumericError,
    SchemaError,
    ThermomapError,
)
from .gibbs import (
    abramov_quantities,
    equilibrium_shift_solve,
    mass_by_tau,
    solution_to_json,
)
from .hofbauer import build_tower, tower_to_dot, tower_to_json
from .inducing import (
    InducingScheme,
    extendible_return_scheme,
    first_return_scheme,
    scheme_to_csv_rows,
)
from .interval_map import IntervalMap, load_map
from .symbolic import cylinder_of_word, itinerary
from .thermo import tail_classify

CSV_HEADER = ("t", "p_lo", "p_hi", "zero_entropy", "tail_kind", "tail_rate",
              "tau_mean", "lyap", "entropy")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v + 0.0:.9g}"  # +0.0 normalizes negative zero
    return str(v)


def write_csv(path_or_buf, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    own = isinstance(path_or_buf, str)
    fh = open(path_or_buf, "w", encoding="utf-8", newline="\n") if own else path_or_buf
    try:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if own:
            fh.close()


# ---------------------------------------------------------------------------
# configuration and curve types
# ---------------------------------------------------------------------------

SCHEME_KINDS = ("first-return", "extendible")


def _check_scheme_kind(kind: str) -> None:
    if kind not in SCHEME_KINDS:
        raise DomainError(f"unknown scheme kind {kind!r}")


@dataclass(frozen=True)
class ScanConfig:
    map: IntervalMap
    t_min: float
    t_max: float
    steps: int
    scheme_kind: str = "first-return"   # "first-return" | "extendible"
    x_point: float | None = None
    x_depth: int = 1
    delta: float = 0.5
    cap: int = 12                        # inducing time cap T
    tolerance: float = 1e-10

    def __post_init__(self):
        _check_scheme_kind(self.scheme_kind)
        if not self.t_min < self.t_max:
            raise DomainError("t_min must be < t_max")
        if self.steps < 2:
            raise DomainError("steps must be >= 2")
        if not self.tolerance > 0:
            raise DomainError("tolerance must be > 0")
        if not math.isfinite((self.t_max - self.t_min) * (self.steps - 1)):
            raise DomainError("t-grid overflows: (t_max - t_min) * (steps - 1) "
                              "is not finite")

    def t_grid(self) -> list[float]:
        span = self.t_max - self.t_min
        return [self.t_min + span * k / (self.steps - 1) for k in range(self.steps)]


@dataclass(frozen=True)
class CurveRow:
    t: float
    p_lo: float
    p_hi: float
    zero_entropy: float
    tail_kind: str
    tail_rate: float
    tau_mean: float
    lyap: float
    entropy: float

    @property
    def p_mid(self) -> float:
        return 0.5 * (self.p_lo + self.p_hi)

    @property
    def width(self) -> float:
        return self.p_hi - self.p_lo

    def as_tuple(self) -> tuple:
        return (self.t, self.p_lo, self.p_hi, self.zero_entropy, self.tail_kind,
                self.tail_rate, self.tau_mean, self.lyap, self.entropy)


@dataclass
class PressureCurve:
    rows: list[CurveRow] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        write_csv(buf, CSV_HEADER, [r.as_tuple() for r in self.rows])
        return buf.getvalue()


def _scheme_options(obj) -> dict:
    """The build_scheme keywords, read off a ScanConfig or parsed arguments."""
    return {k: getattr(obj, k) for k in
            ("scheme_kind", "x_point", "x_depth", "delta", "cap")}


def default_base_cylinder(m: IntervalMap, x_point: float | None,
                          x_depth: int) -> tuple[float, float]:
    """The depth-d cylinder containing x_point (whole domain at depth 0)."""
    if x_depth < 0:
        raise DomainError(f"x_depth must be >= 0, got {x_depth}")
    if x_depth == 0:
        return m.domain
    if x_point is None:
        b = m.branches[0]
        x_point = 0.5 * (b.lo + b.hi)
    word = itinerary(m, x_point, x_depth, side="left")
    cyl = cylinder_of_word(m, word)
    if cyl is None:
        raise DomainError(f"cylinder of depth {x_depth} at {x_point} is empty")
    return (cyl.lo, cyl.hi)


def build_scheme(m: IntervalMap, *, scheme_kind: str, x_point: float | None,
                 x_depth: int, delta: float, cap: int) -> InducingScheme:
    """The chosen inducing scheme on the depth-x_depth cylinder at x_point,
    truncated by the time cap alone."""
    _check_scheme_kind(scheme_kind)
    x = default_base_cylinder(m, x_point, x_depth)
    if scheme_kind == "extendible":
        return extendible_return_scheme(m, x, delta, cap)
    return first_return_scheme(m, x, cap)


def scan_pressure(config: ScanConfig,
                  scheme: InducingScheme | None = None) -> PressureCurve:
    """Solve the shift equation on the t-grid and assemble the curve.

    Grid rows are independent of each other (evaluated sequentially for
    deterministic output); per-row numeric failures are recorded in the
    row and the scan continues.
    """
    if scheme is None:
        scheme = build_scheme(config.map, **_scheme_options(config))
    curve = PressureCurve()
    nan = math.nan
    for t in config.t_grid():
        try:
            res = equilibrium_shift_solve(scheme, t, config.tolerance)
            ab = abramov_quantities(scheme, res.solution)
            tail = tail_classify(mass_by_tau(res.solution))
            rate = tail.rate if tail.kind == "exponential" else tail.exponent
            curve.rows.append(CurveRow(t, res.s_lo, res.s_hi,
                                       res.zero_entropy_bound, tail.kind, rate,
                                       ab.tau_mean, ab.lyap, ab.entropy))
        except InfinitePressureError:
            curve.rows.append(CurveRow(t, nan, nan, nan,
                                       "error:infinite-pressure", nan, nan, nan, nan))
        except NonCompatibleError:
            curve.rows.append(CurveRow(t, nan, nan, nan,
                                       "error:non-compatible", nan, nan, nan, nan))
    return curve


# ---------------------------------------------------------------------------
# phase-transition detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionReport:
    kinks: tuple[float, ...]
    competitor_crossings: tuple[float, ...]
    smooth: bool
    inconclusive: bool
    max_second_difference: float


def detect_phase_transition(curve: PressureCurve) -> TransitionReport:
    """Flag grid points where the curve bends far above the noise floor.

    The second central difference of bracket midpoints is compared with
    5x the local bracket widths and with the background curvature level;
    a clean kink stands out on both counts.  This is the numerical
    stand-in for smoothness of the pressure curve: silence means "no
    transition visible at this resolution", never a proof.
    """
    rows = [r for r in curve.rows if not math.isnan(r.p_lo)]
    if len(rows) < 5:
        return TransitionReport((), (), False, True, math.nan)
    rows = sorted(rows, key=lambda r: r.t)
    mids = [r.p_mid for r in rows]
    widths = [r.width for r in rows]
    scale = max(abs(v) for v in mids) * 1e-12 + 1e-15
    d2 = [abs(mids[i - 1] - 2.0 * mids[i] + mids[i + 1])
          for i in range(1, len(rows) - 1)]
    med = statistics.median(d2)
    kinks = []
    for i in range(1, len(rows) - 1):
        noise = widths[i - 1] + 2.0 * widths[i] + widths[i + 1]
        v = d2[i - 1]
        if v > 5.0 * noise + scale and v > 10.0 * med + scale:
            kinks.append(rows[i].t)
    crossings = [r.t for r in rows
                 if not math.isnan(r.zero_entropy) and r.zero_entropy >= r.p_hi - 1e-12]
    return TransitionReport(tuple(kinks), tuple(crossings),
                            smooth=not kinks, inconclusive=False,
                            max_second_difference=max(d2) if d2 else math.nan)


# ---------------------------------------------------------------------------
# Markov matrix oracle
# ---------------------------------------------------------------------------

def markov_oracle(m: IntervalMap, t: float) -> float:
    """log spectral radius of the weighted transition matrix.

    Applies to Markov piecewise-linear maps only: every branch affine,
    every branch image a union of branch-partition atoms.  Entry (a, b)
    is |slope_a|^-t when atom b sits inside f(atom a).
    """
    atoms = [(b.lo, b.hi) for b in m.branches]
    pts = m.breakpoints
    slopes = []
    for i, b in enumerate(m.branches):
        d_lo, d_mid, d_hi = (b.deriv(b.lo + (b.hi - b.lo) * q)
                             for q in (0.25, 0.5, 0.75))
        if abs(d_lo - d_mid) > 1e-9 * abs(d_mid) or abs(d_hi - d_mid) > 1e-9 * abs(d_mid):
            raise NotApplicableError(f"branch {i} is not affine")
        img_lo, img_hi = b.image
        if not any(abs(img_lo - p) <= 1e-9 for p in pts) or \
           not any(abs(img_hi - p) <= 1e-9 for p in pts):
            raise NotApplicableError(
                f"branch {i} image is not a union of partition atoms")
        slopes.append(abs(d_mid))
    n = len(atoms)
    mat = np.zeros((n, n))
    for a in range(n):
        img_lo, img_hi = m.branches[a].image
        for b in range(n):
            if atoms[b][0] >= img_lo - 1e-9 and atoms[b][1] <= img_hi + 1e-9:
                mat[a, b] = slopes[a] ** (-t)
    radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
    if radius <= 0.0:
        raise NumericError("transition matrix is nilpotent on the support")
    return math.log(radius)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type: a finite float > 0."""
    if (value := _finite(text)) > 0:
        return value
    raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        if (value := int(text)) >= low:
            return value
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
    parse.__name__ = "int"
    return parse


def _add_scheme_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", dest="scheme_kind", choices=SCHEME_KINDS,
                   default="first-return")
    p.add_argument("--x-point", type=_finite, default=None,
                   help="point whose cylinder is the inducing base")
    p.add_argument("--x-depth", type=int, default=1,
                   help="cylinder depth of the inducing base (0 = whole domain)")
    p.add_argument("--delta", type=_finite, default=0.5)
    p.add_argument("--cap", type=_int_at_least(1), default=12,
                   help="inducing time cap T")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="thermomap")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tower", help="build the Markov-extension graph")
    p.add_argument("--map", required=True)
    p.add_argument("--depth", type=int, default=12, help="tower truncation R")
    p.add_argument("--dot", default=None)
    p.add_argument("--json", default=None)

    p = sub.add_parser("induce", help="build an inducing scheme")
    p.add_argument("--map", required=True)
    _add_scheme_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("pressure", help="solve the pressure at one t")
    p.add_argument("--map", required=True)
    p.add_argument("--t", type=_finite, required=True)
    _add_scheme_args(p)
    p.add_argument("--tol", type=_positive, default=1e-10)
    p.add_argument("--json", default=None)

    p = sub.add_parser("scan", help="pressure curve over a t-grid")
    p.add_argument("--map", required=True)
    p.add_argument("--t-min", type=_finite, required=True)
    p.add_argument("--t-max", type=_finite, required=True)
    p.add_argument("--steps", type=int, required=True)
    _add_scheme_args(p)
    p.add_argument("--tol", type=_positive, default=1e-10)
    p.add_argument("--out", default=None)

    p = sub.add_parser("diagnose", help="hypothesis diagnostics")
    p.add_argument("--map", required=True)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--t0", type=float, default=0.9)
    p.add_argument("--eps", type=_positive, default=0.25)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", default=None, help="CSV path prefix")

    p = sub.add_parser("oracle", help="Markov matrix pressure oracle")
    p.add_argument("--map", required=True)
    p.add_argument("--t", type=_finite, required=True)
    return ap


#: Options whose value may be negative.
_SIGNED_OPTIONS = frozenset({"--t", "--t-min", "--t-max", "--x-point", "--t0"})


def _attach_signed_values(argv: Sequence[str]) -> list[str]:
    """Write ``--t -1e-1`` as ``--t=-1e-1``.

    argparse takes a separate token that starts with '-' for an option
    unless it looks like ``-5`` or ``-0.5``, so exponent forms would be
    refused with "expected one argument".
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_OPTIONS and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


def run(argv: Sequence[str]) -> int:
    """Entry point; returns the exit status instead of raising."""
    try:
        args = _parser().parse_args(_attach_signed_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (SchemaError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ThermomapError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "tower":
        m = load_map(args.map)
        tower = build_tower(m, args.depth)
        real = tower.real_nodes()
        print(f"tower: {len(real)} nodes, {len(tower.real_edges())} edges, "
              f"complete={tower.complete}")
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(tower_to_dot(tower))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(tower_to_json(tower))
        return 0

    if args.command == "induce":
        scheme = build_scheme(load_map(args.map), **_scheme_options(args))
        print(f"scheme: {len(scheme.branches)} branches on "
              f"[{_fmt(scheme.x_lo)}, {_fmt(scheme.x_hi)}], "
              f"escape<={_fmt(scheme.escaping_mass_bound)}, "
              f"exhausted={scheme.exhausted}")
        if args.out:
            write_csv(args.out,
                      ("i", "lo", "hi", "tau", "inf_DF", "sup_DF", "ext_lo", "ext_hi"),
                      scheme_to_csv_rows(scheme))
        return 0

    if args.command == "pressure":
        scheme = build_scheme(load_map(args.map), **_scheme_options(args))
        res = equilibrium_shift_solve(scheme, args.t, args.tol)
        print(f"P_+ bracket: [{_fmt(res.s_lo)}, {_fmt(res.s_hi)}]  "
              f"zero-entropy bound: {_fmt(res.zero_entropy_bound)}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(solution_to_json(res.solution))
        return 0

    if args.command == "scan":
        cfg = ScanConfig(load_map(args.map), args.t_min, args.t_max, args.steps,
                         tolerance=args.tol, **_scheme_options(args))
        curve = scan_pressure(cfg)
        report = detect_phase_transition(curve)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(curve.to_csv())
        else:
            sys.stdout.write(curve.to_csv())
        if report.kinks:
            print("possible phase transition near t = "
                  + ", ".join(_fmt(t) for t in report.kinks))
        elif not report.inconclusive:
            print("curve numerically smooth at this resolution")
        return 0

    if args.command == "diagnose":
        m = load_map(args.map)
        growth = diagnostics.critical_orbit_growth(m, args.n_max, args.t0)
        print(f"growth verdict: {growth.verdict} "
              f"(beta threshold {_fmt(growth.beta_threshold)})")
        for rec in growth.records:
            print(f"  c={_fmt(rec.c)}: alpha={_fmt(rec.alpha)} "
                  f"(R2={_fmt(rec.alpha_r2)}), beta={_fmt(rec.beta)} "
                  f"(R2={_fmt(rec.beta_r2)})")
        comps = diagnostics.critical_neighbourhood(m, args.eps)
        if comps:
            binding = diagnostics.binding_analysis(
                m, args.eps, 0.1, min(args.n_max, 40), args.t0)
            print(f"binding: p_U={binding.p_u}, verdict={binding.verdict}")
            lam1 = diagnostics.mane_expansion_estimate(m, comps, seed=args.seed)
            bval = diagnostics.first_entry_derivative_bound(m, comps, seed=args.seed)
            nice = diagnostics.nice_check(m, comps)
            print(f"expansion outside U: {_fmt(lam1)}  first-entry bound: {_fmt(bval)}  "
                  f"nice={nice.nice}")
            if args.out:
                write_csv(args.out + "_growth.csv", ("n", "deriv"),
                          diagnostics.growth_csv_rows(growth.records[0]))
                write_csv(args.out + "_binding.csv", ("n", "gamma", "partial_sum"),
                          diagnostics.binding_csv_rows(binding))
        else:
            print("no vanishing-derivative critical points; binding skipped")
        return 0

    if args.command == "oracle":
        m = load_map(args.map)
        print(_fmt(markov_oracle(m, args.t)))
        return 0

    raise DomainError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
