"""The command-line front end: argument parsing, dispatch and printing,
and the one place that opens output files (UTF-8, LF line ends).

Subcommands: tower | induce | pressure | scan | diagnose | oracle.
Exit codes: 0 success, 2 configuration error or an output that cannot be
written, 3 numeric failure.
The library's exporters return text.  All numeric output uses 9
significant digits; identical configurations produce byte-identical files.
The scan itself is ``gibbs.scan_pressure``, its kink check
``gibbs.detect_phase_transition``, the scheme options
``inducing.build_scheme`` and the Markov oracle ``thermo.markov_oracle``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Sequence

from . import diagnostics
from .errors import DomainError, SchemaError, ThermomapError
from .gibbs import (
    ScanConfig,
    _fmt,
    csv_text,
    detect_phase_transition,
    equilibrium_shift_solve,
    scan_pressure,
    solution_to_json,
)
from .hofbauer import build_tower, tower_to_dot, tower_to_json
from .inducing import SCHEME_KINDS, _scheme_options, build_scheme, scheme_table
from .interval_map import load_map
from .thermo import markov_oracle


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
    p.add_argument("--delta", type=_finite, default=0.5,
                   help="extension margin of an extendible scheme, as a fraction "
                        "of |X|; a first-return scheme ignores it and takes its "
                        "margin from its tower domains")
    p.add_argument("--cap", type=_int_at_least(1), default=12,
                   help="inducing time cap T")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it."""
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
    except (SchemaError, DomainError, OSError) as exc:  # OSError: an output path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ThermomapError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _dispatch(args) -> int:
    if args.command == "tower":
        m = load_map(args.map)
        tower = build_tower(m, args.depth)
        real = tower.real_nodes()
        print(f"tower: {len(real)} nodes, {len(tower.real_edges())} edges, "
              f"complete={tower.complete}")
        if args.dot:
            _write(args.dot, tower_to_dot(tower))
        if args.json:
            _write(args.json, tower_to_json(tower))
        return 0

    if args.command == "induce":
        scheme = build_scheme(load_map(args.map), **_scheme_options(args))
        print(f"scheme: {len(scheme.branches)} branches on "
              f"[{_fmt(scheme.x_lo)}, {_fmt(scheme.x_hi)}], "
              f"escape<={_fmt(scheme.escaping_mass_bound)}, "
              f"exhausted={scheme.exhausted}")
        if args.out:
            _write(args.out, csv_text(*scheme_table(scheme)))
        return 0

    if args.command == "pressure":
        scheme = build_scheme(load_map(args.map), **_scheme_options(args))
        res = equilibrium_shift_solve(scheme, args.t, args.tol)
        print(f"P_+ bracket: [{_fmt(res.s_lo)}, {_fmt(res.s_hi)}]  "
              f"zero-entropy bound: {_fmt(res.zero_entropy_bound)}")
        if args.json:
            _write(args.json, solution_to_json(res.solution))
        return 0

    if args.command == "scan":
        cfg = ScanConfig(load_map(args.map), args.t_min, args.t_max, args.steps,
                         tolerance=args.tol, **_scheme_options(args))
        curve = scan_pressure(cfg)
        report = detect_phase_transition(curve)
        if args.out:
            _write(args.out, curve.to_csv())
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
        if args.out:
            _write(args.out + "_growth.csv",
                   csv_text(*diagnostics.growth_table(growth.records)))
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
                _write(args.out + "_binding.csv",
                       csv_text(*diagnostics.binding_table(binding)))
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
