"""The four benchmark workloads.

Each workload is a closed loop with one client: one call into thermomap
starts only after the previous one has returned.  Calls go through the
public API only, ``thermomap.cli.run([...])`` and top-level
``thermomap.*`` names, looked up at call time so that the tracer's
wrappers are the ones called.  The seed draws every seeded input; the
program receives only the spec files written here and argv.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import re
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import thermomap as tm

import reference

# Breakpoints k/24 of the seed-drawn two-branch full maps: one draw from
# each stratum, so every seed mixes near-edge and near-middle breakpoints
# and the per-repetition work stays about the same from seed to seed.
# k = 12 is the equal-slope map, which tent2 already covers.
FULL_MAP_STRATA = ((1, 5), (6, 11), (13, 18), (19, 23))

BRACKET_RE = re.compile(r"P_\+ bracket: \[([^,\]]+), ([^\]]+)\]")


@dataclass
class Rep:
    """What one repetition of a workload produced and how it checked out."""

    latencies: list = field(default_factory=list)   # seconds per request
    digests: dict = field(default_factory=dict)     # output label -> sha256
    points: int = 0             # results checked against a reference or an exit code
    typed_failures: Counter = field(default_factory=Counter)  # "map:error" -> count
    misses: list = field(default_factory=list)      # brackets that miss their reference
    broken: list = field(default_factory=list)      # raised or unexpected exit code
    failed_requests: int = 0    # requests with a miss or a broken outcome
    widths: list = field(default_factory=list)
    proj_widths: list = field(default_factory=list)
    wall_s: float = 0.0
    cal_s: float = 0.0          # calibration loop time around the repetition

    def digest(self) -> str:
        h = hashlib.sha256()
        for label in sorted(self.digests):
            h.update(f"{label}:{self.digests[label]}\n".encode())
        return h.hexdigest()

    def record(self, label: str, data) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        self.digests[label] = hashlib.sha256(data).hexdigest()


def _sha_file(rep: Rep, label: str, path: str) -> None:
    if os.path.exists(path):
        with open(path, "rb") as fh:
            rep.record(label, fh.read())
        os.remove(path)
    else:
        rep.record(label, b"<absent>")


def call_cli(rep: Rep, label: str, argv: list[str]) -> tuple[int | None, str]:
    """One request through ``thermomap.cli.run``; stdout and stderr are digested.

    Returns the exit code (None if the call raised) and the stdout text.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tm.cli.run(argv)
    except Exception:  # a request must end in an exit code; record and go on
        rep.latencies.append(time.perf_counter() - t0)
        rep.broken.append(f"{label}: raised\n{traceback.format_exc()}")
        return None, ""
    rep.latencies.append(time.perf_counter() - t0)
    rep.record(label + ".stdout", out.getvalue())
    if err.getvalue():
        rep.record(label + ".stderr", err.getvalue())
    return code, out.getvalue()


def call_api(rep: Rep, fn, *args, **kwargs):
    """One request through a top-level thermomap function, timed."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        rep.latencies.append(time.perf_counter() - t0)


def check_scan_csv(rep: Rep, label: str, path: str, reference_at) -> bool:
    """Check every scan row against ``reference_at(t)``; False on any miss."""
    ok = True
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines[1:]:
        cols = line.split(",")
        t, lo, hi, kind = float(cols[0]), float(cols[1]), float(cols[2]), cols[4]
        rep.points += 1
        if kind.startswith("error:"):
            rep.typed_failures[f"{label}:{kind}"] += 1
            continue
        ref = reference_at(t)
        rep.widths.append(hi - lo)
        if not reference.contains(lo, hi, ref):
            rep.misses.append(f"{label} t={t}: [{lo}, {hi}] misses {ref!r}")
            ok = False
    return ok


def _scan_request(rep: Rep, label: str, argv: list[str], csv_path: str,
                  reference_at) -> None:
    code, _ = call_cli(rep, label, argv + ["--out", csv_path])
    if code != 0:
        if code is not None:
            rep.broken.append(f"{label}: exit {code}")
        rep.points += 1
        rep.failed_requests += 1
        return
    ok = check_scan_csv(rep, label, csv_path, reference_at)
    _sha_file(rep, label + ".csv", csv_path)
    rep.failed_requests += not ok


def draw_map_family(rng: random.Random, n_full: int) -> list[reference.MapCase]:
    """The fixed Markov maps plus ``n_full`` seed-drawn two-branch full maps."""
    cases = reference.fixed_cases()
    for lo, hi in FULL_MAP_STRATA[:n_full]:
        cases.append(reference.full_map_case(rng.randint(lo, hi), rng.choice((1, -1))))
    return cases


class Workload:
    """Inputs made from the seed, set-up code, and one repetition."""

    name = ""
    # whether the request latency percentiles are one of its metrics
    request_latency = False

    def __init__(self, workdir: str, seed: int, tiny: bool):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.map_paths: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_spec(self, name: str, text: str) -> str:
        p = self.path(name + ".map")
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.map_paths.append(p)
        return p

    def load_maps(self) -> None:
        """What set-up does after importing thermomap: load every map once."""
        for p in self.map_paths:
            tm.load_map(p)

    def repetition(self) -> Rep:
        raise NotImplementedError


class Quad4ExtScan(Workload):
    """The ROADMAP's headline scan: quad4, extendible scheme, cap 14."""

    name = "quad4_ext_scan"

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.map_paths = ["quad4"]
        self.argv = ["scan", "--map", "quad4", "--scheme", "extendible",
                     "--x-point", "0.3", "--x-depth", "2",
                     "--cap", "8" if tiny else "14",
                     "--t-min", "-1", "--t-max", "3", "--steps", "5" if tiny else "11"]

    def repetition(self) -> Rep:
        rep = Rep()
        _scan_request(rep, "quad4", self.argv, self.path("quad4.csv"),
                      reference.quad4_pressure)
        return rep


class MarkovScan(Workload):
    """One 61-point scan per Markov map, each with its own reused scheme."""

    name = "markov_scan"

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.cases = draw_map_family(self.rng, 1 if tiny else len(FULL_MAP_STRATA))
        self.specs = [self.write_spec(c.name, c.spec) for c in self.cases]
        self.steps = "7" if tiny else "61"

    def repetition(self) -> Rep:
        rep = Rep()
        for case, spec in zip(self.cases, self.specs):
            argv = ["scan", "--map", spec, "--x-depth", "1",
                    "--t-min", "-1", "--t-max", "2", "--steps", self.steps]
            _scan_request(rep, case.name, argv, self.path(case.name + ".csv"),
                          case.pressure)
        return rep


class PressureQueries(Workload):
    """Independent cold ``pressure`` requests over the markov_scan map family."""

    name = "pressure_queries"
    request_latency = True
    # 8 maps x 16 = 128 requests, so a repetition's p90 has 12 samples beyond it
    PER_MAP = 16

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.cases = draw_map_family(self.rng, 1 if tiny else len(FULL_MAP_STRATA))
        specs = [self.write_spec(c.name, c.spec) for c in self.cases]
        per_map = 2 if tiny else self.PER_MAP
        # one t from each of per_map equal slices of [-1, 2] for every map,
        # so no seed piles its requests at one end of the curve
        self.requests = [(case, spec, f"{-1.0 + 3.0 * (j + self.rng.random()) / per_map:.4f}")
                         for case, spec in zip(self.cases, specs)
                         for j in range(per_map)]
        self.rng.shuffle(self.requests)

    def repetition(self) -> Rep:
        rep = Rep()
        json_path = self.path("gibbs.json")
        for i, (case, spec, t) in enumerate(self.requests):
            label = f"req{i:03d}"
            code, stdout = call_cli(rep, label, ["pressure", "--map", spec, "--t", t,
                                         "--x-depth", "1", "--json", json_path])
            _sha_file(rep, label + ".json", json_path)
            rep.points += 1
            if code == 3:
                rep.typed_failures[f"{case.name}:exit-3"] += 1
                continue
            if code != 0:
                if code is not None:
                    rep.broken.append(f"{label}: exit {code}")
                rep.failed_requests += 1
                continue
            found = BRACKET_RE.search(stdout)
            lo, hi = float(found.group(1)), float(found.group(2))
            ref = case.pressure(float(t))
            rep.widths.append(hi - lo)
            if not reference.contains(lo, hi, ref):
                rep.misses.append(f"{label} {case.name} t={t}: [{lo}, {hi}] misses {ref!r}")
                rep.failed_requests += 1
        return rep


class SineGibbs(Workload):
    """Gibbs, projection, Abramov and diagnostics on sin(pi x)."""

    name = "sine_gibbs"

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.spec = self.write_spec(
            "sine", "kind = custom\nexpr = sin(pi*x)\nbreakpoints = 0, 1/2, 1\ncrit = 1/2:2\n")
        self.cap = 6 if tiny else 10
        self.ts = (0.0, 1.0) if tiny else (0.0, 0.5, 1.0, 1.5)
        self.n_targets = 8 if tiny else 32
        self.n_max = "20" if tiny else "40"
        self.m = None

    def load_maps(self) -> None:
        self.m = tm.load_map(self.spec)

    @staticmethod
    def _check(rep: Rep, label: str, ok: bool, detail: str) -> None:
        if not ok:
            rep.misses.append(f"{label}: {detail}")
            rep.failed_requests += 1

    def repetition(self) -> Rep:
        rep = Rep()
        try:
            self._run(rep)
        except Exception:  # the workload keeps going after a failed call
            rep.points += 1
            rep.failed_requests += 1
            rep.broken.append(f"sine_gibbs: raised\n{traceback.format_exc()}")
        return rep

    def _run(self, rep: Rep) -> None:
        m = self.m
        results = []

        def scheme_for():
            cyl = tm.cylinder_of_word(m, tm.itinerary(m, 0.3, 2, side="left"))
            return tm.extendible_return_scheme(m, (cyl.lo, cyl.hi), 0.5, self.cap)
        scheme = call_api(rep, scheme_for)
        results.append(("scheme", len(scheme.branches), scheme.escaping_mass_bound))

        solved = {}
        for t in self.ts:
            res = call_api(rep, tm.equilibrium_shift_solve, scheme, t, 1e-10)
            solved[t] = res
            rep.points += 1
            rep.widths.append(res.s_hi - res.s_lo)
            results.append(("solve", t, res.s_lo, res.s_hi, res.zero_entropy_bound))
        self._check(rep, "P(0)", solved[0.0].bracket.contains(math.log(2.0)),
                    f"{solved[0.0].bracket} misses log 2")
        self._check(rep, "P(1)", solved[1.0].bracket.contains(0.0),
                    f"{solved[1.0].bracket} misses 0")

        sol = solved[1.0].solution
        n = self.n_targets
        targets = [(k / n, (k + 1) / n) for k in range(n)]
        proj = call_api(rep, tm.project_measure, scheme, sol, targets)
        rep.points += 1
        rep.proj_widths.extend(b.hi - b.lo for b in proj)
        mass_lo, mass_hi = sum(b.lo for b in proj), sum(b.hi for b in proj)
        self._check(rep, "projection", mass_lo <= 1.0 <= mass_hi,
                    f"mass bracket [{mass_lo}, {mass_hi}] misses 1")
        results.append(("project", [(b.lo, b.hi) for b in proj]))

        ratio = call_api(rep, tm.gibbs_ratio_check, sol, 2)
        rep.points += 1
        self._check(rep, "gibbs ratio", math.isfinite(ratio), f"Gibbs constant {ratio!r}")
        results.append(("ratio", ratio))
        results.append(("abramov", call_api(rep, tm.abramov_quantities, scheme, sol)))
        rep.points += 1

        prefix = self.path("diag")
        code, _ = call_cli(rep, "diagnose", ["diagnose", "--map", self.spec,
                                             "--n-max", self.n_max, "--out", prefix])
        rep.points += 1
        self._check(rep, "diagnose", code == 0, f"exit {code}")
        for suffix in ("_growth.csv", "_binding.csv"):
            _sha_file(rep, "diagnose" + suffix, prefix + suffix)
        rep.record("results", repr(results))


WORKLOADS = {w.name: w for w in (Quad4ExtScan, MarkovScan, PressureQueries, SineGibbs)}
