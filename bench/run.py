"""thermomap benchmark: one workload, one seed, one timed run.

Run from the root of a checkout:

    python3 bench/run.py --workload quad4_ext_scan --seed 1 --seconds 20 --trace 0

Workloads: quad4_ext_scan, markov_scan, pressure_queries, sine_gibbs (see
workloads.py).  With ``--trace 0`` the run repeats the workload untraced
until ``--seconds`` have passed and reports the end-to-end metrics (the
gated timing is ``wall_cal``, wall time over a calibration loop); with
``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics and the tracing overhead.  Report lines start with
``#``; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results and
the span trace go to ``.bench_out/`` in the checkout.

thermomap is imported from this checkout's ``src/`` only; the run stops
with exit status 1 and no result when that directory is missing.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools must be pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

TIMING_NOTE = ("timings are wall clock on a shared machine, "
               "taken without system-wide profilers")

# sha256 of the quad4_ext_scan CSV when the benchmark was defined: the
# ROADMAP's byte-identical gate.  A different digest is reported, not
# failed, because a change may alter the numbers for a stated reason.
QUAD4_CSV_BASELINE = "6b34f46fac5bed7261e185698211b665ccd3b4d91409d980c9fc0154de0efe6e"

# Fresh interpreters started to time set-up; the median is reported.
SETUP_SPAWNS = 9

# (name, unit) of what the final JSON line carries.
# The report lines also carry wall_s, request_ms_p50, request_ms_p90, width_mean,
# proj_width_mean and fail_frac.  They stay out of this list because the
# final line must give every metric a non-zero number on every workload
# whose spread over seeds stays well inside its bound: the request
# percentiles and proj_width_mean apply to one workload each, fail_frac is
# 0 where nothing fails, and width_mean follows the seed-drawn inputs.
#
# wall_cal is wall_s divided by the time of a fixed calibration loop run
# just before and just after each repetition.  On a shared 2-core host the
# CPU speed was seen to swing by 30 % for tens of seconds at a time, which
# moved 25-second medians of wall_s by 20 % or more between runs; the
# ratio cancels that common factor and is the gated timing.  wall_s itself
# stays on the report lines.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_cal", "cal"),
    ("peak_rss_mb", "MB"),
)
# Per-layer metrics in the final JSON line.  The traced run also reports
# hofbauer.tower_s, gibbs.project_s, gibbs.ratio_check_s, gibbs.abramov_s,
# diagnostics.s and cli.detect_s on its "# layer" lines; they are left out
# here because each is exactly 0 on the workloads that never call that
# layer, and a time that reads the same on every run is no measurement.
PER_LAYER = (
    ("interval_map.pullback_calls", "count"),
    ("interval_map.deriv_calls", "count"),
    ("interval_map.eval_calls", "count"),
    ("interval_map.load_s", "s"),
    ("symbolic.refine_s", "s"),
    ("symbolic.cylinders", "count"),
    ("symbolic.useful_frac", "1"),
    ("symbolic.laps_s", "s"),
    ("symbolic.periodic_points", "count"),
    ("symbolic.periodic_s", "s"),
    ("hofbauer.tower_nodes", "count"),
    ("inducing.scheme_s", "s"),
    ("inducing.branches", "count"),
    ("inducing.escaping_mass", "1"),
    ("thermo.gurevich_calls", "count"),
    ("thermo.gurevich_s", "s"),
    ("thermo.tail_info_s", "s"),
    ("thermo.induced_potential_s", "s"),
    ("gibbs.solves", "count"),
    ("gibbs.shift_solve_s", "s"),
    ("gibbs.shift_solve_self_s", "s"),
    ("gibbs.evals_per_solve", "count"),
    ("gibbs.solve_gibbs_s", "s"),
    ("gibbs.zero_entropy_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "1"),
)

SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
import thermomap
for p in {paths!r}:
    thermomap.load_map(p)
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def import_thermomap():
    """Import thermomap from this checkout's src/ or stop without a result."""
    if not (SRC / "thermomap" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'thermomap'} is missing; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import thermomap
    if Path(thermomap.__file__).resolve().parent != (SRC / "thermomap").resolve():
        sys.exit(f"bench: thermomap was imported from {thermomap.__file__}, "
                 f"not from {SRC}")
    return thermomap


def measure_setup(map_paths: list[str], spawns: int) -> list[float]:
    """Seconds from starting a fresh interpreter until thermomap is
    imported and the workload's maps are loaded, once per spawn."""
    code = SETUP_CODE.format(src=str(SRC), paths=list(map_paths))
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-I", "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                proc.wait(timeout=60)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def calibration_loop() -> float:
    """Fixed pure-Python float work that calls nothing in thermomap."""
    x, acc, points = 0.3, 0.0, []
    for i in range(120_000):
        x = 3.9 * x * (1.0 - x)
        acc += math.log(abs(3.9 - 7.8 * x) + 1e-9)
        if i % 50 == 0:
            points.append((x, acc))
    return acc


def timed_calibration() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def timed_rep(workload, cal_before: float):
    """One repetition, then the calibration loop.

    ``rep.cal_s`` is the mean calibration time just before and just after
    the repetition; the time after is returned for the next repetition.
    """
    gc.collect()
    t0 = time.perf_counter()
    rep = workload.repetition()
    rep.wall_s = time.perf_counter() - t0
    cal_after = timed_calibration()
    rep.cal_s = 0.5 * (cal_before + cal_after)
    return rep, cal_after


def run_reps(workload, seconds: float, traced: bool):
    """Repeat the workload until ``seconds`` have passed.

    Traced runs alternate untraced and traced repetitions, starting
    untraced, and end with at least one of each.  Returns the untraced
    and traced repetitions, the per-layer metrics of each traced one, and
    the last tracer.
    """
    from tracer import Tracer

    plain, traced_reps, layers, tracer = [], [], [], None
    start = time.perf_counter()
    cal = timed_calibration()
    while True:
        if traced and len(traced_reps) < len(plain):
            tracer = Tracer()
            with tracer:
                rep, cal = timed_rep(workload, cal)
            traced_reps.append(rep)
            layers.append(tracer.layer_metrics())
        else:
            rep, cal = timed_rep(workload, cal)
            plain.append(rep)
        if time.perf_counter() - start >= seconds and (not traced or traced_reps):
            return plain, traced_reps, layers, tracer


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "note": TIMING_NOTE,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "diagnostics.s":
        return "s"
    return "1" if name.endswith(("_frac", "escaping_mass")) else "count"


def fmt(v) -> str:
    return "null" if v is None else repr(v)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the benchmark's self-test")
    return ap.parse_args(argv)


def run(args) -> int:
    import_thermomap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r} "
                 f"(have {sorted(workloads.WORKLOADS)})")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    try:
        workload = workloads.WORKLOADS[args.workload](
            workdir, args.seed, args.size == "tiny")
        setup = measure_setup(workload.map_paths, 3 if args.size == "tiny" else SETUP_SPAWNS)
        workload.load_maps()
        plain, traced, layers, tracer = run_reps(workload, args.seconds, args.trace == 1)
        trace_path = None
        if tracer is not None:
            trace_path = OUT / f"trace-{tag}.json"
            tracer.dump(str(trace_path))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    first = reps[0]
    nondeterministic = sum(r.digest() != first.digest() for r in reps[1:])
    attempted = sum(len(r.latencies) for r in reps)
    failed = sum(r.failed_requests for r in reps) + nondeterministic
    points = sum(r.points for r in reps)
    typed_by = sum((r.typed_failures for r in reps), Counter())
    typed = sum(typed_by.values())
    misses = [m for r in reps for m in r.misses]
    broken = [b for r in reps for b in r.broken]
    latencies = [x for r in plain for x in r.latencies]
    walls = [r.wall_s for r in plain]

    issue_metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "wall_cal": (statistics.median(r.wall_s / r.cal_s for r in plain), "cal"),
        "request_ms_p50": (1000.0 * statistics.median(latencies)
                           if workload.request_latency else None, "ms"),
        "request_ms_p90": (1000.0 * statistics.quantiles(latencies, n=10, method="inclusive")[8]
                           if workload.request_latency else None, "ms"),
        "width_mean": (statistics.fmean(first.widths) if first.widths else None, "nats"),
        "proj_width_mean": (statistics.fmean(first.proj_widths)
                            if first.proj_widths else None, "1"),
        "fail_frac": ((typed + len(misses) + len(broken)) / points, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    layer = {}
    if traced:
        for name in layers[0]:
            layer[name] = statistics.median_low(m[name] for m in layers)
        layer["trace.overhead_frac"] = (statistics.median(r.wall_s for r in traced)
                                        / statistics.median(walls) - 1.0)

    env = environment()
    print(f"# thermomap bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "note")
          + f"; {TIMING_NOTE}")
    print(f"# closed loop, 1 client, 1 thread: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, {attempted} requests")
    print("# wall_s per repetition: " + ", ".join(f"{w:.4f}" for w in walls))
    for name, (value, unit) in issue_metrics.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setup)} fresh interpreters)"
        elif name == "wall_cal":
            note = (f"  (wall_s / calibration loop time; calibration median "
                    f"{statistics.median(r.cal_s for r in plain):.6f} s)")
        elif name.startswith("request_ms") and value is not None:
            note = f"  (n={len(latencies)} requests)"
        elif name == "fail_frac":
            note = (f"  ({typed} typed failures, {len(misses)} reference misses, "
                    f"{len(broken)} broken, of {points} points)")
        print(f"# metric {name} = {fmt(value)} {unit}{note}")
    for name, value in layer.items():
        print(f"# layer {name} = {fmt(value)} {layer_unit(name)}")
    for label in sorted(first.digests):
        print(f"# sha256 {label} = {first.digests[label]}")
    if traced:
        print(f"# sha256 traced = {traced[0].digest()}")
    print(f"# sha256 all = {first.digest()}"
          + ("" if not nondeterministic
             else f"  ({nondeterministic} repetitions differ: NOT deterministic)"))
    if args.workload == "quad4_ext_scan" and args.size == "full":
        same = first.digests.get("quad4.csv") == QUAD4_CSV_BASELINE
        print("# quad4 CSV " + ("matches" if same else "DIFFERS FROM")
              + " the baseline digest " + QUAD4_CSV_BASELINE)
    if typed_by:
        print("# typed failures by map: "
              + ", ".join(f"{k} x{n}" for k, n in sorted(typed_by.items())))
    for line in misses + broken:
        print("# failure: " + line.replace("\n", "\n#   "))

    results_path = OUT / f"results-{tag}.json"
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in issue_metrics.items()},
        "layers": layer, "setup_samples_s": setup, "wall_s_untraced": walls,
        "calibration_s_untraced": [r.cal_s for r in plain],
        "wall_s_traced": [r.wall_s for r in traced],
        "digests": first.digests, "digest": first.digest(),
        "nondeterministic_repetitions": nondeterministic,
        "typed_failures": dict(typed_by), "misses": misses, "broken": broken,
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
    }
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, default=repr)
    print(f"# results: {results_path.relative_to(ROOT)}")

    chosen = PER_LAYER if traced else END_TO_END
    values = layer if traced else {k: v for k, (v, _) in issue_metrics.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
