"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 bench/selftest.py

Checks that BENCHMARK.json has the required shape, that the metric names
and units each run prints match it, and that the output digests agree
between two processes with the same seed and between a traced and an
untraced run.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")
SEED = 7


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def check_shape(doc: dict) -> None:
    check(set(doc) == {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the six keys")
    cmd = doc["command"]
    check(isinstance(cmd, list) and 1 <= len(cmd) <= 32
          and all(isinstance(a, str) and len(a) <= 200 and not a.startswith("/")
                  and ".." not in a.split("/") for a in cmd),
          "command is a list of at most 32 relative strings")
    paths = doc["paths"]
    check(isinstance(paths, list) and 1 <= len(paths) <= 16
          and all(PATH_RE.fullmatch(p) and not p.startswith("/")
                  and ".." not in p.split("/") for p in paths),
          "paths are 1 to 16 relative directories")
    check(all(any(a == p or a.startswith(p + "/") for p in paths)
              for a in cmd[1:] if "/" in a), "command names files under paths only")
    check(isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")
    wls = doc["workloads"]
    check(2 <= len(wls) <= 8 and all(set(w) == {"name", "why"} and NAME_RE.fullmatch(w["name"])
                                     and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
                                     for w in wls),
          "2 to 8 workloads, each a name and a one-line why")
    e2e, layers = doc["end_to_end"], doc["per_layer"]
    check(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and NAME_RE.fullmatch(m["name"])
        and UNIT_RE.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        and isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25 for m in e2e),
        "1 to 16 end-to-end metrics with name, unit, better and a bound <= 0.25")
    check(1 <= len(layers) <= 128 and all(
        set(m) == {"name", "unit", "better"} and NAME_RE.fullmatch(m["name"])
        and UNIT_RE.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        for m in layers), "1 to 128 per-layer metrics with name, unit and better")
    names = [w["name"] for w in wls] + [m["name"] for m in e2e + layers]
    check(len(names) == len(set(names)), "every name is used once")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in e2e),
          "setup_s is in seconds, lower is better, with the largest bound")
    check(len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024, "BENCHMARK.json <= 64 KiB")


def run(doc: dict, workload: str, trace: int) -> tuple[dict, str]:
    """Run one tiny workload; return its result line and output digest
    (the digest of the traced repetitions when ``trace`` is 1)."""
    argv = doc["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr[-300:]!r})")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    key = "# sha256 traced = " if trace else "# sha256 all = "
    digest = next(line[len(key):].split()[0] for line in lines if line.startswith(key))
    return result, digest


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_shape(doc)
    sys.path.insert(0, str(HERE))
    import run as bench_run
    check([(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(bench_run.END_TO_END)
          and [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(bench_run.PER_LAYER),
          "BENCHMARK.json metrics match the benchmark's own list")
    for w in doc["workloads"]:
        name = w["name"]
        first, d1 = run(doc, name, 0)
        second, d2 = run(doc, name, 0)
        traced, d3 = run(doc, name, 1)
        for result, metrics in ((first, doc["end_to_end"]), (second, doc["end_to_end"]),
                                (traced, doc["per_layer"])):
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] is True and result["attempted"] >= 1
                  and result["failed"] == 0, f"{name}: result line is well formed and correct")
            check({k: v["unit"] for k, v in result["metrics"].items()}
                  == {m["name"]: m["unit"] for m in metrics}
                  and all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{name}: printed metric names and units match BENCHMARK.json")
        check(d1 == d2, f"{name}: two processes with seed {SEED} give digest {d1[:12]}")
        check(d1 == d3, f"{name}: traced run gives the untraced digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
