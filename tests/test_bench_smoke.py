"""The benchmark's own checks at tiny size: every workload runs, every
output stays inside the benchmark's closed forms and oracles, and every
output is byte for byte what it was."""

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ``# sha256 all`` of each workload at --size tiny, seed 1: the digest of
# every output the repetition wrote.  A change that alters a number must
# update its pin here and say in CHANGES.md why the number moved.
TINY_DIGESTS = {
    "quad4_ext_scan": "ca045c346640658351c53485bfe742f427cd95fe0426a82f60314a9e19779d48",
    "markov_scan": "029c333491c962f073dea67c61044001ef1dd15fc46b7b3e3e56ba485a838661",
    "pressure_queries": "efe5e1465b2bbe16cd0dd6ed9c7a1855fd8851e66743f56991106be2dcc838b6",
    "sine_gibbs": "03f79aca158e786d5d529c64c1645f5737912ac7ddbefb7bc5f8572bdbaf9964",
}


@pytest.mark.parametrize("workload", sorted(TINY_DIGESTS))
def test_tiny_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    digest = re.search(r"^# sha256 all = ([0-9a-f]{64})$", proc.stdout, re.M)
    assert digest is not None, proc.stdout
    assert digest.group(1) == TINY_DIGESTS[workload]


def test_traced_run_writes_the_untraced_digests():
    # the tracer wraps every public function of the library; the traced
    # repetition must write what the untraced one writes
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "sine_gibbs",
         "--size", "tiny", "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for kind in ("all", "traced"):
        digest = re.search(rf"^# sha256 {kind} = ([0-9a-f]{{64}})$", proc.stdout, re.M)
        assert digest is not None, proc.stdout
        assert digest.group(1) == TINY_DIGESTS["sine_gibbs"], kind


def test_shift_solve_evaluations_per_solve():
    # the shift solve's edges by false position: bisection to 1e-10 took
    # 72.4 weight sums per solve on this run
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "markov_scan",
         "--size", "tiny", "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found = re.search(r"^# layer gibbs\.evals_per_solve = (\S+) count$", proc.stdout, re.M)
    assert found is not None, proc.stdout
    assert float(found.group(1)) <= 30.0
