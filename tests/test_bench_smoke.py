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
    "quad4_ext_scan": "a5167ba68e26c535756b31a0a1741c369730123788449f78d30593921f7dacf5",
    "markov_scan": "a51aacf118c0e0863871d5439dfb85854422dc44dfc7b8dbfb40aab8d669ab38",
    "pressure_queries": "fc5c2e54076bf318cbca69dfc7f7724e156ad61f21b09b36c285c62fd25b5d9f",
    "sine_gibbs": "6e8c49ffd1b762ba86faed5b76e9da7ee864cba67111537ec45ed8d98531ec37",
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
