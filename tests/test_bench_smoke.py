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
    "markov_scan": "ab3ce487b08c16488635a141f0d4d173a7880913d3e4786e8d01e7ea7036bd02",
    "pressure_queries": "b1b6f33d715c18c202b4679b20b0b81f0c76d01e822de10f190e5c28e43b3a06",
    "sine_gibbs": "4c153628c5acc8c0d507afa0f8076ba9e25e7cead5241cb531f34bdecee94ff7",
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
