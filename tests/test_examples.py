"""Smoke tests: every example script runs to completion; the collective
examples print pinned bytes."""

import hashlib
import os
import subprocess
import sys

import pytest

EXAMPLES = [
    "quickstart.py",
    "stencil_halo_exchange.py",
    "legion_event_runtime.py",
    "nwchem_rma.py",
    "vasp_collectives.py",
    "device_offload.py",
    "fat_tree_collectives.py",
]

#: Script -> sha-256 of its stdout. Both print simulated time only, so the
#: bytes repeat exactly run to run.
STDOUT_SHA256 = {
    "fat_tree_collectives.py":
        "3c578c777d21ea4718f305f975e7303d38e71c8ed399b959c9b809484680e7ef",
    "vasp_collectives.py":
        "1dfe23c934db769cc5c7cdd30cc94cbc9230a996eec465f5cc3a84bf25778a4d",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    path = os.path.join(ROOT, "examples", script)
    assert os.path.exists(path), f"missing example {script}"
    proc = subprocess.run([sys.executable, path], capture_output=True,
                          text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"
    if script in STDOUT_SHA256:
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == STDOUT_SHA256[script]


def test_examples_directory_complete():
    listed = {f for f in os.listdir(os.path.join(ROOT, "examples"))
              if f.endswith(".py")}
    assert listed == set(EXAMPLES)
