"""Smoke tests: the example scripts run to completion and report no mismatch."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["braid_tables.py", "--max-n", "3"],
        ["permutation_loci.py", "--max-n", "3"],
        ["four_lines_example.py"],
    ],
)
def test_script_runs_clean(argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    assert not [l for l in lines if "MISMATCH" in l]
    assert not [l for l in lines if "check: False" in l]
