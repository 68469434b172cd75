"""Smoke tests: the example scripts run to completion and report no mismatch,
and the benchmark tracer still finds every function it wraps."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["braid_tables.py", "--max-n", "3"],
        ["permutation_loci.py", "--max-n", "3"],
        ["four_lines_example.py"],
        ["braid_tables.py", "--max-n", "3", "--field", "fp"],
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


# Recorder.install resolves every TARGETS name (methods through cls.__dict__),
# so a renamed, removed or inherited target raises here as it would in a traced
# run; like tracing.main, import covg.cli first so its imported names get wrapped
_INSTALL_TRACER = """
import importlib, sys
sys.path.insert(0, "perfbench")
import covg.cli
from tracing import TARGETS, Recorder
Recorder().install()
for targets in TARGETS.values():
    for module, attr in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert hasattr(obj, "__wrapped__"), (module, attr)
"""


def test_tracer_targets_resolve():
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL_TRACER],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_COUNTED = '''"""Module docstring: not counted."""

# a comment line: not counted
X = 1  # code with a trailing comment


def f(a,
      b):
    """Function docstring,
    over two lines: not counted."""
    return """a string
that is not a docstring"""
'''


def test_code_lines_counts_code_only(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(_COUNTED, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py"), str(sample)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"5 {sample}", "5 total"]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py")], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.split()[::-1] for line in proc.stdout.splitlines())
    assert {"com.py", "matroidal.py", "total"} <= counts.keys()
    assert sum(int(c) for name, c in counts.items() if name != "total") == int(counts["total"])
