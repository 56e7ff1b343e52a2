"""Smoke test of the benchmark itself: tiny inputs, every metric printed with its unit.

    python3 -m pytest bench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def test_smoke_prints_every_metric_and_checks_outputs():
    done = subprocess.run(
        [sys.executable, str(HERE / "report.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    for workload in ("atlas-exact", "oracle-sweep", "extend-desk", "age-scan"):
        assert f"== {workload}:" in done.stdout
    assert "trace.overhead" in done.stdout


@pytest.mark.parametrize("argv", [
    ["--workload", "no-such-workload", "--seed", "1", "--seconds", "1"],
    ["--workload", "age-scan", "--seed", "1"],
])
def test_bad_arguments_exit_nonzero_without_a_result(argv):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv], capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
