"""Smoke test of the benchmark: every workload, untraced and traced, at a tiny
replica count, passes its output checks and prints exactly the metric names
and units that BENCHMARK.json lists."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_runs_every_workload_and_prints_every_metric():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600
    )
    report = done.stdout[-4000:] + done.stderr[-4000:]
    assert done.returncode == 0, report
    assert done.stdout.rstrip().endswith("smoke OK"), report
