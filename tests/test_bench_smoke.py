"""The benchmark's smoke mode runs every workload at tiny sizes and checks each report.

It keeps the benchmark's span lookup sites (bench/tracing.py) and its
reference checks (bench/workloads.py) working as the library changes.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_exits_zero():
    run = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
