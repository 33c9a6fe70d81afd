"""The benchmark under perfbench/ still runs against this package."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck():
    # every workload, untraced and traced, on tiny inputs: a renamed or
    # removed name that the benchmark or its tracer uses fails here
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selfcheck"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.rstrip().endswith("ok")
