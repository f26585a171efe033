"""Test of the benchmark itself; run with: python3 -m pytest benchmarks/test_smoke.py

Smoke mode runs every workload at a tiny size, untraced and traced, and
fails unless every metric BENCHMARK.json names is emitted with its unit, the
output checks pass, and the counters predicted to be zero are zero.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_mode():
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "smoke ok"
