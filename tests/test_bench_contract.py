"""The benchmark's per-layer metrics read public names and `lru_cache`s
of the library (for example `udot._lift` and `udot.offdiag_cells`).
Running its self-check here means a deletion under `src/` cannot drop
one of them unnoticed."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "self-check passed"
