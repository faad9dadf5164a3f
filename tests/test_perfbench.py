"""The benchmark's own smoke check, run as a test, so that a library change
that breaks what the benchmark reads fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_check_passes():
    """``perfbench/run.py --smoke`` runs every workload at its tiny size,
    traced and untraced, and the stability gate on corrupted matchings."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "smoke: ok" in proc.stderr.splitlines()
