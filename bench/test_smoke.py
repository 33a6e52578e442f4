"""The benchmark's own test: ``run.py --smoke`` must pass on this tree.

Run with ``python3 -m pytest bench/test_smoke.py`` from the repository root.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_prints_every_metric_and_fails_nothing():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
