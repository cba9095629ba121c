"""The benchmark's self-test, run as part of the test suite.

``perfbench/replay.py`` mirrors the CLI through library calls and must write
the CLI's bytes; a library change that breaks that makes the benchmark count
every replayed request as failed. The self-test catches it at tiny sizes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout
