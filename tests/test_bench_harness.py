"""The benchmark harness's own tests pass against the current package.

They run as one process from the repository root, as `python3 -m pytest
bench` does, so a change under src/ that breaks the harness's stubs or its
tracing of package functions fails here and not first in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_harness_passes():
    run = subprocess.run([sys.executable, "-m", "pytest", "bench", "-q", "-p", "no:cacheprovider"],
                         cwd=ROOT, capture_output=True, text=True,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
