"""The benchmark's traced run of the symbolic-limit workload, end to end.

perfbench/run.py fails a traced run when a hot span records no calls, so a
refactor that stops calling one of the layers that workload names fails
here, in the test suite, and not first in a benchmark run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_symbolic_limit_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic-limit",
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["genmac.basis_build.calls"]["value"] > 0
