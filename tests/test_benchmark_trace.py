"""The benchmark's traced run of each workload, end to end.

perfbench/run.py fails a traced run when a hot span records no calls, so a
refactor that stops calling one of the layers a workload names fails here,
in the test suite, and not first in a benchmark run.  Each run here also
names the layers it must reach beyond the workload's hot list: mode
extraction in all four, operator application where the workload applies
family modes to states, and the public PBW ket and bra walks of the Kac
Gram.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CALLED = {
    "suite-all": ("fock.mode_apply", "fock.linop_call", "genmac.basis_build"),
    "kac-grid": (
        "fock.mode_apply", "fock.linop_call", "fock.pbw_state", "fock.pbw_bra", "linalg.determinant",
    ),
    "vertex-solve": ("fock.mode_apply", "linalg.solve_unique"),
    "symbolic-limit": ("fock.mode_apply", "genmac.basis_build"),
}


@pytest.mark.parametrize("workload", sorted(CALLED))
def test_traced_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    for name in CALLED[workload]:
        assert result["metrics"][name + ".calls"]["value"] > 0, name
