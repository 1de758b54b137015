"""Record the benchmark's input pools and its symbolic-limit oracle.

Run from the repository root on the baseline commit, the one that added
the benchmark (it takes minutes):

    python3 perfbench/record_inputs.py

It writes perfbench/inputs.json:

* kac-grid, vertex-solve: the program seeds among CANDIDATES whose exact
  result size (workloads.kac_size, workloads.phi_size) lies in the middle
  band below, a size class whose cost is near the median on the baseline
  code;
* symbolic-limit: for program seeds 1..HL_POOL, the sha256 of the exact
  q -> 0 tables of gen_hall_littlewood(3, make_point(seed, 2, 4, "q")).  A
  later commit that changes any entry of those tables fails symbolic-limit.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"), HERE]

import workloads  # noqa: E402

CANDIDATES = range(1, 201)
# middle bands of each size over CANDIDATES on the baseline code: the third to
# fifth deciles for kac-grid, the third to sixth for vertex-solve
KAC_BITS = (13000, 15200)
PHI_BITS = (11100, 12850)
HL_POOL = 64


def main():
    inputs = {
        "kac-grid": [s for s in CANDIDATES if KAC_BITS[0] <= workloads.kac_size(s) <= KAC_BITS[1]],
        "vertex-solve": [
            s for s in CANDIDATES if PHI_BITS[0] <= workloads.phi_size(s) <= PHI_BITS[1]
        ],
        "symbolic-limit": {},
    }
    print("pools: kac-grid %d, vertex-solve %d"
          % (len(inputs["kac-grid"]), len(inputs["vertex-solve"])))
    for seed in range(1, HL_POOL + 1):
        table, dual, poles = workloads.hl_limit(seed)
        if poles:
            raise SystemExit("seed %d: poles at q = 0: %r" % (seed, poles))
        inputs["symbolic-limit"][str(seed)] = workloads.limit_digest(table, dual)
    with open(workloads.INPUTS_FILE, "w") as fh:
        json.dump(inputs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
