"""One repetition of one workload, in a fresh single-threaded interpreter.

    python3 perfbench/child.py <workload|--probe> <seed> <trace 0|1> <spawn_time> <scratch_dir>

Run from the checkout root.  A fresh interpreter per repetition matters:
combinat.partitions, combinat.enumerate_tuples, symfunc._basis_matrices and
symfunc._macdonald_degree are process-global lru_caches, so a second
repetition in the same process would run warm, unlike a CLI user's run.

Prints one JSON record as the last line of stdout:
  setup_s      spawn (the parent's clock reading just before it started this
               process) until every dimfock module is imported
  verify_s     the timed segments of the workload body
  calib_s      median time of the calibration kernel, run after setup and,
               in a workload repetition, again after the body
  peak_rss_mb  maximum resident set size of this process
  cases        one {name, ok, s, error} per operation
  spans        per-layer totals, in a traced repetition only
"""

from __future__ import annotations

import contextlib
import json
import os
import pkgutil
import random
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
CALIB_RUNS = 3  # after setup, and again after the body


def import_program():
    """Import every dimfock module, as a user's first call would."""
    import dimfock

    for info in pkgutil.walk_packages(dimfock.__path__, "dimfock."):
        __import__(info.name)


def calibration_kernel():
    """Seconds taken by fixed exact-arithmetic work in the harness's own code.

    Fraction elimination on 48-bit entries and dict updates keyed by tuples,
    the operations dimfock spends its time in.  No program code runs here,
    so the time tracks only how fast the machine runs at the moment.
    """
    start = time.perf_counter()
    rng = random.Random(1)
    n = 12
    rows = [
        [Fraction(rng.getrandbits(48) | 1, rng.getrandbits(48) | 1) for _ in range(n)]
        for _ in range(n)
    ]
    for c in range(n):
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] * inv
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    counts = {}
    for i in range(100_000):
        key = (i & 511, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def main(argv):
    workload, seed, traced, spawned, scratch_dir = argv
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    import workloads
    import spans

    import_program()
    record = {"setup_s": time.time() - float(spawned)}
    calib = [calibration_kernel() for _ in range(CALIB_RUNS)]
    if workload != "--probe":
        tracer = spans.Tracer().install() if traced == "1" else None
        watch = workloads.Stopwatch(untimed=tracer.paused if tracer else contextlib.nullcontext)
        body = workloads.WORKLOADS[workload]["body"]
        record["cases"] = body(int(seed), watch, scratch_dir)
        record["verify_s"] = watch.total
        calib += [calibration_kernel() for _ in range(CALIB_RUNS)]
        if tracer is not None:
            record["spans"] = tracer.metrics()
            record["missing"] = tracer.missing
    record["calib_s"] = statistics.median(calib)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
