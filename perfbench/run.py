"""dimfock benchmark: exact-verification workloads timed in fresh processes.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads: suite-all, kac-grid, vertex-solve,
symbolic-limit (see workloads.py for why each exists).  Every repetition runs
in a fresh single-threaded child interpreter, one at a time, so the second
core stays free for this process.

--trace 0 measures the end-to-end metrics: repetitions of the same inputs
run until the next one would end after --seconds (at least one).  verify_s
is the median calibrated wall time (see measure), setup_s the median over
the repetitions and SETUP_PROBES import-only children, peak_rss_mb the
median.

--trace 1 runs one repetition untraced and then the same one traced, and
reports the per-layer metrics: span totals from the traced child, per-check
and per-case times from the untraced one, and trace.overhead_s, the traced
minus the untraced verify_s.

Every result is checked against an exact oracle.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it print each metric by name and unit, and failed_share.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SCRATCH_DIR = ".perfbench"
SETUP_PROBES = 5
# The calibration kernel's time on the reference machine (2-vCPU Xeon at
# 2.1 GHz, Python 3.11.7) when nothing else contends: calibrated verify_s
# reads in that machine's seconds.
CALIB_REF_S = 0.05
# The whole run must end within 180 s; a child still running at this point
# is killed and all of its operations count as failed.
RUN_LIMIT_S = 170.0

# check.<id>.s metrics: the suite-all checks over 0.1 s on the baseline code; the
# others are summed into check.rest.s.
CHECKS = (
    "current-relations",
    "crystal-relations",
    "hamiltonian-tower",
    "mode-oracle",
    "box-moves",
    "involution-level2",
    "crystal-limit",
    "orthogonality-triangularity",
    "yang-baxter-level2",
    "singular-vectors-N3",
    "diagram-representation",
    "level2-tables",
)
CASES = (
    ["kac-N%d-n%d" % c for c in workloads.KAC_CASES]
    + ["phi-N%d-L%d" % c for c in workloads.PHI_CASES]
    + ["hl-L%d-%d" % (workloads.HL_LEVEL, i) for i in range(workloads.HL_POINTS)]
)

END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, fields in spans.REPORTED.items():
        for field in fields:
            units["%s.%s" % (name, field)] = _unit(field)
    for check in CHECKS + ("rest",):
        units["check.%s.s" % check] = "s"
    for case in CASES:
        units["case.%s.s" % case] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _unit(field):
    if field in ("s", "self_s"):
        return "s"
    if field in ("repeat_share", "density"):
        return "ratio"
    if field == "result_bits_max":
        return "bits"
    return "count"


class Child:
    """Outcome of one child process."""

    def __init__(self, record, wall_s, error=None):
        self.record = record
        self.wall_s = wall_s
        self.error = error

    @property
    def ok(self):
        return self.record is not None


def run_child(args, deadline, command=None):
    """Run child.py with args; kill it (SIGKILL) if it passes the deadline.

    SIGINT is not used: timed.__exit__ in the program swallows
    KeyboardInterrupt, so the suite would carry on.
    """
    # Children write and reuse bytecode caches whatever the caller's
    # environment says, so setup_s measures imports as an installed package
    # runs them, not compilation.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = command or [sys.executable, os.path.join(HERE, "child.py")]
    spawned = time.time()
    proc = subprocess.Popen(
        cmd + [str(a) for a in args] + ["%.6f" % spawned, SCRATCH_DIR],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Child(None, time.time() - spawned, "killed at the run deadline")
    except BaseException:  # SIGTERM (see main) or Ctrl-C: leave no child behind
        proc.kill()
        proc.wait()
        raise
    wall = time.time() - spawned
    if proc.returncode != 0 or not out.strip():
        tail = (err.strip().splitlines() or ["no output"])[-1]
        return Child(None, wall, "exit %d: %s" % (proc.returncode, tail))
    return Child(json.loads(out.strip().splitlines()[-1]), wall)


def count_ops(children, workload):
    """(attempted, failed); a child that crashed or was killed fails all its ops."""
    attempted = failed = 0
    for child in children:
        if child.ok:
            cases = child.record["cases"]
            attempted += len(cases)
            failed += sum(1 for c in cases if not c["ok"])
        else:
            attempted += workloads.WORKLOADS[workload]["ops"]
            failed += workloads.WORKLOADS[workload]["ops"]
    return attempted, failed


def setup_probes(deadline):
    # the first child compiles the bytecode; it is not a sample
    run_child(["--probe", 0, 0], deadline)
    probes = [run_child(["--probe", 0, 0], deadline) for _ in range(SETUP_PROBES)]
    return [c.record for c in probes if c.ok]


def measure(workload, seed, seconds, deadline):
    """End-to-end samples of untraced repetitions, and their metrics.

    verify_s and setup_s are calibrated: each child's time is scaled by
    CALIB_REF_S over the time that child took for the calibration kernel
    (child.calibration_kernel), and the metric is the median.  On a shared
    2-vCPU machine other tenants slow a process by up to 1.7x, in stretches
    of seconds to minutes that cover whole runs, so the raw wall time of the
    same inputs moved by 20-28% between runs; the kernel slows with it.
    peak_rss_mb is the median of raw values.
    """
    probes = setup_probes(deadline)
    children = []
    start = time.time()
    while True:
        child = run_child([workload, seed, 0], deadline)
        children.append(child)
        now = time.time()
        if not child.ok or now - start + child.wall_s > seconds or now + child.wall_s > deadline:
            break
    done = [c.record for c in children if c.ok]
    samples = {
        "verify_s": [r["verify_s"] * CALIB_REF_S / r["calib_s"] for r in done]
        or [children[-1].wall_s],
        "setup_s": [r["setup_s"] * CALIB_REF_S / r["calib_s"] for r in probes + done],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done] or [0.0],
    }
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    raw = [r["verify_s"] for r in done] or [0.0]
    print("%s raw verify  %.4f s median wall time (min %.4f, max %.4f, n=%d)"
          % (workload, statistics.median(raw), min(raw), max(raw), len(raw)))
    return metrics, samples, children


def trace(workload, seed, deadline):
    """Per-layer metrics of a traced repetition next to an untraced one."""
    plain = run_child([workload, seed, 0], deadline)
    traced = run_child([workload, seed, 1], deadline)
    if not (plain.ok and traced.ok):
        return None, [plain, traced]
    spans_seen = traced.record["spans"]
    silent = missing_hot_spans(workload, spans_seen)
    if silent:
        raise SystemExit(
            "traced %s: hot spans recorded no calls: %s; wrappers not installed: %s"
            % (workload, ", ".join(silent), ", ".join(traced.record["missing"]) or "none")
        )
    metrics = dict(spans_seen)
    times = {case["name"]: case["s"] for case in plain.record["cases"]}
    for check in CHECKS:
        metrics["check.%s.s" % check] = times.pop(check, 0.0)
    for case in CASES:
        metrics["case.%s.s" % case] = times.pop(case, 0.0)
    metrics["check.rest.s"] = sum(times.values()) if workload == "suite-all" else 0.0
    metrics["trace.overhead_s"] = traced.record["verify_s"] - plain.record["verify_s"]
    print_layer_split(metrics, traced.record["verify_s"])
    return metrics, [plain, traced]


def missing_hot_spans(workload, metrics):
    """Hot spans of a workload that a traced repetition saw no calls to."""
    return [
        name for name in workloads.WORKLOADS[workload]["hot"] if not metrics["%s.calls" % name]
    ]


def print_layer_split(metrics, verify_s):
    """Each called span's time as a share of the traced verify_s."""
    for name, fields in spans.REPORTED.items():
        if metrics["%s.calls" % name]:
            field = "self_s" if "self_s" in fields else "s"
            print("%-24s %-6s %6.1f%% of traced verify_s"
                  % (name, field, 100 * metrics["%s.%s" % (name, field)] / verify_s))


def run_workload(workload, seed, seconds, traced):
    deadline = time.time() + RUN_LIMIT_S
    if traced:
        metrics, children = trace(workload, seed, deadline)
        units = per_layer_units()
    else:
        metrics, samples, children = measure(workload, seed, seconds, deadline)
        units = END_TO_END_UNITS
    attempted, failed = count_ops(children, workload)
    for child in children:
        if not child.ok:
            print("%s: child failed: %s" % (workload, child.error))
        else:
            for case in child.record["cases"]:
                if not case["ok"]:
                    print("%s: %s FAILED %s" % (workload, case["name"], case["error"] or ""))
    if metrics is None:
        # a traced run that lost a child has no per-layer numbers to report
        metrics = {name: 0 for name in units}
    elif not traced:
        for name, values in samples.items():
            print("%s %-12s %.4f %s  (min %.4f, max %.4f, n=%d)"
                  % (workload, name, metrics[name], units[name], min(values),
                     max(values), len(values)))
    print("%s failed_share %d/%d = %.4f ratio" % (workload, failed, attempted, failed / attempted))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "dimfock", "__init__.py")):
        print("run from the repository root: src/dimfock not found", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace == 1)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
