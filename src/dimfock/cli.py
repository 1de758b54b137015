"""Command-line driver running the named verification suites of `checks`.

Each suite runs a set of exact checks and emits a machine-readable report;
the exit status is 0 when every check passes, 1 on any failure, 2 on usage
errors.  Reports are deterministic in the seed, apart from each check's `seconds`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import JACK_BETA, JACK_WEIGHTS, PASS_DETAILS, SUITES
from .combinat import to_json
from .genmac import gen_jack, gen_macdonald, shared_bases
from .report import CheckReport, timed
from .rmatrix import solve_r_block
from .scalars import make_point


def run_suites(name, opts):
    """Run the named suite, or every suite for "all", into one report.

    The checks of one run share their eigenbases (`genmac.shared_bases`):
    each distinct basis is built once and dropped when the run ends.
    """
    report = CheckReport(name)
    with shared_bases():
        for suite_name in SUITES if name == "all" else [name]:
            points, entries = SUITES[suite_name](opts)
            report.points.extend(p.describe() for p in points)
            for check_id, anchor, call in entries:
                with timed(report, check_id, anchor) as tm:
                    failures = call()
                    # a failure's witness is the first entry of its list
                    details = (
                        repr(failures[0])[:200] if failures else PASS_DETAILS.get(check_id, "")
                    )
                    tm.result(not failures, details)
    return report


# ---------------------------------------------------------------------------
# Fixture dumps


def _dump_genmac_transition(opts, level):
    pt = make_point(opts.seed, max(opts.n_comp or 2, 2), (opts.level or 2) + 1)
    basis = gen_macdonald(level, pt, n_comp=opts.n_comp or 2)
    rows = basis.monomial_transition()
    return {
        "level": level,
        "point": pt.describe(),
        "tuples": [to_json(t) for t in basis.tuples],
        "matrix": [[str(c) for c in row] for row in rows],
    }


def _dump_k_constants(opts, level):
    pt3 = make_point(opts.seed, 3, level + 1)
    out = {}
    for n in range(1, level + 1):
        block = solve_r_block(n, pt3, (1, 2))
        out[str(n)] = {json.dumps(to_json(t)): str(k) for t, k in block.k_values.items()}
    return {"point": pt3.describe(), "constants": out}


def _dump_r_block(opts, level):
    pt3 = make_point(opts.seed, 3, level + 1)
    block = solve_r_block(level, pt3, (1, 2))
    return {
        "level": level,
        "point": pt3.describe(),
        "boson_matrix": [[str(c) for c in row] for row in block.boson_matrix],
        "eigen_matrix": [[str(c) for c in row] for row in block.eigen_matrix],
    }


def _dump_gen_jack(opts, level):
    uprime = list(JACK_WEIGHTS[:2])
    tuples, rows, _ = gen_jack(level, JACK_BETA, uprime)
    return {
        "level": level,
        "beta": str(JACK_BETA),
        "uprime": [str(x) for x in uprime],
        "tuples": [to_json(t) for t in tuples],
        "matrix": [[str(c) for c in row] for row in rows],
    }


# --dump name -> payload builder; both the argparse choices and the dispatch read it
DUMPS = {
    "genmac-transition": _dump_genmac_transition,
    "k-constants": _dump_k_constants,
    "r-block": _dump_r_block,
    "gen-jack": _dump_gen_jack,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dimfock", description="exact verification suites for the Fock calculus"
    )
    parser.add_argument("--suite", choices=sorted([*SUITES, "all"]), help="suite to run")
    parser.add_argument("--dump", choices=list(DUMPS))
    parser.add_argument("--N", dest="n_comp", type=int, default=None)
    parser.add_argument("--level", type=int, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--points", type=int, default=3)
    parser.add_argument("--out", default=None)
    try:
        opts = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (2) or --help (0): return it like the checks below
        return exc.code
    if (opts.suite is None) == (opts.dump is None):
        parser.print_usage()
        return 2
    if opts.level is not None and not 1 <= opts.level <= 6:
        print("--level must be between 1 and 6", file=sys.stderr)
        return 2
    if opts.points < 1:
        print("--points must be at least 1", file=sys.stderr)
        return 2
    if opts.n_comp is not None and opts.n_comp < 1:
        print("--N must be at least 1", file=sys.stderr)
        return 2
    if opts.dump:
        payload = {"object": opts.dump, **DUMPS[opts.dump](opts, opts.level or 1)}
        text = json.dumps(payload, indent=1, sort_keys=True)
        if opts.out:
            with open(opts.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0
    report = run_suites(opts.suite, opts)
    for entry in report.entries:
        print(
            "%-34s %-34s %s (%.2fs)"
            % (entry.check_id, entry.anchor, entry.status.upper(), entry.seconds)
        )
    if opts.out:
        report.dump(opts.out)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
