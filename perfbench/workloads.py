"""The four benchmark workloads: inputs from the seed, timed bodies, oracles.

Each workload body runs inside a fresh interpreter (see child.py) and returns
one case record (name, ok, seconds, error) per operation.  Only the program's
calls and its point sampling are timed; the oracle comparison after each call
is not, except for suite-all, whose checks are the program's output.

Program functions are looked up through their modules at call time
(``scalars.make_point``, not a name imported at load time), so the wrappers
installed for the traced run see every call.

Why these workloads: profiling the baseline code showed that each layer named in
ROADMAP dominates a different one, so no single run can judge them all.

* suite-all: the run users make (``dimfock --suite all``).  LinOp
  application dominates, most of it inside ``current-relations``, the check
  that takes 75% of Tier-1; linalg and RatFunc are below 3% here.
* kac-grid: the only workload where ``linalg.determinant`` is hot (results of
  9-15k bits), and where fock runs through bra functionals.
* vertex-solve: a sparse overdetermined system densified and eliminated over
  Fraction; ``solve_unique`` is 99% and fock about 1%.
* symbolic-limit: the only workload where the RatFunc field (Poly.gcd) is
  hot; same linalg and fock code as elsewhere, over Q(s) instead of Q.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
import time

from spans import bits

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS_FILE = os.path.join(HERE, "inputs.json")

# Sizes keep one repetition to a few seconds, so that a run holds several
# (see run.py).  Larger sizes, each a single repetition of 13-25 s, spread
# by 20-26% between runs on a 2-vCPU machine:
#   suite-all at level 3, kac-grid (3, 4), vertex-solve (1, 4).
SUITE_LEVEL = 2
# (N, n): Gram dimensions 36 and 40, the last the costliest.
KAC_CASES = ((2, 5), (4, 3))
# (N, L): 49 and 64 unknowns, the last the costliest; (1, 4) has 144.
PHI_CASES = ((1, 3), (2, 2))
# Level 3 takes ~2 s a point; level 4 takes ~126 s.
HL_LEVEL = 3
HL_POINTS = 3


def load_inputs():
    """Program-seed pools and oracle digests, written by record_inputs.py."""
    with open(INPUTS_FILE) as fh:
        return json.load(fh)


def pool_order(seed, pool):
    """The pool of program seeds in an order fixed by the benchmark seed.

    On the baseline code the cost of kac-grid varies threefold between program
    seeds, with the size of the exact numbers.  Drawing from a pool of one
    size class keeps a seed's cost near the median, so run-to-run spread
    measures the code and the machine rather than the seed.
    """
    order = sorted(pool, key=int)
    random.Random(seed).shuffle(order)
    return [int(s) for s in order]


class Stopwatch:
    """Sums the timed segments of a workload body.

    untimed() wraps the oracle checks between them; the traced run passes a
    context that keeps their calls out of the layer spans.
    """

    def __init__(self, untimed=contextlib.nullcontext):
        self.total = 0.0
        self.untimed = untimed

    @contextlib.contextmanager
    def lap(self):
        lap = _Lap()
        t0 = time.perf_counter()
        try:
            yield lap
        finally:
            lap.seconds = time.perf_counter() - t0
            self.total += lap.seconds


class _Lap:
    seconds = 0.0


def _timed_case(cases, name, watch, call, check):
    """Time call(), then check its result untimed.  A crash fails the case."""
    error = None
    try:
        with watch.lap() as lap:
            result = call()
        with watch.untimed():
            ok = bool(check(result))
    except Exception as exc:  # a crash is a failed operation, not a harness error
        ok, error = False, "%s: %s" % (type(exc).__name__, exc)
    cases.append({"name": name, "ok": ok, "s": lap.seconds, "error": error})


# ---------------------------------------------------------------------------
# suite-all


def suite_all(seed, watch, scratch_dir):
    from dimfock import cli

    fd, out = tempfile.mkstemp(suffix=".json", dir=scratch_dir)
    os.close(fd)
    try:
        with watch.lap() as lap, contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(
                ["--suite", "all", "--points", "1", "--level", str(SUITE_LEVEL),
                 "--seed", str(seed), "--out", out]
            )
        with open(out) as fh:
            report = json.load(fh)
    finally:
        os.remove(out)
    # timed.__exit__ turns exceptions into fail entries, so count entries
    cases = [
        {"name": e["id"], "ok": e["status"] == "pass", "s": e["seconds"], "error": None}
        for e in report["checks"]
    ]
    if status != 0 and all(c["ok"] for c in cases):
        cases.append({"name": "exit-status", "ok": False, "s": lap.seconds, "error": str(status)})
    return cases


# ---------------------------------------------------------------------------
# kac-grid


def kac_size(program_seed):
    """Bits of the closed-form determinant of the costliest case: the
    kac-grid size class."""
    from dimfock import kacdet, scalars

    n_comp, n = KAC_CASES[-1]
    return bits(kacdet.kac_det_formula(n, n_comp, scalars.make_point(program_seed, n_comp, n + 1)))


def kac_grid(seed, watch, scratch_dir):
    from dimfock import kacdet, scalars

    seed = pool_order(seed, load_inputs()["kac-grid"])[0]
    cases = []
    for n_comp, n in KAC_CASES:

        def call():
            pt = scalars.make_point(seed, n_comp, n + 1)
            return pt, kacdet.kac_det_check(n, n_comp, pt)[0]

        def check(result):
            pt, det = result
            return det == kacdet.kac_det_formula(n, n_comp, pt)

        _timed_case(cases, "kac-N%d-n%d" % (n_comp, n), watch, call, check)
    return cases


# ---------------------------------------------------------------------------
# vertex-solve


def _tuple_pairs(n_comp, level):
    """(bra tuple, ket tuple) pairs over all levels up to `level`."""
    from dimfock import combinat

    tuples = [t for n in range(level + 1) for t in combinat.enumerate_tuples(n_comp, n)]
    return [(lt, mt) for lt in tuples for mt in tuples]


def _phi_elements_ok(matrix, pt, ptv, n_comp, level):
    """Integral-form elements of an already solved matrix vs the closed form."""
    from dimfock import genmac, phi

    w0 = pt.fresh_rational("phi-w")
    forms_u = {
        n: genmac.integral_forms(genmac.gen_macdonald(n, pt, n_comp=n_comp))
        for n in range(level + 1)
    }
    forms_v = {
        n: genmac.integral_forms(genmac.gen_macdonald(n, ptv, n_comp=n_comp))
        for n in range(level + 1)
    }
    for lt, mt in _tuple_pairs(n_comp, level):
        bra = forms_v[lt.size].k_bra(lt)
        got = matrix.element(bra, forms_u[mt.size].k_state(mt), w0)
        if got != phi.phi_element_formula(lt, mt, pt, ptv, w0):
            return False
    return True


def phi_size(program_seed):
    """Total bits of the closed-form elements at the costliest case: the
    vertex-solve size class."""
    from dimfock import phi, scalars

    n_comp, level = PHI_CASES[-1]
    pt = scalars.make_point(program_seed, n_comp, level + 1)
    ptv = pt.with_weights("phiv")
    w0 = pt.fresh_rational("phi-w")
    return sum(
        bits(phi.phi_element_formula(lt, mt, pt, ptv, w0))
        for lt, mt in _tuple_pairs(n_comp, level)
    )


def vertex_solve(seed, watch, scratch_dir):
    from dimfock import phi, scalars

    seed = pool_order(seed, load_inputs()["vertex-solve"])[0]
    cases = []
    for n_comp, level in PHI_CASES:

        def call():
            pt = scalars.make_point(seed, n_comp, level + 1)
            ptv = pt.with_weights("phiv")
            return pt, ptv, phi.solve_vertex_phi(pt, ptv, n_comp, level)

        def check(result):
            pt, ptv, matrix = result
            if n_comp == 1:
                return matrix.entries == phi.phi_matrix_rank1(pt, ptv, level).entries
            return _phi_elements_ok(matrix, pt, ptv, n_comp, level)

        _timed_case(cases, "phi-N%d-L%d" % (n_comp, level), watch, call, check)
    return cases


# ---------------------------------------------------------------------------
# symbolic-limit

def limit_digest(table, dual):
    """sha256 of the exact q -> 0 transition tables, in a canonical order."""

    def key(tup):
        return json.dumps([list(p.parts) for p in tup])

    def rows(tab):
        return sorted(
            [key(lam), sorted([key(mu), str(v)] for mu, v in row.items())]
            for lam, row in tab.items()
        )

    text = json.dumps([rows(table), rows(dual)], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def hl_limit(point_seed):
    from dimfock import genmac, scalars

    spt = scalars.make_point(point_seed, 2, HL_LEVEL + 1, "q")
    return genmac.gen_hall_littlewood(HL_LEVEL, spt)


def symbolic_limit(seed, watch, scratch_dir):
    # HL_POINTS points of a pool whose exact limit tables were recorded from
    # the baseline commit; the cost of one point varies by +-12% with the
    # point, so a repetition sums several
    digests = load_inputs()["symbolic-limit"]
    cases = []
    for i, point_seed in enumerate(pool_order(seed, digests)[:HL_POINTS]):

        def check(result):
            table, dual, poles = result
            return poles == [] and limit_digest(table, dual) == digests[str(point_seed)]

        _timed_case(
            cases, "hl-L%d-%d" % (HL_LEVEL, i), watch, lambda: hl_limit(point_seed), check
        )
    return cases


# ---------------------------------------------------------------------------
# registry

# hot: spans the traced run must see called, or its wrappers missed them.
# ops: operations a killed or crashed repetition counts as failed (for
# suite-all, the number of checks at SUITE_LEVEL on the baseline code).
WORKLOADS = {
    "suite-all": {
        "body": suite_all,
        "hot": ("fock.linop_call", "fock.mode_apply", "genmac.basis_build", "linalg.inverse"),
        "ops": 46,
    },
    "kac-grid": {
        "body": kac_grid,
        "hot": ("fock.pbw_gram", "fock.bra_apply", "fock.linop_call", "linalg.determinant"),
        "ops": len(KAC_CASES),
    },
    "vertex-solve": {
        "body": vertex_solve,
        "hot": ("linalg.solve_unique", "fock.operator_matrix"),
        "ops": len(PHI_CASES),
    },
    "symbolic-limit": {
        "body": symbolic_limit,
        "hot": (
            "genmac.basis_build",
            "scalars.poly_gcd",
            "scalars.ratfunc_arith",
            "linalg.inverse",
            "fock.operator_matrix",
        ),
        "ops": HL_POINTS,
    },
}
