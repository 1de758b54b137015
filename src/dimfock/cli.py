"""Command-line driver composing the modules into named verification suites.

Each suite runs a set of exact checks and emits a machine-readable report;
the exit status is 0 when every check passes, 1 on any failure, 2 on usage
errors.  Reports are deterministic in the seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .combinat import EMPTY, Partition, PartitionTuple, partitions, to_json
from .report import CheckReport, timed
from .scalars import make_point

SUITES = {}


def suite(name):
    def wrap(fn):
        SUITES[name] = fn
        return fn

    return wrap


def _points(opts, n_weights, level_cap):
    return [make_point(opts.seed + 97 * i, n_weights, level_cap) for i in range(opts.points)]


@suite("symfunc")
def run_symfunc(opts):
    from .symfunc import (
        hall_littlewood,
        hl_pairing_identities,
        inner_prod,
        macdonald_p,
        principal_specialization,
        principal_specialization_closed,
    )

    level = min(opts.level or 6, 6)
    report = CheckReport("symfunc")
    pts = _points(opts, 1, 3)
    report.points = [p.describe() for p in pts]
    with timed(report, "orthogonality-triangularity", "macdonald-basis") as tm:
        ok = True
        for pt in pts:
            for n in range(1, level + 1):
                ps = {lam: macdonald_p(lam, pt.q, pt.t) for lam in partitions(n)}
                for lam, f in ps.items():
                    from .symfunc import convert

                    fm = convert(f, "m")
                    for mu, c in fm.coeffs.items():
                        from .combinat import dominance_le

                        if c and not dominance_le(mu, lam):
                            ok = False
                for lam in ps:
                    for mu in ps:
                        if lam != mu and inner_prod(ps[lam], ps[mu], pt.q, pt.t):
                            ok = False
        tm.result(ok)
    with timed(report, "hall-littlewood-duality", "hl-norms") as tm:
        ok = True
        pt = pts[0]
        from .combinat import b_factor

        for n in range(1, level + 1):
            for lam in partitions(n):
                p_lam, q_lam = hall_littlewood(lam, tval=pt.t)
                norm = inner_prod(p_lam, p_lam, Fraction(0), pt.t)
                if q_lam != p_lam.scale(b_factor(lam, pt.t) / 1) or norm * b_factor(
                    lam, pt.t
                ) != 1:
                    ok = False
        tm.result(ok)
    with timed(report, "principal-specialization", "hl-specialization") as tm:
        pt = pts[0]
        r = pt.fresh_rational("spec-r")
        ok = all(
            principal_specialization(lam, r, tval=pt.t)
            == principal_specialization_closed(lam, r, pt.t)
            for n in range(level + 1)
            for lam in partitions(n)
        )
        tm.result(ok)
    with timed(report, "negated-pairings", "hl-pairing-identities") as tm:
        pt = pts[0]
        ok = all(
            hl_pairing_identities(lam, tval=pt.t)["ok"]
            for n in range(level + 1)
            for lam in partitions(n)
        )
        tm.result(ok)
    return report


@suite("fock-relations")
def run_fock_relations(opts):
    from .relations import (
        check_crystal_pbw_hl,
        check_crystal_shapovalov,
        check_crystal_virasoro_pbw,
        check_crystal_virasoro_relations,
        check_crystal_x_relations,
        check_jing,
        check_virasoro_relation,
        check_x_relations_n2,
        naive_mode_apply,
    )
    from .fock import BosonModule, GeneratorFamily

    level = min(opts.level or 3, 3)
    report = CheckReport("fock-relations")
    pts = _points(opts, 2, level + 5)
    report.points = [p.describe() for p in pts]
    with timed(report, "mode-oracle", "vertex-mode-extraction") as tm:
        pt = pts[0]
        mod = BosonModule(pt, 2, pt.u, level + 2, kind="qt")
        fam = GeneratorFamily(mod)
        ok = True
        for lvl in range(min(level, 3) + 1):
            for tup in mod.basis(lvl):
                st = {tup: Fraction(1)}
                for i in (1, 2):
                    for k in (-1, 0, 1):
                        got = fam.x_mode(i, k)(st)
                        naive = {}
                        for term in fam.x_terms(i):
                            for key, v in naive_mode_apply(term, k, st, mod).items():
                                naive[key] = naive.get(key, Fraction(0)) + v
                        naive = {key: v for key, v in naive.items() if v}
                        if got != naive:
                            ok = False
        tm.result(ok)
    with timed(report, "current-relations", "two-boson-exchange-relations") as tm:
        ok = all(check_x_relations_n2(level, pt) == [] for pt in pts)
        tm.result(ok)
    with timed(report, "virasoro-relation", "deformed-virasoro-exchange") as tm:
        pt = pts[0]
        tm.result(check_virasoro_relation(min(level, 2), pt, pt.fresh_rational("k")) == [])
    with timed(report, "crystal-relations", "crystal-exchange-relations") as tm:
        pt = pts[0]
        u = [pt.fresh_rational(("cu", i)) for i in range(2)]
        tm.result(check_crystal_x_relations(min(level, 2), pt, u) == [])
    with timed(report, "crystal-virasoro", "scaled-virasoro-exchange") as tm:
        pt = pts[0]
        tm.result(
            check_crystal_virasoro_relations(min(level, 2), pt, pt.fresh_rational("k")) == []
        )
    with timed(report, "jing-operators", "hl-from-jing-modes") as tm:
        tm.result(check_jing(min(level + 1, 4), pts[0]) == [])
    with timed(report, "crystal-pbw-hl", "crystal-pbw-hall-littlewood") as tm:
        pt = pts[0]
        u = [pt.fresh_rational(("cu", i)) for i in range(2)]
        ok = check_crystal_virasoro_pbw(level, pt, pt.fresh_rational("k")) == []
        ok = ok and check_crystal_pbw_hl(level, pt, u) == []
        ok = ok and check_crystal_shapovalov(level, pt, u) == []
        tm.result(ok)
    return report


@suite("genmac")
def run_genmac(opts):
    from .genmac import (
        gen_hall_littlewood,
        gen_jack,
        gen_macdonald,
        integral_forms,
        ordering_vanishing_check,
    )
    from .scalars import eigenvalue_of
    from .fock import state_scale

    level = min(opts.level or 2, 3)
    n_comp = opts.n_comp or 2
    report = CheckReport("genmac")
    pts = _points(opts, n_comp, level + 1)
    report.points = [p.describe() for p in pts]
    with timed(report, "eigenvectors", "zero-mode-diagonalization") as tm:
        ok = True
        for pt in pts:
            for n in range(level + 1):
                basis = gen_macdonald(n, pt, n_comp=n_comp)
                for tup in basis.tuples:
                    st = basis.state(tup)
                    if basis.family.x_mode(1, 0)(st) != state_scale(
                        st, eigenvalue_of(tup, pt)
                    ):
                        ok = False
        tm.result(ok)
    with timed(report, "dual-orthogonality", "eigenbasis-bra-pairing") as tm:
        pt = pts[0]
        ok = True
        for n in range(level + 1):
            basis = gen_macdonald(n, pt, n_comp=n_comp)
            for lam in basis.tuples:
                bra = basis.dual_bra(lam)
                for mu in basis.tuples:
                    val = basis.module.pair(bra, basis.state(mu))
                    if (lam == mu) == (val == 0):
                        ok = False
        tm.result(ok)
    with timed(report, "integral-forms", "pbw-expansion-normalization") as tm:
        pt = pts[0]
        ok = True
        for n in range(level + 1):
            forms = integral_forms(gen_macdonald(n, pt, n_comp=n_comp))
            for tup, vec in forms.alpha.items():
                if vec[_designated(forms, n)] != 1:
                    ok = False
        tm.result(ok)
    with timed(report, "crystal-limit", "q-to-zero-transition") as tm:
        spt = make_point(opts.seed, 2, level + 1, "q")
        table, dual, poles = gen_hall_littlewood(min(level, 3), spt)
        tm.result(poles == [], "poles: %d" % len(poles))
    with timed(report, "jack-tables", "degenerate-limit-eigenfunctions") as tm:
        beta = Fraction(3, 7)
        uprime = [Fraction(5, 3), Fraction(2, 9)][:n_comp]
        while len(uprime) < n_comp:
            uprime.append(Fraction(7, 11))
        tuples, rows, eig = gen_jack(min(level, 2), beta, uprime)
        tm.result(all(rows[i][i] == 1 for i in range(len(tuples))))
    with timed(report, "ordering-support", "refined-ordering-vanishing") as tm:
        tm.result(ordering_vanishing_check(min(level, 3), pts[0], n_comp=n_comp) == [])
    return report


def _designated(forms, level):
    from .genmac import _designated_index

    return _designated_index(forms.basis.tuples, level)


@suite("kacdet")
def run_kacdet(opts):
    from .kacdet import (
        kac_det_check,
        kac_det_vanishes_on_line,
        singular_vector_check,
        singular_vector_check_multi,
    )

    report = CheckReport("kacdet")
    sizes = {1: 5, 2: 4, 3: 3}
    if opts.level:
        sizes = {n: min(l, opts.level) for n, l in sizes.items()}
    report.points = []
    for n_comp, n_max in sizes.items():
        pts = _points(opts, n_comp, n_max + 1)
        report.points.extend(p.describe() for p in pts[:1])
        for n in range(1, n_max + 1):
            with timed(
                report, "kac-det-N%d-n%d" % (n_comp, n), "kac-determinant-formula"
            ) as tm:
                ok = all(lhs == rhs for lhs, rhs in (kac_det_check(n, n_comp, pt) for pt in pts))
                tm.result(ok)
    pt2 = _points(opts, 2, 4)[0]
    with timed(report, "determinant-vanishing", "weight-line-degeneration") as tm:
        tm.result(kac_det_vanishes_on_line(2, 2, pt2, 1, 1))
    with timed(report, "singular-vectors-N2", "annihilation-at-resonance") as tm:
        ok = True
        for (r, s) in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]:
            res = singular_vector_check(pt2, 2, 1, r, s)
            ok = ok and res["bad_modes"] == [] and res["restriction_ok"]
        tm.result(ok)
    pt3 = _points(opts, 3, 4)[0]
    with timed(report, "singular-vectors-N3", "annihilation-at-resonance") as tm:
        ok = True
        for i in (1, 2):
            for (r, s) in [(1, 1), (1, 2), (2, 1)]:
                res = singular_vector_check(pt3, 3, i, r, s)
                ok = ok and res["bad_modes"] == [] and res["restriction_ok"]
        res = singular_vector_check_multi(pt3, 3, [1, 1], [1, 1], "A")
        ok = ok and res["bad_modes"] == []
        res = singular_vector_check_multi(pt3, 3, [1, 2], [1, 1], "B")
        ok = ok and res["bad_modes"] == []
        tm.result(ok)
    return report


@suite("agt-generic")
def run_agt_generic(opts):
    from .kacdet import whittaker_norm
    from .nekrasov import conjecture_checks
    from .phi import phi_element_conjecture_check

    report = CheckReport("agt-generic")
    order = min(opts.level or 2, 2)
    pts = _points(opts, 2, 3)
    report.points = [p.describe() for p in pts]
    with timed(report, "whittaker-vs-instanton", "pure-gauge-norm-identity") as tm:
        ok = True
        for pt in pts:
            k, instanton = _whittaker_k(order, pt)
            ok = ok and whittaker_norm(order, k, pt) == instanton
        tm.result(ok)
    with timed(report, "integral-form-norms", "nekrasov-norm-conjecture") as tm:
        ok = all(conjecture_checks(1, pt, n_comp=2) == [] for pt in pts)
        pt1 = make_point(opts.seed, 1, 3)
        ok = ok and conjecture_checks(2, pt1, n_comp=1) == []
        tm.result(ok)
    with timed(report, "vertex-elements", "nekrasov-element-conjecture") as tm:
        pt = pts[0]
        ptv = pt.with_weights("phiv")
        ok = phi_element_conjecture_check(1, pt, ptv, 2) == []
        pt1 = make_point(opts.seed, 1, 3)
        ok = ok and phi_element_conjecture_check(2, pt1, pt1.with_weights("phiv"), 1) == []
        tm.result(ok)
    return report


def _whittaker_k(order, pt):
    """(k, instanton series at Q = k^2) for the first k drawn off the (q, t) lattice.

    Tags "whit-k", ("whit-k", 1), ... are tried in turn; a k whose Q makes an
    instanton denominator vanish is skipped.
    """
    from .nekrasov import NonGenericPoint, z_pure

    for attempt in itertools.count():
        k = pt.fresh_rational(("whit-k", attempt) if attempt else "whit-k")
        try:
            return k, z_pure(order, k * k, pt)
        except NonGenericPoint:
            pass


@suite("agt-crystal")
def run_agt_crystal(opts):
    from .kacdet import crystal_whittaker_norm
    from .nekrasov import (
        crystal_limit_check,
        four_point_aflt,
        four_point_closed,
        strange_factorization_check,
        z_pure_crystal,
        z_pure_crystal_closed,
    )
    from .phi import crystal_four_point_pbw

    report = CheckReport("agt-crystal")
    order = min(opts.level or 2, 3)
    pts = _points(opts, 2, 3)
    report.points = [p.describe() for p in pts]
    with timed(report, "crystal-whittaker", "crystal-pure-gauge-identity") as tm:
        ok = True
        for pt in pts:
            closed = z_pure_crystal_closed(order, pt.t)
            ok = ok and crystal_whittaker_norm(order, pt) == closed
            ok = ok and crystal_whittaker_norm(order, pt, direct=True) == closed
        tm.result(ok)
    with timed(report, "q-independence", "crystal-series-constancy") as tm:
        pt = pts[0]
        vals = [
            z_pure_crystal(order, pt.fresh_rational(("Q", i)), pt) for i in range(4)
        ]
        tm.result(all(v == vals[0] for v in vals))
    with timed(report, "symbolic-limit", "instanton-crystal-limit") as tm:
        spt = make_point(opts.seed, 2, 2, "q")
        tm.result(crystal_limit_check(order, spt, Fraction(3, 5)) == [])
    with timed(report, "four-point", "vertex-four-point-sums") as tm:
        pt = pts[0]
        u = [pt.fresh_rational(("4u", i)) for i in range(2)]
        v = [pt.fresh_rational(("4v", i)) for i in range(2)]
        w = [pt.fresh_rational(("4w", i)) for i in range(2)]
        z1, z2 = pt.fresh_rational("4z1"), pt.fresh_rational("4z2")
        n_ord = min(order + 1, 3) if opts.level is None else min(opts.level + 1, 5)
        closed = four_point_closed(n_ord, pt.t, w[0] * w[1] / (v[0] * v[1]))
        pbw = crystal_four_point_pbw(n_ord, pt, u, v, w, z1, z2)
        aflt = four_point_aflt(min(n_ord, 4), pt.t, v, w)
        ok = closed == pbw and closed[: len(aflt)] == aflt
        tm.result(ok)
    with timed(report, "grouped-factorization", "tuple-group-factorization") as tm:
        pt = pts[0]
        v = [pt.fresh_rational(("4v", i)) for i in range(2)]
        w = [pt.fresh_rational(("4w", i)) for i in range(2)]
        ok = True
        for n in range(0, 4):
            for lam in partitions(n):
                lhs, rhs = strange_factorization_check(lam, pt.t, v, w)
                ok = ok and lhs == rhs
        tm.result(ok)
    return report


@suite("rmatrix")
def run_rmatrix(opts):
    from . import rmatrix_tables as tables
    from .genmac import gen_macdonald
    from .rmatrix import (
        integral_form_r_check,
        involution_check,
        k_from_spectator,
        solve_r_block,
        two_boson_block,
        yang_baxter_check,
    )

    report = CheckReport("rmatrix")
    level = min(opts.level or 2, 2)
    pts = _points(opts, 3, 4)
    report.points = [p.describe() for p in pts]
    with timed(report, "level1-tables", "level-one-block-fixtures") as tm:
        ok = True
        for pt in pts:
            q, t = pt.q, pt.t
            u1, u2, u3 = pt.u
            S = pt.p_half()
            b1 = solve_r_block(1, pt, (1, 2))
            ok = ok and b1.boson_matrix == tables.boson_block_level1_12(q, t, u1, u2, u3, S)
            ok = ok and b1.eigen_matrix == tables.eigen_block_level1_12(q, t, u1, u2, u3, S)
            ok = ok and solve_r_block(1, pt, (2, 3)).boson_matrix == tables.boson_block_level1_23(
                q, t, u1, u2, u3, S
            )
            ok = ok and solve_r_block(1, pt, (1, 3)).boson_matrix == tables.boson_block_level1_13(
                q, t, u1, u2, u3, S
            )
            basis1 = gen_macdonald(1, pt, n_comp=3)
            A = [[basis1.transition(l, m) for m in basis1.tuples] for l in basis1.tuples]
            ok = ok and A == tables.transition_level1_n3(q, t, u1, u2, u3, S)
        tm.result(ok)
    if level >= 2:
        with timed(report, "level2-tables", "level-two-block-fixtures") as tm:
            ok = True
            for pt in pts:
                q, t = pt.q, pt.t
                u1, u2, u3 = pt.u
                S = pt.p_half()
                basis2 = gen_macdonald(2, pt, n_comp=3)
                A2 = [
                    [basis2.transition(l, m) for m in basis2.tuples] for l in basis2.tuples
                ]
                ok = ok and A2 == tables.transition_level2_n3(q, t, u1, u2, u3, S)
                ks2 = k_from_spectator(2, pt)
                block2, _ = two_boson_block(2, pt, ks2)
                Q = u1 / u2
                ok = ok and block2.eigen_matrix == tables.eigen_block_level2_n2(q, t, Q, S)
                ok = ok and block2.boson_matrix == tables.boson_block_level2_n2(q, t, Q, S)
                k1 = tables.k_constants_level1(q, t, u1, u2, S)
                k2fix = tables.k_constants_level2(q, t, u1, u2, S)
                b2 = solve_r_block(2, pt, (1, 2))
                for (a, b), val in k1.items():
                    tup = PartitionTuple([Partition(a), Partition(b), EMPTY])
                    ok = ok and solve_r_block(1, pt, (1, 2)).k_values[tup] == val
                for (a, b), val in k2fix.items():
                    tup = PartitionTuple([Partition(a), Partition(b), EMPTY])
                    ok = ok and b2.k_values[tup] == val
            tm.result(ok)
    for n in range(1, level + 1):
        with timed(report, "yang-baxter-level%d" % n, "yang-baxter-identity") as tm:
            tm.result(all(yang_baxter_check(n, pt) for pt in pts))
    for n in range(1, level + 1):
        with timed(report, "integral-form-level%d" % n, "swap-action-and-constants") as tm:
            tm.result(all(integral_form_r_check(n, pt) == [] for pt in pts))
        with timed(report, "involution-level%d" % n, "double-swap-identity") as tm:
            tm.result(all(involution_check(n, pt) for pt in pts))
    return report


@suite("vertical")
def run_vertical(opts):
    from .vertical import (
        action_conjecture_check,
        dim_relation_check,
        higher_hamiltonian_check,
        raising_lowering_duality_check,
    )

    report = CheckReport("vertical")
    level = min(opts.level or 2, 3)
    pts = _points(opts, 2, level + 2)
    report.points = [p.describe() for p in pts]
    with timed(report, "diagram-representation", "vertical-commutator-identity") as tm:
        pt = pts[0]
        tm.result(dim_relation_check(level, pt, pt.fresh_rational("vert-u")) == [])
    with timed(report, "hamiltonian-tower", "commuting-hamiltonians") as tm:
        ok = True
        sizes = {1: min(level + 1, 3), 2: min(level, 3), 3: min(level, 2)}
        for n_comp, lv in sizes.items():
            pt = make_point(opts.seed, n_comp, lv + 2)
            ok = ok and higher_hamiltonian_check(5, lv, pt, n_comp) == []
        tm.result(ok)
    with timed(report, "box-moves", "edge-coefficient-conjecture") as tm:
        pt1 = make_point(opts.seed, 1, level + 3)
        ok = action_conjecture_check(min(level + 1, 3), pt1, 1) == []
        pt2 = make_point(opts.seed, 2, level + 3)
        ok = ok and action_conjecture_check(min(level, 2), pt2, 2) == []
        tm.result(ok)
    with timed(report, "move-duality", "raising-lowering-conjugation") as tm:
        pt2 = make_point(opts.seed, 2, level + 3)
        tm.result(raising_lowering_duality_check(1, pt2, 2) == [])
    return report


@suite("all")
def run_all(opts):
    report = CheckReport("all")
    for name, fn in SUITES.items():
        if name == "all":
            continue
        sub = fn(opts)
        report.points.extend(sub.points)
        report.entries.extend(sub.entries)
    return report


# ---------------------------------------------------------------------------
# Fixture dumps


def _dump_genmac_transition(opts, level):
    from .genmac import gen_macdonald

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
    from .rmatrix import solve_r_block

    pt3 = make_point(opts.seed, 3, level + 1)
    out = {}
    for n in range(1, level + 1):
        block = solve_r_block(n, pt3, (1, 2))
        out[str(n)] = {json.dumps(to_json(t)): str(k) for t, k in block.k_values.items()}
    return {"point": pt3.describe(), "constants": out}


def _dump_r_block(opts, level):
    from .rmatrix import solve_r_block

    pt3 = make_point(opts.seed, 3, level + 1)
    block = solve_r_block(level, pt3, (1, 2))
    return {
        "level": level,
        "point": pt3.describe(),
        "boson_matrix": [[str(c) for c in row] for row in block.boson_matrix],
        "eigen_matrix": [[str(c) for c in row] for row in block.eigen_matrix],
    }


def _dump_gen_jack(opts, level):
    from .genmac import gen_jack

    beta = Fraction(3, 7)
    uprime = [Fraction(5, 3), Fraction(2, 9)]
    tuples, rows, _ = gen_jack(level, beta, uprime)
    return {
        "level": level,
        "beta": str(beta),
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
    parser.add_argument("--suite", choices=sorted(SUITES), help="suite to run")
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
    if opts.level is not None and opts.level > 6:
        print("level cap exceeded (max 6)", file=sys.stderr)
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
    report = SUITES[opts.suite](opts)
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
