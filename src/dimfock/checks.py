"""The verification checks, one body each, and the suites that run them.

A check is a plain function of its points and sizes.  It returns the list of
its failures, each naming what failed (a point seed, a tuple, an order), and
an empty list when every exact comparison holds.  The CLI runs the checks at
the sizes of the suite table at the end of this module; the acceptance tests
run the same functions at their contractual sizes.

Every check builds its own modules and families, so the operator caches they
hold are freed when it returns.  The generalized Macdonald bases are the
exception: inside a suite run `genmac.gen_macdonald` shares each one, with
its family's caches, its state matrix and its integral forms, between the
checks, and they die with the run.  The R-matrix checks open the same memo
themselves, so called directly they still build each basis once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial

from . import genmac, kacdet, linalg, nekrasov, phi, relations, rmatrix, symfunc, vertical
from . import rmatrix_tables as tables
from .combinat import EMPTY, Partition, PartitionTuple, b_factor, dominance_le, partitions
from .fock import BosonModule, GeneratorFamily, column_matrix, coordinates, pbw_state, state_scale
from .scalars import eigenvalue_of, make_point

# ---------------------------------------------------------------------------
# Symmetric functions


def macdonald_basis(pts, level):
    """Macdonald P_lambda is dominance-triangular in m and (q,t)-orthogonal."""
    failures = []
    for pt in pts:
        for n in range(1, level + 1):
            ps = {lam: symfunc.macdonald_p(lam, pt.q, pt.t) for lam in partitions(n)}
            for lam, f in ps.items():
                for mu, c in symfunc.convert(f, "m").coeffs.items():
                    if c and not dominance_le(mu, lam):
                        failures.append(("triangularity", pt.seed, lam, mu))
            for lam in ps:
                for mu in ps:
                    if lam != mu and symfunc.inner_prod(ps[lam], ps[mu], pt.q, pt.t):
                        failures.append(("orthogonality", pt.seed, lam, mu))
    return failures


def hall_littlewood_duality(pt, level):
    """Q_lambda = b_lambda P_lambda, and <P_lambda, P_lambda> = 1 / b_lambda at q = 0."""
    failures = []
    for n in range(1, level + 1):
        for lam in partitions(n):
            p_lam, q_lam = symfunc.hall_littlewood(lam, pt.t)
            b = b_factor(lam, pt.t)
            norm = symfunc.inner_prod(p_lam, p_lam, Fraction(0), pt.t)
            if q_lam != p_lam.scale(b) or norm * b != 1:
                failures.append(lam)
    return failures


def hl_specializations(pt, level):
    """Hall-Littlewood principal specializations against their product formula."""
    r = pt.fresh_rational("spec-r")
    return [
        lam
        for n in range(level + 1)
        for lam in partitions(n)
        if symfunc.principal_specialization(lam, r, pt.t)
        != symfunc.principal_specialization_closed(lam, r, pt.t)
    ]


def hl_pairings(pt, level):
    """The Hall-Littlewood pairing identities with negated arguments."""
    return [
        lam
        for n in range(level + 1)
        for lam in partitions(n)
        if not symfunc.hl_pairing_identities(lam, pt.t)["ok"]
    ]


# ---------------------------------------------------------------------------
# Fock-module relations


def mode_oracle(pt, level, k_max, cap):
    """Modes x_k^(i), |k| <= k_max, on two-boson states to `level` against
    relations.naive_mode_apply, in a module cut at level `cap`."""
    mod = BosonModule(pt, 2, pt.u, cap, kind="qt")
    fam = GeneratorFamily(mod)
    failures = []
    for lvl in range(level + 1):
        for tup in mod.basis(lvl):
            st = {tup: Fraction(1)}
            for i in (1, 2):
                for k in range(-k_max, k_max + 1):
                    naive = {}
                    for term in fam.x_terms(i):
                        for key, v in relations.naive_mode_apply(term, k, st, mod).items():
                            naive[key] = naive.get(key, Fraction(0)) + v
                    naive = {key: v for key, v in naive.items() if v}
                    if fam.x_mode(i, k)(st) != naive:
                        failures.append((i, k, tup))
    return failures


def current_relations(pts, level):
    return [f for pt in pts for f in relations.check_x_relations_n2(level, pt)]


def _crystal_weights(pt):
    return [pt.fresh_rational(("cu", i)) for i in range(2)]


def crystal_relations(pt, level):
    return relations.check_crystal_x_relations(level, pt, _crystal_weights(pt))


def crystal_pbw_hl(pt, level):
    """Crystal Virasoro PBW states, their Hall-Littlewood form and the Shapovalov form."""
    u = _crystal_weights(pt)
    return (
        relations.check_crystal_virasoro_pbw(level, pt, pt.fresh_rational("k"))
        + relations.check_crystal_pbw_hl(level, pt, u)
        + relations.check_crystal_shapovalov(level, pt, u)
    )


# ---------------------------------------------------------------------------
# Generalized Macdonald bases


def eigenvectors(pts, level, n_comp):
    """Each basis state is an eigenvector of x_0^(1) with its tuple's eigenvalue."""
    failures = []
    for pt in pts:
        for n in range(level + 1):
            basis = genmac.gen_macdonald(n, pt, n_comp=n_comp)
            for tup in basis.tuples:
                st = basis.state(tup)
                if basis.family.x_mode(1, 0)(st) != state_scale(st, eigenvalue_of(tup, pt)):
                    failures.append((pt.seed, tup))
    return failures


def dual_orthogonality(pt, level, n_comp):
    """<dual_lambda | P_mu> is nonzero exactly when lambda = mu."""
    failures = []
    for n in range(level + 1):
        basis = genmac.gen_macdonald(n, pt, n_comp=n_comp)
        for lam in basis.tuples:
            bra = basis.dual_bra(lam)
            for mu in basis.tuples:
                if (lam == mu) == (basis.module.pair(bra, basis.state(mu)) == 0):
                    failures.append((lam, mu))
    return failures


def integral_form_normalization(pt, level, n_comp):
    """Every integral form K is the combination of the primed PBW kets with
    its alpha row as coefficients, 1 on the designated PBW monomial.  The
    kets are a basis (IntegralForms inverts their matrix), so alpha is the
    expansion of K over them."""
    failures = []
    for n in range(level + 1):
        forms = genmac.integral_forms(genmac.gen_macdonald(n, pt, n_comp=n_comp))
        tuples, family = forms.tuples, forms.basis.family
        designated = genmac._designated_index(tuples, n)
        kets = column_matrix([pbw_state(t, family, prime=True) for t in tuples], tuples)
        for tup in tuples:
            alpha = forms.alpha[tup]
            k_state = coordinates(forms.k_state(tup), tuples)
            if linalg.mat_vec(kets, alpha) != k_state or alpha[designated] != 1:
                failures.append(tup)
    return failures


def crystal_limit(spt, level):
    """The poles met by the exact q -> 0 limit of the basis at a symbolic-q point."""
    table, dual, poles = genmac.gen_hall_littlewood(level, spt)
    return poles


def jack_tables(level, n_comp):
    """Generalized Jack eigenfunctions are unitriangular at fixed beta and weights."""
    uprime = ([Fraction(5, 3), Fraction(2, 9)] + [Fraction(7, 11)] * n_comp)[:n_comp]
    tuples, rows, eig = genmac.gen_jack(level, Fraction(3, 7), uprime)
    return [tup for i, tup in enumerate(tuples) if rows[i][i] != 1]


# ---------------------------------------------------------------------------
# Kac determinants and singular vectors


def kac_determinant(pts, n_comp, n):
    """The level-n PBW Gram determinant against the closed product formula."""
    failures = []
    for pt in pts:
        det, formula = kacdet.kac_det_check(n, n_comp, pt)
        if det != formula:
            failures.append((pt.seed, n_comp, n))
    return failures


def determinant_vanishing(pt):
    """The level-2 Kac determinant of two bosons vanishes on the (1, 1) weight line."""
    return [] if kacdet.kac_det_vanishes_on_line(2, 2, pt, 1, 1) else [(2, 2, 1, 1)]


def singular_vectors(pt, n_comp, rs_max, staircases=()):
    """Singular vectors at resonant weights are annihilated by the raising modes.

    The rectangles (r, s), rs <= rs_max, ordered by rs and then r, sit in each
    component i < n_comp and must also restrict to the ordinary Macdonald
    function.  Each staircase (case, rs, ss) is a multiple resonance of type A
    or B.
    """
    pairs = itertools.product(range(1, rs_max + 1), repeat=2)
    rectangles = sorted((r * s, r, s) for r, s in pairs if r * s <= rs_max)
    failures = []
    for i in range(1, n_comp):
        for _, r, s in rectangles:
            res = kacdet.singular_vector_check(pt, n_comp, i, r, s)
            if res["bad_modes"] or not res["restriction_ok"]:
                failures.append((n_comp, i, r, s, res["bad_modes"]))
    for case, rs, ss in staircases:
        res = kacdet.singular_vector_check_multi(pt, n_comp, rs, ss, case)
        if res["bad_modes"]:
            failures.append((n_comp, case, rs, ss, res["bad_modes"]))
    return failures


# ---------------------------------------------------------------------------
# Norms and conformal blocks against instanton sums


def _whittaker_k(order, pt):
    """(k, instanton series at Q = k^2) for the first k drawn off the (q, t) lattice.

    Tags "whit-k", ("whit-k", 1), ... are tried in turn; a k whose Q makes an
    instanton denominator vanish is skipped.
    """
    for attempt in itertools.count():
        k = pt.fresh_rational(("whit-k", attempt) if attempt else "whit-k")
        try:
            return k, nekrasov.z_pure(order, k * k, pt)
        except nekrasov.NonGenericPoint:
            pass


def whittaker_norms(pts, order):
    """The Whittaker-vector norm equals the pure-gauge instanton series."""
    failures = []
    for pt in pts:
        k, instanton = _whittaker_k(order, pt)
        if kacdet.whittaker_norm(order, k, pt) != instanton:
            failures.append((pt.seed, k))
    return failures


def integral_form_norms(pts, pt1):
    """Integral-form norms: level 1 of two bosons at pts, level 2 of one boson at pt1."""
    failures = [f for pt in pts for f in nekrasov.conjecture_checks(1, pt, n_comp=2)]
    return failures + nekrasov.conjecture_checks(2, pt1, n_comp=1)


def vertex_elements(pt, pt1):
    """Vertex-operator matrix elements: level 1 of two bosons, level 2 of one."""
    failures = phi.phi_element_conjecture_check(1, pt, pt.with_weights("phiv"), 2)
    return failures + phi.phi_element_conjecture_check(2, pt1, pt1.with_weights("phiv"), 1)


def crystal_whittaker(pts, order):
    """Crystal Whittaker norms, by both routes, against the closed crystal series."""
    failures = []
    for pt in pts:
        closed = nekrasov.z_pure_crystal_closed(order, pt.t)
        for direct in (False, True):
            if kacdet.crystal_whittaker_norm(order, pt, direct=direct) != closed:
                failures.append((pt.seed, "direct" if direct else "pbw"))
    return failures


def q_independence(pt, order):
    """The crystal series takes one value at four instanton weights Q."""
    vals = [nekrasov.z_pure_crystal(order, pt.fresh_rational(("Q", i)), pt.t) for i in range(4)]
    return [i for i, v in enumerate(vals) if v != vals[0]]


def symbolic_limit(spt, order):
    """The generic series at a symbolic-q point tends to the crystal series."""
    return nekrasov.crystal_limit_check(order, spt, Fraction(3, 5))


def four_point(pts, order):
    """The crystal four-point function in closed form against the inserted PBW
    basis to `order`, and against the tuple sums to order min(order, 4)."""
    failures = []
    for pt in pts:
        u, v, w = ([pt.fresh_rational((tag, i)) for i in range(2)] for tag in ("4u", "4v", "4w"))
        z1, z2 = pt.fresh_rational("4z1"), pt.fresh_rational("4z2")
        closed = nekrasov.four_point_closed(order, pt.t, w[0] * w[1] / (v[0] * v[1]))
        if closed != phi.crystal_four_point_pbw(order, pt, u, v, w, z1, z2):
            failures.append((pt.seed, "pbw"))
        aflt = nekrasov.four_point_aflt(min(order, 4), pt.t, v, w)
        if closed[: len(aflt)] != aflt:
            failures.append((pt.seed, "tuple-sums"))
    return failures


def grouped_factorization(pt):
    """The tuple-group factorization for every partition of size at most 3."""
    v, w = ([pt.fresh_rational((tag, i)) for i in range(2)] for tag in ("4v", "4w"))
    failures = []
    for n in range(4):
        for lam in partitions(n):
            lhs, rhs = nekrasov.strange_factorization_check(lam, pt.t, v, w)
            if lhs != rhs:
                failures.append(lam)
    return failures


# ---------------------------------------------------------------------------
# R-matrices


def level1_tables(pts):
    """Level-1 R-matrix blocks and the N = 3 transition matrix against the stored tables."""
    failures = []
    for pt in pts:
        args = (pt.q, pt.t, *pt.u, pt.p_half())
        b12 = rmatrix.solve_r_block(1, pt, (1, 2))
        comparisons = [
            (b12.boson_matrix, tables.boson_block_level1_12),
            (b12.eigen_matrix, tables.eigen_block_level1_12),
            (rmatrix.solve_r_block(1, pt, (2, 3)).boson_matrix, tables.boson_block_level1_23),
            (rmatrix.solve_r_block(1, pt, (1, 3)).boson_matrix, tables.boson_block_level1_13),
            (genmac.gen_macdonald(1, pt, n_comp=3).coeff, tables.transition_level1_n3),
        ]
        failures += [(pt.seed, table.__name__) for got, table in comparisons if got != table(*args)]
    return failures


def level2_tables(pts):
    """The level-2 transition matrix, two-boson block and K constants against the tables."""
    failures = []
    for pt in pts:
        q, t, S = pt.q, pt.t, pt.p_half()
        u1, u2, u3 = pt.u
        A2 = genmac.gen_macdonald(2, pt, n_comp=3).coeff
        block2 = rmatrix.two_boson_block(2, pt, rmatrix.k_from_spectator(2, pt))
        comparisons = [
            ("transition", A2, tables.transition_level2_n3(q, t, u1, u2, u3, S)),
            ("eigen-block", block2.eigen_matrix, tables.eigen_block_level2_n2(q, t, u1 / u2, S)),
            ("boson-block", block2.boson_matrix, tables.boson_block_level2_n2(q, t, u1 / u2, S)),
        ]
        failures += [(pt.seed, name) for name, got, want in comparisons if got != want]
        for n, constants in ((1, tables.k_constants_level1), (2, tables.k_constants_level2)):
            k_values = rmatrix.solve_r_block(n, pt, (1, 2)).k_values
            for (a, b), val in constants(q, t, u1, u2, S).items():
                tup = PartitionTuple([Partition(a), Partition(b), EMPTY])
                if k_values[tup] != val:
                    failures.append((pt.seed, constants.__name__, tup))
    return failures


def yang_baxter(pts, level):
    return [(pt.seed, level) for pt in pts if not rmatrix.yang_baxter_check(level, pt)]


def integral_form_swaps(pts, level):
    return [f for pt in pts for f in rmatrix.integral_form_r_check(level, pt)]


def involutions(pts, level):
    return [(pt.seed, level) for pt in pts if not rmatrix.involution_check(level, pt)]


# ---------------------------------------------------------------------------
# The vertical representation; a case is (point, level, N)


def hamiltonian_tower(cases):
    """Commuting higher Hamiltonians to k = 5 and their eigenvalues."""
    return [f for pt, lv, n in cases for f in vertical.higher_hamiltonian_check(5, lv, pt, n)]


def box_moves(cases):
    """The box-move coefficient conjecture on renormalized bases."""
    return [f for pt, lv, n in cases for f in vertical.action_conjecture_check(lv, pt, n)]


# ---------------------------------------------------------------------------
# Suites: options -> (reported points, ordered (id, anchor, call) entries)


def _points(opts, n_weights, level_max):
    return [make_point(opts.seed + 97 * i, n_weights, level_max) for i in range(opts.points)]


def _level(opts, default, cap):
    return min(default if opts.level is None else opts.level, cap)


def symfunc_suite(opts):
    level = _level(opts, 6, 6)
    pts = _points(opts, 1, 3)
    pt = pts[0]
    return pts, [
        ("orthogonality-triangularity", "macdonald-basis", partial(macdonald_basis, pts, level)),
        ("hall-littlewood-duality", "hl-norms", partial(hall_littlewood_duality, pt, level)),
        ("principal-specialization", "hl-specialization", partial(hl_specializations, pt, level)),
        ("negated-pairings", "hl-pairing-identities", partial(hl_pairings, pt, level)),
    ]


def fock_relations_suite(opts):
    level = _level(opts, 3, 3)
    pts = _points(opts, 2, level + 5)
    pt, low = pts[0], min(level, 2)
    return pts, [
        ("mode-oracle", "vertex-mode-extraction", partial(mode_oracle, pt, level, 1, level + 2)),
        ("current-relations", "two-boson-exchange-relations",
         partial(current_relations, pts, level)),
        ("virasoro-relation", "deformed-virasoro-exchange",
         lambda: relations.check_virasoro_relation(low, pt, pt.fresh_rational("k"))),
        ("crystal-relations", "crystal-exchange-relations", partial(crystal_relations, pt, low)),
        ("crystal-virasoro", "scaled-virasoro-exchange",
         lambda: relations.check_crystal_virasoro_relations(low, pt, pt.fresh_rational("k"))),
        ("jing-operators", "hl-from-jing-modes",
         partial(relations.check_jing, min(level + 1, 4), pt)),
        ("crystal-pbw-hl", "crystal-pbw-hall-littlewood", partial(crystal_pbw_hl, pt, level)),
    ]


def genmac_suite(opts):
    level = _level(opts, 2, 3)
    n_comp = opts.n_comp or 2
    pts = _points(opts, n_comp, level + 1)
    pt, spt = pts[0], make_point(opts.seed, 2, level + 1, "q")
    return pts, [
        ("eigenvectors", "zero-mode-diagonalization", partial(eigenvectors, pts, level, n_comp)),
        ("dual-orthogonality", "eigenbasis-bra-pairing",
         partial(dual_orthogonality, pt, level, n_comp)),
        ("integral-forms", "pbw-expansion-normalization",
         partial(integral_form_normalization, pt, level, n_comp)),
        ("crystal-limit", "q-to-zero-transition", partial(crystal_limit, spt, min(level, 3))),
        ("jack-tables", "degenerate-limit-eigenfunctions",
         partial(jack_tables, min(level, 2), n_comp)),
        ("ordering-support", "refined-ordering-vanishing",
         partial(genmac.ordering_vanishing_check, min(level, 3), pt, n_comp=n_comp)),
    ]


def kacdet_suite(opts):
    sizes = {1: 6, 2: 5, 3: 4}
    if opts.level is not None:
        sizes = {n_comp: min(n_max, opts.level) for n_comp, n_max in sizes.items()}
    reported, entries = [], []
    for n_comp, n_max in sizes.items():
        pts = _points(opts, n_comp, n_max + 1)
        reported.append(pts[0])
        entries += [
            ("kac-det-N%d-n%d" % (n_comp, n), "kac-determinant-formula",
             partial(kac_determinant, pts, n_comp, n))
            for n in range(1, n_max + 1)
        ]
    pt2, pt3 = make_point(opts.seed, 2, 4), make_point(opts.seed, 3, 4)
    staircases = [("A", [1, 1], [1, 1]), ("B", [1, 2], [1, 1])]
    return reported, entries + [
        ("determinant-vanishing", "weight-line-degeneration", partial(determinant_vanishing, pt2)),
        ("singular-vectors-N2", "annihilation-at-resonance", partial(singular_vectors, pt2, 2, 3)),
        ("singular-vectors-N3", "annihilation-at-resonance",
         partial(singular_vectors, pt3, 3, 2, staircases)),
    ]


def agt_generic_suite(opts):
    order = _level(opts, 2, 2)
    pts = _points(opts, 2, 3)
    pt1 = make_point(opts.seed, 1, 3)
    return pts, [
        ("whittaker-vs-instanton", "pure-gauge-norm-identity",
         partial(whittaker_norms, pts, order)),
        ("integral-form-norms", "nekrasov-norm-conjecture", partial(integral_form_norms, pts, pt1)),
        ("vertex-elements", "nekrasov-element-conjecture", partial(vertex_elements, pts[0], pt1)),
    ]


def agt_crystal_suite(opts):
    order = _level(opts, 2, 3)
    pts = _points(opts, 2, 3)
    pt, spt = pts[0], make_point(opts.seed, 2, 2, "q")
    four_point_order = min(order + 1, 3) if opts.level is None else min(opts.level + 1, 5)
    return pts, [
        ("crystal-whittaker", "crystal-pure-gauge-identity",
         partial(crystal_whittaker, pts, order)),
        ("q-independence", "crystal-series-constancy", partial(q_independence, pt, order)),
        ("symbolic-limit", "instanton-crystal-limit", partial(symbolic_limit, spt, order)),
        ("four-point", "vertex-four-point-sums", partial(four_point, [pt], four_point_order)),
        ("grouped-factorization", "tuple-group-factorization", partial(grouped_factorization, pt)),
    ]


def rmatrix_suite(opts):
    level = _level(opts, 3, 3)
    pts = _points(opts, 3, 4)
    levels = range(1, level + 1)
    entries = [("level1-tables", "level-one-block-fixtures", partial(level1_tables, pts))]
    if level >= 2:
        entries.append(("level2-tables", "level-two-block-fixtures", partial(level2_tables, pts)))
    entries += [
        ("yang-baxter-level%d" % n, "yang-baxter-identity", partial(yang_baxter, pts, n))
        for n in levels
    ]
    for n in levels:
        entries += [
            ("integral-form-level%d" % n, "swap-action-and-constants",
             partial(integral_form_swaps, pts, n)),
            ("involution-level%d" % n, "double-swap-identity", partial(involutions, pts, n)),
        ]
    return pts, entries


def vertical_suite(opts):
    level = _level(opts, 2, 3)
    pts = _points(opts, 2, level + 2)
    tower = {1: min(level + 1, 3), 2: min(level, 3), 3: min(level, 2)}
    tower_cases = [(make_point(opts.seed, n, lv + 2), lv, n) for n, lv in tower.items()]
    pt1, pt2 = make_point(opts.seed, 1, level + 3), make_point(opts.seed, 2, level + 3)
    move_cases = [(pt1, min(level + 1, 3), 1), (pt2, min(level, 2), 2)]
    return pts, [
        ("diagram-representation", "vertical-commutator-identity",
         lambda: vertical.dim_relation_check(level, pts[0], pts[0].fresh_rational("vert-u"))),
        ("hamiltonian-tower", "commuting-hamiltonians", partial(hamiltonian_tower, tower_cases)),
        ("box-moves", "edge-coefficient-conjecture", partial(box_moves, move_cases)),
        ("move-duality", "raising-lowering-conjugation",
         partial(vertical.raising_lowering_duality_check, 1, pt2, 2)),
    ]


# Suite name -> table builder, in the order `--suite all` runs them.
SUITES = {
    "symfunc": symfunc_suite,
    "fock-relations": fock_relations_suite,
    "genmac": genmac_suite,
    "kacdet": kacdet_suite,
    "agt-generic": agt_generic_suite,
    "agt-crystal": agt_crystal_suite,
    "rmatrix": rmatrix_suite,
    "vertical": vertical_suite,
}

# What a passing entry reports in `details`; every other passing entry reports "".
PASS_DETAILS = {"crystal-limit": "poles: 0"}
