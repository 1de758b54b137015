"""Acceptance criteria, one test per criterion, every comparison exact.

Each test runs the checks of `dimfock.checks`, the same bodies the CLI
suites run, at the contractual sizes and points; nothing is sampled down.
Each prints a single summary line (visible with -s or on failure).
"""

from dimfock import checks
from dimfock.relations import check_jing
from dimfock.scalars import make_point

SEEDS = (101, 198, 295)


def _report(criterion, failures, detail=""):
    line = "[acceptance] %-28s %s %s" % (criterion, "FAIL" if failures else "PASS", detail)
    print(line)
    assert not failures, "%s; first failure %r" % (line, failures[0])


def three_points(n_weights, level_cap):
    return [make_point(s, n_weights, level_cap) for s in SEEDS]


def test_criterion_1_kac_determinant():
    failures = []
    for n_comp, n_max in {1: 4, 2: 3, 3: 2}.items():
        pts = three_points(n_comp, n_max)
        for n in range(1, n_max + 1):
            failures += checks.kac_determinant(pts, n_comp, n)
    _report("kac-determinant", failures, "(N,n) grid, 3 points each")


def test_criterion_2_whittaker_norm_identity():
    failures = checks.whittaker_norms(three_points(2, 3), 2)
    _report("pure-gauge-norm", failures, "through the eighth power, 3 points")


def test_criterion_3_crystal_norm_identity():
    pts = three_points(2, 3)
    failures = checks.crystal_whittaker(pts, 2) + checks.q_independence(pts[0], 2)
    failures += checks.symbolic_limit(make_point(SEEDS[0], 2, 2, "q"), 2)
    _report("crystal-pure-gauge", failures, "norm, constancy in 4 weights, exact limit")


def test_criterion_4_transition_tables():
    # delegated entrywise comparisons live in the unit tests; rerun them
    # here over the three acceptance points
    from tests.test_genmac import (
        test_alpha_tables,
        test_monomial_transition_level1,
        test_monomial_transition_level2,
    )

    pts = three_points(2, 4)
    test_monomial_transition_level1(pts)
    test_monomial_transition_level2(pts)
    test_alpha_tables(pts)
    _report("eigenbasis-tables", [], "levels 1-2 with expansions, 3 points")


def test_criterion_5_singular_vectors():
    staircases = [("A", [1, 1], [1, 1]), ("A", [2, 1], [1, 1]), ("B", [1, 2], [1, 1])]
    failures = checks.singular_vectors(make_point(SEEDS[0], 2, 4), 2, 3)
    failures += checks.singular_vectors(make_point(SEEDS[0], 3, 4), 3, 3, staircases)
    _report("singular-vectors", failures, "rs <= 3, two and three bosons")


def test_criterion_6_four_point():
    failures = checks.four_point(three_points(2, 3), 5)
    _report("crystal-four-point", failures, "order 5 vs inserted basis, order 4 vs tuples")


def test_criterion_7_r_matrix():
    pts = three_points(3, 4)
    failures = checks.level1_tables(pts) + checks.level2_tables(pts)
    for level in (1, 2):
        failures += checks.yang_baxter(pts, level) + checks.integral_form_swaps(pts, level)
    _report("r-matrix", failures, "fixtures, Yang-Baxter, integral form, 3 points")


def test_criterion_8_vertical_duality():
    sizes = {1: 3, 2: 3, 3: 2}
    cases = [(make_point(SEEDS[0], n_comp, lv + 2), lv, n_comp) for n_comp, lv in sizes.items()]
    failures = checks.hamiltonian_tower(cases) + checks.box_moves(cases)
    _report("vertical-duality", failures, "towers to k=5 and box moves at stated sizes")


def test_criterion_9_property_suites():
    failures = checks.macdonald_basis(three_points(2, 3), 6)
    pts = three_points(2, 8)
    failures += checks.current_relations(pts, 3)
    pt = pts[0]
    failures += checks.crystal_relations(pt, 3) + check_jing(6, pt)
    failures += checks.hl_specializations(pt, 6) + checks.hl_pairings(pt, 6)
    _report("property-suites", failures, "orthogonality, operator identities, pairings")
