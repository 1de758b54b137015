from fractions import Fraction

from dimfock import linalg
from dimfock.combinat import EMPTY, Partition, PartitionTuple, b_factor, b_factor_neg, partitions
from dimfock.fock import BosonModule, GeneratorFamily, VirasoroFamily, pbw_gram
from dimfock.genmac import GenMacBasis
from dimfock.kacdet import (
    crystal_whittaker_norm,
    kac_det_check,
    kac_det_formula,
    kac_det_vanishes_on_line,
    rectangle_tuple,
    single_eigenvector,
    singular_vector_check,
    singular_vector_check_multi,
    staircase_tuple_A,
    staircase_tuple_B,
    whittaker_norm,
)
from dimfock.scalars import make_point


def test_kac_det_level1_rank1(point1):
    lhs, rhs = kac_det_check(1, 1, point1)
    u = point1.u[0]
    assert lhs == rhs == (1 - point1.q) * (-1 + 1 / point1.t) * u**2


def test_kac_det_rank1_closed_form(point1):
    # the closed form collapses to the b-factors and a power of the weight
    for n in (1, 2, 3):
        lhs, rhs = kac_det_check(n, 1, point1)
        assert lhs == rhs
        expect = Fraction(1)
        for lam in partitions(n):
            expect *= b_factor(lam, point1.q) * b_factor_neg(lam, 1 / point1.t)
        expect *= point1.u[0] ** (2 * sum(lam.length for lam in partitions(n)))
        assert rhs == expect


def test_kac_det_larger_sizes(point2, point3):
    # (2, 4), (3, 3) and (3, 4): Gram matrices of 20, 22 and 51 rows, where
    # the pivot search of the determinant reorders a realistic matrix
    point3_5 = make_point(101, 3, 5)
    for n, n_comp, pt in ((4, 2, point2), (3, 3, point3), (4, 3, point3_5)):
        lhs, rhs = kac_det_check(n, n_comp, pt)
        assert lhs == rhs != 0, (n_comp, n)


def unprimed_gram(level, family):
    """The Gram matrix over the unprimed PBW words (components 1 ... N), an
    oracle: each entry is <0| X(a_k, p_k) ... X(a_1, p_1) X_{-word'} |0>, the
    positive word applied letter by letter to the ket, read at the vacuum."""
    module = family.module
    tuples = module.basis(level)
    words = [[(i, p) for i in range(1, t.n_components + 1) for p in t[i - 1].parts] for t in tuples]
    kets = []
    for word in words:
        state = module.vacuum()
        for i, p in reversed(word):
            state = family.x_mode(i, -p)(state)
        kets.append(state)
    gram = []
    for word in words:
        row = []
        for ket in kets:
            state = ket
            for i, p in word:
                state = family.x_mode(i, p)(state)
            row.append(module.vacuum_coefficient(state))
        gram.append(row)
    return gram


def test_unprimed_gram_has_the_kac_determinant(point2, point3):
    # the PBW words run over the last component first; the unprimed words
    # span the same level with the same determinant
    for n, n_comp, pt in ((4, 2, point2), (3, 3, point3), (2, 4, make_point(101, 4, 3))):
        family = GeneratorFamily(BosonModule(pt, n_comp, pt.u[:n_comp], n, kind="qt"))
        gram, oracle = pbw_gram(n, family)[0], unprimed_gram(n, family)
        assert oracle != gram, (n_comp, n)
        det = linalg.determinant(oracle)
        assert det == linalg.determinant(gram) == kac_det_formula(n, n_comp, pt) != 0, (n_comp, n)


def test_kac_det_level6_two_bosons():
    # (2, 6): a Gram matrix of 65 rows, the largest Kac check in the suite
    lhs, rhs = kac_det_check(6, 2, make_point(101, 2, 7))
    assert lhs == rhs != 0


def test_kac_det_contains_weight_line(point2):
    q, t = point2.q, point2.t
    u1, u2 = point2.u
    rhs = kac_det_formula(1, 2, point2)
    factor = (u1 - q * u2 / t) * (u1 - t * u2 / q)
    assert (rhs / factor) * factor == rhs
    quotient = rhs / ((u1 * u2) ** 2 * factor)
    for lam_t in [((1,), ()), ((), (1,))]:
        pass
    assert quotient == b_factor(Partition((1,)), q) ** 2 * b_factor_neg(
        Partition((1,)), 1 / t
    ) ** 2


def test_kac_det_vanishing(point2):
    assert kac_det_vanishes_on_line(2, 2, point2, 1, 1)
    assert kac_det_vanishes_on_line(2, 2, point2, 2, 1)


def test_whittaker_level0_and_shapovalov(point2):
    k = point2.fresh_rational("whit-k")
    series = whittaker_norm(1, k, point2)
    assert series[0] == 1
    gram, basis = pbw_gram(1, VirasoroFamily(BosonModule(point2, 1, [k], 1, kind="qt")))
    assert series[1] == 1 / gram[0][0]


def test_whittaker_matches_instanton_series(points2):
    from dimfock.nekrasov import z_pure

    for pt in points2:
        k = pt.fresh_rational("whit-k")
        assert whittaker_norm(2, k, pt) == z_pure(2, k * k, pt)


def test_crystal_whittaker(point2):
    t = point2.t
    series = crystal_whittaker_norm(2, point2)
    assert series[1] == 1 / (1 - 1 / t)
    assert series[2] == 1 / ((1 - 1 / t) * (1 - 1 / t**2))
    assert crystal_whittaker_norm(2, point2, direct=True) == series


def test_rectangle_and_staircase_builders():
    assert rectangle_tuple(2, 1, 2, 3) == PartitionTuple([EMPTY, Partition((3, 3))])
    assert rectangle_tuple(3, 2, 1, 2) == PartitionTuple(
        [EMPTY, Partition((2,)), EMPTY]
    )
    assert staircase_tuple_A(3, [1, 1], [1, 1]) == PartitionTuple(
        [EMPTY, EMPTY, Partition((2,))]
    )
    assert staircase_tuple_A(3, [2, 1], [1, 1]) == PartitionTuple(
        [EMPTY, EMPTY, Partition((2, 1))]
    )
    assert staircase_tuple_B(3, [1, 2], [1, 1]) == PartitionTuple(
        [EMPTY, Partition((1,)), Partition((2,))]
    )


def test_singular_vectors_rank2(point2):
    for (r, s) in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]:
        res = singular_vector_check(point2, 2, 1, r, s)
        assert res["bad_modes"] == []
        assert res["restriction_ok"]
        assert res["tuple"] == rectangle_tuple(2, 1, r, s)


def test_singular_vectors_rank3(point3):
    for i in (1, 2):
        for (r, s) in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]:
            res = singular_vector_check(point3, 3, i, r, s)
            assert res["bad_modes"] == [], (i, r, s)
            assert res["restriction_ok"]


def test_singular_vectors_multi_constraint(point3):
    for case, rs, ss in [
        ("A", [1, 1], [1, 1]),
        ("A", [2, 1], [1, 1]),
        ("B", [1, 2], [1, 1]),
    ]:
        res = singular_vector_check_multi(point3, 3, rs, ss, case)
        assert res["bad_modes"] == [], (case, rs, ss)


def test_no_singular_vector_at_generic_weights(point2):
    # nonzero determinant certifies the absence of degenerate vectors
    lhs, rhs = kac_det_check(1, 2, point2)
    assert lhs == rhs != 0


def test_single_eigenvector_matches_the_basis_at_generic_points(point2, point3):
    # the singular-vector path solves one column of the same conjugated zero
    # mode as the full eigenbasis; at generic weights the two states agree
    for pt, n_comp, level in ((point2, 2, 3), (point3, 3, 2)):
        module = BosonModule(pt, n_comp, pt.u[:n_comp], level + 1, kind="qt")
        family = GeneratorFamily(module)
        basis = GenMacBasis(level, family)
        for tup in basis.tuples:
            assert single_eigenvector(level, family, tup) == basis.state(tup), tup
