from fractions import Fraction

from dimfock.combinat import EMPTY, Partition, partitions
from dimfock.nekrasov import (
    conjecture_checks,
    crystal_limit_check,
    crystal_nek,
    four_point_aflt,
    four_point_closed,
    nek_factor,
    pair_groups,
    strange_factorization_check,
    z_pure,
    z_pure_crystal,
    z_pure_crystal_closed,
)
from dimfock.scalars import make_point


def test_nek_factor_examples(point2):
    q, t = point2.q, point2.t
    Q = point2.fresh_rational("Q")
    assert nek_factor(EMPTY, EMPTY, Q, point2) == 1
    one = Partition((1,))
    assert nek_factor(one, one, Q, point2) == (1 - Q * t) * (1 - Q / q)
    lam = Partition((2, 1))
    expect = Fraction(1)
    for (i, j) in lam.cells():
        a = lam.part(i) - j
        leg_empty = -i
        expect *= 1 - Q * q**a * t ** (leg_empty + 1)
    assert nek_factor(lam, EMPTY, Q, point2) == expect


def test_z_pure_low_orders(point2):
    q, t = point2.q, point2.t
    Q = point2.fresh_rational("Q")
    series = z_pure(1, Q, point2)
    assert series[0] == 1
    one = Partition((1,))
    term = Fraction(0)
    for lam, mu in [(one, EMPTY), (EMPTY, one)]:
        term += (t / q) / (
            nek_factor(lam, lam, Fraction(1), point2)
            * nek_factor(lam, mu, Q, point2)
            * nek_factor(mu, mu, Fraction(1), point2)
            * nek_factor(mu, lam, 1 / Q, point2)
        )
    assert series[1] == term


def test_crystal_nek_properties(point2):
    Q = point2.fresh_rational("Q")
    for n in range(5):
        for lam in partitions(n):
            assert crystal_nek(lam, EMPTY, Q, point2.t) == 1
    # a single box against the empty diagram leaves one linear factor
    assert crystal_nek(EMPTY, Partition((1,)), Q, point2.t) == 1 - Q


def test_crystal_z_q_independence(point2):
    t = point2.t
    vals = [z_pure_crystal(2, point2.fresh_rational(("Q", i)), t) for i in range(4)]
    closed = z_pure_crystal_closed(2, t)
    assert all(v == closed for v in vals)


def test_crystal_limit_is_exact(sym_point2):
    assert crystal_limit_check(2, sym_point2, Fraction(3, 5)) == []


def test_k_norm_conjecture(points2):
    for pt in points2:
        assert conjecture_checks(1, pt, n_comp=2) == []
    pt1 = make_point(101, 1, 3)
    assert conjecture_checks(2, pt1, n_comp=1) == []


def test_vacuum_element_is_one(point2):
    # the closed form of the vacuum's integral-form norm
    from dimfock.combinat import PartitionTuple
    from dimfock.phi import phi_element_formula

    vac = PartitionTuple([EMPTY, EMPTY])
    assert phi_element_formula(vac, vac, point2, point2, Fraction(1)) == 1


def test_four_point_order1_coefficient(point2):
    t = point2.t
    v = [point2.fresh_rational(("v", i)) for i in range(2)]
    w = [point2.fresh_rational(("w", i)) for i in range(2)]
    ratio = w[0] * w[1] / (v[0] * v[1])
    coeffs = four_point_closed(1, t, ratio)
    assert coeffs[0] == 1
    assert coeffs[1] == (1 - ratio) / (1 - 1 / t)


def test_four_point_aflt_matches_closed(points2):
    for pt in points2:
        v = [pt.fresh_rational(("v", i)) for i in range(2)]
        w = [pt.fresh_rational(("w", i)) for i in range(2)]
        ratio = w[0] * w[1] / (v[0] * v[1])
        assert four_point_closed(4, pt.t, ratio) == four_point_aflt(4, pt.t, v, w)


def test_pair_groups_example():
    lam = Partition((2, 1, 1))
    groups = pair_groups(lam)
    assert len(groups) == 6
    sizes = sorted((g[0].size, g[1].size) for g in groups)
    assert sizes == [(0, 4), (1, 3), (2, 2), (2, 2), (3, 1), (4, 0)]


def test_strange_factorization(point2):
    v = [point2.fresh_rational(("v", i)) for i in range(2)]
    w = [point2.fresh_rational(("w", i)) for i in range(2)]
    for n in range(0, 5):
        for lam in partitions(n):
            lhs, rhs = strange_factorization_check(lam, point2.t, v, w)
            assert lhs == rhs, lam
