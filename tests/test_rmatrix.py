from fractions import Fraction

import dimfock.rmatrix_tables as tables
from dimfock import genmac
from dimfock.combinat import Partition, PartitionTuple
from dimfock.genmac import gen_macdonald
from dimfock.scalars import make_point
from dimfock.rmatrix import (
    integral_form_r_check,
    involution_check,
    k_constant_formula,
    k_from_spectator,
    solve_r_block,
    two_boson_block,
    yang_baxter_check,
)


def tup3(a, b, c):
    return PartitionTuple([Partition(a), Partition(b), Partition(c)])


def test_level0_block(point3):
    block = solve_r_block(0, point3, (1, 2))
    assert block.boson_matrix == [[Fraction(1)]]


def test_level1_fixtures(points3):
    for pt in points3:
        q, t = pt.q, pt.t
        u1, u2, u3 = pt.u
        S = pt.p_half()
        b12 = solve_r_block(1, pt, (1, 2))
        assert b12.boson_matrix == tables.boson_block_level1_12(q, t, u1, u2, u3, S)
        assert b12.eigen_matrix == tables.eigen_block_level1_12(q, t, u1, u2, u3, S)
        assert b12.k_values[tup3((), (), (1,))] == 1
        k1 = tables.k_constants_level1(q, t, u1, u2, S)
        assert b12.k_values[tup3((), (1,), ())] == k1[((), (1,))]
        assert b12.k_values[tup3((1,), (), ())] == k1[((1,), ())]
        assert solve_r_block(1, pt, (2, 3)).boson_matrix == tables.boson_block_level1_23(
            q, t, u1, u2, u3, S
        )
        assert solve_r_block(1, pt, (1, 3)).boson_matrix == tables.boson_block_level1_13(
            q, t, u1, u2, u3, S
        )
        basis1 = gen_macdonald(1, pt, n_comp=3)
        A = [[basis1.transition(l, m) for m in basis1.tuples] for l in basis1.tuples]
        assert A == tables.transition_level1_n3(q, t, u1, u2, u3, S)


def test_level1_two_boson_corner(points3):
    for pt in points3:
        q, t = pt.q, pt.t
        u1, u2, _ = pt.u
        S = pt.p_half()
        ks = k_from_spectator(1, pt)
        block = two_boson_block(1, pt, ks)
        assert block.eigen_matrix == tables.eigen_block_level1_n2(q, t, u1, u2, S)


def test_level2_fixtures(points3):
    for pt in points3:
        q, t = pt.q, pt.t
        u1, u2, u3 = pt.u
        S = pt.p_half()
        basis2 = gen_macdonald(2, pt, n_comp=3)
        A2 = [[basis2.transition(l, m) for m in basis2.tuples] for l in basis2.tuples]
        assert A2 == tables.transition_level2_n3(q, t, u1, u2, u3, S)
        b2 = solve_r_block(2, pt, (1, 2))
        for (a, b), val in tables.k_constants_level2(q, t, u1, u2, S).items():
            assert b2.k_values[tup3(a, b, ())] == val
        ks2 = k_from_spectator(2, pt)
        block2 = two_boson_block(2, pt, ks2)
        Q = u1 / u2
        assert block2.eigen_matrix == tables.eigen_block_level2_n2(q, t, Q, S)
        assert block2.boson_matrix == tables.boson_block_level2_n2(q, t, Q, S)


def test_yang_baxter(points3):
    for pt in points3:
        assert yang_baxter_check(1, pt)
        assert yang_baxter_check(2, pt)


def test_spectator_constants_independent_of_third_weight(point3):
    ks_a = k_from_spectator(1, point3)
    other = point3.with_u([point3.u[0], point3.u[1], point3.fresh_rational("u3-alt")])
    ks_b = k_from_spectator(1, other)
    assert ks_a == ks_b


def test_integral_form_statements(points3):
    for pt in points3:
        assert integral_form_r_check(1, pt) == []
        assert integral_form_r_check(2, pt) == []


def test_k_closed_form(point3):
    ks1 = k_from_spectator(1, point3)
    ks2 = k_from_spectator(2, point3)
    for ks in (ks1, ks2):
        for tup, val in ks.items():
            assert val == k_constant_formula(tup[0], tup[1], point3)


def test_involution(points3):
    for pt in points3:
        assert involution_check(1, pt)
        assert involution_check(2, pt)


def test_level3_yang_baxter_and_involution():
    pt = make_point(7, 3, 4)
    assert yang_baxter_check(3, pt)
    assert involution_check(3, pt)


def test_direct_check_builds_each_basis_once(monkeypatch, point3):
    # the entry points share one memo: the three blocks read six bases
    built = []
    init = genmac.GenMacBasis.__init__

    def recording(self, level, family):
        init(self, level, family)
        built.append((level, self.module.n_bosons, tuple(self.module.weights)))

    monkeypatch.setattr(genmac.GenMacBasis, "__init__", recording)
    assert yang_baxter_check(2, point3)
    assert len(set(built)) == len(built) == 6
    assert genmac._shared is None
