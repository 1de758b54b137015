from fractions import Fraction

import pytest

from dimfock.combinat import EMPTY, Partition, PartitionTuple, enumerate_tuples, n_stat, partitions
from dimfock.fock import BosonModule
from dimfock.phi import (
    CrystalPhi,
    crystal_four_point_pbw,
    phi_element_conjecture_check,
    phi_matrix_rank1,
    solve_vertex_phi,
)
from dimfock.nekrasov import four_point_closed


def test_rank1_solver_matches_closed_form(point1):
    ptv = point1.with_weights("phiv")
    closed = phi_matrix_rank1(point1, ptv, 2)
    solved = solve_vertex_phi(point1, ptv, 1, 2)
    assert closed.entries == solved.entries
    vac = PartitionTuple([EMPTY])
    assert closed.entries[vac][vac] == 1


def test_rank1_solver_matches_closed_form_level4(point1):
    ptv = point1.with_weights("phiv")
    assert solve_vertex_phi(point1, ptv, 1, 4).entries == phi_matrix_rank1(point1, ptv, 4).entries


def test_rank1_level1_element(point1):
    # first creation coefficient of the exponential form
    ptv = point1.with_weights("phiv")
    q, t = point1.q, point1.t
    u, v = point1.u[0], ptv.u[0]
    closed = phi_matrix_rank1(point1, ptv, 1)
    vac = PartitionTuple([EMPTY])
    one = PartitionTuple([Partition((1,))])
    assert closed.entries[vac][one] == -(v - (t / q) * u) / (1 - q)


def test_element_conjecture(point1, point2):
    assert phi_element_conjecture_check(2, point1, point1.with_weights("phiv"), 1) == []
    assert phi_element_conjecture_check(1, point2, point2.with_weights("phiv"), 2) == []


def test_element_conjecture_solved_n2_level2(point2):
    # N=2 has no closed form for Phi: this solves the exchange relations
    assert phi_element_conjecture_check(2, point2, point2.with_weights("phiv"), 2) == []


def test_element_conjecture_solved_n2_level3(point2):
    # 865 equations in 324 unknowns: the lifted solve, certified over Q
    assert phi_element_conjecture_check(3, point2, point2.with_weights("phiv"), 2) == []


def crystal_setup(pt, tag="c"):
    u = [pt.fresh_rational((tag + "u", i)) for i in range(2)]
    v = [pt.fresh_rational((tag + "v", i)) for i in range(2)]
    z = pt.fresh_rational(tag + "z")
    mod = BosonModule(pt, 2, u, 6, kind="crystal")
    return u, v, z, CrystalPhi(mod, v, z)


def test_crystal_phi_normalization(point2):
    u, v, z, phi = crystal_setup(point2)
    assert phi.vac_on_tuple(PartitionTuple([EMPTY, EMPTY])) == 1


def test_crystal_phi_column_formula(point2):
    # matrix elements against single-column insertions
    u, v, z, phi = crystal_setup(point2)
    t = point2.t
    for n in range(0, 5):
        for lam in partitions(n):
            got = phi.vac_on_tuple(PartitionTuple([EMPTY, lam]))
            want = Fraction(-1) ** lam.length
            want *= (1 / (v[0] * v[1] * z)) ** lam.size * t ** (-n_stat(lam))
            for k in range(1, lam.length + 1):
                want *= t ** (k - 1) * v[0] * v[1] - u[0] * u[1]
            assert got == want


def test_crystal_phi_bra_vanishing(point2):
    u, v, z, phi = crystal_setup(point2)
    for n in range(0, 5):
        for tup in enumerate_tuples(2, n):
            got = phi.bra_tuple_on_vacuum(tup)
            if tup[0] == EMPTY and tup[1] == Partition((1,) * n):
                assert got == (-v[0] * v[1] * u[0] * u[1] * z) ** n
            else:
                assert got == 0


def test_crystal_phi_single_modes(point2):
    # forced by the defining exchange relations; the lowering elements of
    # the two currents share the difference structure
    u, v, z, phi = crystal_setup(point2)
    for n in range(1, 4):
        base = (1 / (v[0] * v[1] * z)) ** n
        assert phi.vac_on_word(((1, -n),)) == base * (u[0] + u[1] - v[0] - v[1])
        assert phi.vac_on_word(((2, -n),)) == base * (u[0] * u[1] - v[0] * v[1])


def test_crystal_four_point_order5(point2):
    pt = point2
    u = [pt.fresh_rational(("4u", i)) for i in range(2)]
    v = [pt.fresh_rational(("4v", i)) for i in range(2)]
    w = [pt.fresh_rational(("4w", i)) for i in range(2)]
    z1, z2 = pt.fresh_rational("4z1"), pt.fresh_rational("4z2")
    closed = four_point_closed(5, pt.t, w[0] * w[1] / (v[0] * v[1]))
    pbw = crystal_four_point_pbw(5, pt, u, v, w, z1, z2)
    assert closed == pbw
