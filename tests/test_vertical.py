from dimfock.combinat import EMPTY, Partition, enumerate_tuples, partitions
from dimfock.genmac import GenMacBasis
from dimfock.scalars import eigenvalue_of, make_point
from dimfock.vertical import (
    action_conjecture_check,
    dim_relation_check,
    edge_factor_plus,
    edge_series,
    higher_eigenvalues,
    higher_hamiltonian_check,
    psi_modes,
    raising_lowering_duality_check,
    vertical_action,
    x_mode,
)


def test_edge_factors(point2):
    t = point2.t
    assert edge_factor_plus(EMPTY, 1, point2) == 1 - t
    # adding in a blocked row carries a vanishing factor
    assert edge_factor_plus(Partition((1, 1)), 2, point2) == 0


def test_edge_series_empty(point2):
    q, t = point2.q, point2.t
    # (1 - (t/q) z) / (1 - z)
    assert edge_series(EMPTY, +1, 5, point2) == [1] + [1 - t / q] * 4
    for n in range(4):
        for lam in partitions(n):
            assert edge_series(lam, +1, 3, point2)[0] == 1
            assert edge_series(lam, -1, 3, point2)[0] == 1


def test_vertical_action_examples(point2):
    u = point2.fresh_rational("vert-u")
    acts = vertical_action("x+", EMPTY, point2, u)
    assert acts == [(Partition((1,)), 1 - point2.t, u)]
    assert x_mode("x+", 0, EMPTY, point2, u) == {Partition((1,)): 1 - point2.t}
    # constant terms of the diagonal currents
    assert psi_modes(+1, EMPTY, point2, u, 0) == [point2.p_half()]
    assert psi_modes(-1, EMPTY, point2, u, 0) == [point2.p_half(-1)]


def test_vertical_defining_relation(point2):
    u = point2.fresh_rational("vert-u")
    assert dim_relation_check(3, point2, u) == []


def test_first_hamiltonian_eigenvalue(point1, point2, point3):
    for pt, n_comp in [(point1, 1), (point2, 2), (point3, 3)]:
        for n in range(0, 3):
            for tup in enumerate_tuples(n_comp, n):
                assert higher_eigenvalues(1, tup, pt) == [eigenvalue_of(tup, pt)]


def test_hamiltonian_tower_checked_sizes():
    sizes = {1: 3, 2: 3, 3: 2}
    for n_comp, level in sizes.items():
        pt = make_point(101, n_comp, level + 2)
        assert higher_hamiltonian_check(5, level, pt, n_comp) == []


def test_box_moves_checked_sizes():
    pt1 = make_point(101, 1, 5)
    assert action_conjecture_check(3, pt1, 1) == []
    pt2 = make_point(101, 2, 5)
    assert action_conjecture_check(3, pt2, 2) == []
    pt3 = make_point(101, 3, 4)
    assert action_conjecture_check(2, pt3, 3) == []


def test_raising_lowering_duality(monkeypatch):
    """Both levels pass, and each builds its four eigenbases once: levels
    level and level - 1 at the point and at the dual point."""
    builds = []
    build = GenMacBasis.__init__

    def counting(self, *args, **kwargs):
        builds.append(args[0])
        build(self, *args, **kwargs)

    monkeypatch.setattr(GenMacBasis, "__init__", counting)
    pt2 = make_point(101, 2, 5)
    for level in (1, 2):
        builds.clear()
        assert raising_lowering_duality_check(level, pt2, 2) == []
        assert sorted(builds) == [level - 1, level - 1, level, level]
