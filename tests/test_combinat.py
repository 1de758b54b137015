import pytest

from dimfock.combinat import (
    BoxCoord,
    EMPTY,
    Partition,
    PartitionTuple,
    add_remove_sets,
    arm_leg,
    check_partition,
    enumerate_tuples,
    n_stat,
    partitions,
    star_lt,
    star_refined_lt,
    to_json,
    tuple_count,
)


def test_partition_normalization():
    assert Partition((3, 2)) == Partition((3, 2, 0))
    assert Partition(()).size == 0
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_arm_leg_examples():
    lam = Partition((8, 8, 5, 3, 3, 3, 1))
    assert arm_leg(lam, 2, 3) == (5, 4)
    assert arm_leg(lam, 3, 7) == (-2, -1)
    assert arm_leg(EMPTY, 1, 1) == (-1, -1)


def test_stats_examples():
    assert check_partition(Partition((5, 3, 3, 1))) == Partition((4, 2, 2))
    assert n_stat(EMPTY) == 0 and check_partition(EMPTY) == EMPTY
    assert n_stat(Partition((6, 4, 3, 3, 1))) == 23


def test_conjugate_involution():
    for n in range(9):
        for lam in partitions(n):
            assert lam.conjugate().conjugate() == lam


def test_n_stat_two_formulas():
    from math import comb

    for n in range(8):
        for lam in partitions(n):
            by_cells = sum(i - 1 for (i, j) in lam.cells())
            by_conjugate = sum(comb(c, 2) for c in lam.conjugate().parts)
            assert n_stat(lam) == by_cells == by_conjugate




def test_enumeration_counts_and_order():
    assert tuple_count(2, 0) == 1
    level2 = enumerate_tuples(2, 2)
    assert [to_json(t) for t in level2] == [
        [[], [2]],
        [[], [1, 1]],
        [[1], [1]],
        [[2], []],
        [[1, 1], []],
    ]
    assert tuple_count(3, 3) == 22


def test_star_ordering_example():
    lam = PartitionTuple([(1,), (2,)])
    mu = PartitionTuple([(2,), (1,)])
    assert star_lt(mu, lam) and not star_lt(lam, mu)
    assert not star_lt(lam, lam)


def test_star_refined_example():
    lam = PartitionTuple([(), (1,), (2,)])
    mu = PartitionTuple([(), (2,), (1,)])
    assert star_refined_lt(mu, lam) and not star_refined_lt(lam, mu)


@pytest.mark.parametrize("lt", [star_lt, star_refined_lt], ids=["star", "star_refined"])
def test_strict_partial_order(lt):
    for n_comp, n in [(2, 3), (3, 2), (2, 5)]:
        tuples = enumerate_tuples(n_comp, n)
        below = {a: {b for b in tuples if lt(b, a)} for a in tuples}
        for a in tuples:
            # irreflexive, antisymmetric and transitive
            assert a not in below[a]
            for b in below[a]:
                assert a not in below[b]
                assert below[b] <= below[a]


def test_refinement_implies_star():
    for n_comp, n in [(2, 4), (3, 3)]:
        for a in enumerate_tuples(n_comp, n):
            for b in enumerate_tuples(n_comp, n):
                if star_refined_lt(b, a):
                    assert star_lt(b, a)


def test_add_remove_sets():
    tup = PartitionTuple([(2, 1)])
    add, rem = add_remove_sets(tup)
    assert set(add) == {BoxCoord(1, 1, 3), BoxCoord(1, 2, 2), BoxCoord(1, 3, 1)}
    assert set(rem) == {BoxCoord(1, 1, 2), BoxCoord(1, 2, 1)}
    add, rem = add_remove_sets(PartitionTuple([(), ()]))
    assert set(add) == {BoxCoord(1, 1, 1), BoxCoord(2, 1, 1)} and rem == []


def test_addable_count_invariant():
    for n_comp, n in [(1, 6), (2, 4), (3, 3)]:
        for tup in enumerate_tuples(n_comp, n):
            add, rem = add_remove_sets(tup)
            assert len(add) == len(rem) + n_comp
