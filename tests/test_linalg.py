from fractions import Fraction

import pytest

from dimfock import genmac
from dimfock.linalg import EigenvalueCollision, mat_vec, triangular_eigenvector

F = Fraction


def test_triangular_eigenvector_by_hand():
    a = [[F(2), F(0), F(0)], [F(1), F(3), F(0)], [F(4), F(5), F(7)]]
    labels = ["a", "b", "c"]
    want = {0: [1, -1, F(1, 5)], 1: [0, 1, F(-5, 4)], 2: [0, 0, 1]}
    for j, vec in want.items():
        got = triangular_eigenvector(a, j, labels)
        assert got == vec
        assert mat_vec(a, got) == [a[j][j] * x for x in got]


def test_triangular_eigenvector_collision():
    # equal diagonal entries matter only where the back-substitution divides
    a = [[F(2), F(0), F(0)], [F(1), F(2), F(0)], [F(0), F(0), F(5)]]
    with pytest.raises(EigenvalueCollision, match="'a' vs 'b'"):
        triangular_eigenvector(a, 0, ["a", "b", "c"])
    uncoupled = [[F(2), F(0), F(0)], [F(0), F(2), F(0)], [F(1), F(0), F(5)]]
    assert triangular_eigenvector(uncoupled, 0, ["a", "b", "c"]) == [1, 0, F(-1, 3)]
    assert genmac.EigenvalueCollision is EigenvalueCollision
