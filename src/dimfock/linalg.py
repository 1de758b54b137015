"""Exact dense linear algebra over any field whose elements support the
Python arithmetic operators (Fraction or univariate rational functions).

Matrices are plain lists of lists.  Fraction(0)/Fraction(1) serve as the
neutral elements; they coerce into the richer field automatically.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class SingularMatrix(ArithmeticError):
    pass


class EigenvalueCollision(ArithmeticError):
    pass


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    out = [[ZERO] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for l in range(k):
            x = ai[l]
            if not x:
                continue
            bl = b[l]
            row = out[i]
            for j in range(m):
                if bl[j]:
                    row[j] = row[j] + x * bl[j]
    return out

def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v) if x and y), ZERO) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def triangular_eigenvector(a, j, labels):
    """Eigenvector of a lower-triangular a for its diagonal entry a[j][j].

    The vector has a 1 in slot j and zeros above it; the slots below follow
    by back-substitution, each divided by a difference of diagonal entries.
    A zero difference that a nonzero numerator needs raises
    EigenvalueCollision naming labels[j] and the colliding label.
    """
    n = len(a)
    vec = [ZERO] * n
    vec[j] = ONE
    for i in range(j + 1, n):
        acc = ZERO
        for k in range(j, i):
            if a[i][k] and vec[k]:
                acc = acc + a[i][k] * vec[k]
        if acc:
            denom = a[j][j] - a[i][i]
            if not denom:
                raise EigenvalueCollision("%r vs %r" % (labels[j], labels[i]))
            vec[i] = acc / denom
    return vec


def gauss_eliminate(a, rhs):
    """Row-reduce [a | rhs] in place; returns (pivot column list, rank)."""
    rows, cols = len(a), len(a[0]) if a else 0
    piv_cols = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        rhs[r], rhs[pivot] = rhs[pivot], rhs[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        rhs[r] = [x * inv for x in rhs[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                rhs[i] = [x - f * y for x, y in zip(rhs[i], rhs[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return piv_cols, r


def solve(a, b):
    """Solve a @ x = b for a square nonsingular a; b is a vector."""
    n = len(a)
    work = [row[:] for row in a]
    rhs = [[x] for x in b]
    piv, rank = gauss_eliminate(work, rhs)
    if rank < n:
        raise SingularMatrix("rank %d < %d" % (rank, n))
    return [rhs[piv.index(c)][0] if c in piv else ZERO for c in range(n)]


def solve_unique(a, b):
    """Least-structured solve of a possibly overdetermined consistent system.

    a is rows x n, b the matching vector.  Raises SingularMatrix when the
    system is inconsistent or does not pin every unknown.
    """
    if not a:
        raise SingularMatrix("no equations")
    n = len(a[0])
    work = [row[:] for row in a]
    rhs = [[x] for x in b]
    piv, rank = gauss_eliminate(work, rhs)
    for i in range(rank, len(work)):
        if rhs[i][0]:
            raise SingularMatrix("inconsistent system")
    if rank < n:
        raise SingularMatrix("underdetermined: rank %d of %d unknowns" % (rank, n))
    sol = [ZERO] * n
    for r, c in enumerate(piv):
        sol[c] = rhs[r][0]
    return sol


def inverse(a):
    n = len(a)
    work = [row[:] for row in a]
    rhs = identity(n)
    piv, rank = gauss_eliminate(work, rhs)
    if rank < n:
        raise SingularMatrix("matrix not invertible")
    return rhs


def determinant(a):
    """Exact determinant by fraction-free-style elimination over the field."""
    n = len(a)
    work = [row[:] for row in a]
    det = ONE
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            return ZERO * det
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = -det
        det = det * work[c][c]
        inv = ONE / work[c][c]
        for i in range(c + 1, n):
            if work[i][c]:
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return det
