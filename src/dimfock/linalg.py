"""Exact linear algebra over Q and over rational functions Q(s).

`determinant` works over Q only: it clears each row to integers.  The
other functions need only the Python arithmetic operators, so they also run
over univariate rational functions.

Matrices are plain lists of lists.  Fraction(0)/Fraction(1) serve as the
neutral elements; they coerce into the richer field automatically.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

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


def solve_unique(a, b):
    """Exact solution of a possibly overdetermined consistent system.

    a is a dense list of rows x n, b the matching vector.  Raises
    SingularMatrix when there are no rows, when the system is inconsistent,
    or when it does not pin every unknown, in that order of precedence.

    Sparse elimination with a Markowitz-style pivot order: rows become
    {column: value} dicts and are taken fewest nonzeros first.  Each row is
    reduced against the pivot rows found so far, oldest pivot first; what is
    left gives a new pivot, normalized to 1, in the column of that row with
    the fewest nonzeros in a.  A pivot row only has entries in columns that
    had no pivot when it was made, so the reduction never revisits a pivot.
    Once every unknown has a pivot, back-substitution gives the solution and
    each row not yet used is checked by exact substitution.
    """
    if not a:
        raise SingularMatrix("no equations")
    n = len(a[0])
    rows = [({j: x for j, x in enumerate(row) if x}, rhs) for row, rhs in zip(a, b)]
    col_count = [0] * n
    for row, _ in rows:
        for j in row:
            col_count[j] += 1
    order = sorted(range(len(rows)), key=lambda i: len(rows[i][0]))
    rank_of = {}  # pivot column -> its rank, the order in which it was found
    pivots = []  # by rank: (column, other entries of the row, rhs)
    used = 0
    while used < len(order) and len(pivots) < n:
        row, rhs = rows[order[used]]  # reduced in place; only unused rows are read again
        used += 1
        # negated ranks in ascending order: pop() takes the oldest pivot
        todo = sorted(-rank_of[j] for j in row if j in rank_of)
        while todo:
            c, prow, prhs = pivots[-todo.pop()]
            f = row.pop(c, None)
            if f is None:
                continue  # queued twice: cancelled, then brought back
            for j, v in prow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * v
                    if j in rank_of:
                        insort(todo, -rank_of[j])
                else:
                    x = x - f * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            if prhs:
                rhs = rhs - f * prhs
        if not row:
            if rhs:
                raise SingularMatrix("inconsistent system")
            continue
        c = min(row, key=lambda j: (col_count[j], j))
        inv = ONE / row.pop(c)
        rank_of[c] = len(pivots)
        pivots.append((c, {j: x * inv for j, x in row.items()}, rhs * inv))
    if len(pivots) < n:
        raise SingularMatrix("underdetermined: rank %d of %d unknowns" % (len(pivots), n))
    sol = [ZERO] * n
    for c, prow, acc in reversed(pivots):
        for j, v in prow.items():
            acc = acc - v * sol[j]
        sol[c] = acc
    for i in order[used:]:
        row, rhs = rows[i]
        if sum((x * sol[j] for j, x in row.items()), ZERO) != rhs:
            raise SingularMatrix("inconsistent system")
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
    """Exact determinant of a square matrix over Q (Fraction or int entries).

    Elimination over primitive integer rows.  Each row is cleared to
    integers and divided by its content, the gcd of its entries; what that
    takes out of the determinant goes into one running scale, a reduced
    Fraction.  Each step pivots on the nonzero entry of the trailing
    submatrix with the fewest bits; ties go to the first such entry in
    row-major order, so the run is deterministic.  A row swap and a column
    swap bring it into place, each flipping the sign.  A row with entry b
    under the pivot p becomes (p/g) row - (b/g) pivot row, g = gcd(p, b),
    and is made primitive again, so the scale gains its content over p/g.
    Only the columns right of the pivot are updated: those to its left are
    zero and are never read again.  Nothing is divided by an earlier pivot,
    so the rows stay as small as their own contents allow.
    """
    scale = ONE
    work = []
    for row in a:
        d = lcm(*(x.denominator for x in row))
        nums = [x.numerator * (d // x.denominator) for x in row]
        g = gcd(*nums)
        if not g:
            return ZERO
        work.append([x // g for x in nums])
        scale *= Fraction(g, d)
    n = len(work)
    for c in range(n):
        best = None
        for i in range(c, n):
            row = work[i]
            for j in range(c, n):
                x = row[j]
                if x:
                    size = x.bit_length()
                    if best is None or size < best[0]:
                        best = (size, i, j)
        _, i, j = best
        if i != c:
            work[c], work[i] = work[i], work[c]
            scale = -scale
        if j != c:
            for row in work[c:]:
                row[c], row[j] = row[j], row[c]
            scale = -scale
        prow = work[c]
        p = prow[c]
        scale *= p
        tail = prow[c + 1 :]
        for r in range(c + 1, n):
            row = work[r]
            b = row[c]
            if not b:
                continue
            g = gcd(p, b)
            pg, bg = p // g, b // g
            new = [pg * y - bg * z if z else pg * y for y, z in zip(row[c + 1 :], tail)]
            h = gcd(*new)
            if not h:
                return ZERO
            row[c + 1 :] = [y // h for y in new] if h != 1 else new
            scale *= Fraction(h, pg)
    return scale
