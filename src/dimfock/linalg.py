"""Exact linear algebra over Q and over rational functions Q(s).

`mat_mul` and `mat_vec` clear each row and column once (`scalars.cleared`)
and read each entry out as one reduced quotient, over Q and over Q(s).
`determinant`, `inverse` and `solve_unique` work over Q only, on integer
rows: no caller needs them over Q(s).  `solve_unique` runs one sparse
elimination, `_factor`, modulo the prime 2^127 - 1 for p-adic lifting from
LIFT_MIN unknowns on, or over Q, and certifies its solution by exact
substitution into every row.
`triangular_eigenvector` needs only the Python arithmetic operators and a
truth test, so it also runs over the truncated Laurent series of
`scalars.Laurent`, which the crystal limit solves over.

Matrices are plain lists of lists.  Fraction(0)/Fraction(1) serve as the
neutral elements; they coerce into the richer field automatically.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from fractions import Fraction
from itertools import chain, compress, repeat
from math import gcd, isqrt
from operator import is_not, mul

from .scalars import RatFunc, cleared, dot, quotient

ZERO = Fraction(0)
ONE = Fraction(1)


class SingularMatrix(ArithmeticError):
    pass


class EigenvalueCollision(ArithmeticError):
    pass


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _symbolic(*matrices):
    """Whether any entry is a RatFunc: then the whole product runs over Z[s]."""
    return any(RatFunc in set(map(type, row)) for m in matrices for row in m)


def mat_mul(a, b):
    """a . b, each row of a and each column of b cleared once to
    (D, numerators); entry (i, j) is one quotient of a numerator dot product
    over D_i D_j."""
    symbolic = _symbolic(a, b)
    cols = [cleared(col, symbolic) for col in zip(*b)]
    out = []
    for row in a:
        d, nums = cleared(row, symbolic)
        out.append([quotient(dot(nums, cn), d, cd) for cd, cn in cols])
    return out


def mat_vec(a, v):
    """a . v, cleared like mat_mul."""
    symbolic = _symbolic(a, [v])
    vd, vn = cleared(v, symbolic)
    out = []
    for row in a:
        d, nums = cleared(row, symbolic)
        out.append(quotient(dot(nums, vn), d, vd))
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def triangular_eigenvector(a, j, labels):
    """Eigenvector of a lower-triangular a for its diagonal entry a[j][j].

    The vector has a 1 in slot j and zeros above it; the slots below follow
    by back-substitution, each divided by a difference of diagonal entries.
    A zero difference that a nonzero numerator needs raises
    EigenvalueCollision naming labels[j] and the colliding label; an entry
    above the diagonal in column j raises AssertionError naming labels[j]
    and the label of its row.

    Over truncated Laurent series a difference of series is never an exact
    0: one that is not known to be nonzero raises scalars.PrecisionError in
    the division, not EigenvalueCollision.  Exact collisions are caught
    before, on the exact matrix (genmac.GenMacBasis), and an exact 0 stays
    exact, so the triangularity check reads the exact zero pattern.
    """
    n = len(a)
    for i in range(j):
        if a[i][j]:
            raise AssertionError("not triangular: %r -> %r" % (labels[j], labels[i]))
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


# The lifted solve's prime: 2^127 - 1, a Mersenne prime.  CPython multiplies
# residues of this size almost as fast as 61-bit ones, and each lifting step
# gains 127 bits, so a lift takes about half the steps it takes modulo
# 2^61 - 1: 14 against 27 for the vertex system at (N, L) = (2, 4).
PRIME = (1 << 127) - 1
# Below this many unknowns a system takes the factors over Q.  On a 2-vCPU
# Xeon under CPython 3.11.7, modulo 2^127 - 1, the vertex systems at 16
# unknowns took 0.6-1.6 ms over Q and 0.6-1.2 ms lifted, within each other's
# spread; the lift won at 49 (3.3-4.6 against 2.7-4.3 ms) and at 64 (8.1-12.6
# against 4.5-7.4 ms).
LIFT_MIN = 32


def solve_unique(a, b):
    """Exact solution of a possibly overdetermined consistent system over Q.

    a is a dense list of rows x n and b the matching vector, with Fraction
    or int entries; an entry in Q(s) raises TypeError.  Raises
    SingularMatrix when there are no rows, when the system is inconsistent,
    or when it does not pin every unknown, in that order of precedence.

    Each row and its rhs are cleared to integers once, and one sparse
    factorization (`_factor`) serves two substitutions.  From LIFT_MIN
    unknowns on, its factors modulo the prime drive p-adic lifting
    (`_lift`).  A smaller system, a rank defect modulo the prime or a lift
    that finds no candidate takes the factors over Q instead, and one
    forward and one back substitution.  Either candidate is certified by
    exact substitution into every row.
    """
    return _solve(a, b, PRIME, LIFT_MIN)


def _solve(a, b, p, lift_min=0):
    """solve_unique with the lifting prime p, lifting from lift_min unknowns.

    Over Q the unknowns without a pivot are set to 0, so the candidate
    satisfies every pivot row.  When the rank is short, every other row has
    reduced to zero, and the candidate fails such a row exactly when its
    reduced rhs is nonzero: the substitution into every row decides
    "inconsistent" before "underdetermined".
    """
    if not a:
        raise SingularMatrix("no equations")
    n = len(a[0])
    rows = []  # by row: its nonzero columns, their entries and its rhs, cleared
    for row, rhs in zip(a, b):
        # cells that are ZERO itself, the bulk of a sparse system held dense,
        # are skipped by identity, without a truth test on each
        js = [j for j in compress(range(n), map(is_not, row, repeat(ZERO))) if row[j]]
        values = [*map(row.__getitem__, js), rhs]
        if RatFunc in set(map(type, values)):
            raise TypeError("solve_unique works over Q only, not over Q(s)")
        nums = cleared(values)[1]
        rows.append((js, nums, nums.pop()))
    rank = n
    found = _lift(rows, n, p) if n >= lift_min else None
    if found is None:
        pivots = _factor(rows, n, None)
        rank = len(pivots)
        found = cleared(_substitute(pivots, [rows[i][2] for i, *_ in pivots], n, None))
    den, sol = found
    if not _satisfies(rows, den, sol):
        raise SingularMatrix("inconsistent system")
    if rank < n:
        raise SingularMatrix("underdetermined: rank %d of %d unknowns" % (rank, n))
    return [Fraction(v, den) for v in sol]


def _satisfies(rows, den, sol):
    """Whether sol / den satisfies each of the cleared rows, exactly."""
    return all(
        sum(map(mul, nums, map(sol.__getitem__, js))) == rhs * den for js, nums, rhs in rows
    )


def _factor(rows, n, p):
    """Sparse LU factors of the cleared rows, modulo p or, with p None, over Q.

    Rows are taken fewest nonzeros first (Markowitz order), except that a
    row whose columns all have pivots when its turn comes, most often a
    combination of the pivot rows, waits until the other rows are done and
    is reduced only if the rank is still short.  Each row is reduced
    against the pivot rows found so far, oldest pivot first; what is left
    gives a new pivot, normalized to 1, in its column with the fewest
    nonzeros in a.  A pivot row has entries only in columns that had no
    pivot when it was made, so the reduction never revisits a pivot.  The
    factoring stops at n pivots.  Returns, by rank, (row index, column,
    U entries, 1/pivot, L ranks, L factors).
    """
    col_count = Counter(chain.from_iterable(js for js, _, _ in rows))  # picks a pivot column
    order = sorted(range(len(rows)), key=lambda i: len(rows[i][0]))
    rank_of = {}  # pivot column -> its rank
    pivots = []

    def candidates():
        later = []
        for i in order:
            if all(j in rank_of for j in rows[i][0]):
                later.append(i)
            else:
                yield i
        yield from later

    for i in candidates():
        if len(pivots) == n:
            break
        # modulo p, entries are reduced when read as a factor and at the end;
        # over Q, zeros are dropped at the end.  A column stays in the row
        # until its pivot takes it, so each rank enters todo once
        js, nums, _ = rows[i]
        row = dict(zip(js, nums))
        lk, lf = [], []
        # negated ranks in ascending order: pop() takes the oldest pivot
        todo = sorted(-rank_of[j] for j in row if j in rank_of)
        while todo:
            k = -todo.pop()
            c, urow = pivots[k][1:3]
            f = row.pop(c) if p is None else row.pop(c) % p
            if not f:
                continue
            lk.append(k)
            lf.append(f)
            for j, v in urow.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * v
                    if j in rank_of:
                        insort(todo, -rank_of[j])
                else:
                    row[j] = x - f * v
        if p is None:
            row = {j: x for j, x in row.items() if x}
        else:
            row = {j: x % p for j, x in row.items() if x % p}
        if not row:
            continue
        c = min(row, key=lambda j: (col_count[j], j))
        if p is None:
            inv = ONE / row.pop(c)
            urow = {j: x * inv for j, x in row.items()}
        else:
            inv = pow(row.pop(c), -1, p)
            urow = {j: x * inv % p for j, x in row.items()}
        rank_of[c] = len(pivots)
        pivots.append((i, c, urow, inv, lk, lf))
    return pivots


def _substitute(pivots, rhs, n, p):
    """x with L U x = rhs, modulo p or, with p None, over Q: one forward pass
    through L and one back pass through U.  Unknowns without a pivot are 0."""
    y = []
    for (_, _, _, inv, lk, lf), r in zip(pivots, rhs):
        r = (r - sum(map(mul, lf, map(y.__getitem__, lk)))) * inv
        y.append(r if p is None else r % p)
    x = [0] * n
    for (_, c, urow, *_), r in zip(reversed(pivots), reversed(y)):
        r -= sum(map(mul, urow.values(), map(x.__getitem__, urow)))
        x[c] = r if p is None else r % p
    return x


def _lift(rows, n, p):
    """(D, [N_j]) with N_j / D the solution of n pivot rows, found by p-adic
    lifting (Dixon 1982); None to fall back to the factors over Q.

    `_factor` modulo p picks n pivot rows whose square system A x = b is
    invertible modulo p, and so over Q.  With r_0 = b, step k solves
    A x_k = r_k modulo p through L and U and sets r_(k+1) =
    (r_k - A x_k) / p, an exact division, so after s steps
    X = x_0 + x_1 p + ... + x_(s-1) p^(s-1) solves A X = b modulo p^s.
    Then the entries of X are read back as rationals of height at most
    sqrt(p^s / 2) over one running common denominator (rational
    reconstruction, Knuth TAOCP 4.5.3), starting at the entry that stopped
    the last attempt.  A candidate that satisfies every pivot row exactly
    is the unique solution of the system, if it has one.  By Cramer's rule
    and Hadamard's bound H on the minors of [A | b], the attempt at
    p^s > 2 H^2 cannot fail; the lift stops there, returning None if it did.
    """
    pivots = _factor(rows, n, p)
    if len(pivots) < n:
        return None
    prows = [rows[i] for i, *_ in pivots]  # A and b
    bits = sum((sum(x * x for x in nums) + rhs * rhs).bit_length() + 1 >> 1
               for _, nums, rhs in prows)
    last = -(-(2 * bits + 1) // (p.bit_length() - 1))  # p^last > 2 H^2
    residue = [rhs for *_, rhs in prows]
    lifted = [0] * n
    modulus = 1
    first = 0  # the entry that stopped the last reconstruction
    for _ in range(last):
        x = _substitute(pivots, residue, n, p)
        residue = [
            (r - sum(map(mul, nums, map(x.__getitem__, js)))) // p
            for r, (js, nums, _) in zip(residue, prows)
        ]
        lifted = [a + b * modulus for a, b in zip(lifted, x)]
        modulus *= p
        found = _reconstruct(lifted, modulus, first)
        if type(found) is int:
            first = found
        elif _satisfies(prows, *found):
            return found
    return None


def _reconstruct(values, m, first):
    """(D, [N_j]) with values[j] == N_j / D modulo m, each N_j / D of height
    at most sqrt(m / 2), or the index of an entry that has no such reading.

    The entries are read from index first on, cyclically, over a common
    denominator D that grows as needed: an entry whose residue times D is
    small needs no reconstruction at all.
    """
    n = len(values)
    bound = isqrt(m >> 1)
    half = m >> 1
    den = 1
    read = [None] * n
    for j in chain(range(first, n), range(first)):
        y = values[j] * den % m
        if y > half:
            y -= m
        if -bound <= y <= bound:
            read[j] = (y, den)
            continue
        # half-extended Euclid on (m, y): r == t y modulo m throughout
        r0, r1, t0, t1 = m, y % m, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > bound:
            return j
        if t1 < 0:
            r1, t1 = -r1, -t1
        den *= t1
        read[j] = (r1, den)
    return den, [num * (den // at) for num, at in read]


def inverse(a):
    """Exact inverse of a square matrix over Q (Fraction or int entries);
    SingularMatrix if it has none, ValueError for any other shape, TypeError
    for an entry in Q(s).

    Gauss-Jordan on [A | D I] over primitive integer rows.  Row i is
    cleared to integers n_i = d_i A_i, augmented with d_i e_i and divided by
    its content, so that left = right . A holds throughout.  Column c pivots
    on the nonzero entry with the fewest bits among the rows without a pivot
    (ties to the first), and every other row with entry b in that column
    becomes (p/g) row - (b/g) pivot row, g = gcd(p, b), made primitive again.
    At the end the left block is diagonal, and entry (i, j) of the inverse
    is one Fraction of right[i][j] over the pivot of row i.
    """
    n = _square(a, "inverse")
    if _symbolic(a):
        raise TypeError("inverse works over Q only, not over Q(s)")
    work = []
    for i, row in enumerate(a):
        d, nums = cleared(row)
        nums += [0] * n
        nums[n + i] = d
        work.append(_primitive_row(nums, gcd(*nums)))
    for c in range(n):
        sizes = [(work[i][c].bit_length(), i) for i in range(c, n) if work[i][c]]
        if not sizes:
            raise SingularMatrix("matrix not invertible")
        i = min(sizes)[1]
        work[c], work[i] = work[i], work[c]
        prow = work[c]
        p = prow[c]
        for r in range(n):
            row = work[r]
            b = row[c]
            if b and r != c:
                work[r] = _combine(p, b, row, prow)[0]
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(work)]


def _square(a, name):
    """len(a); ValueError naming the shape unless a is square."""
    n = len(a)
    lengths = [len(row) for row in a]
    if set(lengths) - {n}:
        ragged = len(set(lengths)) > 1
        shape = "ragged, row lengths %s" % lengths if ragged else "%dx%d" % (n, lengths[0])
        raise ValueError("%s needs a square matrix, got %s" % (name, shape))
    return n


def _primitive_row(row, h):
    """row divided by its content h (h = 0 or 1 leaves it as it is)."""
    return [x // h for x in row] if h > 1 else row


def _combine(p, b, row, prow):
    """(new, h, p/g): new = (p/g) row - (b/g) prow divided by its content h,
    with g = gcd(p, b).  h == 0 when new vanishes."""
    g = gcd(p, b)
    pg, bg = p // g, b // g
    new = [pg * y - bg * z if z else pg * y for y, z in zip(row, prow)]
    h = gcd(*new)
    return _primitive_row(new, h), h, pg


def determinant(a):
    """Exact determinant of a square matrix over Q (Fraction or int entries);
    ValueError for any other shape, TypeError for an entry in Q(s).

    Elimination over primitive integer rows.  Each row is cleared to
    integers and divided by its content, the gcd of its entries, and keeps
    its own scale: a small Fraction lam_r with primitive row r equal to
    lam_r times row r of plain Gaussian elimination over Q.  A row starts
    at lam = d/g, its clearing denominator over its content.  Each step
    pivots on the nonzero entry of the trailing submatrix with the fewest
    bits; ties go to the first such entry in row-major order, so the run is
    deterministic.  A row swap (which swaps the scales) and a column swap
    bring it into place, each flipping the sign.  A row with entry b under
    the pivot p becomes (p/g) row - (b/g) pivot row, g = gcd(p, b), and is
    made primitive again by its content h, so its scale gains (p/g)/h.  The
    plain pivot of step c is p_c/lam_c, and the determinant is the signed
    product of the plain pivots, folded in once per step; each partial
    product is a leading minor of the permuted matrix, so it stays small.
    Only the columns right of the pivot are updated: those to its left are
    zero and are never read again.  Nothing is divided by an earlier pivot,
    so the rows stay as small as their own contents allow.
    """
    n = _square(a, "determinant")
    if _symbolic(a):
        raise TypeError("determinant works over Q only, not over Q(s)")
    work, scales = [], []
    for row in a:
        d, nums = cleared(row)
        g = gcd(*nums)
        if not g:
            return ZERO
        work.append(_primitive_row(nums, g))
        scales.append(Fraction(d, g))
    det = ONE
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
            scales[c], scales[i] = scales[i], scales[c]
            det = -det
        if j != c:
            for row in work[c:]:
                row[c], row[j] = row[j], row[c]
            det = -det
        prow = work[c]
        p = prow[c]
        det = det * p / scales[c]
        tail = prow[c + 1 :]
        for r in range(c + 1, n):
            row = work[r]
            b = row[c]
            if not b:
                continue
            row[c + 1 :], h, pg = _combine(p, b, row[c + 1 :], tail)
            if not h:
                return ZERO
            scales[r] *= Fraction(pg, h)
    return det
