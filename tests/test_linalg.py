import itertools
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dimfock import genmac, kacdet, linalg, symfunc
from dimfock.fock import BosonModule, GeneratorFamily, operator_matrix
from dimfock.linalg import (
    EigenvalueCollision,
    SingularMatrix,
    determinant,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    solve_unique,
    transpose,
    triangular_eigenvector,
)
from dimfock.scalars import Poly, RatFunc, make_point

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


def test_triangular_eigenvector_rejects_an_entry_above_the_diagonal():
    a = [[F(2), F(0), F(1)], [F(1), F(3), F(0)], [F(4), F(5), F(7)]]
    with pytest.raises(AssertionError, match="'c' -> 'a'"):
        triangular_eigenvector(a, 2, ["a", "b", "c"])
    # only column j is read above the diagonal
    assert triangular_eigenvector(a, 1, ["a", "b", "c"]) == [0, 1, F(-5, 4)]


def gauss_eliminate(a, rhs):
    """Row-reduce [a | rhs] in place; returns (pivot column list, rank).

    Plain Gauss-Jordan over any field: the dense oracle for `inverse` and
    `solve_unique`."""
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
        inv = F(1) / a[r][c]
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


def dense_solve(a, b):
    """Dense Gauss-Jordan oracle for solve_unique, same errors and precedence."""
    if not a:
        raise SingularMatrix("no equations")
    n = len(a[0])
    work = [row[:] for row in a]
    rhs = [[x] for x in b]
    piv, rank = gauss_eliminate(work, rhs)
    if any(rhs[i][0] for i in range(rank, len(work))):
        raise SingularMatrix("inconsistent system")
    if rank < n:
        raise SingularMatrix("underdetermined: rank %d of %d unknowns" % (rank, n))
    sol = [F(0)] * n
    for r, c in enumerate(piv):
        sol[c] = rhs[r][0]
    return sol


def outcome(solver, a, b):
    try:
        return solver(a, b)
    except SingularMatrix as exc:
        return str(exc)


# half zeros: sparse enough for rank defects, dense enough for fill-in
entries = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=4))


@st.composite
def systems(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 8))
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    x = [draw(entries) for _ in range(n)]
    b = mat_vec(a, x)
    if draw(st.booleans()):
        shift = draw(st.fractions(min_value=1, max_value=3, max_denominator=3))
        b[draw(st.integers(0, m - 1))] += shift
    return a, b


@settings(max_examples=400, deadline=None)
@given(systems())
def test_solve_unique_matches_dense_oracle(system):
    a, b = system
    want = outcome(dense_solve, a, b)
    if isinstance(want, str):
        event(want.split(":")[0])
    else:
        event("overdetermined" if len(a) > len(a[0]) else "unique")
    assert outcome(solve_unique, a, b) == want


def traced_solve(a, b, p):
    """(outcome of _solve(a, b, p), the moduli _factor ran under: p for the
    lift, None for the exact path)."""
    factor, moduli = linalg._factor, []

    def traced(rows, n, q):
        moduli.append(q)
        return factor(rows, n, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_factor", traced)
        return outcome(lambda a, b: linalg._solve(a, b, p), a, b), moduli


@settings(max_examples=300, deadline=None)
@given(systems(), st.sampled_from([3, 5, linalg.PRIME]))
def test_lifted_solve_matches_dense_oracle(system, p):
    # 3 and 5 divide many pivots and determinants of these small systems: the
    # lift then falls back to the exact path, and the answer and its message
    # must not change
    a, b = system
    got, moduli = traced_solve(a, b, p)
    event("lift falls back" if None in moduli else "lift decides")
    assert moduli in ([p], [p, None])
    assert got == outcome(dense_solve, a, b)


def test_lifted_solve_certifies_an_inconsistent_full_rank_system(monkeypatch):
    # rank n modulo p, and the last row disagrees with the unique solution
    # of the others: the lift proves the system inconsistent on its own
    n = linalg.LIFT_MIN
    a = [[F(int(i == j), i + 1) for j in range(n)] for i in range(n)] + [[F(1)] * n]
    x = [F(j * j - 5, 7) for j in range(n)]
    b = mat_vec(a, x)
    b[-1] += 1
    factor = linalg._factor

    def modular_only(rows, n, p):
        assert p is not None, "the exact path was taken"
        return factor(rows, n, p)

    monkeypatch.setattr(linalg, "_factor", modular_only)  # solve_unique must not need it
    with pytest.raises(SingularMatrix, match="inconsistent system"):
        solve_unique(a, b)
    with pytest.raises(AssertionError, match="exact path"):  # rank 3: the lift falls back
        solve_unique(a[-3:], b[-3:])
    b[-1] -= 1
    assert solve_unique(a, b) == x


def test_rank_defect_modulo_the_prime_falls_back():
    a = [[F(5), F(1)], [F(0), F(10)], [F(15), F(3)]]
    x = [F(1, 3), F(-2, 7)]
    b = mat_vec(a, x)
    assert traced_solve(a, b, 5) == (x, [5, None])
    assert traced_solve(a, b, 11) == (x, [11])
    b[2] += F(1, 5)
    assert traced_solve(a, b, 5) == ("inconsistent system", [5, None])


def test_solve_unique_cases_and_precedence():
    assert solve_unique([[F(2), F(1)], [F(1), F(3)]], [F(3), F(4)]) == [1, 1]
    # overdetermined and consistent; the sparsest row is eliminated first
    assert solve_unique([[F(1), F(1)], [F(0), F(2)], [F(1), F(0)]], [F(3), F(4), F(1)]) == [1, 2]
    # fill-in: reducing the second row by the first brings in column 1
    cyclic = [[F(1), F(1), F(0)], [F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert solve_unique(cyclic, [F(2), F(3), F(5)]) == [0, 2, 3]
    with pytest.raises(SingularMatrix, match="no equations"):
        solve_unique([], [])
    # full rank, but a row left over after elimination disagrees
    with pytest.raises(SingularMatrix, match="inconsistent system"):
        solve_unique([[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]], [F(1), F(1), F(3)])
    # inconsistent takes precedence over underdetermined
    with pytest.raises(SingularMatrix, match="inconsistent system"):
        solve_unique([[F(1), F(0)], [F(2), F(0)]], [F(1), F(3)])
    with pytest.raises(SingularMatrix, match="underdetermined: rank 1 of 2 unknowns"):
        solve_unique([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)])


def test_solve_unique_over_rational_functions():
    # solve_unique works over Q only, like determinant and inverse: an entry
    # in Q(s), in a row or in the right-hand side, raises TypeError
    s = RatFunc.variable()
    a = [[s, F(1)], [F(1), s], [s + 1, s + 1], [F(0), s * s]]
    x = [1 / (s - 1), s * s + F(1, 2)]
    b = [row[0] * x[0] + row[1] * x[1] for row in a]
    with pytest.raises(TypeError, match="over Q only"):
        solve_unique(a, b)
    with pytest.raises(TypeError, match="over Q only"):
        linalg._solve(a, b, linalg.PRIME)
    with pytest.raises(TypeError, match="over Q only"):
        solve_unique([[F(1), F(0)], [F(0), F(2)]], [F(1), s])


def leibniz(a):
    """Permutation-sum determinant, the oracle for determinant."""
    n = len(a)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = F((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


# half zeros; small entries among entries of up to ~70 bits, so the entry
# with the fewest bits is seldom in place and the search swaps rows and columns
det_entries = st.one_of(
    st.just(F(0)),
    st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=2),
        st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**9)),
    ),
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    a = [[draw(det_entries) for _ in range(n)] for _ in range(n)]
    kinds = ["generic"] * 3 + ["combination", "zero column"]
    kind = draw(st.sampled_from(kinds)) if n > 1 else "generic"
    if kind == "combination":
        # one row a rational combination of two others: rank deficient
        i, j, k = draw(st.permutations(range(n)))[:3] if n > 2 else (0, 1, 1)
        c, d = draw(det_entries), draw(det_entries)
        a[i] = [c * x + d * y for x, y in zip(a[j], a[k])]
    elif kind == "zero column":
        col = draw(st.integers(0, n - 1))
        for row in a:
            row[col] = F(0)
    return a


def bits(x):
    return x.numerator.bit_length() + x.denominator.bit_length()


def fraction_determinant(a):
    """Full-pivot elimination over Fraction, the oracle for determinant: the
    pivot is the entry with the fewest numerator plus denominator bits, ties
    to the first in row-major order, and each row below it loses its
    Fraction multiple of the pivot row."""
    n = len(a)
    work = [row[:] for row in a]
    det = F(1)
    for c in range(n):
        best = None
        for i in range(c, n):
            for j in range(c, n):
                x = work[i][j]
                if x and (best is None or bits(x) < best[0]):
                    best = (bits(x), i, j)
        if best is None:
            return F(0)
        _, i, j = best
        if i != c:
            work[c], work[i] = work[i], work[c]
            det = -det
        if j != c:
            for row in work[c:]:
                row[c], row[j] = row[j], row[c]
            det = -det
        prow = work[c]
        det = det * prow[c]
        for row in work[c + 1 :]:
            f = row[c] / prow[c]
            row[c + 1 :] = [y - f * z for y, z in zip(row[c + 1 :], prow[c + 1 :])]
    return det


@settings(max_examples=400, deadline=None)
@given(square_matrices())
def test_determinant_matches_leibniz(a):
    want = leibniz(a)
    event("singular" if want == 0 else "nonsingular")
    event(first_pivot(a))
    got = determinant(a)
    assert got == want == fraction_determinant(a)
    assert isinstance(got, F)


def test_determinant_by_hand():
    assert determinant([]) == 1
    # the cleared row [1, 5000] holds the entry with the fewest bits, in place
    assert first_pivot([[F(1, 1000), F(5)], [F(3), F(7)]]) == "first pivot: no swap"
    assert determinant([[F(1, 1000), F(5)], [F(3), F(7)]]) == F(-14993, 1000)
    ints = determinant([[2, 1], [1, 3]])
    assert ints == 5 and isinstance(ints, F)
    # the smallest entry sits at (1, 2): one row swap and one column swap, signs cancel
    a = [[F(1000), F(7, 3), F(500)], [F(9), F(2000), F(1)], [F(4000), F(11, 5), F(3000)]]
    assert determinant(a) == leibniz(a)
    # one column swap alone flips the sign
    assert determinant([[F(1000), F(1)], [F(1), F(0)]]) == -1
    assert determinant([[F(1), F(2)], [F(2), F(4)]]) == 0
    # int entries clear like Fractions over 1
    ints = [[3, -1, 4], [1, 5, -9], [2, 6, 5]]
    assert determinant(ints) == leibniz(ints)


def test_determinant_rows_that_vanish_mid_elimination():
    # the second row is twice the first: it is zero after the first step
    assert determinant([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(5), F(7), F(11)]]) == 0
    # the third row is a multiple of the second only once the first is
    # eliminated, so it vanishes at the second step
    a = [[F(1), F(2), F(3)], [F(4, 3), F(1, 3), F(7, 3)], [F(6), F(5), F(13)]]
    assert leibniz(a) == 0
    assert determinant(a) == 0


def test_determinant_negative_pivots():
    # the pivot -1 has the fewest bits; its row and column are already in place
    assert determinant([[F(-1), F(5)], [F(3), F(7)]]) == -22
    a = [[F(9), F(-1, 2), F(7)], [F(4), F(6), F(-3)], [F(11), F(5), F(8, 3)]]
    assert determinant(a) == leibniz(a) == fraction_determinant(a)
    assert determinant([[F(-2), F(0)], [F(0), F(-3)]]) == 6


# scale factors with large contents and large denominators, either sign
scale_factors = st.builds(
    lambda sign, num, den: F(sign * num, den),
    st.sampled_from([1, -1]),
    st.integers(1, 2**64),
    st.integers(1, 2**64),
)


def primitive_rows(a):
    """Each row cleared to integers and divided by its content, as the
    determinant sees it before its first step."""
    out = []
    for row in a:
        d = lcm(*(x.denominator for x in row))
        nums = [x.numerator * (d // x.denominator) for x in row]
        g = gcd(*nums) or 1
        out.append([x // g for x in nums])
    return out


def first_pivot(a):
    """The event of determinant's first pivot: the entry with the fewest bits
    in the cleared primitive rows, ties to the first in row-major order."""
    sizes = [
        (abs(x).bit_length(), i, j)
        for i, row in enumerate(primitive_rows(a))
        for j, x in enumerate(row)
        if x
    ]
    if not sizes:
        return "no pivot"
    _, i, j = min(sizes)
    swaps = [name for name, moved in (("row swap", i > 0), ("column swap", j > 0)) if moved]
    return "first pivot: " + (" and ".join(swaps) or "no swap")


@settings(max_examples=300, deadline=None)
@given(square_matrices(), st.data())
def test_determinant_of_scaled_rows_and_columns(a, data):
    # det(diag(r) A diag(c)) = prod(r) prod(c) det(A): the row factors land in
    # the per-row scales, and every swap of the pivot search must carry them
    n = len(a)
    r = [data.draw(scale_factors) for _ in range(n)]
    c = [data.draw(scale_factors) for _ in range(n)]
    scaled = [[ri * x * cj for x, cj in zip(row, c)] for ri, row in zip(r, a)]
    want = prod(r) * prod(c) * leibniz(a)
    event("singular" if want == 0 else "nonsingular")
    event(first_pivot(scaled))
    assert determinant(scaled) == want == fraction_determinant(scaled)


def test_determinant_zero_rows_and_rows_that_vanish_after_a_swap():
    # a zero row at the start, first or not, ends the run before any step
    assert determinant([[F(0), F(0), F(0)], [F(1), F(2), F(3)], [F(4), F(5), F(7)]]) == 0
    assert determinant([[F(1), F(2)], [F(0), F(0)]]) == 0
    # the pivot 1 of the primitive row 1 sits at (1, 1): rows 0 and 1 swap,
    # and so do their scales 3 and 5, and columns 0 and 1 swap
    r0 = [F(1000, 3), F(999, 3), F(7)]
    r1 = [F(9, 5), F(1, 5), F(11, 5)]
    # row 2 is 3/7 of row 1: it vanishes at the first step
    a = [r0, r1, [F(3, 7) * x for x in r1]]
    assert leibniz(a) == 0 and determinant(a) == 0
    # row 2 is a combination of rows 0 and 1: it vanishes at the second step
    mixed = [F(2, 11) * x + F(5, 13) * y for x, y in zip(r0, r1)]
    assert leibniz([r0, r1, mixed]) == 0 and determinant([r0, r1, mixed]) == 0
    b = [r0, r1, mixed[:2] + [mixed[2] + F(1, 17)]]
    assert determinant(b) == leibniz(b) == fraction_determinant(b) != 0


def test_shape_and_field_guards(sym_point2):
    with pytest.raises(ValueError, match=r"^determinant needs a square matrix, got ragged, row lengths \[3, 2\]$"):
        determinant([[1, 2, 3], [4, 5]])
    with pytest.raises(ValueError, match="^determinant needs a square matrix, got 3x2$"):
        determinant([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError, match="^inverse needs a square matrix, got 2x3$"):
        inverse([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="^inverse needs a square matrix, got 3x2$"):
        inverse([[1, 2], [3, 4], [5, 6]])
    s = sym_point2.q
    with pytest.raises(ValueError, match="^inverse needs a square matrix, got 1x2$"):
        inverse([[s, F(1)]])
    with pytest.raises(TypeError, match="over Q only"):
        determinant([[s, F(1)], [F(1), F(1)]])
    with pytest.raises(TypeError, match="over Q only"):
        inverse([[s, F(1)], [F(1), F(1)]])


def test_determinant_matches_the_fraction_oracle_on_kac_grams(point2, point3):
    for n, n_comp, pt in ((4, 2, point2), (3, 3, point3)):
        gram, _ = kacdet.pbw_gram_matrix(n, pt, n_comp)
        assert determinant(gram) == fraction_determinant(gram) != 0, (n_comp, n)


# -- cleared products and the primitive-row inverse --------------------------


def term_mat_mul(a, b):
    """Term-by-term triple loop, the oracle for mat_mul."""
    n, m, k = len(a), len(b[0]), len(b)
    out = [[F(0)] * m for _ in range(n)]
    for i in range(n):
        for l in range(k):
            x = a[i][l]
            if not x:
                continue
            for j in range(m):
                if b[l][j]:
                    out[i][j] = out[i][j] + x * b[l][j]
    return out


def term_mat_vec(a, v):
    """Term-by-term sums, the oracle for mat_vec."""
    return [sum((x * y for x, y in zip(row, v) if x and y), F(0)) for row in a]


def gauss_inverse(a):
    """Gauss-Jordan on [a | I] over the field, the oracle for inverse."""
    n = len(a)
    work = [row[:] for row in a]
    rhs = identity(n)
    _, rank = gauss_eliminate(work, rhs)
    if rank < n:
        raise SingularMatrix("matrix not invertible")
    return rhs


def inverse_outcome(inv, a):
    try:
        return inv(a)
    except SingularMatrix as exc:
        return str(exc)


def hashes(m):
    return [[hash(x) for x in row] for row in m]


# ints among the Fractions: a row of ints clears over 1
product_entries = st.one_of(entries, st.integers(-7, 7))


@st.composite
def products(draw):
    """(a, b, v) with a n x k, b k x m and v of length k; sometimes a zero
    row of a and a zero column of b, and n = 0 gives a = []."""
    n, k, m = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = [[draw(product_entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(product_entries) for _ in range(m)] for _ in range(k)]
    v = [draw(product_entries) for _ in range(k)]
    if n and draw(st.booleans()):
        a[draw(st.integers(0, n - 1))] = [F(0)] * k
    if draw(st.booleans()):
        col = draw(st.integers(0, m - 1))
        for row in b:
            row[col] = 0
    return a, b, v


@settings(max_examples=300, deadline=None)
@given(products())
def test_cleared_products_match_the_term_oracle(case):
    a, b, v = case
    event("a = []" if not a else "%d x %d x %d" % (len(a), len(b), len(b[0])))
    got = mat_mul(a, b)
    assert got == term_mat_mul(a, b)
    assert hashes(got) == hashes(term_mat_mul(a, b))
    assert all(isinstance(x, F) for row in got for x in row)
    got_v = mat_vec(a, v)
    assert got_v == term_mat_vec(a, v)
    assert all(isinstance(x, F) for x in got_v)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_primitive_row_inverse_matches_gauss_jordan(a):
    want = inverse_outcome(gauss_inverse, a)
    event("singular" if isinstance(want, str) else "invertible")
    got = inverse_outcome(inverse, a)
    assert got == want
    if not isinstance(want, str):
        assert hashes(got) == hashes(want)
        assert mat_mul(a, got) == identity(len(a))


def test_inverse_and_products_by_hand():
    assert inverse([]) == [] and mat_mul([], [[F(1)]]) == [] and mat_vec([], []) == []
    assert inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    # the pivot of column 0 is the entry with the fewest bits: row 1, not row 0
    a = [[F(1000, 3), F(7)], [F(-1), F(5, 2)]]
    assert inverse(a) == gauss_inverse(a)
    with pytest.raises(SingularMatrix, match="^matrix not invertible$"):
        inverse([[F(1), F(2)], [F(1, 2), F(1)]])
    with pytest.raises(SingularMatrix, match="^matrix not invertible$"):
        inverse([[F(0), F(0)], [F(0), F(3)]])
    assert mat_vec([[F(1, 2), 3]], [F(2, 3), F(-1, 9)]) == [0]


# Q(s) entries: small polynomials over small polynomials, among Fractions
@st.composite
def ratfuncs(draw):
    s = RatFunc.variable()
    num = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    den = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    if not any(den[1:]):
        den = den[:1] + [1]
    return sum((c * s**i for i, c in enumerate(num)), F(0)) / sum(
        (c * s**i for i, c in enumerate(den)), F(0)
    )


symbolic_entries = st.one_of(st.just(F(0)), st.fractions(-3, 3, max_denominator=3), ratfuncs())


@st.composite
def symbolic_products(draw):
    n, k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = [[draw(symbolic_entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(symbolic_entries) for _ in range(m)] for _ in range(k)]
    v = [draw(symbolic_entries) for _ in range(k)]
    return a, b, v


@settings(max_examples=100, deadline=None)
@given(symbolic_products())
def test_cleared_products_over_rational_functions(case):
    a, b, v = case
    got = mat_mul(a, b)
    assert got == term_mat_mul(a, b)
    assert hashes(got) == hashes(term_mat_mul(a, b))
    assert mat_vec(a, v) == term_mat_vec(a, v)
    assert [hash(x) for x in mat_vec(a, v)] == [hash(x) for x in term_mat_vec(a, v)]


def symbolic_level3_data():
    """(P, X0, P^-1 X0 P, P^-1) at level 3 of the symbolic-q point
    make_point(5, 2, 4, "q"): P^-1 X0 P as zero_mode_conjugation forms it,
    through the orthogonality of the kets, and P^-1 from the Gauss-Jordan
    oracle."""
    pt = make_point(5, 2, 4, "q")
    family = GeneratorFamily(BosonModule(pt, 2, pt.u, 4, kind="qt"))
    pmat, _, _, conj = genmac.zero_mode_conjugation(3, family)
    x0 = operator_matrix(family.x_mode(1, 0), family.module, 3, 3)
    return pmat, x0, conj, gauss_inverse(pmat)


def test_cleared_products_at_a_symbolic_q_point():
    pmat, x0, conj, pinv = symbolic_level3_data()
    assert any(isinstance(x, RatFunc) for row in pmat for x in row)
    xp = mat_mul(x0, pmat)
    for got, want in ((xp, term_mat_mul(x0, pmat)), (conj, term_mat_mul(pinv, xp))):
        assert got == want and hashes(got) == hashes(want)
    # mixed operands: a Fraction matrix times a RatFunc matrix and back
    fr = [[F(i - j, 1 + i + j) for j in range(len(pmat))] for i in range(len(pmat))]
    for a, b in ((fr, pmat), (pmat, fr)):
        got = mat_mul(a, b)
        assert got == term_mat_mul(a, b) and hashes(got) == hashes(term_mat_mul(a, b))
    col = [row[0] for row in fr]
    assert mat_vec(pmat, col) == term_mat_vec(pmat, col)


def test_symbolic_products_take_one_gcd_per_entry(monkeypatch):
    """A deterministic guard on the Q(s) products: the two level-3 products
    of zero_mode_conjugation at make_point(5, 2, 4, "q"), X0 P and
    P^-1 (X0 P), take at most 100 Poly.gcd calls each, where sums reduced
    term by term took about 200-280."""
    pmat, x0, conj, pinv = symbolic_level3_data()
    calls = []
    gcd = Poly.gcd

    def counted(self, other):
        calls.append(1)
        return gcd(self, other)

    monkeypatch.setattr(Poly, "gcd", counted)
    xp = linalg.mat_mul(x0, pmat)
    first = len(calls)
    assert linalg.mat_mul(pinv, xp) == conj
    second = len(calls) - first
    assert first <= 100 and second <= 100, (first, second)


# -- eigenbases without inverses ----------------------------------------------


@pytest.mark.parametrize("n_comp", [2, 3])
def test_state_matrix_inverse_matches_gauss_jordan(n_comp):
    for seed in (101, 198):
        pt = make_point(seed, n_comp, 4)
        for level in (1, 2, 3):
            basis = genmac.gen_macdonald(level, pt)
            smat = basis.state_matrix()
            assert basis.state_matrix_inverse() == inverse(smat), (seed, level)


def test_state_matrix_inverse_at_a_symbolic_q_point():
    pt = make_point(5, 2, 4, "q")
    basis = genmac.GenMacBasis(3, GeneratorFamily(BosonModule(pt, 2, pt.u, 4, kind="qt")))
    smat = basis.state_matrix()
    assert any(isinstance(x, RatFunc) for row in smat for x in row)
    assert mat_mul(basis.state_matrix_inverse(), smat) == identity(len(smat))


def rmat_dual_side(basis):
    """(dual coefficients, dual bras) by the construction the eigenbasis used
    to take: rmat = P^T G holds the bra-products as rows, the dual zero mode
    is rmat X0 rmat^-1, and the dual coefficients are its left eigenvectors,
    summed over the rows of rmat for the bras."""
    module, tuples, n = basis.module, basis.tuples, len(basis.tuples)
    x0 = operator_matrix(basis.family.x_mode(1, 0), module, basis.level, basis.level)
    grams = [module.monomial_gram(m) for m in tuples]
    rmat = [[basis.pmat[v][j] * grams[v] for v in range(n)] for j in range(n)]
    y = mat_mul(mat_mul(rmat, x0), gauss_inverse(rmat))
    y_rev = [row[::-1] for row in transpose(y)][::-1]
    coeffs = [triangular_eigenvector(y_rev, n - 1 - j, tuples[::-1])[::-1] for j in range(n)]
    bras = [{m: x for m, x in zip(tuples, mat_vec(transpose(rmat), c)) if x} for c in coeffs]
    return coeffs, bras


def test_dual_side_matches_the_rmat_construction(point2, point3):
    for pt, level in ((point2, 2), (point3, 2), (point2, 3)):
        basis = genmac.gen_macdonald(level, pt)
        coeffs, bras = rmat_dual_side(basis)
        assert basis.dual_coeff == coeffs, level
        assert [basis.dual_bra(t) for t in basis.tuples] == bras, level


def test_eigenbases_call_no_inverse(monkeypatch, point2):
    """No linalg.inverse call in a GenMacBasis build, its inverse state
    matrix, its dual bras or gen_hall_littlewood(3).  symfunc's per-degree
    conversion matrices, cached per process, invert; they are built first."""
    for n in range(4):
        symfunc._basis_matrices(n)
    calls = []
    original = linalg.inverse

    def counted(a):
        calls.append(len(a))
        return original(a)

    monkeypatch.setattr(linalg, "inverse", counted)
    basis = genmac.gen_macdonald(3, point2)
    basis.state_matrix_inverse()
    for tup in basis.tuples:
        basis.dual_bra(tup)
    genmac.gen_hall_littlewood(3, make_point(7, 2, 4, "q"))
    assert calls == []
