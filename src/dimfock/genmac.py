"""Generalized Macdonald bases: eigenvectors of the zero mode of the first
current, unitriangular over products of ordinary Macdonald functions.

The canonical tuple order (larger elements first) is a linear extension of
the suffix-sum ordering, so the zero-mode matrix is triangular in it and
each eigenvector follows from a back-substitution divided by eigenvalue
differences; genericity of the point keeps those differences nonzero.
The product-Macdonald kets are orthogonal for the Fock pairing, so their
inverse matrix is their bras over their norms (`MacdonaldFrame`), and the
zero mode P^-1 X0 P is one fraction-free triple product over the kets,
the monomial Gram and X0, each cleared once (`zero_mode_conjugation`).  Its
exact checks read the integer (or Z[s]) numerators; no entry is reduced
unless a reader asks for it, and P^-1 is formed only for the inverse state
matrix.  The left eigenvectors of the same triangular zero mode give the
dual bras and the inverse state matrix, so no eigenbasis needs a general
matrix inverse.  At a symbolic-q point the eigenvectors are solved over
truncated Laurent series in s, read from the numerators at the precision
the solve asks for, which certify their values at s = 0 (q = 0); no
quotient in Q(s) is formed.
Also here: integral-form renormalizations, the exact q -> 0 limit from
those series, and generalized Jack functions from the degenerate-limit
differential operator.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from . import linalg
from .combinat import (
    EMPTY,
    Partition,
    PartitionTuple,
    arm_leg,
    enumerate_tuples,
    partitions,
    star_refined_lt,
    star_lt,
)
from .fock import (
    BosonModule,
    GeneratorFamily,
    apply_symfunc,
    column_matrix,
    coordinates,
    eta,
    operator_matrix,
    pbw_state,
    pbw_bra,
    state_scale,
)
from .linalg import EigenvalueCollision
from .nekrasov import nek_factor
from .scalars import (
    Laurent,
    PoleAtZero,
    PrecisionError,
    cleared,
    dot,
    eigenvalue_of,
    laurent,
    quotient,
)
from .symfunc import macdonald_p, monomial_eigenvectors, monomial_frame

ZERO = Fraction(0)
ONE = Fraction(1)


def product_macdonald_state(module, tup):
    """prod_i P_(lambda_i)(a^(i)_{-n}) |u> at the point's (q, t)."""
    state = module.vacuum()
    for i, lam in enumerate(tup.components):
        f = macdonald_p(lam, module.point.q, module.point.t)
        state = apply_symfunc(module, f, [(i, ONE)], state)
    return state


class MacdonaldFrame:
    """The product-Macdonald kets at one level, each cleared once.

    P holds the kets as columns over the level-n monomials.  Ket j is
    cleared to p_j / E_j (`scalars.cleared`), with integer numerators, or
    numerators in Z[s] at a symbolic-q point.  The kets are orthogonal for
    the Fock pairing, which is diagonal on monomials with entries G_v
    (`monomial_gram`), cleared once to g_v / H.  So the bra of ket i,
    row i of P^T G, is w_i / (H E_i) with w_i = g o p_i (entrywise), and
    the norm N_i = sum_v G_v P[v][i]^2 is N~_i / (H E_i^2) with N~_i = w_i . p_i.
    P^-1 = N^-1 P^T G then has the rows w_i E_i / N~_i: no elimination.
    """

    def __init__(self, module, level):
        self.symbolic = module.point.is_symbolic_q
        tuples = module.basis(level)
        kets = [product_macdonald_state(module, t) for t in tuples]
        self.pmat = column_matrix(kets, tuples)
        self.kets = [cleared(col, self.symbolic) for col in zip(*self.pmat)]
        self.gram_den, grams = cleared([module.monomial_gram(m) for m in tuples], self.symbolic)
        self.bras = [[g * x for g, x in zip(grams, p)] for _, p in self.kets]
        self.norm_nums = [dot(w, p) for w, (_, p) in zip(self.bras, self.kets)]

    def norms(self):
        """The norms N_i, each one exact quotient."""
        h = self.gram_den
        return [quotient(n, h, e * e) for (e, _), n in zip(self.kets, self.norm_nums)]

    def inverse(self):
        """P^-1 as rows, each entry one exact quotient."""
        return [
            [quotient(x * e, n) for x in w]
            for (e, _), w, n in zip(self.kets, self.bras, self.norm_nums)
        ]


class Conjugation:
    """A = P^-1 X P for a matrix X over the monomials of a MacdonaldFrame's
    level, as exact numerators with one factor per row and one per column.

    X is cleared once to x / F.  With Y_j = x p_j (X P has the columns
    Y_j / (F E_j)) and the dot products A~_ij = w_i . Y_j over Z or Z[s],

        A_ij = A~_ij E_i / (N~_i F E_j).

    So A_ij is an exact 0 exactly when the numerator A~_ij is 0, and no
    entry is reduced until a reader asks for it: `exact()` reads each entry
    as one quotient, `series(prec)` as a truncated Laurent series in s from
    the numerator and the kept row and column factors.
    """

    def __init__(self, frame, x):
        self.frame = frame
        self.x_den, flat = cleared([v for row in x for v in row], frame.symbolic)
        n = len(x)
        rows = [flat[k : k + n] for k in range(0, n * n, n)]
        cols = [[dot(r, p) for r in rows] for _, p in frame.kets]
        self.nums = [[dot(w, y) for y in cols] for w in frame.bras]

    def exact(self):
        """A as rows of exact scalars: Fractions, or canonical elements of Q(s)."""
        frame = self.frame
        col_dens = [self.x_den * e for e, _ in frame.kets]
        return [
            [quotient(a * e, n, d) for a, d in zip(row, col_dens)]
            for row, (e, _), n in zip(self.nums, frame.kets, frame.norm_nums)
        ]

    def series(self, prec):
        """(A, N) at a symbolic-q point to relative precision prec, each
        nonzero entry a `scalars.Laurent` with a certified valuation and each
        zero entry an exact Fraction 0.  Every entry equals the `laurent`
        expansion of the exact one: a product of series with certified
        valuations keeps every coefficient its factors know."""
        frame = self.frame
        row_factors = [
            laurent(e, prec) / laurent(n, prec) for (e, _), n in zip(frame.kets, frame.norm_nums)
        ]
        col_factors = [1 / laurent(self.x_den * e, prec) for e, _ in frame.kets]
        conj = [
            [laurent(a, prec) * r * c if a else ZERO for a, c in zip(row, col_factors)]
            for row, r in zip(self.nums, row_factors)
        ]
        norms = [
            laurent(n, prec) / laurent(frame.gram_den * e * e, prec)
            for (e, _), n in zip(frame.kets, frame.norm_nums)
        ]
        return conj, norms

    def diagonal_is(self, j, value):
        """Whether A_jj == value, by one exact cross-multiplication:
        A_jj = A~_jj / (N~_j F)."""
        d, (n,) = cleared([value], self.frame.symbolic)
        return self.nums[j][j] * d == n * self.frame.norm_nums[j] * self.x_den


def zero_mode_conjugation(level, family):
    """P^-1 X0 P at one level, as a `Conjugation`: the first-current zero
    mode X0 in the product-Macdonald basis, indexed by the level-n tuples,
    formed in one cleared pass without P^-1.  X0 is read from
    `fock.operator_matrix`, at numeric and symbolic-q points alike."""
    module = family.module
    x0 = operator_matrix(family.x_mode(1, 0), module, level, level)
    return Conjugation(MacdonaldFrame(module, level), x0)


def _eigenvectors(x0_pp, norms, tuples):
    """(C, D, dual coefficients) of the triangular P^-1 X0 P, as rows.

    The rows of C are the right eigenvectors, unitriangular over the
    product-Macdonald basis, so the state matrix is S = P C^T.  The rows d_j
    of D are the left eigenvectors with 1 in slot j: right eigenvectors of
    the transpose, which is lower triangular once the index order is
    reversed.  The dual zero mode, the right action on the bras
    P^T G = N P^-1, is N (P^-1 X0 P) N^-1: its left eigenvectors are the
    d_j N^-1, scaled to 1 in slot j.
    """
    n = len(tuples)
    coeff = [linalg.triangular_eigenvector(x0_pp, j, tuples) for j in range(n)]
    x0_rev = [row[::-1] for row in linalg.transpose(x0_pp)][::-1]
    rev = tuples[::-1]
    left = [linalg.triangular_eigenvector(x0_rev, n - 1 - j, rev)[::-1] for j in range(n)]
    dual_coeff = [
        [d * nj / ni if d else ZERO for d, ni in zip(dj, norms)]
        for dj, nj in zip(left, norms)
    ]
    return coeff, left, dual_coeff


# Relative precision of the first series solve of a crystal-limit basis.  On
# a 2-vCPU Xeon under CPython 3.11.7, the solves at the 64 recorded level-3
# points of perfbench/inputs.json took 0.56, 0.57, 0.34, 0.38 and 0.52 s in
# all from precisions 1, 2, 3, 4 and 6, with 128, 64, 0, 0 and 0 restarts.
# At make_point(7, 2, 6, "q"), level 5, they took 0.29, 0.20, 0.26 and 0.16 s
# from 2, 3, 4 and 6: 3 restarts once, 6 never.  3 is the fastest start at
# level 3, the highest level the suites run the crystal limit at.
SERIES_PREC = 3


def _crystal_eigenvectors(conj, tuples, prec=SERIES_PREC):
    """`_eigenvectors` over truncated Laurent series in s, at a symbolic-q
    point, with every entry of C and of the dual coefficients a Fraction or
    a Laurent whose value at s = 0 is certified.

    P^-1 X0 P and the norms are read from the `Conjugation` conj to
    relative precision prec; an exact 0 stays exact, so the solves see the
    exact matrix's zero pattern.  When an entry is left uncertified, or a
    solve divides by an element with no known nonzero coefficient, the
    solve starts again at twice the precision.
    """
    while True:
        try:
            coeff, left, dual_coeff = _eigenvectors(*conj.series(prec), tuples)
        except PrecisionError:
            prec *= 2
            continue
        if all(type(x) is not Laurent or x.certified for row in coeff + dual_coeff for x in row):
            return coeff, left, dual_coeff
        prec *= 2


class GenMacBasis:
    """Level-n eigenbasis data for a generator family.

    The level-n tuples index both the eigenvectors and the monomial
    coordinates of every state and matrix here.
    """

    def __init__(self, level, family: GeneratorFamily):
        self.level = level
        self.family = family
        self.module = family.module
        self.point = family.module.point
        self.tuples = list(self.module.basis(level))
        self.index = {t: i for i, t in enumerate(self.tuples)}
        self._build()

    def _build(self):
        """Solve for the eigenvectors from P^-1 X0 P (`zero_mode_conjugation`).

        The exact checks read the conjugation's exact numerators.  Per
        column j: an eigenvalue no earlier column has (distinct eigenvalues
        make the left eigenvectors the rows of C^-1) and the closed-form
        eigenvalue on the diagonal, by one cross-multiplication.  The
        triangular solves check that no entry lies above the diagonal in the
        canonical order, on the numerators' zero pattern.  A numeric basis
        solves over the exact entries and keeps the norms; a symbolic-q
        basis solves over series (`_crystal_eigenvectors`) and keeps no
        norms.  Either keeps the frame, so P and P^-1 are read from it.
        """
        tuples = self.tuples
        conj = zero_mode_conjugation(self.level, self.family)
        self._frame = conj.frame
        self.pmat = conj.frame.pmat
        self.eigenvalues = [eigenvalue_of(t, self.point) for t in tuples]
        first = {}
        for j, (t, ev) in enumerate(zip(tuples, self.eigenvalues)):
            other = first.setdefault(ev, t)
            if other != t:
                raise EigenvalueCollision("%r vs %r" % (other, t))
            if not conj.diagonal_is(j, ev):
                raise AssertionError("diagonal eigenvalue mismatch at %r" % (t,))
        if self.point.is_symbolic_q:
            self.norms = None
            self.coeff, self._left, self.dual_coeff = _crystal_eigenvectors(conj, tuples)
        else:
            self.norms = conj.frame.norms()
            solved = _eigenvectors(conj.exact(), self.norms, tuples)
            self.coeff, self._left, self.dual_coeff = solved
        self._state_matrix = self._state_inverse = self._forms = None

    def transition(self, lam_tup, mu_tup):
        """Coefficient of the mu product-Macdonald vector inside P_lam."""
        return self.coeff[self.index[lam_tup]][self.index[mu_tup]]

    def dual_transition(self, lam_tup, mu_tup):
        return self.dual_coeff[self.index[lam_tup]][self.index[mu_tup]]

    def state(self, tup):
        """P_tup as a Fock state (monomial coordinates): column j of S."""
        j = self.index[tup]
        return {m: row[j] for m, row in zip(self.tuples, self.state_matrix()) if row[j]}

    def _exact_only(self, reader):
        if self.point.is_symbolic_q:
            raise TypeError(
                "%s needs the exact eigenvectors; at a symbolic-q point the basis "
                "keeps only truncated series in s, read at s = 0" % reader
            )

    def state_matrix(self):
        """The eigenvectors as columns over the level-n monomials, S = P C,
        computed on first use and kept on the basis; callers must not
        modify it.  TypeError at a symbolic-q point."""
        self._exact_only("state_matrix")
        if self._state_matrix is None:
            self._state_matrix = linalg.mat_mul(self.pmat, linalg.transpose(self.coeff))
        return self._state_matrix

    def state_matrix_inverse(self):
        """The inverse of state_matrix(), computed on first use and kept on
        the basis; callers must not modify it.

        S^-1 = C^-1 P^-1, and C^-1 is the matrix of rows d_j: d_j C has
        d_j c_k = 0 for k != j, because the eigenvalues are distinct, and
        d_j c_j = 1 by the two triangular shapes.  P^-1 is read from the
        kept frame here, and only here.  TypeError at a symbolic-q point.
        """
        self._exact_only("state_matrix_inverse")
        if self._state_inverse is None:
            self._state_inverse = linalg.mat_mul(self._left, self._frame.inverse())
        return self._state_inverse

    def expand(self, state):
        """A level-n state over the eigenvectors, {tup: c} with every tuple
        present: the coefficients S^-1 v of its monomial coordinates v."""
        coords = coordinates(state, self.tuples)
        return dict(zip(self.tuples, linalg.mat_vec(self.state_matrix_inverse(), coords)))

    def dual_bra(self, tup):
        """<P_tup| as a functional on creation monomials: N_j d_j P^-1, that
        is N_j times row j of the inverse state matrix."""
        j = self.index[tup]
        row = self.state_matrix_inverse()[j]
        nj = self.norms[j]
        return {m: nj * x for m, x in zip(self.tuples, row) if x}

    def monomial_transition(self):
        """Transition matrix over products of monomial symmetric functions:
        the rows of M^-1 S, M the tuples' `symfunc.monomial_frame`."""
        minv = monomial_frame(self.tuples)[1]
        return linalg.transpose(linalg.mat_mul(minv, self.state_matrix()))


# value key of gen_macdonald -> its basis inside `shared_bases`, None outside
_shared = None


@contextmanager
def shared_bases():
    """Inside the block, gen_macdonald builds each basis once and hands the
    same object to every later call with the same values.  The block yields
    the memo.  A block opened inside another one uses the outer memo; the
    outermost block drops it, with the bases and their families' caches,
    when it exits, however it exits.  Also a decorator: @shared_bases()."""
    global _shared
    if _shared is not None:
        yield _shared
        return
    _shared = {}
    try:
        yield _shared
    finally:
        _shared = None


def gen_macdonald(level, point, n_comp=None):
    """Generalized Macdonald basis at the given level, over the first n_comp
    weights of the point (all of them by default).

    Inside `shared_bases` the basis is keyed by everything its build reads,
    all by value: the level, the number of bosons, (q0, t0), the symbolic
    slot and the weights.  A shared basis is read-only, like the matrices
    it keeps.
    """
    n = n_comp or point.n_weights
    weights = point.u[:n]
    key = (level, n, point.q0, point.t0, point.symbolic_slot, tuple(weights))
    basis = None if _shared is None else _shared.get(key)
    if basis is None:
        module = BosonModule(point, n, weights, level + 1, kind="qt")
        basis = GenMacBasis(level, GeneratorFamily(module))
        if _shared is not None:
            _shared[key] = basis
    return basis


# ---------------------------------------------------------------------------
# Integral forms


def _designated_index(tuples, level):
    target_last = Partition((1,) * level) if level else EMPTY
    for i, t in enumerate(tuples):
        if t[t.n_components - 1] == target_last and all(
            c == EMPTY for c in t.components[:-1]
        ):
            return i
    raise ValueError("designated column tuple not found")


class IntegralForms:
    """K and M-tilde renormalizations of a generalized Macdonald basis."""

    def __init__(self, basis: GenMacBasis):
        self.basis = basis
        family = basis.family
        self.tuples = tuples = basis.tuples
        # the PBW kets (`fock.pbw_word`: last component first)
        wmat = column_matrix([pbw_state(t, family) for t in tuples], tuples)
        avecs = linalg.transpose(linalg.mat_mul(linalg.inverse(wmat), basis.state_matrix()))
        des = _designated_index(tuples, basis.level)
        self.alpha = {}
        self.k_norm = {}  # K = k_norm * P
        for tup, avec in zip(tuples, avecs):
            a_des = avec[des]
            if not a_des:
                raise ArithmeticError("designated expansion coefficient vanishes at %r" % (tup,))
            self.alpha[tup] = [a / a_des for a in avec]
            self.k_norm[tup] = 1 / a_des
        # dual side: the designated coefficient of the dual eigenvector over
        # the PBW bras, one row of the inverse bra matrix B^-1, solved from
        # B^T x = e_des
        bmat = column_matrix([pbw_bra(t, family) for t in tuples], tuples)
        duals = [coordinates(basis.dual_bra(tup), tuples) for tup in tuples]
        e_des = [ONE if i == des else ZERO for i in range(len(tuples))]
        row = linalg.solve_unique(linalg.transpose(bmat), e_des)
        self.k_norm_dual = {}
        for tup, b_des in zip(tuples, linalg.mat_vec(duals, row)):
            if not b_des:
                raise ArithmeticError("designated dual coefficient vanishes at %r" % (tup,))
            self.k_norm_dual[tup] = 1 / b_des
        # the alternative renormalization M-tilde = m_tilde_norm * P, built
        # from Nekrasov factors
        q, t, u = basis.point.q, basis.point.t, basis.module.weights
        self.m_tilde_norm = {}
        for tup in tuples:
            scale = ONE
            for i in range(len(u)):
                for j in range(i + 1, len(u)):
                    scale = scale * nek_factor(tup[j], tup[i], u[j] / u[i], basis.point)
            for lam in tup:
                for (bi, bj) in lam.cells():
                    a, l = arm_leg(lam, bi, bj)
                    scale = scale * (1 - q**a * t ** (l + 1))
            self.m_tilde_norm[tup] = scale

    def k_state(self, tup):
        return state_scale(self.basis.state(tup), self.k_norm[tup])

    def k_bra(self, tup):
        return {
            m: c * self.k_norm_dual[tup] for m, c in self.basis.dual_bra(tup).items()
        }


def integral_forms(basis: GenMacBasis) -> IntegralForms:
    """The integral forms of basis, built on first use and kept on it.
    TypeError at a symbolic-q point."""
    basis._exact_only("integral_forms")
    if basis._forms is None:
        basis._forms = IntegralForms(basis)
    return basis._forms


# ---------------------------------------------------------------------------
# Crystal limit (q -> 0) through truncated Laurent series


def gen_hall_littlewood(level, sym_point):
    """Transition tables of the two-boson q -> 0 limit, with pole detection.

    The generators are taken in the crystal-normalized form (first boson
    rescaled by half powers of p), under which every zero-mode matrix entry
    is a rational function of q.  The basis solves for the transition
    coefficients over truncated Laurent series in s = (q/t)^(1/2), each with
    a certified value at s = 0 (`_crystal_eigenvectors`), and the limit is
    that exact value; a certified pole is recorded as None.
    Returns (limit table, dual limit table, poles).
    """
    if not sym_point.is_symbolic_q:
        raise ValueError("needs a symbolic-q point")
    module = BosonModule(sym_point, 2, sym_point.u, level + 1, kind="qt")
    family = GeneratorFamily(module, crystal_normalized=True)
    basis = GenMacBasis(level, family)
    poles = []
    table = {}
    dual_table = {}
    for lam in basis.tuples:
        row = {}
        drow = {}
        for mu in basis.tuples:
            for store, val in ((row, basis.transition(lam, mu)),
                               (drow, basis.dual_transition(lam, mu))):
                try:
                    store[mu] = sym_point.at_crystal(val)
                except PoleAtZero:
                    store[mu] = None
                    poles.append((lam, mu))
        table[lam] = row
        dual_table[lam] = drow
    return table, dual_table, poles


# ---------------------------------------------------------------------------
# Generalized Jack functions via the explicit differential operator


def _hbeta_apply(state, beta, uprime):
    """Apply the limit Hamiltonian on N-fold power-sum polynomials."""
    n_comp = len(uprime)
    out = {}

    def add(tup, c):
        if c:
            out[tup] = out.get(tup, ZERO) + c

    for tup, coeff in state.items():
        for i in range(n_comp):
            lam = tup[i]
            parts = lam.parts
            distinct = sorted(set(parts))
            # split: n m p_{n+m} d_n d_m ; the 1/2 cancels against ordered pairs
            for ai, n in enumerate(distinct):
                for m in distinct[ai:]:
                    if n == m:
                        mult = lam.mult(n)
                        ways = mult * (mult - 1) // 2
                        if not ways:
                            continue
                        c = coeff * Fraction(n * m) * ways
                    else:
                        c = coeff * Fraction(n * m) * lam.mult(n) * lam.mult(m)
                    rest = list(parts)
                    rest.remove(n)
                    rest.remove(m)
                    rest.append(n + m)
                    add(tup.replace(i, Partition(sorted(rest, reverse=True))), c)
            # join: beta (n+m) p_n p_m d_{n+m}; sum over splittings of each part
            for s in distinct:
                mult = lam.mult(s)
                for n in range(1, s // 2 + 1):
                    m = s - n
                    sym = 1 if n == m else 2
                    c = coeff * beta * Fraction(s) * mult * Fraction(sym, 2)
                    rest = list(parts)
                    rest.remove(s)
                    rest.extend([n, m])
                    add(tup.replace(i, Partition(sorted(rest, reverse=True))), c)
            # diagonal momentum-like terms
            for s in distinct:
                mult = lam.mult(s)
                c = coeff * (uprime[i] + (1 - beta) * Fraction(s, 2)) * s * mult
                add(tup, c)
            # inter-component flow from lower bosons
            for k in range(i):
                for s in distinct:
                    mult = lam.mult(s)
                    c = coeff * (1 - beta) * Fraction(s * s) * mult
                    rest = list(parts)
                    rest.remove(s)
                    new_i = Partition(sorted(rest, reverse=True))
                    target = tup.replace(i, new_i)
                    target = target.replace(
                        k, Partition(sorted(target[k].parts + (s,), reverse=True))
                    )
                    add(target, c)
    return out


def gen_jack(level, beta, uprime):
    """Generalized Jack functions at level n for weights u': the
    eigenvectors of H_beta (`_hbeta_apply`) over products of monomial
    functions (`symfunc.monomial_eigenvectors`).  Returns (tuples, rows,
    eigenvalues); row j has 1 in slot j and zeros before it."""
    tuples = list(enumerate_tuples(len(uprime), level))
    hmat = column_matrix([_hbeta_apply({m: ONE}, beta, uprime) for m in tuples], tuples)
    return (tuples, *monomial_eigenvectors(hmat, tuples))


# ---------------------------------------------------------------------------
# Ordering-support checks


def ordering_vanishing_check(level, point, n_comp=3):
    """Support checks for the refined ordering.

    (a) positive modes of the plain dressed current send a Macdonald function
        to combinations over strictly contained partitions;
    (b) the generalized Macdonald transition vanishes outside the refined
        ordering (and in particular outside the plain suffix ordering).
    """
    failures = []
    # (a) single-boson containment
    module = BosonModule(point, 1, [point.u[0]], level + 1, kind="qt")
    current = eta(0, module)
    for n in range(1, level + 1):
        # expand over Macdonald functions of the target level
        monos = module.basis(level - n)
        pinv = MacdonaldFrame(module, level - n).inverse()
        for lam in partitions(level):
            ket = product_macdonald_state(module, PartitionTuple([lam]))
            img = module.read_out(*current.mode_apply(n, module.indexed(ket), module))
            coords = linalg.mat_vec(pinv, coordinates(img, monos))
            for mu_tup, c in zip(monos, coords):
                if c and not lam.contains(mu_tup[0]):
                    failures.append(("eta-containment", lam, n, mu_tup[0]))
    # (b) transition support within the refined ordering
    basis = gen_macdonald(level, point, n_comp=n_comp)
    for lam in basis.tuples:
        for mu in basis.tuples:
            c = basis.transition(lam, mu)
            if lam != mu and c:
                if not star_refined_lt(mu, lam):
                    failures.append(("refined-support", lam, mu))
                if not star_lt(mu, lam):
                    failures.append(("plain-support", lam, mu))
    return failures
