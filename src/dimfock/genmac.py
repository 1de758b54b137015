"""Generalized Macdonald bases: eigenvectors of the zero mode of the first
current, unitriangular over products of ordinary Macdonald functions.

The canonical tuple order (larger elements first) is a linear extension of
the suffix-sum ordering, so the zero-mode matrix is triangular in it and
each eigenvector follows from a back-substitution divided by eigenvalue
differences; genericity of the point keeps those differences nonzero.
The product-Macdonald kets are orthogonal for the Fock pairing, so their
inverse matrix is their bras over their norms (`macdonald_frame`).  The
left eigenvectors of the same triangular zero mode give the dual bras and
the inverse state matrix, so no eigenbasis needs a general matrix inverse.
At a symbolic-q point the zero mode is conjugated, and checked, over the
rational-function field Q(s), and the eigenvectors are solved over truncated
Laurent series in s, which certify their values at s = 0 (q = 0).
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
from .scalars import Laurent, PoleAtZero, PrecisionError, eigenvalue_of, laurent
from .symfunc import macdonald_p, monomial_in_p

ZERO = Fraction(0)
ONE = Fraction(1)


def product_state(module, tup, func_per_component):
    """prod_i f_i(a^(i)_{-n}) |u> for symmetric functions f_i in the p basis."""
    state = module.vacuum()
    for i, f in enumerate(func_per_component):
        state = apply_symfunc(module, f, [(i, ONE)], state)
    return state


def product_macdonald_state(module, tup):
    point = module.point
    return product_state(
        module, tup, [macdonald_p(lam, point.q, point.t) for lam in tup.components]
    )


def product_monomial_state(module, tup):
    return product_state(module, tup, [monomial_in_p(lam) for lam in tup.components])


def macdonald_frame(module, level):
    """(P, P^-1, N) at one level, without elimination.

    P holds the product-Macdonald kets as columns over the level-n
    monomials.  The kets are orthogonal for the Fock pairing, which is
    diagonal on monomials with entries G_v (`monomial_gram`), so
    P^T G P = diag(N) with the norms N_j = sum_v G_v P[v][j]^2, and
    P^-1 = N^-1 P^T G: row j is the bra of ket j over its norm.
    """
    tuples = module.basis(level)
    kets = [product_macdonald_state(module, t) for t in tuples]
    grams = {m: module.monomial_gram(m) for m in tuples}
    bras = [{m: c * grams[m] for m, c in ket.items()} for ket in kets]
    norms = [module.pair(bra, ket) for bra, ket in zip(bras, kets)]
    pinv = [coordinates(state_scale(bra, 1 / nj), tuples) for bra, nj in zip(bras, norms)]
    return column_matrix(kets, tuples), pinv, norms


def zero_mode_conjugation(level, family):
    """(P, P^-1, N, P^-1 X0 P) at one level.

    The first three are `macdonald_frame`; the last is the first-current
    zero mode X0 in the product-Macdonald basis, indexed by the same tuples.
    """
    pmat, pinv, norms = macdonald_frame(family.module, level)
    x0 = operator_matrix(family.x_mode(1, 0), family.module, level, level)
    return pmat, pinv, norms, linalg.mat_mul(pinv, linalg.mat_mul(x0, pmat))


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


def _crystal_eigenvectors(x0_pp, norms, tuples, prec=SERIES_PREC):
    """`_eigenvectors` over truncated Laurent series in s, at a symbolic-q
    point, with every entry of C and of the dual coefficients a Fraction or
    a Laurent whose value at s = 0 is certified.

    The exact P^-1 X0 P and norms are expanded to relative precision prec; an
    exact 0 stays exact, so the solves see the exact matrix's zero pattern.
    When an entry is left uncertified, or a solve divides by an element with
    no known nonzero coefficient, the solve starts again at twice the
    precision.
    """
    while True:
        conj = [[laurent(x, prec) for x in row] for row in x0_pp]
        try:
            coeff, left, dual_coeff = _eigenvectors(conj, [laurent(x, prec) for x in norms], tuples)
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
        tuples = self.tuples
        pmat, pinv, norms, x0_pp = zero_mode_conjugation(self.level, self.family)
        self.pmat = pmat
        self.eigenvalues = [eigenvalue_of(t, self.point) for t in tuples]
        # Per column j: an eigenvalue no earlier column has (distinct
        # eigenvalues make the left eigenvectors below the rows of C^-1) and
        # the closed-form eigenvalue on the diagonal, both on the exact
        # matrix.  The triangular solves check that no entry lies above the
        # diagonal in the canonical order.
        first = {}
        for j, (t, ev) in enumerate(zip(tuples, self.eigenvalues)):
            other = first.setdefault(ev, t)
            if other != t:
                raise EigenvalueCollision("%r vs %r" % (other, t))
            if x0_pp[j][j] != ev:
                raise AssertionError("diagonal eigenvalue mismatch at %r" % (t,))
        solve = _crystal_eigenvectors if self.point.is_symbolic_q else _eigenvectors
        self.coeff, self._left, self.dual_coeff = solve(x0_pp, norms, tuples)
        self.norms, self._pinv = norms, pinv
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
        d_j c_j = 1 by the two triangular shapes.  TypeError at a symbolic-q
        point.
        """
        self._exact_only("state_matrix_inverse")
        if self._state_inverse is None:
            self._state_inverse = linalg.mat_mul(self._left, self._pinv)
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
        nj = self.norms[j]
        return {m: nj * x for m, x in zip(self.tuples, self.state_matrix_inverse()[j]) if x}

    def monomial_transition(self):
        """Transition matrix over products of monomial symmetric functions."""
        mono_states = [product_monomial_state(self.module, t) for t in self.tuples]
        minv = linalg.inverse(column_matrix(mono_states, self.tuples))
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
        # PBW vectors with reversed component order
        wmat = column_matrix([pbw_state(t, family, prime=True) for t in tuples], tuples)
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
        # reversed-order PBW bras, one row of the inverse bra matrix
        bmat = column_matrix([pbw_bra(t, family, prime=True) for t in tuples], tuples)
        duals = [coordinates(basis.dual_bra(tup), tuples) for tup in tuples]
        self.k_norm_dual = {}
        for tup, b_des in zip(tuples, linalg.mat_vec(duals, linalg.inverse(bmat)[des])):
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
    """Generalized Jack transition matrix over products of monomials."""
    from .combinat import enumerate_tuples

    n_comp = len(uprime)
    # the tuples also index the power-sum monomials of the same level
    tuples = list(enumerate_tuples(n_comp, level))
    # m-products in power-sum coordinates
    m_products = []
    for tup in tuples:
        st = {PartitionTuple([EMPTY] * n_comp): ONE}
        for i, lam in enumerate(tup):
            f = monomial_in_p(lam)
            nxt = {}
            for base, c in st.items():
                for plam, pc in f.coeffs.items():
                    merged = base.replace(
                        i, Partition(sorted(base[i].parts + plam.parts, reverse=True))
                    )
                    nxt[merged] = nxt.get(merged, ZERO) + c * pc
            st = nxt
        m_products.append(st)
    mmat = column_matrix(m_products, tuples)
    minv = linalg.inverse(mmat)
    # operator matrix in the p-monomial basis, then over m-products
    hmat = column_matrix([_hbeta_apply({m: ONE}, beta, uprime) for m in tuples], tuples)
    h_mm = linalg.mat_mul(minv, linalg.mat_mul(hmat, mmat))
    n = len(tuples)
    eigvals = [h_mm[j][j] for j in range(n)]
    rows = [linalg.triangular_eigenvector(h_mm, j, tuples) for j in range(n)]
    return tuples, rows, eigvals


# ---------------------------------------------------------------------------
# Ordering-support checks


def ordering_vanishing_check(level, point, n_comp=3):
    """Support checks for the refined ordering.

    (a) positive modes of the plain dressed current send a Macdonald function
        to combinations over strictly contained partitions;
    (b) the generalized Macdonald transition vanishes outside the refined
        ordering (and in particular outside the plain suffix ordering).
    """
    from .combinat import partitions

    failures = []
    # (a) single-boson containment
    module = BosonModule(point, 1, [point.u[0]], level + 1, kind="qt")
    current = eta(0, module)
    for n in range(1, level + 1):
        # expand over Macdonald functions of the target level
        monos = module.basis(level - n)
        _, pinv, _ = macdonald_frame(module, level - n)
        for lam in partitions(level):
            img = current.mode_apply(n, product_macdonald_state(module, PartitionTuple([lam])), module)
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
