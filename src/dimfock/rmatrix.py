"""Representation matrices of the universal R-matrix on tensor Fock modules.

The eigenbasis of the first-current zero mode transforms under the R-matrix
diagonally up to a component swap, so each level block is determined by one
proportionality constant per eigenvector.  With a third spectator boson the
constants follow from the requirement that spectator states stay inert;
blocks are then compared across bases, checked against Yang-Baxter, and
matched with the closed Nekrasov-factor expression.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .combinat import EMPTY, PartitionTuple
from .fock import column_matrix, coordinates
from .genmac import gen_macdonald, integral_forms
from .nekrasov import nek_factor

ZERO = Fraction(0)
ONE = Fraction(1)


def swap_tuple(tup: PartitionTuple, i1: int, i2: int) -> PartitionTuple:
    return tup.swap(i1 - 1, i2 - 1)


def swap_weights(u, i1, i2):
    u = list(u)
    u[i1 - 1], u[i2 - 1] = u[i2 - 1], u[i1 - 1]
    return u


def _eigenbases(level, point):
    """bases(u): the level eigenbasis at the weights u, one boson per weight.

    Each weight tuple's basis is built once, for as long as the caller keeps
    bases; a check that meets the same weights in several blocks shares it.
    """
    built = {}

    def bases(u):
        u = tuple(u)
        if u not in built:
            built[u] = gen_macdonald(level, point.with_u(list(u)))
        return built[u]

    return bases


def _swapped_back_states(basis_sw, i1, i2):
    """The eigenvectors of the swapped basis with bosons i1 and i2 exchanged
    back, as columns over the level-n monomials: column j is the eigenvector
    of tuples[j] with i1 and i2 exchanged."""
    states = [
        {swap_tuple(m, i1, i2): c for m, c in basis_sw.state(swap_tuple(t, i1, i2)).items()}
        for t in basis_sw.tuples
    ]
    return column_matrix(states, basis_sw.tuples)


def _boson_block(pop, k_vec, pinv):
    """The block over boson monomials with constants k_vec: pop diag(k_vec) S^-1."""
    return linalg.mat_mul([[c * k for c, k in zip(row, k_vec)] for row in pop], pinv)


class RBlock:
    """A level block over the boson monomials of basis, with its constants."""

    def __init__(self, basis, k_values, boson_matrix):
        self.basis = basis
        self.k_values = k_values
        self.boson_matrix = boson_matrix

    @property
    def eigen_matrix(self):
        """The block over the eigenbasis, S^-1 B S, computed on each read."""
        basis = self.basis
        return linalg.mat_mul(
            basis.state_matrix_inverse(), linalg.mat_mul(self.boson_matrix, basis.state_matrix())
        )


def solve_r_block(level, point, pair=(1, 2), n_comp=3):
    """Level block of the R-matrix acting on the chosen pair of bosons.

    The proportionality constants on eigenvectors supported purely outside
    the pair are 1; the rest are fixed by requiring that the action on pure
    spectator monomials involves no pair bosons.  The solved block is
    returned over the boson monomials; its eigen_matrix reads it over the
    eigenvectors.  Blocks on pairs other than (1, 2) follow by relabeling
    symmetry.
    """
    return _r_block(point.u[:n_comp], pair, _eigenbases(level, point))


def _r_block(u, pair, bases):
    """solve_r_block at the weights u, its eigenbases taken from bases."""
    if pair != (1, 2):
        return _relabelled_block(u, pair, bases)
    i1, i2 = pair
    basis = bases(u)
    level, tuples = basis.level, basis.tuples
    pinv = basis.state_matrix_inverse()
    pop = _swapped_back_states(bases(swap_weights(u, i1, i2)), i1, i2)

    fixed = {
        j: ONE
        for j, t in enumerate(tuples)
        if t[i1 - 1] == EMPTY and t[i2 - 1] == EMPTY
    }
    free = [j for j in range(len(tuples)) if j not in fixed]
    spectator_cols = [
        v for v, m in enumerate(tuples) if m[i1 - 1] == EMPTY and m[i2 - 1] == EMPTY
    ]
    active_rows = [v for v in range(len(tuples)) if v not in spectator_cols]
    if free:
        rows = []
        rhs = []
        for c in spectator_cols:
            pc = [pinv[j][c] for j in range(len(tuples))]
            for v in active_rows:
                row = [pop[v][j] * pc[j] for j in free]
                if any(row):
                    rows.append(row)
                    rhs.append(-sum((pop[v][j] * pc[j] for j in fixed), ZERO))
        sol = linalg.solve_unique(rows, rhs)
    else:
        sol = []
    k_vec = [fixed.get(j, None) for j in range(len(tuples))]
    for pos, j in enumerate(free):
        k_vec[j] = sol[pos]
    boson = _boson_block(pop, k_vec, pinv)
    # structural sanity: spectator columns are inert
    for c in spectator_cols:
        for v in range(len(tuples)):
            want = ONE if v == c else ZERO
            if boson[v][c] != want:
                raise AssertionError("spectator column not inert at level %d" % level)
    k_values = {t: k_vec[j] for j, t in enumerate(tuples)}
    return RBlock(basis, k_values, boson)


def _relabelled_block(u, pair, bases):
    i1, i2 = pair
    n_comp = len(u)
    order = [i1 - 1, i2 - 1] + [k for k in range(n_comp) if k not in (i1 - 1, i2 - 1)]
    inner = _r_block([u[k] for k in order], (1, 2), bases)

    def relabel(tup):
        return PartitionTuple([tup[k] for k in order])

    # the inner block is indexed by the same level-n tuples
    basis = bases(u)
    rows = [basis.index[relabel(m)] for m in basis.tuples]
    boson = [[inner.boson_matrix[a][b] for b in rows] for a in rows]
    k_values = {}
    for t, k in inner.k_values.items():
        original = [None] * n_comp
        for slot, comp in enumerate(order):
            original[comp] = t[slot]
        k_values[PartitionTuple(original)] = k
    return RBlock(basis, k_values, boson)


def yang_baxter_check(level, point):
    """B12 B13 B23 = B23 B13 B12 on the level block, three bosons."""
    u, bases = point.u[:3], _eigenbases(level, point)
    b12, b13, b23 = (_r_block(u, pair, bases).boson_matrix for pair in ((1, 2), (1, 3), (2, 3)))
    lhs = linalg.mat_mul(linalg.mat_mul(b12, b13), b23)
    rhs = linalg.mat_mul(linalg.mat_mul(b23, b13), b12)
    return lhs == rhs


def k_constant_formula(a, b, point):
    """Closed form of the proportionality constant from Nekrasov factors."""
    q, t = point.q, point.t
    u1, u2 = point.u[0], point.u[1]
    qt_half = point.p_half(a.size + b.size)
    return (
        qt_half
        * nek_factor(a, b, u1 / u2, point)
        / nek_factor(a, b, q * u1 / (t * u2), point)
    )


def two_boson_block(level, point, k_values):
    """R-matrix block on two bosons from the proportionality constants."""
    u, bases = point.u[:2], _eigenbases(level, point)
    return _pair_block(bases(u), bases(swap_weights(u, 1, 2)), k_values)


def _pair_block(basis, basis_sw, k_values):
    """The two-boson block over basis, with basis_sw the swapped-weight basis."""
    pop = _swapped_back_states(basis_sw, 1, 2)
    k_vec = [k_values[t] for t in basis.tuples]
    boson = _boson_block(pop, k_vec, basis.state_matrix_inverse())
    return RBlock(basis, dict(k_values), boson)


def k_from_spectator(level, point3):
    """Extract two-boson constants from the three-boson solve."""
    return _k_from_spectator(point3.u[:3], _eigenbases(level, point3))


def _k_from_spectator(u3, bases):
    block = _r_block(u3, (1, 2), bases)
    out = {}
    for t3, k in block.k_values.items():
        if t3[2] == EMPTY:
            out[PartitionTuple([t3[0], t3[1]])] = k
    return out


def integral_form_r_check(level, point3):
    """Integral-form statements for the two-boson blocks at one level.

    Verifies, for the block built from the spectator-extracted constants:
    (a) the R-action sends each integral form to its swapped counterpart,
    (b) the matrix elements equal <K_mu | K^op_lam> / <K_mu | K_mu>, also
        via the transition-matrix product, and
    (c) the constants match the closed Nekrasov-factor expression.
    Returns a list of failures (empty = pass).
    """
    point = point3
    failures = []
    bases = _eigenbases(level, point)
    basis, basis_sw = bases(point.u[:2]), bases(swap_weights(point.u[:2], 1, 2))
    block = _pair_block(basis, basis_sw, _k_from_spectator(point.u[:3], bases))
    forms = integral_forms(basis)
    forms_sw = integral_forms(basis_sw)
    tuples = basis.tuples

    def kop_state(tup):
        st = forms_sw.k_state(swap_tuple(tup, 1, 2))
        return {swap_tuple(m, 1, 2): c for m, c in st.items()}

    k_states = [forms.k_state(t) for t in tuples]
    kops = [kop_state(t) for t in tuples]
    # (a) R |K> = |K^op>
    for tup, kst, kop in zip(tuples, k_states, kops):
        img = linalg.mat_vec(block.boson_matrix, coordinates(kst, tuples))
        if img != coordinates(kop, tuples):
            failures.append(("swap-action", tup))
    # (b) matrix elements in the integral-form basis, two routes
    kinv = basis.renormalized_inverse(forms.k_norm)
    pair = basis.module.pair
    k_bras = [forms.k_bra(mu) for mu in tuples]
    norms = [pair(bra, kst) for bra, kst in zip(k_bras, k_states)]
    for lam, kop in zip(tuples, kops):
        expansion = linalg.mat_vec(kinv, coordinates(kop, tuples))
        for mu, bra, norm, c in zip(tuples, k_bras, norms, expansion):
            if pair(bra, kop) != c * norm:
                failures.append(("element-formula", lam, mu))
    # (c) closed form for the constants
    for tup in tuples:
        kf = k_constant_formula(tup[0], tup[1], point)
        if block.k_values[tup] != kf:
            failures.append(("k-closed-form", tup, block.k_values[tup], kf))
    return failures


def involution_check(level, point3):
    """Swap-conjugated block composed with itself is the identity."""
    u, bases = point3.u[:3], _eigenbases(level, point3)
    u_sw = swap_weights(u, 1, 2)
    basis, basis_sw = bases(u[:2]), bases(u_sw[:2])
    block = _pair_block(basis, basis_sw, _k_from_spectator(u, bases))
    block_sw = _pair_block(basis_sw, basis, _k_from_spectator(u_sw, bases))
    tuples = basis.tuples
    perm = [[ONE if swap_tuple(m, 1, 2) == t else ZERO for t in tuples] for m in tuples]
    conj = linalg.mat_mul(perm, linalg.mat_mul(block_sw.boson_matrix, perm))
    prod = linalg.mat_mul(conj, block.boson_matrix)
    return prod == linalg.identity(len(tuples))
