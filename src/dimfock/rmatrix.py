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
from .genmac import gen_macdonald, integral_forms, shared_bases
from .nekrasov import nek_factor

ZERO = Fraction(0)
ONE = Fraction(1)


def swap_tuple(tup: PartitionTuple) -> PartitionTuple:
    """The tuple with bosons 1 and 2 exchanged."""
    return tup.swap(0, 1)


def swap_weights(u):
    """The weights with the first two exchanged."""
    return [u[1], u[0], *u[2:]]


def _swapped_back_states(basis_sw):
    """The eigenvectors of the swapped basis with bosons 1 and 2 exchanged
    back, as columns over the level-n monomials: column j is the eigenvector
    of tuples[j] with 1 and 2 exchanged."""
    states = [
        {swap_tuple(m): c for m, c in basis_sw.state(swap_tuple(t)).items()}
        for t in basis_sw.tuples
    ]
    return column_matrix(states, basis_sw.tuples)


def _swapped_basis(level, point, n_comp):
    """The level eigenbasis over the first n_comp weights, 1 and 2 exchanged."""
    return gen_macdonald(level, point.with_u(swap_weights(point.u[:n_comp])))


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


@shared_bases()
def solve_r_block(level, point, pair=(1, 2)):
    """Level block of the R-matrix acting on the chosen pair of bosons, one
    boson per weight of the point.

    The proportionality constants on eigenvectors supported purely outside
    the pair are 1; the rest are fixed by requiring that the action on pure
    spectator monomials involves no pair bosons.  The solved block is
    returned over the boson monomials; its eigen_matrix reads it over the
    eigenvectors.  Blocks on pairs other than (1, 2) follow by relabeling
    symmetry.
    """
    if pair != (1, 2):
        return _relabelled_block(level, point, pair)
    basis = gen_macdonald(level, point)
    tuples = basis.tuples
    pinv = basis.state_matrix_inverse()
    pop = _swapped_back_states(_swapped_basis(level, point, point.n_weights))

    fixed = {j: ONE for j, t in enumerate(tuples) if t[0] == EMPTY and t[1] == EMPTY}
    free = [j for j in range(len(tuples)) if j not in fixed]
    spectator_cols = [v for v, m in enumerate(tuples) if m[0] == EMPTY and m[1] == EMPTY]
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


def _relabelled_block(level, point, pair):
    i1, i2 = pair
    u = point.u
    n_comp = len(u)
    order = [i1 - 1, i2 - 1] + [k for k in range(n_comp) if k not in (i1 - 1, i2 - 1)]
    inner = solve_r_block(level, point.with_u([u[k] for k in order]))

    def relabel(tup):
        return PartitionTuple([tup[k] for k in order])

    # the inner block is indexed by the same level-n tuples
    basis = gen_macdonald(level, point)
    rows = [basis.index[relabel(m)] for m in basis.tuples]
    boson = [[inner.boson_matrix[a][b] for b in rows] for a in rows]
    k_values = {}
    for t, k in inner.k_values.items():
        original = [None] * n_comp
        for slot, comp in enumerate(order):
            original[comp] = t[slot]
        k_values[PartitionTuple(original)] = k
    return RBlock(basis, k_values, boson)


@shared_bases()
def yang_baxter_check(level, point):
    """B12 B13 B23 = B23 B13 B12 on the level block, three bosons."""
    b12, b13, b23 = (
        solve_r_block(level, point, pair).boson_matrix for pair in ((1, 2), (1, 3), (2, 3))
    )
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


@shared_bases()
def two_boson_block(level, point, k_values):
    """R-matrix block on the first two bosons from the proportionality constants."""
    basis = gen_macdonald(level, point, n_comp=2)
    pop = _swapped_back_states(_swapped_basis(level, point, 2))
    k_vec = [k_values[t] for t in basis.tuples]
    boson = _boson_block(pop, k_vec, basis.state_matrix_inverse())
    return RBlock(basis, dict(k_values), boson)


@shared_bases()
def k_from_spectator(level, point3):
    """Extract two-boson constants from the three-boson solve."""
    block = solve_r_block(level, point3)
    return {
        PartitionTuple([t3[0], t3[1]]): k for t3, k in block.k_values.items() if t3[2] == EMPTY
    }


@shared_bases()
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
    block = two_boson_block(level, point, k_from_spectator(level, point))
    basis = block.basis
    forms = integral_forms(basis)
    forms_sw = integral_forms(_swapped_basis(level, point, 2))
    tuples = basis.tuples

    def kop_state(tup):
        st = forms_sw.k_state(swap_tuple(tup))
        return {swap_tuple(m): c for m, c in st.items()}

    k_states = [forms.k_state(t) for t in tuples]
    kops = [kop_state(t) for t in tuples]
    # (a) R |K> = |K^op>
    for tup, kst, kop in zip(tuples, k_states, kops):
        img = linalg.mat_vec(block.boson_matrix, coordinates(kst, tuples))
        if img != coordinates(kop, tuples):
            failures.append(("swap-action", tup))
    # (b) matrix elements in the integral-form basis, two routes; the K
    # basis is the eigenbasis scaled by k_norm
    pair = basis.module.pair
    k_bras = [forms.k_bra(mu) for mu in tuples]
    norms = [pair(bra, kst) for bra, kst in zip(k_bras, k_states)]
    for lam, kop in zip(tuples, kops):
        expansion = basis.expand(kop)
        for mu, bra, norm in zip(tuples, k_bras, norms):
            if pair(bra, kop) != expansion[mu] / forms.k_norm[mu] * norm:
                failures.append(("element-formula", lam, mu))
    # (c) closed form for the constants
    for tup in tuples:
        kf = k_constant_formula(tup[0], tup[1], point)
        if block.k_values[tup] != kf:
            failures.append(("k-closed-form", tup, block.k_values[tup], kf))
    return failures


@shared_bases()
def involution_check(level, point3):
    """Swap-conjugated block composed with itself is the identity."""
    point_sw = point3.with_u(swap_weights(point3.u))
    block, block_sw = (
        two_boson_block(level, pt, k_from_spectator(level, pt)) for pt in (point3, point_sw)
    )
    tuples = block.basis.tuples
    perm = [[ONE if swap_tuple(m) == t else ZERO for t in tuples] for m in tuples]
    conj = linalg.mat_mul(perm, linalg.mat_mul(block_sw.boson_matrix, perm))
    prod = linalg.mat_mul(conj, block.boson_matrix)
    return prod == linalg.identity(len(tuples))
