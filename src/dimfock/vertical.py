"""The Young-diagram-basis representation, higher Hamiltonians, and the
box-adding/removing action on the integral forms.

Vertical generators act on single partitions with delta-function support at
the box characters chi = u t^(1-i) q^(j-1); modes are read off the support.
The commuting Hamiltonians on the Fock side come from nested commutators of
the first-current modes, with eigenvalues given by coefficient extraction
from the edge series B+ (no contour integration anywhere).
"""

from __future__ import annotations

from fractions import Fraction

from .combinat import (
    BoxCoord,
    Partition,
    PartitionTuple,
    add_remove_sets,
    enumerate_tuples,
    partitions,
)
from .fock import (
    BosonModule,
    GeneratorFamily,
    LinOp,
    state_combination,
    state_scale,
)
from .genmac import gen_macdonald, integral_forms
from .relations import relation_failures
from .scalars import eigenvalue_of

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Edge factors and series


def edge_factor_plus(lam: Partition, i: int, point):
    """A+ coefficient for adding a box to row i (1 <= i <= len+1)."""
    q, t = point.q, point.t
    out = 1 - t
    li = lam.part(i)
    for j in range(1, i):
        lj = lam.part(j)
        out = out * (1 - q ** (li - lj) * t ** (-i + j + 1))
        out = out * (1 - q ** (li - lj + 1) * t ** (-i + j - 1))
        out = out / (1 - q ** (li - lj) * t ** (-i + j))
        out = out / (1 - q ** (li - lj + 1) * t ** (-i + j))
    return out


def edge_factor_minus(lam: Partition, i: int, point):
    """A- coefficient for removing a box from row i (1 <= i <= len)."""
    q, t = point.q, point.t
    li = lam.part(i)
    out = (1 - 1 / t) * (1 - q ** (lam.part(i + 1) - li)) / (
        1 - q ** (lam.part(i + 1) - li + 1) / t
    )
    for j in range(i + 1, lam.length + 1):
        lj = lam.part(j)
        lj1 = lam.part(j + 1)
        out = out * (1 - q ** (lj - li + 1) * t ** (-j + i - 1))
        out = out * (1 - q ** (lj1 - li) * t ** (-j + i))
        out = out / (1 - q ** (lj1 - li + 1) * t ** (-j + i - 1))
        out = out / (1 - q ** (lj - li) * t ** (-j + i))
    return out


def _edge_factors(lam: Partition, sign: int, point):
    """(mul, div) with B+ or B- = prod (1 - c z) over mul / prod (1 - d z) over div.

    The product runs over the rows up to len+1; the factor pair of row len+1
    is asserted to cancel identically and is left out (all later factors
    are 1).
    """
    q, t = point.q, point.t
    if sign > 0:
        mul = [t * q ** (lam.part(1) - 1)]
        div = [q ** lam.part(1)]
        for i in range(1, lam.length + 2):
            mul.append(q ** lam.part(i) * t ** -i)
            mul.append(q ** (lam.part(i + 1) - 1) * t ** (-i + 1))
            div.append(q ** lam.part(i + 1) * t ** -i)
            div.append(q ** (lam.part(i) - 1) * t ** (-i + 1))
    else:
        mul = [q ** (1 - lam.part(1)) / t]
        div = [q ** (-lam.part(1))]
        for i in range(1, lam.length + 2):
            mul.append(q ** (-lam.part(i)) * t**i)
            mul.append(q ** (1 - lam.part(i + 1)) * t ** (i - 1))
            div.append(q ** (-lam.part(i + 1)) * t**i)
            div.append(q ** (1 - lam.part(i)) * t ** (i - 1))
    assert sorted(mul[-2:]) == sorted(div[-2:]), "edge product failed to stabilize"
    return mul[:-2], div[:-2]


def _factor_coefficients(mul, div, order):
    """Coefficients of z^0 .. z^(order-1) in prod (1 - c z) / prod (1 - d z),
    by one in-place pass per linear factor."""
    out = [ONE] + [ZERO] * (order - 1)
    for c in mul:
        for k in range(order - 1, 0, -1):
            out[k] = out[k] - c * out[k - 1]
    for d in div:
        for k in range(1, order):
            out[k] = out[k] + d * out[k - 1]
    return out


def edge_series(lam: Partition, sign: int, order: int, point):
    """B+ or B- as its coefficients of z^0 .. z^(order-1)."""
    return _factor_coefficients(*_edge_factors(lam, sign, point), order)


# ---------------------------------------------------------------------------
# Vertical action with delta-function bookkeeping


def chi_character(box: BoxCoord, point):
    """chi = u_comp * t^(1-i) * q^(j-1)."""
    return point.u[box.comp - 1] * point.t ** (1 - box.row) * point.q ** (box.col - 1)


def vertical_action(gen: str, lam: Partition, point, u_weight):
    """x+ or x- acting on a basis diagram: a list of (target diagram,
    coefficient, support point)."""
    q, t = point.q, point.t
    if gen == "x+":
        out = []
        for i in range(1, lam.length + 2):
            if i > 1 and lam.part(i) == lam.part(i - 1):
                continue
            coeff = edge_factor_plus(lam, i, point)
            support = q ** lam.part(i) * t ** (1 - i) * u_weight
            out.append((lam.add_box(i), coeff, support))
        return out
    if gen == "x-":
        out = []
        pref = point.p_half()
        for i in range(1, lam.length + 1):
            if lam.part(i) == lam.part(i + 1):
                continue
            coeff = pref * edge_factor_minus(lam, i, point)
            support = q ** (lam.part(i) - 1) * t ** (1 - i) * u_weight
            out.append((lam.remove_box(i), coeff, support))
        return out
    raise ValueError(gen)


def x_mode(gen, n, lam, point, u_weight):
    """Mode n of x+ or x- (gen "x+" or "x-") on a diagram, as a state over diagrams."""
    return {
        target: coeff * support**n
        for target, coeff, support in vertical_action(gen, lam, point, u_weight)
    }


def psi_modes(sign, lam, point, u_weight, k_max):
    """Modes of psi+ (sign +1, modes 0..k_max) or psi- (sign -1, modes
    0..-k_max) on a diagram, listed by |k|; one edge series serves them all."""
    series = edge_series(lam, sign, k_max + 1, point)
    return [point.p_half(sign) * series[k] * u_weight ** (sign * k) for k in range(k_max + 1)]


def _x_op(gen, n, point, u_weight):
    """Mode n of x+ or x- as a LinOp on states over diagrams."""
    return LinOp(
        lambda s: state_combination(
            [(c, x_mode(gen, n, lam, point, u_weight)) for lam, c in s.items()]
        )
    )


def dim_relation_check(level, point, u_weight):
    """[x+_m, x-_n] = c (psi+_{m+n} - psi-_{m+n}) for |m|, |n| <= 2 on diagrams
    up to a size."""
    q, t = point.q, point.t
    c = (1 - q) * (1 - 1 / t) / (1 - q / t)
    modes = range(-2, 3)
    ops = {(gen, m): _x_op(gen, m, point, u_weight) for gen in ("x+", "x-") for m in modes}

    def relations(lam, size):
        plus, minus = (psi_modes(sign, lam, point, u_weight, 4) for sign in (1, -1))
        for m in modes:
            for n in modes:
                k = m + n
                psi = (plus[k] if k >= 0 else ZERO) - (minus[-k] if k <= 0 else ZERO)
                yield (lam, m, n), ops["x+", m], ops["x-", n], [(c * psi, ())]

    return relation_failures(partitions, lambda lam: lam, level, relations)


# ---------------------------------------------------------------------------
# Higher Hamiltonians on the Fock side


def hamiltonian(k, family: GeneratorFamily) -> LinOp:
    """H_1 is the zero mode; H_k = [X_-1, [X_0, ... [X_0, X_1] ...]]."""
    x0 = family.x_mode(1, 0)
    if k == 1:
        return x0
    inner = family.x_mode(1, 1)
    for _ in range(k - 2):
        inner = x0.commutator(inner)
    return family.x_mode(1, -1).commutator(inner)


def higher_eigenvalues(k_max, tup: PartitionTuple, point):
    """[E_1, ..., E_k_max], by coefficient extraction from the product of the
    B+ edge series at u_i z: E_k is (1 - q)^(k-1) (1 - 1/t)^(k-1) / (1 - t/q)
    times the coefficient of z^k.

    Scaling z by u_i scales each linear factor's constant by u_i, so the
    product is one list of factors, expanded once for the whole tower.
    """
    q, t = point.q, point.t
    mul, div = [], []
    for lam, u in zip(tup.components, point.u):
        lam_mul, lam_div = _edge_factors(lam, +1, point)
        mul += [c * u for c in lam_mul]
        div += [d * u for d in lam_div]
    coeffs = _factor_coefficients(mul, div, k_max + 1)
    step = (1 - q) * (1 - 1 / t)
    pref = 1 / (1 - t / q)
    tower = []
    for k in range(1, k_max + 1):
        tower.append(pref * coeffs[k])
        pref = pref * step
    return tower


def higher_hamiltonian_check(k_max, level, point, n_comp):
    """Commutation and eigenvalue checks for the Hamiltonian tower."""
    module = BosonModule(point, n_comp, point.u[:n_comp], level + 2, kind="qt")
    family = GeneratorFamily(module)
    failures = []
    hams = {k: hamiltonian(k, family) for k in range(1, k_max + 1)}
    # pairwise commutation on every basis state up to the level
    for ka in range(1, min(k_max, 3) + 1):
        for kb in range(ka + 1, min(k_max, 3) + 1):
            for n in range(level + 1):
                for tup in module.basis(n):
                    st = {tup: ONE}
                    if hams[ka].commutator(hams[kb])(st):
                        failures.append(("commutator", ka, kb, tup))
    towers = {
        tup: higher_eigenvalues(k_max, tup, point)
        for n in range(level + 1)
        for tup in enumerate_tuples(n_comp, n)
    }
    # eigenvalues on the eigenbasis
    for n in range(level + 1):
        basis = gen_macdonald(n, point, n_comp)
        for tup in basis.tuples:
            st = basis.state(tup)
            for k in range(1, k_max + 1):
                img = hams[k](st)
                want = state_scale(st, towers[tup][k - 1])
                if img != want:
                    failures.append(("eigenvalue", k, tup))
    # the first Hamiltonian eigenvalue is the proved closed form
    for n in range(level + 1):
        for tup in enumerate_tuples(n_comp, n):
            if towers[tup][0] != eigenvalue_of(tup, point):
                failures.append(("first-eigenvalue", tup))
    return failures


# ---------------------------------------------------------------------------
# Box-adding action on the alternative integral forms


def xi_plus(box: BoxCoord, point, n_comp):
    ell, i, j = box
    q, t = point.q, point.t
    u = point.u
    out = Fraction((-1) ** (n_comp + ell)) * point.p_half(-(ell + 1))
    out = out * t ** ((n_comp - ell) * i) * q ** ((ell - n_comp + 1) * j)
    num = ONE
    for k in range(1, n_comp - ell + 1):
        num = num * u[ell + k - 1]
    return out * num * u[ell - 1] ** -(n_comp - ell - 1)


def xi_minus(box: BoxCoord, point, n_comp):
    ell, i, j = box
    q, t = point.q, point.t
    u = point.u
    out = Fraction((-1) ** ell) * point.p_half(ell - 1)
    out = out * t ** ((ell - 2) * i) * q ** ((1 - ell) * j)
    num = ONE
    for k in range(1, ell):
        num = num * u[k - 1]
    return out * num * u[ell - 1] ** -(ell - 2)


def box_coefficient(sign, lam_tup, mu_tup, point, n_comp):
    """The conjectured coefficient of the edge move lam -> mu."""
    add_l, rem_l = add_remove_sets(lam_tup)
    if sign > 0:
        moved = _box_difference(lam_tup, mu_tup)
        chi_x = chi_character(moved, point)
        out = xi_plus(moved, point, n_comp)
        for y in add_l:
            out = out * (1 - chi_x / chi_character(y, point) * point.p)
        for y in rem_l:
            if y != moved:
                out = out / (1 - chi_x / chi_character(y, point))
        return out
    moved = _box_difference(mu_tup, lam_tup)
    chi_x = chi_character(moved, point)
    out = xi_minus(moved, point, n_comp)
    for y in rem_l:
        out = out * (1 - chi_character(y, point) / chi_x * point.p)
    for y in add_l:
        if y != moved:
            out = out / (1 - chi_character(y, point) / chi_x)
    return out


def _box_difference(big: PartitionTuple, small: PartitionTuple) -> BoxCoord:
    """The single box of `big` missing from `small`."""
    for c in range(big.n_components):
        if big[c] != small[c]:
            for i in range(1, big[c].length + 1):
                if big[c].part(i) == small[c].part(i) + 1:
                    return BoxCoord(c + 1, i, big[c].part(i))
    raise ValueError("tuples do not differ by one box")


def action_conjecture_check(level, point, n_comp):
    """Edge-move expansion of the first-current modes on the integral forms.

    For every tuple up to the level, expands X_{+1} and X_{-1} applied to
    the renormalized eigenvector over the neighbouring renormalized basis
    and compares each coefficient with the box formula.  The M-tilde forms
    are the eigenvectors scaled by m_tilde_norm, so the coefficient of the
    move lam -> mu is the plain one times m_tilde(lam) / m_tilde(mu).
    """
    failures = []
    module = BosonModule(point, n_comp, point.u[:n_comp], level + 1, kind="qt")
    family = GeneratorFamily(module)
    bases = [gen_macdonald(n, point, n_comp) for n in range(level + 2)]
    norms = [integral_forms(basis).m_tilde_norm for basis in bases]
    for n in range(level + 1):
        # per move: its name, sign, target level and coefficient table
        moves = [
            (name, sign, n - sign, _moves(family, sign, bases[n], bases[n - sign]))
            for name, sign in (("raising", +1), ("lowering", -1))
            if n - sign >= 0
        ]
        for tup in bases[n].tuples:
            for name, sign, target, table in moves:
                for mu, c in table[tup].items():
                    big, small = (tup, mu) if sign > 0 else (mu, tup)
                    want = (
                        box_coefficient(sign, tup, mu, point, n_comp)
                        if _contains(big, small)
                        else ZERO
                    )
                    if c * norms[n][tup] / norms[target][mu] != want:
                        failures.append((name, tup, mu))
    return failures


def _contains(big: PartitionTuple, small: PartitionTuple) -> bool:
    return all(b.contains(s) for b, s in zip(big, small))


def _moves(family, sign, source, target):
    """X_{+1} (sign +1) or X_{-1} (sign -1) of the family on each eigenvector
    of source, expanded over the eigenvectors of target: {tup: {mu: c}}."""
    op = family.x_mode(1, sign)
    return {tup: target.expand(op(source.state(tup))) for tup in source.tuples}


def eigen_move_coefficients(sign, level, point, n_comp):
    """Expansion of X_{+-1} over the plain eigenbasis (no renormalization)."""
    module = BosonModule(point, n_comp, point.u[:n_comp], level + 2, kind="qt")
    source, target = (gen_macdonald(n, point, n_comp) for n in (level, level - sign))
    return _moves(GeneratorFamily(module), sign, source, target)


def raising_lowering_duality_check(level, point, n_comp):
    """c+ at (q,t,u) against -c- at (1/t, 1/q, reversed rescaled weights)."""
    cplus = eigen_move_coefficients(+1, level, point, n_comp)
    q0, t0 = point.q0, point.t0
    pref = point.p_half(n_comp - 1)
    u_new = [pref * point.u[n_comp - 1 - i] for i in range(n_comp)]
    point2 = point.with_params(1 / t0, 1 / q0, u_new)

    def dual_tuple(tup):
        return PartitionTuple([tup[n_comp - 1 - i].conjugate() for i in range(n_comp)])

    # X+ lowers the level, so every mu has size level - 1
    cminus2 = eigen_move_coefficients(-1, level - 1, point2, n_comp)
    failures = []
    for lam, row in cplus.items():
        for mu, c in row.items():
            if not c:
                continue
            got = cminus2[dual_tuple(mu)].get(dual_tuple(lam), ZERO)
            if c != -got:
                failures.append((lam, mu))
    return failures
