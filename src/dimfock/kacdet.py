"""PBW Gram (Shapovalov) matrices, the Kac determinant factorization,
Whittaker vectors and singular-vector verification.

The determinant of the level-n Gram matrix of PBW vectors factorizes into a
(q,t) prefactor times products of weight-lattice lines (u_i - q^s t^-r u_j).
The Gram is `fock.pbw_gram`'s, on the primed PBW words (last component
first); the unprimed order changes the basis but not the determinant.
Specializing a weight onto such a line produces a singular vector, which is
verified here through the annihilation conditions alone and then identified
with a generalized Macdonald vector by its eigenvalue.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .combinat import (
    EMPTY,
    Partition,
    PartitionTuple,
    b_factor,
    b_factor_neg,
    enumerate_tuples,
    tuple_count,
)
from .fock import (
    BosonModule,
    CrystalVirasoro,
    GeneratorFamily,
    VirasoroFamily,
    bra_apply,  # unused; perfbench test_rebinding_reaches_names_bound_by_from_imports needs it
    pbw_gram,
    state_scale,
)
from .genmac import zero_mode_conjugation
from .scalars import eigenvalue_of
from .symfunc import macdonald_p

ZERO = Fraction(0)
ONE = Fraction(1)


def kac_det_formula(n, n_comp, point):
    """Closed-form level-n Kac determinant of the PBW Gram matrix."""
    q, t = point.q, point.t
    u = point.u[:n_comp]
    det = ONE
    for tup in enumerate_tuples(n_comp, n):
        for lam in tup:
            det = det * b_factor(lam, q) * b_factor_neg(lam, 1 / t)
    uprod = ONE
    for ui in u:
        uprod = uprod * ui
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            if r * s > n:
                continue
            base = uprod**2
            for i in range(len(u)):
                for j in range(i + 1, len(u)):
                    base = base * (u[i] - q**s * t ** (-r) * u[j])
                    base = base * (u[i] - q ** (-r) * t**s * u[j])
            det = det * base ** tuple_count(n_comp, n - r * s)
    return det


def pbw_gram_matrix(n, point, n_comp):
    module = BosonModule(point, n_comp, point.u[:n_comp], n, kind="qt")
    family = GeneratorFamily(module)
    return pbw_gram(n, family)


def kac_det_check(n, n_comp, point):
    """(computed Gram determinant, closed-form value)."""
    gram, _ = pbw_gram_matrix(n, point, n_comp)
    return linalg.determinant(gram), kac_det_formula(n, n_comp, point)


# ---------------------------------------------------------------------------
# Whittaker vectors


def whittaker_norm(order, k_weight, point):
    """<G|G> = sum_n Lambda^(4n) B^((1^n),(1^n)): entry n is the coefficient of
    Lambda^(4n), n <= order.

    B is the Shapovalov (PBW Gram) matrix of the deformed Virasoro modes.
    One family on a module of cap order serves every level, so the levels
    share its memo of PBW word suffixes.
    """
    family = VirasoroFamily(BosonModule(point, 1, [k_weight], order, kind="qt"))
    return [ONE] + [_ones_inverse_entry(n, family) for n in range(1, order + 1)]


def crystal_whittaker_norm(order, point, direct=False):
    """Crystal Whittaker norm by instanton order; closed form or via direct Gram
    inversion."""
    if direct:
        module = BosonModule(point, 1, [point.fresh_rational("crystal-k")], order, kind="crystal")
        family = CrystalVirasoro(module)
        return [_ones_inverse_entry(n, family) for n in range(order + 1)]
    return [1 / b_factor(Partition((1,) * n), 1 / point.t) for n in range(order + 1)]


def _ones_inverse_entry(n, family):
    """Diagonal entry of the inverse level-n Gram at the PBW word (1^n):
    entry c of the solution of G x = e_c, one column of G^-1."""
    gram, tuples = pbw_gram(n, family)
    column = tuples.index(PartitionTuple([Partition((1,) * n)]))
    unit = [ONE if i == column else ZERO for i in range(len(tuples))]
    return linalg.solve_unique(gram, unit)[column]


# ---------------------------------------------------------------------------
# Singular vectors


def rectangle_tuple(n_comp, i, r, s):
    """The tuple whose last i slots read ((s^r), empty, ..., empty)."""
    comps = [EMPTY] * n_comp
    comps[n_comp - i] = Partition((s,) * r)
    return PartitionTuple(comps)


def constrained_point_single(point, n_comp, i, r, s):
    """Impose u_{N-i} = q^s t^(-r) u_{N-i+1} on the weights of point."""
    u = list(point.u[:n_comp])
    u[n_comp - i - 1] = point.q**s * point.t ** (-r) * u[n_comp - i]
    return point.with_u(u)


def staircase_tuple_A(n_comp, rs, ss):
    """Case of weakly decreasing r: all boxes in the last component."""
    parts = []
    for l in range(n_comp - 1, 0, -1):
        width = sum(ss[:l])
        count = rs[l - 1] - (rs[l] if l < n_comp - 1 else 0)
        parts.extend([width] * count)
    lam = Partition(sorted((p for p in parts if p), reverse=True))
    comps = [EMPTY] * (n_comp - 1) + [lam]
    return PartitionTuple(comps)


def staircase_tuple_B(n_comp, rs, ss):
    """Case of strictly increasing r: rectangles spread over components."""
    comps = [EMPTY]
    for k in range(2, n_comp + 1):
        width = sum(ss[n_comp - k : n_comp - 1])
        count = rs[n_comp - k] - (rs[n_comp - k - 1] if n_comp - k - 1 >= 0 else 0)
        comps.append(Partition((width,) * count if count > 0 and width > 0 else ()))
    return PartitionTuple(comps)


def constrained_point_multi(point, n_comp, rs, ss):
    """Impose u_i = q^(s_{N-i}) t^(-r_{N-i}+r_{N-i-1}) u_{i+1} for all i."""
    q, t = point.q, point.t
    u = [ONE] * n_comp
    u[n_comp - 1] = point.u[n_comp - 1]
    r_ext = [0] + list(rs)  # r_0 = 0
    for i in range(n_comp - 1, 0, -1):
        s_exp = ss[n_comp - i - 1]
        r_exp = -rs[n_comp - i - 1] + r_ext[n_comp - i - 1]
        u[i - 1] = q**s_exp * t**r_exp * u[i]
    return point.with_u(u)


def single_eigenvector(level, family, tup):
    """One generalized Macdonald vector at a possibly degenerate point.

    Constrained weights may collide eigenvalues of unrelated columns, so only
    the designated column is solved; a collision actually coupled to this
    eigenvector would contradict its uniqueness and raises.
    """
    tuples = family.module.basis(level)
    conj = zero_mode_conjugation(level, family)
    vec = linalg.triangular_eigenvector(conj.exact(), tuples.index(tup), tuples)
    state = {m: c for m, c in zip(tuples, linalg.mat_vec(conj.frame.pmat, vec)) if c}
    # exact eigenvector property at the closed-form eigenvalue
    ev = eigenvalue_of(tup, family.module.point)
    if family.x_mode(1, 0)(state) != state_scale(state, ev):
        raise AssertionError("eigenvector verification failed at %r" % (tup,))
    return state


def annihilation_report(state, family, level, n_comp):
    """Raising modes applied to a state: list of (j, m) with nonzero image."""
    bad = []
    for j in range(1, n_comp + 1):
        for m in range(1, level + 1):
            img = family.x_mode(j, m)(state)
            if img:
                bad.append((j, m))
    return bad


def _singular_vector(cpt, n_comp, tup):
    """(module, state, bad modes) of the eigenvector of tup at the constrained
    point cpt: the raising modes that do not annihilate it."""
    level = tup.size
    module = BosonModule(cpt, n_comp, cpt.u, level + 1, kind="qt")
    family = GeneratorFamily(module)
    state = single_eigenvector(level, family, tup)
    return module, state, annihilation_report(state, family, level, n_comp)


def singular_vector_check(point, n_comp, i, r, s):
    """Annihilation + Macdonald-restriction checks at the constrained point.

    Returns a dict with the offending raising modes (empty = pass) and the
    result of comparing the last-component restriction with the ordinary
    Macdonald function of the rectangle.
    """
    tup = rectangle_tuple(n_comp, i, r, s)
    module, state, bad = _singular_vector(
        constrained_point_single(point, n_comp, i, r, s), n_comp, tup
    )
    restriction_ok = restriction_matches_macdonald(state, tup, module)
    return {"tuple": tup, "bad_modes": bad, "restriction_ok": restriction_ok}


def singular_vector_check_multi(point, n_comp, rs, ss, case):
    staircase = staircase_tuple_A if case == "A" else staircase_tuple_B
    tup = staircase(n_comp, rs, ss)
    _, _, bad = _singular_vector(constrained_point_multi(point, n_comp, rs, ss), n_comp, tup)
    return {"tuple": tup, "bad_modes": bad}


def restriction_matches_macdonald(state, tup, module):
    """Keep only pure-last-component monomials; compare with P_(rectangle)."""
    n_comp = module.n_bosons
    lam = tup[n_comp - 1]
    if lam == EMPTY:
        return True
    restricted = {
        mono: c
        for mono, c in state.items()
        if all(mono[k] == EMPTY for k in range(n_comp - 1))
    }
    mac = macdonald_p(lam, module.point.q, module.point.t)
    expected = {}
    for plam, c in mac.items():
        comps = [EMPTY] * (n_comp - 1) + [plam]
        expected[PartitionTuple(comps)] = c
    keys = set(restricted) | set(expected)
    return all(restricted.get(k, ZERO) == expected.get(k, ZERO) for k in keys)


def kac_det_vanishes_on_line(n, n_comp, point, r, s):
    """The determinant is exactly zero once a weight line is imposed."""
    if r * s > n:
        raise ValueError("need rs <= n for a vanishing line")
    cpt = constrained_point_single(point, n_comp, 1, r, s)
    gram, _ = pbw_gram_matrix(n, cpt, n_comp)
    return linalg.determinant(gram) == 0
