"""Quadratic exchange relations verified as exact operator identities on
truncated modules, plus the crystal PBW / Hall-Littlewood dictionary.

Mode sums truncate at the state level because every mode of index k kills
states of level below k; the truncation is exact, not an approximation.
"""

from __future__ import annotations

from fractions import Fraction

from .combinat import EMPTY, Partition, PartitionTuple, b_factor, n_stat, partitions
from .fock import (
    BosonModule,
    CrystalGenerators,
    CrystalVirasoro,
    GeneratorFamily,
    VirasoroFamily,
    bra_apply,
    jing_build,
    jing_operators,
    pbw_bra,
    pbw_gram,
    pbw_state,
    state_accumulate,
    state_add,
    state_scale,
    states_equal,
    structure_series,
    vacuum_bra,
    vertex_mode,
)
from . import linalg
from .symfunc import SymFunc, hall_littlewood, inner_prod

ZERO = Fraction(0)
ONE = Fraction(1)


def _pair_products(st):
    """pair(a, b) = A(B(st)) and comm(a, b) = [A, B](st) for one state st.

    Pair products are memoized by operator pair for this st only: a check
    meets each (pair, monomial) key under one monomial, so a longer-lived
    memo would only hold memory.  The returned states are shared; callers
    read them and never mutate them.
    """
    memo = {}

    def pair(a, b):
        img = memo.get((a, b))
        if img is None:
            mid = b(st)
            img = memo[(a, b)] = a(mid) if mid else {}
        return img

    def comm(a, b):
        return state_add(pair(a, b), state_scale(pair(b, a), Fraction(-1)))

    return pair, comm


# ---------------------------------------------------------------------------
# Generic two-boson current relations


def check_x_relations_n2(level, point, mode_bound=2):
    """The three displayed relations of the two-boson currents."""
    module = BosonModule(point, 2, point.u[:2], level + 2 * mode_bound + 2, kind="qt")
    fam = GeneratorFamily(module)
    x1 = lambda k: fam.x_mode(1, k)
    x2 = lambda k: fam.x_mode(2, k)
    q, t, p = point.q, point.t, point.p
    series_order = level + 2 * mode_bound + 3
    f1 = structure_series(point, "x1", series_order)
    f2 = structure_series(point, "x2", series_order)
    cc = (1 - q) * (1 - 1 / t) / (1 - p)
    modes = range(-mode_bound, mode_bound + 1)
    failures = []
    for n_lvl in range(level + 1):
        for tup in module.basis(n_lvl):
            st = {tup: ONE}
            pair, comm = _pair_products(st)
            for n in modes:
                for m in modes:
                    # relation of the first current with itself
                    rhs = {}
                    for l in range(1, n_lvl - m + 1):
                        state_accumulate(rhs, pair(x1(n - l), x1(m + l)), -f1[l])
                    for l in range(1, n_lvl - n + 1):
                        state_accumulate(rhs, pair(x1(m - l), x1(n + l)), f1[l])
                    state_accumulate(rhs, x2(n + m)(st), cc * (p**m - p**n))
                    if not states_equal(comm(x1(n), x1(m)), rhs):
                        failures.append(("x1-x1", n, m, tup))
                    # second current with itself
                    rhs = {}
                    for l in range(1, n_lvl - m + 1):
                        state_accumulate(rhs, pair(x2(n - l), x2(m + l)), -f2[l])
                    for l in range(1, n_lvl - n + 1):
                        state_accumulate(rhs, pair(x2(m - l), x2(n + l)), f2[l])
                    if not states_equal(comm(x2(n), x2(m)), rhs):
                        failures.append(("x2-x2", n, m, tup))
                    # mixed relation
                    rhs = {}
                    for l in range(1, n_lvl - m + 1):
                        state_accumulate(rhs, pair(x1(n - l), x2(m + l)), -f1[l] * p**l)
                    for l in range(1, n_lvl - n + 1):
                        state_accumulate(rhs, pair(x2(m - l), x1(n + l)), f1[l])
                    if not states_equal(comm(x1(n), x2(m)), rhs):
                        failures.append(("x1-x2", n, m, tup))
    return failures


# ---------------------------------------------------------------------------
# Deformed Virasoro relation


def check_virasoro_relation(level, point, k_weight, mode_bound=2):
    module = BosonModule(point, 1, [k_weight], level + 2 * mode_bound + 2, kind="qt")
    fam = VirasoroFamily(module, k_weight)
    q, t, p = point.q, point.t, point.p
    f = structure_series(point, "virasoro", level + 2 * mode_bound + 3)
    cc = (1 - q) * (1 - 1 / t) / (1 - p)
    modes = range(-mode_bound, mode_bound + 1)
    failures = []
    tmode = lambda k: fam.x_mode(1, k)
    for n_lvl in range(level + 1):
        for lam in partitions(n_lvl):
            st = {PartitionTuple([lam]): ONE}
            pair, comm = _pair_products(st)
            for n in modes:
                for m in modes:
                    rhs = {}
                    for l in range(1, n_lvl - m + 1):
                        state_accumulate(rhs, pair(tmode(n - l), tmode(m + l)), -f[l])
                    for l in range(1, n_lvl - n + 1):
                        state_accumulate(rhs, pair(tmode(m - l), tmode(n + l)), f[l])
                    if n + m == 0:
                        state_accumulate(rhs, st, -cc * (p**n - p ** (-n)))
                    if not states_equal(comm(tmode(n), tmode(m)), rhs):
                        failures.append((n, m, lam))
    return failures


# ---------------------------------------------------------------------------
# Crystal current relations


def check_crystal_x_relations(level, point, weights, mode_bound=2):
    """The displayed mode relations of the two crystal currents."""
    module = BosonModule(point, 2, weights, level + 2 * mode_bound + 2, kind="crystal")
    gens = CrystalGenerators(module)
    t = point.t
    c = 1 - 1 / t
    modes = range(-mode_bound, mode_bound + 1)
    failures = []

    x1 = lambda k: gens.x_mode(1, k)
    x2 = lambda k: gens.x_mode(2, k)
    for n_lvl in range(level + 1):
        for tup in module.basis(n_lvl):
            st = {tup: ONE}
            pair, comm = _pair_products(st)
            for n in modes:
                for m in modes:
                    # first current with itself, by mode-sign sector
                    rhs = {}
                    if (n > m > 0) or (0 > n > m):
                        for l in range(1, n - m + 1):
                            state_accumulate(rhs, pair(x1(n - l), x1(m + l)), -c)
                    elif n > 0 and m == 0:
                        # the boundary term l = n is needed to close the
                        # sector, as in the scaled-Virasoro analogue
                        for l in range(1, n + 1):
                            state_accumulate(rhs, pair(x1(n - l), x1(l)), -c)
                        for l in range(1, n_lvl - n + 1):
                            state_accumulate(rhs, pair(x1(-l), x1(n + l)), -c)
                        state_accumulate(rhs, x2(n)(st), c)
                    elif n > 0 > m:
                        for l in range(0, n_lvl - n + 1):
                            state_accumulate(rhs, pair(x1(m - l), x1(n + l)), -c)
                        state_accumulate(rhs, x2(n + m)(st), c)
                    elif n == 0 and m < 0:
                        # boundary term from the zero-mode branch split; the
                        # l-sums alone do not close this sector
                        state_accumulate(rhs, pair(x1(m), x1(0)), -c)
                        for l in range(1, -m):
                            state_accumulate(rhs, pair(x1(-l), x1(m + l)), -c)
                        for l in range(1, n_lvl + 1):
                            state_accumulate(rhs, pair(x1(m - l), x1(l)), -c)
                        state_accumulate(rhs, x2(m)(st), c)
                    else:
                        # remaining sectors follow by antisymmetry; skip
                        continue
                    if not states_equal(comm(x1(n), x1(m)), rhs):
                        failures.append(("x1-x1", n, m, tup))
            for n in modes:
                for m in modes:
                    # mixed relations
                    rhs = {}
                    if n > 0:
                        for l in range(1, n_lvl + 1):
                            state_accumulate(rhs, pair(x2(m - l), x1(n + l)), c)
                    elif n == 0:
                        for l in range(1, n_lvl - m + 1):
                            state_accumulate(rhs, pair(x1(-l), x2(m + l)), -c)
                        for l in range(1, n_lvl + 1):
                            state_accumulate(rhs, pair(x2(m - l), x1(l)), c)
                    else:
                        for l in range(1, n_lvl - m + 1):
                            state_accumulate(rhs, pair(x1(n - l), x2(m + l)), -c)
                    if not states_equal(comm(x1(n), x2(m)), rhs):
                        failures.append(("x1-x2", n, m, tup))
                    # second current with itself
                    rhs = {}
                    for l in range(1, n_lvl - m + 1):
                        state_accumulate(rhs, pair(x2(n - l), x2(m + l)), -c)
                    for l in range(1, n_lvl - n + 1):
                        state_accumulate(rhs, pair(x2(m - l), x2(n + l)), c)
                    if not states_equal(comm(x2(n), x2(m)), rhs):
                        failures.append(("x2-x2", n, m, tup))
    return failures


def check_crystal_virasoro_relations(level, point, k_weight, mode_bound=2):
    """The scaled-generator relations in the crystal limit."""
    module = BosonModule(point, 1, [k_weight], level + 2 * mode_bound + 2, kind="crystal")
    fam = CrystalVirasoro(module, k_weight)
    t = point.t
    c = 1 - 1 / t
    c2 = t - 1 / t
    modes = range(-mode_bound, mode_bound + 1)
    failures = []
    tmode = lambda k: fam.x_mode(1, k)
    for n_lvl in range(level + 1):
        for lam in partitions(n_lvl):
            st = {PartitionTuple([lam]): ONE}
            pair, comm = _pair_products(st)
            for n in modes:
                for m in modes:
                    rhs = {}
                    if (n > m > 0) or (0 > n > m):
                        for l in range(1, n - m + 1):
                            state_accumulate(rhs, pair(tmode(n - l), tmode(m + l)), -c)
                    elif n > 0 and m == 0:
                        for l in range(1, n + 1):
                            state_accumulate(rhs, pair(tmode(n - l), tmode(l)), -c)
                        for l in range(1, n_lvl - n + 1):
                            state_accumulate(rhs, pair(tmode(-l), tmode(n + l)), -c2 * t ** (-l))
                    elif n == 0 and m < 0:
                        for l in range(1, -m + 1):
                            state_accumulate(rhs, pair(tmode(-l), tmode(m + l)), -c)
                        for l in range(1, n_lvl + 1):
                            state_accumulate(rhs, pair(tmode(m - l), tmode(l)), -c2 * t ** (-l))
                    elif n > 0 > m:
                        state_accumulate(rhs, pair(tmode(m), tmode(n)), -c)
                        for l in range(1, n_lvl - n + 1):
                            state_accumulate(
                                rhs, pair(tmode(m - l), tmode(n + l)), -c2 * t ** (-l)
                            )
                        if n + m == 0:
                            state_accumulate(rhs, st, c)
                    else:
                        continue
                    if not states_equal(comm(tmode(n), tmode(m)), rhs):
                        failures.append((n, m, lam))
    return failures


# ---------------------------------------------------------------------------
# Crystal PBW vectors and Hall-Littlewood functions


def hl_in_bosons(lam, tval, module, boson_map):
    """Q_lambda at parameter tval as a creation polynomial on the module."""
    from .fock import apply_symfunc

    _, q_lam = hall_littlewood(lam, tval=tval)
    return apply_symfunc(module, q_lam, boson_map, module.vacuum())


def check_jing(level, point):
    """Jing modes build the Hall-Littlewood functions on the t-boson."""
    failures = []
    for n in range(level + 1):
        for lam in partitions(n):
            module, state = jing_build(lam, point, max(level, 1))
            want = hl_in_bosons(lam, point.t, module, lambda k: [(0, ONE)])
            if not states_equal(state, want):
                failures.append(("ket", lam))
            # dual side
            _, h_dag = jing_operators(point, max(level, 1))
            bra = vacuum_bra(module)
            for part in reversed(lam.parts):
                bra = bra_apply(vertex_mode(h_dag, part, module), bra, module, max(level, 1))
            want_bra = _symfunc_bra(q_lambda(lam, point.t), module)
            if bra != want_bra:
                failures.append(("bra", lam))
    return failures


def q_lambda(lam, tval):
    _, q_lam = hall_littlewood(lam, tval=tval)
    return q_lam


def _symfunc_bra(f: SymFunc, module, sign=1):
    """<0| f(b_n) as a functional on creation monomials (single boson)."""
    out = {}
    for plam, c in f.coeffs.items():
        tup = PartitionTuple([plam])
        g = module.monomial_gram(tup)
        val = c * g * (Fraction(sign) ** plam.length)
        if val:
            out[tup] = out.get(tup, ZERO) + val
    return out


def check_crystal_virasoro_pbw(level, point, k_weight):
    """PBW vectors of the scaled generators against Hall-Littlewood states."""
    module = BosonModule(point, 1, [k_weight], max(level, 1), kind="crystal")
    fam = CrystalVirasoro(module, k_weight)
    failures = []
    tinv = 1 / point.t
    for n in range(level + 1):
        for lam in partitions(n):
            state = pbw_state(PartitionTuple([lam]), fam)
            want = hl_in_bosons(lam, tinv, module, lambda k: [(0, ONE)])
            want = state_scale(want, k_weight**lam.length)
            if not states_equal(state, want):
                failures.append(("ket", lam))
            bra = pbw_bra(PartitionTuple([lam]), fam)
            want_bra = _symfunc_bra(q_lambda(lam, tinv), module, sign=-1)
            want_bra = {
                kk: v * k_weight ** (-lam.length) * point.t**lam.size
                for kk, v in want_bra.items()
            }
            if bra != want_bra:
                failures.append(("bra", lam))
    return failures


def check_crystal_pbw_hl(level, point, weights):
    """Two-boson crystal PBW vectors as products of Hall-Littlewood functions."""
    from .fock import apply_symfunc

    module = BosonModule(point, 2, weights, max(level, 1), kind="crystal")
    gens = CrystalGenerators(module)
    u1, u2 = weights
    tinv = 1 / point.t
    failures = []
    for n in range(level + 1):
        for tup in module.basis(n):
            lam, mu = tup[0], tup[1]
            state = pbw_state(tup, gens, prime=True)
            plus = apply_symfunc(
                module,
                q_lambda(mu, tinv),
                lambda k: [(1, ONE)],
                module.vacuum(),
            )
            both = apply_symfunc(
                module,
                q_lambda(lam, tinv),
                lambda k: [(0, -ONE), (1, ONE)],
                plus,
            )
            want = state_scale(both, (u1 * u2) ** mu.length * u2**lam.length)
            if not states_equal(state, want):
                failures.append(tup)
    return failures


def crystal_shapovalov_formula(lam_tup, mu_tup, point, weights):
    """Closed form of the crystal Gram block via Hall-Littlewood pairings."""
    u1, u2 = weights
    tinv = 1 / point.t
    l1, l2 = lam_tup[0], lam_tup[1]
    m1, m2 = mu_tup[0], mu_tup[1]
    if l1 != m1:
        return ZERO
    val = (u1 * u2) ** (l2.length + m2.length) * u1**l1.length * u2**m1.length
    # the first-component factor multiplies (the reciprocal closes the
    # inverse pairing instead)
    val = val * b_factor(l1, tinv)
    pairing = inner_prod(
        q_lambda(l2, tinv), q_lambda(m2, tinv).negate_argument(), ZERO, tinv
    )
    return val * pairing


def crystal_inverse_shapovalov_formula(lam_tup, mu_tup, point, weights):
    u1, u2 = weights
    tinv = 1 / point.t
    l1, l2 = lam_tup[0], lam_tup[1]
    m1, m2 = mu_tup[0], mu_tup[1]
    if l1 != m1:
        return ZERO
    val = (u1 * u2) ** -(l2.length + m2.length) * u1 ** (-m1.length) * u2 ** (-l1.length)
    val = val / (b_factor(m1, tinv) * b_factor(l2, tinv) * b_factor(m2, tinv))
    pairing = inner_prod(
        q_lambda(l2, tinv).negate_argument(), q_lambda(m2, tinv), ZERO, tinv
    )
    return val * pairing


def check_crystal_shapovalov(level, point, weights):
    """Gram and inverse-Gram closed forms, plus the column used downstream."""
    module = BosonModule(point, 2, weights, max(level, 1), kind="crystal")
    gens = CrystalGenerators(module)
    failures = []
    u1, u2 = weights
    tinv = 1 / point.t
    for n in range(1, level + 1):
        gram, tuples = pbw_gram(n, gens, prime=True)
        for i, lt in enumerate(tuples):
            for j, mt in enumerate(tuples):
                if gram[i][j] != crystal_shapovalov_formula(lt, mt, point, weights):
                    failures.append(("gram", lt, mt))
        ginv = linalg.inverse(gram)
        for i, lt in enumerate(tuples):
            for j, mt in enumerate(tuples):
                if ginv[i][j] != crystal_inverse_shapovalov_formula(lt, mt, point, weights):
                    failures.append(("inverse", lt, mt))
        # the special column in closed form
        ones = PartitionTuple([EMPTY, Partition((1,) * n)])
        i_ones = tuples.index(ones)
        for j, mt in enumerate(tuples):
            if mt[0] != EMPTY:
                continue
            lam = mt[1]
            want = (
                Fraction(-1) ** lam.size
                * point.t ** (-n_stat(lam))
                * (u1 * u2) ** -(lam.size + lam.length)
                / b_factor(lam, tinv)
            )
            if ginv[i_ones][j] != want:
                failures.append(("ones-column", mt))
    return failures


# ---------------------------------------------------------------------------
# Independent brute-force oracle for mode extraction


def naive_mode_apply(vop, k, state, module):
    """Mode action through elementary operator application, term by term."""
    level_in = max((t.size for t in state), default=0)
    # annihilation polynomial up to the incoming level
    ann_terms = _exp_terms(vop.annihilation, level_in)
    cre_terms = _exp_terms(vop.creation, module.level_max)
    out = {}
    for a_parts, a_coef in ann_terms:
        m = sum(n * c for (_, n), c in a_parts.items())
        c_total = m - k
        if c_total < 0:
            continue
        mid = dict(state)
        for (i, n), cnt in a_parts.items():
            for _ in range(cnt):
                mid = _elementary_annihilate(mid, i, n, module)
                if not mid:
                    break
            if not mid:
                break
        if not mid:
            continue
        for c_parts, c_coef in cre_terms:
            if sum(n * c for (_, n), c in c_parts.items()) != c_total:
                continue
            res = dict(mid)
            for (i, n), cnt in c_parts.items():
                for _ in range(cnt):
                    res = _elementary_create(res, i, n)
            w = a_coef * c_coef * vop.prefactor
            for tup, c in res.items():
                val = c * w
                if val:
                    out[tup] = out.get(tup, ZERO) + val
    return {kk: v for kk, v in out.items() if v}


def _exp_terms(coeffs, degree_cap):
    """Expansion of prod exp(c_i X_i) into (multidegree, coefficient) terms."""
    terms = [({}, ONE)]
    for (i, n), c in sorted(coeffs.items()):
        if not c:
            continue
        new_terms = []
        for parts, coef in terms:
            used = sum(key[1] * cnt for key, cnt in parts.items())
            power = 0
            cur = coef
            while used + n * power <= degree_cap:
                d = dict(parts)
                if power:
                    d[(i, n)] = power
                new_terms.append((d, cur))
                power += 1
                cur = cur * c / power
        terms = new_terms
    return terms


def _elementary_annihilate(state, i, n, module):
    out = {}
    rho = module.rho(n)
    for tup, c in state.items():
        lam = tup[i]
        mult = lam.mult(n)
        if not mult:
            continue
        parts = list(lam.parts)
        parts.remove(n)
        newt = tup.replace(i, Partition(tuple(sorted(parts, reverse=True))))
        val = c * mult * rho
        out[newt] = out.get(newt, ZERO) + val
    return {kk: v for kk, v in out.items() if v}


def _elementary_create(state, i, n):
    out = {}
    for tup, c in state.items():
        newt = tup.replace(
            i, Partition(tuple(sorted(tup[i].parts + (n,), reverse=True)))
        )
        out[newt] = out.get(newt, ZERO) + c
    return out
