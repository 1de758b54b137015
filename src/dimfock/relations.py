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
    apply_symfunc,
    bra_apply,
    combination_is_zero,
    jing_build,
    jing_operator,
    pbw_bra,
    pbw_gram,
    pbw_state,
    state_scale,
    structure_series,
    sum_is_zero,
    vertex_mode,
)
from . import linalg
from .symfunc import hall_littlewood, inner_prod, negate_argument

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)

# the exchange relations are checked for modes n, m in [-MODE_BOUND, MODE_BOUND]
MODE_BOUND = 2


def _products(key):
    """product(ops) = ops[0](ops[1](... ({key: 1}))) as a cleared image, the
    image of the basis state {key: 1} under a tuple of operators, in their
    key space: the monomial ids of a module for its family modes.

    Images are memoized by operator tuple, and their suffixes with them, for
    this state only: a check meets each (operators, monomial) key under one
    monomial, so a longer-lived memo would only hold memory.  The returned
    images are shared; callers read them and never mutate them.
    """
    memo = {(): (1, {key: 1})}

    def product(ops):
        if ops not in memo:
            for i in range(len(ops) - 1, -1, -1):
                if ops[i:] not in memo:
                    memo[ops[i:]] = ops[i].image(*memo[ops[i + 1 :]])
        return memo[ops]

    return product


def _holds(lhs, rhs):
    """lhs == rhs for two lists of (coefficient, state) terms, summed exactly."""
    return combination_is_zero(lhs + [(-c, state) for c, state in rhs])


def relation_failures(basis, index, level, relations):
    """Witnesses of the exchange relations that fail on basis states.

    For every key of basis(n), n <= level, relations(key, n) yields
    (witness, A, B, rhs): the relation [A, B] = rhs on the state {key: 1},
    with rhs a list of (c, ops) terms, each c times product(ops).  index(key)
    is the key in the operators' key space (module.index for family modes).
    A product that several relations share is applied once per state, and
    the sums run over the cleared images without reading them out.
    """
    failures = []
    for n_lvl in range(level + 1):
        for key in basis(n_lvl):
            product = _products(index(key))
            for witness, a, b, rhs in relations(key, n_lvl):
                terms = [(ONE, product((a, b))), (MINUS_ONE, product((b, a)))]
                terms += [(-c, product(ops)) for c, ops in rhs]
                if not sum_is_zero(terms):
                    failures.append(witness)
    return failures


def _exchange_terms(a, b, n, m, n_lvl, f, g):
    """-sum_l f(l) A(n-l) B(m+l) + sum_l g(l) B(m-l) A(n+l), over l >= 1, as rhs terms.

    On a state of level n_lvl each sum stops where its right factor's mode
    exceeds the level and kills the state; the truncation is exact.
    """
    return [(-f(l), (a(n - l), b(m + l))) for l in range(1, n_lvl - m + 1)] + [
        (g(l), (b(m - l), a(n + l))) for l in range(1, n_lvl - n + 1)
    ]


# ---------------------------------------------------------------------------
# Generic two-boson current relations


def check_x_relations_n2(level, point):
    """The three displayed relations of the two-boson currents."""
    module = BosonModule(point, 2, point.u[:2], level + 2 * MODE_BOUND + 2, kind="qt")
    fam = GeneratorFamily(module)
    x1 = lambda k: fam.x_mode(1, k)
    x2 = lambda k: fam.x_mode(2, k)
    q, t, p = point.q, point.t, point.p
    series_order = level + 2 * MODE_BOUND + 3
    f1 = structure_series(point, "x1", series_order).__getitem__
    f2 = structure_series(point, "x2", series_order).__getitem__
    cc = (1 - q) * (1 - 1 / t) / (1 - p)
    modes = range(-MODE_BOUND, MODE_BOUND + 1)

    def relations(tup, n_lvl):
        for n in modes:
            for m in modes:
                rhs = _exchange_terms(x1, x1, n, m, n_lvl, f1, f1)
                rhs.append((cc * (p**m - p**n), (x2(n + m),)))
                yield ("x1-x1", n, m, tup), x1(n), x1(m), rhs
                rhs = _exchange_terms(x2, x2, n, m, n_lvl, f2, f2)
                yield ("x2-x2", n, m, tup), x2(n), x2(m), rhs
                rhs = _exchange_terms(x1, x2, n, m, n_lvl, lambda l: f1(l) * p**l, f1)
                yield ("x1-x2", n, m, tup), x1(n), x2(m), rhs

    return relation_failures(module.basis, module.index, level, relations)


# ---------------------------------------------------------------------------
# Deformed Virasoro relation


def check_virasoro_relation(level, point, k_weight):
    module = BosonModule(point, 1, [k_weight], level + 2 * MODE_BOUND + 2, kind="qt")
    fam = VirasoroFamily(module)
    q, t, p = point.q, point.t, point.p
    f = structure_series(point, "virasoro", level + 2 * MODE_BOUND + 3).__getitem__
    cc = (1 - q) * (1 - 1 / t) / (1 - p)
    modes = range(-MODE_BOUND, MODE_BOUND + 1)
    tmode = lambda k: fam.x_mode(1, k)

    def relations(tup, n_lvl):
        for n in modes:
            for m in modes:
                rhs = _exchange_terms(tmode, tmode, n, m, n_lvl, f, f)
                if n + m == 0:
                    rhs.append((-cc * (p**n - p ** (-n)), ()))
                yield (n, m, tup[0]), tmode(n), tmode(m), rhs

    return relation_failures(module.basis, module.index, level, relations)


# ---------------------------------------------------------------------------
# Crystal current relations


def check_crystal_x_relations(level, point, weights):
    """The displayed mode relations of the two crystal currents."""
    module = BosonModule(point, 2, weights, level + 2 * MODE_BOUND + 2, kind="crystal")
    gens = CrystalGenerators(module)
    c = 1 - 1 / point.t
    const = lambda l: c
    modes = range(-MODE_BOUND, MODE_BOUND + 1)
    x1 = lambda k: gens.x_mode(1, k)
    x2 = lambda k: gens.x_mode(2, k)

    def relations(tup, n_lvl):
        for n in modes:
            for m in modes:
                # first current with itself, by mode-sign sector
                if (n > m > 0) or (0 > n > m):
                    rhs = [(-c, (x1(n - l), x1(m + l))) for l in range(1, n - m + 1)]
                elif n > 0 and m == 0:
                    # the boundary term l = n is needed to close the
                    # sector, as in the scaled-Virasoro analogue
                    rhs = [(-c, (x1(n - l), x1(l))) for l in range(1, n + 1)]
                    rhs += [(-c, (x1(-l), x1(n + l))) for l in range(1, n_lvl - n + 1)]
                    rhs.append((c, (x2(n),)))
                elif n > 0 > m:
                    rhs = [(-c, (x1(m - l), x1(n + l))) for l in range(0, n_lvl - n + 1)]
                    rhs.append((c, (x2(n + m),)))
                elif n == 0 and m < 0:
                    # boundary term from the zero-mode branch split; the
                    # l-sums alone do not close this sector
                    rhs = [(-c, (x1(m), x1(0)))]
                    rhs += [(-c, (x1(-l), x1(m + l))) for l in range(1, -m)]
                    rhs += [(-c, (x1(m - l), x1(l))) for l in range(1, n_lvl + 1)]
                    rhs.append((c, (x2(m),)))
                else:
                    # remaining sectors follow by antisymmetry; skip
                    continue
                yield ("x1-x1", n, m, tup), x1(n), x1(m), rhs
        for n in modes:
            for m in modes:
                # mixed relations
                if n > 0:
                    rhs = [(c, (x2(m - l), x1(n + l))) for l in range(1, n_lvl + 1)]
                elif n == 0:
                    rhs = _exchange_terms(x1, x2, n, m, n_lvl, const, const)
                else:
                    rhs = [(-c, (x1(n - l), x2(m + l))) for l in range(1, n_lvl - m + 1)]
                yield ("x1-x2", n, m, tup), x1(n), x2(m), rhs
                # second current with itself
                rhs = _exchange_terms(x2, x2, n, m, n_lvl, const, const)
                yield ("x2-x2", n, m, tup), x2(n), x2(m), rhs

    return relation_failures(module.basis, module.index, level, relations)


def check_crystal_virasoro_relations(level, point, k_weight):
    """The scaled-generator relations in the crystal limit."""
    module = BosonModule(point, 1, [k_weight], level + 2 * MODE_BOUND + 2, kind="crystal")
    fam = CrystalVirasoro(module)
    t = point.t
    c = 1 - 1 / t
    c2 = t - 1 / t
    modes = range(-MODE_BOUND, MODE_BOUND + 1)
    tmode = lambda k: fam.x_mode(1, k)

    def relations(tup, n_lvl):
        for n in modes:
            for m in modes:
                if (n > m > 0) or (0 > n > m):
                    rhs = [(-c, (tmode(n - l), tmode(m + l))) for l in range(1, n - m + 1)]
                elif n > 0 and m == 0:
                    rhs = [(-c, (tmode(n - l), tmode(l))) for l in range(1, n + 1)]
                    rhs += [
                        (-c2 * t ** (-l), (tmode(-l), tmode(n + l)))
                        for l in range(1, n_lvl - n + 1)
                    ]
                elif n == 0 and m < 0:
                    rhs = [(-c, (tmode(-l), tmode(m + l))) for l in range(1, -m + 1)]
                    rhs += [
                        (-c2 * t ** (-l), (tmode(m - l), tmode(l))) for l in range(1, n_lvl + 1)
                    ]
                elif n > 0 > m:
                    rhs = [(-c, (tmode(m), tmode(n)))]
                    rhs += [
                        (-c2 * t ** (-l), (tmode(m - l), tmode(n + l)))
                        for l in range(1, n_lvl - n + 1)
                    ]
                    if n + m == 0:
                        rhs.append((c, ()))
                else:
                    continue
                yield (n, m, tup[0]), tmode(n), tmode(m), rhs

    return relation_failures(module.basis, module.index, level, relations)


# ---------------------------------------------------------------------------
# Crystal PBW vectors and Hall-Littlewood functions


def hl_in_bosons(lam, tval, module, bosons):
    """Q_lambda at parameter tval as a creation polynomial on the module."""
    _, q_lam = hall_littlewood(lam, tval)
    return apply_symfunc(module, q_lam, bosons, module.vacuum())


def check_jing(level, point):
    """Jing modes build the Hall-Littlewood functions on the t-boson."""
    failures = []
    h_dag = jing_operator(point, max(level, 1)).inverse()
    for n in range(level + 1):
        for lam in partitions(n):
            module, state = jing_build(lam, point, max(level, 1))
            want = hl_in_bosons(lam, point.t, module, [(0, ONE)])
            if not _holds([(ONE, state)], [(ONE, want)]):
                failures.append(("ket", lam))
            # dual side
            bra, landing = module.vacuum(), 0
            for part in reversed(lam.parts):
                landing += part
                bra = bra_apply(vertex_mode(h_dag, part, module), bra, module, landing)
            want_bra = _symfunc_bra(q_lambda(lam, point.t), module)
            if bra != want_bra:
                failures.append(("bra", lam))
    return failures


def q_lambda(lam, tval):
    _, q_lam = hall_littlewood(lam, tval)
    return q_lam


def _symfunc_bra(f, module):
    """<0| f(b_n) as a functional on creation monomials (single boson)."""
    out = {}
    for plam, c in f.items():
        tup = PartitionTuple([plam])
        val = c * module.monomial_gram(tup)
        if val:
            out[tup] = val
    return out


def check_crystal_virasoro_pbw(level, point, k_weight):
    """PBW vectors of the scaled generators against Hall-Littlewood states."""
    module = BosonModule(point, 1, [k_weight], max(level, 1), kind="crystal")
    fam = CrystalVirasoro(module)
    failures = []
    tinv = 1 / point.t
    for n in range(level + 1):
        for lam in partitions(n):
            state = pbw_state(PartitionTuple([lam]), fam)
            want = hl_in_bosons(lam, tinv, module, [(0, ONE)])
            want = state_scale(want, k_weight**lam.length)
            if not _holds([(ONE, state)], [(ONE, want)]):
                failures.append(("ket", lam))
            bra = pbw_bra(PartitionTuple([lam]), fam)
            want_bra = _symfunc_bra(negate_argument(q_lambda(lam, tinv)), module)
            want_bra = {
                kk: v * k_weight ** (-lam.length) * point.t**lam.size
                for kk, v in want_bra.items()
            }
            if bra != want_bra:
                failures.append(("bra", lam))
    return failures


def check_crystal_pbw_hl(level, point, weights):
    """Two-boson crystal PBW vectors as products of Hall-Littlewood functions."""
    module = BosonModule(point, 2, weights, max(level, 1), kind="crystal")
    gens = CrystalGenerators(module)
    u1, u2 = weights
    tinv = 1 / point.t
    failures = []
    for n in range(level + 1):
        for tup in module.basis(n):
            lam, mu = tup[0], tup[1]
            state = pbw_state(tup, gens)
            plus = apply_symfunc(module, q_lambda(mu, tinv), [(1, ONE)], module.vacuum())
            both = apply_symfunc(module, q_lambda(lam, tinv), [(0, -ONE), (1, ONE)], plus)
            want = state_scale(both, (u1 * u2) ** mu.length * u2**lam.length)
            if not _holds([(ONE, state)], [(ONE, want)]):
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
        q_lambda(l2, tinv), negate_argument(q_lambda(m2, tinv)), ZERO, tinv
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
        negate_argument(q_lambda(l2, tinv)), q_lambda(m2, tinv), ZERO, tinv
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
        gram, tuples = pbw_gram(n, gens)
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
