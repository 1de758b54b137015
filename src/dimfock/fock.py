"""Truncated N-boson Fock modules and normal-ordered vertex-operator calculus.

A module holds N independent boson families a^(i)_n with

    [a^(i)_n, a^(j)_m] = rho_i(n) * delta_ij * delta_{n+m,0},  n > 0,

where rho(n) = n(1-q^n)/(1-t^n) for the generic modules and n/(1-t^n) for
the crystal ones.  States are finite linear combinations of creation
monomials a_{-lambda} |u> indexed by partition tuples.  A vertex operator
is kept in canonical normal-ordered form: a creation coefficient sequence,
an annihilation coefficient sequence, and a scalar prefactor (the zero-mode
eigenvalue on the module at hand); products merge the sequences, and the
mode of index k is extracted exactly by enumerating the finitely many
contraction patterns.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .combinat import EMPTY, Partition, PartitionTuple, enumerate_tuples
from .scalars import Series

ZERO = Fraction(0)
ONE = Fraction(1)


class LevelOverflow(ValueError):
    pass


# ---------------------------------------------------------------------------
# Modules and states


class BosonModule:
    """N boson families over a scalar point, truncated at level_max."""

    def __init__(self, point, n_bosons, weights, level_max, kind="qt"):
        if kind not in ("qt", "crystal"):
            raise ValueError(kind)
        self.point = point
        self.n_bosons = n_bosons
        self.weights = list(weights)
        self.level_max = level_max
        self.kind = kind
        self._rho = {}

    def rho(self, n: int):
        """Contraction scalar [a_n, a_{-n}] for n > 0."""
        if n not in self._rho:
            t = self.point.t
            if self.kind == "qt":
                q = self.point.q
                self._rho[n] = n * (1 - q**n) / (1 - t**n)
            else:
                self._rho[n] = Fraction(n) / (1 - t**n)
        return self._rho[n]

    def basis(self, level: int):
        return enumerate_tuples(self.n_bosons, level)

    def vacuum(self):
        return {self.empty_tuple(): ONE}

    def empty_tuple(self):
        return PartitionTuple([EMPTY] * self.n_bosons)

    def monomial_gram(self, tup: PartitionTuple):
        """<a_tup | a_tup> for the PBW monomials (diagonal Gram)."""
        val = ONE
        for lam in tup:
            for n in set(lam.parts):
                m = lam.mult(n)
                acc = ONE
                for j in range(1, m + 1):
                    acc = acc * j * self.rho(n)
                val = val * acc
        return val

    def pair(self, bra, ket):
        """Pairing of a bra functional (dict of values on monomials) with a ket."""
        total = ZERO
        for tup, c in ket.items():
            b = bra.get(tup)
            if b:
                total = total + b * c
        return total

    def vacuum_coefficient(self, state):
        return state.get(self.empty_tuple(), ZERO)


def state_to_json(state):
    """JSON form: map from tuple keys to scalar strings."""
    from .combinat import to_json as tup_json

    return {
        ";".join(",".join(map(str, comp)) for comp in tup_json(tup)): str(c)
        for tup, c in sorted(state.items(), key=lambda kv: repr(kv[0]))
    }


def state_add(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, ZERO) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def state_accumulate(acc, state, c):
    """acc += c * state in place; entries that cancel are dropped."""
    for k, v in state.items():
        s = acc.get(k, ZERO) + c * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def state_scale(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def state_level(a):
    return max((k.size for k in a), default=0)


def states_equal(a, b):
    keys = set(a) | set(b)
    return all(a.get(k, ZERO) == b.get(k, ZERO) for k in keys)


def apply_symfunc(module, f, boson_maps, state):
    """Multiply a state by f with p_n replaced by a creation combination.

    boson_maps maps n -> list of (boson index, scalar); f must be in the
    power-sum basis.  Used for Macdonald/Hall-Littlewood dressed states.
    """
    out = {}
    for lam, coeff in f.coeffs.items():
        pieces = [module_creation_combo(module, boson_maps, n) for n in lam.parts]
        expanded = {module.empty_tuple(): coeff}
        for piece in pieces:
            nxt = {}
            for tup, c in expanded.items():
                for (i, n), w in piece.items():
                    merged = tup.replace(i, Partition(tuple(sorted(tup[i].parts + (n,), reverse=True))))
                    nxt[merged] = nxt.get(merged, ZERO) + c * w
            expanded = nxt
        for tup, c in expanded.items():
            out[tup] = out.get(tup, ZERO) + c
    # multiply into the target state (creation operators commute freely)
    res = {}
    for tup, c in out.items():
        for tup2, c2 in state.items():
            merged = PartitionTuple(
                [
                    Partition(tuple(sorted(a.parts + b.parts, reverse=True)))
                    for a, b in zip(tup, tup2)
                ]
            )
            res[merged] = res.get(merged, ZERO) + c * c2
    return {k: v for k, v in res.items() if v}


def module_creation_combo(module, boson_maps, n):
    combo = {}
    for i, w in boson_maps(n):
        combo[(i, n)] = combo.get((i, n), ZERO) + w
    return combo


# ---------------------------------------------------------------------------
# Vertex operators


class VertexOperator:
    """Normal-ordered exp(sum A a_- z^n) exp(sum B a_+ z^-n) * prefactor."""

    __slots__ = ("creation", "annihilation", "prefactor", "_cre_cache")

    def __init__(self, creation=None, annihilation=None, prefactor=ONE):
        self.creation = dict(creation or {})
        self.annihilation = dict(annihilation or {})
        self.prefactor = prefactor
        self._cre_cache = {}

    def scaled_argument(self, c):
        """The same operator evaluated at argument c*z."""
        cre = {}
        ann = {}
        cpow = {0: ONE}

        def power(k):
            if k not in cpow:
                cpow[k] = c**k if k >= 0 else 1 / c ** (-k)
            return cpow[k]

        for (i, n), a in self.creation.items():
            cre[(i, n)] = a * power(n)
        for (i, n), b in self.annihilation.items():
            ann[(i, n)] = b * power(-n)
        return VertexOperator(cre, ann, self.prefactor)

    def merge(self, other):
        """Normal-ordered product; contractions are discarded by convention."""
        cre = dict(self.creation)
        for k, v in other.creation.items():
            cre[k] = cre.get(k, ZERO) + v
        ann = dict(self.annihilation)
        for k, v in other.annihilation.items():
            ann[k] = ann.get(k, ZERO) + v
        return VertexOperator(cre, ann, self.prefactor * other.prefactor)

    # -- exact mode extraction ------------------------------------------

    def _creation_patterns(self, c, n_bosons, module):
        """All ways to create total level c; list of (added-parts dict, factor)."""
        key = c
        if key in self._cre_cache:
            return self._cre_cache[key]
        out = []
        for tup in enumerate_tuples(n_bosons, c):
            factor = ONE
            ok = True
            adds = {}
            for i, lam in enumerate(tup):
                for n in set(lam.parts):
                    a = self.creation.get((i, n))
                    if not a:
                        ok = False
                        break
                    m = lam.mult(n)
                    acc = ONE
                    for j in range(1, m + 1):
                        acc = acc * a / j
                    factor = factor * acc
                    adds[(i, n)] = m
                if not ok:
                    break
            if ok:
                out.append((adds, factor))
        self._cre_cache[key] = out
        return out

    def _annihilation_options(self, module, tup):
        """Per-(boson, part) contraction choices for a monomial."""
        items = []
        for i, lam in enumerate(tup):
            for n in sorted(set(lam.parts)):
                m = lam.mult(n)
                b = self.annihilation.get((i, n))
                choices = [(0, ONE)]
                if b:
                    rho = module.rho(n)
                    fac = ONE
                    ff = 1
                    for j in range(1, m + 1):
                        ff *= m - j + 1
                        fac = fac * b * rho / j
                        choices.append((j, fac * ff))
                items.append(((i, n), m, choices))
        return items

    def mode_apply(self, k, state, module):
        """Coefficient of z^(-k) acting on a state: lowers level by k."""
        out = {}
        for tup, coeff in state.items():
            lev = tup.size
            items = self._annihilation_options(module, tup)
            for picks in itertools.product(*(range(len(ch)) for _, _, ch in items)):
                factor = coeff
                removed = {}
                m_tot = 0
                for ((i, n), m, choices), pick in zip(items, picks):
                    j, f = choices[pick]
                    if j:
                        factor = factor * f
                        removed[(i, n)] = j
                        m_tot += n * j
                c = m_tot - k
                if c < 0:
                    continue
                new_level = lev - m_tot + c
                if new_level > module.level_max:
                    raise LevelOverflow(
                        "level %d exceeds module cap %d" % (new_level, module.level_max)
                    )
                base = _remove_parts(tup, removed)
                for adds, cfac in self._creation_patterns(c, module.n_bosons, module):
                    merged = _add_parts(base, adds)
                    val = factor * cfac * self.prefactor
                    if val:
                        out[merged] = out.get(merged, ZERO) + val
        return {k2: v for k2, v in out.items() if v}


def _remove_parts(tup, removed):
    if not removed:
        return tup
    comps = []
    for i, lam in enumerate(tup):
        parts = list(lam.parts)
        for (bi, n), j in removed.items():
            if bi == i:
                for _ in range(j):
                    parts.remove(n)
        comps.append(Partition(tuple(sorted(parts, reverse=True))))
    return PartitionTuple(comps)


def _add_parts(tup, adds):
    if not adds:
        return tup
    comps = [list(lam.parts) for lam in tup]
    for (i, n), m in adds.items():
        comps[i].extend([n] * m)
    return PartitionTuple([Partition(tuple(sorted(c, reverse=True))) for c in comps])


# ---------------------------------------------------------------------------
# Linear operators on a module


class LinOp:
    """A linear operator on a module, memoized column by column.

    apply_fn maps a state to a state.  A call evaluates apply_fn once per
    basis monomial, on {monomial: 1}, caches that image (the operator's
    column) on the operator, and returns the combination of the cached
    columns as a fresh dict.  Composites built with ``after`` and
    ``commutator`` are LinOps too, so a composite applied repeatedly (a
    nested commutator of ``vertical.hamiltonian``) keeps its own columns.
    A composite refers to its factors and never the reverse, so the caches
    form no reference cycle: they are freed with the last reference to the
    operator, which for family modes is the family.
    """

    __slots__ = ("_apply", "_columns", "__weakref__")

    def __init__(self, apply_fn, _label=None):
        # _label is ignored; perfbench/test_perfbench.py still passes one
        self._apply = apply_fn
        self._columns = {}

    def __call__(self, state):
        columns = self._columns
        out = {}
        for tup, c in state.items():
            col = columns.get(tup)
            if col is None:
                img = self._apply({tup: ONE})
                col = columns[tup] = {k: v for k, v in img.items() if v}
            # {tup: 1} returns a copy of the column; a symbolic 1 still
            # multiplies, so the values keep the type the caller's field gives
            if len(state) == 1 and type(c) is Fraction and c == 1:
                return dict(col)
            state_accumulate(out, col, c)
        return out

    def after(self, other):
        """self . other (apply other first)."""
        return LinOp(lambda s: self(other(s)))

    def commutator(self, other):
        return LinOp(lambda s: state_add(self(other(s)), state_scale(other(self(s)), Fraction(-1))))


def vertex_mode(op: VertexOperator, k: int, module: BosonModule) -> LinOp:
    return LinOp(lambda s: op.mode_apply(k, s, module))


def operator_matrix(op: LinOp, module: BosonModule, level_from: int, level_to: int):
    """Dense matrix of op between monomial bases (rows: target, cols: source)."""
    src = module.basis(level_from)
    tgt = module.basis(level_to)
    tgt_idx = {t: i for i, t in enumerate(tgt)}
    mat = [[ZERO] * len(src) for _ in tgt]
    for j, tup in enumerate(src):
        img = op({tup: ONE})
        for t2, c in img.items():
            if t2.size == level_to:
                mat[tgt_idx[t2]][j] = c
            elif c:
                raise ValueError("operator image leaked outside target level")
    return mat


# -- bra functionals (values on creation monomials) --------------------------


def vacuum_bra(module):
    return {module.empty_tuple(): ONE}


def bra_apply(op: LinOp, bra, module, max_level):
    """Append an operator on the right of a bra functional."""
    out = {}
    for level in range(0, max_level + 1):
        for tup in module.basis(level):
            img = op({tup: ONE})
            val = module.pair(bra, img)
            if val:
                out[tup] = val
    return out


# ---------------------------------------------------------------------------
# Generator families


class ModeFamily:
    """Generators on a module whose modes are sums of vertex-operator modes.

    A family names the vertex operators that sum to mode n of generator gen
    (``mode_terms``); ``x_mode`` turns them into one LinOp, built once per
    (gen, n), which memoizes its image of each basis monomial.  The caches
    live as long as the family, which a check builds and drops.
    """

    def __init__(self, module: BosonModule):
        self.module = module
        self._mode_cache = {}

    def mode_terms(self, gen, n):
        raise NotImplementedError

    def x_mode(self, gen, n) -> LinOp:
        """Mode n of generator gen; lowers the level by n."""
        key = (gen, n)
        if key not in self._mode_cache:
            # the closure holds the terms and the module, not the family,
            # so family -> operator is the only reference between them
            terms, module = self.mode_terms(gen, n), self.module

            def apply_fn(state):
                img = {}
                for term in terms:
                    img = state_add(img, term.mode_apply(n, state, module))
                return img

            self._mode_cache[key] = LinOp(apply_fn)
        return self._mode_cache[key]


class GeneratorFamily(ModeFamily):
    """Modes of the level-N currents on a generic (q,t) module.

    X^(i)(z) is the sum over i-element index subsets of merged normal-ordered
    products of the dressed currents at p-shifted arguments; the zero mode of
    each factor contributes its weight u_j.
    """

    def __init__(self, module: BosonModule, crystal_normalized=False):
        super().__init__(module)
        self.point = module.point
        self.crystal_normalized = crystal_normalized
        self._lambda_cache = {}
        self._x_cache = {}

    # dressed single-boson currents
    def _eta(self, i):
        pt, L = self.point, self.module.level_max
        cre = {(i, n): (1 - pt.t_pow(-n)) / n for n in range(1, L + 1)}
        ann = {(i, n): -(1 - pt.t_pow(n)) / n for n in range(1, L + 1)}
        return VertexOperator(cre, ann)

    def _phi_dress(self, i):
        pt, L = self.point, self.module.level_max
        cre = {
            (i, n): (1 - pt.t_pow(-n)) * (1 - pt.p_half(-2 * n)) / n for n in range(1, L + 1)
        }
        return VertexOperator(cre, {})

    def lambda_current(self, i):
        """Dressing of boson i by the lower bosons, argument z, weight u_i."""
        if i in self._lambda_cache:
            return self._lambda_cache[i]
        pt = self.point
        if self.crystal_normalized:
            op = self._lambda_crystal_normalized(i)
        else:
            op = VertexOperator({}, {}, ONE)
            for k in range(1, i):
                op = op.merge(self._phi_dress(k - 1).scaled_argument(pt.p_half(-(k - 1))))
            op = op.merge(self._eta(i - 1).scaled_argument(pt.p_half(-(i - 1))))
            op = VertexOperator(op.creation, op.annihilation, self.module.weights[i - 1])
        self._lambda_cache[i] = op
        return op

    def _lambda_crystal_normalized(self, i):
        # N = 2 currents with the first boson rescaled by half powers of p,
        # so that the zero mode of the first current stays regular at q = 0.
        pt, L = self.point, self.module.level_max
        if self.module.n_bosons != 2:
            raise ValueError("crystal normalization is defined for two bosons")
        if i == 1:
            cre = {(0, n): (1 - pt.t_pow(-n)) * pt.p_half(n) / n for n in range(1, L + 1)}
            ann = {(0, n): -(1 - pt.t_pow(n)) * pt.p_half(-n) / n for n in range(1, L + 1)}
            return VertexOperator(cre, ann, self.module.weights[0])
        cre = {
            (0, n): -(1 - pt.t_pow(-n)) * (1 - pt.p_half(2 * n)) * pt.p_half(-n) / n
            for n in range(1, L + 1)
        }
        for n in range(1, L + 1):
            cre[(1, n)] = (1 - pt.t_pow(-n)) * pt.p_half(-n) / n
        ann = {(1, n): -(1 - pt.t_pow(n)) * pt.p_half(n) / n for n in range(1, L + 1)}
        return VertexOperator(cre, ann, self.module.weights[1])

    def x_terms(self, i):
        """The merged vertex operators whose modes sum to X^(i)."""
        if i in self._x_cache:
            return self._x_cache[i]
        pt = self.point
        n = self.module.n_bosons
        terms = []
        for subset in itertools.combinations(range(1, n + 1), i):
            op = VertexOperator({}, {}, ONE)
            for pos, j in enumerate(subset):
                op = op.merge(self.lambda_current(j).scaled_argument(pt.p_half(2 * pos)))
            terms.append(op)
        self._x_cache[i] = terms
        return terms

    def mode_terms(self, gen, n):
        return self.x_terms(gen)


def structure_series(point, kind, order) -> Series:
    """Structure constants f_l of the quadratic exchange relations."""
    t, q = point.t, point.q
    p = point.p
    log = Series("z", order)
    for n in range(1, order):
        if kind == "virasoro":
            c = (1 - q**n) * (1 - t ** (-n)) / (n * (1 + p**n))
        elif kind == "x1":
            c = (1 - q**n) * (1 - t ** (-n)) / n
        elif kind == "x2":
            c = (1 - q**n) * (1 - t ** (-n)) * (1 + p**n) / n
        else:
            raise ValueError(kind)
        log = log + Series.monomial("z", order, n, c)
    return log.exp()


# -- deformed Virasoro -------------------------------------------------------


class VirasoroFamily(ModeFamily):
    """T(z) = sum of two dressed currents on a single (q,t) boson; K acts as k.

    T has the single generator index 1.
    """

    def __init__(self, module: BosonModule, k_weight):
        super().__init__(module)
        self.k_weight = k_weight
        pt = module.point
        L = module.level_max
        self.plus = VertexOperator(
            {
                (0, n): -(1 - pt.t_pow(n)) / (n * (pt.t_pow(n) + pt.q_pow(n))) * pt.p_half(-n)
                for n in range(1, L + 1)
            },
            {(0, n): -(1 - pt.t_pow(n)) / n * pt.p_half(n) for n in range(1, L + 1)},
            k_weight,
        )
        self.minus = VertexOperator(
            {
                (0, n): (1 - pt.t_pow(n)) / (n * (pt.t_pow(n) + pt.q_pow(n))) * pt.p_half(n)
                for n in range(1, L + 1)
            },
            {(0, n): (1 - pt.t_pow(n)) / n * pt.p_half(-n) for n in range(1, L + 1)},
            1 / k_weight,
        )

    def mode_terms(self, gen, n):
        return [self.plus, self.minus]


# -- crystal generators ------------------------------------------------------


class CrystalVirasoro(ModeFamily):
    """q -> 0 scaled Virasoro modes on the t-boson module (generator index 1)."""

    def __init__(self, module: BosonModule, k_weight):
        assert module.kind == "crystal"
        super().__init__(module)
        pt = module.point
        L = module.level_max
        self.k_weight = k_weight
        self.lam_plus = VertexOperator(
            {(0, n): (1 - pt.t_pow(-n)) / n for n in range(1, L + 1)},
            {(0, n): -(1 - pt.t_pow(n)) / n for n in range(1, L + 1)},
            k_weight,
        )
        self.lam_minus = VertexOperator(
            {(0, n): -(1 - pt.t_pow(-n)) / n for n in range(1, L + 1)},
            {(0, n): (1 - pt.t_pow(n)) / n for n in range(1, L + 1)},
            1 / k_weight,
        )

    def mode_terms(self, gen, n):
        return [op for op, used in ((self.lam_plus, n <= 0), (self.lam_minus, n >= 0)) if used]


class CrystalGenerators(ModeFamily):
    """q -> 0 limits of the two-boson currents on crystal bosons."""

    def __init__(self, module: BosonModule):
        assert module.kind == "crystal" and module.n_bosons == 2
        super().__init__(module)
        pt = module.point
        L = module.level_max
        u1, u2 = module.weights
        self.lam1 = VertexOperator(
            {(0, n): (1 - pt.t_pow(-n)) / n for n in range(1, L + 1)},
            {(0, n): -(1 - pt.t_pow(n)) / n for n in range(1, L + 1)},
            u1,
        )
        cre2 = {(0, n): -(1 - pt.t_pow(-n)) / n for n in range(1, L + 1)}
        for n in range(1, L + 1):
            cre2[(1, n)] = (1 - pt.t_pow(-n)) / n
        self.lam2 = VertexOperator(
            cre2, {(1, n): -(1 - pt.t_pow(n)) / n for n in range(1, L + 1)}, u2
        )
        x2_cre = {(1, n): (1 - pt.t_pow(-n)) / n for n in range(1, L + 1)}
        x2_ann = {(0, n): -(1 - pt.t_pow(n)) / n for n in range(1, L + 1)}
        for n in range(1, L + 1):
            x2_ann[(1, n)] = -(1 - pt.t_pow(n)) / n
        self.x2 = VertexOperator(x2_cre, x2_ann, u1 * u2)

    def mode_terms(self, gen, n):
        if gen == 2:
            return [self.x2]
        return [op for op, used in ((self.lam1, n >= 0), (self.lam2, n <= 0)) if used]


# -- Jing operators ----------------------------------------------------------


def jing_operators(point, level_max):
    """H(z) and its adjoint on the t-boson module; modes build Q_lambda."""
    t = point.t
    h = VertexOperator(
        {(0, n): (1 - t**n) / n for n in range(1, level_max + 1)},
        {(0, n): -(1 - t**n) / n for n in range(1, level_max + 1)},
    )
    h_dag = VertexOperator(
        {(0, n): -(1 - t**n) / n for n in range(1, level_max + 1)},
        {(0, n): (1 - t**n) / n for n in range(1, level_max + 1)},
    )
    return h, h_dag


def jing_build(lam: Partition, point, level_max=None):
    """H_{-lam_1} H_{-lam_2} ... |0>, which equals Q_lambda(b_{-n}; t)|0>."""
    level_max = level_max or max(lam.size, 1)
    module = BosonModule(point, 1, [ONE], level_max, kind="crystal")
    h, _ = jing_operators(point, level_max)
    state = module.vacuum()
    for part in reversed(lam.parts):
        state = h.mode_apply(-part, state, module)
    return module, state


# ---------------------------------------------------------------------------
# PBW words, states and Gram matrices


def pbw_word(tup: PartitionTuple, prime=False):
    """Mode word of the PBW vector; entries (generator index, part)."""
    n = tup.n_components
    comp_order = range(n, 0, -1) if prime else range(1, n + 1)
    return [(i, p) for i in comp_order for p in tup[i - 1].parts]


def pbw_state(tup, family, prime=False):
    """Apply the negative-mode word to the vacuum."""
    state = family.module.vacuum()
    for i, part in reversed(pbw_word(tup, prime=prime)):
        state = family.x_mode(i, -part)(state)
    return state


def pbw_bra(tup, family, prime=False):
    """The adjoint-ordered positive-mode word applied to the vacuum bra."""
    module = family.module
    bra = vacuum_bra(module)
    for i, part in reversed(pbw_word(tup, prime=prime)):
        bra = bra_apply(family.x_mode(i, part), bra, module, module.level_max)
    return bra


def pbw_gram(level, family, prime=False):
    """Gram matrix <X_lam | X_mu> over the canonical tuple order."""
    module = family.module
    tuples = module.basis(level)
    kets = [pbw_state(t, family, prime=prime) for t in tuples]
    bras = [pbw_bra(t, family, prime=prime) for t in tuples]
    return [[module.pair(b, k) for k in kets] for b in bras], tuples
