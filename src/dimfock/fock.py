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
contraction patterns.  Every current is built from the dressed boson
current eta, the phi-dressing, the Virasoro Lambda+ and Jing's H by
normal-ordered products, argument shifts and inverses.

Operator arithmetic runs over the integers and over integer keys.  Each
module numbers its monomials (BosonModule.index and monomial; ids are
contiguous per level, in basis(level) order).  A mode image, an operator
column or a relation's sum of terms is kept as integers over one common
denominator, the lcm of the denominators that enter it, keyed by those
ids: (D, {id: n}), from the mode images to the zero test (mode_apply,
LinOp.image, sum_is_zero).  PartitionTuple keys appear only at the
boundaries: a public state is mapped to ids once (BosonModule.indexed),
and an image is read out once (BosonModule.read_out), each coefficient as
one reduced Fraction, only where a public API returns it: LinOp.__call__,
operator_matrix, the PBW kets and bras.  A RatFunc scalar of a
symbolic-q point takes the same loops as its own numerator over the
denominator 1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

from .combinat import EMPTY, Partition, PartitionTuple, enumerate_tuples
from .scalars import cleared, dot, exp_series, quotient

ZERO = Fraction(0)
ONE = Fraction(1)


class LevelOverflow(ValueError):
    pass


# ---------------------------------------------------------------------------
# Modules and states


class MonomialIndex:
    """The integer ids of the creation monomials of an N-boson module.

    The monomials of a level take the contiguous ids offset(level),
    offset(level) + 1, ... in basis(level) order, the first time the level
    is touched.  Each module holds its own index, so ids are never shared
    between modules, and the table dies with its module.
    """

    __slots__ = ("n_bosons", "ids", "monomials", "offsets", "__weakref__")

    def __init__(self, n_bosons):
        self.n_bosons = n_bosons
        self.ids = {}  # PartitionTuple -> id
        self.monomials = []  # id -> PartitionTuple, the basis(level) objects
        self.offsets = {}  # level -> id of its first monomial

    def offset(self, level: int) -> int:
        off = self.offsets.get(level)
        if off is None:
            basis = enumerate_tuples(self.n_bosons, level)
            off = self.offsets[level] = len(self.monomials)
            self.ids.update(zip(basis, range(off, off + len(basis))))
            self.monomials.extend(basis)
        return off

    def index(self, tup: PartitionTuple) -> int:
        i = self.ids.get(tup)
        if i is None:
            self.offset(tup.size)
            i = self.ids[tup]
        return i


class BosonModule:
    """N boson families over a scalar point, truncated at level_max.

    The module's operators work on its monomials by their integer ids
    (index, monomial, offset); states handed in or out are keyed by
    PartitionTuples, mapped by indexed and read_out.
    """

    def __init__(self, point, n_bosons, weights, level_max, kind="qt"):
        if kind not in ("qt", "crystal"):
            raise ValueError(kind)
        self.point = point
        self.n_bosons = n_bosons
        self.weights = list(weights)
        self.level_max = level_max
        self.kind = kind
        self._rho = {}
        self._index = MonomialIndex(n_bosons)
        self._products = {}

    def index(self, tup: PartitionTuple) -> int:
        """The id of a monomial; its level is seeded on first touch."""
        return self._index.index(tup)

    def monomial(self, i: int) -> PartitionTuple:
        """The monomial of id i, the basis(level) object."""
        return self._index.monomials[i]

    def offset(self, level: int) -> int:
        """The id of basis(level)[0]; basis(level)[j] has id offset(level) + j."""
        return self._index.offset(level)

    def indexed(self, state):
        """A state keyed by monomial ids, for the module's operators."""
        index = self._index.index
        return {index(tup): c for tup, c in state.items()}

    def read_out(self, big, acc):
        """The state {monomial: v / big} of a cleared image keyed by ids,
        without its zero entries."""
        monomials = self._index.monomials
        return {monomials[i]: quotient(v, big) for i, v in acc.items() if v}

    def products(self, base: int, c: int):
        """The ids of monomial base times each level-c monomial, in basis(c) order."""
        row = self._products.get((base, c))
        if row is None:
            tup, index = self.monomial(base), self._index.index
            row = self._products[(base, c)] = [
                index(monomial_product(tup, pat)) for pat in self.basis(c)
            ]
        return row

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


def state_scale(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def coordinates(state, monomials):
    """The dense vector of a state over a list of monomials; entries of the
    state outside the list are left out."""
    return [state.get(m, ZERO) for m in monomials]


def column_matrix(states, monomials):
    """Dense matrix whose column j holds coordinates(states[j], monomials)."""
    return [[st.get(m, ZERO) for st in states] for m in monomials]


def state_combination(terms):
    """sum of c * state over (c, state) terms, with one reduction per entry."""
    return read_out(*_sum([(c, cleared_state(state)) for c, state in terms]))


def combination_is_zero(terms):
    """Whether sum of c * state over (c, state) terms is exactly zero."""
    return sum_is_zero([(c, cleared_state(state)) for c, state in terms])


def sum_is_zero(terms):
    """Whether sum of c * image over (c, image) terms is exactly zero, for
    cleared images (D, {monomial: n}) such as LinOp.image returns."""
    return not any(_sum(terms)[1].values())


# -- integer-cleared arithmetic ------------------------------------------------
#
# A scalar x is read as x.numerator / x.denominator with an integer
# denominator (a RatFunc is x / 1), as scalars.cleared reads it.  A cleared
# state (D, {key: n}) stands for the state {key: n / D}, with integer n over
# Q; a unit state is (1, {key: 1}), with the int 1, so that its sums stay
# integer sums.  A piece (n, d, items) stands for n / d * sum of v * e_key
# over the (key, v) items.  A scale factor of 1 is skipped, not multiplied:
# over Q(s) each multiply is a RatFunc product with its gcds.


def cleared_state(state):
    """(D, {key: n}) with state[key] == n / D, over the least D."""
    d, nums = cleared(state.values())
    return d, dict(zip(state, nums))


def _sum(terms):
    """(L, {key: integer}) of sum c * image over (c, image) terms of cleared images."""
    return _accumulate([(c.numerator, c.denominator * d, acc.items()) for c, (d, acc) in terms])


def _accumulate(pieces):
    """(L, {key: integer}) over the lcm L of the piece denominators."""
    pieces = list(pieces)
    big = lcm(*(d for _, d, _ in pieces))
    acc = {}
    for n, d, items in pieces:
        w = n if d == big else n * (big // d)
        if w == 1:
            for key, v in items:
                acc[key] = acc.get(key, 0) + v
        else:
            for key, v in items:
                acc[key] = acc.get(key, 0) + w * v
    return big, acc


def _least(d, acc):
    """(d, acc) without its zero entries, over its least denominator: d and
    each numerator divided by the gcd of d and the integer numerators (a
    RatFunc numerator of a symbolic-q point holds its own content)."""
    acc = {key: v for key, v in acc.items() if v}
    g = gcd(d, *(v for v in acc.values() if type(v) is int))
    if g != 1:
        return d // g, {key: v // g if type(v) is int else v / g for key, v in acc.items()}
    return d, acc


def read_out(big, acc):
    """The state {key: v / big} of a cleared image, without its zero entries."""
    return {key: quotient(v, big) for key, v in acc.items() if v}


def monomial_product(a: PartitionTuple, b: PartitionTuple) -> PartitionTuple:
    """The creation monomial a_{-a} a_{-b}: the parts of a and b, per boson."""
    return PartitionTuple(
        [Partition(tuple(sorted(x.parts + y.parts, reverse=True))) for x, y in zip(a, b)]
    )


def apply_symfunc(module, f, bosons, state):
    """Multiply a state by f with p_n replaced by a creation combination.

    f is a symmetric function as a power-sum dict {Partition: c}; bosons
    lists (boson index, scalar) pairs, and p_n becomes the sum of scalar *
    a^(i)_{-n} over them.  Used for Macdonald/Hall-Littlewood dressed
    states.
    """
    out = {}
    for lam, coeff in f.items():
        expanded = {module.empty_tuple(): coeff}
        for n in lam.parts:
            nxt = {}
            for tup, c in expanded.items():
                for i, w in bosons:
                    merged = tup.replace(i, Partition(tuple(sorted(tup[i].parts + (n,), reverse=True))))
                    nxt[merged] = nxt.get(merged, ZERO) + c * w
            expanded = nxt
        for tup, c in expanded.items():
            out[tup] = out.get(tup, ZERO) + c
    # multiply into the target state (creation operators commute freely)
    res = {}
    for tup, c in out.items():
        for tup2, c2 in state.items():
            merged = monomial_product(tup, tup2)
            res[merged] = res.get(merged, ZERO) + c * c2
    return {k: v for k, v in res.items() if v}


# ---------------------------------------------------------------------------
# Vertex operators


class VertexOperator:
    """Normal-ordered exp(sum A a_- z^n) exp(sum B a_+ z^-n) * prefactor."""

    __slots__ = ("creation", "annihilation", "prefactor", "_cre_cache", "_contracted")

    def __init__(self, creation=None, annihilation=None, prefactor=ONE):
        self.creation = dict(creation or {})
        self.annihilation = dict(annihilation or {})
        self.prefactor = prefactor
        # memos of the mode extraction; the second refers to the modules it
        # has met, never the reverse, so operator -> module is the only link
        self._cre_cache = {}
        self._contracted = {}

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
        """Normal-ordered product; contractions are discarded by convention,
        and coefficients that cancel to 0 are dropped."""
        cre = dict(self.creation)
        for k, v in other.creation.items():
            cre[k] = cre.get(k, ZERO) + v
        ann = dict(self.annihilation)
        for k, v in other.annihilation.items():
            ann[k] = ann.get(k, ZERO) + v
        return VertexOperator(
            {k: v for k, v in cre.items() if v},
            {k: v for k, v in ann.items() if v},
            self.prefactor * other.prefactor,
        )

    def inverse(self):
        """The operator whose normal-ordered product with this one is 1."""
        return VertexOperator(
            {k: -v for k, v in self.creation.items()},
            {k: -v for k, v in self.annihilation.items()},
            1 / self.prefactor,
        )

    def times(self, c):
        """The same operator with its prefactor multiplied by c."""
        return VertexOperator(self.creation, self.annihilation, self.prefactor * c)

    # -- exact mode extraction ------------------------------------------

    def _creation_patterns(self, c, n_bosons):
        """(D, positions, nums): the level-c creation monomials basis(c)[pos]
        with a nonzero coefficient, the prefactor included, as nums[i] / D."""
        hit = self._cre_cache.get(c)
        if hit is None:
            positions, factors = [], []
            for pos, tup in enumerate(enumerate_tuples(n_bosons, c)):
                factor = self.prefactor
                for i, lam in enumerate(tup):
                    for n in set(lam.parts):
                        m = lam.mult(n)
                        factor = factor * self.creation.get((i, n), ZERO) ** m / factorial(m)
                if factor:
                    positions.append(pos)
                    factors.append(factor)
            hit = self._cre_cache[c] = (positions, *cleared(factors))
        return hit

    def _contractions(self, module, idx):
        """(level, [(base, m, n, d), ...]) for monomial id idx: its level and,
        per way to contract annihilators with it, the id base of the
        monomial left when j copies of each contracted part are removed, m
        the level they take away and n / d the weight: the product of
        binom(mult, j) (B * rho)^j over the contracted parts.  The list is
        memoized per (module, id), so the modes of every index k share it.
        """
        key = (module, idx)
        hit = self._contracted.get(key)
        if hit is not None:
            return hit
        tup = module.monomial(idx)
        options = []
        for i, lam in enumerate(tup):
            for n in sorted(set(lam.parts)):
                b = self.annihilation.get((i, n))
                if b:
                    br = b * module.rho(n)
                    num, den = br.numerator, br.denominator
                    m = lam.mult(n)
                    options.append(
                        [(i, n, 0, 1, 1)]
                        + [(i, n, j, comb(m, j) * num**j, den**j) for j in range(1, m + 1)]
                    )
        found = []
        for picks in itertools.product(*options):
            removed = tuple((i, n, j) for i, n, j, _, _ in picks if j)
            m_tot, num, den = 0, 1, 1
            for i, n, j, pn, pd in picks:
                if j:
                    num = num * pn if m_tot else pn
                    m_tot += n * j
                    den *= pd
            found.append((module.index(_remove_parts(tup, removed)), m_tot, num, den))
        hit = self._contracted[key] = (tup.size, found)
        return hit

    def mode_apply(self, k, state, module):
        """Coefficient of z^(-k) acting on a state keyed by the module's
        monomial ids, lowering its level by k, as a cleared image
        (D, {id: n}) for module.read_out: each contraction of each input
        monomial adds n / d times the creation patterns of the level left
        over, summed as integers over the lcm D of all the d and left
        unreduced, as LinOp.image leaves its sums."""
        pieces = []
        for i, coeff in state.items():
            lev, contractions = self._contractions(module, i)
            for base, m_tot, num, den in contractions:
                c = m_tot - k
                if c < 0:
                    continue
                if lev - k > module.level_max:
                    raise LevelOverflow(
                        "level %d exceeds module cap %d" % (lev - k, module.level_max)
                    )
                positions, d_c, nums = self._creation_patterns(c, module.n_bosons)
                row = module.products(base, c)
                pieces.append(
                    (
                        coeff.numerator * num if m_tot else coeff.numerator,
                        coeff.denominator * den * d_c,
                        zip(map(row.__getitem__, positions), nums),
                    )
                )
        return _accumulate(pieces)


def _remove_parts(tup, removed):
    """tup without j copies of part n of boson i, for each (i, n, j) in removed."""
    if not removed:
        return tup
    comps = [list(lam.parts) for lam in tup]
    for i, n, j in removed:
        for _ in range(j):
            comps[i].remove(n)
    return PartitionTuple([Partition(c) for c in comps])


# ---------------------------------------------------------------------------
# Linear operators on a module


class LinOp:
    """A linear operator, memoized column by column.

    apply_fn maps a state to a state.  The operator evaluates apply_fn once
    per basis key, on {key: 1}, and caches that image (the operator's
    column) on the operator, cleared to integers over its least
    denominator D as (D, {key: n}).  ``image`` maps a cleared state to its
    cleared image by summing the cached columns over the lcm of their
    denominators; a call is the same sum read out as a fresh state.

    Columns and ``image`` work in the operator's key space.  A plain LinOp's
    is its caller's keys: PartitionTuples for ``after`` and ``commutator``
    composites of a module's operators, the diagrams of
    ``vertical._x_op``.  A family mode (``_ModeSum``) works on its module's
    monomial ids; its calls take and return states keyed by PartitionTuples.
    Composites are LinOps too, so a composite applied repeatedly (a nested
    commutator of ``vertical.hamiltonian``) keeps its own columns.  A
    composite refers to its factors and never the reverse, so the caches
    form no reference cycle: they are freed with the last reference to the
    operator, which for family modes is the family.
    """

    __slots__ = ("_apply", "_columns", "__weakref__")

    def __init__(self, apply_fn, _label=None):
        # _label is ignored; perfbench/test_perfbench.py still passes one
        self._apply = apply_fn
        self._columns = {}

    def _column(self, key):
        return cleared_state(self._apply({key: ONE}))

    def column(self, key):
        """The cached image (D, {key: n}) of the basis key."""
        col = self._columns.get(key)
        if col is None:
            col = self._columns[key] = self._column(key)
        return col

    def _pieces(self, items):
        columns = self._columns
        for key, c in items:
            if c:
                d, col = columns.get(key) or self.column(key)
                yield c.numerator, c.denominator * d, col.items()

    def image(self, d, acc):
        """The cleared image (D', {key: n'}) of the cleared state (d, acc)."""
        big, out = _accumulate(self._pieces(acc.items()))
        return d * big, out

    def _keyed(self, state):
        """A caller's state in the operator's key space."""
        return state

    def _read_out(self, big, acc):
        """A cleared image of the operator's key space as a caller's state."""
        return read_out(big, acc)

    def __call__(self, state):
        return self._read_out(*_accumulate(self._pieces(self._keyed(state).items())))

    def after(self, other):
        """self . other (apply other first)."""
        return LinOp(lambda s: self(other(s)))

    def commutator(self, other):
        return LinOp(lambda s: state_combination([(ONE, self(other(s))), (-ONE, other(self(s)))]))


class _ModeSum(LinOp):
    """Mode k of a sum of vertex operators, on the monomial ids of a module.

    A column is the terms' cleared mode_apply images of the monomial summed
    over the lcm of their denominators, reduced once to its least one.
    """

    __slots__ = ("_terms", "_k", "_module")

    def __init__(self, terms, k, module):
        super().__init__(None)
        self._terms, self._k, self._module = terms, k, module

    def _column(self, i):
        unit = {i: 1}
        images = [term.mode_apply(self._k, unit, self._module) for term in self._terms]
        return _least(*_accumulate((1, d, acc.items()) for d, acc in images))

    def _keyed(self, state):
        return self._module.indexed(state)

    def _read_out(self, big, acc):
        return self._module.read_out(big, acc)


def vertex_mode(op: VertexOperator, k: int, module: BosonModule) -> LinOp:
    return _ModeSum([op], k, module)


def operator_matrix(op: LinOp, module: BosonModule, level_from: int, level_to: int):
    """Dense matrix of a family mode between monomial bases (rows: target,
    cols: source).  Column j is the cached column of id offset(level_from)
    + j; the entry of id i sits in row i - offset(level_to)."""
    first, sources = module.offset(level_from), len(module.basis(level_from))
    off, rows = module.offset(level_to), len(module.basis(level_to))
    mat = [[ZERO] * sources for _ in range(rows)]
    for j in range(sources):
        d, col = op.column(first + j)
        for i, v in col.items():
            if v:
                if not 0 <= i - off < rows:
                    raise ValueError("operator image leaked outside target level")
                mat[i - off][j] = quotient(v, d)
    return mat


# -- bra functionals (values on creation monomials) --------------------------


def bra_apply(op: LinOp, bra, module, level):
    """Append a family mode on the right of a bra functional: <bra| op, read
    on the monomials of the one level it lands on.

    Pairs over the integers: the bra is cleared once to n_m / D and keyed
    by monomial ids, and each value is the dot product of those n_m with
    the op's cached column of the monomial, read out once over D times the
    column's denominator.
    """
    d, nums = cleared(bra.values())
    index = module.index
    bra_nums = {index(tup): n for tup, n in zip(bra, nums) if n}
    first = module.offset(level)
    out = {}
    for j, tup in enumerate(module.basis(level)):
        d_col, col = op.column(first + j)
        total = 0
        for i, v in col.items():
            b = bra_nums.get(i)
            if b:
                total += b * v
        if total:
            out[tup] = quotient(total, d, d_col)
    return out


# ---------------------------------------------------------------------------
# Generator families


class ModeFamily:
    """Generators on a module whose modes are sums of vertex-operator modes.

    A family names the vertex operators that sum to mode n of generator gen
    (``mode_terms``); ``x_mode`` turns them into one LinOp, built once per
    (gen, n), which memoizes its image of each basis monomial.  The PBW
    kets and bras of the family share one memo of word suffixes
    (``_walk_word``).  The caches live as long as the family, which a check
    builds and drops.
    """

    def __init__(self, module: BosonModule):
        self.module = module
        self._mode_cache = {}
        self._words = {}

    def mode_terms(self, gen, n):
        raise NotImplementedError

    def x_mode(self, gen, n) -> LinOp:
        """Mode n of generator gen; lowers the level by n."""
        key = (gen, n)
        if key not in self._mode_cache:
            # the operator holds the terms and the module, not the family,
            # so family -> operator is the only reference between them
            self._mode_cache[key] = _ModeSum(self.mode_terms(gen, n), n, self.module)
        return self._mode_cache[key]


def eta(i, module):
    """The dressed current of boson i,
    exp(sum (1 - t^-n)/n a_-n z^n) exp(-sum (1 - t^n)/n a_n z^-n),
    from which every current of the module is built by normal-ordered
    products, argument shifts and inverses."""
    t, L = module.point.t, module.level_max
    cre = {(i, n): (1 - t ** (-n)) / n for n in range(1, L + 1)}
    ann = {(i, n): -(1 - t**n) / n for n in range(1, L + 1)}
    return VertexOperator(cre, ann)


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

    def _phi_dress(self, i):
        pt, L = self.point, self.module.level_max
        cre = {
            (i, n): (1 - pt.t ** (-n)) * (1 - pt.p_half(-2 * n)) / n for n in range(1, L + 1)
        }
        return VertexOperator(cre, {})

    def lambda_current(self, i):
        """Boson i - 1 dressed by the lower bosons, weight u_i.

        Boson j enters at argument z p^(-j/2).  The crystal normalization
        moves boson 0 to z p^(1/2), so that the zero modes of the currents
        stay regular at q = 0.
        """
        if i not in self._lambda_cache:
            shift = lambda j: self.point.p_half(1 if j == 0 and self.crystal_normalized else -j)
            op = VertexOperator()
            for j in range(i - 1):
                op = op.merge(self._phi_dress(j).scaled_argument(shift(j)))
            op = op.merge(eta(i - 1, self.module).scaled_argument(shift(i - 1)))
            self._lambda_cache[i] = op.times(self.module.weights[i - 1])
        return self._lambda_cache[i]

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

    def term_weights(self, i, weights):
        """prod_{j in S} w_j for each i-subset S, in x_terms order.

        The weights enter X^(i) only as these prefactors of its terms: on a
        module with unit weights the terms are weight-free, and X^(i) at
        weights w is the sum of their modes times term_weights(i, w).
        """
        return [
            prod((weights[j - 1] for j in subset), start=ONE)
            for subset in itertools.combinations(range(1, self.module.n_bosons + 1), i)
        ]

    def mode_terms(self, gen, n):
        return self.x_terms(gen)


def structure_series(point, kind, order):
    """Structure constants f_0 .. f_(order-1) of the quadratic exchange relations."""
    t, q = point.t, point.q
    p = point.p
    log = [ZERO]
    for n in range(1, order):
        if kind == "virasoro":
            c = (1 - q**n) * (1 - t ** (-n)) / (n * (1 + p**n))
        elif kind == "x1":
            c = (1 - q**n) * (1 - t ** (-n)) / n
        elif kind == "x2":
            c = (1 - q**n) * (1 - t ** (-n)) * (1 + p**n) / n
        else:
            raise ValueError(kind)
        log.append(c)
    return exp_series(log)


# -- deformed Virasoro -------------------------------------------------------


class VirasoroFamily(ModeFamily):
    """T(z) = Lambda+(z) + Lambda+(pz)^-1 on a single (q,t) boson; K acts as
    k, the module's weight.

    T has the single generator index 1.
    """

    def __init__(self, module: BosonModule):
        super().__init__(module)
        pt = module.point
        L = module.level_max
        self.plus = VertexOperator(
            {
                (0, n): -(1 - pt.t**n) / (n * (pt.t**n + pt.q**n)) * pt.p_half(-n)
                for n in range(1, L + 1)
            },
            {(0, n): -(1 - pt.t**n) / n * pt.p_half(n) for n in range(1, L + 1)},
            module.weights[0],
        )
        self.minus = self.plus.inverse().scaled_argument(pt.p)

    def mode_terms(self, gen, n):
        return [self.plus, self.minus]


# -- crystal generators ------------------------------------------------------


class CrystalVirasoro(ModeFamily):
    """q -> 0 scaled Virasoro modes on the t-boson module (generator index 1):
    lambda+ = k eta and its inverse, k the module's weight."""

    def __init__(self, module: BosonModule):
        assert module.kind == "crystal"
        super().__init__(module)
        self.lam_plus = eta(0, module).times(module.weights[0])
        self.lam_minus = self.lam_plus.inverse()

    def mode_terms(self, gen, n):
        return [op for op, used in ((self.lam_plus, n <= 0), (self.lam_minus, n >= 0)) if used]


class CrystalGenerators(ModeFamily):
    """q -> 0 limits of the two-boson currents on crystal bosons."""

    def __init__(self, module: BosonModule):
        assert module.kind == "crystal" and module.n_bosons == 2
        super().__init__(module)
        u1, u2 = module.weights
        eta0 = eta(0, module)
        self.lam1 = eta0.times(u1)
        # boson 1 dressed by the inverse creation half of boson 0
        self.lam2 = VertexOperator(eta0.creation).inverse().merge(eta(1, module)).times(u2)
        self.x2 = self.lam1.merge(self.lam2)

    def mode_terms(self, gen, n):
        if gen == 2:
            return [self.x2]
        return [op for op, used in ((self.lam1, n >= 0), (self.lam2, n <= 0)) if used]


# -- Jing operators ----------------------------------------------------------


def jing_operator(point, level_max):
    """H(z) on the t-boson module; its modes build Q_lambda, and those of its
    inverse, the adjoint H^dagger, the dual functionals."""
    t = point.t
    return VertexOperator(
        {(0, n): (1 - t**n) / n for n in range(1, level_max + 1)},
        {(0, n): -(1 - t**n) / n for n in range(1, level_max + 1)},
    )


def jing_build(lam: Partition, point, level_max=None):
    """H_{-lam_1} H_{-lam_2} ... |0>, which equals Q_lambda(b_{-n}; t)|0>."""
    level_max = level_max or max(lam.size, 1)
    module = BosonModule(point, 1, [ONE], level_max, kind="crystal")
    h = jing_operator(point, level_max)
    d, state = 1, {module.index(module.empty_tuple()): 1}
    for part in reversed(lam.parts):
        e, state = h.mode_apply(-part, state, module)
        d *= e
    return module, module.read_out(d, state)


# ---------------------------------------------------------------------------
# PBW words, states and Gram matrices


def pbw_word(tup: PartitionTuple):
    """Mode word of the PBW vector; entries (generator index, part).

    The primed order: the parts of the last component come first, so the
    ket X^(N)_{-lam^(N)} ... X^(1)_{-lam^(1)}|0> applies the first
    component's modes to the vacuum first.  The unprimed words (components
    1 ... N) span the same level with the same Gram determinant."""
    return [(i, p) for i in range(tup.n_components, 0, -1) for p in tup[i - 1].parts]


def _walk_word(family, letters, value, step):
    """value with the word's letters applied one at a time from its right
    end, value = step(value, suffix) for each suffix, shortest first.

    Each suffix's value is memoized on the family, keyed by the suffix's
    (generator, mode) letters, so the PBW words that end alike share their
    steps.  The memo dies with the family; the values it returns are shared
    with it and must not be mutated.
    """
    memo = family._words
    for k in range(len(letters) - 1, -1, -1):
        suffix = letters[k:]
        hit = memo.get(suffix)
        if hit is None:
            hit = memo[suffix] = step(value, suffix)
        value = hit
    return value


def _word_ket(letters, family):
    """The ket of a negative-mode word: its (generator, mode) letters applied
    to the vacuum, the rightmost first, through the family's suffix memo."""
    return _walk_word(
        family, letters, family.module.vacuum(), lambda st, sfx: family.x_mode(*sfx[0])(st)
    )


def pbw_state(tup, family):
    """Apply the negative-mode word to the vacuum."""
    return _word_ket(tuple((i, -part) for i, part in pbw_word(tup)), family)


def pbw_bra(tup, family):
    """The adjoint-ordered positive-mode word applied to the vacuum bra.

    The bra of a suffix lives on the level its modes add up to."""
    module = family.module

    def step(bra, suffix):
        level = sum(part for _, part in suffix)
        return bra_apply(family.x_mode(*suffix[0]), bra, module, level)

    return _walk_word(family, tuple(pbw_word(tup)), module.vacuum(), step)


def pbw_gram(level, family):
    """Gram matrix <X_lam | X_mu> over the canonical tuple order, over Q.

    Pairs over the integers: each ket and each bra, read on the monomials
    the kets reach, is cleared once to an integer vector over the lcm D of
    its denominators, and each entry is one Fraction(sum of integer
    products, D_bra * D_ket) in place of a Fraction multiply-add per
    monomial.
    """
    module = family.module
    tuples = module.basis(level)
    kets = [pbw_state(t, family) for t in tuples]
    bras = [pbw_bra(t, family) for t in tuples]
    support = list(dict.fromkeys(m for ket in kets for m in ket))
    kets = [cleared([ket.get(m, 0) for m in support]) for ket in kets]
    bras = [cleared([bra.get(m, 0) for m in support]) for bra in bras]
    gram = [[quotient(dot(bv, kv), bd, kd) for kd, kv in kets] for bd, bv in bras]
    return gram, tuples
