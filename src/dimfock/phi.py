"""Intertwining vertex operators between Fock modules.

Generic case: the operator is pinned down by quadratic exchange relations
with the currents plus the vacuum normalization; its matrix elements between
monomial bases are the unique solution of the resulting linear system,
solved here exactly (rank defects are reported, not assumed away).  For one
boson the known exponential closed form is also provided as an independent
oracle.

Crystal case: the q -> 0 vertex operator is evaluated by repeated
commutation moves.  Stripping the generator adjacent to the operator either
lowers a mode index or produces a zero-mode scalar, so the recursion
terminates by induction on the level, with memoization over mode words.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from . import linalg
from .combinat import PartitionTuple, enumerate_tuples, n_stat
from .fock import (
    BosonModule,
    CrystalGenerators,
    GeneratorFamily,
    VertexOperator,
    _word_ket,
    column_matrix,
    coordinates,
    operator_matrix,
    pbw_gram,
    pbw_state,
    pbw_word,
    vertex_mode,
)
from .genmac import gen_macdonald, integral_forms
from .nekrasov import nek_factor

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Generic vertex operator


def phi_rank1_closed(point_u, point_v, level_max):
    """The exponential form of the one-boson vertex operator."""
    q, t = point_u.q, point_u.t
    u, v = point_u.u[0], point_v.u[0]
    cre = {}
    ann = {}
    for n in range(1, level_max + 1):
        cre[(0, n)] = -Fraction(1, n) * (v**n - (t / q) ** n * u**n) / (1 - q**n)
        ann[(0, n)] = Fraction(1, n) * (v ** (-n) - u ** (-n)) / (1 - q ** (-n))
    return VertexOperator(cre, ann, ONE)


class PhiMatrix:
    """Matrix elements <s'| Phi(w) |s> with the w-power carried separately.

    entries[s'][s] is the scalar multiplying w^(level(s') - level(s)).
    """

    def __init__(self, entries):
        self.entries = entries

    def element(self, bra_state, ket_state, w_value):
        total = ZERO
        for s, c in ket_state.items():
            col = self.entries.get(s)
            if not col:
                continue
            for s2, m in col.items():
                b = bra_state.get(s2)
                if b:
                    total = total + b * c * m * w_value ** (s2.size - s.size)
        return total


def weighted_mode_matrices(family, i, n, level_from, weight_vectors):
    """X^(i)_n from level_from to level_from - n at each of weight_vectors,
    as dense matrices (rows: target, cols: source).

    family is a GeneratorFamily on a module with unit weights.  The mode
    matrix M_S of each weight-free term is extracted once, and X^(i)_n at
    weights w is the sum over i-subsets S of (prod_{j in S} w_j) M_S.
    """
    module = family.module
    terms = [
        operator_matrix(vertex_mode(term, n, module), module, level_from, level_from - n)
        for term in family.x_terms(i)
    ]
    return [
        [
            [sum([c * x for c, x in zip(coeffs, cells) if x], ZERO) for cells in zip(*lines)]
            for lines in zip(*terms)
        ]
        for coeffs in (family.term_weights(i, w) for w in weight_vectors)
    ]


def _keyed(lines, scale, first, stride):
    """Each line of a matrix times scale, as [(key, value)] over its nonzero
    entries, entry j keyed (first + j) * stride."""
    return [[((first + j) * stride, scale * x) for j, x in enumerate(line) if x] for line in lines]


def solve_vertex_phi(point_u, point_v, n_comp, level_max):
    """Solve the exchange relations for the matrix elements, exactly.

    Unknowns are all matrix elements between monomial bases up to level_max
    on both sides; equations run over both currents and a band of modes wide
    enough to close the truncated system.  That system is overdetermined,
    and a consistent one is solved; raises SingularMatrix if it is
    inconsistent or does not pin every unknown.

    The two points share (q, t), so one module with unit weights serves both
    sides: each weight-free term's mode matrix is extracted once, and each
    side's X^(i)_n is their sum weighted by its own u or v
    (`weighted_mode_matrices`).  Each of the four scaled forms an equation
    reads, X_n and -e_v X_(n-1) on the bra side, -X_n and (t/q)^i e_v X_(n-1)
    on the ket side, is read once per (i, n) as sparse lines keyed by
    unknown index.
    """
    if (point_u.q, point_u.t) != (point_v.q, point_v.t):
        raise ValueError("the two points must share (q, t)")
    mod = BosonModule(point_u, n_comp, [ONE] * n_comp, level_max, kind="qt")
    fam = GeneratorFamily(mod)
    weights = (point_u.u[:n_comp], point_v.u[:n_comp])
    e_v = prod(weights[1], start=ONE)
    tq = point_u.t / point_u.q

    states = []
    first = []  # by level, the index in states of its first monomial
    for lev in range(level_max + 1):
        first.append(len(states))
        states.extend(mod.basis(lev))
    n_states = len(states)
    # the unknown <b| Phi |s> has index index(b) * n_states + index(s)
    n_unknowns = n_states * n_states

    mats = {}  # (i, n, level_from) -> X^(i)_n on the u side and on the v side

    def modes(i, n, level_from):
        level_to = level_from - n
        if not (0 <= level_from <= level_max and 0 <= level_to <= level_max):
            return None
        key = (i, n, level_from)
        if key not in mats:
            mats[key] = weighted_mode_matrices(fam, i, n, level_from, weights)
        return mats[key]

    rows = []
    band = level_max + 1
    for i in range(1, n_comp + 1):
        shift = tq**i * e_v
        for n in range(-band, band + 1):
            # every term of the relation must stay inside the truncation,
            # else the equation is not represented
            ket_levels = range(min(level_max, level_max + n - 1) + 1)
            bra_levels = range(min(level_max, level_max - n) + 1)
            if not (ket_levels and bra_levels):
                continue
            # both levels run from 0, so a part's position in these lists
            # is its monomial's index in states
            # (X_n - e_v X_(n-1)) Phi |s> at bra nu; each key still needs
            # the index of s added
            bra_parts = []
            for lev_b in bra_levels:
                parts = [[] for _ in mod.basis(lev_b)]
                for k, scale in ((n, ONE), (n - 1, -e_v)):
                    m = modes(i, k, lev_b + k)
                    if m is not None:
                        for part, line in zip(parts, _keyed(m[1], scale, first[lev_b + k], n_states)):
                            part.extend(line)
                bra_parts.extend(parts)
            # Phi (-X_n + (t/q)^i e_v X_(n-1)) |s> at ket s; each key still
            # needs index(nu) * n_states added
            ket_parts = []
            for lev_s in ket_levels:
                parts = [[] for _ in mod.basis(lev_s)]
                for k, scale in ((n, -ONE), (n - 1, shift)):
                    m = modes(i, k, lev_s)
                    if m is not None:
                        for part, line in zip(parts, _keyed(zip(*m[0]), scale, first[lev_s - k], 1)):
                            part.extend(line)
                ket_parts.extend(parts)
            for ks, ket_part in enumerate(ket_parts):
                for kb, bra_part in enumerate(bra_parts):
                    if not (bra_part or ket_part):
                        continue
                    # empty cells hold linalg.ZERO itself, which solve_unique
                    # skips unread
                    row = [linalg.ZERO] * n_unknowns
                    for key, c in bra_part:
                        row[key + ks] = c
                    offset = kb * n_states
                    for key, c in ket_part:
                        x = row[key + offset]
                        row[key + offset] = c if x is linalg.ZERO else x + c
                    rows.append(row)
    rhs = [ZERO] * len(rows) + [ONE]
    # normalization <v|Phi|u> = 1: both vacua have index 0
    rows.append([ONE] + [linalg.ZERO] * (n_unknowns - 1))

    sol = linalg.solve_unique(rows, rhs)
    entries = {}
    for ks, s in enumerate(states):
        col = entries[s] = {}
        for kb, b in enumerate(states):
            val = sol[kb * n_states + ks]
            if val:
                col[b] = val
    return PhiMatrix(entries)


def phi_matrix_rank1(point_u, point_v, level_max):
    """Matrix elements of the one-boson closed form (oracle for the solver)."""
    op = phi_rank1_closed(point_u, point_v, level_max)
    mod = BosonModule(point_u, 1, point_u.u[:1], level_max, kind="qt")
    entries = {}
    for lev in range(level_max + 1):
        for s in mod.basis(lev):
            img = {}
            for lev2 in range(level_max + 1):
                img.update(mod.read_out(*op.mode_apply(lev - lev2, {mod.index(s): 1}, mod)))
            entries[s] = img
    return PhiMatrix(entries)


def phi_element_formula(lam_tup, mu_tup, point_u, point_v, w_value):
    """Closed Nekrasov-factor form of the integral-form matrix elements."""
    n = lam_tup.n_components
    q, t = point_u.q, point_u.t
    u = point_u.u[:n]
    v = point_v.u[:n]
    big, small = lam_tup.size, mu_tup.size
    e_u = ONE
    e_v = ONE
    for i in range(n):
        e_u, e_v = e_u * u[i], e_v * v[i]
    val = Fraction(-1) ** (big + (n - 1) * small)
    val = val * (t / q) ** (n * (big - small)) * e_u**big
    val = val * e_v ** (big - small) * w_value ** (big - small)
    for i in range(n):
        val = val * u[i] ** (n * mu_tup[i].size)
        val = val * q ** (n * n_stat(mu_tup[i].conjugate())) * t ** (-n * n_stat(mu_tup[i]))
    for i in range(n):
        for j in range(n):
            val = val * nek_factor(lam_tup[i], mu_tup[j], q * v[i] / (t * u[j]), point_u)
    return val


def phi_element_conjecture_check(level, point_u, point_v, n_comp):
    """Integral-form matrix elements of the solved operator vs closed form."""
    if n_comp == 1:
        matrix = phi_matrix_rank1(point_u, point_v, level)
    else:
        matrix = solve_vertex_phi(point_u, point_v, n_comp, level)
    w0 = point_u.fresh_rational("phi-w")
    forms_u = {n: integral_forms(gen_macdonald(n, point_u, n_comp=n_comp)) for n in range(level + 1)}
    forms_v = {n: integral_forms(gen_macdonald(n, point_v, n_comp=n_comp)) for n in range(level + 1)}
    failures = []
    for ln in range(level + 1):
        for lt in enumerate_tuples(n_comp, ln):
            bra = forms_v[ln].k_bra(lt)
            for mn in range(level + 1):
                for mt in enumerate_tuples(n_comp, mn):
                    got = matrix.element(bra, forms_u[mn].k_state(mt), w0)
                    want = phi_element_formula(lt, mt, point_u, point_v, w0)
                    if got != want:
                        failures.append((lt, mt))
    return failures


# ---------------------------------------------------------------------------
# Crystal vertex operator by commutation moves


class CrystalPhi:
    """Matrix elements of the crystal vertex operator F_u -> F_v at fixed z.

    The two callables expose the vacuum row <v| Phi(z) |x> for x in F_u
    (through mode words, by the level-lowering recursion) and the elements
    <word| Phi(z) |u> for positive-mode bra words (by passing the word
    through the operator letter by letter).
    """

    def __init__(self, module_u: BosonModule, v_weights, z_value):
        self.mod = module_u
        self.gens = CrystalGenerators(module_u)
        self.v1v2 = v_weights[0] * v_weights[1]
        self.vsum = v_weights[0] + v_weights[1]
        self.z = z_value
        self._lmemo = {(): ONE}
        self._ememo = {}
        self._pbw = {}

    # -- PBW word basis per level ---------------------------------------

    def _pbw_data(self, level):
        if level not in self._pbw:
            tuples = self.mod.basis(level)
            words = [tuple((a, -m) for a, m in pbw_word(t)) for t in tuples]
            kets = [pbw_state(t, self.gens) for t in tuples]
            self._pbw[level] = (words, linalg.inverse(column_matrix(kets, tuples)))
        return self._pbw[level]

    # -- vacuum row ------------------------------------------------------

    def vac_on_word(self, word):
        """<v| Phi(z) applied to a negative-mode word on the ket vacuum."""
        word = tuple(word)
        if word in self._lmemo:
            return self._lmemo[word]
        (a, m), rest = word[0], word[1:]
        assert m <= -1
        if m <= -2:
            val = self.vac_on_word(((a, m + 1),) + rest) / (self.v1v2 * self.z)
        else:
            # rest is a suffix of a primed PBW word, so its key in the
            # family's suffix memo is a ket's, the one pbw_state uses
            rest_state = _word_ket(rest, self.gens)
            zero_mode = self.gens.x_mode(a, 0)(rest_state)
            head = self.vac_on_state(zero_mode)
            tail = self.vac_on_state(rest_state)
            scalar = self.v1v2 if a == 2 else self.vsum
            val = (head - scalar * tail) / (self.v1v2 * self.z)
        self._lmemo[word] = val
        return val

    def vac_on_state(self, state):
        if not state:
            return ZERO
        levels = {t.size for t in state}
        total = ZERO
        for level in levels:
            part = coordinates(state, self.mod.basis(level))
            if level == 0:
                total = total + part[0]
                continue
            words, winv = self._pbw_data(level)
            coords = linalg.mat_vec(winv, part)
            for word, c in zip(words, coords):
                if c:
                    total = total + c * self.vac_on_word(word)
        return total

    # -- bra words against the ket vacuum ---------------------------------

    def braword_on_vacuum(self, word):
        """<v| (positive-mode word) Phi(z) |u>, word read left to right."""
        return self._e(tuple(word), ())

    def _e(self, left, right):
        key = (left, right)
        if key in self._ememo:
            return self._ememo[key]
        if not left:
            # not the family's suffix memo: it keys positive-mode words to bras
            state = self.mod.vacuum()
            for a, m in reversed(right):
                state = self.gens.x_mode(a, m)(state)
            val = self.mod.vacuum_coefficient(state)
        else:
            (a, m) = left[-1]
            rest = left[:-1]
            assert m >= 1
            if a == 1:
                val = self._e(rest, ((1, m),) + right)
            else:
                val = self._e(rest, ((2, m),) + right) - self.v1v2 * self.z * self._e(
                    rest, ((2, m - 1),) + right
                )
        self._ememo[key] = val
        return val

    def bra_tuple_on_vacuum(self, tup: PartitionTuple):
        return self.braword_on_vacuum(tuple(reversed(pbw_word(tup))))

    def vac_on_tuple(self, tup: PartitionTuple):
        word = tuple((a, -m) for a, m in pbw_word(tup))
        if not word:
            return ONE
        return self.vac_on_word(word)


# ---------------------------------------------------------------------------
# Crystal four-point sum over the PBW basis


def crystal_four_point_pbw(order, point, u, v, w, z1, z2):
    """The double sum over PBW vectors with the inverse Shapovalov inserted.

    Returns coefficients in x = u1 u2 z1 / (w1 w2 z2), one per total level;
    summands are evaluated at the (generic, exact) sample values and divided
    by the known power of x, which homogeneity makes exact.
    """
    mod_v = BosonModule(point, 2, v, order + 1, kind="crystal")
    phi21 = CrystalPhi(mod_v, w, z2)  # <w| Phi(z2) acting on F_v
    mod_u = BosonModule(point, 2, u, order + 1, kind="crystal")
    phi10 = CrystalPhi(mod_u, v, z1)  # bra words in F*_v against |u>
    x_val = u[0] * u[1] * z1 / (w[0] * w[1] * z2)
    coeffs = [ONE]
    for n in range(1, order + 1):
        # the Gram's kets and phi21's words share the family's memo
        gram, tuples = pbw_gram(n, phi21.gens)
        left = [phi21.vac_on_tuple(t) for t in tuples]
        right = [phi10.bra_tuple_on_vacuum(t) for t in tuples]
        # left . G^-1 right, from one solve G x = right
        total = sum((a * b for a, b in zip(left, linalg.solve_unique(gram, right))), ZERO)
        coeffs.append(total / x_val**n)
    return coeffs
