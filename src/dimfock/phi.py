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

from . import linalg
from .combinat import PartitionTuple, enumerate_tuples
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
)

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


def solve_vertex_phi(point_u, point_v, n_comp, level_max):
    """Solve the exchange relations for the matrix elements, exactly.

    Unknowns are all matrix elements between monomial bases up to level_max
    on both sides; equations run over both currents and a band of modes wide
    enough to close the truncated system.  That system is overdetermined,
    and a consistent one is solved; raises SingularMatrix if it is
    inconsistent or does not pin every unknown.
    """
    mod_u = BosonModule(point_u, n_comp, point_u.u[:n_comp], level_max, kind="qt")
    mod_v = BosonModule(point_v, n_comp, point_v.u[:n_comp], level_max, kind="qt")
    fam_u = GeneratorFamily(mod_u)
    fam_v = GeneratorFamily(mod_v)
    e_v = ONE
    for x in point_v.u[:n_comp]:
        e_v = e_v * x
    tq = point_u.t / point_u.q

    states = []
    for lev in range(level_max + 1):
        states.extend((lev, tup) for tup in mod_u.basis(lev))
    idx = {tup: i for i, (_, tup) in enumerate(states)}
    n_states = len(states)

    def unknown(bra_tup, ket_tup):
        return idx[bra_tup] * n_states + idx[ket_tup]

    # cached mode matrices per (family, i, n, level_from)
    mats = {}

    def mode_matrix(fam, mod, i, n, level_from):
        level_to = level_from - n
        if level_from < 0 or level_to < 0 or level_to > level_max or level_from > level_max:
            return None
        key = (fam, i, n, level_from)
        if key not in mats:
            mats[key] = operator_matrix(fam.x_mode(i, n), mod, level_from, level_to)
        return mats[key]

    def add(row, k, c):
        x = row.get(k)
        row[k] = c if x is None else x + c

    rows = []
    rhs = []
    band = level_max + 1
    for i in range(1, n_comp + 1):
        shift = tq**i * e_v
        for n in range(-band, band + 1):
            for lev_s in range(level_max + 1):
                for s_col, s in enumerate(mod_u.basis(lev_s)):
                    for lev_b in range(level_max + 1):
                        # every term of the relation must stay inside the
                        # truncation, else the equation is not represented
                        if lev_b + n > level_max or lev_s - n + 1 > level_max:
                            continue
                        for b_i, nu in enumerate(mod_v.basis(lev_b)):
                            row = {}
                            # X_n Phi |s> at nu: sources at level lev_b + n
                            m1 = mode_matrix(fam_v, mod_v, i, n, lev_b + n)
                            if m1 is not None:
                                for sj, s2 in enumerate(mod_v.basis(lev_b + n)):
                                    c = m1[b_i][sj]
                                    if c:
                                        add(row, unknown(s2, s), c)
                            m2 = mode_matrix(fam_v, mod_v, i, n - 1, lev_b + n - 1)
                            if m2 is not None:
                                for sj, s2 in enumerate(mod_v.basis(lev_b + n - 1)):
                                    c = m2[b_i][sj]
                                    if c:
                                        add(row, unknown(s2, s), -e_v * c)
                            # Phi X_n |s> at nu
                            m3 = mode_matrix(fam_u, mod_u, i, n, lev_s)
                            if m3 is not None:
                                for tj, s3 in enumerate(mod_u.basis(lev_s - n)):
                                    c = m3[tj][s_col]
                                    if c:
                                        add(row, unknown(nu, s3), -c)
                            m4 = mode_matrix(fam_u, mod_u, i, n - 1, lev_s)
                            if m4 is not None:
                                for tj, s3 in enumerate(mod_u.basis(lev_s - n + 1)):
                                    c = m4[tj][s_col]
                                    if c:
                                        add(row, unknown(nu, s3), shift * c)
                            if row:
                                rows.append(row)
                                rhs.append(ZERO)
    # normalization <v|Phi|u> = 1
    vac_u = mod_u.empty_tuple()
    vac_v = mod_v.empty_tuple()
    rows.append({unknown(vac_v, vac_u): ONE})
    rhs.append(ONE)

    # empty cells hold linalg.ZERO itself, which solve_unique skips unread
    dense = [[linalg.ZERO] * (n_states * n_states) for _ in rows]
    for r, row in enumerate(rows):
        for k, c in row.items():
            dense[r][k] = c
    sol = linalg.solve_unique(dense, rhs)
    entries = {}
    for (lev_s, s) in states:
        col = {}
        for (lev_b, b) in states:
            val = sol[unknown(b, s)]
            if val:
                col[b] = val
        entries[s] = col
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
                part = op.mode_apply(lev - lev2, {s: ONE}, mod)
                img.update(part)
            entries[s] = img
    return PhiMatrix(entries)


def phi_element_formula(lam_tup, mu_tup, point_u, point_v, w_value):
    """Closed Nekrasov-factor form of the integral-form matrix elements."""
    from .combinat import n_stat
    from .nekrasov import nek_factor

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
    from .genmac import gen_macdonald, integral_forms

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
            words = [
                tuple((a, -m) for a, m in pbw_word(t, prime=True)) for t in tuples
            ]
            kets = [pbw_state(t, self.gens, prime=True) for t in tuples]
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
        word = tuple(reversed([(a, m) for a, m in pbw_word(tup, prime=True)]))
        return self.braword_on_vacuum(word)

    def vac_on_tuple(self, tup: PartitionTuple):
        word = tuple((a, -m) for a, m in pbw_word(tup, prime=True))
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
        gram, tuples = pbw_gram(n, phi21.gens, prime=True)
        ginv = linalg.inverse(gram)
        left = [phi21.vac_on_tuple(t) for t in tuples]
        right = [phi10.bra_tuple_on_vacuum(t) for t in tuples]
        total = ZERO
        for i in range(len(tuples)):
            if not left[i]:
                continue
            for j in range(len(tuples)):
                if ginv[i][j] and right[j]:
                    total = total + left[i] * ginv[i][j] * right[j]
        coeffs.append(total / x_val**n)
    return coeffs
