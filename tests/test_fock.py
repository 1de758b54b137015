from fractions import Fraction

import pytest

from dimfock.checks import mode_oracle
from dimfock.combinat import EMPTY, Partition, PartitionTuple, b_factor, partitions
from dimfock.fock import (
    BosonModule,
    CrystalGenerators,
    CrystalVirasoro,
    GeneratorFamily,
    VirasoroFamily,
    bra_apply,
    combination_is_zero,
    eta,
    jing_build,
    jing_operator,
    operator_matrix,
    pbw_bra,
    pbw_gram,
    pbw_state,
    pbw_word,
    state_scale,
)
from dimfock.relations import (
    check_crystal_pbw_hl,
    check_crystal_shapovalov,
    check_crystal_virasoro_pbw,
    check_crystal_virasoro_relations,
    check_jing,
    check_virasoro_relation,
    check_x_relations_n2,
)
from dimfock.scalars import RatFunc

ONE = Fraction(1)


def tup2(a, b):
    return PartitionTuple([Partition(a), Partition(b)])


def test_eta_modes(point2):
    mod = BosonModule(point2, 1, point2.u[:1], 3, kind="qt")
    fam = GeneratorFamily(mod)
    current = eta(0, mod)
    vac = mod.vacuum()
    assert mod.read_out(*current.mode_apply(0, mod.indexed(vac), mod)) == vac
    got = mod.read_out(*current.mode_apply(-1, mod.indexed(vac), mod))
    assert got == {PartitionTuple([(1,)]): 1 - 1 / point2.t}
    # any generator mode annihilates below level zero
    for k in (1, 2, 3):
        assert fam.x_mode(1, k)(vac) == {}


def test_x_zero_mode_weight_sum(point2):
    mod = BosonModule(point2, 2, point2.u, 3, kind="qt")
    fam = GeneratorFamily(mod)
    vac = mod.vacuum()
    assert fam.x_mode(1, 0)(vac) == state_scale(vac, point2.u[0] + point2.u[1])


def test_level1_gram_value(point2):
    mod = BosonModule(point2, 1, point2.u[:1], 2, kind="qt")
    fam = GeneratorFamily(mod)
    gram, _ = pbw_gram(1, fam)
    u = point2.u[0]
    assert gram[0][0] == u**2 * (1 - point2.q) * (1 / point2.t - 1)


def test_commutator_example(point2):
    # the displayed bracket of opposite modes of the first current
    pt = point2
    mod = BosonModule(pt, 2, pt.u, 4, kind="qt")
    fam = GeneratorFamily(mod)
    q, t, p = pt.q, pt.t, pt.p
    coef = (1 - q) * (1 - 1 / t) / (1 - p) * (1 / p - p)

    assert check_x_relations_n2(2, pt) == []
    for lvl in range(3):
        for tup in mod.basis(lvl):
            st = {tup: ONE}
            # lhs - rhs as (coefficient, state) terms
            terms = [
                (ONE, fam.x_mode(1, 1)(fam.x_mode(1, -1)(st))),
                (-ONE, fam.x_mode(1, -1)(fam.x_mode(1, 1)(st))),
                (-coef, fam.x_mode(2, 0)(st)),
            ]
            from dimfock.fock import structure_series

            f1 = structure_series(pt, "x1", lvl + 4)
            for l in range(1, lvl + 2):
                terms.append((f1[l], fam.x_mode(1, 1 - l)(fam.x_mode(1, -1 + l)(st))))
                terms.append((-f1[l], fam.x_mode(1, -1 - l)(fam.x_mode(1, 1 + l)(st))))
            assert combination_is_zero(terms)


def test_virasoro_highest_weight(point2):
    k = point2.fresh_rational("k")
    vac = {PartitionTuple([EMPTY]): ONE}
    fam = VirasoroFamily(BosonModule(point2, 1, [k], 3, kind="qt"))
    assert fam.x_mode(1, 0)(vac) == state_scale(vac, k + 1 / k)
    assert fam.x_mode(1, 1)(vac) == {}


def test_virasoro_relation(point2):
    k = point2.fresh_rational("k")
    assert check_virasoro_relation(2, point2, k) == []


def test_crystal_virasoro_relations(point2):
    k = point2.fresh_rational("k")
    assert check_crystal_virasoro_relations(3, point2, k) == []


def test_crystal_virasoro_pbw_and_gram(point2):
    k = point2.fresh_rational("k")
    assert check_crystal_virasoro_pbw(4, point2, k) == []
    # diagonal Gram with the b-factor normalization
    mod = BosonModule(point2, 1, [k], 3, kind="crystal")
    fam = CrystalVirasoro(mod)
    tinv = 1 / point2.t
    for n in range(1, 4):
        basis = list(partitions(n))
        kets, bras = [], []
        for lam in basis:
            st = mod.vacuum()
            for part in reversed(lam.parts):
                st = fam.x_mode(1, -part)(st)
            kets.append(st)
            bra, landing = mod.vacuum(), 0
            for part in reversed(lam.parts):
                landing += part
                bra = bra_apply(fam.x_mode(1, part), bra, mod, landing)
            bras.append(bra)
        for i, lam in enumerate(basis):
            for j, mu in enumerate(basis):
                want = b_factor(lam, tinv) if lam == mu else 0
                assert mod.pair(bras[i], kets[j]) == want


def test_jing_operators(point2):
    assert check_jing(4, point2) == []
    module, state = jing_build(Partition((1,)), point2)
    want = {PartitionTuple([(1,)]): 1 - point2.t}
    assert state == want
    module, state = jing_build(EMPTY, point2)
    assert state == module.vacuum()


# -- the hand-written tables the rebuilt currents replaced, as their oracle --


def _old_virasoro_minus(pt, k, L):
    return (
        {(0, n): (1 - pt.t**n) / (n * (pt.t**n + pt.q**n)) * pt.p_half(n) for n in range(1, L + 1)},
        {(0, n): (1 - pt.t**n) / n * pt.p_half(-n) for n in range(1, L + 1)},
        1 / k,
    )


def _old_crystal_lam(pt, k, L, sign):
    return (
        {(0, n): sign * (1 - pt.t ** (-n)) / n for n in range(1, L + 1)},
        {(0, n): -sign * (1 - pt.t**n) / n for n in range(1, L + 1)},
        k**sign,
    )


def _old_crystal_generators(pt, u, L):
    u1, u2 = u
    lam1 = _old_crystal_lam(pt, u1, L, 1)
    cre2 = {(0, n): -(1 - pt.t ** (-n)) / n for n in range(1, L + 1)}
    for n in range(1, L + 1):
        cre2[(1, n)] = (1 - pt.t ** (-n)) / n
    lam2 = (cre2, {(1, n): -(1 - pt.t**n) / n for n in range(1, L + 1)}, u2)
    x2_cre = {(1, n): (1 - pt.t ** (-n)) / n for n in range(1, L + 1)}
    x2_ann = {(0, n): -(1 - pt.t**n) / n for n in range(1, L + 1)}
    for n in range(1, L + 1):
        x2_ann[(1, n)] = -(1 - pt.t**n) / n
    return lam1, lam2, (x2_cre, x2_ann, u1 * u2)


def _old_jing_h_dag(pt, L):
    return (
        {(0, n): -(1 - pt.t**n) / n for n in range(1, L + 1)},
        {(0, n): (1 - pt.t**n) / n for n in range(1, L + 1)},
        ONE,
    )


def _old_crystal_normalized(pt, weights, L):
    lam1 = (
        {(0, n): (1 - pt.t ** (-n)) * pt.p_half(n) / n for n in range(1, L + 1)},
        {(0, n): -(1 - pt.t**n) * pt.p_half(-n) / n for n in range(1, L + 1)},
        weights[0],
    )
    cre = {
        (0, n): -(1 - pt.t ** (-n)) * (1 - pt.p_half(2 * n)) * pt.p_half(-n) / n
        for n in range(1, L + 1)
    }
    for n in range(1, L + 1):
        cre[(1, n)] = (1 - pt.t ** (-n)) * pt.p_half(-n) / n
    ann = {(1, n): -(1 - pt.t**n) * pt.p_half(n) / n for n in range(1, L + 1)}
    return lam1, (cre, ann, weights[1])


def _parts(op):
    return op.creation, op.annihilation, op.prefactor


def test_rebuilt_currents_match_the_hand_written_tables(point2, sym_point2):
    L = 4
    k = point2.fresh_rational("table-k")
    u = [point2.fresh_rational(("table-u", i)) for i in range(2)]
    vir = VirasoroFamily(BosonModule(point2, 1, [k], L, kind="qt"))
    assert _parts(vir.minus) == _old_virasoro_minus(point2, k, L)
    cvir = CrystalVirasoro(BosonModule(point2, 1, [k], L, kind="crystal"))
    assert _parts(cvir.lam_plus) == _old_crystal_lam(point2, k, L, 1)
    assert _parts(cvir.lam_minus) == _old_crystal_lam(point2, k, L, -1)
    gens = CrystalGenerators(BosonModule(point2, 2, u, L, kind="crystal"))
    assert [_parts(gens.lam1), _parts(gens.lam2), _parts(gens.x2)] == list(
        _old_crystal_generators(point2, u, L)
    )
    assert _parts(jing_operator(point2, L).inverse()) == _old_jing_h_dag(point2, L)
    for pt in (point2, sym_point2):
        fam = GeneratorFamily(BosonModule(pt, 2, pt.u, L, kind="qt"), crystal_normalized=True)
        got = [_parts(fam.lambda_current(1)), _parts(fam.lambda_current(2))]
        assert got == list(_old_crystal_normalized(pt, pt.u, L)), pt.describe()


def test_an_operator_times_its_inverse_is_the_identity(point2, sym_point2):
    k = point2.fresh_rational("inverse-k")
    ops = [
        eta(1, BosonModule(point2, 2, point2.u, 3, kind="qt")),
        VirasoroFamily(BosonModule(point2, 1, [k], 3, kind="qt")).plus,
        jing_operator(point2, 3),
        GeneratorFamily(BosonModule(sym_point2, 2, sym_point2.u, 3, kind="qt")).lambda_current(2),
    ]
    for op in ops:
        assert _parts(op.merge(op.inverse())) == ({}, {}, 1)


def test_crystal_pbw_examples(point2):
    u = [point2.fresh_rational(("cu", i)) for i in range(2)]
    assert check_crystal_pbw_hl(3, point2, u) == []
    assert check_crystal_shapovalov(3, point2, u) == []


def test_mode_oracle(point2):
    # the CLI's mode-oracle check, over |k| <= 2 to level 3
    assert mode_oracle(point2, 3, 2, 6) == []


def test_pbw_gram_matches_dict_pairing(point2):
    # the integer pairing of pbw_gram against module.pair, entry by entry
    k = point2.fresh_rational("gram-k")
    u = [point2.fresh_rational(("gram-u", i)) for i in range(2)]
    cases = [
        (3, GeneratorFamily(BosonModule(point2, 2, point2.u, 3, kind="qt"))),
        (3, VirasoroFamily(BosonModule(point2, 1, [k], 3, kind="qt"))),
        (3, CrystalVirasoro(BosonModule(point2, 1, [k], 3, kind="crystal"))),
        (2, CrystalGenerators(BosonModule(point2, 2, u, 2, kind="crystal"))),
    ]
    for level, fam in cases:
        mod = fam.module
        gram, tuples = pbw_gram(level, fam)
        assert tuples == mod.basis(level)
        kets = [pbw_state(t, fam) for t in tuples]
        bras = [pbw_bra(t, fam) for t in tuples]
        want = [[mod.pair(bra, ket) for ket in kets] for bra in bras]
        assert gram == want, type(fam).__name__
        assert any(x for row in gram for x in row)


def full_scan_bra_apply(op, bra, module):
    """The bra step before the one-level scan, an oracle: <bra| op on every
    monomial up to level_max, each value a dict pairing with op's image."""
    out = {}
    for level in range(module.level_max + 1):
        for tup in module.basis(level):
            val = module.pair(bra, op({tup: ONE}))
            if val:
                out[tup] = val
    return out


def test_pbw_words_match_the_full_scan_walk(point2, point3, sym_point2):
    # every PBW ket and bra up to the level, walked letter by letter without
    # the family's suffix memo; the module reaches one level past the words,
    # so a bra value off its landing level would show
    k = point2.fresh_rational("walk-k")
    u = [point2.fresh_rational(("walk-u", i)) for i in range(2)]
    cases = [
        (3, GeneratorFamily(BosonModule(point2, 2, point2.u, 4, kind="qt"))),
        (2, GeneratorFamily(BosonModule(point3, 3, point3.u, 3, kind="qt"))),
        (3, VirasoroFamily(BosonModule(point2, 1, [k], 4, kind="qt"))),
        (3, CrystalVirasoro(BosonModule(point2, 1, [k], 4, kind="crystal"))),
        (3, CrystalGenerators(BosonModule(point2, 2, u, 4, kind="crystal"))),
        (2, GeneratorFamily(BosonModule(sym_point2, 2, sym_point2.u, 3, kind="qt"))),
    ]
    for level, fam in cases:
        mod = fam.module
        for n in range(level + 1):
            for tup in mod.basis(n):
                state, bra = mod.vacuum(), mod.vacuum()
                for i, part in reversed(pbw_word(tup)):
                    state = fam.x_mode(i, -part)(state)
                    bra = full_scan_bra_apply(fam.x_mode(i, part), bra, mod)
                assert pbw_state(tup, fam) == state, (type(fam).__name__, tup)
                assert pbw_bra(tup, fam) == bra, (type(fam).__name__, tup)
                assert bra and all(m.size == n for m in bra)
    # the last case runs over Q(s)
    assert any(isinstance(v, RatFunc) for v in pbw_bra(tup, fam).values())


def test_crystal_whittaker_gram(point2):
    # diagonal inverse entries feed the crystal norm series
    k = point2.fresh_rational("crystal-k")
    gram, tuples = pbw_gram(3, CrystalVirasoro(BosonModule(point2, 1, [k], 3, kind="crystal")))
    basis = [tup[0] for tup in tuples]
    tinv = 1 / point2.t
    for i, lam in enumerate(basis):
        for j, mu in enumerate(basis):
            assert gram[i][j] == (b_factor(lam, tinv) if lam == mu else 0)


def test_operator_matrix_rejects_a_leak_outside_the_target_level(point2):
    # X_1 lowers the level by one: its level-2 images do not sit at level 1...
    module = BosonModule(point2, 2, point2.u, 3, kind="qt")
    fam = GeneratorFamily(module)
    assert len(operator_matrix(fam.x_mode(1, 1), module, 2, 1)) == len(module.basis(1))
    # ...but the zero mode's do, so reading them at level 1 is refused
    with pytest.raises(ValueError, match="leaked"):
        operator_matrix(fam.x_mode(1, 0), module, 2, 1)
