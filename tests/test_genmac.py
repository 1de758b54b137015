import hashlib
import json
from fractions import Fraction

import pytest

from dimfock import checks, genmac
from dimfock.combinat import (
    EMPTY,
    Partition,
    PartitionTuple,
    enumerate_tuples,
    partitions,
    to_json,
)
from dimfock.fock import pbw_state, state_scale
from dimfock.genmac import (
    EigenvalueCollision,
    gen_hall_littlewood,
    gen_jack,
    gen_macdonald,
    integral_forms,
    ordering_vanishing_check,
)
from dimfock.scalars import eigenvalue_of, make_point
from dimfock.symfunc import convert, macdonald_p


def tup2(a, b):
    return PartitionTuple([Partition(a), Partition(b)])


LEVEL2_ORDER = [
    tup2((), (2,)),
    tup2((), (1, 1)),
    tup2((1,), (1,)),
    tup2((2,), ()),
    tup2((1, 1), ()),
]


def test_eigenvalue_example(point2):
    q, t = point2.q, point2.t
    u1, u2 = point2.u
    lam = tup2((), (1,))
    assert eigenvalue_of(lam, point2) == u1 + u2 * (1 + (t - 1) * (q - 1) / t)
    empty = tup2((), ())
    assert eigenvalue_of(empty, point2) == u1 + u2


def test_eigen_property(points2):
    for pt in points2:
        for n in (1, 2, 3):
            basis = gen_macdonald(n, pt)
            for tup in basis.tuples:
                st = basis.state(tup)
                assert basis.family.x_mode(1, 0)(st) == state_scale(
                    st, eigenvalue_of(tup, pt)
                )


def test_monomial_transition_level1(points2):
    for pt in points2:
        q, t = pt.q, pt.t
        u1, u2 = pt.u
        stq = (pt.t0 / pt.q0) ** 2
        b1 = gen_macdonald(1, pt)
        rows = b1.monomial_transition()
        lam, mu = tup2((), (1,)), tup2((1,), ())
        c = rows[b1.index[lam]][b1.index[mu]]
        assert c == stq * (t - q) * u2 / (t * (u1 - u2))
        assert rows[b1.index[mu]][b1.index[lam]] == 0


def test_monomial_transition_level2(points2):
    # entries of the level-two table over monomial products; the entry at
    # (third row, last column) is restored to weight-degree zero by the
    # second-weight factor
    for pt in points2:
        q, t = pt.q, pt.t
        u1, u2 = pt.u
        stq = (pt.t0 / pt.q0) ** 2
        sqt = 1 / stq
        b2 = gen_macdonald(2, pt)
        rows = b2.monomial_transition()
        M = {
            (i, j): rows[b2.index[LEVEL2_ORDER[i]]][b2.index[LEVEL2_ORDER[j]]]
            for i in range(5)
            for j in range(5)
        }
        expected = {
            (0, 1): (1 + q) * (t - 1) / (q * t - 1),
            (0, 2): sqt * (1 + q) * (q - t) * (t - 1) * u2 / ((1 - q * t) * (u1 - q * u2)),
            (0, 3): (q - t)
            * ((1 - q**2) * t * u1 - q * (t**2 - q * (1 + q) * t + q) * u2)
            * u2
            / (q * t * (q * t - 1) * (u1 - u2) * (u1 - q * u2)),
            (0, 4): (1 + q)
            * (q - t)
            * (t - 1)
            * ((q - 1) * t * u1 + q * (q - t) * u2)
            * u2
            / (q * t * (q * t - 1) * (u1 - u2) * (u1 - q * u2)),
            (1, 2): stq * (t - q) * u2 / (t * (t * u1 - u2)),
            (1, 3): (q - t) * u2 / (q * (t * u1 - u2)),
            (1, 4): (q - t)
            * (q * u2 - t * ((t - 1) * u1 + u2))
            * u2
            / (q * t * (u1 - u2) * (t * u1 - u2)),
            (2, 3): stq * (t - q) * u2 / (t * (q * u1 - u2)),
            (2, 4): stq
            * (q - t)
            * ((1 + q + (q - 1) * t) * u1 - 2 * t * u2)
            * u2
            / (t * (q * u1 - u2) * (-u1 + t * u2)),
            (3, 4): (1 + q) * (t - 1) / (q * t - 1),
        }
        for i in range(5):
            for j in range(5):
                want = expected.get((i, j), Fraction(1) if i == j else Fraction(0))
                assert M[(i, j)] == want, (i, j)


def _alpha_table(forms):
    """alpha[tup][pbw tuple]: the integral form of tup over the primed PBW kets."""
    return {tup: dict(zip(forms.tuples, vec)) for tup, vec in forms.alpha.items()}


def test_alpha_tables(points2):
    for pt in points2:
        q, t = pt.q, pt.t
        u1, u2 = pt.u
        at = _alpha_table(integral_forms(gen_macdonald(1, pt)))
        lam, mu = tup2((), (1,)), tup2((1,), ())
        assert at[lam][lam] == 1 and at[mu][lam] == 1
        assert at[lam][mu] == -q * u2 / t
        assert at[mu][mu] == -q * u1 / t
        at2 = _alpha_table(integral_forms(gen_macdonald(2, pt)))
        o = LEVEL2_ORDER
        col_2 = {
            0: (q - 1)
            * u2
            * (t * u1 * q**2 - u1 * q**2 + t * u2 * q**2 - u2 * q**2 - u2 * q + t * u1)
            / t**2,
            1: q * (t - 1) * u2 * (-u1 * t**2 + q * u2 * t + q * u1 - u1 + q * u2 - u2) / t**3,
            2: (q - 1) * q * (t - 1) * (u1**2 + u2 * u1 + u2**2) / t**2,
            3: (q - 1)
            * u1
            * (t * u1 * q**2 - u1 * q**2 + t * u2 * q**2 - u2 * q**2 - u1 * q + t * u2)
            / t**2,
            4: q * (t - 1) * u1 * (-u2 * t**2 + q * u1 * t + q * u1 - u1 + q * u2 - u2) / t**3,
        }
        col_11 = {
            0: q**3 * u2**2 / t**2,
            1: q**2 * u2**2 / t**3,
            2: q**2 * u1 * u2 / t**2,
            3: q**3 * u1**2 / t**2,
            4: q**2 * u1**2 / t**3,
        }
        for i in range(5):
            assert at2[o[i]][tup2((), (1, 1))] == 1
            assert at2[o[i]][tup2((), (2,))] == col_2[i]
            assert at2[o[i]][tup2((1, 1), ())] == col_11[i]


def test_dual_orthogonality(point2):
    for n in (1, 2):
        basis = gen_macdonald(n, point2)
        for lam in basis.tuples:
            bra = basis.dual_bra(lam)
            for mu in basis.tuples:
                val = basis.module.pair(bra, basis.state(mu))
                assert (val == 0) == (lam != mu)


def test_integral_form_check_catches_a_tampered_k_state(point2, monkeypatch):
    assert checks.integral_form_normalization(point2, 2, 2) == []
    k_state = genmac.IntegralForms.k_state
    target, other = tup2((1,), (1,)), tup2((2,), ())

    def tampered(self, tup):
        # one extra primed PBW ket off the designated one: the designated
        # coefficient stays 1, the rest of the expansion does not
        state = k_state(self, tup)
        if tup != target:
            return state
        extra = pbw_state(other, self.basis.family, prime=True)
        return {m: state.get(m, 0) + extra.get(m, 0) for m in {*state, *extra}}

    monkeypatch.setattr(genmac.IntegralForms, "k_state", tampered)
    assert checks.integral_form_normalization(point2, 2, 2) == [target]


def test_eigenvalue_collision_is_named(point2):
    # equal weights give the swapped tuples one eigenvalue
    u = point2.u[0]
    with pytest.raises(EigenvalueCollision, match=r"\(\), \(1,\)\) vs .*\(1,\), \(\)\)"):
        gen_macdonald(1, point2.with_u([u, u]))


def test_restriction_to_single_component(point3):
    # a tuple supported in one slot with empties to the right restricts to
    # the ordinary Macdonald function of that slot
    basis = gen_macdonald(2, point3, n_comp=3)
    for lam in partitions(2):
        tup = PartitionTuple([lam, EMPTY, EMPTY])
        st = basis.state(tup)
        mac = macdonald_p(lam, point3.q, point3.t)
        expected = {PartitionTuple([m, EMPTY, EMPTY]): c for m, c in mac.coeffs.items()}
        assert st == expected


def test_embedding_drop_last_empty(point3):
    # transitions with empty last slots agree with the lower-rank basis
    point2 = point3.with_u(point3.u[:2])
    b3 = gen_macdonald(2, point3, n_comp=3)
    b2 = gen_macdonald(2, point2, n_comp=2)
    for lam in enumerate_tuples(2, 2):
        lam3 = PartitionTuple([lam[0], lam[1], EMPTY])
        for mu in enumerate_tuples(2, 2):
            mu3 = PartitionTuple([mu[0], mu[1], EMPTY])
            assert b3.transition(lam3, mu3) == b2.transition(lam, mu)


def test_gen_hall_littlewood_tables(sym_point2):
    t = sym_point2.t
    u1, u2 = sym_point2.u
    tab1, dual1, poles1 = gen_hall_littlewood(1, sym_point2)
    assert poles1 == []
    l01, l10 = tup2((), (1,)), tup2((1,), ())
    assert tab1[l01][l10] == u2 / (u1 - u2) and tab1[l10][l01] == 0
    assert dual1[l10][l01] == -u2 / (u1 - u2) and dual1[l01][l10] == 0
    tab2, dual2, poles2 = gen_hall_littlewood(2, sym_point2)
    assert poles2 == []
    o = LEVEL2_ORDER
    expected = {
        (0, 3): u2 / (u1 - u2),
        (1, 2): u2 / (t * u1 - u2),
        (1, 3): -u2 / (t * u1 - u2),
        (1, 4): t * u2**2 / ((u1 - u2) * (t * u1 - u2)),
        (2, 3): Fraction(-1),
        (2, 4): -t * (1 + t) * u2 / (-u1 + t * u2),
    }
    dual_expected = {
        (3, 0): -u2 / (u1 - u2),
        (4, 2): t * u2 / (t * u2 - u1),
        (4, 1): t * u2**2 / ((u1 - u2) * (u1 - t * u2)),
        (3, 2): 1 - t,
        (2, 1): -(t + 1) * u2 / (t * u1 - u2),
    }
    for i in range(5):
        for j in range(5):
            want = expected.get((i, j), Fraction(1) if i == j else Fraction(0))
            assert tab2[o[i]][o[j]] == want
            dwant = dual_expected.get((i, j), Fraction(1) if i == j else Fraction(0))
            assert dual2[o[i]][o[j]] == dwant


def test_gen_hall_littlewood_level4_unitriangular():
    table, dual, poles = gen_hall_littlewood(4, make_point(7, 2, 5, "q"))
    assert poles == []
    order = list(table)
    assert len(order) == 20 and list(dual) == order
    for i, lam in enumerate(order):
        assert table[lam][lam] == dual[lam][lam] == 1
        assert all(table[lam][mu] == 0 for mu in order[:i])
        assert all(dual[lam][mu] == 0 for mu in order[i + 1 :])
    # digest of the exact tables as computed over Fraction coefficients
    text = json.dumps(
        [[to_json(lam) for lam in order]]
        + [[[str(tab[lam][mu]) for mu in order] for lam in order] for tab in (table, dual)]
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "2f19544c8ca217b63db232ad3be5755ddf403c3f04ecc542d34301e11598c50b"


def test_gen_hall_littlewood_rank1_matches_hl(sym_point2):
    from dimfock.symfunc import hall_littlewood

    table, _, poles = gen_hall_littlewood(3, sym_point2, n_comp=1)
    assert poles == []
    t = sym_point2.t
    for lam_t, row in table.items():
        p_lam, _ = hall_littlewood(lam_t[0], tval=t)
        pm = convert(p_lam, "m")
        for mu_t, c in row.items():
            assert c == pm[mu_t[0]]


def test_gen_jack_tables():
    beta = Fraction(3, 7)
    up = [Fraction(5, 3), Fraction(2, 9)]
    u1, u2 = up
    tuples, rows, _ = gen_jack(1, beta, up)
    idx = {t: i for i, t in enumerate(tuples)}
    assert rows[idx[tup2((), (1,))]][idx[tup2((1,), ())]] == (1 - beta) / (-u1 + u2)
    tuples, rows, _ = gen_jack(2, beta, up)
    idx = {t: i for i, t in enumerate(tuples)}
    o = LEVEL2_ORDER
    b = beta
    expected = {
        (0, 1): 2 * b / (1 + b),
        (0, 2): 2 * b * (1 - b) / ((1 + b) * (1 - u1 + u2)),
        (0, 3): (1 - b) * (2 + b - b**2 - 2 * u1 + 2 * u2) / ((1 + b) * (u1 - u2) * (-1 + u1 - u2)),
        (0, 4): 2 * b * (2 - 3 * b + b**2) / ((1 + b) * (u1 - u2) * (-1 + u1 - u2)),
        (1, 2): (1 - b) / (-b - u1 + u2),
        (1, 3): (1 - b) / (b + u1 - u2),
        (1, 4): (-1 + 3 * b - 2 * b**2) / ((u1 - u2) * (-b - u1 + u2)),
        (2, 3): (1 - b) / (-1 - u1 + u2),
        (2, 4): 2 * (1 - b) * (-1 + b - u1 + u2) / ((-1 - u1 + u2) * (b - u1 + u2)),
        (3, 4): 2 * b / (1 + b),
    }
    for i in range(5):
        for j in range(5):
            want = expected.get((i, j), Fraction(1) if i == j else Fraction(0))
            assert rows[idx[o[i]]][idx[o[j]]] == want
    assert gen_jack(0, beta, up)[1] == [[Fraction(1)]]


def test_ordering_vanishing(point3):
    assert ordering_vanishing_check(3, point3, n_comp=3) == []


def test_shared_bases_key_on_values(point2, point3):
    # inside one run a value twin shares the basis; any other input does not
    sym = make_point(101, 2, 4, "q")
    assert (sym.q0, sym.t0, sym.u) == (point2.q0, point2.t0, point2.u)
    with genmac.shared_bases():
        basis = gen_macdonald(1, point2)
        assert gen_macdonald(1, point2.with_u(point2.u)) is basis
        others = [
            gen_macdonald(1, point2.with_weights("x")),
            gen_macdonald(1, sym),
            gen_macdonald(1, point2, n_comp=1),
            gen_macdonald(2, point2),
        ]
        assert all(other is not basis for other in others)
        assert gen_macdonald(1, point3, n_comp=2) is not gen_macdonald(1, point3)
    assert gen_macdonald(1, point2) is not gen_macdonald(1, point2)


def test_nested_shared_bases_use_the_outer_memo(point2):
    with genmac.shared_bases() as outer:
        basis = gen_macdonald(1, point2)
        with genmac.shared_bases() as inner:
            assert inner is outer
            assert gen_macdonald(1, point2) is basis
        # the inner exit leaves the memo open
        assert genmac._shared is outer
        assert gen_macdonald(1, point2) is basis
    assert genmac._shared is None


def test_outermost_shared_bases_exit_drops_the_memo_on_error(point2):
    with pytest.raises(KeyError):
        with genmac.shared_bases():
            with genmac.shared_bases():
                gen_macdonald(1, point2)
                raise KeyError("inner")
    assert genmac._shared is None
    with pytest.raises(KeyError):
        with genmac.shared_bases():
            raise KeyError("outer")
    assert genmac._shared is None


def test_integral_forms_are_kept_on_the_basis(point2):
    basis = gen_macdonald(2, point2)
    forms = integral_forms(basis)
    assert integral_forms(basis) is forms
    assert integral_forms(gen_macdonald(2, point2)) is not forms


@pytest.mark.parametrize("n_comp", [2, 3])
def test_expand_inverts_state(point3, n_comp):
    for level in (1, 2, 3):
        basis = gen_macdonald(level, point3, n_comp=n_comp)
        for tup in basis.tuples:
            unit = {mu: Fraction(int(mu == tup)) for mu in basis.tuples}
            assert basis.expand(basis.state(tup)) == unit, (level, tup)
