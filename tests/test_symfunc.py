from fractions import Fraction
from types import SimpleNamespace

import pytest

from dimfock import checks, symfunc
from dimfock.combinat import EMPTY, Partition, b_factor, dominance_le, partitions
from dimfock.symfunc import (
    DegreeCapError,
    SymFunc,
    convert,
    elementary_in_p,
    hall_littlewood,
    hl_pairing_identities,
    inner_hl,
    inner_prod,
    macdonald_p,
    principal_specialization,
    principal_specialization_closed,
    z_factor,
)


def monomial_in_p(lam):
    return convert(SymFunc({lam: Fraction(1)}, "m"), "p")


def test_conversion_examples():
    assert monomial_in_p(Partition((1,))) == SymFunc.power_sum((1,))
    half = Fraction(1, 2)
    expected = SymFunc({Partition((1, 1)): half, Partition((2,)): -half})
    assert monomial_in_p(Partition((1, 1))) == expected
    assert elementary_in_p(Partition((2,))) == expected


def test_conversion_roundtrip():
    for n in range(1, 7):
        for lam in partitions(n):
            f = monomial_in_p(lam)
            assert convert(convert(f, "m"), "p") == f
        # e_n = m_(1^n)
        assert convert(elementary_in_p(Partition((n,))), "m") == SymFunc(
            {Partition((1,) * n): Fraction(1)}, "m"
        )


def test_macdonald_tends_to_hall_littlewood(sym_point2):
    # the rank-1 crystal limit: P_lambda(q, t) -> P_lambda(t) as q -> 0
    q, t = sym_point2.q, sym_point2.t
    for lam in partitions(3):
        mac = convert(macdonald_p(lam, q, t), "m")
        hl = convert(hall_littlewood(lam, t)[0], "m")
        for mu in partitions(3):
            assert sym_point2.at_crystal(mac[mu]) == hl[mu]


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        monomial_in_p(Partition((13,)))


def test_inner_product_examples(point2):
    q, t = point2.q, point2.t
    p1 = SymFunc.power_sum((1,))
    assert inner_prod(p1, p1, q, t) == (1 - q) / (1 - t)
    assert inner_prod(SymFunc.power_sum((2,)), SymFunc.power_sum((1, 1)), q, t) == 0
    p2 = SymFunc.power_sum((2,))
    assert inner_prod(p2, p2, q, t) == 2 * (1 - q**2) / (1 - t**2)


def test_macdonald_examples(point2):
    q, t = point2.q, point2.t
    assert macdonald_p(Partition((1,)), q, t) == monomial_in_p(Partition((1,)))
    got = macdonald_p(Partition((2,)), q, t)
    want = monomial_in_p(Partition((2,))) + monomial_in_p(Partition((1, 1))).scale(
        (1 + q) * (1 - t) / (1 - q * t)
    )
    assert got == want
    p1 = macdonald_p(Partition((1,)), q, t)
    p2 = macdonald_p(Partition((2,)), q, t)
    assert inner_prod(p1, p2, q, t) == 0  # different degrees


def test_orthogonality_and_triangularity(points2):
    for pt in points2:
        q, t = pt.q, pt.t
        for n in range(1, 7):
            macs = {lam: macdonald_p(lam, q, t) for lam in partitions(n)}
            for lam, f in macs.items():
                fm = convert(f, "m")
                assert fm[lam] == 1
                for mu, c in fm.coeffs.items():
                    if c:
                        assert dominance_le(mu, lam)
            for lam in macs:
                for mu in macs:
                    if lam != mu:
                        assert inner_prod(macs[lam], macs[mu], q, t) == 0


def gram_schmidt(n, q, t):
    """{lambda: P_lambda} for |lambda| = n at (q, t): the m_lambda made
    orthogonal for the (q, t) pairing, smallest first in an order that
    refines dominance (the oracle of the eigenvector solve)."""
    basis = list(partitions(n))
    weight = {}
    for lam in basis:
        w = Fraction(z_factor(lam))
        for part in lam.parts:
            w = w * (1 - q**part) / (1 - t**part)
        weight[lam] = w

    def pair(f, g):
        return sum((c * g[lam] * weight[lam] for lam, c in f.coeffs.items()), Fraction(0))

    out, norms = {}, {}
    for lam in reversed(basis):
        f = monomial_in_p(lam)
        for mu, p_mu in out.items():
            c = pair(f, p_mu)
            if c:
                f = f - p_mu.scale(c / norms[mu])
        out[lam] = f
        norms[lam] = pair(f, f)
    return out


def test_macdonald_matches_gram_schmidt(point2, sym_point2):
    for pt in (point2, sym_point2):
        for n in range(7):
            for lam, want in gram_schmidt(n, pt.q, pt.t).items():
                assert macdonald_p(lam, pt.q, pt.t) == want, (pt.symbolic_slot, lam)


def test_hall_littlewood_matches_gram_schmidt(point2):
    for t in (point2.t, 1 / point2.t):
        for n in range(7):
            for lam, want in gram_schmidt(n, Fraction(0), t).items():
                assert hall_littlewood(lam, t)[0] == want, (t, lam)


def test_orthogonality_check_names_a_tampered_pair(monkeypatch, point1):
    # P_(2,1) + m_(1,1,1)/3 stays triangular but is no longer orthogonal to
    # P_(1,1,1): the orthogonality half of the check must name that pair
    lam, mu = Partition((2, 1)), Partition((1, 1, 1))
    untampered = symfunc.macdonald_p

    def tampered(nu, q, t):
        f = untampered(nu, q, t)
        return f + monomial_in_p(mu).scale(Fraction(1, 3)) if nu == lam else f

    assert checks.macdonald_basis([point1], 3) == []
    monkeypatch.setattr(symfunc, "macdonald_p", tampered)
    failures = checks.macdonald_basis([point1], 3)
    assert ("orthogonality", point1.seed, lam, mu) in failures
    assert all(f[0] == "orthogonality" and lam in f[2:] for f in failures)


def test_symfunc_suite_points_reach_its_level():
    # make_point certifies separated eigenvalues up to its level_max, and
    # the Macdonald solves of the suite reach its level
    for level in (None, 2, 4, 6):
        opts = SimpleNamespace(seed=7, points=2, level=level, n_comp=None)
        pts, _ = checks.symfunc_suite(opts)
        assert len(pts) == 2
        assert all(pt.level_max >= (level or 6) for pt in pts), level


def test_hall_littlewood_examples(point2):
    t = point2.t
    _, q1 = hall_littlewood(Partition((1,)), tval=t)
    assert inner_hl(q1, q1, t) == 1 - t
    for s in (1, 2, 3):
        _, qs = hall_littlewood(Partition((1,) * s), tval=t)
        es = elementary_in_p(Partition((s,)))
        assert qs == es.scale(b_factor(Partition((1,) * s), t))
    p_empty, _ = hall_littlewood(EMPTY, tval=t)
    assert p_empty == SymFunc.one()


def test_hl_b_duality(point2):
    # the b-normalized function equals the Gram-normalized dual at q = 0
    t = point2.t
    for n in range(1, 6):
        for lam in partitions(n):
            p_lam, q_lam = hall_littlewood(lam, tval=t)
            norm = inner_prod(p_lam, p_lam, Fraction(0), t)
            assert q_lam == p_lam.scale(1 / norm)


def test_principal_specialization(point2):
    t = point2.t
    r = point2.fresh_rational("spec-r")
    assert principal_specialization(Partition((1,)), r, tval=t) == 1 - r
    assert principal_specialization(EMPTY, r, tval=t) == 1
    lam = Partition((2, 1))
    assert principal_specialization(lam, r, tval=t) == t * (1 - r) * (1 - r / t)
    for n in range(1, 7):
        for lam in partitions(n):
            assert principal_specialization(lam, r, tval=t) == principal_specialization_closed(
                lam, r, t
            )


def test_hl_pairing_identities(point2):
    t = point2.t
    res = hl_pairing_identities(Partition((1,)), tval=t)
    assert res["elementary_vs_hl"][0] == -1
    lam = Partition((2, 1))
    res = hl_pairing_identities(lam, tval=t)
    assert res["row_hl_vs_hl"][0] == t**4 * (1 - 1 / t) * (1 - 1 / t**2)
    for n in range(0, 7):
        for lam in partitions(n):
            assert hl_pairing_identities(lam, tval=t)["ok"]


def test_z_factor():
    assert z_factor(Partition((2, 1, 1))) == 4
    assert z_factor(EMPTY) == 1
