from fractions import Fraction
from functools import lru_cache
from math import comb
from types import SimpleNamespace

import pytest

from dimfock import checks, linalg, symfunc
from dimfock.combinat import EMPTY, Partition, b_factor, dominance_le, partitions
from dimfock.scalars import RatFunc
from dimfock.symfunc import (
    DegreeCapError,
    elementary,
    from_monomials,
    hall_littlewood,
    hl_pairing_identities,
    inner_prod,
    macdonald_p,
    principal_specialization,
    principal_specialization_closed,
    to_monomials,
    z_factor,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def combine(*terms):
    """sum of c * f over the (c, f) terms, zero-free."""
    out = {}
    for c, f in terms:
        for lam, v in f.items():
            out[lam] = out.get(lam, ZERO) + c * v
    return {lam: v for lam, v in out.items() if v}


def monomial_in_p(lam):
    return from_monomials({lam: ONE})


def test_conversion_examples():
    assert monomial_in_p(Partition((1,))) == {Partition((1,)): ONE}
    half = Fraction(1, 2)
    expected = {Partition((1, 1)): half, Partition((2,)): -half}
    assert monomial_in_p(Partition((1, 1))) == expected
    assert elementary(2) == expected


def test_conversion_roundtrip():
    for n in range(1, 7):
        for lam in partitions(n):
            f = monomial_in_p(lam)
            assert from_monomials(to_monomials(f)) == f
        # e_n = m_(1^n)
        assert to_monomials(elementary(n)) == {Partition((1,) * n): ONE}


# The route from the monomials to the power sums through the elementary
# functions, the oracle of the counted p2m and its inverse: e_mu has 0-1
# matrix counts over the m_nu and Newton's identities over the p_lambda.


@lru_cache(maxsize=None)
def zero_one_matrix_count(rows, cols):
    """Number of 0-1 matrices with given row and column sums."""
    if not cols:
        return 1 if not rows else 0
    c, rest = cols[0], cols[1:]
    vals = sorted(set(rows), reverse=True)
    counts = {v: rows.count(v) for v in vals}
    total = 0
    for picks in bounded_compositions(c, [counts[v] for v in vals]):
        ways = 1
        new_rows = []
        for v, k in zip(vals, picks):
            ways *= comb(counts[v], k)
            new_rows.extend([v - 1] * k)
            new_rows.extend([v] * (counts[v] - k))
        nr = tuple(sorted((x for x in new_rows if x > 0), reverse=True))
        if sum(nr) != sum(rest):
            continue
        total += ways * zero_one_matrix_count(nr, rest)
    return total


def bounded_compositions(total, bounds):
    if not bounds:
        if total == 0:
            yield ()
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in bounded_compositions(total - first, bounds[1:]):
            yield (first,) + rest


def power_sum_product(f, g):
    out = {}
    for lam, a in f.items():
        for mu, b in g.items():
            merged = Partition(tuple(sorted(lam.parts + mu.parts, reverse=True)))
            out[merged] = out.get(merged, ZERO) + a * b
    return {lam: c for lam, c in out.items() if c}


@lru_cache(maxsize=None)
def newton_elementary(k):
    # Newton's identities: k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i
    if k == 0:
        return {EMPTY: ONE}
    terms = []
    for i in range(1, k + 1):
        term = power_sum_product(newton_elementary(k - i), {Partition((i,)): ONE})
        terms.append((Fraction((-1) ** (i - 1), k), term))
    return combine(*terms)


def elementary_route(n):
    """(p2m, m2p) at degree n from m2p = (e2m)^-1 e2p."""
    basis = list(partitions(n))
    e2m = [[Fraction(zero_one_matrix_count(mu.parts, nu.parts)) for nu in basis] for mu in basis]
    e2p = []
    for mu in basis:
        f = {EMPTY: ONE}
        for part in mu.parts:
            f = power_sum_product(f, newton_elementary(part))
        e2p.append([f.get(lam, ZERO) for lam in basis])
    m2p = linalg.mat_mul(linalg.inverse(e2m), e2p)
    return linalg.inverse(m2p), m2p


def test_basis_matrices_match_the_elementary_route():
    for n in range(9):
        basis, mats = symfunc._basis_matrices(n)
        assert basis == list(partitions(n))
        p2m, m2p = elementary_route(n)
        assert mats["p2m"] == p2m, n
        assert mats["m2p"] == m2p, n


def test_elementary_matches_newton():
    for n in range(9):
        assert elementary(n) == newton_elementary(n), n


def test_symmetric_functions_are_zero_free(point2, sym_point2):
    # dict equality of symmetric functions needs every zero dropped
    def zero_free(f):
        return all(c for c in f.values())

    for n in range(7):
        assert zero_free(elementary(n))
        for lam in partitions(n):
            assert zero_free(monomial_in_p(lam))
            for pt in (point2, sym_point2):
                mac = macdonald_p(lam, pt.q, pt.t)
                assert zero_free(mac) and zero_free(to_monomials(mac)), (pt.symbolic_slot, lam)
            for f in hall_littlewood(lam, point2.t):
                assert zero_free(f) and zero_free(to_monomials(f)), lam
    assert any(
        isinstance(c, RatFunc)
        for c in macdonald_p(Partition((2,)), sym_point2.q, sym_point2.t).values()
    )


def test_macdonald_tends_to_hall_littlewood(sym_point2):
    # the rank-1 crystal limit: P_lambda(q, t) -> P_lambda(t) as q -> 0
    q, t = sym_point2.q, sym_point2.t
    for lam in partitions(3):
        mac = to_monomials(macdonald_p(lam, q, t))
        hl = to_monomials(hall_littlewood(lam, t)[0])
        for mu in partitions(3):
            assert sym_point2.at_crystal(mac.get(mu, ZERO)) == hl.get(mu, ZERO)


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        monomial_in_p(Partition((13,)))


def test_inner_product_examples(point2):
    q, t = point2.q, point2.t
    p1 = {Partition((1,)): ONE}
    p2 = {Partition((2,)): ONE}
    assert inner_prod(p1, p1, q, t) == (1 - q) / (1 - t)
    assert inner_prod(p2, {Partition((1, 1)): ONE}, q, t) == 0
    assert inner_prod(p2, p2, q, t) == 2 * (1 - q**2) / (1 - t**2)


def test_macdonald_examples(point2):
    q, t = point2.q, point2.t
    assert macdonald_p(Partition((1,)), q, t) == monomial_in_p(Partition((1,)))
    got = macdonald_p(Partition((2,)), q, t)
    want = combine(
        (ONE, monomial_in_p(Partition((2,)))),
        ((1 + q) * (1 - t) / (1 - q * t), monomial_in_p(Partition((1, 1)))),
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
                fm = to_monomials(f)
                assert fm.get(lam) == 1
                for mu, c in fm.items():
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
        return sum((c * g.get(lam, ZERO) * weight[lam] for lam, c in f.items()), ZERO)

    out, norms = {}, {}
    for lam in reversed(basis):
        f = monomial_in_p(lam)
        for mu, p_mu in out.items():
            c = pair(f, p_mu)
            if c:
                f = combine((ONE, f), (-c / norms[mu], p_mu))
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
        return combine((ONE, f), (Fraction(1, 3), monomial_in_p(mu))) if nu == lam else f

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
    assert inner_prod(q1, q1, ZERO, t) == 1 - t
    for s in (1, 2, 3):
        _, qs = hall_littlewood(Partition((1,) * s), tval=t)
        assert qs == combine((b_factor(Partition((1,) * s), t), elementary(s)))
    p_empty, _ = hall_littlewood(EMPTY, tval=t)
    assert p_empty == {EMPTY: ONE}


def test_hl_b_duality(point2):
    # the b-normalized function equals the Gram-normalized dual at q = 0
    t = point2.t
    for n in range(1, 6):
        for lam in partitions(n):
            p_lam, q_lam = hall_littlewood(lam, tval=t)
            norm = inner_prod(p_lam, p_lam, ZERO, t)
            assert q_lam == combine((1 / norm, p_lam))


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
