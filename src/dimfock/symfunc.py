"""Symmetric functions in the power-sum basis with exact coefficients.

The power sums p_lambda are the working basis; monomial (m) and elementary
(e) expansions are handled through cached integer change-of-basis matrices
per degree.  The (q,t) inner product is diagonal on power sums,

    <p_lambda, p_mu> = delta * z_lambda * prod_k (1-q^(lambda_k))/(1-t^(lambda_k)),

and Macdonald functions are produced by Gram-Schmidt over the dominance
order; Hall-Littlewood functions are the q = 0 case.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import linalg
from .combinat import EMPTY, Partition, b_factor, n_stat, partitions

MAX_CONVERT_DEGREE = 12
MAX_MACDONALD_DEGREE = 8


class DegreeCapError(ValueError):
    pass


def z_factor(lam: Partition) -> int:
    """z_lambda = prod_k k^(m_k) m_k!."""
    out = 1
    for k in set(lam.parts):
        m = lam.mult(k)
        out *= k**m * factorial(m)
    return out


class SymFunc:
    """Finitely supported coefficient map over partitions, in one basis."""

    __slots__ = ("coeffs", "basis")

    def __init__(self, coeffs=None, basis="p"):
        self.basis = basis
        self.coeffs = {}
        if coeffs:
            for lam, c in coeffs.items():
                if c:
                    self.coeffs[lam] = c

    @classmethod
    def one(cls, basis="p"):
        return cls({EMPTY: Fraction(1)}, basis)

    @classmethod
    def power_sum(cls, lam):
        if not isinstance(lam, Partition):
            lam = Partition(lam)
        return cls({lam: Fraction(1)}, "p")

    def __add__(self, other):
        assert self.basis == other.basis
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymFunc(out, self.basis)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c):
        return SymFunc({lam: c * v for lam, v in self.coeffs.items()}, self.basis)

    def __mul__(self, other):
        if self.basis != "p" or other.basis != "p":
            raise ValueError("products only in the power-sum basis")
        out = {}
        for lam, a in self.coeffs.items():
            for mu, b in other.coeffs.items():
                merged = Partition(tuple(sorted(lam.parts + mu.parts, reverse=True)))
                out[merged] = out.get(merged, Fraction(0)) + a * b
        return SymFunc(out, "p")

    def map_power_sums(self, fn):
        """Algebra map p_n -> fn(n) * p_n (power-sum basis only)."""
        assert self.basis == "p"
        out = {}
        for lam, c in self.coeffs.items():
            for n in lam.parts:
                c = c * fn(n)
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymFunc(out, "p")

    def negate_argument(self):
        """The substitution p_n -> -p_n."""
        return self.map_power_sums(lambda n: Fraction(-1))

    def evaluate(self, values_fn):
        """Evaluate at p_n = values_fn(n); power-sum basis only."""
        assert self.basis == "p"
        total = Fraction(0)
        for lam, c in self.coeffs.items():
            term = c
            for n in lam.parts:
                term = term * values_fn(n)
            total = total + term
        return total

    def degree(self):
        return max((lam.size for lam in self.coeffs), default=0)

    def is_homogeneous(self):
        sizes = {lam.size for lam in self.coeffs}
        return len(sizes) <= 1

    def __getitem__(self, lam):
        if not isinstance(lam, Partition):
            lam = Partition(lam)
        return self.coeffs.get(lam, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, SymFunc) or self.basis != other.basis:
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self[k] == other[k] for k in keys)

    def __repr__(self):
        items = ", ".join("%r: %s" % (l.parts, c) for l, c in sorted(
            self.coeffs.items(), key=lambda kv: kv[0].parts))
        return "SymFunc({%s}, %r)" % (items, self.basis)


# ---------------------------------------------------------------------------
# Change of basis


@lru_cache(maxsize=None)
def _e_in_p(k: int) -> SymFunc:
    # Newton recursion: k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i
    if k == 0:
        return SymFunc.one()
    acc = SymFunc()
    for i in range(1, k + 1):
        term = _e_in_p(k - i) * SymFunc.power_sum(Partition((i,)))
        acc = acc + term.scale(Fraction((-1) ** (i - 1), k))
    return acc


def elementary_in_p(mu: Partition) -> SymFunc:
    out = SymFunc.one()
    for part in mu.parts:
        out = out * _e_in_p(part)
    return out


@lru_cache(maxsize=None)
def _zero_one_matrix_count(rows: tuple, cols: tuple) -> int:
    """Number of 0-1 matrices with given row and column sums."""
    if not cols:
        return 1 if not rows else 0
    c, rest = cols[0], cols[1:]
    vals = sorted(set(rows), reverse=True)
    counts = {v: rows.count(v) for v in vals}
    total = 0
    for picks in _bounded_compositions(c, [counts[v] for v in vals]):
        ways = 1
        new_rows = []
        for v, k in zip(vals, picks):
            ways *= comb(counts[v], k)
            new_rows.extend([v - 1] * k)
            new_rows.extend([v] * (counts[v] - k))
        nr = tuple(sorted((x for x in new_rows if x > 0), reverse=True))
        if sum(nr) != sum(rest):
            continue
        total += ways * _zero_one_matrix_count(nr, rest)
    return total


def _bounded_compositions(total, bounds):
    if not bounds:
        if total == 0:
            yield ()
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in _bounded_compositions(total - first, bounds[1:]):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _basis_matrices(n: int):
    """Per-degree conversion data: basis list and matrices between p, m, e."""
    if n > MAX_CONVERT_DEGREE:
        raise DegreeCapError("degree %d exceeds conversion cap %d" % (n, MAX_CONVERT_DEGREE))
    basis = list(partitions(n))
    idx = {lam: i for i, lam in enumerate(basis)}
    # e_mu = sum_nu E[mu][nu] m_nu  (0-1 matrix counts)
    e2m = [
        [Fraction(_zero_one_matrix_count(mu.parts, nu.parts)) for nu in basis] for mu in basis
    ]
    m2e = linalg.inverse(e2m)
    # e_mu in power sums
    e2p = []
    for mu in basis:
        f = elementary_in_p(mu)
        e2p.append([f[lam] for lam in basis])
    # m_nu in power sums: m = (e2m)^(-1) e
    m2p = linalg.mat_mul(m2e, e2p)
    p2m = linalg.inverse(m2p)
    p2e = linalg.inverse(e2p)
    return basis, idx, {"e2m": e2m, "m2e": m2e, "e2p": e2p, "m2p": m2p, "p2m": p2m, "p2e": p2e}


def convert(f: SymFunc, target: str) -> SymFunc:
    """Exact change of basis among power sums "p", monomials "m" and elementary "e"."""
    if target not in ("p", "m", "e"):
        raise ValueError(target)
    if target == f.basis:
        return f
    if not f.is_homogeneous():
        # split by degree and recombine
        out = SymFunc({}, target)
        for n in sorted({lam.size for lam in f.coeffs}):
            part = SymFunc({l: c for l, c in f.coeffs.items() if l.size == n}, f.basis)
            out = out + convert(part, target)
        return out
    n = f.degree()
    basis, idx, mats = _basis_matrices(n)
    key = f.basis + "2" + target
    if key not in mats:
        mid = convert(f, "p")
        return convert(mid, target)
    mat = mats[key]
    vec = [f[lam] for lam in basis]
    out_vec = linalg.mat_vec(linalg.transpose(mat), vec)
    return SymFunc({basis[i]: c for i, c in enumerate(out_vec)}, target)


def monomial_in_p(lam: Partition) -> SymFunc:
    return convert(SymFunc({lam: Fraction(1)}, "m"), "p")


# ---------------------------------------------------------------------------
# Inner products and Macdonald / Hall-Littlewood functions


def inner_prod(f: SymFunc, g: SymFunc, qval, tval):
    """The (q,t) pairing, diagonal on power sums."""
    assert f.basis == "p" and g.basis == "p"
    total = Fraction(0)
    for lam, a in f.coeffs.items():
        b = g.coeffs.get(lam)
        if not b:
            continue
        w = Fraction(z_factor(lam))
        for part in lam.parts:
            w = w * (1 - qval**part) / (1 - tval**part)
        total = total + a * b * w
    return total


def inner_hl(f: SymFunc, g: SymFunc, tval):
    """Hall-Littlewood pairing <,>_{0,t}."""
    return inner_prod(f, g, Fraction(0), tval)


@lru_cache(maxsize=None)
def _macdonald_degree(n: int, qval, tval):
    """All Macdonald P for |lambda| = n at (q, t), by Gram-Schmidt."""
    if n > MAX_MACDONALD_DEGREE:
        raise DegreeCapError("degree %d exceeds Macdonald cap %d" % (n, MAX_MACDONALD_DEGREE))
    basis = list(partitions(n))  # descending lex refines dominance
    out = {}
    norms = {}
    for lam in reversed(basis):  # smallest first
        f = monomial_in_p(lam)
        for mu in basis:
            if mu in out and mu != lam:
                c = inner_prod(f, out[mu], qval, tval)
                if c:
                    f = f - out[mu].scale(c / norms[mu])
        out[lam] = f
        norms[lam] = inner_prod(f, f, qval, tval)
        if not norms[lam]:
            raise linalg.SingularMatrix("degenerate pairing at %r" % (lam.parts,))
    return out, norms


def macdonald_p(lam: Partition, qval, tval) -> SymFunc:
    return _macdonald_degree(lam.size, qval, tval)[0][lam]


def hall_littlewood(lam: Partition, tval):
    """Hall-Littlewood pair (P_lambda(;t), Q_lambda(;t)) = Macdonald at q=0."""
    p_lam = macdonald_p(lam, Fraction(0), tval)
    q_lam = p_lam.scale(b_factor(lam, tval))
    return p_lam, q_lam


def principal_specialization(lam: Partition, r, tval):
    """Q_lambda(p_n; t) at p_n = (1-r^n)/(1-t^n); equals the closed product."""
    _, q_lam = hall_littlewood(lam, tval)
    return q_lam.evaluate(lambda n: (1 - r**n) / (1 - tval**n))


def principal_specialization_closed(lam: Partition, r, tval):
    out = tval ** n_stat(lam)
    for i in range(1, lam.length + 1):
        out = out * (1 - tval ** (1 - i) * r)
    return out


def hl_pairing_identities(lam: Partition, tval):
    """Two Hall-Littlewood pairing evaluations against negated arguments.

    Returns dict entries (computed, expected) for
      <e_s(-p), Q_lambda>_{0,t} = (-1)^s t^(n(lambda)),  s = |lambda|, and
      <Q_(s)(-p), Q_lambda>_{0,t} = t^(|lambda|+n(lambda)) prod_k (1 - t^(-k)).
    """
    s = lam.size
    _, q_lam = hall_littlewood(lam, tval)
    e_s = elementary_in_p(Partition((s,) if s else ()))
    lhs1 = inner_hl(e_s.negate_argument(), q_lam, tval)
    rhs1 = Fraction(-1) ** s * tval ** n_stat(lam)
    _, q_row = hall_littlewood(Partition((s,) if s else ()), tval)
    lhs2 = inner_hl(q_row.negate_argument(), q_lam, tval)
    rhs2 = tval ** (s + n_stat(lam))
    for k in range(1, lam.length + 1):
        rhs2 = rhs2 * (1 - tval ** (-k))
    return {
        "elementary_vs_hl": (lhs1, rhs1),
        "row_hl_vs_hl": (lhs2, rhs2),
        "ok": lhs1 == rhs1 and lhs2 == rhs2,
    }
