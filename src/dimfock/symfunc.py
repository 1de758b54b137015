"""Symmetric functions in the power-sum basis with exact coefficients.

A symmetric function is a dict {Partition: nonzero coefficient} over the
power sums p_lambda, the one-boson state it becomes under p_n <-> a_{-n};
two are equal when their dicts are.  Monomial (m) expansions go through
one cached pair of matrices per degree: p2m is counted and m2p is its
inverse (`_basis_matrices`); their tensor products change the basis of
tuples (`monomial_frame`).  Every eigenbasis is one triangular solve on
that frame (`monomial_eigenvectors`): Macdonald P_lambda for the one-boson
zero mode of eta, Hall-Littlewood P_lambda(t) as its value at q = 0, solved
at a formal q, and the generalized Jack functions (`genmac.gen_jack`).  The
(q,t) inner product is diagonal on power sums,

    <p_lambda, p_mu> = delta * z_lambda * prod_k (1-q^(lambda_k))/(1-t^(lambda_k)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from types import SimpleNamespace

from . import linalg
from .combinat import Partition, b_factor, n_stat, partitions
from .fock import BosonModule, eta, operator_matrix, vertex_mode
from .scalars import RatFunc

ZERO = Fraction(0)
ONE = Fraction(1)
MAX_CONVERT_DEGREE = 12


class DegreeCapError(ValueError):
    pass


def z_factor(lam: Partition) -> int:
    """z_lambda = prod_k k^(m_k) m_k!."""
    out = 1
    for k in set(lam.parts):
        m = lam.mult(k)
        out *= k**m * factorial(m)
    return out


def negate_argument(f):
    """The substitution p_n -> -p_n."""
    return {lam: (-1) ** lam.length * c for lam, c in f.items()}


def elementary(n: int):
    """e_n = sum over lambda |- n of (-1)^(n - l(lambda)) p_lambda / z_lambda
    (Macdonald, I (2.14'))."""
    return {lam: Fraction((-1) ** (n - lam.length), z_factor(lam)) for lam in partitions(n)}


# ---------------------------------------------------------------------------
# Change of basis


@lru_cache(maxsize=None)
def _basis_matrices(n: int):
    """Per-degree conversion data: the partitions of n and the matrices
    between p and m.  p2m[lambda][mu], the coefficient of m_mu in p_lambda,
    counts the ways to put the parts of lambda into the rows of mu so that
    each row sums to its part (Macdonald, I.6); m2p is its inverse."""
    if n > MAX_CONVERT_DEGREE:
        raise DegreeCapError("degree %d exceeds conversion cap %d" % (n, MAX_CONVERT_DEGREE))
    basis = list(partitions(n))
    memo = {}

    def ways(parts, rows):
        # rows: the sums still open, largest first, none zero
        if not parts:
            return 1
        if (parts, rows) not in memo:
            first, rest = parts[0], parts[1:]
            total = 0
            for r in set(rows):
                if r >= first:
                    left = list(rows)
                    left[left.index(r)] = r - first
                    left = tuple(sorted(filter(None, left), reverse=True))
                    total += rows.count(r) * ways(rest, left)
            memo[parts, rows] = total
        return memo[parts, rows]

    p2m = [[Fraction(ways(lam.parts, mu.parts)) for mu in basis] for lam in basis]
    return basis, {"m2p": linalg.inverse(p2m), "p2m": p2m}


def _change_basis(f, name):
    """f, {partition: c}, through the per-degree matrices mats[name]."""
    out = {}
    for n in sorted({lam.size for lam in f}):
        basis, mats = _basis_matrices(n)
        vec = linalg.mat_vec(linalg.transpose(mats[name]), [f.get(lam, ZERO) for lam in basis])
        out.update((mu, c) for mu, c in zip(basis, vec) if c)
    return out


def to_monomials(f):
    """f in the power sums, {lambda: c}, as {mu: c} over the monomials m_mu."""
    return _change_basis(f, "p2m")


def from_monomials(f):
    """f over the monomials m_mu, {mu: c}, in the power sums."""
    return _change_basis(f, "m2p")


def monomial_frame(tuples):
    """(M, M^-1) over partition tuples of one level, one set of power sums
    per component: M[lambda][mu] = prod_i m2p[mu_i][lambda_i], the
    coefficient of prod_i p_(lambda_i) in prod_i m_(mu_i), when |lambda_i| =
    |mu_i| for every i, and 0 otherwise.  M^-1 is the same tensor product
    of the per-degree p2m, so no inverse is taken."""
    mats = {lam.size: _basis_matrices(lam.size) for tup in tuples for lam in tup}
    pos = {mu: i for basis, _ in mats.values() for i, mu in enumerate(basis)}

    def entry(name, row, col):
        if any(a.size != b.size for a, b in zip(row, col)):
            return ZERO
        return prod((mats[a.size][1][name][pos[b]][pos[a]] for a, b in zip(row, col)), start=ONE)

    return tuple([[entry(name, r, c) for c in tuples] for r in tuples] for name in ("m2p", "p2m"))


def monomial_eigenvectors(x, tuples):
    """(rows, eigenvalues) of an operator's matrix x over the power-sum
    monomials of tuples (rows: target, columns: source), in the canonical
    tuple order.  x is conjugated into products of monomial functions,
    A = M^-1 x M (`monomial_frame`), which must be lower triangular; row j
    is A's eigenvector with 1 in slot j (`linalg.triangular_eigenvector`),
    and its eigenvalue is A[j][j]."""
    m, minv = monomial_frame(tuples)
    a = linalg.mat_mul(minv, linalg.mat_mul(x, m))
    rows = [linalg.triangular_eigenvector(a, j, tuples) for j in range(len(tuples))]
    return rows, [a[j][j] for j in range(len(tuples))]


# ---------------------------------------------------------------------------
# Inner products and Macdonald / Hall-Littlewood functions


def inner_prod(f, g, qval, tval):
    """The (q,t) pairing, diagonal on power sums."""
    total = Fraction(0)
    for lam, a in f.items():
        b = g.get(lam)
        if not b:
            continue
        w = Fraction(z_factor(lam))
        for part in lam.parts:
            w = w * (1 - qval**part) / (1 - tval**part)
        total = total + a * b * w
    return total


@lru_cache(maxsize=None)
def _macdonald_degree(n: int, qval, tval):
    """{lambda: P_lambda} for |lambda| = n at (q, t), in the power sums.

    P_lambda is the eigenvector of the zero mode of eta on one boson
    (`fock.eta`, Macdonald's operator E: I. G. Macdonald, Symmetric
    Functions and Hall Polynomials, 2nd ed., VI.3-4), unitriangular over
    m_lambda.  The module reads q only in its contraction and t in eta.
    The cache hands the same dicts to every caller, which only read them.
    """
    module = BosonModule(SimpleNamespace(q=qval, t=tval), 1, [ONE], n)
    tuples = module.basis(n)
    x0 = operator_matrix(vertex_mode(eta(0, module), 0, module), module, n, n)
    rows, _ = monomial_eigenvectors(x0, tuples)
    basis = [tup[0] for tup in tuples]
    return {
        lam: from_monomials({mu: c for mu, c in zip(basis, row) if c})
        for lam, row in zip(basis, rows)
    }


def macdonald_p(lam: Partition, qval, tval):
    return _macdonald_degree(lam.size, qval, tval)[lam]


def hall_littlewood(lam: Partition, tval):
    """Hall-Littlewood pair (P_lambda(;t), Q_lambda(;t)).  P is Macdonald's
    at a formal q = s, read at s = 0: at q = 0 itself the zero-mode
    eigenvalues collide."""
    at_zero = (
        (mu, c.eval(0) if isinstance(c, RatFunc) else c)
        for mu, c in macdonald_p(lam, RatFunc.variable(), tval).items()
    )
    p_lam = {mu: c for mu, c in at_zero if c}
    b = b_factor(lam, tval)
    return p_lam, {mu: b * c for mu, c in p_lam.items()}


def principal_specialization(lam: Partition, r, tval):
    """Q_lambda(p_n; t) at p_n = (1-r^n)/(1-t^n); equals the closed product."""
    _, q_lam = hall_littlewood(lam, tval)
    total = Fraction(0)
    for mu, c in q_lam.items():
        total = total + prod(((1 - r**n) / (1 - tval**n) for n in mu.parts), start=c)
    return total


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
    lhs1 = inner_prod(negate_argument(elementary(s)), q_lam, ZERO, tval)
    rhs1 = Fraction(-1) ** s * tval ** n_stat(lam)
    _, q_row = hall_littlewood(Partition((s,) if s else ()), tval)
    lhs2 = inner_prod(negate_argument(q_row), q_lam, ZERO, tval)
    rhs2 = tval ** (s + n_stat(lam))
    for k in range(1, lam.length + 1):
        rhs2 = rhs2 * (1 - tval ** (-k))
    return {
        "elementary_vs_hl": (lhs1, rhs1),
        "row_hl_vs_hl": (lhs2, rhs2),
        "ok": lhs1 == rhs1 and lhs2 == rhs2,
    }
