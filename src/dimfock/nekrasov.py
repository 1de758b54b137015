"""Nekrasov factors, pure-gauge partition functions, their crystal limits,
and the four-point sums of the crystal vertex operator.

A series is the list of its exact coefficients.  The instanton expansion
variable Lambda enters through its fourth power only, so a series in it is
indexed by instanton order: entry k is the coefficient of Lambda^(4k).  The
crystal factor is the closed-form q -> 0 limit of the rescaled generic
factor, never a runtime limit, and the limit statement itself is verified
order by order inside the rational-function field.
"""

from __future__ import annotations

from fractions import Fraction

from .combinat import (
    EMPTY,
    Partition,
    PartitionTuple,
    arm_leg,
    b_factor,
    check_partition,
    enumerate_tuples,
    n_stat,
    partitions,
)
from .scalars import PoleAtZero

ZERO = Fraction(0)
ONE = Fraction(1)


class NonGenericPoint(ArithmeticError):
    pass


def nek_factor(lam: Partition, mu: Partition, Q, point):
    """The bifundamental factor N_{lam,mu}(Q) at the point's (q, t)."""
    qval, tval = point.q, point.t
    out = ONE
    for (i, j) in lam.cells():
        a = lam.part(i) - j
        l = mu.conjugate().part(j) - i
        out = out * (1 - Q * qval**a * tval ** (l + 1))
    for (i, j) in mu.cells():
        a = mu.part(i) - j
        l = lam.conjugate().part(j) - i
        out = out * (1 - Q * qval ** (-a - 1) * tval ** (-l))
    return out


def z_pure(order, Q, point):
    """Pure-gauge instanton series: entry k is the coefficient of Lambda^(4k), k <= order."""
    q, t = point.q, point.t
    out = []
    for k in range(order + 1):
        coeff = ZERO
        for tot_l in range(k + 1):
            for lam in partitions(tot_l):
                for mu in partitions(k - tot_l):
                    den = (
                        nek_factor(lam, lam, ONE, point)
                        * nek_factor(lam, mu, Q, point)
                        * nek_factor(mu, mu, ONE, point)
                        * nek_factor(mu, lam, 1 / Q, point)
                    )
                    if not den:
                        raise NonGenericPoint("vanishing denominator in the instanton sum")
                    coeff = coeff + (t / q) ** k / den
        out.append(coeff)
    return out


# ---------------------------------------------------------------------------
# Crystal limit


def crystal_nek(lam: Partition, mu: Partition, Q, tval):
    """Closed form of lim_{q->0} q^(n(mu')) N_{lam,mu}((q/t) Q)."""
    chk = check_partition(mu)
    out = (-Q / tval) ** chk.size
    for (i, j) in chk.cells():
        _, leg = arm_leg(lam, i, j)
        out = out * tval ** (-leg)
    for i in range(1, mu.length + 1):
        _, leg = arm_leg(lam, i, mu.part(i))
        out = out * (1 - Q * tval ** (-leg - 1))
    return out


def z_pure_crystal(order, Q, tval):
    """Crystal pure-gauge series via the two-integer sum, by instanton order."""
    out = []
    for k in range(order + 1):
        coeff = ZERO
        for n in range(k + 1):
            m = k - n
            den = ONE
            for s in range(1, n + 1):
                den = den * (1 - tval ** (-s)) * (1 - tval ** (n - m - s) / Q)
            for s in range(1, m + 1):
                den = den * (1 - tval ** (-s)) * (1 - Q * tval ** (m - n - s))
            if not den:
                raise NonGenericPoint("vanishing crystal denominator")
            coeff = coeff + 1 / den
        out.append(coeff)
    return out


def z_pure_crystal_closed(order, tval):
    """The Q-independent evaluation: coefficients 1 / prod (1 - t^-s)."""
    out = []
    for m in range(order + 1):
        den = ONE
        for s in range(1, m + 1):
            den = den * (1 - tval ** (-s))
        out.append(1 / den)
    return out


def crystal_limit_check(order, sym_point, Q):
    """Order-by-order limit of the rescaled generic series, exactly.

    In the symbolic-q field with the substitution of the instanton variable
    by its crystal-rescaled version, each coefficient is a rational function
    of q; its value at q = 0 must match the crystal series.  Returns the list
    of failing orders (empty = pass).
    """
    if not sym_point.is_symbolic_q:
        raise ValueError("needs a symbolic-q point")
    t = sym_point.t
    fails = []
    target = z_pure_crystal(order, Q, t)
    generic = z_pure(order, Q, sym_point)
    for k in range(order + 1):
        # Lambda^4 = (t/q) * crystal Lambda^4, so the k-th coefficient,
        # which carries (t/q)^k already, picks up (t/q)^(2k) in total.
        coeff = generic[k] * (t / sym_point.q) ** k
        try:
            value = sym_point.at_crystal(coeff)
        except PoleAtZero:
            fails.append((k, "pole"))
            continue
        if value != target[k]:
            fails.append((k, "mismatch"))
    return fails


# ---------------------------------------------------------------------------
# Integral-form norm and matrix-element conjectures


def conjecture_checks(level, point, n_comp=2):
    """Integral-form norms against the closed Nekrasov-factor formula: the
    diagonal matrix element of the integral forms at v = u."""
    from .genmac import gen_macdonald, integral_forms
    from .phi import phi_element_formula

    failures = []
    for n in range(level + 1):
        basis = gen_macdonald(n, point, n_comp=n_comp)
        forms = integral_forms(basis)
        module = basis.module
        for tup in basis.tuples:
            lhs = module.pair(forms.k_bra(tup), forms.k_state(tup))
            rhs = phi_element_formula(tup, tup, point, point, ONE)
            if lhs != rhs:
                failures.append(("norm", tup, lhs, rhs))
    return failures


# ---------------------------------------------------------------------------
# Crystal four-point sums


def four_point_closed(order, tval, ratio_w):
    """Closed-form coefficients in x = u1 u2 z1 / (w1 w2 z2).

    ratio_w is w1 w2 / (v1 v2).  Coefficient of x^n is the sum over single
    partitions of n of prod_k (1 - t^(k-1) ratio) / (t^(2 n(lam)) b_lam(1/t)).
    """
    return [
        sum((_closed_term(lam, tval, ratio_w) for lam in partitions(n)), ZERO)
        for n in range(order + 1)
    ]


def _closed_term(lam: Partition, tval, ratio):
    """prod_k (1 - t^(k-1) ratio) / (t^(2 n(lam)) b_lam(1/t)), the term of lam
    in the closed four-point form."""
    num = ONE
    for k in range(1, lam.length + 1):
        num = num * (1 - tval ** (k - 1) * ratio)
    return num / (tval ** (2 * n_stat(lam)) * b_factor(lam, 1 / tval))


def four_point_aflt(order, tval, v, w):
    """AFLT-basis coefficients: tuple sums of crystal-factor ratios."""
    return [
        sum((_aflt_weight(tup, tval, v, w) for tup in enumerate_tuples(2, n)), ZERO)
        for n in range(order + 1)
    ]


def _aflt_weight(tup: PartitionTuple, tval, v, w):
    """prod_(i,j) crystal_nek(0, tup_j, w_i / v_j) / crystal_nek(tup_i, tup_j, v_i / v_j),
    the weight of a pair of partitions in the AFLT-basis sums."""
    num = ONE
    den = ONE
    for i in range(2):
        for j in range(2):
            num = num * crystal_nek(EMPTY, tup[j], w[i] / v[j], tval)
            den = den * crystal_nek(tup[i], tup[j], v[i] / v[j], tval)
    if not den:
        raise NonGenericPoint("vanishing crystal factor in the tuple sum")
    return num / den


def pair_groups(lam: Partition):
    """All ordered splittings of the part multiset of lam into two partitions."""
    parts = list(lam.parts)
    n = len(parts)
    seen = set()
    out = []
    for mask in range(1 << n):
        first = tuple(sorted((parts[i] for i in range(n) if mask >> i & 1), reverse=True))
        second = tuple(sorted((parts[i] for i in range(n) if not mask >> i & 1), reverse=True))
        if (first, second) in seen:
            continue
        seen.add((first, second))
        out.append(PartitionTuple([Partition(first), Partition(second)]))
    return out


def strange_factorization_check(lam: Partition, tval, v, w):
    """Grouped partial sum against its factorized form; returns (lhs, rhs)."""
    lhs = sum((_aflt_weight(tup, tval, v, w) for tup in pair_groups(lam)), ZERO)
    ratio = w[0] * w[1] / (v[0] * v[1])
    # leg-difference statistic: sum over shortened rows of L_empty - L_lam,
    # which evaluates to minus the column lengths
    istat = -sum(lam.conjugate().part(j) for (i, j) in check_partition(lam).cells())
    rhs = (
        _closed_term(lam, tval, ratio)
        * ratio ** (lam.size - lam.length)
        * tval ** (2 * n_stat(lam) - istat)
    )
    return lhs, rhs
