import operator
import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from dimfock import scalars
from dimfock.combinat import enumerate_tuples
from dimfock.scalars import (
    Poly,
    RatFunc,
    ScalarError,
    ScalarPoint,
    eigenvalue_of,
    exp_series,
    make_point,
)


def test_fourth_root_closure():
    pt = make_point(7, 2, 3)
    explicit = pt.with_params(Fraction(2, 3), Fraction(3, 5), pt.u)
    assert explicit.q == Fraction(16, 81)
    assert explicit.t == Fraction(81, 625)
    assert explicit.p_half(-1) * (explicit.q0 / explicit.t0) ** 2 == 1
    assert explicit.with_params(Fraction(2, 3), Fraction(3, 5), pt.u).p_half() == Fraction(
        100, 81
    )
    assert pt.p * (pt.t / pt.q) == 1


def test_symbolic_mode_contract():
    spt = make_point(7, 2, 3, "q")
    assert isinstance(spt.q, RatFunc)
    assert spt.at_crystal(spt.q) == 0
    assert spt.at_crystal(spt.p_half()) == 0
    assert spt.p_half() ** 2 == spt.p


def test_switching_the_slot_rederives_the_field():
    """A symbolic point cloned and switched to 'none' reads q, t, p and p^(1/2)
    at the rational q0, t0, and switched back reads them over Q(s) again."""
    spt = make_point(7, 2, 3, "q")
    probe = spt.with_params(spt.q0, spt.t0, spt.u)
    probe.symbolic_slot = "none"
    assert not probe.is_symbolic_q
    assert probe.q == spt.q0**4 and type(probe.q) is Fraction
    assert probe.t == spt.t0**4
    assert probe.p == (spt.q0 / spt.t0) ** 4
    assert probe.p_half() == (spt.q0 / spt.t0) ** 2
    assert probe.describe() == make_point(7, 2, 3).with_params(spt.q0, spt.t0, spt.u).describe()
    probe.symbolic_slot = "q"
    assert isinstance(probe.q, RatFunc) and probe.q == spt.q and probe.p_half() == spt.p_half()


def test_point_determinism():
    a = make_point(11, 2, 3).describe()
    b = make_point(11, 2, 3).describe()
    assert a == b


# Reference: the sampling filters as plain loops over the exponent box.


def _naive_qt_ok(q0, t0, bound):
    q, t = q0**4, t0**4
    if q0 == 1 or t0 == 1 or q == t:
        return False
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if (a, b) != (0, 0) and q**a * t**b == 1:
                return False
    return True


def _naive_sample_weights(rng, q, t, n, bound, forbid=()):
    for _ in range(1000):
        u = [scalars._sample_fraction(rng) for _ in range(n)]
        ok = all(ui != 0 for ui in u)
        pool = list(u) + list(forbid)
        for i in range(len(pool)):
            for j in range(len(pool)):
                if i == j or not ok:
                    continue
                for r in range(-bound, bound + 1):
                    for s in range(-bound, bound + 1):
                        if pool[i] == q**r * t ** (-s) * pool[j]:
                            ok = False
        if ok:
            return u
    raise ScalarError("could not sample generic weights after 1000 tries")


def _naive_eigenvalues_separate(point):
    """Tuple by tuple with eigenvalue_of at the rational q0: the oracle for
    the separation test of make_point."""
    probe = point.with_params(point.q0, point.t0, point.u)
    probe.symbolic_slot = "none"
    for n in range(1, point.level_max + 1):
        values = [eigenvalue_of(tup, probe) for tup in enumerate_tuples(point.n_weights, n)]
        if len(set(values)) < len(values):
            return False
    return True


POINT_CASES = [
    (seed, n_weights, level_max, slot)
    for seed, n_weights, level_max in [
        (1, 1, 2), (7, 2, 3), (11, 3, 2), (42, 2, 4), (101, 2, 4), (102, 3, 3), (313, 4, 2),
        (13, 1, 6), (7, 2, 7), (1, 3, 4), (101, 4, 3),
    ]
    for slot in ("none", "q")
]


def _sampled(seed, n_weights, level_max, slot):
    pt = make_point(seed, n_weights, level_max, slot)
    sib = pt.with_weights("phiv")
    return [(p.q0, p.t0, p.u) for p in (pt, sib)]


def test_point_sampling_matches_naive_loops(monkeypatch):
    fast = [_sampled(*case) for case in POINT_CASES]
    monkeypatch.setattr(ScalarPoint, "_qt_ok", staticmethod(_naive_qt_ok))
    monkeypatch.setattr(ScalarPoint, "_sample_weights", staticmethod(_naive_sample_weights))
    monkeypatch.setattr(scalars, "_eigenvalues_separate", _naive_eigenvalues_separate)
    assert fast == [_sampled(*case) for case in POINT_CASES]


def test_sampling_filters_match_naive_loops_where_they_reject():
    roots = [Fraction(x) for x in ("1", "2", "3", "3/2", "2/3", "4/9", "9/4", "1/2", "8/27", "4")]
    verdicts = [(q0, t0, ScalarPoint._qt_ok(q0, t0, 4)) for q0 in roots for t0 in roots]
    assert verdicts == [(q0, t0, _naive_qt_ok(q0, t0, 4)) for q0 in roots for t0 in roots]
    assert sum(not ok for _, _, ok in verdicts) > len(roots)  # relations do occur
    # with q = 4, t = 2 every ratio 2^k is forbidden, so many draws are rejected
    q, t = Fraction(4), Fraction(2)
    for seed in range(20):
        for forbid in ((), (Fraction(3, 4),), (Fraction(0),)):
            fast = ScalarPoint._sample_weights(scalars.stable_rng("w", seed), q, t, 3, 3, forbid)
            slow = _naive_sample_weights(scalars.stable_rng("w", seed), q, t, 3, 3, forbid)
            assert fast == slow
    with pytest.raises(ScalarError):  # 0 = r * 0 for every ratio r
        ScalarPoint._sample_weights(scalars.stable_rng("w", 0), q, t, 1, 3, (Fraction(0),) * 2)


class _ScriptedRng:
    """Stands in for the sampler's RNG: each candidate fraction is drawn in turn."""

    def __init__(self, *fractions):
        self.ints = [x for f in fractions for x in (f.numerator, f.denominator)]

    def randint(self, lo, hi):
        return self.ints.pop(0)


def test_weight_rejection_covers_exactly_the_exponent_box():
    q, t, bound = Fraction(16, 81), Fraction(81, 625), 2
    first, second = Fraction(3, 5), Fraction(7, 11)
    for r in range(-bound - 1, bound + 2):
        for s in range(-bound - 1, bound + 2):
            forbid = (first * q**r * t ** (-s),)
            inside = max(abs(r), abs(s)) <= bound
            for sample in (ScalarPoint._sample_weights, _naive_sample_weights):
                got = sample(_ScriptedRng(first, second), q, t, 1, bound, forbid)
                assert got == [second if inside else first], (r, s, sample)


def test_separation_verdicts_match_the_eigenvalue_oracle():
    pt = make_point(7, 2, 4)
    u = pt.u[0]
    q, t = pt.q, pt.t
    # equal weights, and weight ratios q / t, t and q, all collide
    collide = [pt.with_u([u, u * r]) for r in (1, q / t, t, q)]
    points = [pt, pt.with_params(pt.q0, pt.q0, [u, 2 * u]), make_point(5, 3, 3, "q")] + collide
    verdicts = [scalars._eigenvalues_separate(p) for p in points]
    assert verdicts == [_naive_eigenvalues_separate(p) for p in points]
    assert verdicts == [True] * 3 + [False] * len(collide)


def test_eigenvalue_separation():
    pt = make_point(13, 2, 4)
    seen = set()
    from dimfock.combinat import enumerate_tuples

    for n in range(1, 5):
        for tup in enumerate_tuples(2, n):
            ev = eigenvalue_of(tup, pt)
            assert ev not in seen
            seen.add(ev)


def test_ratfunc_field_axioms():
    rng = random.Random(2024)
    x = RatFunc.variable()
    for _ in range(200):
        num1 = Poly([rng.randint(-5, 5) for _ in range(3)])
        den1 = Poly([rng.randint(-5, 5) for _ in range(2)] + [1])
        a = RatFunc(num1, den1)
        if not a:
            continue
        b = (x + rng.randint(1, 7)) / (x**2 + rng.randint(1, 4))
        assert (a / b) * (b / a) == 1
        assert RatFunc(a.num, a.den) == a  # reduction idempotent
    f = (x**2 - 1) / (x - 1)
    assert f == x + 1


def assert_canonical(f):
    """num/den coprime over Q[s], joint integer content 1, lc(den) > 0, reduced again unchanged."""
    num, den = f.num.coeffs, f.den.coeffs
    assert all(type(c) is int for c in num + den)
    assert den and den[-1] > 0
    assert gcd(*num, *den) == 1
    assert f.num.gcd(f.den).coeffs == (1,)
    again = RatFunc(f.num, f.den)
    assert (again.num.coeffs, again.den.coeffs) == (num, den)


def test_ratfunc_canonical_form():
    s = RatFunc.variable()
    f = RatFunc(Poly([2, 4]), Poly([6, -4]))  # (1 + 2s) / (3 - 2s)
    assert (f.num.coeffs, f.den.coeffs) == ((-1, -2), (-3, 2))
    g = s / 2 + Fraction(1, 3)
    assert (g.num.coeffs, g.den.coeffs) == ((2, 3), (6,))
    h = RatFunc(Poly([0, 0, 3, 3]), Poly([0, 6, 6]))  # 3s^2(1 + s) / 6s(1 + s)
    assert (h.num.coeffs, h.den.coeffs) == ((0, 1), (2,))
    assert (s - s).den.coeffs == (1,) and (s / (s + 1) * 0).den.coeffs == (1,)
    for x in (f, g, h, f * g / h, f + g - h, (f - 1) ** -2, 1 / (g - s / 2)):
        assert_canonical(x)
    with pytest.raises(ZeroDivisionError):
        RatFunc(s, Poly())
    with pytest.raises(TypeError):
        Poly([Fraction(1, 2)])


def test_ratfunc_constants_hash_like_fractions():
    for c in (0, 1, -1, 7, Fraction(1, 2), Fraction(-3, 4), Fraction(10, 6), Fraction(-8, 1)):
        r = RatFunc(c)
        assert r == Fraction(c) and Fraction(c) == r and r == c
        assert hash(r) == hash(Fraction(c))
        assert_canonical(r)
    s = RatFunc.variable()
    one = (s + 1) / (s + 1)
    assert one == 1 and hash(one) == hash(1)
    half = (s * 3 + 3) / (s * 6 + 6)
    assert half == Fraction(1, 2) and {Fraction(1, 2): "half"}[half] == "half"
    assert (s / 2) * 2 == s and hash((s / 2) * 2) == hash(s)


# irreducible and pairwise distinct primitive factors with positive leading coefficient
FACTORS = [
    Poly([0, 1]),
    Poly([1, 1]),
    Poly([-2, 1]),
    Poly([3, 2]),
    Poly([-1, 3]),
    Poly([1, 0, 1]),
    Poly([5, -1, 1]),
    Poly([2, 0, 0, 1]),
]
NONZERO = [c for c in range(-12, 13) if c]


def _product(indices, content=1):
    out = Poly([content])
    for i in indices:
        out = out * FACTORS[i]
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, len(FACTORS) - 1), max_size=4),
    st.lists(st.integers(0, len(FACTORS) - 1), max_size=4),
    st.lists(st.integers(0, len(FACTORS) - 1), max_size=4),
    st.sampled_from(NONZERO),
    st.sampled_from(NONZERO),
)
def test_poly_gcd_of_known_factorizations(common, left, right, ca, cb):
    # left and right share no factor, so the gcd is the common product, made primitive
    right = [i for i in right if i not in left]
    g = _product(common)
    a, b = _product(common + left, ca), _product(common + right, cb)
    assert a.gcd(b) == g == b.gcd(a)
    assert a.exquo(g) == _product(left, ca) and b.exquo(g) == _product(right, cb)
    if left:
        with pytest.raises(ScalarError, match="inexact"):
            _product(right, cb).exquo(_product(left))
    assert a.gcd(Poly()) == _product(common + left)  # the primitive part of a
    assert Poly().gcd(Poly()) == Poly()


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
CONSTANTS = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
EXPRESSIONS = st.recursive(
    st.one_of(st.just("s"), CONSTANTS),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(sorted(OPS)), inner, inner),
        st.tuples(st.just("**"), inner, st.integers(-2, 3)),
    ),
    max_leaves=8,
)


def evaluate(expr, s):
    if expr == "s":
        return s
    if not isinstance(expr, tuple):
        return expr
    op, a, b = expr
    x = evaluate(a, s)
    y = b if op == "**" else evaluate(b, s)
    if not isinstance(x, RatFunc) and not isinstance(y, RatFunc):
        x = Fraction(x)  # int leaves meet RatFuncs as ints, but int / int is a float
    return x**y if op == "**" else OPS[op](x, y)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS, st.lists(st.fractions(-3, 3, max_denominator=7), min_size=1, max_size=4))
def test_ratfunc_matches_fraction_arithmetic(expr, xs):
    try:
        f = evaluate(expr, RatFunc.variable())
    except ZeroDivisionError:
        assume(False)  # divides by the zero function
    f = RatFunc(f) if not isinstance(f, RatFunc) else f
    assert_canonical(f)
    event("constant" if len(f.num.coeffs) <= 1 and len(f.den.coeffs) == 1 else "in s")
    checked = 0
    for x in xs:
        try:
            want = evaluate(expr, x)
        except ZeroDivisionError:
            continue  # an intermediate value has a pole at x
        assert f.eval(x) == want
        checked += 1
    event("points checked: %d" % checked)


def _random_series(rng, order):
    """Coefficients of a series with zero constant term and small random entries."""
    tail = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(order - 1)]
    return [Fraction(0)] + tail


def _series_product(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def test_series_exp_of_a_sum_is_the_product():
    rng = random.Random(5)
    for _ in range(5):
        a, b = _random_series(rng, 7), _random_series(rng, 7)
        total = [x + y for x, y in zip(a, b)]
        assert exp_series(total) == _series_product(exp_series(a), exp_series(b))


def test_series_exp_coefficients():
    # exp(c z) = sum_k c^k z^k / k!
    for c in (Fraction(1), Fraction(-3, 2), Fraction(5, 7)):
        got = exp_series([Fraction(0), c] + [Fraction(0)] * 5)
        assert got == [c**k / factorial(k) for k in range(7)]


def test_series_exp_needs_zero_constant_term():
    with pytest.raises(ScalarError):
        exp_series([Fraction(1, 2), Fraction(1)])
