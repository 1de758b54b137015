"""Exact coefficient fields and seeded specialization points.

Two scalar modes:

* fully specialized -- every scalar is a ``fractions.Fraction``.  The
  deformation parameters are built with fourth-root closure, q = q0^4 and
  t = t0^4, so the half powers p^(k/2) of p = q/t appearing in free-field
  formulas are themselves rational.

* one formal symbol -- scalars are univariate rational functions over Q,
  stored as an integer numerator and denominator in Z[s] and reduced with a
  primitive-PRS gcd, so no Fraction arithmetic runs inside them.
  For the q-slot the internal variable is s = (q/t)^(1/2), i.e. q = t*s^2
  with t rational; every half-integer power of p = q/t is then an exact
  monomial in s, the q -> 0 limit is evaluation at s = 0, and poles at
  q = 0 are detected exactly from the reduced denominator.

Scalars of either kind mix freely with ints and Fractions through operator
overloading; generic code can use Fraction(0) and Fraction(1) as neutral
elements.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .combinat import enumerate_tuples, partitions


def stable_rng(*key) -> random.Random:
    """Process-independent RNG: str(key) hashed with sha256, not hash()."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class ScalarError(ArithmeticError):
    pass


class PoleAtZero(ScalarError):
    """Evaluation at the crystal point hit a pole."""


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Z and their fractions


class Poly:
    """Dense univariate polynomial over Z; index = degree, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        if not all(isinstance(x, int) for x in c):
            raise TypeError("Poly coefficients must be ints: %r" % (c,))
        while c and not c[-1]:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def _of(cls, coeffs):
        """Wrap a tuple of ints that is already trimmed, without checks."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        if len(a) > len(b):
            return Poly._of(tuple(out) + a[len(b) :])
        while out and not out[-1]:
            out.pop()
        return Poly._of(tuple(out))

    def __neg__(self):
        return Poly._of(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return _ZERO
        if len(b) == 1:
            c = b[0]
            return Poly._of(a if c == 1 else tuple(c * x for x in a))
        n = len(a)
        out = [0] * (n + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                out[j : j + n] = [o + x * y for o, x in zip(out[j : j + n], a)]
        return Poly._of(tuple(out))

    def exquo(self, other):
        """The quotient by a divisor over Z; ScalarError if it leaves a remainder."""
        r = list(self.coeffs)
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        n = len(b) - 1
        lead = b[-1]
        q = [0] * max(0, len(r) - n)
        for k in range(len(q) - 1, -1, -1):
            f, m = divmod(r[k + n], lead)
            if m:
                raise ScalarError("inexact polynomial division")
            q[k] = f
            if f:
                r[k : k + n] = [c - f * x for c, x in zip(r[k : k + n], b)]
        if any(r[:n]):
            raise ScalarError("inexact polynomial division")
        return Poly._of(tuple(q))

    def gcd(self, other):
        """Primitive gcd over Z: content 1 and a positive leading coefficient.

        A primitive polynomial remainder sequence (G. Collins, J. ACM 1967;
        W. S. Brown, J. ACM 1971): every pseudo-remainder is divided by its
        content, so no rational arithmetic is needed and the coefficients
        stay small.  A common power of s is split off first.  gcd(0, 0) = 0.
        """
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._of(_primitive(a or b))
        za, zb = _low_zeros(a), _low_zeros(b)
        a, b = _primitive(a[za:]), _primitive(b[zb:])
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            a, b = b, _primitive(_pseudo_remainder(a, b))
        if b:  # a nonzero constant remainder: coprime
            a = (1,)
        return Poly._of((0,) * min(za, zb) + a)

    def eval(self, x):
        """Exact value at a rational x, as a Fraction."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        coeffs = self.coeffs
        if not coeffs:
            return Fraction(0)
        acc, scale = coeffs[-1], 1
        for c in reversed(coeffs[:-1]):
            scale *= q
            acc = acc * p + c * scale
        return Fraction(acc, scale)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Poly(%r)" % (self.coeffs,)


_ZERO = Poly._of(())
_ONE = Poly._of((1,))


def _low_zeros(t):
    """The power of s dividing a nonzero coefficient tuple."""
    k = 0
    while not t[k]:
        k += 1
    return k


def _primitive(t):
    """A coefficient tuple divided by its content, leading coefficient positive."""
    if not t:
        return t
    g = gcd(*t)
    if t[-1] < 0:
        g = -g
    return t if g == 1 else tuple(c // g for c in t)


def _pseudo_remainder(a, b):
    """A nonzero integer multiple of the remainder of a by b, len(a) >= len(b).

    Each step scales the running remainder by lc(b)/g only, where g is the
    gcd of the two leading coefficients, instead of by lc(b).
    """
    r = list(a)
    n = len(b) - 1
    lead = b[-1]
    while len(r) > n:
        g = gcd(r[-1], lead)
        m, f = lead // g, r[-1] // g
        if m != 1:
            r = [c * m for c in r]
        k = len(r) - 1 - n
        r[k : k + n] = [c - f * x for c, x in zip(r[k : k + n], b)]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return tuple(r)


class RatFunc:
    """An element of Q(s) as num/den with num, den in Z[s].

    Canonical form: num and den have no common factor over Q[s], their joint
    integer content is 1 and den has a positive leading coefficient.  Equal
    elements therefore have equal (num, den); a constant n/d is stored as
    (n)/(d) and hashes like Fraction(n, d).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        """num/den for Polys, ints or Fractions, brought to the canonical form."""
        q = _mul(_lift(num), _inverse(_lift(den)))
        self.num, self.den = q.num, q.den

    @classmethod
    def variable(cls):
        return _rat(Poly._of((0, 1)), _ONE)

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _rat(Poly._of((n,)) if n else _ZERO, Poly._of((other.denominator,)))
        return None

    # Exact linear combinations (fock) clear every scalar to an integer
    # denominator: a RatFunc is its own numerator over the denominator 1.
    @property
    def numerator(self):
        return self

    @property
    def denominator(self):
        return 1

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(self, o)

    __radd__ = __add__

    def __neg__(self):
        return _rat(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(self, -o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(o, -self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _mul(self, _inverse(o))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _mul(o, _inverse(self))

    def __pow__(self, n):
        # num^n and den^n are again coprime with joint content 1 (Gauss's lemma)
        base = self if n >= 0 else _inverse(self)
        p, q = base.num, base.den
        num = den = _ONE
        n = abs(n)
        while n:
            if n & 1:
                num, den = num * p, den * q
            n >>= 1
            if n:
                p, q = p * p, q * q
        return _rat(num, den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num.coeffs == o.num.coeffs and self.den.coeffs == o.den.coeffs

    def __hash__(self):
        n, d = self.num.coeffs, self.den.coeffs
        if len(n) <= 1 and len(d) == 1:
            return hash(Fraction(n[0] if n else 0, d[0]))
        return hash((n, d))

    def __bool__(self):
        return bool(self.num.coeffs)

    def eval(self, x):
        """Exact value at a rational x, as a Fraction; PoleAtZero at a pole."""
        d = self.den.eval(x)
        if d == 0:
            raise PoleAtZero("pole at x=%s" % (x,))
        return self.num.eval(x) / d

    def __repr__(self):
        return "RatFunc(%r, %r)" % (self.num.coeffs, self.den.coeffs)


def _rat(num, den):
    """A RatFunc from Polys already in canonical form."""
    r = object.__new__(RatFunc)
    r.num = num
    r.den = den
    return r


def _lift(x):
    if isinstance(x, Poly):
        return _rat(x, _ONE)
    r = RatFunc._coerce(x)
    if r is None:
        raise TypeError("cannot make a rational function of %r" % (x,))
    return r


def _canonical(num, den):
    """num/den with joint content 1, for num, den coprime over Q[s] and lc(den) > 0.

    Every den passed here is a product or exact quotient of canonical
    denominators and primitive gcds, so its leading coefficient is positive.
    """
    if not num.coeffs:
        return _rat(_ZERO, _ONE)
    g = gcd(*num.coeffs, *den.coeffs)
    if g != 1:
        num = Poly._of(tuple(c // g for c in num.coeffs))
        den = Poly._of(tuple(c // g for c in den.coeffs))
    return _rat(num, den)


def _cancel(p, q):
    """p and q divided by their gcd; a constant on either side skips the gcd."""
    if len(p.coeffs) < 2 or len(q.coeffs) < 2:
        return p, q
    g = p.gcd(q)
    if len(g.coeffs) < 2:
        return p, q
    return p.exquo(g), q.exquo(g)


def _inverse(x):
    num, den = x.num, x.den
    if not num.coeffs:
        raise ZeroDivisionError("division by zero rational function")
    if num.coeffs[-1] < 0:
        return _rat(-den, -num)
    return _rat(den, num)


def _add(x, y):
    a, b, c, d = x.num, x.den, y.num, y.den
    if not a.coeffs:
        return y
    if not c.coeffs:
        return x
    if b.coeffs == d.coeffs:  # equal denominators: no cross product
        return _canonical(*_cancel(a + c, b))
    if len(b.coeffs) > 1 and len(d.coeffs) > 1:
        # Henrici: with g = gcd(b, d), the sum's only common factor lies in g
        g = b.gcd(d)
        if len(g.coeffs) > 1:
            b1, d1 = b.exquo(g), d.exquo(g)
            t, h = _cancel(a * d1 + c * b1, g)
            return _canonical(t, b1 * d1 * h)
    return _canonical(a * d + c * b, b * d)


def _mul(x, y):
    a, d = _cancel(x.num, y.den)
    c, b = _cancel(y.num, x.den)
    return _canonical(a * c, b * d)


# ---------------------------------------------------------------------------
# Rows cleared to one denominator
#
# Exact combinations and products clear each row of scalars once to
# (D, numerators) and read each result out as one reduced quotient, in place
# of a reduction per term.  Over Q the numerators are ints (a RatFunc reads
# as itself over 1 there); over Q(s) they are Polys over a common Poly D.


def cleared(values, symbolic=False):
    """(D, [n_i]) with values[i] == n_i / D.

    Over Q, D is the lcm of the integer denominators.  With symbolic set,
    the values are read in Q(s) and cleared over Z[s] (see _cleared_polys).
    """
    if symbolic:
        return _cleared_polys(values)
    values = list(values)
    nums = [x.numerator for x in values]
    dens = [x.denominator for x in values]
    d = lcm(*dens)
    return d, [n if q == d else n * (d // q) for n, q in zip(nums, dens)]


def _cleared_polys(values):
    """(D, [N_i]) in Z[s] with values[i] == N_i / D for Fraction, int or
    RatFunc values.

    D is the lcm of the canonical denominators: the lcm of their integer
    contents times the lcm of their primitive parts.  Each new non-constant
    primitive part costs one gcd against the lcm so far; a denominator met
    before costs nothing.
    """
    content, prim = 1, _ONE
    dens = {}  # denominator coefficients -> (its content, its primitive part)
    parts = []
    for x in values:
        if isinstance(x, RatFunc):
            num, den = x.num, x.den.coeffs
        else:
            n = x.numerator
            num, den = Poly._of((n,) if n else ()), (x.denominator,)
        parts.append((num, den))
        if not num.coeffs or den in dens:
            continue
        k = gcd(*den)
        part = Poly._of(den if k == 1 else tuple(c // k for c in den))
        dens[den] = k, part
        content = lcm(content, k)
        if len(part.coeffs) > 1:
            if prim is _ONE:
                prim = part
            else:
                g = prim.gcd(part)
                prim = prim * (part if len(g.coeffs) < 2 else part.exquo(g))
    factors = {}  # denominator coefficients -> D / denominator
    nums = []
    for num, den in parts:
        if not num.coeffs:
            nums.append(_ZERO)
            continue
        f = factors.get(den)
        if f is None:
            k, part = dens[den]
            f = prim if len(part.coeffs) < 2 else prim.exquo(part)
            if content != k:
                f = f * Poly._of((content // k,))
            factors[den] = f
        nums.append(num * f)
    return (prim if content == 1 else prim * Poly._of((content,))), nums


def dot(xs, ys):
    """Sum of x * y over two numerator lists from cleared: an int, or a Poly."""
    if not xs or type(xs[0]) is not Poly:
        return sum(map(mul, xs, ys))
    out = []
    for x, y in zip(xs, ys):
        a, b = x.coeffs, y.coeffs
        if not a or not b:
            continue
        need = len(a) + len(b) - 1
        if len(out) < need:
            out.extend([0] * (need - len(out)))
        m = len(b)
        for i, c in enumerate(a):
            if c:
                out[i : i + m] = [o + c * z for o, z in zip(out[i : i + m], b)]
    while out and not out[-1]:
        out.pop()
    return Poly._of(tuple(out))


def quotient(n, d, e=1):
    """n / (d e) read out of cleared numerators, as one reduced field element.

    An int n gives a Fraction.  A Poly n over Poly denominators d and e gives
    a canonical RatFunc (Fraction 0 for n == 0): n is cancelled against d
    and then against e, two gcds of the factors' size in place of one of
    their product's.  A RatFunc n over integers d and e gives the RatFunc
    quotient.
    """
    if type(n) is int:
        return Fraction(n, d * e)
    if type(n) is Poly:
        if not n.coeffs:
            return Fraction(0)
        n, d = _cancel(n, d)
        if type(e) is Poly:
            n, e = _cancel(n, e)
            d = d * e
        return _canonical(n, d)
    d *= e
    return n if d == 1 else n / d


# ---------------------------------------------------------------------------
# Specialization points


def _sample_fraction(rng, max_height=50):
    num = rng.randint(2, max_height)
    den = rng.randint(2, max_height)
    return Fraction(num, den)


def _power_table(x, bound):
    """{k: x^k for -bound <= k <= bound}, by repeated multiplication."""
    table = {0: Fraction(1)}
    inv = 1 / x
    for k in range(1, bound + 1):
        table[k] = table[k - 1] * x
        table[-k] = table[1 - k] * inv
    return table


class ScalarPoint:
    """A seeded specialization of (q, t, u_1..u_N) with fourth-root closure.

    q = q0^4 and t = t0^4 for rational q0, t0, so every fractional power used
    anywhere in the calculus is exact: p^(k/2) = (q0/t0)^(2k) (`p_half`).

    With symbolic_slot='q' the scalar field becomes rational functions in
    s = (q/t)^(1/2); q = t*s^2 stays exact, p^(k/2) = s^k, and the crystal
    limit q -> 0 is evaluation at s = 0.
    """

    def __init__(self, seed, n_weights, level_max, symbolic_slot="none", _resample=0):
        if symbolic_slot not in ("none", "q"):
            raise ValueError("unknown symbolic slot %r" % symbolic_slot)
        self.seed = seed
        self.n_weights = n_weights
        self.level_max = level_max
        self.symbolic_slot = symbolic_slot
        rng = stable_rng("dimfock-point", seed, _resample)
        bound = 2 * level_max + 4
        for _ in range(1000):
            # small heights keep the bignum growth of high powers manageable
            q0 = _sample_fraction(rng, max_height=9)
            t0 = _sample_fraction(rng, max_height=9)
            if self._qt_ok(q0, t0, bound):
                break
        else:
            raise ScalarError("could not sample generic (q0, t0) after 1000 tries")
        self.q0, self.t0 = q0, t0
        self.u = self._sample_weights(rng, q0**4, t0**4, n_weights, 2 * level_max)

    @staticmethod
    def _qt_ok(q0, t0, bound):
        """No relation q^a t^b = 1 with 0 < max(|a|, |b|) <= bound."""
        q, t = q0**4, t0**4
        if q == 1 or t == 1 or q == t:  # (a, b) = (1, 0), (0, 1), (1, -1)
            return False
        # q > 0 and q != 1, so a -> q^a is injective and q^a t^b = 1 exactly
        # when t^-b is a tabulated power of q with (a, b) != (0, 0)
        q_exp = {x: a for a, x in _power_table(q, bound).items()}
        for b, x in _power_table(t, bound).items():
            a = q_exp.get(1 / x)
            if a is not None and (a, b) != (0, 0):
                return False
        return True

    @staticmethod
    def _sample_weights(rng, q, t, n, bound, forbid=()):
        """Weights with no ratio u_i / u_j of the form q^r t^-s, |r|, |s| <= bound."""
        # the ratios as reduced (numerator, denominator) pairs, each from one
        # integer product, without a Fraction product and hash per pair
        t_pows = [x.as_integer_ratio() for x in _power_table(t, bound).values()]
        ratios = set()
        for x in _power_table(q, bound).values():
            qn, qd = x.as_integer_ratio()
            for tn, td in t_pows:
                num, den = qn * tn, qd * td
                g = gcd(num, den)
                ratios.add((num // g, den // g))
        for _ in range(1000):
            u = [_sample_fraction(rng) for _ in range(n)]
            pool = list(u) + list(forbid)
            ok = all(ui != 0 for ui in u) and not any(
                (pool[i] == 0 if pool[j] == 0 else (pool[i] / pool[j]).as_integer_ratio() in ratios)
                for i in range(len(pool))
                for j in range(len(pool))
                if i != j
            )
            if ok:
                return u
        raise ScalarError("could not sample generic weights after 1000 tries")

    # -- field elements ------------------------------------------------

    @property
    def is_symbolic_q(self):
        return self.symbolic_slot == "q"

    def _sym(self):
        return RatFunc.variable()

    @property
    def t(self):
        return self.t0**4

    @property
    def q(self):
        if self.is_symbolic_q:
            return self._sym() ** 2 * self.t
        return self.q0**4

    @property
    def p(self):
        """p = q/t."""
        if self.is_symbolic_q:
            return self._sym() ** 2
        return (self.q0 / self.t0) ** 4

    def p_half(self, k=1):
        """p^(k/2) for any integer k."""
        if self.is_symbolic_q:
            return self._sym() ** k
        return (self.q0 / self.t0) ** (2 * k)

    def q_pow(self, n):
        return self.q**n if n >= 0 else 1 / (self.q ** (-n))

    def t_pow(self, n):
        return self.t**n if n >= 0 else 1 / (self.t ** (-n))

    def at_crystal(self, x):
        """Evaluate a scalar at q = 0 (s = 0); raises PoleAtZero on a pole."""
        if isinstance(x, RatFunc):
            return x.eval(Fraction(0))
        return Fraction(x)

    # -- auxiliary generic parameters -----------------------------------

    def fresh_rational(self, tag, nonzero=True, not_one=True):
        """Deterministic extra generic rational attached to this point."""
        rng = stable_rng("dimfock-aux", self.seed, tag)
        while True:
            x = _sample_fraction(rng)
            if nonzero and x == 0:
                continue
            if not_one and x == 1:
                continue
            return x

    def with_weights(self, tag):
        """A sibling point sharing (q0, t0) but with fresh generic weights."""
        other = ScalarPoint.__new__(ScalarPoint)
        other.seed = self.seed
        other.n_weights = self.n_weights
        other.level_max = self.level_max
        other.symbolic_slot = self.symbolic_slot
        other.q0, other.t0 = self.q0, self.t0
        rng = stable_rng("dimfock-weights", self.seed, tag)
        other.u = self._sample_weights(
            rng, self.q0**4, self.t0**4, self.n_weights, 2 * self.level_max, forbid=tuple(self.u)
        )
        return other

    def with_u(self, u):
        """Clone with explicitly prescribed weights (used for constrained points)."""
        return self.with_params(self.q0, self.t0, u)

    def with_params(self, q0, t0, u):
        """Clone with explicit fourth roots and weights."""
        other = ScalarPoint.__new__(ScalarPoint)
        other.seed = self.seed
        other.n_weights = len(u)
        other.level_max = self.level_max
        other.symbolic_slot = self.symbolic_slot
        other.q0, other.t0 = Fraction(q0), Fraction(t0)
        other.u = list(u)
        return other

    def describe(self):
        return {
            "seed": self.seed,
            "symbolic": self.symbolic_slot,
            "q0": str(self.q0),
            "t0": str(self.t0),
            "u": [str(x) for x in self.u],
        }


def eigenvalue_of(tup, point):
    """Eigenvalue sum_k u_k * e_{lambda^(k)} with e in terms of q, t."""
    q, t = point.q, point.t
    total = Fraction(0)
    for k, lam in enumerate(tup.components):
        total = total + point.u[k] * _e_value(lam.parts, q, t)
    return total


def _e_value(parts, q, t):
    """e_lambda = 1 + sum_i (t - 1)(q^lambda_i - 1) t^-i."""
    e = Fraction(1)
    for i, part in enumerate(parts, start=1):
        e = e + (t - 1) * (q**part - 1) * t ** (-i)
    return e


def make_point(seed, n_weights, level_max, symbolic_slot="none"):
    """Seeded generic point; resamples until eigenvalues separate."""
    for attempt in range(1000):
        pt = ScalarPoint(seed, n_weights, level_max, symbolic_slot, _resample=attempt)
        if _eigenvalues_separate(pt):
            return pt
    raise ScalarError("eigenvalue separation failed after 1000 resamples")


def _eigenvalues_separate(point) -> bool:
    """Whether the eigenvalue_of values of the tuples of each level up to
    level_max are distinct.

    Each e_lambda is computed once, and the products u_k e_lambda are
    cleared to integers over one common denominator, so an eigenvalue is
    read as a sum of integers.  In symbolic-q mode separation is certified
    at the sampled rational q = q0^4: distinct values there imply distinct
    rational functions.
    """
    q, t = point.q0**4, point.t0**4
    parts = [lam.parts for m in range(point.level_max + 1) for lam in partitions(m)]
    e_values = [_e_value(lam, q, t) for lam in parts]
    _, nums = cleared([u * e for u in point.u for e in e_values])
    tables = [dict(zip(parts, nums[k:])) for k in range(0, len(nums), len(parts))]
    for n in range(1, point.level_max + 1):
        tuples = enumerate_tuples(point.n_weights, n)
        values = {sum(tab[lam.parts] for tab, lam in zip(tables, tup.components)) for tup in tuples}
        if len(values) < len(tuples):
            return False
    return True


# ---------------------------------------------------------------------------
# Truncated power series


class Series:
    """Dense truncated power series; ``order`` is the exclusive truncation."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var, order, coeffs=()):
        self.var = var
        self.order = order
        cs = list(coeffs)[:order]
        cs += [Fraction(0)] * (order - len(cs))
        self.coeffs = cs

    @classmethod
    def const(cls, var, order, c=1):
        return cls(var, order, [c])

    @classmethod
    def monomial(cls, var, order, deg, c=1):
        cs = [Fraction(0)] * order
        if deg < order:
            cs[deg] = c
        return cls(var, order, cs)

    def __getitem__(self, k):
        return self.coeffs[k]

    def _check(self, other):
        if self.var != other.var:
            raise ScalarError("series variable mismatch: %s vs %s" % (self.var, other.var))
        return min(self.order, other.order)

    def __add__(self, other):
        n = self._check(other)
        return Series(self.var, n, [self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other):
        n = self._check(other)
        return Series(self.var, n, [self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __mul__(self, other):
        n = self._check(other)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if not a:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return Series(self.var, n, out)

    def scale(self, c):
        return Series(self.var, self.order, [c * x for x in self.coeffs])

    def inverse(self):
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroDivisionError("series has no constant term")
        inv = [1 / c0] + [Fraction(0)] * (self.order - 1)
        for k in range(1, self.order):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * inv[k - j]
            inv[k] = -acc / c0
        return Series(self.var, self.order, inv)

    def exp(self):
        if self.coeffs[0] != 0:
            raise ScalarError("exp needs zero constant term")
        out = Series.const(self.var, self.order)
        term = Series.const(self.var, self.order)
        for k in range(1, self.order):
            term = term * self
            term = term.scale(Fraction(1, k))
            out = out + term
        return out

    def __eq__(self, other):
        n = self._check(other)
        return self.coeffs[:n] == other.coeffs[:n]

    def __repr__(self):
        return "Series(%r, %d, %r)" % (self.var, self.order, self.coeffs)
