"""The memoized operator layer: column caches, pair memos and their lifetime."""

import gc
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimfock import fock, genmac, kacdet, relations, vertical
from dimfock.combinat import PartitionTuple
from dimfock.fock import (
    BosonModule,
    CrystalGenerators,
    CrystalVirasoro,
    GeneratorFamily,
    ModeFamily,
    VirasoroFamily,
    cleared_state,
    pbw_gram,
    state_combination,
    state_scale,
    sum_is_zero,
    vertex_mode,
)
from dimfock.relations import (
    check_crystal_virasoro_relations,
    check_crystal_x_relations,
    check_virasoro_relation,
    check_x_relations_n2,
)
from dimfock.scalars import RatFunc, cleared, make_point
from dimfock.vertical import dim_relation_check

ONE = Fraction(1)
MINUS_ONE = Fraction(-1)
STATE_LEVEL = 2  # input states live at levels 0..2
LEVEL_MAX = 4  # room for two modes of index -1 or one of index -2


@pytest.fixture(scope="module")
def families(point2, sym_point2):
    """One family per scalar field, shared by all examples so caches warm up."""
    return {
        kind: GeneratorFamily(BosonModule(pt, 2, pt.u[:2], LEVEL_MAX))
        for kind, pt in (("fraction", point2), ("symbolic-q", sym_point2))
    }


def state_add(a, b):
    """a + b, dropping the monomials that cancel."""
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def reference_mode(fam, gen, n, state):
    """Mode n of generator gen, term by term through VertexOperator.mode_apply."""
    mod, out = fam.module, {}
    for term in fam.mode_terms(gen, n):
        out = state_add(out, mod.read_out(*term.mode_apply(n, mod.indexed(state), mod)))
    return out


def by_monomial(mod, image):
    """A cleared image keyed by mod's monomial ids, keyed by the monomials."""
    d, acc = image
    return d, {mod.monomial(i): v for i, v in acc.items()}


def oracle_column(fam, gen, n, tup):
    """The column of mode n of generator gen on tup by the per-term path:
    each term's image read out to reduced scalars, all of them cleared once
    over one lcm, summed, stripped of zeros and reduced by the gcd g of the
    denominator and the integer numerators.  A RatFunc numerator of a
    symbolic-q point, which holds its own integer content, is divided by g
    in Q(s); the integer denominator left is then the lcm of the column's
    Fraction entries, whatever the terms' split."""
    mod = fam.module
    images = [
        mod.read_out(*term.mode_apply(n, {mod.index(tup): 1}, mod))
        for term in fam.mode_terms(gen, n)
    ]
    d, nums = cleared([v for img in images for v in img.values()])
    nums = iter(nums)
    acc = {}
    for img in images:
        for key, v in zip(img, nums):
            acc[key] = acc.get(key, 0) + v
    acc = {key: v for key, v in acc.items() if v}
    g = gcd(d, *(v for v in acc.values() if type(v) is int))
    return d // g, {key: v // g if type(v) is int else v / g for key, v in acc.items()}


CAP = 3  # oracle modules: states and images at levels 0..3


def every_family(pt):
    """(family, generators) for each family kind, on modules cut at CAP."""
    return [
        (GeneratorFamily(BosonModule(pt, 2, pt.u[:2], CAP)), (1, 2)),
        (GeneratorFamily(BosonModule(pt, 3, pt.u[:3], CAP)), (1, 2, 3)),
        (VirasoroFamily(BosonModule(pt, 1, pt.u[:1], CAP)), (1,)),
        (CrystalVirasoro(BosonModule(pt, 1, pt.u[:1], CAP, kind="crystal")), (1,)),
        (CrystalGenerators(BosonModule(pt, 2, pt.u[:2], CAP, kind="crystal")), (1, 2)),
    ]


@pytest.fixture(scope="module", params=["fraction", "symbolic-q"])
def point3_any(request):
    return make_point(101, 3, CAP, "q" if request.param == "symbolic-q" else "none")


def test_mode_columns_equal_the_per_term_oracle(point3_any):
    """Every family-mode column, summed from the terms' cleared images, is
    the oracle's exact (D, {monomial: n}), at every level up to CAP."""
    checked = nonzero = 0
    for fam, gens in every_family(point3_any):
        mod = fam.module
        for lev in range(CAP + 1):
            for tup in mod.basis(lev):
                for gen in gens:
                    for n in range(lev - CAP, lev + 1):
                        d, col = fam.x_mode(gen, n).column(mod.index(tup))
                        got = by_monomial(mod, (d, col))
                        assert got == oracle_column(fam, gen, n, tup), (fam, gen, n, tup)
                        checked += 1
                        nonzero += bool(col)
    assert checked == 764 and nonzero > checked // 2, (checked, nonzero)


def test_mode_apply_reads_out_to_the_naive_mode(point2, sym_point2):
    """The module's read-out of mode_apply equals relations.naive_mode_apply
    on states that mix levels and hold int, Fraction and RatFunc values."""
    for pt, odd in ((point2, Fraction(-3, 7)), (sym_point2, sym_point2.q)):
        mod = BosonModule(pt, 2, pt.u[:2], 4)
        fam = GeneratorFamily(mod)
        basis = [t for lev in range(3) for t in mod.basis(lev)]
        state = {basis[0]: 2, basis[1]: Fraction(5, 12), basis[2]: odd, basis[-1]: -1}
        assert pt is point2 or type(odd) is RatFunc
        for gen in (1, 2):
            for n in range(-2, 3):
                for term in fam.mode_terms(gen, n):
                    d, acc = term.mode_apply(n, mod.indexed(state), mod)
                    want = relations.naive_mode_apply(term, n, state, mod)
                    assert mod.read_out(d, acc) == want, (gen, n)


def same_state(image, state):
    """Whether the cleared image (D, {monomial: n}) stands for state, by
    cross-multiplication against the state's own clearing."""
    d, acc = image
    e, want = cleared_state(state)
    return {k for k, v in acc.items() if v} == set(want) and all(
        acc[k] * e == v * d for k, v in want.items()
    )


def assert_least_integer_column(op, key):
    """A column over Q: int numerators, none zero, over their least int D."""
    d, col = op.column(key)
    assert type(d) is int and all(type(v) is int and v for v in col.values())
    assert gcd(d, *col.values()) == 1


def combination(fam, terms, cancel):
    """sum c * e_tup over the drawn terms; `cancel` appends minus the first term."""
    basis = [t for lev in range(STATE_LEVEL + 1) for t in fam.module.basis(lev)]
    picked = [{basis[i % len(basis)]: c} for i, c in terms]
    if cancel and picked:
        picked.append(state_scale(picked[0], MINUS_ONE))
    state = {}
    for piece in picked:
        state = state_add(state, piece)
    return state


# coprime, small and large denominators: columns and states are summed over
# the lcm of all of them, one above 2^64
coefficients = st.sampled_from(
    [Fraction(x) for x in ("1", "-1", "2", "-1/2", "3/7", "-5/12", "7/1296")]
    + [Fraction(2**64 + 1, 3**43)]
)
terms = st.lists(st.tuples(st.integers(0, 20), coefficients), max_size=5)
gens = st.sampled_from([1, 2])


@settings(max_examples=60, deadline=None)
@example(kind="fraction", terms=[(3, ONE)], cancel=False, a=(1, -1), b=(2, 1), n=-1)  # {tup: 1}
@given(
    kind=st.sampled_from(["fraction", "symbolic-q"]),
    terms=terms,
    cancel=st.booleans(),
    a=st.tuples(gens, st.integers(-1, 1)),
    b=st.tuples(gens, st.integers(-1, 1)),
    n=st.integers(-2, 2),
)
def test_memoized_operators_match_term_by_term_modes(families, kind, terms, cancel, a, b, n):
    fam = families[kind]
    state = combination(fam, terms, cancel)
    op_a, op_b = fam.x_mode(*a), fam.x_mode(*b)

    def ref_a(s):
        return reference_mode(fam, a[0], a[1], s)

    def ref_b(s):
        return reference_mode(fam, b[0], b[1], s)

    mod = fam.module
    single = fam.x_mode(a[0], n)
    same = lambda key: key
    # (op, expected image, op's key of a monomial, monomial of an op's key):
    # a family mode works on monomial ids, a composite on the monomials
    cases = [
        (single, reference_mode(fam, a[0], n, state), mod.index, mod.monomial),
        (op_a.after(op_b), ref_a(ref_b(state)), same, same),
        (
            op_a.commutator(op_b),
            state_add(ref_a(ref_b(state)), state_scale(ref_b(ref_a(state)), MINUS_ONE)),
            same,
            same,
        ),
    ]
    basis = {t: t for lev in range(LEVEL_MAX + 1) for t in mod.basis(lev)}
    for op, want, key, monomial in cases:
        got = op(state)
        assert got == want
        assert all(got.values())
        # the cleared image is the same sum, before its read-out
        d, acc = op.image(*cleared_state({key(tup): c for tup, c in state.items()}))
        assert same_state((d, {monomial(k): v for k, v in acc.items()}), got)
        if kind == "fraction":
            assert all(type(v) is Fraction for v in got.values())
            for tup in state:
                assert_least_integer_column(op, key(tup))
        # outputs and column images are keyed by the module's basis objects
        images = [got] + [op({tup: ONE}) for tup in state]
        assert all(basis[key] is key for img in images for key in img)
        got[fam.module.empty_tuple()] = Fraction(12345)  # callers own the result
        got.clear()
        assert op(state) == want


class _Twice(ModeFamily):
    """Every mode is the sum of one vertex operator with itself."""

    def __init__(self, module, op):
        super().__init__(module)
        self.op = op

    def mode_terms(self, gen, n):
        return [self.op, self.op]


def test_mode_columns_are_reduced_to_their_least_denominator(families):
    """A sum of terms can share a factor with the lcm of their denominators:
    doubling a column with an even D must halve D, not the numerators' sum."""
    fam = families["fraction"]
    op = fam.x_terms(1)[0]
    twice = _Twice(fam.module, op)
    even = 0
    for n in (-1, 0, 1):
        single = vertex_mode(op, n, fam.module)
        for lev in range(STATE_LEVEL + 1):
            for tup in fam.module.basis(lev):
                i = fam.module.index(tup)
                d, col = single.column(i)
                even += d % 2 == 0
                doubled = {k: 2 * Fraction(v, d) for k, v in col.items()}
                assert same_state(twice.x_mode(1, n).column(i), doubled)
                assert_least_integer_column(twice.x_mode(1, n), i)
                assert_least_integer_column(single, i)
    assert even  # the reduction was exercised


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["fraction", "symbolic-q"]),
    picks=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 6), st.integers(0, 20), coefficients),
        min_size=1,
        max_size=4,
    ),
    cancel=st.sampled_from(["none", "first", "all"]),
)
def test_cleared_zero_test_matches_the_fraction_sum(families, kind, picks, cancel):
    """sum_is_zero over cleared images, and state_combination over states,
    agree with the Fraction sum of the read-out states, cancelling or not."""
    fam = families[kind]
    mod = fam.module
    ops = [fam.x_mode(gen, n) for gen in (1, 2) for n in (-1, 0, 1)]
    basis = [t for lev in range(STATE_LEVEL + 1) for t in mod.basis(lev)]
    terms = []  # (c, read-out state, cleared image keyed by monomial ids)
    for i, j, k, c in picks:
        # one operator (j past the list) or a product of two on {tup: 1}
        a, tup = ops[i], basis[k % len(basis)]
        if j < len(ops):
            image = a.image(*ops[j].image(1, {mod.index(tup): 1}))
            state = a(ops[j]({tup: ONE}))
        else:
            image, state = a.image(1, {mod.index(tup): 1}), a({tup: ONE})
        terms.append((c, state, image))
    if cancel == "first":
        terms.append((-terms[0][0], terms[0][1], terms[0][2]))
    elif cancel == "all":
        total = {}
        for c, state, _ in terms:
            total = state_add(total, state_scale(state, c))
        terms.append((MINUS_ONE, total, cleared_state(mod.indexed(total))))
    oracle = {}
    for c, state, _ in terms:
        oracle = state_add(oracle, state_scale(state, c))
    assert cancel != "all" or not oracle
    assert sum_is_zero([(c, image) for c, _, image in terms]) == (not oracle)
    assert (not state_combination([(c, state) for c, state, _ in terms])) == (not oracle)


def test_relation_check_clears_and_reads_out_once_per_column(monkeypatch):
    """The relation sums run over cleared images: clearings are bounded by
    the columns, not by the relations, and no column or sum is read out."""
    counts = {"cleared": 0, "quotient": 0}
    for name in counts:

        def counting(*args, _original=getattr(fock, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(fock, name, counting)
    assert check_x_relations_n2(2, make_point(7, 2, 7)) == []
    assert counts["cleared"] <= 1000 and counts["quotient"] == 0, counts


def test_monomial_ids_are_contiguous_per_level_and_per_module(point2):
    """index and monomial are inverse; each level takes contiguous ids in
    basis(level) order when first touched; two modules at one point, touched
    in different orders, keep separate tables with different ids."""
    first, second = (BosonModule(point2, 2, point2.u[:2], LEVEL_MAX) for _ in range(2))
    for lev in (2, 0, 3):
        first.offset(lev)
    for lev in range(4):  # seeded through index, from fresh equal objects
        second.index(PartitionTuple(list(second.basis(lev)[-1])))
    for mod in (first, second):
        ids = []
        for lev in range(4):
            basis, off = mod.basis(lev), mod.offset(lev)
            assert [mod.index(t) for t in basis] == list(range(off, off + len(basis)))
            assert all(mod.monomial(off + j) is t for j, t in enumerate(basis))
            ids += range(off, off + len(basis))
        assert sorted(ids) == list(range(len(ids)))
        assert all(mod.index(mod.monomial(i)) == i for i in ids)
    assert first._ids != second._ids
    assert (first.offset(0), first.offset(2)) == (5, 0)
    assert (second.offset(0), second.offset(2)) == (0, 3)


def test_family_and_operators_are_freed_without_gc(point2, monkeypatch):
    """Caches live as long as their family: no reference cycle keeps them."""
    made = []  # weakrefs to the check's family and to the operators it hands out

    class RecordingFamily(GeneratorFamily):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.extend([weakref.ref(x) for x in (self, self.module)])

        def x_mode(self, gen, n):
            op = super().x_mode(gen, n)
            made.append(weakref.ref(op))
            return op

    monkeypatch.setattr(relations, "GeneratorFamily", RecordingFamily)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fam = GeneratorFamily(BosonModule(point2, 2, point2.u[:2], LEVEL_MAX))
        a, b = fam.x_mode(1, -1), fam.x_mode(2, 1)
        st_in = a(fam.module.vacuum())
        a.after(b)(st_in)
        a.commutator(b)(st_in)
        assert pbw_gram(2, fam)[0]  # fills the family's memo of PBW word suffixes
        # the terms' contraction memos refer to the module, so it outlives
        # the family only if they do
        assert all(term._contracted for term in fam.mode_terms(1, -1))
        # and the module's monomial table dies with the module
        mine = [weakref.ref(x) for x in (fam, a, fam.module)]
        assert check_x_relations_n2(1, point2) == []
        assert len(made) > 3
        assert [r() for r in made] == [None] * len(made)
        del fam, a, b, st_in
        assert [r() for r in mine] == [None] * 3
    finally:
        if was_enabled:
            gc.enable()


def test_checks_build_no_second_module(point2, monkeypatch):
    """A check that holds an eigenbasis applies its family's modes, and a
    Whittaker series or the crystal PBW check builds one module in all.
    Counted are the modules at the check's point; symfunc's one-boson
    modules at a (q, t) namespace belong to its per-degree caches."""
    built = []
    original = BosonModule.__init__

    def counting(self, point, *args, **kwargs):
        if point is point2:
            built.append(self)
        original(self, point, *args, **kwargs)

    monkeypatch.setattr(BosonModule, "__init__", counting)

    def builds(check, *args, **kwargs):
        del built[:]
        check(*args, **kwargs)
        return len(built)

    with genmac.shared_bases():
        for n in range(4):
            genmac.gen_macdonald(n, point2, 2)
        assert builds(vertical.action_conjecture_check, 2, point2, 2) == 0
        assert builds(vertical.eigen_move_coefficients, +1, 2, point2, 2) == 0
        assert builds(vertical.eigen_move_coefficients, -1, 2, point2, 2) == 0
        assert builds(vertical.higher_hamiltonian_check, 3, 2, point2, 2) == 0
    u = [point2.fresh_rational(("cu", i)) for i in range(2)]
    assert builds(kacdet.whittaker_norm, 3, point2.fresh_rational("k"), point2) == 1
    assert builds(kacdet.crystal_whittaker_norm, 3, point2, direct=True) == 1
    assert builds(relations.check_crystal_pbw, 2, point2, u) == 1


def _perturbed_structure_series(original):
    def perturbed(point, kind, order):
        coeffs = original(point, kind, order)
        coeffs[1] = coeffs[1] + 1
        return coeffs

    return perturbed


class _DoubledX2(CrystalGenerators):
    """Crystal currents whose second generator has twice its zero-mode prefactor."""

    def __init__(self, module):
        super().__init__(module)
        self.x2 = self.x2.times(2)


class _DoubledLamPlus(CrystalVirasoro):
    """Scaled Virasoro modes whose negative half has twice its prefactor."""

    def __init__(self, module):
        super().__init__(module)
        self.lam_plus = self.lam_plus.times(2)


def _shifted_psi_plus(original):
    """psi_modes with 1 added to mode 1 of psi+."""

    def perturbed(sign, lam, point, u_weight, k_max):
        values = original(sign, lam, point, u_weight, k_max)
        if sign > 0 and k_max >= 1:
            values[1] += 1
        return values

    return perturbed


def test_relation_checks_catch_a_wrong_structure_constant(point2, monkeypatch):
    k = point2.fresh_rational("k")
    u = [point2.fresh_rational(("cu", i)) for i in range(2)]
    u_vert = point2.fresh_rational("vert-u")
    assert check_x_relations_n2(1, point2) == []
    assert check_virasoro_relation(1, point2, k) == []
    assert check_crystal_x_relations(1, point2, u) == []
    assert check_crystal_virasoro_relations(1, point2, k) == []
    assert dim_relation_check(1, point2, u_vert) == []
    monkeypatch.setattr(
        relations, "structure_series", _perturbed_structure_series(relations.structure_series)
    )
    monkeypatch.setattr(relations, "CrystalGenerators", _DoubledX2)
    monkeypatch.setattr(relations, "CrystalVirasoro", _DoubledLamPlus)
    monkeypatch.setattr(vertical, "psi_modes", _shifted_psi_plus(vertical.psi_modes))
    assert check_x_relations_n2(1, point2)
    assert check_virasoro_relation(1, point2, k)
    assert check_crystal_x_relations(1, point2, u)
    assert check_crystal_virasoro_relations(1, point2, k)
    assert dim_relation_check(1, point2, u_vert)
