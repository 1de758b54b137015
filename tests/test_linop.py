"""The memoized operator layer: column caches, pair memos and their lifetime."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimfock import relations, vertical
from dimfock.fock import (
    BosonModule,
    CrystalGenerators,
    CrystalVirasoro,
    GeneratorFamily,
    VertexOperator,
    pbw_gram,
    state_add,
    state_scale,
)
from dimfock.relations import (
    check_crystal_virasoro_relations,
    check_crystal_x_relations,
    check_virasoro_relation,
    check_x_relations_n2,
)
from dimfock.scalars import Series
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


def reference_mode(fam, gen, n, state):
    """Mode n of generator gen, term by term through VertexOperator.mode_apply."""
    out = {}
    for term in fam.mode_terms(gen, n):
        out = state_add(out, term.mode_apply(n, state, fam.module))
    return out


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

    single = fam.x_mode(a[0], n)
    cases = [
        (single, reference_mode(fam, a[0], n, state)),
        (op_a.after(op_b), ref_a(ref_b(state))),
        (
            op_a.commutator(op_b),
            state_add(ref_a(ref_b(state)), state_scale(ref_b(ref_a(state)), MINUS_ONE)),
        ),
    ]
    basis = {t: t for lev in range(LEVEL_MAX + 1) for t in fam.module.basis(lev)}
    for op, want in cases:
        got = op(state)
        assert got == want
        assert all(got.values())
        if kind == "fraction":
            assert all(type(v) is Fraction for v in got.values())
        # outputs and column images are keyed by the module's basis objects
        images = [got] + [op({tup: ONE}) for tup in state]
        assert all(basis[key] is key for img in images for key in img)
        got[fam.module.empty_tuple()] = Fraction(12345)  # callers own the result
        got.clear()
        assert op(state) == want


def test_family_and_operators_are_freed_without_gc(point2, monkeypatch):
    """Caches live as long as their family: no reference cycle keeps them."""
    made = []  # weakrefs to the check's family and to the operators it hands out

    class RecordingFamily(GeneratorFamily):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

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
        mine = [weakref.ref(fam), weakref.ref(a)]
        assert check_x_relations_n2(1, point2) == []
        assert len(made) > 1
        assert [r() for r in made] == [None] * len(made)
        del fam, a, b, st_in
        assert [r() for r in mine] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


def _perturbed_structure_series(original):
    def perturbed(point, kind, order):
        series = original(point, kind, order)
        coeffs = list(series.coeffs)
        coeffs[1] = coeffs[1] + 1
        return Series(series.var, series.order, coeffs)

    return perturbed


class _DoubledX2(CrystalGenerators):
    """Crystal currents whose second generator has twice its zero-mode prefactor."""

    def __init__(self, module):
        super().__init__(module)
        self.x2 = VertexOperator(self.x2.creation, self.x2.annihilation, 2 * self.x2.prefactor)


class _DoubledLamPlus(CrystalVirasoro):
    """Scaled Virasoro modes whose negative half has twice its prefactor."""

    def __init__(self, module, k_weight):
        super().__init__(module, k_weight)
        lam = self.lam_plus
        self.lam_plus = VertexOperator(lam.creation, lam.annihilation, 2 * lam.prefactor)


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
