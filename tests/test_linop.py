"""The memoized operator layer: column caches, pair memos and their lifetime."""

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dimfock import relations
from dimfock.fock import BosonModule, GeneratorFamily, state_add, state_scale
from dimfock.relations import check_virasoro_relation, check_x_relations_n2
from dimfock.scalars import Series

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


coefficients = st.sampled_from([Fraction(x) for x in ("1", "-1", "2", "-1/2", "3/7")])
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
    for op, want in cases:
        got = op(state)
        assert got == want
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


def test_relation_checks_catch_a_wrong_structure_constant(point2, monkeypatch):
    k = point2.fresh_rational("k")
    assert check_x_relations_n2(1, point2) == []
    assert check_virasoro_relation(1, point2, k) == []
    monkeypatch.setattr(
        relations, "structure_series", _perturbed_structure_series(relations.structure_series)
    )
    assert check_x_relations_n2(1, point2)
    assert check_virasoro_relation(1, point2, k)
