"""Layer spans for the traced benchmark run, installed from outside src/.

A span wraps one public entry point of a layer.  Spans nest through a stack,
so each records its calls, its inclusive time and its self time (duration
minus the time its child spans cover).  Only per-name totals are kept in
memory; the child process reports them when the workload ends.

Functions are wrapped by rebinding every ``dimfock.*`` module attribute that
refers to the original object: ``from .fock import pbw_gram`` in kacdet binds
its own name, so patching ``dimfock.fock`` alone would miss those calls.
Methods are patched on their classes.  Per-call attributes (dimensions,
result bits, repeated operator inputs) are computed after the call; their
cost is excluded from every span's self time.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import importlib
import sys
import time

# span name -> (module, function) for module-level functions
FUNCTIONS = {
    "fock.bra_apply": ("dimfock.fock", "bra_apply"),
    "fock.pbw_gram": ("dimfock.fock", "pbw_gram"),
    "fock.pbw_bra": ("dimfock.fock", "pbw_bra"),
    "fock.pbw_state": ("dimfock.fock", "pbw_state"),
    "fock.operator_matrix": ("dimfock.fock", "operator_matrix"),
    "linalg.determinant": ("dimfock.linalg", "determinant"),
    "linalg.solve_unique": ("dimfock.linalg", "solve_unique"),
    "linalg.inverse": ("dimfock.linalg", "inverse"),
    "scalars.make_point": ("dimfock.scalars", "make_point"),
}

# span name -> (module, class, methods)
METHODS = {
    "fock.linop_call": ("dimfock.fock", "LinOp", ("__call__",)),
    "fock.mode_apply": ("dimfock.fock", "VertexOperator", ("mode_apply",)),
    "scalars.poly_gcd": ("dimfock.scalars", "Poly", ("gcd",)),
    "scalars.ratfunc_arith": (
        "dimfock.scalars",
        "RatFunc",
        ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__"),
    ),
    "genmac.basis_build": ("dimfock.genmac", "GenMacBasis", ("__init__",)),
}

# The per-layer metrics reported for each span, in order.  "s" is inclusive
# time and is reported only for spans that do not nest inside themselves.
REPORTED = {
    "fock.linop_call": ("calls", "self_s", "repeat_share"),
    "fock.mode_apply": ("calls", "self_s", "monomials_in"),
    "fock.bra_apply": ("calls", "self_s"),
    "fock.pbw_state": ("calls", "s"),
    "fock.pbw_bra": ("calls", "s"),
    "fock.pbw_gram": ("calls", "s", "dim_max"),
    "fock.operator_matrix": ("calls", "self_s"),
    "linalg.determinant": ("calls", "s", "dim_max", "result_bits_max"),
    "linalg.solve_unique": ("calls", "s", "rows_max", "cols_max", "density"),
    "linalg.inverse": ("calls", "s", "dim_max"),
    "scalars.poly_gcd": ("calls", "self_s"),
    "scalars.ratfunc_arith": ("calls", "self_s"),
    "scalars.make_point": ("calls", "s"),
    "genmac.basis_build": ("calls", "self_s", "dim_max"),
}


def bits(x):
    """Bit length of an exact rational's numerator plus denominator."""
    num = getattr(x, "numerator", None)
    if num is None:
        return 0
    return abs(num).bit_length() + x.denominator.bit_length()


class Span:
    __slots__ = ("calls", "s", "self_s", "attrs")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.attrs = {}

    def note_max(self, key, value):
        if value > self.attrs.get(key, 0):
            self.attrs[key] = value

    def note_sum(self, key, value):
        self.attrs[key] = self.attrs.get(key, 0) + value


class Tracer:
    """Per-name span totals of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {name: Span() for name in REPORTED}
        self.missing = []
        self._stack = []  # one [start, time covered by children] per open span
        self._restore = []
        # repeat_share: (operator, input state) pairs seen so far; the
        # operators are kept alive so that their ids stay unique
        self._seen = set()
        self._ops = {}

    def wrap(self, name, fn, note=None):
        """fn wrapped in span `name`; note(span, args, result) adds attributes."""
        span = self.spans.setdefault(name, Span())
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                dur = end - frame[0]
                span.calls += 1
                span.s += dur
                span.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if note is not None:
                note(span, args, result)
                if stack:
                    stack[-1][1] += clock() - end
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every entry point named in FUNCTIONS and METHODS."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "dimfock"]
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(_module(modname), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, self._note_for(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, (modname, clsname, methods) in METHODS.items():
            cls = getattr(_module(modname), clsname, None)
            if cls is None:
                self.missing.append(name)
                continue
            for meth in methods:
                original = cls.__dict__.get(meth)
                if original is None:
                    self.missing.append("%s.%s" % (name, meth))
                    continue
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, self._note_for(name)))
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    @contextlib.contextmanager
    def paused(self):
        """Discard what the spans record inside the block (oracle checks)."""
        saved = {name: copy.deepcopy(span) for name, span in self.spans.items()}
        seen = set(self._seen)
        try:
            yield
        finally:
            for name, span in saved.items():
                target = self.spans[name]
                target.calls, target.s, target.self_s = span.calls, span.s, span.self_s
                target.attrs = span.attrs
            self._seen = seen

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- per-call attributes --------------------------------------------------

    def _note_for(self, name):
        return {
            "fock.linop_call": self._note_linop,
            "fock.mode_apply": _note_mode_apply,
            "fock.pbw_gram": _note_pbw_gram,
            "linalg.determinant": _note_determinant,
            "linalg.solve_unique": _note_solve_unique,
            "linalg.inverse": _note_square,
            "genmac.basis_build": _note_basis_build,
        }.get(name)

    def _note_linop(self, span, args, result):
        op, state = args[0], args[1]
        try:
            key = (id(op), frozenset(state.items()))
        except (AttributeError, TypeError):
            return
        self._ops[id(op)] = op
        if key in self._seen:
            span.note_sum("repeats", 1)
        else:
            self._seen.add(key)

    # -- report -----------------------------------------------------------------

    def metrics(self):
        """Flat per-layer metrics, e.g. {"fock.pbw_gram.calls": 15, ...}."""
        out = {}
        for name, fields in REPORTED.items():
            span = self.spans[name]
            for field in fields:
                out["%s.%s" % (name, field)] = _field(span, field)
        return out


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _field(span, field):
    if field in ("calls", "s", "self_s"):
        return getattr(span, field)
    if field == "repeat_share":
        return span.attrs.get("repeats", 0) / span.calls if span.calls else 0.0
    if field == "density":
        cells = span.attrs.get("cells", 0)
        return span.attrs.get("nonzeros", 0) / cells if cells else 0.0
    return span.attrs.get(field, 0)


def _note_mode_apply(span, args, result):
    span.note_sum("monomials_in", len(args[2]))


def _note_pbw_gram(span, args, result):
    span.note_max("dim_max", len(result[1]))


def _note_square(span, args, result):
    span.note_max("dim_max", len(args[0]))


def _note_determinant(span, args, result):
    span.note_max("dim_max", len(args[0]))
    span.note_max("result_bits_max", bits(result))


def _note_solve_unique(span, args, result):
    a = args[0]
    span.note_max("rows_max", len(a))
    span.note_max("cols_max", len(a[0]))
    span.note_sum("cells", len(a) * len(a[0]))
    span.note_sum("nonzeros", sum(1 for row in a for x in row if x))


def _note_basis_build(span, args, result):
    span.note_max("dim_max", len(args[0].tuples))
