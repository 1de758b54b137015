"""Tests of the benchmark's own logic, on cases that take seconds.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from child import calibration_kernel, import_program  # noqa: E402

import_program()

from dimfock import fock, kacdet, linalg, relations, scalars  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def inner():
        clock.now += 3

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1
        inner()
        clock.now += 1
        inner()

    tracer.wrap("outer", outer)()
    assert (tracer.spans["outer"].calls, tracer.spans["outer"].s) == (1, 8)
    assert tracer.spans["outer"].self_s == 2
    assert (tracer.spans["inner"].calls, tracer.spans["inner"].self_s) == (2, 6)


def test_note_time_is_not_self_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def note(span, args, result):
        clock.now += 100

    inner = tracer.wrap("inner", lambda: None, note)

    def outer():
        clock.now += 1
        inner()

    tracer.wrap("outer", outer)()
    assert tracer.spans["outer"].self_s == 1


def test_linop_spans_nest_through_after_and_commutator():
    mod = fock.BosonModule(scalars.make_point(3, 2, 3), 2, [Fraction(2), Fraction(3)], 2)
    fam = fock.GeneratorFamily(mod)
    a, b = fam.x_mode(1, -1), fam.x_mode(2, 1)
    with spans.Tracer() as tracer:
        a.after(b)(mod.vacuum())
        a.commutator(b)(mod.vacuum())
    span = tracer.spans["fock.linop_call"]
    assert span.calls == 3 + 5  # each composite call plus its inner calls
    assert 0 < span.self_s <= span.s


def test_rebinding_reaches_names_bound_by_from_imports():
    originals = (fock.pbw_gram, fock.bra_apply, linalg.determinant, fock.LinOp.__call__)
    with spans.Tracer() as tracer:
        assert kacdet.pbw_gram is fock.pbw_gram is relations.pbw_gram
        assert kacdet.pbw_gram is not originals[0]
        assert kacdet.bra_apply is not originals[1]
        det, formula = kacdet.kac_det_check(2, 2, scalars.make_point(3, 2, 3))
    assert det == formula
    got = tracer.metrics()
    assert got["fock.pbw_gram.calls"] == 1 and got["fock.pbw_gram.dim_max"] == 5
    assert got["linalg.determinant.calls"] == 1
    assert got["linalg.determinant.result_bits_max"] == spans.bits(det)
    assert got["fock.pbw_bra.calls"] == got["fock.pbw_state.calls"] == 5
    for name in ("fock.bra_apply", "fock.linop_call", "fock.mode_apply", "scalars.make_point"):
        assert got[name + ".calls"] > 0, name
    assert not tracer.missing
    restored = (kacdet.pbw_gram, kacdet.bra_apply, linalg.determinant, fock.LinOp.__call__)
    assert restored == originals


def test_repeat_share_counts_repeated_operator_inputs():
    op = fock.LinOp(lambda s: dict(s), "id")
    other = fock.LinOp(lambda s: dict(s), "id2")
    with spans.Tracer() as tracer:
        op({"a": Fraction(1)})
        op({"a": Fraction(1)})  # repeat
        op({"a": Fraction(2)})
        other({"a": Fraction(1)})  # same input, other operator
    assert tracer.metrics()["fock.linop_call.repeat_share"] == 0.25


def test_hot_span_without_calls_is_reported():
    metrics = spans.Tracer().metrics()
    assert run.missing_hot_spans("vertex-solve", metrics) == [
        "linalg.solve_unique",
        "fock.operator_matrix",
    ]
    metrics["linalg.solve_unique.calls"] = metrics["fock.operator_matrix.calls"] = 1
    assert run.missing_hot_spans("vertex-solve", metrics) == []


def test_paused_spans_drop_oracle_calls():
    op = fock.LinOp(lambda s: dict(s), "id")
    with spans.Tracer() as tracer:
        op({"a": Fraction(1)})
        with tracer.paused():
            op({"a": Fraction(2)})
        op({"a": Fraction(2)})
    got = tracer.metrics()
    assert got["fock.linop_call.calls"] == 2
    assert got["fock.linop_call.repeat_share"] == 0


def test_failed_and_crashed_cases_count_as_failed():
    cases = []
    watch = workloads.Stopwatch()
    workloads._timed_case(cases, "wrong", watch, lambda: 1, lambda r: r == 2)
    workloads._timed_case(cases, "crash", watch, lambda: 1 / 0, lambda r: True)
    workloads._timed_case(cases, "right", watch, lambda: 2, lambda r: r == 2)
    assert [c["ok"] for c in cases] == [False, False, True]
    assert cases[1]["error"].startswith("ZeroDivisionError")
    child = run.Child({"cases": cases}, 0.0)
    assert run.count_ops([child], "kac-grid") == (3, 2)


def test_killed_child_fails_all_its_operations(tmp_path):
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    start = time.time()
    child = run.run_child(["kac-grid", 0, 0], time.time() + 1, command=sleeper)
    assert time.time() - start < 10
    assert not child.ok and "killed" in child.error
    ops = len(workloads.KAC_CASES)
    assert run.count_ops([child], "kac-grid") == (ops, ops)


def test_symbolic_limit_matches_recorded_digest(tmp_path):
    watch = workloads.Stopwatch()
    cases = workloads.symbolic_limit(5, watch, str(tmp_path))
    assert [(c["name"], c["ok"]) for c in cases] == [
        ("hl-L3-%d" % i, True) for i in range(workloads.HL_POINTS)
    ]
    assert abs(watch.total - sum(c["s"] for c in cases)) < 1e-9


def test_pools_follow_the_seed():
    pool = workloads.load_inputs()["symbolic-limit"]
    order = workloads.pool_order(7, pool)
    assert order == workloads.pool_order(7, pool)
    assert sorted(order) == sorted(int(s) for s in pool)
    assert order != workloads.pool_order(8, pool)


def test_kac_pool_is_one_size_class():
    from record_inputs import KAC_BITS

    for seed in workloads.load_inputs()["kac-grid"][:3]:
        assert KAC_BITS[0] <= workloads.kac_size(seed) <= KAC_BITS[1]


def test_calibration_kernel_runs_no_program_code():
    with spans.Tracer() as tracer:
        seconds = calibration_kernel()
    assert seconds > 0
    assert not any(v for k, v in tracer.metrics().items() if k.endswith(".calls"))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "kac-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
