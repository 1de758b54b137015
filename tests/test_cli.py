import hashlib
import json
import subprocess
import sys

import pytest

from dimfock import checks, genmac
from dimfock.cli import main
from dimfock.fock import BosonModule, GeneratorFamily
from dimfock.report import CheckReport, timed
from dimfock.scalars import make_point


def run_cli(args):
    return main(args)


def test_usage_errors():
    assert run_cli([]) == 2
    assert run_cli(["--suite", "symfunc", "--level", "99"]) == 2
    assert run_cli(["--suite", "symfunc", "--points", "1", "--level", "-1"]) == 2
    assert run_cli(["--suite", "symfunc", "--points", "1", "--level", "0"]) == 2
    assert run_cli(["--suite", "symfunc", "--points", "0"]) == 2
    assert run_cli(["--suite", "kacdet", "--points", "0"]) == 2
    assert run_cli(["--suite", "genmac", "--N", "0", "--points", "1", "--level", "1"]) == 2
    assert run_cli(["--suite", "genmac", "--N", "-1", "--points", "1", "--level", "1"]) == 2
    assert run_cli(["--suite", "symfunc", "--level", "1", "--points", "1", "--symbolic", "q"]) == 2
    assert run_cli(["--help"]) == 0


def test_timed_records_exception_as_fail():
    report = CheckReport("t")
    with timed(report, "boom", "anchor"):
        raise ValueError("bad input")
    (entry,) = report.entries
    assert entry.status == "fail" and "ValueError" in entry.details


def test_timed_lets_keyboard_interrupt_through():
    report = CheckReport("t")
    with pytest.raises(KeyboardInterrupt):
        with timed(report, "stop", "anchor"):
            raise KeyboardInterrupt
    assert report.entries == []


def test_whittaker_at_lattice_seed(capsys):
    # the first k drawn at seed 102 gives Q = k^2 = 1/t, a pole of the instanton sum
    args = ["--suite", "agt-generic", "--points", "1", "--level", "2", "--seed", "102"]
    assert run_cli(args) == 0
    capsys.readouterr()


def test_agt_generic_suite_at_level5(capsys):
    # the suite's cap is 5, so whittaker-vs-instanton runs to order 5
    assert run_cli(["--suite", "agt-generic", "--level", "5", "--points", "1"]) == 0
    capsys.readouterr()


def test_suite_report_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run_cli(
        ["--suite", "genmac", "--level", "1", "--points", "1", "--seed", "11", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["all_passed"] is True
    assert all(c["status"] == "pass" for c in payload["checks"])
    capsys.readouterr()


def test_report_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli(
            ["--suite", "symfunc", "--level", "3", "--points", "1", "--seed", "5", "--out", str(path)]
        ) == 0
    capsys.readouterr()
    ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
    for payload in (ja, jb):
        for check in payload["checks"]:
            check.pop("seconds")
    assert ja == jb


def test_dump_fixture(tmp_path, capsys):
    out = tmp_path / "fix.json"
    rc = run_cli(["--dump", "genmac-transition", "--level", "1", "--seed", "7", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["object"] == "genmac-transition"
    assert payload["matrix"][0][0] == "1"
    rc = run_cli(["--dump", "gen-jack", "--level", "1", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()


def test_entry_point_subprocess(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "dimfock.cli", "--suite", "symfunc", "--level", "2", "--points", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0
    assert "PASS" in res.stdout


def test_failing_check_names_its_witness(tmp_path, monkeypatch, capsys):
    witness = ("lam", "x" * 300)
    monkeypatch.setattr(checks, "grouped_factorization", lambda pt: [witness, ("second",)])
    out = tmp_path / "report.json"
    args = ["--suite", "agt-crystal", "--points", "1", "--level", "1", "--out", str(out)]
    assert run_cli(args) == 1
    details = {c["id"]: (c["status"], c["details"]) for c in json.loads(out.read_text())["checks"]}
    assert details.pop("grouped-factorization") == ("fail", repr(witness)[:200])
    assert set(details.values()) == {("pass", "")}
    assert "grouped-factorization" in capsys.readouterr().out


def test_report_body_pinned(tmp_path, capsys):
    # check order, ids, anchors, statuses, details and points of every suite
    out = tmp_path / "report.json"
    args = ["--suite", "all", "--points", "1", "--level", "1", "--seed", "7", "--out", str(out)]
    assert run_cli(args) == 0
    capsys.readouterr()
    body = json.loads(out.read_text())
    for check in body["checks"]:
        check.pop("seconds")
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == "6b24919e40625606984224db298d66c49d642f8a2f14829ad328920e9d2021c8"


LEVEL2_RUN = ["--suite", "all", "--points", "1", "--level", "2", "--seed", "7"]


def test_report_body_pinned_at_level2(tmp_path, capsys):
    # the benchmark's size; recorded before the suite run shared its eigenbases
    out = tmp_path / "report.json"
    assert run_cli(LEVEL2_RUN + ["--out", str(out)]) == 0
    capsys.readouterr()
    body = json.loads(out.read_text())
    for check in body["checks"]:
        check.pop("seconds")
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == "342034a87af8792faa616b36c7a3cd1b9a44174c026ffad86577a1b29da02c97"


def _recording_builds(monkeypatch):
    """Every GenMacBasis built from now on, in build order."""
    built = []
    init = genmac.GenMacBasis.__init__

    def recording(self, level, family):
        init(self, level, family)
        built.append(self)

    monkeypatch.setattr(genmac.GenMacBasis, "__init__", recording)
    return built


def _value_key(basis):
    module = basis.module
    pt = module.point
    return (basis.level, module.n_bosons, pt.q0, pt.t0, pt.symbolic_slot,
            tuple(module.weights), basis.family.crystal_normalized)


def test_suite_run_builds_each_basis_once(monkeypatch, capsys):
    built = _recording_builds(monkeypatch)
    assert run_cli(LEVEL2_RUN) == 0
    keys = [_value_key(b) for b in built]
    assert len(set(keys)) == len(keys) <= 32  # 95 builds of 32 bases without the memo
    # the next run builds its bases again
    first = len(built)
    assert run_cli(LEVEL2_RUN) == 0
    assert [_value_key(b) for b in built[first:]] == keys
    capsys.readouterr()
    assert genmac._shared is None


def test_suite_run_builds_integral_forms_once_per_basis(monkeypatch, capsys):
    built = []
    init = genmac.IntegralForms.__init__

    def recording(self, basis):
        init(self, basis)
        built.append(basis)

    monkeypatch.setattr(genmac.IntegralForms, "__init__", recording)
    assert run_cli(LEVEL2_RUN) == 0
    capsys.readouterr()
    assert len({id(b) for b in built}) == len(built) <= 16  # 31 builds without the cache


def test_genmac_suite_at_four_bosons(capsys):
    # jack-tables takes a fourth weight whose eigenvalues separate
    assert run_cli(["--suite", "genmac", "--N", "4", "--level", "2", "--points", "1"]) == 0
    capsys.readouterr()


def test_shared_bases_are_read_only(monkeypatch, capsys):
    # a check that modified a shared basis would hand the next check a wrong one
    built = _recording_builds(monkeypatch)
    assert run_cli(LEVEL2_RUN) == 0
    capsys.readouterr()
    monkeypatch.undo()
    for basis in built:
        m = basis.module
        module = BosonModule(m.point, m.n_bosons, m.weights, m.level_max, kind=m.kind)
        fresh = genmac.GenMacBasis(
            basis.level, GeneratorFamily(module, crystal_normalized=basis.family.crystal_normalized)
        )
        assert basis.coeff == fresh.coeff, _value_key(basis)
        assert basis.dual_coeff == fresh.dual_coeff, _value_key(basis)
        if m.point.is_symbolic_q:
            continue  # a crystal-limit basis keeps no state matrix
        assert basis.state_matrix() == fresh.state_matrix(), _value_key(basis)
        assert basis.state_matrix_inverse() == fresh.state_matrix_inverse(), _value_key(basis)
        if basis._forms is not None:
            forms, fresh_forms = genmac.integral_forms(basis), genmac.integral_forms(fresh)
            for name in ("alpha", "k_norm", "k_norm_dual", "m_tilde_norm"):
                assert getattr(forms, name) == getattr(fresh_forms, name), (name, _value_key(basis))


def test_interrupted_run_drops_its_bases(monkeypatch, capsys):
    held = []

    def interrupt(level, n_comp):
        held.append(len(genmac._shared))
        raise KeyboardInterrupt

    monkeypatch.setattr(checks, "jack_tables", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_cli(["--suite", "genmac", "--points", "1", "--level", "1"])
    capsys.readouterr()
    assert held and held[0] > 0  # the earlier checks' bases were shared
    assert genmac._shared is None
    pt = make_point(7, 2, 2)
    assert genmac.gen_macdonald(1, pt) is not genmac.gen_macdonald(1, pt)
