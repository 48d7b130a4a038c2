"""Command-line front end: exit codes, formats, determinism."""

import hashlib
import json
import time

import pytest

from twistedops import cli
from twistedops.jordan import PrimitiveIdempotentError
from twistedops.report import validate_report_dict
from twistedops.ring import DegreeError, IrrationalRootError, Scalar


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_rank_one(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "full:1", "--suite", "all")
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.parametrize("selector", ["full:2", "spin:4"])
def test_verify_closure_alone_reports_one_check(capsys, selector):
    # closure forms the Fourier link it routes on, but reports only itself
    code, out, _ = run(capsys, "verify", "--algebra", selector, "--suite", "closure", "--format", "json")
    report = json.loads(out)
    assert code == 0 and not validate_report_dict(report)
    assert [(c["name"], c["status"]) for c in report["checks"]] == [("closure", "pass")]


def test_verify_critical_text(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sym:2", "--suite", "critical",
                       "--format", "text")
    assert code == 0
    assert "1/3, 2/3" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "full:1", "--suite",
                       "critical,delta", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert validate_report_dict(data) == []
    assert data["overall"] == "pass"


def test_verify_text_json_agree(capsys):
    code, out_json, _ = run(capsys, "verify", "--algebra", "spin:3", "--suite",
                            "brackets,critical", "--format", "json", "--seed", "0")
    data = json.loads(out_json)
    code2, out_text, _ = run(capsys, "verify", "--algebra", "spin:3", "--suite",
                             "brackets,critical", "--format", "text", "--seed", "0")
    assert code == code2 == 0
    for check in data["checks"]:
        assert f"{check['name']}" in out_text
        assert f" {check['status']} " in out_text


def test_verify_rank_limit(capsys):
    code, _, err = run(capsys, "verify", "--algebra", "sym:9999")
    assert code == 2
    assert "limit" in err


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--algebra", "full:1", "--suite", "bogus")
    assert code == 2


def test_verify_unknown_suite_after_all(capsys):
    code, out, err = run(capsys, "verify", "--algebra", "full:1", "--suite", "all,bogus")
    assert (code, out, err) == (2, "", "error: unknown suite 'bogus'\n")


def test_verify_failure_exit_code(capsys, monkeypatch, sym2):
    from test_jordan import corrupt_structure
    bad = corrupt_structure(sym2)
    monkeypatch.setattr(cli.jordan, "from_selector", lambda sel: bad)
    code, out, _ = run(capsys, "verify", "--algebra", "sym:2", "--suite", "jordan")
    assert code == 1
    assert "overall: fail" in out


def test_verify_module_sym4_forced(capsys):
    # at the top of the desk-scale range, the module certificate still runs
    code, out, _ = run(capsys, "verify", "--algebra", "sym:4", "--force", "--suite", "hmodule")
    assert code == 0
    assert "module-stability  pass" in out
    assert "overall: pass" in out


def test_verify_critical_sym4_within_limit(capsys):
    # rank 4 is desk scale: no --force, and the critical block stays quick
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--algebra", "sym:4", "--suite", "critical")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert "2/5, 3/5" in out


def test_critical_sym5_forced(capsys):
    # rank 5 is past the limit; the quadratic comes from first-order equations,
    # where forming the double commutator took about two minutes
    code, out, _ = run(capsys, "critical", "--algebra", "sym:5", "--force")
    assert (code, out) == (0, "5/12, 7/12\n")


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--algebra", "full:1", "--suite", "critical",
                       "--format", "json", "--output", str(target))
    assert code == 0
    data = json.loads(target.read_text(encoding="utf-8"))
    assert validate_report_dict(data) == []


def test_verify_deterministic(capsys):
    args = ("verify", "--algebra", "spin:3", "--suite", "jordan", "--format", "json",
            "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    strip = lambda d: [(c["name"], c["status"], c["witness"]) for c in d["checks"]]
    assert strip(d1) == strip(d2)


# ---------------------------------------------------------------------------
# critical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("selector,expected", [
    ("full:1", "1/4, 3/4"),
    ("spin:4", "3/8, 5/8"),
    ("sym:2", "1/3, 2/3"),
])
def test_critical_values_text(capsys, selector, expected):
    code, out, _ = run(capsys, "critical", "--algebra", selector)
    assert code == 0
    assert out.strip() == expected


def test_critical_json(capsys):
    code, out, _ = run(capsys, "critical", "--algebra", "spin:5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"algebra": "spin:5", "critical": ["2/5", "3/5"]}


@pytest.mark.parametrize("error", [DegreeError("quadratic has degree 1"),
                                   IrrationalRootError("no rational roots", Scalar(2)),
                                   PrimitiveIdempotentError("element is not idempotent")],
                         ids=["degree", "irrational", "idempotent"])
def test_critical_ring_error_exits_one(capsys, monkeypatch, error):
    # any exact-ring failure of the extraction is a failed check, not a traceback
    def fail(J):
        raise error

    monkeypatch.setattr(cli.verify, "critical_values", fail)
    code, out, err = run(capsys, "critical", "--algebra", "sym:2")
    assert (code, out, err) == (1, "", f"error: {error}\n")


# ---------------------------------------------------------------------------
# moyal
# ---------------------------------------------------------------------------

def test_moyal_pairing_table(capsys):
    code, out, _ = run(capsys, "moyal", "--max-degree", "4", "--check", "pairing")
    assert code == 0
    assert "p=3 q=3  Q = 3/4" in out


def test_moyal_json(capsys):
    code, out, _ = run(capsys, "moyal", "--max-degree", "3", "--check", "all",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert "pairing" in data and "components" in data
    assert all(r["matches_closed_form"] for r in data["pairing"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_moyal_pairing_mismatch_exits_1(capsys, monkeypatch, fmt):
    # one row off the closed form fails the table in either format
    bad_row = {"p": 1, "q": 1, "Q": "1", "matches_closed_form": False}
    monkeypatch.setattr(cli.moyal, "pairing_table", lambda max_degree: [bad_row])
    code, out, _ = run(capsys, "moyal", "--max-degree", "1", "--check", "pairing",
                       "--format", fmt)
    assert code == 1
    assert "all values match" not in out
    if fmt == "json":
        assert json.loads(out) == {"pairing": [bad_row]}
    else:
        assert "p=1 q=1  Q = 1" in out


def test_moyal_bad_table(capsys):
    code, _, err = run(capsys, "moyal", "--check", "bogus")
    assert code == 2


# sha256 of the degree-7 tables as the Fraction-weighted lab printed them
MOYAL_7_SHA256 = {
    "text": "1ed02d284508cc148499dea05c5a89d11915a68979539e37d75c40a0371120d9",
    "json": "8e50efb85a7ccff862e6bf299d50cf5e1b6c34be9749fd2dad6af9f54fec8cfc",
}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_moyal_degree_7_tables_are_pinned(capsys, fmt):
    code, out, _ = run(capsys, "moyal", "--max-degree", "7", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MOYAL_7_SHA256[fmt]


@pytest.mark.parametrize("degree", ["16384", "99999"])
def test_moyal_degree_past_the_packed_field_is_a_usage_error(capsys, degree):
    # 2 * N must stay below ring.EXPONENT_LIMIT = 2^15; rejected before any table is built
    code, out, err = run(capsys, "moyal", "--max-degree", degree)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_moyal_largest_packable_degree_is_accepted(capsys, monkeypatch):
    monkeypatch.setattr(cli.moyal, "pairing_table", lambda max_degree: [])
    monkeypatch.setattr(cli.moyal, "component_table", lambda max_degree: [])
    code, _, err = run(capsys, "moyal", "--max-degree", "16383", "--format", "json")
    assert code == 0 and err == ""


# ---------------------------------------------------------------------------
# show / algebras
# ---------------------------------------------------------------------------

def test_show_twisted_operator(capsys):
    code, out, _ = run(capsys, "show", "--algebra", "full:1", "--op", "p-:1")
    assert code == 0
    assert out.strip() == "(-1)*z1 * d1^2 + (-2)(L) * d1"


def test_show_specialized(capsys):
    code, out, _ = run(capsys, "show", "--algebra", "full:1", "--op", "p-:1",
                       "--lam", "1/4")
    assert code == 0
    assert out.strip() == "(-1)*z1 * d1^2 + (-1/2) * d1"


@pytest.mark.parametrize("command", ["show", "verify"])
@pytest.mark.parametrize("lam", ["1_0", "1e-3", "1.5", "1/0", ""])
def test_twist_is_read_as_a_plain_rational(capsys, command, lam):
    # --lam takes the forms the printer writes, signed integers and
    # fractions, and nothing Fraction() alone would also accept
    extra = ("--op", "p-:1") if command == "show" else ("--suite", "critical")
    code, out, err = run(capsys, command, "--algebra", "full:1", *extra, "--lam", lam)
    assert (code, out) == (2, "")
    assert err == f"error: bad twist value {lam!r}; expected a rational like 5/7\n"


def test_twist_accepts_a_signed_fraction(capsys):
    code, out, _ = run(capsys, "show", "--algebra", "full:1", "--op", "p-:1", "--lam", "5/7")
    assert (code, out.strip()) == (0, "(-1)*z1 * d1^2 + (-10/7) * d1")
    code, out, _ = run(capsys, "show", "--algebra", "full:1", "--op", "p-:1", "--lam=-1/2")
    assert (code, out.strip()) == (0, "(-1)*z1 * d1^2 + (1) * d1")


@pytest.mark.parametrize("argv", [
    ("show", "--algebra", "full:2", "--op", "p-:1"),
    ("verify", "--algebra", "full:1", "--suite", "closure,critical", "--format", "json"),
])
def test_negative_twist_as_a_separate_argument(capsys, argv):
    # "--lam -1/2" is the twist -1/2, exactly as "--lam=-1/2"
    def drop_times(text):
        if argv[0] == "show":
            return text
        report = json.loads(text)
        report["checks"] = [{k: v for k, v in c.items() if k != "elapsed_ms"} for c in report["checks"]]
        return report

    code, joined, _ = run(capsys, *argv, "--lam=-1/2")
    assert code == 0 and joined
    code, split, err = run(capsys, *argv, "--lam", "-1/2")
    assert (code, err) == (0, "")
    assert drop_times(split) == drop_times(joined)


@pytest.mark.parametrize("selector,lam0,lam0p", [("full:1", "1/4", "3/4"), ("full:2", "3/8", "5/8"),
                                                ("spin:4", "3/8", "5/8")])
def test_verify_rejects_the_lower_critical_twist(capsys, selector, lam0, lam0p):
    # the module is stable at l0, so module-stability's criticality witness
    # needs a generic twist; l0' and show --lam l0 are accepted
    code, out, err = run(capsys, "verify", "--algebra", selector, "--suite", "hmodule", "--lam", lam0)
    assert (code, out) == (2, "")
    assert err == f"error: --lam {lam0} is the lower critical twist l0 of {selector}; pass a generic twist\n"
    code, out, _ = run(capsys, "verify", "--algebra", selector, "--suite", "hmodule", "--lam", lam0p)
    assert code == 0 and "overall: pass" in out
    code, out, _ = run(capsys, "show", "--algebra", selector, "--op", "p-:1", "--lam", lam0)
    assert code == 0 and out


@pytest.mark.parametrize("command", ["show", "verify"])
@pytest.mark.parametrize("after", ["-x", "--force"])
def test_an_option_after_lam_is_no_twist(capsys, command, after):
    extra = ("--op", "p-:1") if command == "show" else ("--suite", "critical")
    code, out, err = run(capsys, command, "--algebra", "full:1", *extra, "--lam", after)
    assert (code, out) == (2, "")
    assert "argument --lam: expected one argument" in err


def test_show_eta(capsys):
    code, out, _ = run(capsys, "show", "--algebra", "full:1", "--op", "eta:p-:1")
    assert code == 0
    assert out.strip() == "(1)*u1^2 * d1 + (2)(L)*u1"


def test_show_idempotent(capsys):
    code, out, _ = run(capsys, "show", "--algebra", "spin:3", "--op", "idem")
    assert code == 0
    assert "d1" in out


def test_show_bad_selector(capsys):
    code, _, err = run(capsys, "show", "--algebra", "full:1", "--op", "q:1")
    assert code == 2


@pytest.mark.parametrize("sel, family", [
    ("p-:1", "pi_minus"), ("p+:1", "pi_plus"), ("eta:p-:1", "eta_minus"), ("eta:idem", "eta_minus"),
    ("eta:p+:1", "eta_plus"),
])
def test_show_builds_through_the_family_functions(capsys, monkeypatch, sel, family):
    # the layer trace replaces these module attributes; show must call them there
    calls = []
    for name in ("pi_plus", "pi_minus", "eta_plus", "eta_minus"):
        def spy(*args, _name=name, _fn=getattr(cli.rep, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(cli.rep, name, spy)
    code, out, _ = run(capsys, "show", "--algebra", "full:2", "--op", sel)
    assert code == 0 and out.strip()
    assert calls == [family]


def test_show_with_force(capsys):
    code, out, _ = run(capsys, "show", "--algebra", "spin:9", "--op", "p+:1", "--force")
    assert code == 0


def test_algebras_list(capsys):
    code, out, _ = run(capsys, "algebras", "list")
    assert code == 0
    for sel in ("sym:1", "full:3", "spin:6"):
        assert sel in out


@pytest.mark.parametrize("argv", [
    ("show", "--algebra", "full:1", "--op", "p-:1", "--format", "json"),
    ("algebras", "list", "--format", "json"),
    ("critical", "--algebra", "full:1", "--seed", "3"),
    ("moyal", "--seed", "3"),
    ("show", "--algebra", "full:1", "--op", "p-:1", "--seed", "3"),
    ("moyal", "--max-degree", "-1"),
    ("verify", "--algebra", "full:1", "--suite", "critical", "--parallel"),
], ids=["show-format", "algebras-format", "critical-seed", "moyal-seed", "show-seed",
        "moyal-negative-degree", "verify-parallel"])
def test_rejected_options(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_usage_error_missing_algebra(capsys):
    code = cli.main(["verify"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--algebra", "sym"),
    ("verify", "--algebra", "weird:2"),
    ("verify", "--algebra", "sym:9999"),
    ("verify", "--algebra", "sym:5"),
    ("critical", "--algebra", "spin:1"),
    ("critical", "--algebra", "sym:0_2"),
    ("critical", "--algebra", "sym: 2"),
    ("verify", "--algebra", "full:1", "--suite", "critical", "--lam", "x"),
    ("show", "--algebra", "full:1", "--op", "p-:1", "--lam", "1/0"),
    ("verify", "--algebra", "full:1", "--suite", "bogus"),
    ("moyal", "--max-degree", "-1"),
    ("moyal", "--check", "bogus"),
    ("show", "--algebra", "full:1", "--op", "q:1"),
    ("show", "--algebra", "full:1", "--op", "p+:2"),
    ("show", "--algebra", "full:2", "--op", "p+:0_1"),
    ("show", "--algebra", "full:2", "--op", "p-: 2"),
    ("algebras", "bogus"),
    ("critical", "--algebra", "full:1", "--output", "{tmp}/missing/out.txt"),
    ("critical", "--algebra", "full:1", "--output", "{tmp}"),
], ids=["selector-no-size", "selector-kind", "selector-limit", "selector-above-rank-4",
        "selector-too-small", "selector-underscore", "selector-space", "verify-twist", "show-twist",
        "verify-suite", "moyal-negative-degree", "moyal-table", "show-generator", "show-index-range",
        "show-index-underscore", "show-index-space", "algebras-action", "output-missing-dir",
        "output-is-dir"])
def test_usage_errors_exit_2_without_traceback(capsys, tmp_path, argv):
    # malformed input ends in one "error:" line and exit code 2, never a traceback
    code = cli.main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["{tmp}/missing/x.json", "{tmp}", ""], ids=["missing-dir", "is-dir", "empty"])
def test_unwritable_output_fails_before_the_suite_runs(capsys, tmp_path, monkeypatch, target):
    calls = []
    monkeypatch.setattr(cli.verify, "run_suite", lambda *a, **k: calls.append(a))
    code = cli.main(["verify", "--algebra", "full:3", "--output", target.replace("{tmp}", str(tmp_path))])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write --output")
    assert calls == []


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
@pytest.mark.parametrize("argv", [
    ("verify", "--algebra", "full:1", "--lam=x"),
    ("verify", "--algebra", "nope:1"),
    ("show", "--algebra", "full:2", "--op", "p-:9"),
    ("moyal", "--max-degree", "99999"),
], ids=["verify-twist", "verify-selector", "show-index", "moyal-degree"])
def test_a_usage_error_leaves_the_output_path_as_it_was(capsys, tmp_path, argv, existing):
    # the --output probe creates no file a failed command leaves behind,
    # and a file that was there keeps its contents
    target = tmp_path / "out.txt"
    if existing:
        target.write_text("kept\n", encoding="utf-8")
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert target.exists() == existing
    if existing:
        assert target.read_text(encoding="utf-8") == "kept\n"


def test_an_empty_suite_is_an_unknown_suite(capsys):
    assert run(capsys, "verify", "--algebra", "full:1", "--suite=") == (2, "", "error: unknown suite ''\n")
