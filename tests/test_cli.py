"""Command-line front end: exit codes, formats, determinism."""

import json

import pytest

from twistedops import cli
from twistedops.report import validate_report_dict


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


def test_verify_failure_exit_code(capsys, monkeypatch, sym2):
    from test_jordan import corrupt_structure
    bad = corrupt_structure(sym2)
    monkeypatch.setattr(cli.jordan, "from_selector", lambda sel: bad)
    code, out, _ = run(capsys, "verify", "--algebra", "sym:2", "--suite", "jordan")
    assert code == 1
    assert "overall: fail" in out


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--algebra", "full:1", "--suite", "critical",
                       "--format", "json", "--output", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert validate_report_dict(data) == []


def test_verify_deterministic(capsys):
    args = ("verify", "--algebra", "spin:3", "--suite", "jordan", "--format", "json",
            "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    strip = lambda d: [(c["name"], c["status"], c["witness"]) for c in d["checks"]]
    assert strip(d1) == strip(d2)


def test_verify_parallel_flag(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "full:1", "--suite",
                       "critical,delta,ft", "--parallel")
    assert code == 0
    assert "overall: pass" in out


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


def test_moyal_bad_table(capsys):
    code, _, err = run(capsys, "moyal", "--check", "bogus")
    assert code == 2


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


def test_show_with_force(capsys):
    code, out, _ = run(capsys, "show", "--algebra", "spin:7", "--op", "p+:1", "--force")
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
], ids=["show-format", "algebras-format", "critical-seed", "moyal-seed", "show-seed",
        "moyal-negative-degree"])
def test_rejected_options(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_usage_error_missing_algebra(capsys):
    code = cli.main(["verify"])
    capsys.readouterr()
    assert code == 2
