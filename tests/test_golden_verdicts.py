"""Verdicts and witnesses of the identity suite, pinned.

``tests/data/golden_verdicts.json`` holds, for full:2, sym:2, spin:4 and
the two benchmark algebras full:3 and spin:6, the check names, statuses
and witnesses of ``verify --suite all --format json`` (elapsed times
dropped), and the three negative controls the benchmark runs on the
algebra with m off by one (``check_critical``, ``check_h_module`` and
``check_lowest_weight`` on ``replace(J, m=J.m+1)``).
A kernel change that keeps every identity exact keeps this file byte for
byte.  Print the current verdicts with
``python tests/test_golden_verdicts.py``.

``tests/data/golden_corrupted.json`` holds the same for
``run_suite(J, "all")`` on structure-corrupted copies of sym:2 (with a
commutative and with a non-commutative defect) and spin:2: every check
fails there, so it pins every failure witness of the suite.  Print it
with ``python tests/test_golden_verdicts.py corrupted``.
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

from twistedops import cli, jordan, verify

from test_jordan import corrupt_structure

GOLDEN = Path(__file__).parent / "data" / "golden_verdicts.json"
GOLDEN_CORRUPTED = Path(__file__).parent / "data" / "golden_corrupted.json"
SELECTORS = ("full:2", "sym:2", "spin:4", "full:3", "spin:6")
CORRUPTED = (("sym:2", True), ("sym:2", False), ("spin:2", True))


def _untimed(checks) -> list[dict]:
    return [{"name": c["name"], "status": c["status"], "witness": c["witness"]} for c in checks]


def golden_verdicts() -> dict:
    out = {}
    for selector in SELECTORS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["verify", "--algebra", selector, "--suite", "all", "--format", "json"])
        report = json.loads(buf.getvalue())
        J = jordan.from_selector(selector)
        skew = dataclasses.replace(J, m=J.m + 1)
        controls = [verify.check_critical(skew), verify.check_h_module(skew),
                    verify.check_lowest_weight(skew)]
        out[selector] = {
            "suite": _untimed(report["checks"]),
            "overall": report["overall"],
            "controls": _untimed(dataclasses.asdict(c) for c in controls),
        }
    return out


def corrupted_verdicts() -> dict:
    out = {}
    for selector, commutative in CORRUPTED:
        bad = corrupt_structure(jordan.from_selector(selector), commutative=commutative)
        report = verify.run_suite(bad, "all")
        key = f"{selector} {'commutative' if commutative else 'non-commutative'}"
        out[key] = {"suite": _untimed(dataclasses.asdict(c) for c in report.checks),
                    "overall": report.overall}
    return out


def golden_json(verdicts=golden_verdicts) -> str:
    return json.dumps(verdicts(), indent=1) + "\n"


def test_verdicts_and_witnesses_match_golden_file():
    assert golden_json() == GOLDEN.read_text(encoding="utf-8")


def test_failure_witnesses_on_corrupted_algebras_match_golden_file():
    assert golden_json(corrupted_verdicts) == GOLDEN_CORRUPTED.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(golden_json(corrupted_verdicts if sys.argv[1:] == ["corrupted"] else golden_verdicts))
