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
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

from twistedops import cli, jordan, verify

GOLDEN = Path(__file__).parent / "data" / "golden_verdicts.json"
SELECTORS = ("full:2", "sym:2", "spin:4", "full:3", "spin:6")


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


def golden_json() -> str:
    return json.dumps(golden_verdicts(), indent=1) + "\n"


def test_verdicts_and_witnesses_match_golden_file():
    assert golden_json() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(golden_json())
