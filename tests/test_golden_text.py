"""The canonical operator text, pinned byte for byte.

``tests/data/golden_text.txt`` holds the ``show`` output of every
generator (``p+``, ``p-``, ``idem`` and their ``eta:`` fields) on full:1,
full:2, sym:2 and spin:4, and the double commutator [pi^y, [pi^y, w]] at
the canonical idempotent on full:2 and sym:2, whose coefficients carry
several powers of L.  Print the current text with
``python tests/test_golden_text.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

from twistedops import cli, jordan, rep
from twistedops.weyl import DiffOp, diffop_str

GOLDEN = Path(__file__).parent / "data" / "golden_text.txt"


def _show(selector: str, op: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["show", "--algebra", selector, "--op", op]) == 0
    return out.getvalue()


def golden_text() -> str:
    blocks = []
    for selector in ("full:1", "full:2", "sym:2", "spin:4"):
        J = jordan.from_selector(selector)
        gens = [f"p+:{i + 1}" for i in range(J.n)] + [f"p-:{i + 1}" for i in range(J.n)] + ["idem"]
        for op in gens + ["eta:" + g for g in gens]:
            blocks.append(f"# show --algebra {selector} --op {op}\n{_show(selector, op)}")
    for selector in ("full:2", "sym:2"):
        J = jordan.from_selector(selector)
        p = rep.pi_minus(J, J.idempotent_elem())
        D = p.commutator(p.commutator(DiffOp.mult_w(J)))
        blocks.append(f"# double commutator on {selector} at idem\n{diffop_str(D)}\n")
    return "".join(blocks)


def test_canonical_text_matches_golden_file():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(golden_text())
