"""The canonical operator text, pinned byte for byte.

``tests/data/golden_text.txt`` holds the ``show`` output of every
generator (``p+``, ``p-``, ``idem`` and their ``eta:`` fields) on full:1,
full:2, sym:2 and spin:4, and the double commutator [pi^y, [pi^y, w]] at
the canonical idempotent on full:2 and sym:2, whose coefficients carry
several powers of L.  It also pins the quantization lab: the text output
of ``moyal --max-degree 3``, ``repr(symmetrize(m))`` for every monomial
m = zeta^a xi^b with a + b <= 3, and ``str(dequantize(w^a d^b))`` for
a + b <= 3.  Print the current text with
``python tests/test_golden_text.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

from twistedops import cli, jordan, moyal, rep
from twistedops.ring import ONE
from twistedops.weyl import DiffOp, diffop_str

GOLDEN = Path(__file__).parent / "data" / "golden_text.txt"


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def golden_text() -> str:
    blocks = []
    for selector in ("full:1", "full:2", "sym:2", "spin:4"):
        J = jordan.from_selector(selector)
        gens = [f"p+:{i + 1}" for i in range(J.n)] + [f"p-:{i + 1}" for i in range(J.n)] + ["idem"]
        for op in gens + ["eta:" + g for g in gens]:
            blocks.append(f"# show --algebra {selector} --op {op}\n{_cli('show', '--algebra', selector, '--op', op)}")
    for selector in ("full:2", "sym:2"):
        J = jordan.from_selector(selector)
        p = rep.pi_minus(J, J.idempotent_elem())
        D = p.commutator(p.commutator(DiffOp.mult_w(J)))
        blocks.append(f"# double commutator on {selector} at idem\n{diffop_str(D)}\n")
    blocks.append(f"# moyal --max-degree 3\n{_cli('moyal', '--max-degree', '3')}")
    pairs = [(a, d - a) for d in range(4) for a in range(d + 1)]
    blocks.append("# symmetrize(zeta^a xi^b)\n")
    for a, b in pairs:
        blocks.append(f"{a} {b} {moyal.symmetrize(moyal.PolyZX.monomial(a, b))!r}\n")
    blocks.append("# dequantize(w^a d^b)\n")
    for a, b in pairs:
        blocks.append(f"{a} {b} {moyal.dequantize(moyal.WOp({(a, b): ONE}))}\n")
    return "".join(blocks)


def test_canonical_text_matches_golden_file():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(golden_text())
