"""Known answers the benchmark checks every verdict against.

Nothing here calls into ``twistedops``: each reference is computed from
the mathematics directly, over plain ``int`` and ``Fraction`` values, so
a defect in the program cannot also hide in its own reference.

* The algebra dimensions n and rank r come from the selector alone, and
  the critical twists are 1/2 -+ 1/(4m) with m = n/r.
* The generated symmetry block has dimension r^2 (sym:r), 2r^2 - 1
  (full:r) or 1 + p(p-1)/2 (spin:p).
* The pairing Q(xi^p, zeta^q) is 2^-p p! on the diagonal and 0 off it.
* The graded components of the circle product follow the bidifferential
  formula of Groenewold and Moyal,
  C_p = 1/(2^p p!) sum_k (-1)^k C(p,k) (d_xi^{p-k} d_zeta^k phi)(d_zeta^{p-k} d_xi^k psi).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial

Poly = dict  # {(zeta exponent, xi exponent): Fraction}


# ---------------------------------------------------------------------------
# Algebra data
# ---------------------------------------------------------------------------

def dimensions(selector: str) -> tuple[int, int]:
    """(n, r) of a built-in algebra selector such as ``spin:6``."""
    kind, _, size = selector.partition(":")
    s = int(size)
    if kind == "sym":
        return s * (s + 1) // 2, s
    if kind == "full":
        return s * s, s
    if kind == "spin":
        return s, 2
    raise ValueError(f"unknown algebra kind in {selector!r}")


def critical_twists(selector: str) -> tuple[Fraction, Fraction]:
    n, r = dimensions(selector)
    shift = Fraction(r, 4 * n)  # 1/(4m), m = n/r
    return Fraction(1, 2) - shift, Fraction(1, 2) + shift


def symmetry_dimension(selector: str) -> int:
    kind, _, size = selector.partition(":")
    s = int(size)
    return {"sym": s * s, "full": 2 * s * s - 1, "spin": 1 + s * (s - 1) // 2}[kind]


# ---------------------------------------------------------------------------
# One-variable quantization lab
# ---------------------------------------------------------------------------

def pairing_value(p: int, q: int) -> Fraction:
    return Fraction(factorial(p), 2 ** p) if p == q else Fraction(0)


def _falling(e: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= e - t
    return out


def _partial(f: Poly, d_zeta: int, d_xi: int) -> Poly:
    out = {}
    for (a, b), c in f.items():
        if a >= d_zeta and b >= d_xi:
            out[(a - d_zeta, b - d_xi)] = c * _falling(a, d_zeta) * _falling(b, d_xi)
    return out


def moyal_component(phi: Poly, psi: Poly, p: int) -> Poly:
    """C_p(phi, psi) by the bidifferential formula."""
    total: Poly = {}
    for k in range(p + 1):
        weight = (-1) ** k * comb(p, k)
        left = _partial(phi, k, p - k)
        right = _partial(psi, p - k, k)
        for (a1, b1), c1 in left.items():
            for (a2, b2), c2 in right.items():
                key = (a1 + a2, b1 + b2)
                total[key] = total.get(key, 0) + weight * c1 * c2
    scale = Fraction(1, 2 ** p * factorial(p))
    return {key: c * scale for key, c in total.items() if c}


_TERM = re.compile(r"\((?P<coef>[^()]*)\)(?:\*(?P<mono>.+))?")


def parse_poly(text: str) -> Poly:
    """Read the lab's text form, e.g. ``(1/2)*zeta^2*xi + (-1)``.

    Raises ValueError on anything that is not a sum of rational terms,
    so a non-real or malformed coefficient counts as a wrong value.
    """
    if text == "0":
        return {}
    out: Poly = {}
    for term in text.split(" + "):
        m = _TERM.fullmatch(term)
        if m is None:
            raise ValueError(f"bad term {term!r}")
        a = b = 0
        for factor in m["mono"].split("*") if m["mono"] else ():
            base, _, exp = factor.partition("^")
            e = int(exp) if exp else 1
            if base == "zeta":
                a += e
            elif base == "xi":
                b += e
            else:
                raise ValueError(f"bad factor {factor!r}")
        if (a, b) in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[(a, b)] = Fraction(m["coef"])
    return out


def monomials(max_degree: int) -> list[tuple[int, int]]:
    return [(a, d - a) for d in range(max_degree + 1) for a in range(d + 1)]


# ---------------------------------------------------------------------------
# Judging: each function returns (verdicts attempted, list of wrong ones)
# ---------------------------------------------------------------------------

def judge_pairing(rows: list[dict], max_degree: int) -> tuple[int, list[str]]:
    wrong = []
    seen = set()
    for row in rows:
        p, q = row["p"], row["q"]
        seen.add((p, q))
        try:
            value = Fraction(row["Q"])
        except ValueError:
            value = None
        if value != pairing_value(p, q) or row["matches_closed_form"] is not True:
            wrong.append(f"pairing p={p} q={q}: {row['Q']}")
    expected = {(p, q) for p in range(max_degree + 1) for q in range(max_degree + 1)}
    wrong += [f"pairing p={p} q={q}: missing" for p, q in sorted(expected - seen)]
    return len(rows) + len(expected - seen), wrong


def judge_components(rows: list[dict], max_degree: int) -> tuple[int, list[str]]:
    wrong = []
    seen = set()
    for row in rows:
        label = f"{row['phi']} o {row['psi']}"
        try:
            phi, psi = parse_poly(row["phi"]), parse_poly(row["psi"])
            (phi_mono,), (psi_mono,) = phi, psi
            got = {int(p): parse_poly(text) for p, text in row["components"].items()}
        except ValueError as exc:
            wrong.append(f"components {label}: unreadable ({exc})")
            continue
        if phi[phi_mono] != 1 or psi[psi_mono] != 1:
            wrong.append(f"components {label}: inputs are not unit monomials")
            continue
        seen.add((phi_mono, psi_mono))
        top = min(sum(phi_mono), sum(psi_mono))
        want = {p: c for p in range(top + 1) if (c := moyal_component(phi, psi, p))}
        if got != want:
            wrong.append(f"components {label}: differ from the bidifferential formula")
    monos = monomials(max_degree)
    missing = {(a, b) for a in monos for b in monos} - seen
    wrong += [f"components {a} o {b}: missing" for a, b in sorted(missing)]
    return len(rows) + len(missing), wrong


def judge_report(selector: str, checks, required: tuple[str, ...]) -> tuple[int, list[str]]:
    """Every check must pass; critical values and the closure dimension
    must also equal their closed forms, and every required check must run."""
    lo, hi = critical_twists(selector)
    wrong = []
    names = set()
    for c in checks:
        names.add(c.name)
        ok = c.status == "pass"
        if ok and c.name == "critical-values":
            try:
                ok = tuple(Fraction(x) for x in c.witness.split(", ")) == (lo, hi)
            except (ValueError, AttributeError):
                ok = False
        if ok and c.name == "closure":
            ok = c.witness == f"dimension {symmetry_dimension(selector)}"
        if not ok:
            wrong.append(f"{c.name}: {c.status} ({c.witness})")
    missing = [name for name in required if name not in names]
    wrong += [f"{name}: did not run" for name in missing]
    return len(checks) + len(missing), wrong


def judge_controls(controls) -> tuple[int, list[str]]:
    """Negative controls must fail, each with a non-empty witness."""
    wrong = [f"control {c.name}: {c.status}" for c in controls
             if c.status != "fail" or not c.witness]
    return len(controls), wrong
