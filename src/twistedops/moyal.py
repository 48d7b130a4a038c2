"""One-variable Weyl quantization lab: symmetrization, circle product,
supertrace and the graded pairing.

Functions live in C[zeta, xi] (:class:`PolyZX`), operators in the Weyl
algebra C[w, d/dw] (:class:`WOp`, normal-ordered symbols w^a d^b).  Both
are :class:`~twistedops.ring.ZPoly` values in two variables in which L
never occurs, so they share its exact arithmetic; only ``WOp.__mul__``
differs, composing normal-ordered symbols by
f . g = sum_k (1/k!) (d_d^k f)(d_w^k g).

The quantization map is full symmetrization: zeta^a xi^b goes to the
average of all interleavings of a copies of w and b copies of d/dw,
which in normal order is

    sum_k (1/2)^k k! C(a,k) C(b,k) w^(a-k) d^(b-k),

that is exp(1/2 d_zeta d_xi) read in normal order; its inverse is
exp(-1/2 d_zeta d_xi).  The transported (circle) product

    phi o psi = dequantize( symmetrize(phi) . symmetrize(psi) )

is the Moyal product (Groenewold 1946, Moyal 1949), whose graded pieces
:func:`c_component` computes by the bidifferential formula.  The
supertrace is projection to the constant term; the pairing is the
supertrace of the circle product.  Euler degrees are half the polynomial
degrees (zeta and xi both carry 1/2).

Composition, reordering and C_p run term by term on the packed keys,
adding c * n / den into one dict with exact integers n, den: k! C(b1,k)
C(a2,k) for composition, (+-1)^k k! C(a,k) C(b,k) / 2^k for reordering.
C_p of two monomials is one monomial with an integer weight over 2^p p!,
which :func:`component_table` writes directly, once per unordered pair.
Only :func:`dequantize` takes a WOp; every other entry point takes PolyZX
values and raises TypeError on anything else.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm
from typing import Mapping

from .ring import (
    FIELD, FIELD_MASK, NEG_INF, NotHomogeneousError, ONE, Scalar, ZERO, ZPoly,
    _guards, _overflow, _reduced, _zpoly, scalar_str,
)

# fields of a packed key [a + b | a | b | 0] (see ring.pack): zeta or w to the a, xi or d to the b
_A, _TOP = 2 * FIELD, 3 * FIELD
_STEP = (1 << _A) + (1 << FIELD) + (2 << _TOP)  # one more zeta and xi: both fields and the total
_GUARDS = _guards(2)


def _ab(key: int) -> tuple[int, int]:
    """The exponents (a, b) of a packed two-variable key."""
    return (key >> _A) & FIELD_MASK, (key >> FIELD) & FIELD_MASK


def _degree(f: "_ZX") -> int:
    """The polynomial degree of a homogeneous f; -1 for zero."""
    degs = {key >> _TOP for key in f.packed}
    if len(degs) > 1:
        raise NotHomogeneousError(f"polynomial degrees {sorted(degs)} mix")
    return degs.pop() if degs else -1


def _weights(a: int, b: int):
    """k! C(a, k) C(b, k) for k = 0 .. min(a, b), each from the one before."""
    n = 1
    for k in range(min(a, b) + 1):
        yield n
        n = n * (a - k) * (b - k) // (k + 1)


def _add(acc: dict, mono: int, c: Scalar, n: int, den: int) -> None:
    """acc[mono] += c * n / den for ints n != 0 and den > 0; a sum that cancels leaves."""
    v = _reduced(c.a * n, c.b * n, c.d * den)
    old = acc.get(mono)
    if old is not None:
        v = old + v
        if not (v.a or v.b):
            del acc[mono]
            return
    acc[mono] = v


def _require(cls: type, *values) -> None:
    for v in values:
        if not isinstance(v, cls):
            raise TypeError(f"expected {cls.__name__}, got {type(v).__name__}")


class _ZX(ZPoly):
    """A ZPoly in two variables without L, built from an (a, b) -> Scalar map.

    An operator never equals, adds to or multiplies a symbol (TypeError).
    """

    __slots__ = ()

    def __new__(cls, terms: Mapping[tuple, Scalar] | None = None):
        return ZPoly.__new__(cls, 2, {(a, b, 0): c for (a, b), c in (terms or {}).items()})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): ONE})

    def __add__(self, other):
        return ZPoly.__add__(self, other) if type(other) is type(self) else NotImplemented

    def __mul__(self, other):
        return ZPoly.__mul__(self, other) if type(other) is type(self) else NotImplemented

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.packed == other.packed

    __hash__ = ZPoly.__hash__


def _term_str(c: Scalar, a: int, b: int, x: str, y: str, sep: str) -> str:
    """The one term (c)*x^a<sep>y^b; a zero exponent drops its factor, and 1 its ^1."""
    mono = sep.join([f"{v}^{e}" if e > 1 else v for v, e in ((x, a), (y, b)) if e])
    return f"({scalar_str(c)})*{mono}" if mono else f"({scalar_str(c)})"


def _terms_str(p: _ZX, x: str, y: str, sep: str) -> str:
    """The terms of p, highest total degree first; "" for zero."""
    return " + ".join(_term_str(c, *_ab(key), x, y, sep) for key, c in sorted(p.packed.items(), reverse=True))


class WOp(_ZX):
    """Normal-ordered operator sum c_{ab} w^a d^b on one variable."""

    __slots__ = ()

    @staticmethod
    def w(a: int = 1) -> "WOp":
        return WOp({(a, 0): ONE})

    @staticmethod
    def d(b: int = 1) -> "WOp":
        return WOp({(0, b): ONE})

    def __mul__(self, other: "WOp") -> "WOp":
        """Composition: sum_k (1/k!) (d_d^k self)(d_w^k other), as symbols."""
        if type(other) is not WOp:
            return NotImplemented
        acc: dict = {}
        for k1, c1 in self.packed.items():
            b1 = (k1 >> FIELD) & FIELD_MASK
            for k2, c2 in other.packed.items():
                c, mono = c1 * c2, k1 + k2
                if mono & _GUARDS:
                    raise _overflow()
                for n in _weights(b1, (k2 >> _A) & FIELD_MASK):
                    _add(acc, mono, c, n, 1)
                    mono -= _STEP
        return _zpoly(2, acc, WOp)

    def apply_monomial(self, j: int) -> dict[int, Scalar]:
        """Image of w^j as a polynomial in w: exponent -> coefficient."""
        out: dict[int, Scalar] = {}
        for key, c in self.packed.items():
            a, b = _ab(key)
            if b <= j:
                _add(out, a + j - b, c, perm(j, b), 1)
        return out

    def __repr__(self) -> str:
        return f"WOp({_terms_str(self, 'w', 'd', '') or 0})"


class PolyZX(_ZX):
    """Polynomial in zeta, xi; Euler degree of zeta^a xi^b is (a+b)/2."""

    __slots__ = ()

    @staticmethod
    def zeta(a: int = 1) -> "PolyZX":
        return PolyZX({(a, 0): ONE})

    @staticmethod
    def xi(b: int = 1) -> "PolyZX":
        return PolyZX({(0, b): ONE})

    @staticmethod
    def monomial(a: int, b: int, c: Scalar = ONE) -> "PolyZX":
        return PolyZX({(a, b): c})

    def poly_degree(self) -> int:
        return max(self.packed) >> _TOP if self.packed else -1

    def euler_degree(self):
        """Euler degree for homogeneous input; -inf for zero."""
        deg = _degree(self)
        return NEG_INF if deg < 0 else Fraction(deg, 2)

    def component(self, poly_degree: int) -> "PolyZX":
        return self._with({m: c for m, c in self.packed.items() if m >> _TOP == poly_degree})

    def constant_term(self) -> Scalar:
        return self.packed.get(0, ZERO)

    def __repr__(self) -> str:
        return f"PolyZX({polyzx_str(self)})"

    def __str__(self) -> str:
        return polyzx_str(self)


def polyzx_str(p: PolyZX) -> str:
    return _terms_str(p, "zeta", "xi", "*") or "0"


# ---------------------------------------------------------------------------
# Quantization map and its inverse
# ---------------------------------------------------------------------------

def _reorder(p: _ZX, sign: int, cls: type) -> _ZX:
    """sum_k (sign/2)^k/k! d_zeta^k d_xi^k p, as a value of type ``cls``."""
    acc: dict = {}
    for key, c in p.packed.items():
        for k, n in enumerate(_weights(*_ab(key))):
            _add(acc, key - k * _STEP, c, sign ** k * n, 1 << k)
    return _zpoly(2, acc, cls)


def symmetrize(p: PolyZX) -> WOp:
    """The quantization map: zeta^a xi^b -> sum_k (1/2)^k k! C(a,k) C(b,k) w^(a-k) d^(b-k)."""
    _require(PolyZX, p)
    return _reorder(p, 1, WOp)


def dequantize(A: WOp) -> PolyZX:
    """Inverse of :func:`symmetrize`: the same sum with -1/2 in place of 1/2."""
    _require(WOp, A)
    return _reorder(A, -1, PolyZX)


# ---------------------------------------------------------------------------
# Circle product, graded components, supertrace, pairing
# ---------------------------------------------------------------------------

def circle(phi: PolyZX, psi: PolyZX) -> PolyZX:
    """The product transported from operator composition."""
    return dequantize(symmetrize(phi) * symmetrize(psi))


def c_component(phi: PolyZX, psi: PolyZX, p: int) -> PolyZX:
    """Euler-homogeneous piece of degree j + k - p of the circle product.

    Computed by the bidifferential formula of Groenewold and Moyal,

        C_p = 1/(2^p p!) sum_t (-1)^t C(p, t)
              (d_xi^(p-t) d_zeta^t phi) (d_zeta^(p-t) d_xi^t psi),

    which agrees with the matching component of :func:`circle` because
    symmetrization carries composition to the Moyal product.  Every t
    sends zeta^a1 xi^b1 and zeta^a2 xi^b2 to zeta^(a1+a2-p) xi^(b1+b2-p),
    so a term pair adds one integer n over 2^p p! to one key.
    """
    _require(PolyZX, phi, psi)
    d1, d2 = _degree(phi), _degree(psi)
    if d1 < 0 or d2 < 0 or not 0 <= 2 * p <= d1 + d2:
        return PolyZX.zero()
    return _bidifferential(phi, psi, p)


def _moyal_weight(a1: int, b1: int, a2: int, b2: int, p: int) -> int:
    """The weight sum_t (-1)^t C(p,t) (b1)_(p-t) (a1)_t (a2)_(p-t) (b2)_t of zeta^a1 xi^b1, zeta^a2 xi^b2 in C_p.

    Only t in [max(0, p-b1, p-a2), min(p, a1, b2)] has no vanishing factor; each term there
    is the one before times -(p-t)(a1-t)(b2-t) / ((t+1)(b1-p+t+1)(a2-p+t+1)), exactly.
    """
    first, last = max(0, p - b1, p - a2), min(p, a1, b2)
    if first > last:
        return 0
    term = ((-1) ** first * comb(p, first)
            * perm(b1, p - first) * perm(a1, first) * perm(a2, p - first) * perm(b2, first))
    n = term
    for t in range(first, last):
        term = -term * (p - t) * (a1 - t) * (b2 - t) // ((t + 1) * (b1 - p + t + 1) * (a2 - p + t + 1))
        n += term
    return n


def _bidifferential(phi: PolyZX, psi: PolyZX, p: int) -> PolyZX:
    """The bidifferential sum of :func:`c_component`, for any phi, psi and p >= 0."""
    den, drop = factorial(p) << p, p * _STEP
    acc: dict = {}
    for k1, c1 in phi.packed.items():
        a1, b1 = _ab(k1)
        for k2, c2 in psi.packed.items():
            n = _moyal_weight(a1, b1, *_ab(k2), p)
            if n:
                mono = k1 + k2 - drop
                if mono & _GUARDS:
                    raise _overflow()
                _add(acc, mono, c1 * c2, n, den)
    return _zpoly(2, acc, PolyZX)


def poisson(phi: PolyZX, psi: PolyZX) -> PolyZX:
    """{phi, psi} = d_xi phi d_zeta psi - d_zeta phi d_xi psi."""
    _require(PolyZX, phi, psi)
    return phi.derivative(1) * psi.derivative(0) - phi.derivative(0) * psi.derivative(1)


def supertrace(phi: PolyZX) -> Scalar:
    """Projection to the constant term."""
    _require(PolyZX, phi)
    return phi.constant_term()


def pairing(phi: PolyZX, psi: PolyZX) -> Scalar:
    """Q(phi, psi) = supertrace(phi o psi)."""
    return supertrace(circle(phi, psi))


def parity(phi: PolyZX) -> int:
    """0 for integer Euler degree, 1 for half-integer (homogeneous input)."""
    _require(PolyZX, phi)
    return max(_degree(phi), 0) % 2


# ---------------------------------------------------------------------------
# The degree-lowering adjoint operators
# ---------------------------------------------------------------------------

LAMBDA_OP_TAGS = ("zeta2", "zetaxi", "xi2")

GENERATORS = {
    "zeta2": PolyZX.zeta(2),
    "zetaxi": PolyZX({(1, 1): ONE}),
    "xi2": PolyZX.xi(2),
}


def lambda_op(tag: str, psi: PolyZX) -> PolyZX:
    """Adjoint-of-multiplication operator for a quadratic generator.

    zeta2  -> (1/4) d^2/dxi^2,
    zetaxi -> -(1/4) d^2/dxi dzeta,
    xi2    -> (1/4) d^2/dzeta^2,

    that is psi -> C_2(generator, psi), on homogeneous and mixed psi alike.
    """
    if tag not in GENERATORS:
        raise ValueError(f"unknown generator tag {tag!r}; expected one of {LAMBDA_OP_TAGS}")
    _require(PolyZX, psi)
    return _bidifferential(GENERATORS[tag], psi, 2)


# ---------------------------------------------------------------------------
# Tables for the command-line front end
# ---------------------------------------------------------------------------

def pairing_table(max_power: int = 6) -> list[dict]:
    """Q(xi^p, zeta^q) for 0 <= p, q <= max_power."""
    rows = []
    for p in range(max_power + 1):
        for q in range(max_power + 1):
            value = pairing(PolyZX.xi(p), PolyZX.zeta(q))
            expect = Scalar(Fraction(factorial(p), 2 ** p)) if p == q else ZERO
            rows.append({"p": p, "q": q, "Q": scalar_str(value), "matches_closed_form": value == expect})
    return rows


def component_table(max_degree: int = 4) -> list[dict]:
    """Graded components C_p for all monomial pairs up to a total degree.

    C_p(zeta^a1 xi^b1, zeta^a2 xi^b2) is zeta^(a1+a2-p) xi^(b1+b2-p) times
    _moyal_weight(a1, b1, a2, b2, p) / (2^p p!), and each unordered pair is weighed
    once: t -> p - t in that sum gives C_p(psi, phi) = (-1)^p C_p(phi, psi).
    """
    monos = [(a, d - a) for d in range(max_degree + 1) for a in range(d + 1)]
    comps = {}
    for i, (a1, b1) in enumerate(monos):
        for j, (a2, b2) in enumerate(monos[i:], i):
            comps[i, j], comps[j, i] = ij, ji = {}, {}
            for p in range(min(a1 + b1, a2 + b2) + 1):  # 0 <= 2p <= the total degree
                n = _moyal_weight(a1, b1, a2, b2, p)
                if n:
                    c = _reduced(n, 0, factorial(p) << p)
                    ij[p] = _term_str(c, a1 + a2 - p, b1 + b2 - p, "zeta", "xi", "*")
                    ji[p] = _term_str(-c, a1 + a2 - p, b1 + b2 - p, "zeta", "xi", "*") if p & 1 else ij[p]
    texts = [_term_str(ONE, a, b, "zeta", "xi", "*") for a, b in monos]
    return [{"phi": s, "psi": t, "components": comps[i, j]}
            for i, s in enumerate(texts) for j, t in enumerate(texts)]
