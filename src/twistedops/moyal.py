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
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm
from typing import Mapping

from .ring import FIELD, FIELD_MASK, NEG_INF, NotHomogeneousError, ONE, Scalar, ZERO, ZPoly, scalar_str

# fields of a packed key [a + b | a | b | 0] (see ring.pack): zeta or w to the a, xi or d to the b
_A, _TOP = 2 * FIELD, 3 * FIELD
_A_STEP = (1 << _A) + (1 << _TOP)     # one more zeta: the a field and the total
_B_STEP = (1 << FIELD) + (1 << _TOP)  # one more xi


def _ab(key: int) -> tuple[int, int]:
    """The exponents (a, b) of a packed two-variable key."""
    return (key >> _A) & FIELD_MASK, (key >> FIELD) & FIELD_MASK


class _ZX(ZPoly):
    """A ZPoly in two variables without L, built from an (a, b) -> Scalar map.

    An operator never equals, adds to or multiplies a symbol (TypeError).
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        ZPoly.__init__(self, 2, {(a, b, 0): c for (a, b), c in (terms or {}).items()})

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


def _terms_str(p: _ZX, x: str, y: str, sep: str) -> str:
    """(c)*x^a<sep>y^b terms, highest total degree first; "" for zero."""
    bits = []
    for key, c in sorted(p.packed.items(), reverse=True):
        a, b = _ab(key)
        mono = sep.join(
            ([f"{x}^{a}" if a > 1 else x] if a else [])
            + ([f"{y}^{b}" if b > 1 else y] if b else [])
        )
        bits.append(f"({scalar_str(c)})" + (f"*{mono}" if mono else ""))
    return " + ".join(bits)


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
        out = WOp()
        top = min(max((_ab(key)[1] for key in self.packed), default=0),
                  max((_ab(key)[0] for key in other.packed), default=0))
        for k in range(top + 1):
            out = out + ZPoly.__mul__(_partial(self, k, 0, Fraction(1, factorial(k))),
                                      _partial(other, 0, k))
        return out

    def apply_monomial(self, j: int) -> dict[int, Scalar]:
        """Image of w^j as a polynomial in w: exponent -> coefficient."""
        out: dict[int, Scalar] = {}
        for key, c in self.packed.items():
            a, b = _ab(key)
            if b > j:
                continue
            e = a + j - b
            s = out.get(e, ZERO) + c * Scalar(perm(j, b))
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
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
        degs = {key >> _TOP for key in self.packed}
        if not degs:
            return NEG_INF
        if len(degs) > 1:
            raise NotHomogeneousError(f"polynomial degrees {sorted(degs)} mix")
        return Fraction(degs.pop(), 2)

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


def _partial(f: _ZX, n_xi: int, n_zeta: int, weight: Fraction = Fraction(1)) -> _ZX:
    """weight * d_xi^n_xi d_zeta^n_zeta f, in one pass over the terms.

    On a WOp, zeta stands for w and xi for d.
    """
    step = n_zeta * _A_STEP + n_xi * _B_STEP
    out = {}
    for key, c in f.packed.items():
        a, b = _ab(key)
        if a >= n_zeta and b >= n_xi:
            out[key - step] = c * Scalar(weight * (perm(a, n_zeta) * perm(b, n_xi)))
    return f._with(out)


# ---------------------------------------------------------------------------
# Quantization map and its inverse
# ---------------------------------------------------------------------------

def _reorder(p: _ZX, half: Fraction, cls: type) -> _ZX:
    """sum_k half^k/k! d_zeta^k d_xi^k p, as a value of type ``cls``."""
    out = p.zero()
    for k in range(max((min(_ab(key)) for key in p.packed), default=0) + 1):
        out = out + _partial(p, k, k, half ** k / factorial(k))
    return cls()._with(out.packed)


def symmetrize(p: PolyZX) -> WOp:
    """The quantization map: zeta^a xi^b -> sum_k (1/2)^k k! C(a,k) C(b,k) w^(a-k) d^(b-k)."""
    return _reorder(p, Fraction(1, 2), WOp)


def dequantize(A: WOp) -> PolyZX:
    """Inverse of :func:`symmetrize`: the same sum with -1/2 in place of 1/2."""
    return _reorder(A, Fraction(-1, 2), PolyZX)


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
    symmetrization carries composition to the Moyal product.
    """
    j = phi.euler_degree()
    k = psi.euler_degree()
    if j is NEG_INF or k is NEG_INF or not 0 <= p <= j + k:
        return PolyZX.zero()
    out = PolyZX.zero()
    for t in range(p + 1):
        weight = Fraction((-1) ** t * comb(p, t), 2 ** p * factorial(p))
        # both factors are PolyZX: ZPoly's operators skip the mixed-type guard
        term = ZPoly.__mul__(_partial(phi, p - t, t, weight), _partial(psi, t, p - t))
        out = ZPoly.__add__(out, term)
    return out


def poisson(phi: PolyZX, psi: PolyZX) -> PolyZX:
    """{phi, psi} = d_xi phi d_zeta psi - d_zeta phi d_xi psi."""
    return phi.derivative(1) * psi.derivative(0) - phi.derivative(0) * psi.derivative(1)


def supertrace(phi: PolyZX) -> Scalar:
    """Projection to the constant term."""
    return phi.constant_term()


def pairing(phi: PolyZX, psi: PolyZX) -> Scalar:
    """Q(phi, psi) = supertrace(phi o psi)."""
    return supertrace(circle(phi, psi))


def parity(phi: PolyZX) -> int:
    """0 for integer Euler degree, 1 for half-integer (homogeneous input)."""
    deg = phi.euler_degree()
    if deg is NEG_INF:
        return 0
    return int(2 * deg) % 2


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
    xi2    -> (1/4) d^2/dzeta^2.
    """
    quarter = Fraction(1, 4)
    if tag == "zeta2":
        return _partial(psi, 2, 0, quarter)
    if tag == "zetaxi":
        return _partial(psi, 1, 1, -quarter)
    if tag == "xi2":
        return _partial(psi, 0, 2, quarter)
    raise ValueError(f"unknown generator tag {tag!r}; expected one of {LAMBDA_OP_TAGS}")


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
            rows.append({
                "p": p,
                "q": q,
                "Q": scalar_str(value),
                "matches_closed_form": value == expect,
            })
    return rows


def component_table(max_degree: int = 4) -> list[dict]:
    """Graded components C_p for all monomial pairs up to a total degree."""
    monos = [
        (a, b)
        for d in range(max_degree + 1)
        for a in range(d + 1)
        for b in [d - a]
    ]
    rows = []
    for a1, b1 in monos:
        for a2, b2 in monos:
            phi = PolyZX.monomial(a1, b1)
            psi = PolyZX.monomial(a2, b2)
            j = Fraction(a1 + b1, 2)
            k = Fraction(a2 + b2, 2)
            pmax = int(2 * min(j, k))
            comps = {}
            for p in range(pmax + 1):
                c = c_component(phi, psi, p)
                if not c.is_zero():
                    comps[p] = polyzx_str(c)
            rows.append({
                "phi": polyzx_str(phi),
                "psi": polyzx_str(psi),
                "components": comps,
            })
    return rows
