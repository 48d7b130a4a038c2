"""One-variable Weyl quantization lab: symmetrization, circle product,
supertrace and the graded pairing.

Functions live in C[zeta, xi] (:class:`PolyZX`), operators in the Weyl
algebra C[w, d/dw] (:class:`WOp`, normal-ordered, exact Scalar
coefficients).  The quantization map is full symmetrization: a monomial
zeta^a xi^b goes to the average of all interleavings of a copies of w
and b copies of d/dw.  Its inverse is triangular with respect to total
degree, so the transported (circle) product

    phi o psi = dequantize( symmetrize(phi) . symmetrize(psi) )

is computable exactly.  The supertrace is projection to the constant
term; the pairing is the supertrace of the circle product.  Euler
degrees are half the polynomial degrees (zeta and xi both carry 1/2).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm
from typing import Mapping

from .ring import NEG_INF, NotHomogeneousError, ONE, Scalar, ZERO, scalar_str

Key = tuple  # (a, b): exponents of w^a d^b or zeta^a xi^b


class _Sparse:
    """Immutable sparse map (a, b) -> Scalar with its linear structure."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Scalar] | None = None):
        clean = {}
        if terms:
            for key, c in terms.items():
                if not c.is_zero():
                    clean[key] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): ONE})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, ZERO) + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar):
        return type(self)({k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((a + b for a, b in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


class WOp(_Sparse):
    """Normal-ordered operator sum c_{ab} w^a d^b on one variable."""

    __slots__ = ()

    @staticmethod
    def w(a: int = 1) -> "WOp":
        return WOp({(a, 0): ONE})

    @staticmethod
    def d(b: int = 1) -> "WOp":
        return WOp({(0, b): ONE})

    def __mul__(self, other: "WOp") -> "WOp":
        """Composition, normal-ordered via d^b w^c = sum_k k! C(b,k) C(c,k) w^{c-k} d^{b-k}."""
        out: dict[Key, Scalar] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                base = c1 * c2
                for k in range(min(b1, a2) + 1):
                    coeff = base * Scalar(factorial(k) * comb(b1, k) * comb(a2, k))
                    key = (a1 + a2 - k, b1 + b2 - k)
                    s = out.get(key, ZERO) + coeff
                    if s.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = s
        return WOp(out)

    def commutator(self, other: "WOp") -> "WOp":
        return self * other - other * self

    def apply_monomial(self, j: int) -> dict[int, Scalar]:
        """Image of w^j as a polynomial in w: exponent -> coefficient."""
        out: dict[int, Scalar] = {}
        for (a, b), c in self.terms.items():
            if b > j:
                continue
            fall = 1
            for t in range(b):
                fall *= j - t
            e = a + j - b
            s = out.get(e, ZERO) + c * Scalar(fall)
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "WOp(0)"
        bits = []
        for (a, b), c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
            mono = "".join((f"w^{a}" if a > 1 else "w" if a else "",
                            f"d^{b}" if b > 1 else "d" if b else ""))
            bits.append(f"({scalar_str(c)})" + (mono and "*" + mono))
        return "WOp(" + " + ".join(bits) + ")"


class PolyZX(_Sparse):
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

    def __mul__(self, other: "PolyZX") -> "PolyZX":
        out: dict[Key, Scalar] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                s = out.get(key, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return PolyZX(out)

    def d_zeta(self) -> "PolyZX":
        return PolyZX({(a - 1, b): c * Scalar(a) for (a, b), c in self.terms.items() if a})

    def d_xi(self) -> "PolyZX":
        return PolyZX({(a, b - 1): c * Scalar(b) for (a, b), c in self.terms.items() if b})

    poly_degree = _Sparse.total_degree

    def euler_degree(self):
        """Euler degree for homogeneous input; -inf for zero."""
        degs = {a + b for a, b in self.terms}
        if not degs:
            return NEG_INF
        if len(degs) > 1:
            raise NotHomogeneousError(f"polynomial degrees {sorted(degs)} mix")
        return Fraction(degs.pop(), 2)

    def component(self, poly_degree: int) -> "PolyZX":
        return PolyZX({k: c for k, c in self.terms.items() if sum(k) == poly_degree})

    def constant_term(self) -> Scalar:
        return self.terms.get((0, 0), ZERO)

    def __repr__(self) -> str:
        return f"PolyZX({polyzx_str(self)})"

    def __str__(self) -> str:
        return polyzx_str(self)


def polyzx_str(p: PolyZX) -> str:
    if not p.terms:
        return "0"
    bits = []
    for (a, b), c in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        mono = "*".join(
            ([f"zeta^{a}" if a > 1 else "zeta"] if a else [])
            + ([f"xi^{b}" if b > 1 else "xi"] if b else [])
        )
        bits.append(f"({scalar_str(c)})" + (f"*{mono}" if mono else ""))
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# Quantization map and its inverse
# ---------------------------------------------------------------------------

_SYM_CACHE: dict[Key, WOp] = {}


def _symmetrize_monomial(a: int, b: int) -> WOp:
    """Average over all interleavings of a w's and b d's.

    Recursion on the first letter: with weight a/(a+b) it is w, with
    weight b/(a+b) it is d.
    """
    key = (a, b)
    cached = _SYM_CACHE.get(key)
    if cached is not None:
        return cached
    if a == 0 and b == 0:
        out = WOp.one()
    else:
        total = a + b
        out = WOp.zero()
        if a:
            out = out + (WOp.w() * _symmetrize_monomial(a - 1, b)).scale(Scalar(Fraction(a, total)))
        if b:
            out = out + (WOp.d() * _symmetrize_monomial(a, b - 1)).scale(Scalar(Fraction(b, total)))
    _SYM_CACHE[key] = out
    return out


def symmetrize(p: PolyZX) -> WOp:
    """The quantization map: linear extension of monomial symmetrization."""
    out = WOp.zero()
    for (a, b), c in p.terms.items():
        out = out + _symmetrize_monomial(a, b).scale(c)
    return out


def dequantize(A: WOp) -> PolyZX:
    """Inverse of :func:`symmetrize`, solved top-down in total degree."""
    out = PolyZX.zero()
    rest = A
    while rest.terms:
        d = rest.total_degree()
        top = PolyZX({key: c for key, c in rest.terms.items() if sum(key) == d})
        out = out + top
        rest = rest - symmetrize(top)
        if rest.total_degree() >= d and rest.terms:  # pragma: no cover - sanity
            raise ArithmeticError("triangularity failure in dequantization")
    return out


# ---------------------------------------------------------------------------
# Circle product, graded components, supertrace, pairing
# ---------------------------------------------------------------------------

def circle(phi: PolyZX, psi: PolyZX) -> PolyZX:
    """The product transported from operator composition."""
    return dequantize(symmetrize(phi) * symmetrize(psi))


def _partial(f: PolyZX, n_xi: int, n_zeta: int, weight: Fraction = Fraction(1)) -> PolyZX:
    """weight * d_xi^n_xi d_zeta^n_zeta f, in one pass over the terms."""
    return PolyZX({
        (a - n_zeta, b - n_xi): c * Scalar(weight * perm(a, n_zeta) * perm(b, n_xi))
        for (a, b), c in f.terms.items()
        if a >= n_zeta and b >= n_xi
    })


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
        out = out + _partial(phi, p - t, t, weight) * _partial(psi, t, p - t)
    return out


def poisson(phi: PolyZX, psi: PolyZX) -> PolyZX:
    """{phi, psi} = d_xi phi d_zeta psi - d_zeta phi d_xi psi."""
    return phi.d_xi() * psi.d_zeta() - phi.d_zeta() * psi.d_xi()


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
    quarter = Scalar(Fraction(1, 4))
    if tag == "zeta2":
        return psi.d_xi().d_xi().scale(quarter)
    if tag == "zetaxi":
        return psi.d_xi().d_zeta().scale(-quarter)
    if tag == "xi2":
        return psi.d_zeta().d_zeta().scale(quarter)
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
