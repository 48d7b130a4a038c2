"""Exact coefficient arithmetic and the function ring of the square-root cover.

The coefficient field is Q(i), the Gaussian rationals, represented by
:class:`Scalar`: a Gaussian integer over one positive denominator, three
ints in lowest terms.  On top of it sit

* :class:`ZPoly` -- sparse polynomials in coordinates ``z1..zn`` and the
  formal twist parameter L (printed ``L``) with Scalar coefficients; the
  twist is the last variable, so "zero identically in the twist" is
  plain polynomial zero.  Each monomial is one packed int (Monagan and
  Pearce, CASC 2007): 16-bit fields holding the total degree, then the
  exponents of z1..zn, then the power of L, each field with a guard
  bit, so grlex order is int order and a monomial product is one
  addition.  Exponents and total degrees stop below 2^15
  (``EXPONENT_LIMIT``); going past raises DegreeError, never wraps,
* :class:`LambdaPoly` -- a ZPoly with no coordinates, the polynomials in
  L alone (critical twists are roots of one of them),
* :class:`LocFn` -- localized fractions ``p / F^k`` where F is a fixed
  "norm" polynomial attached to a :class:`RingContext`,
* :class:`SuperFn` -- elements ``even + odd*w`` of the quadratic extension
  generated by a square root w of F, so ``w*w = F``.

Everything is exact: no floats anywhere, a fraction is reduced to the
minimal power of F once, when first observed (see :class:`LocFn`), and
all values are immutable after construction (see :class:`Frozen`).
"""

from __future__ import annotations

import functools
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt
from types import MappingProxyType
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Exceptions
# ---------------------------------------------------------------------------

class RingError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class ContextMismatchError(RingError):
    """Two values built over different norm contexts were combined."""


class DegreeError(RingError):
    """A polynomial did not have the degree required by the operation."""


class IrrationalRootError(RingError):
    """A quadratic had no rational roots; carries the discriminant."""

    def __init__(self, message: str, discriminant: "Scalar"):
        super().__init__(message)
        self.discriminant = discriminant


class NotHomogeneousError(RingError):
    """Grading was requested for a non-homogeneous element."""


class ParseError(RingError):
    """Malformed textual representation."""


class Frozen:
    """Base of every value type: assigning or deleting any attribute raises."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# Scalars: the field Q(i)
# ---------------------------------------------------------------------------

class _ScalarSlots:
    """The slots of a Scalar, open to plain stores; see :func:`_triple`."""

    __slots__ = ("a", "b", "d")


class Scalar(_ScalarSlots, Frozen):
    """A Gaussian rational ``(a + b*i) / d`` held as three ints.

    ``d > 0`` and ``gcd(a, b, d) == 1``, so every value has exactly one
    triple and ``==`` compares triples.  ``Scalar(re, im)`` takes ints or
    Fractions; ``re`` and ``im`` read the parts back as Fractions.
    """

    __slots__ = ()

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        for x in (re, im):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        # reduced parts over the lcm of their denominators have no common factor
        p, q, s, t = re.numerator, re.denominator, im.numerator, im.denominator
        d = q * t // gcd(q, t)
        return _triple(p * (d // q), s * (d // t), d)

    re = property(lambda self: Fraction(self.a, self.d), doc="The real part, a Fraction.")
    im = property(lambda self: Fraction(self.b, self.d), doc="The imaginary part, a Fraction.")

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def is_rational(self) -> bool:
        return not self.b

    # -- arithmetic --------------------------------------------------------
    # integer results skip the gcd; equal denominators add without cross-multiplying
    def __add__(self, other: "Scalar") -> "Scalar":
        d, e = self.d, other.d
        if d == e:
            a, b = self.a + other.a, self.b + other.b
            return _triple(a, b, 1) if d == 1 else _reduced(a, b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + _triple(-other.a, -other.b, other.d)

    def __neg__(self) -> "Scalar":
        return _triple(-self.a, -self.b, self.d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, e = self.a, self.b, other.a, other.b
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a *= c
        d = self.d * other.d
        return _triple(a, b, 1) if d == 1 else _reduced(a, b, d)

    def inv(self) -> "Scalar":
        a, b, d = self.a, self.b, self.d
        if not (a or b):
            raise ZeroDivisionError("inversion of zero scalar")
        return _reduced(a * d, -b * d, a * a + b * b)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inv()

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison --------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def sort_key(self):
        return (self.re, self.im)

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        return scalar_str(self)


# A private factory fills the slots of a bare ``_...Slots`` object with
# plain stores, then retypes it to the public class, which adds only the
# Frozen guard to that layout: that skips one descriptor call per slot on
# every value built.  The public constructor checks its input and returns
# the factory's value, so each value type is filled in one place.
_new = object.__new__


def _triple(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d; the triple must already be normalised."""
    s = _new(_ScalarSlots)
    s.a = a
    s.b = b
    s.d = d
    s.__class__ = Scalar
    return s


def _reduced(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i)/d for any d > 0."""
    g = gcd(a, b, d)
    return _triple(a, b, d) if g == 1 else _triple(a // g, b // g, d // g)


ZERO = Scalar(0)
ONE = Scalar(1)
IUNIT = Scalar(0, 1)


def scalar_str(s: Scalar) -> str:
    """Plain text form, e.g. ``-3/4``, ``2i``, ``1+1i``."""
    a, b, d = s.a, s.b, s.d

    def frac(n: int) -> str:  # n/d in lowest terms
        g = gcd(n, d)
        try:
            return str(n // g) if g == d else f"{n // g}/{d // g}"
        except ValueError:  # past int's digit limit; Decimal prints any length exactly
            return str(Decimal(n // g)) if g == d else f"{Decimal(n // g)}/{Decimal(d // g)}"

    if not b:
        return frac(a)
    if not a:
        return frac(b) + "i"
    return f"{frac(a)}{'+' if b > 0 else '-'}{frac(abs(b))}i"


# a signed decimal integer or fraction: the only forms scalar_str prints
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

# The scalar grammar of README, one element a line; no whitespace inside.
_SCALAR = re.compile(rf"""
    (?P<re> {_RATIONAL.pattern} )?                       # real part: a signed decimal integer or fraction
    (?: (?(re)(?=[+-]))                                  # a sign, when a real part came first
        (?P<im> (?:{_RATIONAL.pattern}|[+-])? ) i )?     # imaginary part: a rational, a bare sign or nothing, then i
""", re.VERBOSE)


def parse_scalar(text: str) -> Scalar:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    if not text:
        raise ParseError("empty scalar")
    m = _SCALAR.fullmatch(text)
    if m is None:
        raise ParseError(f"bad scalar {text!r}")
    im = {None: "0", "": "1", "+": "1", "-": "-1"}.get(m["im"], m["im"])
    return Scalar(_parse_fraction(m["re"] or "0"), _parse_fraction(im))


def _parse_fraction(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ParseError(f"bad rational {text!r}")
    num, _, den = text.partition("/")
    try:  # Decimal reads a numeral of any length exactly; int(text) stops at 4,300 digits
        return Fraction(int(Decimal(num)), int(Decimal(den or "1")))
    except ZeroDivisionError as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def _fraction_sqrt(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    np_, dp = f.numerator, f.denominator
    rn, rd = isqrt(np_), isqrt(dp)
    if rn * rn == np_ and rd * rd == dp:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# Packed monomials and sparse polynomials in z1..zn and the twist L
# ---------------------------------------------------------------------------

# A monomial z^e L^k is one int with FIELD-bit fields, from the top
#
#     [ total degree | e_1 | ... | e_n | k ]
#
# The top bit of every field is a guard and stays clear, so each
# exponent and the total degree are below EXPONENT_LIMIT = 2^15.  Because
# the total leads and e_1 comes next, grlex order is int order.  A
# monomial product is one addition: fields below the limit cannot carry,
# so the sum is exact, and it overflows exactly when a guard bit comes out
# set.  Dividing a by b is (a | guards) - b: every guard survives exactly
# when b divides a, and clearing them leaves the quotient.
FIELD = 16
EXPONENT_LIMIT = 1 << (FIELD - 1)
FIELD_MASK = (1 << FIELD) - 1


@functools.cache
def _guards(n: int) -> int:
    """The guard bits of the n + 2 fields of a monomial in n coordinates."""
    return sum(EXPONENT_LIMIT << (FIELD * j) for j in range(n + 2))


def _total_unit(n: int) -> int:
    """One unit of the total-degree field."""
    return 1 << (FIELD * (n + 1))


def _overflow() -> DegreeError:
    return DegreeError(f"exponent or total degree past the packed field (limit {EXPONENT_LIMIT - 1})")


def pack(n: int, mono: tuple) -> int:
    """The packed key of an exponent vector ``(e_1, ..., e_n, k)``."""
    if len(mono) != n + 1:
        raise ValueError(f"expected {n + 1} exponents, got {len(mono)}")
    key = total = 0
    for e in mono:
        if not 0 <= e < EXPONENT_LIMIT:
            raise _overflow()
        key = key << FIELD | e
        total += e
    if total >= EXPONENT_LIMIT:
        raise _overflow()
    return total << (FIELD * (n + 1)) | key


def unpack(n: int, key: int) -> tuple:
    """The exponent vector ``(e_1, ..., e_n, k)`` of a packed key."""
    return tuple((key >> (FIELD * j)) & FIELD_MASK for j in range(n, -1, -1))


def z_degree(n: int, key: int) -> int:
    """The degree in z1..zn of a packed key (its total minus the power of L)."""
    return (key >> (FIELD * (n + 1))) - (key & FIELD_MASK)


def _unit(n: int, i: int) -> tuple:
    """The exponents of z_(i+1), u_(i+1) or d_(i+1) in n variables; IndexError unless 0 <= i < n."""
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range")
    return (0,) * i + (1,) + (0,) * (n - 1 - i)


class _ZPolySlots:
    """The slots of a ZPoly, open to plain stores; see :func:`_zpoly`."""

    __slots__ = ("n", "packed")


class ZPoly(_ZPolySlots, Frozen):
    """Sparse polynomial in z1..zn and the twist L with Scalar coefficients.

    ``packed`` maps packed monomial keys (see :func:`pack`: total degree,
    then e_1..e_n, then the power of L, in FIELD = 16-bit fields whose
    top bit is a guard) to nonzero scalars; grlex order on monomials is
    int order on keys.  An exponent
    or total degree of EXPONENT_LIMIT or more raises DegreeError wherever
    it would arise (construction, product, substitution); it never wraps.

    ``ZPoly(n, {exponent tuple: Scalar})`` packs its argument, and
    ``terms`` is a read-only view keyed by exponent tuples of length
    n + 1, the last entry being the power of L; it is rebuilt on every
    access, so code in this package reads ``packed``.
    """

    __slots__ = ()

    def __new__(cls, n: int, terms: Mapping[tuple, Scalar] | None = None):
        return _zpoly(n, {pack(n, mono): c for mono, c in (terms or {}).items() if not c.is_zero()}, cls)

    @property
    def terms(self) -> Mapping[tuple, Scalar]:
        n = self.n
        return MappingProxyType({unpack(n, key): c for key, c in self.packed.items()})

    def _with(self, packed: dict) -> "ZPoly":
        """A polynomial of the same type and size with already-pruned terms."""
        return _zpoly(self.n, packed, type(self))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(n: int) -> "ZPoly":
        return ZPoly(n)

    @staticmethod
    def const(n: int, c: Scalar | LambdaPoly) -> "ZPoly":
        return ZPoly.monomial(n, (0,) * n, c)

    @staticmethod
    def one(n: int) -> "ZPoly":
        return ZPoly.const(n, ONE)

    @staticmethod
    def coord(n: int, i: int) -> "ZPoly":
        return ZPoly.monomial(n, _unit(n, i))

    @staticmethod
    def monomial(n: int, mono: tuple, c: Scalar | LambdaPoly = ONE) -> "ZPoly":
        """``c * z^mono``; a LambdaPoly ``c`` spreads over the powers of L, a ZPoly in z raises TypeError."""
        mono = tuple(mono)
        if isinstance(c, Scalar):
            return ZPoly(n, {mono + (0,): c})
        if not isinstance(c, ZPoly) or c.n:
            raise TypeError(f"expected a Scalar or LambdaPoly coefficient, got {type(c).__name__}")
        return ZPoly(n, {mono + (key & FIELD_MASK,): v for key, v in c.packed.items()})

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.packed

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "ZPoly") -> "ZPoly":
        if self.n != other.n:
            raise ContextMismatchError("coordinate counts differ")
        return self._with(_merged(self.packed, other.packed))

    def __neg__(self) -> "ZPoly":
        return self._with({m: -c for m, c in self.packed.items()})

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + (-other)

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        if self.n != other.n:
            raise ContextMismatchError("coordinate counts differ")
        guards = _guards(self.n)
        out: dict[int, Scalar] = {}
        right = other.packed.items()
        for m1, c1 in self.packed.items():
            for m2, c2 in right:
                mono = m1 + m2
                if mono & guards:
                    raise _overflow()
                prod = c1 * c2
                acc = out.get(mono)
                s = prod if acc is None else acc + prod
                if s.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return self._with(out)

    def scale(self, c: Scalar | LambdaPoly) -> "ZPoly":
        if isinstance(c, LambdaPoly):  # L^k in n variables packs to k << FIELD*(n+1) | k
            step = _total_unit(self.n) + 1
            return self * _zpoly(self.n, {(key & FIELD_MASK) * step: v for key, v in c.packed.items()})
        if not isinstance(c, Scalar):
            return self * ZPoly.const(self.n, c)  # TypeError unless c is a ZPoly in L alone
        if c.is_zero():
            return self._with({})
        return self._with({m: v * c for m, v in self.packed.items()})

    # -- calculus -----------------------------------------------------------
    def derivative(self, i: int) -> "ZPoly":
        """d/dz_(i+1); ``i = n`` differentiates in L."""
        n = self.n
        if not 0 <= i <= n:
            raise IndexError(f"variable {i} out of range")
        shift = FIELD * (n - i)
        step = (1 << shift) + _total_unit(n)
        out = {}
        for mono, c in self.packed.items():
            e = (mono >> shift) & FIELD_MASK
            if e:
                out[mono - step] = c if e == 1 else c * _triple(e, 0, 1)
        return self._with(out)

    def subst_lambda(self, value: "LambdaPoly") -> "ZPoly":
        """Replace L by ``value`` (itself a LambdaPoly), expanded exactly; a
        polynomial free of L comes back as it is, and a term free of L goes
        to the output unmultiplied."""
        if not any(mono & FIELD_MASK for mono in self.packed):
            return self
        step = _total_unit(self.n) + 1  # one more power of L
        guards = _guards(self.n)
        powers = [LP_ONE]
        out: dict[int, Scalar] = {}
        for mono, c in self.packed.items():
            k = mono & FIELD_MASK
            if not k:
                acc = out.get(mono)
                out[mono] = c if acc is None else acc + c
                continue
            base = mono - k * step
            while len(powers) <= k:
                powers.append(powers[-1] * value)
            for lmono, v in powers[k].packed.items():
                target = base + (lmono & FIELD_MASK) * step
                if target & guards:
                    raise _overflow()
                acc = out.get(target)
                out[target] = c * v if acc is None else acc + c * v
        return self._with({m: c for m, c in out.items() if not c.is_zero()})

    def evaluate(self, point: list[Scalar], lam: Scalar | None = None) -> Scalar:
        """Value at ``point``; ``lam`` is the value of L, needed when L occurs."""
        total = ZERO
        for key, c in self.packed.items():
            mono = unpack(self.n, key)
            if mono[-1]:
                if lam is None:
                    raise DegreeError("not a constant in L")
                c = c * lam ** mono[-1]
            for i in range(self.n):
                for _ in range(mono[i]):
                    c = c * point[i]
            total = total + c
        return total

    # -- division -----------------------------------------------------------
    def exact_div(self, divisor: "ZPoly") -> "ZPoly | None":
        """Quotient self/divisor if the division is exact, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self._with({})
        guards = _guards(self.n)
        dmono = max(divisor.packed)
        dinv = divisor.packed[dmono].inv()
        dterms = divisor.packed.items()
        work = dict(self.packed)
        quot: dict[int, Scalar] = {}
        while work:
            mono = max(work)
            rest = (mono | guards) - dmono
            if rest & guards != guards:
                return None  # this term can never be cancelled
            rest ^= guards
            q = work[mono] * dinv
            quot[rest] = q
            # rest * m2 is at most mono in total degree: no overflow
            for m2, c2 in dterms:
                target = rest + m2
                sub = q * c2
                acc = work.get(target)
                s = (-sub) if acc is None else acc - sub
                if s.is_zero():
                    work.pop(target, None)
                else:
                    work[target] = s
        return self._with(quot)

    # -- comparison ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, ZPoly) and self.n == other.n and self.packed == other.packed

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.packed.items())))

    def sorted_terms(self) -> list[tuple[tuple, "LambdaPoly"]]:
        """(z-monomial, coefficient in L) pairs, highest z-monomial first.

        Clearing the L field and its share of the total leaves a key whose
        int order is grlex order on the z-monomial.
        """
        n = self.n
        step = _total_unit(n) + 1
        groups: dict[int, dict] = {}
        for mono, c in self.packed.items():
            k = mono & FIELD_MASK
            groups.setdefault(mono - k * step, {})[k * _LSTEP] = c
        return [(unpack(n, z)[:-1], LP_ZERO._with(groups[z])) for z in sorted(groups, reverse=True)]

    def __repr__(self) -> str:
        if self.is_zero():
            return "ZPoly(0)"
        bits = []
        for mono, c in self.sorted_terms():
            zs = _mono_str("z", mono)
            bits.append(f"({lambda_str(c)})" + (f"*{zs}" if zs else ""))
        return "ZPoly(" + " + ".join(bits) + ")"


# the key of L^k in a LambdaPoly: k in the total and in the L field
_LSTEP = _total_unit(0) + 1


def _merged(a: dict, b: dict) -> dict:
    """The sparse sum of two maps to nonzero coefficients, keys in the order
    of ``a`` and then of ``b``'s new ones; a key whose sum cancels is dropped."""
    return _merge_into(dict(a), b)


def _merge_into(out: dict, b: dict) -> dict:
    """:func:`_merged` in place: add ``b`` into ``out`` and return it."""
    for key, c in b.items():
        acc = out.get(key)
        s = c if acc is None else acc + c
        if s.is_zero():
            out.pop(key, None)
        else:
            out[key] = s
    return out


def _zpoly(n: int, packed: dict, cls: type = ZPoly) -> ZPoly:
    """The ZPoly (or ``cls`` value, a subclass without slots of its own)
    with already-pruned packed terms."""
    p = _new(_ZPolySlots)
    p.n = n
    p.packed = packed
    p.__class__ = cls
    return p


# ---------------------------------------------------------------------------
# LambdaPoly: Q(i)[L], the polynomials with no z-variables
# ---------------------------------------------------------------------------

class LambdaPoly(ZPoly):
    """Polynomial in the formal parameter L: a ZPoly with n = 0.

    ``LambdaPoly(coeffs)`` is the sum of ``coeffs[k] * L^k``; arithmetic is
    inherited from ZPoly and returns LambdaPoly values.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        packed = {k * _LSTEP: c for k, c in enumerate(coeffs) if not c.is_zero()}
        if packed and max(packed) >= EXPONENT_LIMIT * _LSTEP:
            raise _overflow()
        return _zpoly(0, packed, cls)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(s: Scalar) -> "LambdaPoly":
        return LambdaPoly((s,))

    @staticmethod
    def lam() -> "LambdaPoly":
        return LambdaPoly((ZERO, ONE))

    @staticmethod
    def from_rational(x: RationalLike) -> "LambdaPoly":
        return LambdaPoly((Scalar(x),))

    @property
    def degree(self) -> int:
        return max(self.packed) & FIELD_MASK if self.packed else -1  # zero polynomial: -1

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The coefficients of L^0 .. L^degree; empty for zero."""
        return tuple(self.packed.get(k * _LSTEP, ZERO) for k in range(self.degree + 1))

    subst = ZPoly.subst_lambda

    def quadratic_roots(self) -> tuple[Scalar, Scalar]:
        """Exact roots of a degree-2 polynomial, sorted by real part.

        Raises DegreeError unless the degree is exactly 2 and
        IrrationalRootError (carrying the discriminant) when the roots
        do not lie in Q.
        """
        if self.degree != 2:
            raise DegreeError(f"expected degree 2, got {self.degree}")
        c, b, a = self.coeffs
        disc = b * b - Scalar(4) * a * c
        if not disc.is_rational():
            raise IrrationalRootError("complex discriminant", disc)
        root = _fraction_sqrt(disc.re)
        if root is None:
            raise IrrationalRootError(f"discriminant {disc} is not a rational square", disc)
        s = Scalar(root)
        half = (Scalar(2) * a).inv()
        r1 = (-b + s) * half
        r2 = (-b - s) * half
        if r2.sort_key() < r1.sort_key():
            r1, r2 = r2, r1
        return r1, r2

    def __repr__(self) -> str:
        return f"LambdaPoly({lambda_str(self)})"

    def __str__(self) -> str:
        return lambda_str(self)


LP_ZERO = LambdaPoly()
LP_ONE = LambdaPoly((ONE,))
LAMBDA = LambdaPoly.lam()


def lambda_str(p: LambdaPoly) -> str:
    """Canonical inner text of a LambdaPoly, e.g. ``1 + -2*L + L^2``."""
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        cs = scalar_str(c)
        if c.a and c.b:
            cs = f"({cs})"
        if k == 0:
            parts.append(cs)
        else:
            power = "L" if k == 1 else f"L^{k}"
            parts.append(power if c == ONE else f"{cs}*{power}")
    return " + ".join(parts)


# exponents, indices and F-powers in the text format
_POSINT = "[1-9][0-9]*"


def _bounded(e: int, where: str) -> int:
    """``e``, an exponent or degree read from text, if it fits the packed field."""
    if e >= EXPONENT_LIMIT:
        raise ParseError(f"exponent {e} past the limit {EXPONENT_LIMIT - 1} in {where!r}")
    return e


def _exponent(digits: str, where: str) -> int:
    """A textual exponent (the digits of a positive integer), bounded."""
    return _bounded(int(digits) if len(digits) <= len(str(EXPONENT_LIMIT)) else EXPONENT_LIMIT, where)


# One term of an L-polynomial, one element a line; whitespace may pad '*'.
_LTERM = re.compile(rf"""
    (?P<scalar> [^L]* )                                  # a scalar alone
  | (?: (?P<coeff> [^*L]* ) \*\s* )?                     # or an optional coefficient and '*',
    L (?: \^ (?P<k> {_POSINT} ) )?                       # then L or L^k
""", re.VERBOSE)


def parse_lambda(text: str) -> LambdaPoly:
    text = text.strip()
    if text == "0":
        return LP_ZERO
    coeffs: dict[int, Scalar] = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        m = _LTERM.fullmatch(chunk)
        if m is None:
            raise ParseError(f"bad L-term {chunk!r}")
        cpart = m["coeff"] if m["scalar"] is None else m["scalar"]
        c = ONE if cpart is None else parse_scalar(cpart)
        s = m["coeff"] is not None and _SCALAR.fullmatch(m["coeff"].strip())
        if s and s["re"] is not None and s["im"] is not None:
            # 1+1i*L would read (1+1i)*L, but 1 + 1i*L reads 1 + i*L
            raise ParseError(f"complex coefficient needs parentheses in {chunk!r}")
        k = 0 if m["scalar"] is not None else _exponent(m["k"] or "1", chunk)
        coeffs[k] = coeffs.get(k, ZERO) + c
    size = max(coeffs) + 1
    return LambdaPoly(tuple(coeffs.get(k, ZERO) for k in range(size)))


# ---------------------------------------------------------------------------
# RingContext: fixes the norm polynomial F and the grading data
# ---------------------------------------------------------------------------

class RingContext(Frozen):
    """Shared data for localized fractions: coordinates, F, and its degree."""

    __slots__ = ("n", "F", "r", "_fpow", "_dF")

    def __init__(self, n: int, F: ZPoly, r: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_fpow", {0: ZPoly.one(n), 1: F})
        object.__setattr__(self, "_dF", {})

    def F_pow(self, k: int) -> ZPoly:
        cache = self._fpow
        for j in range(len(cache), k + 1):
            cache[j] = cache[j - 1] * self.F
        return cache[k]

    def dF(self, i: int) -> ZPoly:
        cache = self._dF
        if i not in cache:
            cache[i] = self.F.derivative(i)
        return cache[i]

    def compatible(self, other: "RingContext") -> bool:
        return self is other or (self.n == other.n and self.r == other.r and self.F == other.F)

    def __eq__(self, other) -> bool:
        return isinstance(other, RingContext) and self.compatible(other)

    def __hash__(self) -> int:
        return hash((self.n, self.r))


def _check_ctx(a: RingContext, b: RingContext) -> None:
    if a is not b and not a.compatible(b):
        raise ContextMismatchError("values built over different norm contexts")


# ---------------------------------------------------------------------------
# LocFn: fractions p / F^k, reduced when first observed
# ---------------------------------------------------------------------------

class LocFn(Frozen):
    """Localized function ``num / F^k``; arithmetic never divides by F.

    ``num``, ``k``, hashing and printing use the reduced (minimal-k) pair,
    which :meth:`_reduce` computes once, on first use.  ``==`` reduces only
    fractions over different F-powers: over one power two fractions are
    equal exactly when their numerators are.

    A zero fraction keeps the zero numerator it was given and has k = 0.
    Arithmetic skips zero operands: a sum with zero is the other operand,
    and a product, derivative, scaling, negation or ``mul_F`` of zero is
    that zero itself, so no value is built for it.
    """

    __slots__ = ("ctx", "_num", "_k", "_reduced")

    def __init__(self, ctx: RingContext, num: ZPoly, k: int = 0):
        if not num.packed:
            k = 0
        _set_ctx(self, ctx)
        _set_num(self, num)
        _set_k(self, k)
        _set_reduced(self, None if k else (num, 0))

    def _reduce(self) -> tuple[ZPoly, int]:
        """The pair with F cancelled as often as it divides the numerator."""
        reduced = self._reduced
        if reduced is None:
            num, k = self._num, self._k
            while k > 0:
                q = num.exact_div(self.ctx.F)
                if q is None:
                    break
                num, k = q, k - 1
            reduced = (num, k)
            _set_reduced(self, reduced)
        return reduced

    @property
    def num(self) -> ZPoly:
        return self._reduce()[0]

    @property
    def k(self) -> int:
        return self._reduce()[1]

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(ctx: RingContext) -> "LocFn":
        return LocFn(ctx, ZPoly.zero(ctx.n), 0)

    @staticmethod
    def one(ctx: RingContext) -> "LocFn":
        return LocFn(ctx, ZPoly.one(ctx.n), 0)

    @staticmethod
    def from_zpoly(ctx: RingContext, p: ZPoly) -> "LocFn":
        return LocFn(ctx, p, 0)

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return self._num.is_zero()

    def is_polynomial(self) -> bool:
        return self.k == 0

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "LocFn") -> "LocFn":
        _check_ctx(self.ctx, other.ctx)
        if not self._num.packed:
            return other
        if not other._num.packed:
            return self
        if self._k == other._k:
            return LocFn(self.ctx, self._num + other._num, self._k)
        if self._k > other._k:
            hi, lo = self, other
        else:
            hi, lo = other, self
        lifted = lo._num * self.ctx.F_pow(hi._k - lo._k)
        return LocFn(self.ctx, hi._num + lifted, hi._k)

    def __neg__(self) -> "LocFn":
        if not self._num.packed:
            return self
        return LocFn(self.ctx, -self._num, self._k)

    def __sub__(self, other: "LocFn") -> "LocFn":
        return self + (-other)

    def __mul__(self, other: "LocFn") -> "LocFn":
        _check_ctx(self.ctx, other.ctx)
        if not self._num.packed:
            return self
        if not other._num.packed:
            return other
        return LocFn(self.ctx, self._num * other._num, self._k + other._k)

    def mul_F(self) -> "LocFn":
        if self._k > 0:
            return LocFn(self.ctx, self._num, self._k - 1)
        if not self._num.packed:
            return self
        return LocFn(self.ctx, self._num * self.ctx.F, 0)

    def scale(self, c: Scalar | LambdaPoly) -> "LocFn":
        if not self._num.packed:
            return self
        return LocFn(self.ctx, self._num.scale(c), self._k)

    def derivative(self, i: int) -> "LocFn":
        if not self._num.packed:
            return self
        if self._k == 0:
            return LocFn(self.ctx, self._num.derivative(i), 0)
        return _quotient_rule(self.ctx, self._num, self._k, i, _triple(-self._k, 0, 1))

    def subst_lambda(self, value: LambdaPoly) -> "LocFn":
        return LocFn(self.ctx, self._num.subst_lambda(value), self._k)

    def evaluate(self, point: list[Scalar], lam: Scalar | None = None) -> Scalar:
        f = self.ctx.F.evaluate(point)
        num, k = self._reduce() if f.is_zero() else (self._num, self._k)
        return num.evaluate(point, lam) / f ** k

    # -- comparison ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not (isinstance(other, LocFn) and self.ctx.compatible(other.ctx)):
            return False
        if self._k == other._k:
            return self._num == other._num
        return self._reduce() == other._reduce()

    def __hash__(self) -> int:
        return hash((self.k, self.num))

    def __repr__(self) -> str:
        if self.k == 0:
            return f"LocFn({self.num!r})"
        return f"LocFn({self.num!r} / F^{self.k})"


_set_ctx, _set_num, _set_k, _set_reduced = (
    LocFn.ctx.__set__, LocFn._num.__set__, LocFn._k.__set__, LocFn._reduced.__set__)


def _quotient_rule(ctx: RingContext, p: ZPoly, k: int, i: int, c: Scalar) -> LocFn:
    """(p' F + c p F'_i) / F^(k+1), the derivative along z_(i+1) of
    p w^(2s) / F^k divided by w^(2s), where c = s - k: s = 0 for an even
    part, 1/2 for an odd one (w' = F'/(2F) w).  p is scaled before the
    product, so the fraction takes two polynomial products."""
    return LocFn(ctx, p.derivative(i) * ctx.F + p.scale(c) * ctx.dF(i), k + 1)


# ---------------------------------------------------------------------------
# SuperFn: even + odd * w with w^2 = F
# ---------------------------------------------------------------------------

class _SuperFnSlots:
    """The slots of a SuperFn, open to plain stores; see :func:`_superfn`."""

    __slots__ = ("ctx", "ev", "od")


class SuperFn(_SuperFnSlots, Frozen):
    """Element ``even + odd*w`` of the ring extended by the root w of F."""

    __slots__ = ()

    def __new__(cls, ctx: RingContext, ev: LocFn, od: LocFn):
        _check_ctx(ctx, ev.ctx)
        _check_ctx(ctx, od.ctx)
        return _superfn(ctx, ev, od)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(ctx: RingContext) -> "SuperFn":
        z = LocFn.zero(ctx)
        return SuperFn(ctx, z, z)

    @staticmethod
    def one(ctx: RingContext) -> "SuperFn":
        return SuperFn(ctx, LocFn.one(ctx), LocFn.zero(ctx))

    @staticmethod
    def w(ctx: RingContext) -> "SuperFn":
        return SuperFn(ctx, LocFn.zero(ctx), LocFn.one(ctx))

    @staticmethod
    def w_inv(ctx: RingContext) -> "SuperFn":
        # 1/w = w/F
        return SuperFn(ctx, LocFn.zero(ctx), LocFn(ctx, ZPoly.one(ctx.n), 1))

    @staticmethod
    def from_zpoly(ctx: RingContext, p: ZPoly) -> "SuperFn":
        return SuperFn(ctx, LocFn.from_zpoly(ctx, p), LocFn.zero(ctx))

    @staticmethod
    def from_locfn(ev: LocFn, od: LocFn | None = None) -> "SuperFn":
        ctx = ev.ctx
        return SuperFn(ctx, ev, od if od is not None else LocFn.zero(ctx))

    @staticmethod
    def const(ctx: RingContext, c: Scalar | LambdaPoly) -> "SuperFn":
        return SuperFn.from_zpoly(ctx, ZPoly.const(ctx.n, c))

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return self.ev.is_zero() and self.od.is_zero()

    def is_polynomial(self) -> bool:
        """True when both parts have no F in the denominator."""
        return self.ev.is_polynomial() and self.od.is_polynomial()

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "SuperFn") -> "SuperFn":
        _check_ctx(self.ctx, other.ctx)
        return _superfn(self.ctx, self.ev + other.ev, self.od + other.od)

    def __neg__(self) -> "SuperFn":
        return _superfn(self.ctx, -self.ev, -self.od)

    def __sub__(self, other: "SuperFn") -> "SuperFn":
        return self + (-other)

    def __mul__(self, other: "SuperFn") -> "SuperFn":
        """(a + b w)(c + d w) = (a c + b d F) + (a d + b c) w.

        Only the part products whose two factors are both nonzero are
        formed; a product with a zero factor is that factor.  The twisted
        families, w, dF and their commutators are each purely even or
        purely odd, so a product of two of them is one LocFn product, not
        four.
        """
        _check_ctx(self.ctx, other.ctx)
        a, b, c, d = self.ev, self.od, other.ev, other.od
        az, bz, cz, dz = not a._num.packed, not b._num.packed, not c._num.packed, not d._num.packed
        ev = a if az else c if cz else a * c
        od = a if az else d if dz else a * d
        if not (bz or dz):
            ev = ev + (b * d).mul_F()
        if not (bz or cz):
            od = od + b * c
        return _superfn(self.ctx, ev, od)

    def scale(self, c: Scalar | LambdaPoly) -> "SuperFn":
        return _superfn(self.ctx, self.ev.scale(c), self.od.scale(c))

    def derivative(self, i: int) -> "SuperFn":
        """Partial derivative using the chain rule for w: w' = F'/(2F) * w.

        For an odd part p/F^k the quotient rule and the chain rule give
        (p/F^k w)' = (p' F + (1/2 - k) p F'_i) w / F^(k+1), see
        :func:`_quotient_rule`.
        """
        ctx, od = self.ctx, self.od
        if od._num.packed:  # 1/2 - k = (1 - 2k)/2, already in lowest terms
            od = _quotient_rule(ctx, od._num, od._k, i, _triple(1 - 2 * od._k, 0, 2))
        return _superfn(ctx, self.ev.derivative(i), od)

    def subst_lambda(self, value: LambdaPoly) -> "SuperFn":
        return _superfn(self.ctx, self.ev.subst_lambda(value), self.od.subst_lambda(value))

    # -- comparison ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SuperFn)
            and self.ctx.compatible(other.ctx)
            and self.ev == other.ev
            and self.od == other.od
        )

    def __hash__(self) -> int:
        return hash((self.ev, self.od))

    def __repr__(self) -> str:
        return f"SuperFn({superfn_str(self)})"

    def __str__(self) -> str:
        return superfn_str(self)


def _superfn(ctx: RingContext, ev: LocFn, od: LocFn) -> SuperFn:
    """The SuperFn ``ev + od*w``; both parts must already be over ``ctx``."""
    f = _new(_SuperFnSlots)
    f.ctx = ctx
    f.ev = ev
    f.od = od
    f.__class__ = SuperFn
    return f


HALF = Scalar(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Euler grading: deg z_i = 1, deg w = r/2, deg F^-1 = -r, deg L = 0
# ---------------------------------------------------------------------------

NEG_INF = float("-inf")


def _locfn_grades(f: LocFn, shift: Fraction) -> set:
    r = f.ctx.r
    n = f.ctx.n
    return {Fraction(z_degree(n, mono)) - f.k * r + shift for mono in f.num.packed}


def grade_components(f: SuperFn) -> set:
    """The set of Euler degrees of the homogeneous components of f."""
    grades = _locfn_grades(f.ev, Fraction(0))
    grades |= _locfn_grades(f.od, Fraction(f.ctx.r, 2))
    return grades


def grade(f: SuperFn):
    """Euler degree of a homogeneous SuperFn; -inf for zero.

    Raises NotHomogeneousError when components of different degrees mix.
    """
    grades = grade_components(f)
    if not grades:
        return NEG_INF
    if len(grades) > 1:
        raise NotHomogeneousError(f"degrees {sorted(grades)} mix")
    return grades.pop()


# ---------------------------------------------------------------------------
# Textual form: sum of terms (scalar)(Lpoly) * z-monomial [* w] [/ F^k]
# ---------------------------------------------------------------------------

def _mono_str(letter: str, mono: tuple) -> str:
    """``z1^2*z3`` style text of an exponent vector; empty for the unit."""
    return "*".join(
        f"{letter}{i+1}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(mono) if e
    )


def _poly_terms(p: ZPoly, letter: str, tail: str = "") -> list[str]:
    """The terms ``(scalar)(Lpoly)*x1^e1*...`` of ``p``, highest monomial
    first, in the variables ``letter``, each followed by ``tail``.

    The scalar is the lowest nonzero coefficient in L, the Lpoly the
    coefficient over it, omitted when it is 1.
    """
    out = []
    for mono, c in p.sorted_terms():
        s = c.packed[min(c.packed)]
        rest = c.scale(s.inv())
        xs = _mono_str(letter, mono)
        out.append(f"({scalar_str(s)})" + ("" if rest == LP_ONE else f"({lambda_str(rest)})")
                   + (f"*{xs}" if xs else "") + tail)
    return out


def superfn_terms(f: SuperFn, tail: str = "") -> list[str]:
    """The terms of ``f``, even part first, each followed by ``tail``."""
    out = []
    for part, w in ((f.ev, ""), (f.od, " * w")):
        k = part.k
        F = "" if not k else " / F" if k == 1 else f" / F^{k}"
        out += _poly_terms(part.num, "z", w + F + tail)
    return out


def superfn_str(f: SuperFn) -> str:
    terms = superfn_terms(f)
    return " + ".join(terms) if terms else "0"


# a group's content: balanced and nested at most once, as an Lpoly
# holds parenthesised scalars
_GROUP = r"[^()]* (?: \( [^()]* \) [^()]* )*"
# a z- or d-factor's index and optional exponent
_INDEX_EXP = rf"{_POSINT} (?: \^{_POSINT} )?"

# The term grammar of README ("Guarantees and conventions"), one element a
# line; whitespace may pad every '*' and '/'.
_TERM = re.compile(rf"""
    \( (?P<scalar> {_GROUP} ) \)                         # (scalar)
    (?: \( (?P<lpoly> {_GROUP} ) \) )?                   # optional (Lpoly), as in (1)(1 + (1+1i)*L)
    (?P<z> (?: \s*\*\s* z {_INDEX_EXP} )* )              # z-factors
    (?P<w> \s*\*\s* w )?                                 # optional * w
    (?P<F> \s*/\s* F (?: \^ (?P<k> {_POSINT} ) )? )?     # optional / F^k
    (?P<d> (?: \s*\*\s* d {_INDEX_EXP} )* )              # d-factors
""", re.VERBOSE)

# one z- or d-factor of a matched term: its index and exponent
_FACTOR = re.compile(rf"([zd])({_POSINT})(?:\^({_POSINT}))?")

# the separator of a sum: " + ", padded with more whitespace on either side
_PLUS = re.compile(r"\s* \+ \s*")


def parse_term(m: re.Match, n: int) -> tuple[LambdaPoly, tuple, bool, int, tuple]:
    """The values of one term matched by ``_TERM``.

    Indices, exponents and k are positive decimal integers below
    EXPONENT_LIMIT; so must be each exponent summed over repeated
    factors and the total degree of the z-factors and the coefficient's
    power of L, else ParseError.

    Returns (coefficient, z-monomial, odd?, denominator power, d-monomial).
    """
    term = m[0]
    scalar = parse_scalar(m["scalar"])
    coeff = LambdaPoly.const(scalar) if m["lpoly"] is None else parse_lambda(m["lpoly"]).scale(scalar)
    monos = {"z": [0] * n, "d": [0] * n}
    for var, index, exp in _FACTOR.findall(m["z"] + m["d"]):
        idx = _exponent(index, term) - 1
        if idx >= n:
            raise ParseError(f"index out of range in {var}{index}")
        mono = monos[var]
        mono[idx] = _bounded(mono[idx] + _exponent(exp or "1", term), term)
    k = _exponent(m["k"] or "1", term) if m["F"] else 0
    _bounded(sum(monos["z"]) + max(coeff.degree, 0), term)
    return coeff, tuple(monos["z"]), bool(m["w"]), k, tuple(monos["d"])


def parse_terms(text: str, ctx: RingContext):
    """Each term of ``text`` as (coefficient, derivative multi-index); ``0`` has none."""
    text = text.strip()
    if text == "0":
        return
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        end = m.end() if m else pos
        sep = _PLUS.match(text, end)
        if m is None or (sep is None and end < len(text)):
            raise ParseError(f"cannot parse the text from offset {end}: {text[end:end + 60]!r}")
        coeff, zmono, odd, k, dmono = parse_term(m, ctx.n)
        frac = LocFn(ctx, ZPoly.monomial(ctx.n, zmono, coeff), k)
        yield (SuperFn.from_locfn(LocFn.zero(ctx), frac) if odd else SuperFn.from_locfn(frac)), dmono
        if sep is None:
            return
        pos = sep.end()


def _add_fraction(ctx: RingContext, acc: list, f: LocFn) -> None:
    """Add ``f`` into the running sum ``acc`` = [numerator map, k] in place.

    The result is that of LocFn ``+``, numerator and power alike: a term
    over the running power of F merges into the numerator without a copy,
    and the side over the lower power is lifted by F as ``+`` lifts it.
    """
    p = f._num.packed
    if not p:
        return
    num, k = acc
    if not num:
        acc[:] = dict(p), f._k
    elif f._k == k:
        _merge_into(num, p)
    elif f._k > k:
        acc[:] = _merged(p, (_zpoly(ctx.n, num) * ctx.F_pow(f._k - k)).packed), f._k
    else:
        _merge_into(num, (f._num * ctx.F_pow(k - f._k)).packed)


def sum_terms(terms, ctx: RingContext) -> dict:
    """The (function, derivative multi-index) pairs of ``terms``, as
    :func:`parse_terms` yields them, summed per multi-index.

    Each sum is the value, and the fraction, that adding the index's
    terms in order with ``+`` gives; a zero sum stays in the map.  The
    even and odd parts of each index are running sums updated in place
    (:func:`_add_fraction`), so a long sum takes time linear in its terms.
    """
    parts: dict = {}
    for fn, idx in terms:
        ev, od = parts.setdefault(idx, ([{}, 0], [{}, 0]))
        _add_fraction(ctx, ev, fn.ev)
        _add_fraction(ctx, od, fn.od)
    return {idx: SuperFn(ctx, *(LocFn(ctx, _zpoly(ctx.n, num), k) for num, k in acc))
            for idx, acc in parts.items()}


def parse_superfn(text: str, ctx: RingContext) -> SuperFn:
    def functions():
        for fn, dmono in parse_terms(text, ctx):
            if any(dmono):
                raise ParseError("derivative factors are not allowed in a function")
            yield fn, dmono
    return sum_terms(functions(), ctx).get((0,) * ctx.n, SuperFn.zero(ctx))
