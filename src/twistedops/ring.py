"""Exact coefficient arithmetic and the function ring of the square-root cover.

The coefficient field is Q(i), the Gaussian rationals, represented by
:class:`Scalar`.  On top of it sit

* :class:`LambdaPoly` -- univariate polynomials in a formal parameter L
  (printed ``L``), used to keep the twist parameter symbolic,
* :class:`ZPoly` -- sparse multivariate polynomials in coordinates
  ``z1..zn`` with LambdaPoly coefficients,
* :class:`LocFn` -- localized fractions ``p / F^k`` where F is a fixed
  "norm" polynomial attached to a :class:`RingContext`,
* :class:`SuperFn` -- elements ``even + odd*w`` of the quadratic extension
  generated by a square root w of F, so ``w*w = F``.

Everything is exact: no floats anywhere, a fraction is reduced to the
minimal power of F once, when first observed (see :class:`LocFn`), and
all values are immutable after construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
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


# ---------------------------------------------------------------------------
# Scalars: the field Q(i)
# ---------------------------------------------------------------------------

def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Scalar:
    """A Gaussian rational ``re + im*i`` with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("Scalar is immutable")

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_rational(self) -> bool:
        return not self.im

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero scalar")
        d = self.re * self.re + self.im * self.im
        return Scalar(self.re / d, -self.im / d)

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
        return (
            isinstance(other, Scalar)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def sort_key(self):
        return (self.re, self.im)

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        return scalar_str(self)


ZERO = Scalar(0)
ONE = Scalar(1)
IUNIT = Scalar(0, 1)


def scalar_str(s: Scalar) -> str:
    """Plain text form, e.g. ``-3/4``, ``2i``, ``1+1i``."""

    def frac(f: Fraction) -> str:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    if not s.im:
        return frac(s.re)
    if not s.re:
        return frac(s.im) + "i"
    sign = "+" if s.im > 0 else "-"
    return f"{frac(s.re)}{sign}{frac(abs(s.im))}i"


def parse_scalar(text: str) -> Scalar:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    if not text:
        raise ParseError("empty scalar")
    # split an explicit imaginary tail off a "a+bi" / "a-bi" form
    if text.endswith("i"):
        body = text[:-1]
        # find a +/- separating real and imaginary parts (not the leading sign,
        # not the sign inside a fraction's numerator)
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/*^":
                re_part = body[:pos]
                im_part = body[pos:]
                break
        else:
            re_part, im_part = "0", body
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        return Scalar(_parse_fraction(re_part), _parse_fraction(im_part))
    return Scalar(_parse_fraction(text))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
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
# LambdaPoly: Q(i)[L] for the formal twist parameter
# ---------------------------------------------------------------------------

class LambdaPoly:
    """Polynomial in the formal parameter L with Scalar coefficients.

    Coefficient ``coeffs[k]`` multiplies ``L^k``; trailing zeros are
    stripped so the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("LambdaPoly is immutable")

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

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_value(self) -> Scalar:
        if not self.coeffs:
            return ZERO
        if len(self.coeffs) > 1:
            raise DegreeError("not a constant in L")
        return self.coeffs[0]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial: -1

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if k < len(self.coeffs) else ZERO

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return LambdaPoly(out)

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LambdaPoly") -> "LambdaPoly":
        return self + (-other)

    def __mul__(self, other: "LambdaPoly") -> "LambdaPoly":
        if not self.coeffs or not other.coeffs:
            return LP_ZERO
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for k, b in enumerate(other.coeffs):
                out[j + k] = out[j + k] + a * b
        return LambdaPoly(out)

    def scale(self, s: Scalar) -> "LambdaPoly":
        return LambdaPoly(tuple(c * s for c in self.coeffs))

    # -- substitution and roots ---------------------------------------------
    def subst(self, value: "LambdaPoly") -> "LambdaPoly":
        """Replace L by ``value`` (itself a LambdaPoly), expanded exactly."""
        out = LP_ZERO
        for c in reversed(self.coeffs):
            out = out * value + LambdaPoly.const(c)
        return out

    def eval_scalar(self, value: Scalar) -> Scalar:
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

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

    # -- comparison --------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, LambdaPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

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
        if c.im and c.re:
            cs = f"({cs})"
        if k == 0:
            parts.append(cs)
        else:
            power = "L" if k == 1 else f"L^{k}"
            parts.append(power if c == ONE else f"{cs}*{power}")
    return " + ".join(parts)


# exponents, indices and F-powers in the text format
_POSINT = "[1-9][0-9]*"


def parse_lambda(text: str) -> LambdaPoly:
    text = text.strip()
    if text == "0":
        return LP_ZERO
    coeffs: dict[int, Scalar] = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if "L" in chunk:
            if "*" in chunk:
                cpart, lpart = chunk.rsplit("*", 1)
                c = parse_scalar(cpart)
            else:
                lpart, c = chunk, ONE
            power = re.fullmatch(rf"L(?:\^({_POSINT}))?", lpart.strip())
            if power is None:
                raise ParseError(f"bad L-term {chunk!r}")
            k = int(power.group(1) or 1)
        else:
            c, k = parse_scalar(chunk), 0
        coeffs[k] = coeffs.get(k, ZERO) + c
    size = max(coeffs) + 1
    return LambdaPoly(tuple(coeffs.get(k, ZERO) for k in range(size)))


# ---------------------------------------------------------------------------
# Monomials and sparse multivariate polynomials
# ---------------------------------------------------------------------------

Monomial = tuple  # exponent vectors are tuple[int, ...] of length n


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: tuple, b: tuple) -> tuple | None:
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def grlex_key(mono: tuple) -> tuple:
    return (sum(mono), mono)


class ZPoly:
    """Sparse polynomial in z1..zn with LambdaPoly coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, LambdaPoly] | None = None):
        object.__setattr__(self, "n", n)
        clean = {}
        if terms:
            for mono, c in terms.items():
                if not c.is_zero():
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ZPoly is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(n: int) -> "ZPoly":
        return ZPoly(n)

    @staticmethod
    def const(n: int, c: Scalar | LambdaPoly) -> "ZPoly":
        if isinstance(c, Scalar):
            c = LambdaPoly.const(c)
        return ZPoly(n, {(0,) * n: c})

    @staticmethod
    def one(n: int) -> "ZPoly":
        return ZPoly.const(n, ONE)

    @staticmethod
    def coord(n: int, i: int) -> "ZPoly":
        mono = tuple(1 if j == i else 0 for j in range(n))
        return ZPoly(n, {mono: LP_ONE})

    @staticmethod
    def monomial(n: int, mono: tuple, c: Scalar | LambdaPoly = ONE) -> "ZPoly":
        if isinstance(c, Scalar):
            c = LambdaPoly.const(c)
        return ZPoly(n, {tuple(mono): c})

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "ZPoly") -> "ZPoly":
        if self.n != other.n:
            raise ContextMismatchError("coordinate counts differ")
        out = dict(self.terms)
        for mono, c in other.terms.items():
            acc = out.get(mono)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = s
        p = ZPoly.__new__(ZPoly)
        object.__setattr__(p, "n", self.n)
        object.__setattr__(p, "terms", out)
        return p

    def __neg__(self) -> "ZPoly":
        return ZPoly(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + (-other)

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        if self.n != other.n:
            raise ContextMismatchError("coordinate counts differ")
        out: dict[tuple, LambdaPoly] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                prod = c1 * c2
                acc = out.get(mono)
                s = prod if acc is None else acc + prod
                if s.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = s
        p = ZPoly.__new__(ZPoly)
        object.__setattr__(p, "n", self.n)
        object.__setattr__(p, "terms", out)
        return p

    def scale(self, c: Scalar | LambdaPoly) -> "ZPoly":
        if isinstance(c, Scalar):
            c = LambdaPoly.const(c)
        if c.is_zero():
            return ZPoly.zero(self.n)
        return ZPoly(self.n, {m: v * c for m, v in self.terms.items()})

    def __pow__(self, k: int) -> "ZPoly":
        out = ZPoly.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus -----------------------------------------------------------
    def derivative(self, i: int) -> "ZPoly":
        out = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            lowered = mono[:i] + (e - 1,) + mono[i + 1:]
            term = c.scale(Scalar(e))
            acc = out.get(lowered)
            out[lowered] = term if acc is None else acc + term
        return ZPoly(self.n, out)

    def subst_lambda(self, value: LambdaPoly) -> "ZPoly":
        return ZPoly(self.n, {m: c.subst(value) for m, c in self.terms.items()})

    def evaluate(self, point: list[Scalar], lam: Scalar | None = None) -> Scalar:
        total = ZERO
        for mono, c in self.terms.items():
            cval = c.constant_value() if lam is None else c.eval_scalar(lam)
            for i, e in enumerate(mono):
                for _ in range(e):
                    cval = cval * point[i]
            total = total + cval
        return total

    # -- division -----------------------------------------------------------
    def leading(self) -> tuple[tuple, LambdaPoly]:
        mono = max(self.terms, key=grlex_key)
        return mono, self.terms[mono]

    def exact_div(self, divisor: "ZPoly") -> "ZPoly | None":
        """Quotient self/divisor if the division is exact, else None.

        The divisor's leading coefficient must be constant in L (true for
        every norm polynomial), so division stays in the coefficient ring.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return ZPoly.zero(self.n)
        dmono, dcoef = divisor.leading()
        dscalar = dcoef.constant_value()  # DegreeError if not constant
        dinv = dscalar.inv()
        work = dict(self.terms)
        quot: dict[tuple, LambdaPoly] = {}
        while work:
            mono = max(work, key=grlex_key)
            rest = mono_div(mono, dmono)
            if rest is None:
                return None  # this term can never be cancelled
            q = work[mono].scale(dinv)
            quot[rest] = q
            for m2, c2 in divisor.terms.items():
                target = mono_mul(rest, m2)
                sub = q * c2
                acc = work.get(target)
                s = (-sub) if acc is None else acc - sub
                if s.is_zero():
                    work.pop(target, None)
                else:
                    work[target] = s
        return ZPoly(self.n, quot)

    # -- comparison ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, ZPoly) and self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple, LambdaPoly]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def __repr__(self) -> str:
        if self.is_zero():
            return "ZPoly(0)"
        bits = []
        for mono, c in self.sorted_terms():
            zs = _mono_str("z", mono)
            bits.append(f"({lambda_str(c)})" + (f"*{zs}" if zs else ""))
        return "ZPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# RingContext: fixes the norm polynomial F and the grading data
# ---------------------------------------------------------------------------

class RingContext:
    """Shared data for localized fractions: coordinates, F, and its degree."""

    __slots__ = ("n", "F", "r", "_fpow", "_dF")

    def __init__(self, n: int, F: ZPoly, r: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_fpow", {0: ZPoly.one(n), 1: F})
        object.__setattr__(self, "_dF", {})

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RingContext is immutable")

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
    if not a.compatible(b):
        raise ContextMismatchError("values built over different norm contexts")


# ---------------------------------------------------------------------------
# LocFn: fractions p / F^k, reduced when first observed
# ---------------------------------------------------------------------------

class LocFn:
    """Localized function ``num / F^k``; arithmetic never divides by F.

    ``num``, ``k``, equality, hashing and printing use the reduced
    (minimal-k) pair, which :meth:`_reduce` computes once, on first use.
    """

    __slots__ = ("ctx", "_num", "_k", "_reduced")

    def __init__(self, ctx: RingContext, num: ZPoly, k: int = 0):
        if num.is_zero():
            num, k = ZPoly.zero(ctx.n), 0
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_k", k)
        object.__setattr__(self, "_reduced", None if k else (num, 0))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("LocFn is immutable")

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
            object.__setattr__(self, "_reduced", reduced)
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
        if self._k == other._k:
            return LocFn(self.ctx, self._num + other._num, self._k)
        if self._k > other._k:
            hi, lo = self, other
        else:
            hi, lo = other, self
        lifted = lo._num * self.ctx.F_pow(hi._k - lo._k)
        return LocFn(self.ctx, hi._num + lifted, hi._k)

    def __neg__(self) -> "LocFn":
        return LocFn(self.ctx, -self._num, self._k)

    def __sub__(self, other: "LocFn") -> "LocFn":
        return self + (-other)

    def __mul__(self, other: "LocFn") -> "LocFn":
        _check_ctx(self.ctx, other.ctx)
        return LocFn(self.ctx, self._num * other._num, self._k + other._k)

    def mul_F(self) -> "LocFn":
        if self._k > 0:
            return LocFn(self.ctx, self._num, self._k - 1)
        return LocFn(self.ctx, self._num * self.ctx.F, 0)

    def scale(self, c: Scalar | LambdaPoly) -> "LocFn":
        return LocFn(self.ctx, self._num.scale(c), self._k)

    def derivative(self, i: int) -> "LocFn":
        dnum = self._num.derivative(i)
        if self._k == 0:
            return LocFn(self.ctx, dnum, 0)
        combined = dnum * self.ctx.F - self._num.scale(Scalar(self._k)) * self.ctx.dF(i)
        return LocFn(self.ctx, combined, self._k + 1)

    def subst_lambda(self, value: LambdaPoly) -> "LocFn":
        return LocFn(self.ctx, self._num.subst_lambda(value), self._k)

    def evaluate(self, point: list[Scalar], lam: Scalar | None = None) -> Scalar:
        f = self.ctx.F.evaluate(point)
        num, k = self._reduce() if f.is_zero() else (self._num, self._k)
        return num.evaluate(point, lam) / f ** k

    # -- comparison ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LocFn)
            and self.ctx.compatible(other.ctx)
            and self._reduce() == other._reduce()
        )

    def __hash__(self) -> int:
        return hash((self.k, self.num))

    def __repr__(self) -> str:
        if self.k == 0:
            return f"LocFn({self.num!r})"
        return f"LocFn({self.num!r} / F^{self.k})"


# ---------------------------------------------------------------------------
# SuperFn: even + odd * w with w^2 = F
# ---------------------------------------------------------------------------

class SuperFn:
    """Element ``even + odd*w`` of the ring extended by the root w of F."""

    __slots__ = ("ctx", "ev", "od")

    def __init__(self, ctx: RingContext, ev: LocFn, od: LocFn):
        _check_ctx(ctx, ev.ctx)
        _check_ctx(ctx, od.ctx)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ev", ev)
        object.__setattr__(self, "od", od)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("SuperFn is immutable")

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
        return SuperFn(self.ctx, self.ev + other.ev, self.od + other.od)

    def __neg__(self) -> "SuperFn":
        return SuperFn(self.ctx, -self.ev, -self.od)

    def __sub__(self, other: "SuperFn") -> "SuperFn":
        return self + (-other)

    def __mul__(self, other: "SuperFn") -> "SuperFn":
        _check_ctx(self.ctx, other.ctx)
        ev = self.ev * other.ev + (self.od * other.od).mul_F()
        od = self.ev * other.od + self.od * other.ev
        return SuperFn(self.ctx, ev, od)

    def scale(self, c: Scalar | LambdaPoly) -> "SuperFn":
        return SuperFn(self.ctx, self.ev.scale(c), self.od.scale(c))

    def derivative(self, i: int) -> "SuperFn":
        """Partial derivative using the chain rule for w: w' = F'/(2F) * w."""
        od = self.od
        od_new = od.derivative(i)
        if not od.is_zero():
            chain = LocFn(self.ctx, od._num * self.ctx.dF(i), od._k + 1).scale(HALF)
            od_new = od_new + chain
        return SuperFn(self.ctx, self.ev.derivative(i), od_new)

    def subst_lambda(self, value: LambdaPoly) -> "SuperFn":
        return SuperFn(self.ctx, self.ev.subst_lambda(value), self.od.subst_lambda(value))

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


HALF = Scalar(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Euler grading: deg z_i = 1, deg w = r/2, deg F^-1 = -r
# ---------------------------------------------------------------------------

NEG_INF = float("-inf")


def _locfn_grades(f: LocFn, shift: Fraction) -> set:
    r = f.ctx.r
    return {Fraction(sum(mono)) - f.k * r + shift for mono in f.num.terms}


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

def _coeff_groups(c: LambdaPoly) -> str:
    """Render a LambdaPoly coefficient as ``(scalar)`` or ``(scalar)(tail)``.

    The scalar is the lowest nonzero coefficient, the tail the remaining
    monic-from-below polynomial; the tail group is omitted when it is 1.
    """
    low = next(k for k, s in enumerate(c.coeffs) if not s.is_zero())
    s = c.coeffs[low]
    tail = LambdaPoly(
        tuple(ZERO for _ in range(low))
        + tuple(ci / s for ci in c.coeffs[low:])
    )
    if tail == LP_ONE:
        return f"({scalar_str(s)})"
    return f"({scalar_str(s)})({lambda_str(tail)})"


def _mono_str(letter: str, mono: tuple) -> str:
    """``z1^2*z3`` style text of an exponent vector; empty for the unit."""
    return "*".join(
        f"{letter}{i+1}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(mono) if e
    )


def superfn_terms(f: SuperFn) -> list[str]:
    out = []
    for part, odd in ((f.ev, False), (f.od, True)):
        for mono, c in part.num.sorted_terms():
            term = _coeff_groups(c)
            zs = _mono_str("z", mono)
            if zs:
                term += f"*{zs}"
            if odd:
                term += " * w"
            if part.k:
                term += " / F" + (f"^{part.k}" if part.k > 1 else "")
            out.append(term)
    return out


def superfn_str(f: SuperFn) -> str:
    terms = superfn_terms(f)
    return " + ".join(terms) if terms else "0"


def _split_terms(text: str) -> list[str]:
    """Split a sum on ' + ' at paren depth zero; every term must be non-empty."""
    parts, depth, start = [], 0, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            i += 3
            start = i
            continue
        i += 1
    parts.append(text[start:])
    parts = [p.strip() for p in parts]
    if not all(parts):
        raise ParseError(f"empty term in {text!r}")
    return parts


def _group_end(text: str) -> int:
    """Index just past the parenthesised group that opens ``text``."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    raise ParseError(f"unclosed group in {text!r}")


def _lead_groups(token: str) -> tuple[LambdaPoly, str]:
    """Parse the leading coefficient groups ``(scalar)`` and ``(Lpoly)``."""
    if not token.startswith("("):
        raise ParseError(f"term must open with a coefficient group: {token!r}")
    end = _group_end(token)
    scalar = parse_scalar(token[1:end - 1])
    rest = token[end:]
    coeff = LambdaPoly.const(scalar)
    if rest.startswith("("):
        end = _group_end(rest)
        coeff = parse_lambda(rest[1:end - 1]).scale(scalar)
        rest = rest[end:]
    return coeff, rest.strip()


# one factor after the coefficient groups, with the operator before it
_FACTOR = re.compile(
    rf"\s*(?P<op>[*/])\s*(?:(?P<var>[zd])(?P<index>{_POSINT})(?:\^(?P<exp>{_POSINT}))?"
    rf"|(?P<w>w)|(?P<F>F)(?:\^(?P<k>{_POSINT}))?)"
)


def parse_term(term: str, n: int) -> tuple[LambdaPoly, tuple, bool, int, tuple]:
    """Parse one textual term.

    The grammar, with optional whitespace around ``*`` and ``/``::

        term   := groups {"*" z-factor} ["*" "w"] ["/" "F" ["^" k]] {"*" d-factor}
        groups := "(" scalar ")" ["(" Lpoly ")"]
        factor := ("z" | "d") index ["^" k]

    Indices, exponents and k are positive decimal integers.

    Returns (coefficient, z-monomial, odd?, denominator power, d-monomial).
    """
    coeff, rest = _lead_groups(term.strip())
    zmono = [0] * n
    dmono = [0] * n
    odd = False
    k = 0
    stage = 0  # 0: z-factors, 1: after w, 2: after the F-power, 3: d-factors
    pos = 0
    while pos < len(rest):
        m = _FACTOR.match(rest, pos)
        if m is None:
            raise ParseError(f"unexpected text {rest[pos:]!r} in term {term!r}")
        pos = m.end()
        if m["op"] == "/":
            if not m["F"] or stage >= 2:
                raise ParseError(f"misplaced denominator in term {term!r}")
            k, stage = int(m["k"] or 1), 2
        elif m["w"]:
            if stage >= 1:
                raise ParseError(f"misplaced w in term {term!r}")
            odd, stage = True, 1
        elif m["var"]:
            idx = int(m["index"]) - 1
            if idx >= n:
                raise ParseError(f"index out of range in {m['var']}{m['index']}")
            if m["var"] == "z":
                if stage > 0:
                    raise ParseError(f"misplaced z-factor in term {term!r}")
                zmono[idx] += int(m["exp"] or 1)
            else:
                dmono[idx] += int(m["exp"] or 1)
                stage = 3
        else:
            raise ParseError(f"F may only appear as a denominator in term {term!r}")
    return coeff, tuple(zmono), odd, k, tuple(dmono)


def parse_superfn(text: str, ctx: RingContext) -> SuperFn:
    text = text.strip()
    if text == "0":
        return SuperFn.zero(ctx)
    total = SuperFn.zero(ctx)
    for term in _split_terms(text):
        coeff, zmono, odd, k, dmono = parse_term(term, ctx.n)
        if any(dmono):
            raise ParseError("derivative factors are not allowed in a function")
        frac = LocFn(ctx, ZPoly.monomial(ctx.n, zmono, coeff), k)
        part = SuperFn.from_locfn(LocFn.zero(ctx), frac) if odd else SuperFn.from_locfn(frac)
        total = total + part
    return total
