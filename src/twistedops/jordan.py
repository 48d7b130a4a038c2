"""Concrete simple complex Jordan algebras and their norm calculus.

Three families are provided, each over exact rationals:

* ``sym:r``  -- symmetric r x r matrices under A o B = (AB + BA)/2,
* ``full:r`` -- all r x r matrices under the same product,
* ``spin:p`` -- the rank-2 spin factor C + C^(p-1) with
  (a,u) o (b,v) = (ab + <u,v>, av + bu).

A family supplies only its structure data: basis labels, structure
constants, unit, trace and a primitive idempotent.  From these each
algebra carries its Gram matrix with exact inverse (defining the dual
basis), the norm polynomial F of degree equal to the rank, and the
adjugate map q -> adj(q) satisfying q o adj(q) = F(q) * e.  F and adj q
are derived the same way for every family, from the generic minimal
polynomial of the generic element q = sum_i z_i b_i: its coefficients
come from the power traces tr(q^k), F is its constant term and adj q
follows by Cayley-Hamilton.  q lives in the polynomial ring of
:mod:`twistedops.ring`; the product identities are checked exactly at q,
and the derivative identities relating F, w = sqrt(F), traces and triple
products symbolically or at random rational points.

Products and triples run on integers.  The structure constants are
scaled once per algebra to ints over the lcm D of their denominators
(2 for sym and full, 1 for spin).  An element is read once into integer
numerators over one element-wide denominator, real and imaginary parts
as separate term lists, and keeps that form in a private slot; a result
carries the form it was built from, its content gcd divided out, so q,
adj q and every product or triple feed later products without being read
again.  Each output coordinate is turned back into reduced Scalars once.
A trace tr(a o b) is read off the two forms with the trace table
T_jk = tr(b_j o b_k), itself derived from the structure constants, a
linear form tr(x o q) with the Gram table in the same way, and the
product identities compare both sides as forms, which are canonical up to
the order of their terms.  Traces tr(a), scalings, sums and adj q are
weighted sums of forms through the same kernel, so every element
operation has one type rule: a ZPoly input coordinate makes every output
coordinate a ZPoly, and Scalar inputs give Scalar outputs.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import product
from math import gcd, lcm

from .report import CheckResult, per_algebra, timed_check
from .ring import (
    Frozen,
    LocFn,
    RingContext,
    Scalar,
    ZPoly,
    ZERO,
    ONE,
    RingError,
    _POSINT,
    _guards,
    _overflow,
    _reduced,
    _unit,
    _zpoly,
)


class JordanError(RingError):
    """Base class for Jordan-algebra specific failures."""


class NotInvertibleError(JordanError):
    """The norm vanished where an inverse was requested."""


class PrimitiveIdempotentError(JordanError):
    """An element failed the y o y = y, tr(y) = 1 guard."""


class DimensionMismatchError(JordanError):
    """Coordinate vector length does not match the algebra dimension."""


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class JElem(Frozen):
    """Coordinate vector of length n, over Scalar (points) or ZPoly.

    The private slot ``_num`` holds the integer form that products and
    triples read (see :func:`_read`), None until first needed; a product
    or triple result carries the form it was built from.  ``==``,
    ``hash`` and ``repr`` read ``coords`` alone.
    """

    __slots__ = ("coords", "_num")

    def __init__(self, coords):
        _set_coords(self, tuple(coords))
        _set_form(self, None)

    @staticmethod
    def from_rationals(values) -> "JElem":
        return JElem(tuple(Scalar(Fraction(v)) for v in values))

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, JElem) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __repr__(self) -> str:
        return f"JElem({', '.join(map(str, self.coords))})"


_set_coords, _set_form = JElem.coords.__set__, JElem._num.__set__


def _jelem(coords: tuple, form: tuple) -> JElem:
    """The JElem with ``coords`` and the integer form they were built from."""
    e = JElem(coords)
    _set_form(e, form)
    return e


# The integer form of an element is a tuple (den, re, im, poly): the
# coordinates are re + i*im over the one positive denominator den, re and
# im hold per coordinate a list of (packed monomial, nonzero int) pairs,
# im is None when every coordinate is real, and poly says whether some
# coordinate is a ZPoly (a Scalar counts as a constant polynomial).

def _read(coords: tuple) -> tuple:
    """The integer form of a coordinate vector, over the lcm of its
    coefficients' denominators."""
    terms = [x.packed.items() if isinstance(x, ZPoly) else ((0, x),) for x in coords]
    den = lcm(*[c.d for t in terms for _, c in t])
    re = [[(m, c.a * (den // c.d)) for m, c in t if c.a] for t in terms]
    im = None
    if any(c.b for t in terms for _, c in t):
        im = [[(m, c.b * (den // c.d)) for m, c in t if c.b] for t in terms]
    return den, re, im, any(isinstance(x, ZPoly) for x in coords)


def _collect(den: int, re: list, im: list, poly: bool) -> tuple:
    """The integer form of the numerator dicts ``re`` and ``im`` (one per
    coordinate) over ``den``, zero terms dropped and the content gcd of
    numerators and denominator divided out."""
    re = [[t for t in d.items() if t[1]] for d in re]
    im = [[t for t in d.items() if t[1]] for d in im]
    if not any(im):
        im = None
    if den > 1:
        g = gcd(den, *[v for ts in re for _, v in ts], *[v for ts in im or () for _, v in ts])
        if g > 1:
            den //= g
            re = [[(m, v // g) for m, v in ts] for ts in re]
            if im:
                im = [[(m, v // g) for m, v in ts] for ts in im]
    return den, re, im, poly


def _coordinate(den: int, re: list, im: list) -> dict:
    """The packed ``{monomial: Scalar}`` of one coordinate, each
    coefficient reduced once."""
    if not im:
        return {m: _reduced(a, 0, den) for m, a in re}
    nums = {m: [a, 0] for m, a in re}
    for m, b in im:
        nums.setdefault(m, [0, 0])[1] = b
    return {m: _reduced(a, b, den) for m, (a, b) in nums.items()}


def _int_table(rows, width: int) -> tuple:
    """``(D, cells, width)``: the lcm D of the denominators of a table of
    rational cells, each ``width`` entries long, and per cell the
    ``(k, D * entry_k)`` pairs of its nonzero entries, all ints."""
    den = lcm(*(c.denominator for row in rows for cell in row for c in cell))
    return den, tuple(tuple(tuple((k, c.numerator * (den // c.denominator)) for k, c in enumerate(cell) if c)
                            for cell in row) for row in rows), width


def _trace_matrix(prod, trace_vec) -> list:
    """T_jk = sum_l tr(b_l) c_jkl = tr(b_j o b_k), from the structure constants."""
    return [[sum((c * t for c, t in zip(cell, trace_vec) if c and t), Fraction(0)) for cell in row] for row in prod]


@cache
def _scalar_table(width: int) -> tuple:
    """One coordinate times a ``width``-coordinate element, the table of
    :meth:`JordanAlgebra._weighted`."""
    return _int_table(([[int(j == k) for j in range(width)] for k in range(width)],), width)


# ---------------------------------------------------------------------------
# The algebra container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JordanAlgebra:
    kind: str                 # "sym" | "full" | "spin"
    selector: str             # e.g. "full:2"
    r: int                    # rank (= degree of F)
    n: int                    # dimension
    m: Fraction               # n / r
    labels: tuple             # basis labels, e.g. ("E11", "E22", "E12+E21")
    prod: tuple               # structure constants c[i][j][k] as Fraction
    unit: tuple               # coordinates of the identity e
    trace_vec: tuple          # tr(b_i)
    gram: tuple               # G[i][j] = tr(b_i o b_j)
    gram_inv: tuple           # exact inverse of the Gram matrix
    normF: ZPoly              # the norm polynomial, F(e) = 1, deg = r
    adjugate: tuple           # coordinates of adj(q) as ZPoly in z
    idempotent: tuple         # canonical primitive idempotent coordinates
    ring: RingContext

    # -- basis helpers ------------------------------------------------------
    def basis_element(self, i: int) -> JElem:
        return JElem(tuple(ONE if e else ZERO for e in _unit(self.n, i)))

    def dual_basis_element(self, i: int) -> JElem:
        _unit(self.n, i)  # the range check: a negative i would index gram_inv from the end
        return JElem(tuple(Scalar(self.gram_inv[i][j]) for j in range(self.n)))

    def unit_elem(self) -> JElem:
        return JElem(tuple(Scalar(c) for c in self.unit))

    def idempotent_elem(self) -> JElem:
        return JElem(tuple(Scalar(c) for c in self.idempotent))

    @per_algebra
    def generic_elem(self) -> JElem:
        """q = sum_i z_i b_i, one element per algebra, so its integer form
        is read once."""
        return JElem(tuple(ZPoly.coord(self.n, i) for i in range(self.n)))

    def zero_elem(self) -> JElem:
        return JElem((ZERO,) * self.n)

    def _coords(self, a: JElem) -> tuple:
        """The coordinates of ``a``, which must number n."""
        if len(a) != self.n:
            raise DimensionMismatchError(f"expected {self.n} coordinates, got {len(a)}")
        return a.coords

    # -- products -----------------------------------------------------------
    @cached_property
    def _table(self) -> tuple:
        """The structure constants c_ijk as an integer table into n output
        coordinates, derived from ``prod`` once per algebra."""
        return _int_table(self.prod, self.n)

    @cached_property
    def _trace_table(self) -> tuple:
        """The trace matrix T_jk = tr(b_j o b_k) as an integer table into
        one output coordinate.  Derived from ``prod`` on each instance, as
        ``_table`` is, and not from ``gram``, which a copy with replaced
        constants keeps."""
        return _int_table([[(t,) for t in row] for row in _trace_matrix(self.prod, self.trace_vec)], 1)

    @cached_property
    def _gram_table(self) -> tuple:
        """The Gram matrix as an integer table into one output coordinate:
        a copy with replaced constants keeps it, and with it the linear
        forms of pi+ and of the Fourier transform.  On the algebra
        :func:`_finish` returns it is ``_trace_table`` itself."""
        return _int_table([[(g,) for g in row] for row in self.gram], 1)

    def _form(self, a: JElem) -> tuple:
        """The integer form of ``a``, read on first use and kept on ``a``;
        the length guard runs on every call."""
        coords = self._coords(a)
        form = a._num
        if form is None:
            form = _read(coords)
            _set_form(a, form)
        return form

    def _bilinear(self, out: list, left: list, right: list, cells: tuple, scale: int) -> None:
        """Add every scale s x y, x a term of left_i, y of right_j and (k, s)
        in ``cells[i][j]``, into ``out[k]``, one dict from packed monomial to
        int per coordinate; ``left`` and ``right`` hold the (monomial, int)
        terms of each coordinate.  The left factor always stands on the
        left, so a non-commutative structure is not symmetrised."""
        guards = _guards(self.n)
        for i, left_i in enumerate(left):
            if not left_i:
                continue
            row = cells[i]
            for j, right_j in enumerate(right):
                cell = row[j]
                if not (cell and right_j):
                    continue
                for ma, ca in left_i:
                    ca *= scale
                    for k, s in cell:
                        acc = out[k]
                        get = acc.get
                        cs = ca * s
                        for mb, cb in right_j:
                            mono = ma + mb
                            if mono & guards:
                                raise _overflow()
                            acc[mono] = get(mono, 0) + cs * cb

    def _combine(self, pairs: tuple, signs: tuple = (1,), table: tuple | None = None) -> tuple:
        """The integer form of the sum of sign_t * x_t o y_t over the pairs
        (x_t, y_t) of integer forms, summed into one set of numerator
        dicts over the lcm of the products' denominators.  ``table`` is the
        bilinear map, the product ``_table`` by default.  Each product is
        scaled up to it through its left factor; an imaginary part costs
        its two extra bilinear sums, and none is formed for a real one."""
        tden, cells, width = table or self._table
        dens = [x[0] * y[0] for x, y in pairs]
        den = lcm(*dens)
        re, im = [{} for _ in range(width)], [{} for _ in range(width)]
        for (x, y), d, sign in zip(pairs, dens, signs):
            s = sign * (den // d)
            _, xre, xim, _ = x
            _, yre, yim, _ = y
            self._bilinear(re, xre, yre, cells, s)
            if yim is not None:
                self._bilinear(im, xre, yim, cells, s)
            if xim is not None:
                self._bilinear(im, xim, yre, cells, s)
                if yim is not None:
                    self._bilinear(re, xim, yim, cells, -s)
        poly = any(x[3] or y[3] for x, y in pairs)
        return _collect(tden * den, re, im, poly)

    def _weighted(self, w: tuple, forms: tuple) -> tuple:
        """The integer form of sum_t w_t x_t: ``w`` is the integer form of one
        coordinate per form x_t in ``forms``, which share one width."""
        den, re, im, poly = w
        pairs = tuple(((den, [re[t]], im and [im[t]], poly), x) for t, x in enumerate(forms))
        return self._combine(pairs, (1,) * len(pairs), _scalar_table(len(forms[0][1])))

    def _result(self, form: tuple) -> JElem:
        """The element of an integer form, as wide as it: ZPoly coordinates
        when some input had one, Scalar ones otherwise; it keeps the form."""
        den, re, im, poly = form
        coords = [_coordinate(den, r, i) for r, i in zip(re, im or [[]] * len(re))]
        if poly:
            return _jelem(tuple(_zpoly(self.n, x) for x in coords), form)
        return _jelem(tuple(x.get(0, ZERO) for x in coords), form)

    def _product_form(self, fa: tuple, fb: tuple) -> tuple:
        return self._combine(((fa, fb),))

    def _triple_form(self, fa: tuple, fb: tuple, fc: tuple, fac: tuple | None = None,
                     fbc: tuple | None = None, fab: tuple | None = None) -> tuple:
        """The integer form of {a,b,c} from the forms of a, b, c and, when
        the caller has them, of a o c, b o c and a o b."""
        fbc = self._product_form(fb, fc) if fbc is None else fbc
        fac = self._product_form(fa, fc) if fac is None else fac
        fab = self._product_form(fa, fb) if fab is None else fab
        return self._combine(((fab, fc), (fa, fbc), (fac, fb)), (1, 1, -1))

    def _trace_of(self, fa: tuple, fb: tuple, table: tuple | None = None):
        """tr(a o b) = sum_jk a_j b_k T_jk from the integer forms of a and b,
        T the trace table unless ``table`` is given: a ZPoly when either has
        a ZPoly coordinate, a Scalar otherwise."""
        return self._result(self._combine(((fa, fb),), table=table or self._trace_table)).coords[0]

    def product(self, a: JElem, b: JElem) -> JElem:
        """a o b, summed over the integer forms of a and b with the integer
        structure constants, over one denominator.  A Scalar coordinate
        counts as a constant polynomial; when a and b have Scalar
        coordinates only, so does the result."""
        return self._result(self._product_form(self._form(a), self._form(b)))

    def triple(self, a: JElem, b: JElem, c: JElem) -> JElem:
        """Triple product {a,b,c} = (a o b) o c + a o (b o c) - (a o c) o b.

        Outer slots a, c are symmetric; for matrix kinds this is
        (abc + cba)/2 in ordinary matrix notation.  The three outer
        products are summed into one set of numerator dicts, the last
        negated; no product is reordered, so a non-commutative structure
        still fails.
        """
        return self._result(self._triple_form(self._form(a), self._form(b), self._form(c)))

    def trace(self, a: JElem):
        """tr(a) = sum_t a_t tr(b_t), weighted against the trace vector."""
        traces = tuple(_read((Scalar(t),)) for t in self.trace_vec)
        return self._result(self._weighted(self._form(a), traces)).coords[0]

    def trace_form(self, a: JElem, b: JElem):
        """tr(a o b), read off the integer forms of a and b with the trace
        table; the same value and type as ``trace(product(a, b))``."""
        return self._trace_of(self._form(a), self._form(b))

    def scale_elem(self, c: Fraction, a: JElem) -> JElem:
        return self._result(self._weighted(_read((Scalar(c),)), (self._form(a),)))

    def add_elem(self, a: JElem, b: JElem) -> JElem:
        return self._result(self._weighted(_read((ONE, ONE)), (self._form(a), self._form(b))))

    # -- norm, adjugate, inverse ---------------------------------------------
    def norm_at(self, q: JElem) -> Scalar:
        return self.normF.evaluate(list(self._coords(q)))

    def adjugate_at(self, q: JElem) -> JElem:
        point = list(self._coords(q))
        return JElem(tuple(p.evaluate(point) for p in self.adjugate))

    def inverse_at(self, q: JElem) -> JElem:
        f = self.norm_at(q)
        if f.is_zero():
            raise NotInvertibleError("norm vanishes at the given point")
        finv = f.inv()
        adj = self.adjugate_at(q)
        return JElem(tuple(x * finv for x in adj.coords))

    @per_algebra
    def adjugate_elem(self) -> JElem:
        """adj(q) at the generic point, with ZPoly coordinates; one element
        per algebra, so its integer form is read once."""
        return JElem(self.adjugate)

    # -- linear forms ---------------------------------------------------------
    def linear_form(self, x: JElem) -> ZPoly:
        """The function q -> tr(x o q) as a polynomial in z, read off the
        integer forms of x and q with the Gram table."""
        return self._trace_of(self._form(x), self._form(self.generic_elem()), self._gram_table)

    def tr_v_qinv(self, v: JElem) -> LocFn:
        """The function q -> tr(v o q^{-1}) = tr(v o adj q) / F."""
        return LocFn(self.ring, self.trace_form(v, self.adjugate_elem()), 1)

    # -- guards ---------------------------------------------------------------
    def check_primitive_idempotent(self, y: JElem) -> None:
        if self.product(y, y) != y:
            raise PrimitiveIdempotentError("element is not idempotent")
        if self.trace(y) != ONE:
            raise PrimitiveIdempotentError("idempotent is not primitive (trace != 1)")

    def __repr__(self) -> str:
        return f"JordanAlgebra({self.selector}, n={self.n}, r={self.r}, m={self.m})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _gauss_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise JordanError(f"singular matrix: no pivot in column {col + 1}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _mat_jordan(a: dict, b: dict) -> dict:
    """(ab + ba)/2 of two sparse matrices ``{(row, col): Fraction}``."""
    out: dict = {}
    for x, y in ((a, b), (b, a)):
        for (i, k), vx in x.items():
            for (k2, j), vy in y.items():
                if k == k2:
                    out[(i, j)] = out.get((i, j), Fraction(0)) + vx * vy
    return {k: v / 2 for k, v in out.items() if v}


def _norm_and_adjugate(J: JordanAlgebra) -> tuple[ZPoly, tuple]:
    """F and adj q from the generic minimal polynomial of q.

    The power traces p_k = tr(q^k) give its coefficients c_k, in
    t^r + c_1 t^(r-1) + ... + c_r, by Newton's identities
    k c_k = -sum_{i=1..k} c_(k-i) p_i, exact over Q.  F = (-1)^r c_r, and
    Cayley-Hamilton, sum_k c_k q^(r-k) = 0, gives q o adj q = F e with
    adj q = (-1)^(r-1) sum_{k<r} c_k q^(r-1-k), one weighted sum of the
    integer forms of q^(r-1) .. q^0.  p_k is read as the trace form
    tr(q^(k-1) o q), so q^r is never formed.
    """
    n, r = J.n, J.r
    q = J.generic_elem()
    powers = [J.unit_elem(), q][:r]            # q^0 .. q^(r-1)
    while len(powers) < r:
        powers.append(J.product(q, powers[-1]))
    traces = [J.trace_form(p, q) for p in powers]
    c = [ZPoly.one(n)]
    for k in range(1, r + 1):
        acc = sum((c[k - i] * traces[i - 1] for i in range(1, k + 1)), ZPoly.zero(n))
        c.append(acc.scale(Scalar(Fraction(-1, k))))
    sign = Scalar((-1) ** (r - 1))
    adj = J._weighted(_read(tuple(x.scale(sign) for x in c[:r])), tuple(map(J._form, reversed(powers))))
    return c[r].scale(-sign), J._result(adj).coords


def _finish(kind: str, r: int, n: int, labels, prod, unit, trace_vec, idempotent) -> JordanAlgebra:
    """The algebra of the structure data; F, adj q and the ring are set on the
    instance they were derived on, which keeps its tables and the form of q."""
    gram = _trace_matrix(prod, trace_vec)
    to_t = lambda rows: tuple(tuple(row) for row in rows)
    J = JordanAlgebra(
        kind=kind,
        selector=f"{kind}:{r if kind != 'spin' else n}",
        r=r,
        n=n,
        m=Fraction(n, r),
        labels=tuple(labels),
        prod=tuple(tuple(tuple(cell) for cell in row) for row in prod),
        unit=tuple(unit),
        trace_vec=tuple(trace_vec),
        gram=to_t(gram),
        gram_inv=to_t(_gauss_inverse(gram)),
        normF=None,
        adjugate=None,
        idempotent=tuple(idempotent),
        ring=None,
    )
    normF, adjugate = _norm_and_adjugate(J)
    J.__dict__.update(normF=normF, adjugate=adjugate, ring=RingContext(n, normF, r), _gram_table=J._trace_table)
    return J


def _matrix_family(kind: str, r: int, pairs: list[tuple[int, int]]) -> JordanAlgebra:
    """r x r matrices under A o B = (AB + BA)/2, one basis matrix per pair:
    E_ij, or E_ij + E_ji for ``sym``.  A matrix has coordinates its entries
    at ``pairs``; its trace is the sum of the diagonal coordinates."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    basis = [dict.fromkeys({(i, j), (j, i)} if kind == "sym" else {(i, j)}, Fraction(1))
             for i, j in pairs]
    labels = ["+".join(f"E{i+1}{j+1}" for i, j in sorted(mat)) for mat in basis]
    zero = Fraction(0)
    coords = lambda mat: [mat.get(p, zero) for p in pairs]
    prod = [[coords(_mat_jordan(a, b)) for b in basis] for a in basis]
    return _finish(kind, r, len(pairs), labels, prod, coords({(i, i): Fraction(1) for i in range(r)}),
                   [Fraction(int(i == j)) for i, j in pairs], coords({(0, 0): Fraction(1)}))


def make_full(r: int) -> JordanAlgebra:
    """All r x r matrices; basis E_ij (row-major), norm = determinant."""
    return _matrix_family("full", r, [(i, j) for i in range(r) for j in range(r)])


def make_sym(r: int) -> JordanAlgebra:
    """Symmetric r x r matrices; basis E_ii and E_ij + E_ji for i < j."""
    return _matrix_family("sym", r, [(i, i) for i in range(r)]
                          + [(i, j) for i in range(r) for j in range(i + 1, r)])


def make_spin(p: int) -> JordanAlgebra:
    """The spin factor C + C^(p-1) under (a,u) o (b,v) = (ab + <u,v>, av + bu):
    rank 2, norm z0^2 - z1^2 - ... ."""
    if p < 2:
        raise ValueError("spin factor needs p >= 2")
    rule = lambda x, y: ([Fraction(sum(a * b for a, b in zip(x, y)))]
                         + [Fraction(x[0] * y[i] + y[0] * x[i]) for i in range(1, p)])
    basis = [[int(i == j) for j in range(p)] for i in range(p)]
    return _finish("spin", 2, p, ["u0"] + [f"u{i}" for i in range(1, p)],
                   [[rule(a, b) for b in basis] for a in basis],
                   [Fraction(1)] + [Fraction(0)] * (p - 1), [Fraction(2)] + [Fraction(0)] * (p - 1),
                   [Fraction(1, 2), Fraction(1, 2)] + [Fraction(0)] * (p - 2))


_FAMILIES = {"sym": make_sym, "full": make_full, "spin": make_spin}


def parse_selector(selector: str) -> tuple[str, int]:
    """Split a ``kind:size`` selector; the size is a positive decimal integer."""
    kind, _, size = selector.partition(":")
    if not re.fullmatch(_POSINT, size):
        raise ValueError(f"bad algebra selector {selector!r}; expected sym:<r>|full:<r>|spin:<p>")
    if kind not in _FAMILIES:
        raise ValueError(f"unknown algebra kind {kind!r}; expected sym|full|spin")
    return kind, int(size)


def from_selector(selector: str) -> JordanAlgebra:
    """Build an algebra from a ``kind:size`` selector string."""
    kind, size = parse_selector(selector)
    return _FAMILIES[kind](size)


# ---------------------------------------------------------------------------
# Structure validation and the derivative-identity suite
# ---------------------------------------------------------------------------

def validate_structure(J: JordanAlgebra) -> list[CheckResult]:
    """Exact checks of the defining structure data."""
    def commutative():
        pair = _noncommuting_pair(J)
        if pair:
            i, j = pair
            raise JordanError(f"b{i+1} o b{j+1} != b{j+1} o b{i+1}")

    def unit_law():
        i = _unit_failure(J)
        if i is not None:
            raise JordanError(f"e o {J.labels[i]} != {J.labels[i]}")

    def unit_trace():
        t = J.trace(J.unit_elem())
        if t != Scalar(J.r):
            raise JordanError(f"tr(e) = {t}, expected {J.r}")

    def norm_at_unit():
        v = J.normF.evaluate([Scalar(c) for c in J.unit])
        if v != ONE:
            raise JordanError(f"F(e) = {v}")

    def adjugate_identity():
        q = J.generic_elem()
        lhs = J.product(q, J.adjugate_elem())
        for k in range(J.n):
            want = J.normF.scale(Scalar(J.unit[k])) if J.unit[k] else ZPoly.zero(J.n)
            if lhs.coords[k] != want:
                raise JordanError(f"(q o adj q) coordinate {k+1} != F * e")

    def ratio():
        if Fraction(J.n, J.r) != J.m:
            raise JordanError(f"n/r = {Fraction(J.n, J.r)} != m = {J.m}")

    def completeness():
        acc = J.zero_elem()
        for i in range(J.n):
            acc = J.add_elem(acc, J.product(J.basis_element(i), J.dual_basis_element(i)))
        if acc != J.scale_elem(J.m, J.unit_elem()):
            raise JordanError(f"sum b_i o b^i = {acc}, expected m*e")

    def trace_normalization():
        # Tr(L_x) = m * tr(x) for every basis x
        for i in range(J.n):
            total = Fraction(0)
            for j in range(J.n):
                total += J.prod[i][j][j]
            if total != J.m * J.trace_vec[i]:
                raise JordanError(f"Tr(L_{J.labels[i]}) = {total} != m*tr")

    return [timed_check(name, fn) for name, fn in (
        ("product-commutative", commutative),
        ("unit-law", unit_law),
        ("unit-trace", unit_trace),
        ("norm-normalized", norm_at_unit),
        ("adjugate-identity", adjugate_identity),
        ("dimension-ratio", ratio),
        ("dual-basis-completeness", completeness),
        ("trace-normalization", trace_normalization),
    )]


def _noncommuting_pair(J: JordanAlgebra) -> tuple | None:
    """The first basis pair (i, j), i < j, whose structure constants give
    b_i o b_j != b_j o b_i; None when ``prod`` is commutative."""
    return next(((i, j) for i in range(J.n) for j in range(i + 1, J.n) if J.prod[i][j] != J.prod[j][i]), None)


def _unit_failure(J: JordanAlgebra) -> int | None:
    """The first basis index i with e o b_i != b_i; None when the unit data
    is a unit on the basis."""
    fe = J._form(J.unit_elem())
    return next((i for i, b in enumerate(_basis_forms(J)) if not _same(J._product_form(fe, b), b)), None)


def random_point(J: JordanAlgebra, rng: random.Random, invertible: bool = True) -> JElem:
    """A random rational point, resampled until the norm is nonzero;
    NotInvertibleError when the norm vanishes identically."""
    if invertible and J.normF.is_zero():
        raise NotInvertibleError("the norm vanishes identically: no invertible point")
    while True:
        q = JElem(tuple(Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(J.n)))
        if not invertible or not J.norm_at(q).is_zero():
            return q


def _same(f: tuple, g: tuple) -> bool:
    """Whether two integer forms hold the same coordinates of the same type.
    A form is canonical up to the order of its terms: the content gcd is
    divided out, no term is zero and im is None exactly when every
    imaginary part is zero."""
    if f[0] != g[0] or f[3] != g[3] or (f[2] is None) != (g[2] is None):
        return False
    return all(dict(x) == dict(y) for x, y in zip(f[1] + (f[2] or []), g[1] + (g[2] or [])))


@per_algebra
def _sandwiches(J: JordanAlgebra) -> tuple:
    """The integer forms of {adj q, b_i, adj q}, i = 1..n, with adj q o adj q
    formed once: one table per algebra, read only where
    :func:`_has_jordan_inverse` is false, by the triple shift and by the
    inverse derivative X of :func:`_norm_calculus`, each formed there."""
    adj = J._form(J.adjugate_elem())
    adj2 = J._product_form(adj, adj)
    return tuple(J._triple_form(adj, b, adj, fac=adj2) for b in _basis_forms(J))


def _basis_forms(J: JordanAlgebra) -> list:
    return [J._form(J.basis_element(i)) for i in range(J.n)]


def _first_difference(sides) -> tuple | None:
    """``(i, lhs, rhs)`` at the first i whose two integer forms differ, the
    pairs formed one by one up to it; None when every pair agrees."""
    return next(((i, lhs, rhs) for i, (lhs, rhs) in enumerate(sides) if not _same(lhs, rhs)), None)


@per_algebra
def _power_failure(J: JordanAlgebra) -> tuple | None:
    """The first difference of q^2 o (q o b) = q o (q^2 o b) over the basis b,
    the power-associativity check: formed once per algebra, read by it and
    by :func:`_has_jordan_inverse`."""
    fq, prod = J._form(J.generic_elem()), J._product_form
    q2 = prod(fq, fq)
    return _first_difference((prod(q2, prod(fq, b)), prod(fq, prod(q2, b))) for b in _basis_forms(J))


@per_algebra
def _inverse_failure(J: JordanAlgebra) -> tuple | None:
    """The first difference of {b, q, adj q} = F b over the basis b, the
    inverse-triple check: formed once per algebra, read by it and by
    :func:`_has_jordan_inverse`."""
    fq, fadj, fF = J._form(J.generic_elem()), J._form(J.adjugate_elem()), _read((J.normF,))
    q_adj = J._product_form(fq, fadj)
    return _first_difference((J._triple_form(b, fq, fadj, fbc=q_adj), J._weighted(fF, (b,)))
                             for b in _basis_forms(J))


def _has_jordan_inverse(J: JordanAlgebra) -> bool:
    """Whether adj q / F is the Jordan inverse q^-1 of q over Q(i)(z), by five
    premises: ``prod`` is commutative, e o b = b on the basis, the Jordan
    identity holds (power-associativity, linear in b and an identity in z at
    q, so J is a Jordan algebra), {b, q, adj q} = F b on the basis (the
    inverse triple, linear in b, so q o adj q = F e and q^2 o adj q = F q)
    and F is not the zero polynomial.  By McCrimmon's linear definition (A
    Taste of Jordan Algebras, Springer 2004, Part II) adj q / F is then q^-1.
    The cheap premises are read first, so a structure that fails one forms
    neither memoised identity here."""
    return (_noncommuting_pair(J) is None and not J.normF.is_zero() and _unit_failure(J) is None
            and _power_failure(J) is None and _inverse_failure(J) is None)


def point_identities(J: JordanAlgebra, rng: random.Random) -> list[CheckResult]:
    """Product identities, exact at the generic element q = sum z_i b_i.

    q fills one slot and the basis the others: q^2 o (q o b) = q o (q^2 o b);
    {b, q, adj q} = F b (the inverse triple times F); {{adj q, v, adj q}, q,
    v} = F adj q o (v o v) (the triple shift times F^2); the fundamental
    identity {q, {b, q, c}, q} = {{q, b, q}, c, q}.  The first two are formed
    once per algebra (:func:`_power_failure`, :func:`_inverse_failure`) and
    read by the derivative identities too.  The other two are derived where
    their premises hold, and otherwise formed:

    * the fundamental identity.  With this triple, half the standard one, it
      reads V_{q,c} U_q b = U_q V_{c,q} b, the Commuting Formula of every
      linear Jordan algebra over a field with 1/2 (McCrimmon, A Taste of
      Jordan Algebras, Springer 2004).  It rests on two axioms: ``prod`` is
      commutative, read off the structure constants, and (x o y) o x^2 =
      x o (y o x^2), which given commutativity is the power-associativity
      check, an identity in z at x = q and linear in y = b, so it holds for
      all x, y over any extension of Q(i).  Otherwise it is formed with
      U_q b_k = {q, b_k, q} formed once and extended linearly.
    * the triple shift.  Where :func:`_has_jordan_inverse` holds (the two
      axioms, the unit law on the basis, the inverse triple and F != 0),
      adj q / F is the Jordan inverse q^-1, and the shift is F^2 times
      {U_{q^-1} v, q, v} = q^-1 o v^2.  q^-1 is a polynomial in q, so 1, q
      and v generate a Jordan algebra on two generators, which is special by
      the Shirshov-Cohn theorem (characteristic not 2); there both sides are
      (q^-1 v^2 + v^2 q^-1)/2.  Otherwise it is formed with the sandwich
      {adj q, v, adj q} read off the per-algebra table of
      :func:`_sandwiches`.

    Both sides of every formed identity stay integer forms and are compared
    as such; a side is turned into coordinates only when the forms differ,
    to show the residual.  q o q, q o adj q, U_q b_k o q, b_k o q and q o b_k
    are formed once; no product is reordered, so a non-commutative structure
    still fails.  The shift is quadratic in v: the polarised set b_i + b_j
    would cover every v, but takes 15 s on sym:4, so only the basis v is
    checked.  ``rng`` only picks the rational point at which a failing
    identity's residual is shown.
    """
    fq = J._form(J.generic_elem())
    fadj = J._form(J.adjugate_elem())
    fF = _read((J.normF,))
    basis = _basis_forms(J)
    prod, trip = J._product_form, J._triple_form

    def require_equal(lhs: tuple, rhs: tuple, claim: str) -> None:
        """Raise JordanError, ``claim`` and the first residual coordinate at a
        point, unless the integer forms lhs and rhs agree."""
        if _same(lhs, rhs):
            return
        for k, (x, y) in enumerate(zip(J._result(lhs).coords, J._result(rhs).coords)):
            if x != y:
                d = x - y
                z = random_point(J, rng, invertible=False)
                raise JordanError(f"{claim}: residual coordinate {k+1} has {len(d.packed)} terms, "
                                  f"value {d.evaluate(list(z.coords))} at z={z}")

    def show_failure(failure, claim: str) -> None:
        if failure:
            i, lhs, rhs = failure
            require_equal(lhs, rhs, claim.format(J.labels[i]))

    def projection_at_idempotent():
        y = J.idempotent_elem()
        for i in range(J.n):
            x = J.basis_element(i)
            lhs = J.triple(y, x, y)
            t = J.trace_form(x, y)
            rhs = JElem(tuple(c * t for c in y.coords))
            if lhs != rhs:
                raise JordanError(f"{{y,{J.labels[i]},y}} != tr(x o y) y")

    def shift_identity():
        for i, (v, sandwich) in enumerate(zip(basis, _sandwiches(J))):
            require_equal(trip(sandwich, fq, v), J._weighted(fF, (prod(fadj, prod(v, v)),)),
                          f"{{{{adj q,v,adj q}},q,v}} != F adj q o v^2 at v={J.labels[i]}")

    def fundamental_identity():
        q2 = prod(fq, fq)
        U = [trip(fq, b, fq, fac=q2) for b in basis]
        Uq = [prod(u, fq) for u in U]
        bq = [prod(b, fq) for b in basis]
        qb = [prod(fq, b) for b in basis]
        for i, b in enumerate(basis):
            for j, c in enumerate(basis):
                require_equal(J._weighted(trip(b, fq, c, fbc=qb[j], fab=bq[i]), U),
                              trip(U[i], c, fq, fac=Uq[i], fbc=bq[j]),
                              f"{{q,{{b,q,c}},q}} != {{{{q,b,q}},c,q}} at b={J.labels[i]}, c={J.labels[j]}")

    checks = [timed_check(name, fn) for name, fn in (
        ("power-associativity", lambda: show_failure(_power_failure(J), "q^2 o (q o b) != q o (q^2 o b) at b={}")),
        ("idempotent-projection", projection_at_idempotent),
        ("inverse-triple", lambda: show_failure(_inverse_failure(J), "{{b,q,adj q}} != F b at b={}")),
    )]
    checks.append(timed_check("triple-shift", (lambda: None) if _has_jordan_inverse(J) else shift_identity))
    derived = checks[0].ok and _noncommuting_pair(J) is None
    return checks + [timed_check("triple-fundamental", (lambda: None) if derived else fundamental_identity)]


def derivative_identities(J: JordanAlgebra, mode: str = "symbolic",
                          rng: random.Random | None = None, count: int = 20) -> list[CheckResult]:
    """The four derivative identities tying F, w, traces and triples.

    In ``symbolic`` mode each identity fails at the first index, i outer and
    j inner, where its residual of :func:`_norm_calculus` is not zero.  In
    ``points`` mode they are evaluated at ``count`` random invertible
    rational points, an independent cross-check of the symbolic mode.
    """
    if mode == "points":
        return _derivative_identities_points(J, rng or random.Random(0), count)
    if mode != "symbolic":
        raise ValueError(f"unknown mode {mode!r}")

    def first_failure(residual, arity: int, claim) -> None:
        for idx in product(range(J.n), repeat=arity):
            if not residual(*idx).is_zero():
                raise JordanError(claim(*(k + 1 for k in idx)))

    return [timed_check(name, partial(first_failure, *row)) for name, *row in _norm_calculus(J)]


@per_algebra
def _sqrt_residuals(J: JordanAlgebra) -> tuple:
    """e_i = d_i F - tr(b_i o adj q), i = 1..n, F the ring's norm: zero
    exactly where the norm and sqrt derivatives hold at b_i.  One tuple per
    algebra, read by :func:`_norm_calculus` and by the w-bracket check,
    whose two routes to d_i w differ by a multiple of e_i."""
    adj = J.adjugate_elem()
    return tuple(J.ring.dF(i) - J.trace_form(J.basis_element(i), adj) for i in range(J.n))


def _norm_calculus(J: JordanAlgebra) -> tuple:
    """The derivative identities as rows (name, residual, arity, claim), the
    residual a polynomial at i or (i, j) that is zero exactly where the
    identity holds, the claim its failure message.  With F the ring's norm,
    A_i = tr(b_i o adj q), T_ij = tr(b_j o {adj q, b_i, adj q}) off the
    per-algebra sandwich table and e_i = d_i F - A_i (of
    :func:`_sqrt_residuals`), the residuals are

    * e_i for d_i F = A_i and, by the chain rule d_i w = (d_i F / 2F) w,
      for d_i w = (1/2) tr(b_i o q^-1) w;
    * X_ij = F d_i A_j - A_j d_i F + T_ij, the quotient rule's numerator
      over F^2, for d_i tr(b_j o q^-1) = -tr(b_j o {q^-1, b_i, q^-1});
    * S_ij = 2X_ij + 2F d_i e_j - A_i e_j + A_j e_i - e_i e_j for d_i d_j w
      = [(1/4) tr(b_i o q^-1) tr(b_j o q^-1) - (1/2) tr(b_j o {q^-1, b_i,
      q^-1})] w, whose sides times 4F^2/w are 2F d_i d_j F - d_i F d_j F
      and A_i A_j - 2T_ij.

    X is zero, and not formed, where :func:`_has_jordan_inverse` holds:
    adj q / F is then the Jordan inverse q^-1, whose differential in every
    Jordan algebra is d(x^-1) = -U_{x^-1} dx (Faraut and Koranyi, Analysis
    on Symmetric Cones, Oxford 1994, ch. II), so d_i q^-1 = -{q^-1, b_i,
    q^-1}, and the trace form is bilinear with a constant table.  S is then
    zero too once every e_i is zero (the sqrt derivative), and otherwise
    formed with X = 0.  Elsewhere X is formed off the sandwich table, once
    per (i, j), and S reads X's cache.
    """
    F, dF = J.ring.F, J.ring.dF
    basis = _basis_forms(J)
    e = _sqrt_residuals(J)
    A = [dF(i) - e[i] for i in range(J.n)]

    @cache
    def X(i: int, j: int) -> ZPoly:
        T = J._trace_of(basis[j], _sandwiches(J)[i])
        return F * A[j].derivative(i) - A[j] * dF(i) + T

    def S(i: int, j: int) -> ZPoly:
        twice = (X(i, j) + F * e[j].derivative(i)).scale(Scalar(2))
        return twice - A[i] * e[j] + A[j] * e[i] - e[i] * e[j]

    if _has_jordan_inverse(J):
        zero = ZPoly.zero(J.n)
        X = lambda i, j: zero
        if all(x.is_zero() for x in e):
            S = X

    return (
        ("norm-derivative", e.__getitem__, 1, "dF/dz{0} != tr(b{0} o adj q)".format),
        ("sqrt-derivative", e.__getitem__, 1, "d_{0} w != (1/2) tr(b{0} q^-1) w".format),
        ("inverse-derivative", X, 2, "d_{0} tr(b{1} q^-1) mismatch".format),
        ("sqrt-second-derivative", S, 2, "d_{0} d_{1} w mismatch".format),
    )


def _derivative_identities_points(J: JordanAlgebra, rng: random.Random, count: int) -> list[CheckResult]:
    ctx = J.ring
    dF = [ctx.dF(i) for i in range(J.n)]
    ddF = [[dF[i].derivative(j) for j in range(J.n)] for i in range(J.n)]
    tr_adj = [J.trace_form(J.basis_element(i), J.adjugate_elem()) for i in range(J.n)]
    d_tr_adj = [[p.derivative(i) for i in range(J.n)] for p in tr_adj]
    half = Scalar(Fraction(1, 2))
    quarter = Scalar(Fraction(1, 4))

    def at_points():
        for _ in range(count):
            q = random_point(J, rng)
            point = list(q.coords)
            f = J.normF.evaluate(point)
            finv = f.inv()
            qinv = J.inverse_at(q)
            tq = [J.trace_form(J.basis_element(i), qinv) for i in range(J.n)]
            for i in range(J.n):
                # norm derivative
                if dF[i].evaluate(point) != f * tq[i]:
                    raise JordanError(f"norm-derivative at q={q}, i={i+1}")
                trip = J.triple(qinv, J.basis_element(i), qinv)
                for j in range(J.n):
                    tvt = J.trace_form(J.basis_element(j), trip)
                    # derivative of tr(b_j q^-1)
                    lhs = (d_tr_adj[j][i].evaluate(point) * f
                           - tr_adj[j].evaluate(point) * dF[i].evaluate(point)) * finv * finv
                    if lhs != -tvt:
                        raise JordanError(f"inverse-derivative at q={q}, ({i+1},{j+1})")
                    # second derivative cofactor of w
                    lhs2 = half * ddF[i][j].evaluate(point) * finv - quarter * dF[i].evaluate(point) * dF[j].evaluate(point) * finv * finv
                    rhs2 = quarter * tq[i] * tq[j] - half * tvt
                    if lhs2 != rhs2:
                        raise JordanError(f"sqrt-second-derivative at q={q}, ({i+1},{j+1})")

    return [timed_check("derivative-identities-at-points", at_points)]


def verify_jordan_calculus(J: JordanAlgebra, rng: random.Random | None = None) -> list[CheckResult]:
    """Full per-algebra identity suite: structure, products, derivatives,
    all exact; ``rng`` only places a failing product identity's witness."""
    results = validate_structure(J)
    results += point_identities(J, rng or random.Random(0))
    results += derivative_identities(J)
    return results
